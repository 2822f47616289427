"""Run one fabric role through its ``streamlb.cli`` entry point, observed.

    python perfbench/role.py {run,recv,sim} --record OUT.json [--trace] [--setup-only] -- ARGS...

ARGS go unchanged to ``main_run``, ``main_recv`` or ``main_sim``.  Before
the entry point runs, this shim installs the benchmark's observers; when
it returns (SIGTERM makes ``lb-run`` and ``lb-recv`` return normally) the
shim writes what it saw to OUT.json:

* recv: every popped event as (tick, CLOCK_MONOTONIC ns at pop, sha256
  digest), and the receiver's counters.  The digest is what the
  ``checksum`` sink would print; keeping it in memory avoids one write
  per event.
* sim: every popped event as (tick, virtual ns at pop, digest), the wall
  and CPU time of ``run_scenario`` and the time the observer itself took,
  which the benchmark subtracts.
* with --trace: span totals for every layer entry point, epoch boundary
  margins (boundary minus the highest tick forwarded before the publish,
  with the CLOCK_MONOTONIC ns of the publish) and, in ``lb-recv``, queue
  waits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import streamlb.cli as cli  # noqa: E402
from streamlb import dataplane, receiver, sender  # noqa: E402
from streamlb.harness import scenario as scenario_mod  # noqa: E402

from tracer import ENTRY_POINTS, Tracer  # noqa: E402

ENTRY = {"run": cli.main_run, "recv": cli.main_recv, "sim": cli.main_sim}


class Observer:
    def __init__(self, role: str, traced: bool, setup_only: bool):
        self.record: dict = {"role": role, "pid": os.getpid()}
        self.ticks, self.times, self.digests = [], [], []
        self.receivers: list = []
        self.tracer = Tracer() if traced else None
        self.margins: list = []
        self.pushed_at: dict = {}
        self.queue_waits: list = []
        self.probe_ns = 0
        self.sim_run = None
        if self.tracer is not None:
            self.record["missing_entry_points"] = self.tracer.install(ENTRY_POINTS)
            self._observe_margins()
            if role == "recv":
                self._observe_queue_wait()
        if role == "recv":
            self._observe_recv_pops()
        elif role == "sim":
            self._observe_sim(setup_only)

    # --- receiver ------------------------------------------------------------

    def _observe_recv_pops(self):
        pop = receiver.Receiver.pop_event
        ticks, times, digests, waits = self.ticks, self.times, self.digests, self.queue_waits
        pushed_at, clock, digest = self.pushed_at, time.monotonic_ns, sender.event_digest
        receivers = self.receivers

        def pop_event(core, *args, **kwargs):
            event = pop(core, *args, **kwargs)
            if event is not None:
                now = clock()
                if not receivers:
                    receivers.append(core)
                ticks.append(event.tick)
                times.append(now)
                digests.append(digest(event))
                pushed = pushed_at.pop(event.tick, None)
                if pushed is not None:
                    waits.append(now - pushed)
            return event

        receiver.Receiver.pop_event = pop_event

    def _observe_queue_wait(self):
        push = receiver._BoundedQueue.push
        pushed_at, clock = self.pushed_at, time.monotonic_ns

        def queued_push(queue, event):
            pushed_at[event.tick] = clock()
            return push(queue, event)

        receiver._BoundedQueue.push = queued_push

    # --- control plane -----------------------------------------------------------

    def _observe_margins(self):
        apply_schedule = dataplane.LbInstance.apply_schedule
        margins = self.margins

        def observed(inst, boundary_tick, *args, **kwargs):
            if inst.max_forwarded_tick is not None:
                margins.append((time.monotonic_ns(), boundary_tick - inst.max_forwarded_tick))
            return apply_schedule(inst, boundary_tick, *args, **kwargs)

        dataplane.LbInstance.apply_schedule = observed

    # --- virtual clock -------------------------------------------------------------

    def _observe_sim(self, setup_only: bool):
        run_scenario = cli.run_scenario
        record = self.record

        def timed_run_scenario(*args, **kwargs):
            record["entered_ns"] = time.monotonic_ns()
            if setup_only:
                raise SystemExit(0)
            wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
            try:
                return run_scenario(*args, **kwargs)
            finally:
                record["wall_ns"] = time.perf_counter_ns() - wall0
                record["cpu_ns"] = time.process_time_ns() - cpu0
                record["probe_ns"] = self.probe_ns

        cli.run_scenario = timed_run_scenario

        run = scenario_mod._Run.run
        observer = self

        def capture_run(sim_run):
            observer.sim_run = sim_run
            return run(sim_run)

        scenario_mod._Run.run = capture_run

        pop = receiver.Receiver.pop_event
        ticks, times, digests = self.ticks, self.times, self.digests
        clock, digest = time.perf_counter_ns, sender.event_digest

        def pop_event(core, *args, **kwargs):
            event = pop(core, *args, **kwargs)
            if event is not None:
                t0 = clock()
                ticks.append(event.tick)
                times.append(observer.sim_run.now_ns)
                digests.append(digest(event))
                observer.probe_ns += clock() - t0
            return event

        receiver.Receiver.pop_event = pop_event

    # --- output ------------------------------------------------------------------

    def write(self, path: str, exit_code):
        rec = self.record
        rec["exit_code"] = exit_code
        rec["pops"] = {"ticks": self.ticks, "ns": self.times, "digests": self.digests}
        if self.receivers:
            rec["counters"] = dict(self.receivers[0].counters)
        if self.tracer is not None:
            rec["trace"] = self.tracer.dump()
            rec["margins"] = self.margins
            rec["queue_wait_ns"] = self.queue_waits
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(rec, fh, separators=(",", ":"))
        os.replace(tmp, path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=sorted(ENTRY))
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    own = sys.argv[1:]
    split = own.index("--") if "--" in own else len(own)
    opts = parser.parse_args(own[:split])
    argv = own[split + 1 :]
    observer = Observer(opts.role, opts.trace, opts.setup_only)
    code = None
    try:
        code = ENTRY[opts.role](argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        observer.write(opts.record, code)
    return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
