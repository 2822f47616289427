"""Span tracing from outside the program: wrap functions by the name callers bind.

A traced process replaces module attributes (functions, class methods)
with wrappers that time each call.  Nothing under ``src/`` changes: the
wrappers live here and are installed before the program's entry point
runs.  Per name the tracer keeps the call count, total time and self
time (duration minus the time covered by child spans on the same
thread), plus the first ``keep`` raw spans with their parent, so a span
tree can be inspected after the run.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time

# Public entry points per layer, each under the dotted name its caller
# looks up at call time.  A process that never calls one records nothing
# for it.
ENTRY_POINTS = (
    "streamlb.wire.decode_lb_header",
    "streamlb.wire.decode_re_header",
    "streamlb.dataplane.LbInstance.forward_packet",
    "streamlb.dataplane.LbInstance.apply_schedule",
    "streamlb.sender.fragment_event",
    "streamlb.receiver.Receiver.ingest_packet",
    "streamlb.receiver.Receiver.expire",
    "streamlb.receiver.Receiver.make_report",
    "streamlb.controlplane.ControlPlane.control_tick",
    "streamlb.controlplane.ControlPlane.persist_state",
    "streamlb.controlplane.ControlPlane.ingest_sync",
    "streamlb.controlplane.ControlPlane.ingest_fill_report",
    "streamlb.controlplane.apportion_slots",
    "streamlb.control.ControlServer.dispatch",
    "streamlb.metrics.render_metrics",
    "streamlb.harness.scenario.fragment_event",
    "streamlb.cli.run_scenario",
)


def resolve(dotted: str):
    """Split 'pkg.mod.Class.attr' into (owner object, attribute name)."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {dotted}")


class Tracer:
    def __init__(self, keep: int = 20000, clock=time.perf_counter_ns):
        self.keep = keep
        self.clock = clock
        self.spans: list = []  # (span_id, parent_id, name, start_ns, end_ns)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tables: list = []  # one {name: [calls, total_ns, self_ns]} per thread
        self._tables_lock = threading.Lock()
        self._installed: list = []  # (owner, attr, original)

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._tables_lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def wrap(self, fn, name: str):
        clock, spans, keep, ids = self.clock, self.spans, self.keep, self._ids
        state = self._thread_state

        def traced(*args, **kwargs):
            stack, table = state()
            span_id = next(ids)
            frame = [span_id, 0]  # id, time covered by children
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                if len(spans) < keep:
                    spans.append((span_id, parent[0] if parent else 0, name, start, end))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, dotted_names) -> list:
        """Wrap every named function; returns the names that do not exist.

        A missing name (say, a renamed method) is reported rather than
        fatal, so its per-layer figure reads 0 with a warning.

        The whole package is imported first, so a module that binds a
        function with ``from x import f`` holds the original and is
        wrapped once under its own name, never twice.
        """
        importlib.import_module("streamlb.cli")
        missing = []
        for dotted in dotted_names:
            try:
                owner, attr = resolve(dotted)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(dotted)
                continue
            setattr(owner, attr, self.wrap(original, dotted))
            self._installed.append((owner, attr, original))
        return missing

    def uninstall(self):
        """Put back every original that install() replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """{name: {"calls", "total_ns", "self_ns"}} summed over threads."""
        out: dict = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, self_ns) in list(table.items()):
                row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
                row["calls"] += calls
                row["total_ns"] += total
                row["self_ns"] += self_ns
        return out

    def dump(self) -> dict:
        return {"totals": self.totals(), "spans": [list(s) for s in self.spans]}
