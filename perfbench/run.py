"""streamlb benchmark: loopback streams across processes and a virtual-clock run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all  --seed N --seconds S

Workloads and metrics are declared in BENCHMARK.json at the repository
root.  With --trace 0 one untraced run prints every end-to-end metric;
with --trace 1 an untraced run (CPU, drops, counters, bench-side
timings) and then a traced run (span self times) print every per-layer
metric and the tracing overhead.  ``--workload all`` does both for every
workload.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Every delivered event is checked against the digest of the event sent;
a mismatch, a tick delivered twice or at two receivers, or a virtual
clock report with splits or exactly-once or boundary violations counts
as a failed event and makes the exit status non-zero.  So does a
conservation line that does not close.  Each run also writes
perfbench/out/<workload>-seed<N>-trace<T>/result.json with the
environment, the conservation lines and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# A run whose generator fell behind its schedule measures the generator,
# not the fabric: it is reported as invalid instead of as a result.
MAX_GEN_LATE_P99_S = 0.020
EXIT_FAILED = 1
EXIT_UNAVAILABLE = 2
EXIT_INVALID = 3
# One workload run must end within 180 s; past this, give up cleanly.
DEADLINE_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment(extra: dict) -> dict:
    from streamlb import netutil

    def granted(direction: str, size: int) -> int:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            return netutil.request_buffer(s, direction, size)

    def sysctl(name: str):
        try:
            with open(f"/proc/sys/net/core/{name}") as fh:
                return int(fh.read())
        except OSError:
            return None

    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        default_sndbuf = s.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "kernel": platform.release(),
        "network": "loopback (127.0.0.1); no traffic crossed a real link",
        "rmem_max": sysctl("rmem_max"),
        "wmem_max": sysctl("wmem_max"),
        # What UdpDataPlane and UdpReceiver ask for (8 MiB) and get.
        "so_rcvbuf_granted": granted("recv", 8 << 20),
        "so_sndbuf_granted": granted("send", 8 << 20),
        "sender_so_sndbuf": default_sndbuf,
        **extra,
    }


def child_env(outdir: str) -> dict:
    """Children import streamlb from this checkout and keep temp files in outdir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = os.path.join(outdir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


# --- one workload, one mode ---------------------------------------------------


def run_once(workload: str, seed: int, seconds: float, traced: bool, outdir: str) -> dict:
    import fabric
    import simrun

    os.makedirs(outdir, exist_ok=True)
    env = child_env(outdir)
    if workload == "sim-churn":
        obs = simrun.run_sim(seed, seconds, outdir, env, traced)
        summary = simrun.summarize(obs)
        runs = summary["runs"]
        e2e = {k: statistics.median(r["e2e"][k] for r in runs) for k in runs[0]["e2e"]}
        e2e["setup_s"] = statistics.median(obs["setups_s"])
        summary.update(e2e=e2e, obs=obs, valid=True, generator={})
        return summary
    spec = fabric.STREAM_SMALL if workload == "stream-small" else fabric.STREAM_CHURN
    obs = fabric.run_stream(spec, seed, seconds, outdir, env, traced)
    summary = fabric.summarize(spec, obs)
    summary["e2e"]["setup_s"] = statistics.median(obs["setups_s"])
    late = sorted(obs["lateness_s"])
    summary["generator"] = {
        "late_p50_ms": fabric.quantile(late, 0.5) * 1e3,
        "late_p99_ms": fabric.quantile(late, 0.99) * 1e3,
        "late_max_ms": late[-1] * 1e3 if late else 0.0,
        "target_rate_hz": spec.rate_hz,
        "achieved_rate_hz": obs["sent_events"] / obs["send_duration_s"],
    }
    summary["valid"] = fabric.quantile(late, 0.99) <= MAX_GEN_LATE_P99_S
    summary["obs"] = obs
    return summary


# --- per-layer numbers ------------------------------------------------------------


def _role_records(summary: dict) -> list:
    obs = summary["obs"]
    if "runs" in obs:  # sim-churn
        return [r["record"] for r in obs["runs"]]
    return [obs["lb_record"]] + [rx["record"] for rx in obs["receivers"]]


def _missing_entry_points(summary: dict) -> set:
    return {name for rec in _role_records(summary) for name in rec.get("missing_entry_points", [])}


def _span_totals(summary: dict) -> dict:
    """Span totals of every traced process of a run, summed by name."""
    traces = [rec.get("trace") for rec in _role_records(summary)]
    traces.append(summary["obs"].get("sender_trace"))
    out: dict = {}
    for trace in traces:
        for name, row in ((trace or {}).get("totals") or {}).items():
            acc = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += row[key]
    return out


def _self_per_call(totals: dict, scale: float, *names) -> float:
    calls = sum(totals.get(n, {}).get("calls", 0) for n in names)
    self_ns = sum(totals.get(n, {}).get("self_ns", 0) for n in names)
    return self_ns / calls / scale if calls else 0.0


def per_layer(plain: dict, traced: dict) -> dict:
    """Per-layer metrics: self times from the traced run, the rest untraced.

    A layer that a workload does not exercise reads 0 (no sockets in the
    virtual-clock run, no snapshots without --snapshot, no harness loop
    on the loopback runs).
    """
    spans = _span_totals(traced)
    for name in _missing_entry_points(traced):
        print(f"   warning: {name} does not exist; its per-layer figure reads 0", file=sys.stderr)
    us, ms = 1e3, 1e6
    out = {
        "wire.decode_lb_header_us": _self_per_call(spans, us, "streamlb.wire.decode_lb_header"),
        "wire.decode_re_header_us": _self_per_call(spans, us, "streamlb.wire.decode_re_header"),
        "dataplane.forward_packet_us": _self_per_call(spans, us, "streamlb.dataplane.LbInstance.forward_packet"),
        "sender.fragment_event_us": _self_per_call(
            spans, us, "streamlb.sender.fragment_event", "streamlb.harness.scenario.fragment_event"
        ),
        "sender.sendto_us": _self_per_call(spans, us, "socket.socket.sendto"),
        "receiver.ingest_packet_us": _self_per_call(spans, us, "streamlb.receiver.Receiver.ingest_packet"),
        "controlplane.control_tick_ms": _self_per_call(spans, ms, "streamlb.controlplane.ControlPlane.control_tick"),
        "controlplane.apportion_slots_us": _self_per_call(spans, us, "streamlb.controlplane.apportion_slots"),
        "controlplane.persist_state_ms": _self_per_call(spans, ms, "streamlb.controlplane.ControlPlane.persist_state"),
        "control.dispatch_ms": _self_per_call(spans, ms, "streamlb.control.ControlServer.dispatch"),
        "tracing.overhead_us_per_event": traced["e2e"]["fabric_cpu_us_per_event"]
        - plain["e2e"]["fabric_cpu_us_per_event"],
    }
    obs_t = traced["obs"]
    if "runs" in obs_t:
        margins = [m for r in obs_t["runs"] for _, m in r["record"].get("margins", [])]
        loop = spans.get("streamlb.cli.run_scenario")
        probe = sum(r["record"]["probe_ns"] for r in obs_t["runs"])
        out["harness.loop_self_frac"] = (
            (loop["self_ns"] - probe) / (loop["total_ns"] - probe) if loop else 0.0
        )
        out["receiver.queue_wait_ms"] = 0.0
    else:
        # Epochs published while the stream ran; teardown publishes more.
        start_ns, end_ns = obs_t["start_mono"] * 1e9, obs_t["send_end"] * 1e9
        margins = [m for t, m in obs_t["lb_record"].get("margins", []) if start_ns <= t <= end_ns]
        waits = [w for rx in obs_t["receivers"] for w in rx["record"].get("queue_wait_ns", [])]
        out["harness.loop_self_frac"] = 0.0
        out["receiver.queue_wait_ms"] = statistics.median(waits) / ms if waits else 0.0
    out["controlplane.boundary_margin_ticks"] = float(min(margins)) if margins else 0.0
    out.update(_untraced_layers(plain))
    return out


def _untraced_layers(plain: dict) -> dict:
    obs = plain["obs"]
    counters = ("duplicate", "stale", "malformed", "timeouts", "evicted")
    if "runs" in obs:  # virtual clock: one process, no sockets
        reports = [r["report"] for r in obs["runs"]]
        rx = {k: statistics.median(sum(m[k] for m in rep["receiver_counters"].values()) for rep in reports)
              for k in counters}
        return {
            "dataplane.cpu_us_per_pkt": 0.0,
            "dataplane.kernel_drops": 0,
            "dataplane.dropped": statistics.median(rep["dp_counters"]["dropped"] for rep in reports),
            "sender.cpu_us_per_pkt": 0.0,
            "sender.gen_late_ms": 0.0,
            "receiver.cpu_us_per_pkt": 0.0,
            "receiver.kernel_drops": 0,
            "receiver.lost_after_forward": 0,
            **{f"receiver.{k}": v for k, v in rx.items()},
            "controlplane.epochs_published": statistics.median(len(rep["epoch_log"]) for rep in reports),
            "control.query_rtt_ms": 0.0,
            "metrics.scrape_ms": 0.0,
            "cli.startup_s": statistics.median(obs["setups_s"]),
        }
    lb = obs["lb_counters"]
    rx_counters = [r["record"].get("counters", {}) for r in obs["receivers"]]
    return {
        "dataplane.cpu_us_per_pkt": obs["lb_cpu_s"] / max(lb["received"], 1) * 1e6,
        "dataplane.kernel_drops": obs["lb_kernel_drops"],
        "dataplane.dropped": lb["dropped"],
        "sender.cpu_us_per_pkt": obs["sender_thread_cpu_s"] / max(obs["sent_datagrams"], 1) * 1e6,
        "sender.gen_late_ms": plain["generator"]["late_p99_ms"],
        "receiver.cpu_us_per_pkt": plain["receivers_cpu_s"] / max(plain["ingested_total"], 1) * 1e6,
        "receiver.kernel_drops": sum(r["kernel_drops"] for r in obs["receivers"]),
        "receiver.lost_after_forward": plain["lost_after_forward"],
        **{f"receiver.{k}": sum(c.get(k, 0) for c in rx_counters) for k in counters},
        "controlplane.epochs_published": obs["epochs_emitted"],
        "control.query_rtt_ms": statistics.median(obs["query_rtt_s"]) * 1e3,
        "metrics.scrape_ms": statistics.median(obs["scrape_s"]) * 1e3 if obs["scrape_s"] else 0.0,
        "cli.startup_s": statistics.median(obs["startup_s"]),
    }


# --- reporting ---------------------------------------------------------------------


def _is_correct(summary: dict) -> bool:
    obs = summary["obs"]
    if "runs" in obs:
        codes = [r["exit_code"] for r in obs["runs"]]
    else:
        codes = [obs["lb_exit_code"]] + [rx["exit_code"] for rx in obs["receivers"]]
    exits_ok = all(code == 0 for code in codes)
    return summary["failed"] == 0 and exits_ok and all(c["closes"] for c in summary["conservation"])


def _print_summary(workload: str, label: str, summary: dict):
    print(f"== {workload} ({label}) attempted={summary['attempted']} failed={summary['failed']}")
    for line in summary["conservation"]:
        terms = " + ".join(f"{k} {v}" for k, v in line["terms"].items())
        state = "closes" if line["closes"] else "DOES NOT CLOSE"
        print(f"   {line['line']}: {line['lhs']} = {terms}  [{state}]")
    if summary.get("generator"):
        g = summary["generator"]
        print(f"   generator: late p50 {g['late_p50_ms']:.3f} ms, p99 {g['late_p99_ms']:.3f} ms, "
              f"max {g['late_max_ms']:.3f} ms; {g['achieved_rate_hz']:.1f} of {g['target_rate_hz']} events/s"
              f"{'' if summary['valid'] else '  [INVALID: the generator fell behind]'}")
    if "latency_samples" in summary:
        print(f"   latency: p50 {summary['latency_p50_ms']:.4f} ms, p90 {summary['latency_p90_ms']:.4f} ms,"
              f" p99 {summary['latency_p99_ms']:.4f} ms over {summary['latency_samples']} samples in"
              f" {summary['latency_windows']} window(s) (reported, not gated: too unsteady between repeats)")


def _print_metrics(title: str, declared: list, values: dict):
    print(f"   {title}:")
    for m in declared:
        print(f"     {m['name']:36s} {values[m['name']]:14.6g} {m['unit']}")


def _write_result(outdir: str, payload: dict):
    # The per-role records hold every popped event; keep the summary and logs.
    for sub in ("untraced", "traced"):
        path = os.path.join(outdir, sub)
        for name in os.listdir(path) if os.path.isdir(path) else ():
            if name.endswith(".json") and name != "spans.json":
                os.remove(os.path.join(path, name))
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(payload, fh, indent=1, default=str)


def _strip(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k != "obs"}


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    outdir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(outdir, ignore_errors=True)
    plain = run_once(workload, seed, seconds, False, os.path.join(outdir, "untraced"))
    summaries = [("untraced", plain)]
    if trace:
        traced = run_once(workload, seed, seconds, True, os.path.join(outdir, "traced"))
        summaries.append(("traced", traced))
        # The first spans of each traced process: (id, parent id, name, start ns, end ns).
        spans = [rec.get("trace", {}).get("spans", []) for rec in _role_records(traced)]
        spans.append((traced["obs"].get("sender_trace") or {}).get("spans", []))
        with open(os.path.join(outdir, "traced", "spans.json"), "w") as fh:
            json.dump(spans, fh)
        metrics = per_layer(plain, traced)
        declared = spec["per_layer"]
    else:
        metrics = plain["e2e"]
        declared = spec["end_to_end"]
    env = environment({"generator": plain["generator"], "valid": plain["valid"]})
    print(f"== environment: nproc {env['nproc']}, Python {env['python']}, kernel {env['kernel']},"
          f" SO_RCVBUF/SO_SNDBUF granted {env['so_rcvbuf_granted']}/{env['so_sndbuf_granted']}"
          f" (rmem_max {env['rmem_max']}), {env['network']}")
    for label, summary in summaries:
        _print_summary(workload, label, summary)
    _print_metrics("per-layer metrics" if trace else "end-to-end metrics", declared, metrics)
    if trace:
        print(f"   tracing overhead: {metrics['tracing.overhead_us_per_event']:.3f} us per event of fabric CPU")
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "valid": all(s["valid"] for _, s in summaries),
        "correct": all(_is_correct(s) for _, s in summaries),
        "attempted": sum(s["attempted"] for _, s in summaries),
        "failed": sum(s["failed"] for _, s in summaries),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        "runs": {label: _strip(s) for label, s in summaries},
    }
    _write_result(outdir, result)
    return result


def _deadline(signum, frame):
    raise TimeoutError(f"run did not finish within {DEADLINE_S} s")


def _terminated(signum, frame):
    # Unwind so every fabric process this run started is stopped and reaped.
    raise SystemExit(EXIT_FAILED)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="streamlb benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "streamlb", "__init__.py")):
        print(f"run.py: no streamlb sources under {SRC}; run from a full checkout", file=sys.stderr)
        return EXIT_UNAVAILABLE
    sys.path.insert(0, SRC)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {names + ['all']}")

    if args.workload == "all":
        results = [run_workload(spec, w, args.seed, args.seconds, True) for w in names]
        print("== end-to-end metrics (untraced runs)")
        for w, res in zip(names, results):
            e2e = res["runs"]["untraced"]["e2e"]
            _print_metrics(w, spec["end_to_end"], e2e)
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{w}.{m['name']}": {"value": r["runs"]["untraced"]["e2e"][m["name"]], "unit": m["unit"]}
                for w, r in zip(names, results) for m in spec["end_to_end"]
            },
        }
        valid = all(r["valid"] for r in results)
    else:
        signal.signal(signal.SIGALRM, _deadline)
        signal.signal(signal.SIGTERM, _terminated)
        signal.alarm(DEADLINE_S)
        res = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
        signal.alarm(0)
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
        valid = res["valid"]
    if not valid:
        print("run.py: the load generator fell behind its schedule; the run is invalid", file=sys.stderr)
        return EXIT_INVALID
    print(json.dumps(final))
    return 0 if final["correct"] else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
