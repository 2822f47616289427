"""The virtual-clock workload: ``lb-sim`` on a churn scenario, one fresh process per run.

A second ``run_scenario`` in the same interpreter ran 25-40% slower than
the first, so every measured scenario gets its own process.  Set-up time
is spawn to the entry of ``run_scenario`` (interpreter, imports, argument
parsing and scenario load), taken from set-up-only probes and from every
measured process.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median

from streamlb import sender
from streamlb.harness.impair import derive_rng

from fabric import Role, quantile

S = 1_000_000_000
SETUP_PROBES = 5

SIM_CHURN = {
    "name": "sim-churn",
    "seed": 0,
    "duration_s": 62.0,
    "members": [
        {"name": "m1", "service_rate_hz": 900, "queue_capacity": 512},
        {"name": "m2", "service_rate_hz": 600, "queue_capacity": 512},
        {"name": "m3", "service_rate_hz": 600, "queue_capacity": 512},
    ],
    "senders": [
        {"source_id": 1, "rate_hz": 1500, "count": 90_000, "size": 4200, "start_s": 1.0}
    ],
    "impair_in": {"reorder_depth": 8, "duplicate_prob": 0.01},
    "timeline": [
        {"at_s": 15.0, "action": "register",
         "member": {"name": "m4", "service_rate_hz": 600, "queue_capacity": 512}},
        {"at_s": 30.0, "action": "deregister", "name": "m2"},
        {"at_s": 40.5, "action": "restart_cp"},
    ],
    "assertions": {"no_splits": True, "exactly_once": True, "boundary_safety": True},
}


def run_sim(seed: int, seconds: float, outdir: str, env: dict, traced: bool) -> dict:
    """Set-up probes, then fresh lb-sim processes until `seconds` have passed."""
    path = os.path.join(outdir, "sim-churn.json")
    with open(path, "w") as fh:
        json.dump({**SIM_CHURN, "seed": seed}, fh)
    args = ["--scenario", path, "--seed", str(seed)]
    setups = []
    for i in range(SETUP_PROBES):
        role = Role("sim", args, outdir, f"setup{i}-lb-sim", env, False, extra=("--setup-only",))
        _wait(role, 60.0)
        setups.append(role.load()["entered_ns"] / 1e9 - role.spawned)
    runs = []
    t0 = time.monotonic()
    while not runs or time.monotonic() - t0 < seconds:
        n = len(runs)
        report_path = os.path.join(outdir, f"run{n}-report.json")
        role = Role("sim", args, outdir, f"run{n}-lb-sim", env, traced, stdout_path=report_path)
        code = _wait(role, 170.0)
        record = role.load()
        with open(report_path) as fh:
            report = json.load(fh)
        setups.append(record["entered_ns"] / 1e9 - role.spawned)
        runs.append({"exit_code": code, "record": record, "report": report})
    return {"seed": seed, "setups_s": setups, "runs": runs}


def _wait(role: Role, timeout: float) -> int:
    try:
        return role.proc.wait(timeout)
    finally:
        role.stop()


def expected_digests(scenario: dict, seed: int) -> tuple:
    """{tick: digest} and {tick: emit ns}, replaying the harness's sender draws."""
    digests, emitted = {}, {}
    for spec in scenario["senders"]:
        rng = derive_rng(seed, f"sender:{spec['source_id']}")
        channels = spec.get("channels", [0])
        start_tick = spec.get("start_tick", 0)
        start_ns = int(spec.get("start_s", 1.0) * S)
        for i in range(spec["count"]):
            tick = start_tick + i
            event = sender.Event(tick=tick, channels={c: rng.randbytes(spec["size"]) for c in channels})
            digests[tick] = sender.event_digest(event)
            emitted[tick] = start_ns + int(i * S / spec["rate_hz"])
    return digests, emitted


def summarize(obs: dict) -> dict:
    """Correctness and metrics of every scenario run; metrics are medians over runs."""
    digests, emitted = expected_digests(SIM_CHURN, obs["seed"])
    spec = SIM_CHURN["senders"][0]
    payload = spec["size"] * len(spec.get("channels", [0]))
    per_run, conservation = [], []
    attempted = failed = 0
    for run in obs["runs"]:
        report, record = run["report"], run["record"]
        pops = record["pops"]
        seen, latencies = set(), []
        failures = {"digest_mismatch": 0, "duplicate": 0, "unknown_tick": 0}
        for tick, ns, digest in zip(pops["ticks"], pops["ns"], pops["digests"]):
            if tick in seen:
                failures["duplicate"] += 1
                continue
            seen.add(tick)
            if tick not in digests:
                failures["unknown_tick"] += 1
            elif digests[tick] != digest:
                failures["digest_mismatch"] += 1
            else:
                latencies.append((ns - emitted[tick]) / 1e6)
        for key in ("splits", "exactly_once_violations", "boundary_violations"):
            failures[key] = len(report[key])
        conservation += conservation_lines(report, len(per_run))
        sent = report["events_sent"]
        delivered = len(latencies)
        wall_s = (record["wall_ns"] - record["probe_ns"]) / S
        cpu_s = (record["cpu_ns"] - record["probe_ns"]) / S
        latencies.sort()
        attempted += sent
        failed += sum(failures.values())
        per_run.append(
            {
                "exit_code": run["exit_code"],
                "failures": failures,
                "fates": report["fates"],
                "epochs": len(report["epoch_log"]),
                "cp_restarts": report["cp_restarts"],
                "wall_s": wall_s,
                "latency_samples": delivered,
                "latency_p50_ms": quantile(latencies, 0.50),
                "latency_p90_ms": quantile(latencies, 0.90),
                "latency_p99_ms": quantile(latencies, 0.99),
                "e2e": {
                    "delivered_frac": delivered / sent,
                    "goodput_mbps": delivered * payload * 8 / wall_s / 1e6,
                    "fabric_cpu_us_per_event": cpu_s / sent * 1e6,
                    "events_per_s": sent / wall_s,
                },
            }
        )
    latency = {k: median(r[k] for r in per_run) for k in ("latency_p50_ms", "latency_p90_ms", "latency_p99_ms")}
    return {
        "attempted": attempted,
        "failed": failed,
        "runs": per_run,
        "conservation": conservation,
        **latency,
        "latency_samples": sum(r["latency_samples"] for r in per_run),
        "latency_windows": len(per_run),
    }


def conservation_lines(report: dict, run: int) -> list:
    """The loopback conservation lines in the virtual clock's vocabulary.

    The impaired inbound hop stands where the balancer's kernel socket
    does; the outbound hop is loss-free, so every member line must close
    with nothing lost after forwarding.
    """
    hop_in, dp = report["hop_counters"]["in"], report["dp_counters"]
    lines = []

    def line(name, lhs, terms, closes=None):
        closes = lhs == sum(terms.values()) if closes is None else closes
        lines.append({"line": f"run {run}: {name}", "lhs": lhs, "terms": terms, "closes": closes})

    line("sent + hop_in.duplicated = hop_in.lost + lb.received",
         report["fragments_sent"] + hop_in["duplicated"],
         {"hop_in.lost": hop_in["lost"], "lb.received": dp["received"]})
    line("lb.received = lb.dropped + lb.forwarded", dp["received"],
         {"lb.dropped": dp["dropped"], "lb.forwarded": dp["forwarded"]})
    # Session ids are handed out in registration order: members, then timeline.
    names = [m["name"] for m in SIM_CHURN["members"]]
    names += [e["member"]["name"] for e in SIM_CHURN["timeline"] if e["action"] == "register"]
    for sid, name in enumerate(names, start=1):
        fwd = dp["forwarded_by_member"].get(str(sid), 0)
        ingested = report["receiver_counters"][name]["ingested"]
        line(f"forwarded_by_member[{name}] = rx.ingested + lost_after_forward", fwd,
             {"rx.ingested": ingested, "lost_after_forward": fwd - ingested}, closes=fwd == ingested)
    return lines
