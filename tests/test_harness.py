"""Impairment model and virtual-clock scenario runner."""

import hashlib
import heapq
import json

import pytest

from streamlb.harness import (
    ImpairHop,
    ImpairmentProfile,
    Scenario,
    ScenarioError,
    ScenarioTimeout,
    evaluate_assertions,
    impair,
    run_scenario,
)
from streamlb.harness.impair import derive_rng
from streamlb.harness.scenario import S, _Run, _SimSender

# --- impairment ---------------------------------------------------------------


def test_identity_profile_passthrough():
    profile = ImpairmentProfile()
    assert profile.is_identity
    packets = list(range(1000))
    assert impair(packets, profile) == packets


@pytest.mark.parametrize("depth", [1, 4, 8, 32])
def test_reorder_displacement_bounded(depth):
    profile = ImpairmentProfile(reorder_depth=depth)
    for seed in range(5):
        packets = list(range(600))
        out = impair(packets, profile, seed=seed)
        assert sorted(out) == packets  # permutation, nothing lost or duplicated
        shifts = [abs(pos - pkt) for pos, pkt in enumerate(out)]
        assert max(shifts) <= depth
        if depth and seed == 0:
            assert max(shifts) > 0  # the knob actually does something


def test_loss_rate_close_to_probability():
    profile = ImpairmentProfile(loss_prob=0.2)
    out = impair(list(range(20000)), profile, seed=7)
    frac = 1 - len(out) / 20000
    assert abs(frac - 0.2) < 0.015


def test_duplication_rate_and_content():
    profile = ImpairmentProfile(duplicate_prob=0.1)
    packets = list(range(20000))
    out = impair(packets, profile, seed=3)
    extra = len(out) - len(packets)
    assert abs(extra / 20000 - 0.1) < 0.01
    assert set(out) == set(packets)


def test_same_seed_same_stream():
    profile = ImpairmentProfile(loss_prob=0.1, duplicate_prob=0.05, reorder_depth=6)
    packets = list(range(5000))
    a = impair(packets, profile, seed=42, label="x")
    b = impair(packets, profile, seed=42, label="x")
    c = impair(packets, profile, seed=42, label="y")
    assert a == b
    assert a != c


def test_delay_and_jitter_windows():
    hop = ImpairHop(ImpairmentProfile(delay_ms=5.0), seed=1)
    deliveries, dropped = hop.submit(1_000_000, "pkt")
    assert not dropped
    assert deliveries == [(1_000_000 + 5_000_000, "pkt")]
    jittery = ImpairHop(ImpairmentProfile(delay_ms=5.0, jitter_ms=3.0), seed=1)
    for i in range(200):
        for at, _ in jittery.submit(0, i)[0]:
            assert 5_000_000 <= at < 8_000_000


def test_flush_releases_everything():
    hop = ImpairHop(ImpairmentProfile(reorder_depth=100), seed=9)
    released = []
    for i in range(10):
        deliveries, _ = hop.submit(0, i)
        released += [p for _, p in deliveries]
    released += [p for _, p in hop.flush(0)]
    assert sorted(released) == list(range(10))


def test_total_loss_empties_the_stream():
    assert impair(list(range(100)), ImpairmentProfile(loss_prob=1.0), seed=5) == []


def test_profile_seed_overrides_hop_seed():
    profile = ImpairmentProfile(reorder_depth=6, seed=99)
    a = impair(list(range(500)), profile, seed=1)
    b = impair(list(range(500)), profile, seed=2)
    assert a == b  # the profile seed wins
    assert profile.is_identity is False
    assert ImpairmentProfile(seed=42).is_identity  # seed alone impairs nothing


def test_profile_validation():
    with pytest.raises(ValueError):
        ImpairmentProfile(loss_prob=1.5)
    with pytest.raises(ValueError):
        ImpairmentProfile(reorder_depth=-1)
    with pytest.raises(ValueError):
        ImpairmentProfile.from_dict({"loss": 0.1})
    rt = ImpairmentProfile.from_dict({"loss_prob": 0.1, "reorder_depth": 3})
    assert ImpairmentProfile.from_dict(rt.to_dict()) == rt


# --- scenarios --------------------------------------------------------------


def clean_scenario(**overrides):
    base = {
        "name": "steady",
        "seed": 1,
        "duration_s": 3.0,
        "members": [{"name": "m1"}],
        "senders": [{"source_id": 1, "rate_hz": 500, "count": 900, "size": 800}],
    }
    base.update(overrides)
    return base


def test_steady_run_delivers_everything():
    report = run_scenario(clean_scenario())
    assert report.events_sent == 900
    assert report.fates == {"delivered": 900}
    assert report.splits == []
    assert report.boundary_violations == []
    assert report.exactly_once_violations == []
    assert report.delivered_by_member == {"m1": 900}
    assert report.consumed_by_member == {"m1": 900}
    assert report.dp_counters["forwarded"] == report.fragments_sent
    assert report.dp_counters["dropped"] == 0


def test_multi_fragment_events_survive_reorder_and_dup():
    report = run_scenario(
        clean_scenario(
            name="reorder",
            senders=[{"source_id": 1, "rate_hz": 400, "count": 800, "size": 4500}],
            duration_s=3.5,
            impair_in={"reorder_depth": 8, "duplicate_prob": 0.01},
        )
    )
    assert report.fates == {"delivered": 800}
    assert report.splits == []
    assert report.receiver_counters["m1"]["duplicate"] > 0


def test_seeded_runs_replay_identically():
    spec = clean_scenario(
        name="replay",
        impair_in={"loss_prob": 0.05, "reorder_depth": 5, "duplicate_prob": 0.02},
    )
    a, b = run_scenario(spec), run_scenario(spec)
    assert a.ledger == b.ledger
    assert a.fills == b.fills
    assert a.epoch_log == b.epoch_log
    assert a.fates == b.fates
    c = run_scenario(spec, seed=2)
    assert c.ledger != a.ledger


def test_lossy_single_fragment_fates_are_exact():
    report = run_scenario(
        clean_scenario(name="lossy", impair_in={"loss_prob": 0.05})
    )
    assert set(report.fates) == {"delivered", "lost"}
    assert report.fates["delivered"] + report.fates["lost"] == 900
    assert report.fates["lost"] == report.hop_counters["in"]["lost"]


def test_weighted_members_split_deliveries():
    report = run_scenario(
        {
            "name": "weighted",
            "seed": 3,
            "duration_s": 4.0,
            "pid": {"kp": 0.0, "ki": 0.0, "kd": 0.0},
            "members": [
                {"name": "m1", "weight": 2.0},
                {"name": "m2", "weight": 1.0},
                {"name": "m3", "weight": 1.0},
            ],
            "senders": [{"source_id": 1, "rate_hz": 2000, "count": 6000, "size": 200}],
        }
    )
    assert report.fates == {"delivered": 6000}
    assert report.epoch_log[0]["slots"] == {"m1": 256, "m2": 128, "m3": 128}
    shares = {n: c / 6000 for n, c in report.delivered_by_member.items()}
    assert abs(shares["m1"] - 0.50) < 0.02
    assert abs(shares["m2"] - 0.25) < 0.02
    assert abs(shares["m3"] - 0.25) < 0.02


def test_member_added_mid_stream_without_loss():
    report = run_scenario(
        {
            "name": "grow",
            "seed": 4,
            "duration_s": 6.0,
            "members": [{"name": "m1"}],
            "senders": [{"source_id": 1, "rate_hz": 1000, "count": 5000, "size": 400}],
            "timeline": [{"at_s": 3.0, "action": "register", "member": {"name": "m2"}}],
        }
    )
    assert report.fates == {"delivered": 5000}
    assert report.splits == []
    assert report.boundary_violations == []
    assert report.delivered_by_member["m2"] > 500
    growth = [e for e in report.epoch_log if "m2" in e["slots"]]
    assert growth and growth[0]["boundary_tick"] > growth[0]["max_forwarded_before"]


def test_member_drained_mid_stream_without_loss():
    report = run_scenario(
        {
            "name": "shrink",
            "seed": 5,
            "duration_s": 6.0,
            "members": [{"name": "m1"}, {"name": "m2"}],
            "senders": [{"source_id": 1, "rate_hz": 1000, "count": 5000, "size": 400}],
            "timeline": [{"at_s": 3.0, "action": "deregister", "name": "m2"}],
        }
    )
    assert report.fates == {"delivered": 5000}
    assert report.exactly_once_violations == []
    assert report.epoch_log[-1]["slots"] == {"m1": 512}
    assert report.delivered_by_member["m2"] > 0  # served before the drain


def test_cp_restart_keeps_traffic_flowing():
    report = run_scenario(
        {
            "name": "restart",
            "seed": 6,
            "duration_s": 8.0,
            "members": [{"name": "m1"}, {"name": "m2"}],
            "senders": [{"source_id": 1, "rate_hz": 800, "count": 5600, "size": 300}],
            "timeline": [
                {"at_s": 3.0, "action": "register", "member": {"name": "m3"}},
                {"at_s": 4.7, "action": "restart_cp"},
            ],
        }
    )
    assert report.cp_restarts == 1
    assert report.fates == {"delivered": 5600}
    assert report.boundary_violations == []
    boundaries = [e["boundary_tick"] for e in report.epoch_log]
    assert boundaries == sorted(boundaries)
    assert len(set(boundaries)) == len(boundaries)


def test_slow_service_evicts_oldest():
    report = run_scenario(
        {
            "name": "overload",
            "seed": 7,
            "duration_s": 5.0,
            "members": [{"name": "m1", "service_rate_hz": 100, "queue_capacity": 32}],
            "senders": [{"source_id": 1, "rate_hz": 500, "count": 2000, "size": 100}],
        }
    )
    assert set(report.fates) == {"delivered", "evicted"}
    assert report.fates["delivered"] + report.fates["evicted"] == 2000
    assert report.fates["evicted"] > 500
    # eviction sheds the old end of the queue, never the newest arrivals
    evicted = [t for t, f in report.ledger.items() if f == "evicted"]
    assert max(evicted) < max(t for t, f in report.ledger.items() if f == "delivered")
    assert report.ledger[1999] == "delivered"


def test_ticks_below_the_receiver_window_resolve_as_stale():
    # Two senders on disjoint tick ranges: once the high range completes a
    # tick, every datagram of the low range falls below the 64-tick window.
    report = run_scenario(
        {
            "name": "disjoint",
            "seed": 1,
            "duration_s": 8.0,
            "members": [{"name": "m1"}],
            "senders": [
                {"source_id": 1, "rate_hz": 500, "count": 3000, "start_tick": 0},
                {"source_id": 2, "rate_hz": 50, "count": 300, "start_tick": 100_000},
            ],
        }
    )
    assert report.events_sent == 3300
    assert "unresolved" not in report.fates
    assert report.fates["stale"] == report.receiver_counters["m1"]["stale"] > 2000
    assert report.fates["delivered"] + report.fates["stale"] == 3300


def test_service_rate_change_takes_effect():
    report = run_scenario(
        {
            "name": "ratechange",
            "seed": 8,
            "duration_s": 6.0,
            "members": [{"name": "m1", "service_rate_hz": 100, "queue_capacity": 64}],
            "senders": [{"source_id": 1, "rate_hz": 300, "count": 1500, "size": 100}],
            "timeline": [{"at_s": 2.0, "action": "set_service_rate", "name": "m1", "rate_hz": 0}],
        }
    )
    # once unthrottled, the queue drains and nothing more is evicted
    late_fills = [snap["m1"] for t, snap in report.fills if t > 3.0]
    assert all(f < 0.2 for f in late_fills)


def test_stop_sender_action():
    report = run_scenario(
        clean_scenario(
            name="stopped",
            timeline=[{"at_s": 2.0, "action": "stop", "source_id": 1}],
        )
    )
    assert report.events_sent < 900
    assert report.fates == {"delivered": report.events_sent}


def test_start_sender_action():
    report = run_scenario(
        clean_scenario(
            name="late-start",
            senders=[],
            duration_s=4.0,
            timeline=[
                {
                    "at_s": 1.5,
                    "action": "start_sender",
                    "sender": {"source_id": 9, "rate_hz": 400, "count": 800, "size": 500},
                }
            ],
        )
    )
    assert report.fates == {"delivered": 800}


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        run_scenario(clean_scenario(members=[]))
    with pytest.raises(ScenarioError):
        run_scenario(clean_scenario(senders=[{"source_id": 1, "rate_hz": 100, "count": 10_000}]))
    with pytest.raises(ScenarioError):
        run_scenario(clean_scenario(timeline=[{"at_s": 1.0, "action": "explode"}]))
    with pytest.raises(ScenarioError):
        run_scenario(clean_scenario(timeline=[{"at_s": 0.2, "action": "restart_cp"}]))
    with pytest.raises(ScenarioError):
        Scenario.from_dict(clean_scenario(warp_drive=True))


def test_event_budget_guard():
    with pytest.raises(ScenarioTimeout):
        run_scenario(clean_scenario(max_events=50))


def test_scenario_file_round_trip(tmp_path):
    import json

    path = tmp_path / "steady.json"
    path.write_text(json.dumps(clean_scenario()))
    report = run_scenario(path)
    assert report.fates == {"delivered": 900}
    assert isinstance(report.to_dict()["ledger"], dict)


def test_realtime_loopback_smoke():
    from streamlb.harness.realtime import run_realtime

    result = run_realtime(count=500, size=2000, rate_hz=0.0)
    assert result.events_sent == 500
    assert result.delivered_fraction >= 0.99
    assert result.dp_counters["dropped"] == 0
    assert result.to_dict()["goodput_mbps"] > 0


def test_realtime_live_loop_keeps_two_members_past_the_stale_window():
    """Only the fill reports keep members ready once STALE_AFTER_S has passed.

    Without them the first control pass after STALE_AFTER_S publishes an
    empty table one GUARD_S ahead, and a stream that outlasts both drops.
    """
    from streamlb.controlplane import GUARD_S, STALE_AFTER_S
    from streamlb.harness.realtime import run_realtime

    result = run_realtime(
        count=2400, size=500, rate_hz=400.0, members=[("a", 1.0, 4096), ("b", 1.0, 4096)]
    )
    assert result.send_duration_s > STALE_AFTER_S + GUARD_S + 1.0
    assert result.dp_counters["dropped"] == 0, result.dp_counters
    assert result.delivered_fraction >= 0.99
    assert all(m.events > 0 for m in result.members.values())


def pause_scenario(seed):
    # Sender 1 stops at 4 s; m4 joins while the stream is paused, and
    # sender 2 resumes from tick 1500 at 11 s.  The join publishes at once,
    # so epochs published in the pause sit above the last forwarded tick
    # until the stream resumes into them.
    both = [0, 1]
    return {
        "name": "pause",
        "seed": seed,
        "duration_s": 20.0,
        "members": [{"name": "m1", "weight": 2, "channels": both},
                    {"name": "m2", "channels": both}, {"name": "m3", "channels": both}],
        "senders": [{"source_id": 1, "rate_hz": 500, "count": 1500, "size": 1000,
                     "channels": both, "start_s": 1.0}],
        "impair_in": {"jitter_ms": 4},
        "impair_out": {"jitter_ms": 2},
        "timeline": [
            {"at_s": 7.0, "action": "register", "member": {"name": "m4", "channels": both}},
            {"at_s": 11.0, "action": "start_sender",
             "sender": {"source_id": 2, "rate_hz": 500, "count": 4000, "size": 1000,
                        "channels": both, "start_tick": 1500}},
        ],
        "assertions": {"no_splits": True, "exactly_once": True, "boundary_safety": True},
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_stream_resuming_after_a_pause_splits_no_tick(seed):
    # Without the superseding rule in apply_schedule, the publishes of the
    # pause stack epochs above the traffic and push out the one the first
    # resumed ticks route through: each seed leaves one tick split or stale.
    spec = pause_scenario(seed)
    report = run_scenario(Scenario.from_dict(spec))
    assert report.fates == {"delivered": 5500}
    assert report.splits == []
    results = evaluate_assertions(report, spec["assertions"])
    assert all(r["ok"] for r in results), results


def test_assertion_evaluation():
    report = run_scenario(clean_scenario())
    results = evaluate_assertions(
        report,
        {
            "zero_loss": True,
            "no_splits": True,
            "boundary_safety": True,
            "exactly_once": True,
            "min_delivered_fraction": 0.999,
            "delivery_shares": {"tol_pp": 2.0, "shares": {"m1": 1.0}},
            "max_fates": {"lost": 0},
        },
    )
    assert all(r["ok"] for r in results), results
    bad = evaluate_assertions(report, {"delivery_shares": {"shares": {"m1": 0.5}}, "nonsense": 1})
    assert [r["ok"] for r in bad] == [False, False]


# --- scheduler -----------------------------------------------------------------


class HeapOnlyRun(_Run):
    """Reference scheduler: every event, same-instant work and all of each
    sender's emits included, goes through one (time, sequence) heap up front."""

    def _at(self, t_ns, fn, *args):
        if t_ns > self._total_ns:
            return
        self._seq += 1
        heapq.heappush(self._heap, (t_ns, self._seq, fn, args))

    def _start_sender(self, spec, start_ns):
        sn = _SimSender(spec=spec, rng=derive_rng(self.sc.seed, f"sender:{spec.source_id}"))
        self.senders.append(sn)
        for i in range(spec.count):
            self._at(start_ns + int(i * S / spec.rate_hz), self._send_event, sn, i)

    def _loop(self):
        while self._heap:
            t_ns, _, fn, args = heapq.heappop(self._heap)
            self._budget -= 1
            if self._budget <= 0:
                raise ScenarioTimeout(f"{self.sc.name}: event budget exhausted at t={t_ns / S:.3f}s")
            self.now_ns = t_ns
            fn(*args)


def _both(spec):
    sc = Scenario.from_dict(spec)
    fast, ref = _Run(sc).run(), HeapOnlyRun(Scenario.from_dict(spec)).run()
    return fast.to_dict(), ref.to_dict()


def short_churn():
    return {
        "name": "short-churn",
        "seed": 13,
        "duration_s": 6.0,
        "members": [
            {"name": "m1", "service_rate_hz": 900, "queue_capacity": 512},
            {"name": "m2", "service_rate_hz": 600, "queue_capacity": 512},
            {"name": "m3", "service_rate_hz": 600, "queue_capacity": 512},
        ],
        "senders": [{"source_id": 1, "rate_hz": 1500, "count": 6000, "size": 4200, "start_s": 1.0}],
        "impair_in": {"reorder_depth": 8, "duplicate_prob": 0.01},
        "timeline": [
            {"at_s": 2.0, "action": "register",
             "member": {"name": "m4", "service_rate_hz": 600, "queue_capacity": 512}},
            {"at_s": 3.0, "action": "deregister", "name": "m2"},
            {"at_s": 4.5, "action": "restart_cp"},
        ],
    }


def every_action():
    # Sender 1 carries channel 0 and sender 2, started by the timeline at
    # sender 1's first emit instant, carries channel 1 of the same ticks,
    # so every tick's two emits share a virtual nanosecond.
    both = [0, 1]
    return {
        "name": "every-action",
        "seed": 21,
        "duration_s": 6.0,
        "members": [
            {"name": "m1", "channels": both},  # consumes at the instant of delivery
            {"name": "m2", "service_rate_hz": 300, "queue_capacity": 64, "channels": both},
            {"name": "m3", "service_rate_hz": 100, "queue_capacity": 16, "channels": both},
        ],
        "senders": [{"source_id": 1, "rate_hz": 500, "count": 1500, "size": 1800, "channels": [0]}],
        "impair_in": {"reorder_depth": 3, "duplicate_prob": 0.02, "loss_prob": 0.002},
        "timeline": [
            {"at_s": 1.0, "action": "start_sender",
             "sender": {"source_id": 2, "rate_hz": 500, "count": 1500, "size": 700, "channels": [1]}},
            {"at_s": 1.5, "action": "register",
             "member": {"name": "m4", "service_rate_hz": 400, "channels": both}},
            {"at_s": 2.3, "action": "set_service_rate", "name": "m2", "rate_hz": 0},
            {"at_s": 2.5, "action": "set_service_rate", "name": "m3", "rate_hz": 900},
            {"at_s": 3.0, "action": "deregister", "name": "m1"},
            {"at_s": 3.2, "action": "stop_sender", "source_id": 2},  # later ticks time out
            {"at_s": 3.5, "action": "restart_cp"},
            {"at_s": 3.6, "action": "set_service_rate", "name": "m2", "rate_hz": 150},
            {"at_s": 3.8, "action": "stop", "source_id": 1},
            # emits this close share a virtual nanosecond
            {"at_s": 4.5, "action": "start_sender",
             "sender": {"source_id": 9, "rate_hz": 3e9, "count": 7, "size": 100,
                        "start_tick": 100000, "channels": both}},
        ],
    }


def test_sim_churn_report_is_pinned():
    # The benchmark's sim-churn scenario cut to 12 virtual seconds.  The
    # digest pins the whole virtual-clock report; a change that moves the
    # simulation's output must update it and say why.
    spec = {
        "name": "sim-churn",
        "seed": 3,
        "duration_s": 12.0,
        "members": [
            {"name": "m1", "service_rate_hz": 900, "queue_capacity": 512},
            {"name": "m2", "service_rate_hz": 600, "queue_capacity": 512},
            {"name": "m3", "service_rate_hz": 600, "queue_capacity": 512},
        ],
        "senders": [{"source_id": 1, "rate_hz": 1500, "count": 15_000, "size": 4200, "start_s": 1.0}],
        "impair_in": {"reorder_depth": 8, "duplicate_prob": 0.01},
        "timeline": [
            {"at_s": 3.0, "action": "register",
             "member": {"name": "m4", "service_rate_hz": 600, "queue_capacity": 512}},
            {"at_s": 6.0, "action": "deregister", "name": "m2"},
            {"at_s": 8.5, "action": "restart_cp"},
        ],
        "assertions": {"no_splits": True, "exactly_once": True, "boundary_safety": True},
    }
    report = run_scenario(Scenario.from_dict(spec)).to_dict()
    assert report["fates"] == {"delivered": 15_000}
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == "81b1c43662d70f40117953459511be5baa70646e47063e1ddd2cc4e1e883c02a"


def test_scheduler_matches_heap_only_reference_on_churn():
    fast, ref = _both(short_churn())
    assert fast["fates"]["delivered"] > 5000
    assert fast == ref


def test_scheduler_matches_heap_only_reference_on_every_action():
    fast, ref = _both(every_action())
    assert fast["cp_restarts"] == 1
    assert all(fast["consumed_by_member"][m] > 0 for m in ("m1", "m2", "m3", "m4"))
    assert {"delivered", "evicted", "timeout"} <= set(fast["fates"])
    assert fast["ledger"]["100006"] == "delivered"
    assert fast == ref


def test_scheduler_matches_heap_only_reference_with_delayed_outbound_hop():
    spec = short_churn()
    spec.update(
        name="delayed-out",
        impair_out={"delay_ms": 0.4, "jitter_ms": 0.3, "reorder_depth": 2},
        impair_in={"reorder_depth": 8, "duplicate_prob": 0.01, "delay_ms": 0.2},
    )
    fast, ref = _both(spec)
    assert fast["hop_counters"]["out"]["submitted"] > 0
    assert fast == ref


@pytest.mark.parametrize("max_events", [40, 3_000, 12_000, 20_000])
def test_event_budget_runs_out_at_the_same_virtual_time(max_events):
    spec = {**every_action(), "max_events": max_events}
    outcomes = []
    for cls in (_Run, HeapOnlyRun):
        run = cls(Scenario.from_dict(spec))
        with pytest.raises(ScenarioTimeout) as exc:
            run.run()
        # the same events ran before the budget ran out
        progress = (run.hop_in.submitted, run.hop_out.submitted, len(run.report.deliveries),
                    run.report.deliveries[-1:], len(run.report.epoch_log))
        outcomes.append((str(exc.value), progress))
    assert outcomes[0] == outcomes[1]


def test_identity_hop_delivers_at_submission_without_buffering():
    hop = ImpairHop(ImpairmentProfile(), seed=3)
    state = hop.rng.getstate()
    assert hop.submit(7, "a") == ([(7, "a")], ())
    assert hop.flush(9) == []
    assert hop.submitted == 1 and hop.rng.getstate() == state


def test_reorder_draws_match_randint():
    # The hop draws reorder keys without randint's frames; the draws must
    # be randint's, or seeded scenarios would change.  Reference: the same
    # release rule fed with randint keys.
    for depth in (1, 2, 3, 7, 8, 31, 64, 1000):
        hop = ImpairHop(ImpairmentProfile(reorder_depth=depth), seed=depth)
        ref = derive_rng(depth, "hop")
        released, pending, expected = [], [], []
        for k in range(300):
            released += [pkt for _, pkt in hop.submit(0, k)[0]]
            heapq.heappush(pending, (k + ref.randint(0, depth), -k, k))
            while pending and pending[0][0] <= k:
                expected.append(heapq.heappop(pending)[2])
        released += [pkt for _, pkt in hop.flush(0)]
        expected += [heapq.heappop(pending)[2] for _ in range(len(pending))]
        assert released == expected
        assert hop.rng.getstate() == ref.getstate()
