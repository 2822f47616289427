"""Acceptance gate: one test per shipping criterion, tolerances pinned here.

Scenario-based criteria share module-scoped reports so the whole gate stays
fast; the boundary-safety criterion then audits every one of those runs.
"""

import itertools
import random
import time

import pytest

import conftest
from streamlb import wire
from streamlb.controlplane import (
    MAX_INSTANCES,
    CapacityExhausted,
    ControlPlane,
    TickPredictor,
)
from streamlb.harness import ImpairmentProfile, impair, run_scenario
from streamlb.harness.realtime import run_realtime
from streamlb.receiver import Receiver
from streamlb.sender import Event, event_digest, fragment_event, synth_events

NS = 1_000_000_000

# Pinned tolerances.  Changing any of these is changing the contract.
CHURN_EVENTS = 10_000
CHURN_RATE_HZ = 1_000.0
SIM_HORIZON_CEILING_S = 30.0
SHARE_EVENTS = 50_000
SHARE_TOL = 0.02                  # 2 percentage points
FILL_SETPOINT = 0.5
FILL_TOL = 0.1
FILL_WITHIN_INTERVALS = 30
SERVICE_RATIO = 2.0
RATIO_TOL = 0.10
STEADY_AFTER_S = 30.0
PREDICT_LINEAR_TOL_TICKS = 1
PREDICT_SLOPE_TOL = 0.01
DIGEST_EVENTS = 10_000
ROUNDTRIP_SAMPLES = 100_000
FUZZ_SAMPLES = 20_000
THROUGHPUT_FLOOR_MBPS = 500.0
DP_DROP_CEILING = 0.001

U16, U32, U64 = 2**16 - 1, 2**32 - 1, 2**64 - 1


# --- shared scenario runs ----------------------------------------------------


@pytest.fixture(scope="module")
def churn_report():
    return run_scenario(
        {
            "name": "churn",
            "seed": 101,
            "duration_s": 11.0,
            "members": [{"name": "m1"}, {"name": "m2"}, {"name": "m3"}],
            "senders": [
                {
                    "source_id": 1,
                    "rate_hz": CHURN_RATE_HZ,
                    "count": CHURN_EVENTS,
                    "size": 400,
                    "start_s": 1.0,
                }
            ],
            "timeline": [
                {"at_s": 3.0, "action": "register", "member": {"name": "m4"}},
                {"at_s": 6.0, "action": "deregister", "name": "m3"},
            ],
        }
    )


@pytest.fixture(scope="module")
def weighted_report():
    return run_scenario(
        {
            "name": "weighted-shares",
            "seed": 102,
            "duration_s": 11.5,
            "pid": {"kp": 0.0, "ki": 0.0, "kd": 0.0},  # hold the static weights
            "members": [
                {"name": "m1", "weight": 2.0},
                {"name": "m2", "weight": 1.0},
                {"name": "m3", "weight": 1.0},
            ],
            "senders": [
                {"source_id": 1, "rate_hz": 5000, "count": SHARE_EVENTS, "size": 120}
            ],
        }
    )


@pytest.fixture(scope="module")
def coherence_report():
    return run_scenario(
        {
            "name": "coherence",
            "seed": 103,
            "duration_s": 11.0,
            "impair_in": {"reorder_depth": 8, "duplicate_prob": 0.01},
            "members": [{"name": "m1"}, {"name": "m2"}, {"name": "m3"}],
            "senders": [
                {
                    "source_id": 1,
                    "rate_hz": 1000,
                    "count": 10_000,
                    "size": 4200,  # three fragments per event at the default mtu
                    "start_s": 1.0,
                }
            ],
            "timeline": [
                {"at_s": 3.0, "action": "register", "member": {"name": "m4"}},
                {"at_s": 6.0, "action": "deregister", "name": "m2"},
            ],
        }
    )


@pytest.fixture(scope="module")
def pid_report():
    # Offered rate equals aggregate service capacity, so queue levels are
    # movable at all; capacity 896 puts the fill time constant well above
    # the 1 Hz control period.  The long run lets the steady-state window
    # average whole rebalancing cycles.
    return run_scenario(
        {
            "name": "pid-convergence",
            "seed": 104,
            "duration_s": 260.0,
            "members": [
                {"name": "fast", "service_rate_hz": 500.0, "queue_capacity": 896},
                {"name": "slow", "service_rate_hz": 250.0, "queue_capacity": 896},
            ],
            "senders": [
                {"source_id": 1, "rate_hz": 750, "count": 193_500, "size": 80, "start_s": 1.0}
            ],
        }
    )


@pytest.fixture(scope="module")
def restart_report():
    return run_scenario(
        {
            "name": "cp-restart",
            "seed": 105,
            "duration_s": 11.0,
            "members": [{"name": "m1"}, {"name": "m2"}, {"name": "m3"}],
            "senders": [
                {
                    "source_id": 1,
                    "rate_hz": 1000,
                    "count": 10_000,
                    "size": 400,
                    "start_s": 1.0,
                }
            ],
            "timeline": [
                {"at_s": 4.7, "action": "restart_cp"},
                {"at_s": 6.0, "action": "register", "member": {"name": "m4"}},
            ],
        }
    )


# --- criteria ----------------------------------------------------------------


def test_criterion_01_zero_loss_churn(churn_report):
    r = churn_report
    assert r.events_sent == CHURN_EVENTS
    assert r.fates == {"delivered": CHURN_EVENTS}  # 0 lost, 0 anything else
    assert r.exactly_once_violations == []
    assert r.splits == []
    assert r.delivered_by_member["m4"] > 0  # the late member took traffic
    assert r.delivered_by_member["m3"] > 0  # the drained member served first
    assert r.duration_s + 4.0 < SIM_HORIZON_CEILING_S  # simulated clock, with tail


def test_criterion_02_weighted_distribution(weighted_report):
    cp = ControlPlane(clock=lambda: 0)
    iid = cp.reserve_instance(listen=("sim", 0))
    sids = [
        cp.register_member(iid, f"10.0.0.{i}", 9000, 2, initial_weight=w)
        for i, w in enumerate((2.0, 1.0, 1.0), start=1)
    ]
    cp.ingest_sync(
        iid, wire.SyncMessage(source_id=1, latest_tick=0, event_rate_hz=0, wallclock_ns=0)
    )
    cp.control_tick(now_ns=0)
    members = cp.query()[iid]["members"]
    assert [members[s]["slots"] for s in sids] == [256, 128, 128]

    r = weighted_report
    assert r.events_sent == SHARE_EVENTS
    shares = {n: c / r.delivered_total for n, c in r.delivered_by_member.items()}
    assert abs(shares["m1"] - 0.50) <= SHARE_TOL
    assert abs(shares["m2"] - 0.25) <= SHARE_TOL
    assert abs(shares["m3"] - 0.25) <= SHARE_TOL


def test_criterion_03_epoch_coherence(coherence_report):
    r = coherence_report
    assert r.splits == []  # exactly zero events touched two members
    assert r.fates == {"delivered": 10_000}
    assert r.hop_counters["in"]["duplicated"] > 0  # impairment really fired
    assert len(r.epoch_log) >= 3  # membership changed under the stream


def test_criterion_04_pid_convergence(pid_report):
    # Total backlog is conserved while both queues stay busy (inflow equals
    # aggregate service), so "reach" is first entry into the band; holding
    # both queues there forever is not a property this plant can have.
    r = pid_report
    for name in ("fast", "slow"):
        fills = [snap[name] for _, snap in r.fills if name in snap]
        at = next(
            (i for i, v in enumerate(fills) if abs(v - FILL_SETPOINT) < FILL_TOL),
            None,
        )
        assert at is not None, f"{name} fill never entered the band: {fills[:40]}"
        assert at <= FILL_WITHIN_INTERVALS, f"{name} entered at interval {at}"

    steady = [(t, member) for t, _, member in r.deliveries if t >= STEADY_AFTER_S]
    fast = sum(1 for _, m in steady if m == "fast")
    slow = sum(1 for _, m in steady if m == "slow")
    ratio = fast / slow
    assert abs(ratio - SERVICE_RATIO) <= SERVICE_RATIO * RATIO_TOL, ratio


def test_criterion_05_tick_predictor(
    churn_report, weighted_report, coherence_report, pid_report, restart_report
):
    # Exact linear syncs: predictions land within one tick.
    p = TickPredictor()
    for i in range(16):
        p.observe(1, 1000 * i, i * NS)
    for t_q in (16.0, 17.5, 20.0, 30.0, 45.0):
        assert abs(p.predict(int(t_q * NS)) - 1000 * t_q) <= PREDICT_LINEAR_TOL_TICKS

    # Uniform +/-10 tick jitter: fitted slope stays within 1% of the true rate.
    for seed in range(20):
        rng = random.Random(seed)
        p = TickPredictor()
        for i in range(16):
            p.observe(1, 1000 * i + rng.randint(-10, 10), i * NS)
        slope = (p.predict(36 * NS) - p.predict(26 * NS)) / 10
        assert abs(slope - 1000) / 1000 < PREDICT_SLOPE_TOL, (seed, slope)

    # Every epoch applied in every scenario run landed ahead of traffic.
    reports = (churn_report, weighted_report, coherence_report, pid_report, restart_report)
    assert sum(len(r.epoch_log) for r in reports) > 10
    assert [v for r in reports for v in r.boundary_violations] == []


def test_criterion_06_reassembly():
    # All 24 arrival orders of a four-fragment event complete identically.
    event = Event(tick=50, channels={0: bytes(range(256)) * 22})  # 5632 B, 4 fragments
    fragments = [d[wire.LB_HEADER_SIZE:] for d in fragment_event(event, 1408)]
    assert len(fragments) == 4
    for order in itertools.permutations(range(4)):
        rx = Receiver(expected_channels={0})
        for i in order:
            rx.ingest_packet(fragments[i], now_ns=0)
        got = rx.pop_event()
        assert got is not None and got.channels == event.channels
        assert rx.counters["events"] == 1 and rx.counters["stale"] == 0

    # Fragments older than the 64-tick window are dropped and counted.
    rx = Receiver(expected_channels={0})
    def ship(tick):
        for d in fragment_event(Event(tick=tick, channels={0: b"z" * 64})):
            rx.ingest_packet(d[wire.LB_HEADER_SIZE:], now_ns=0)
    ship(1000)
    ship(936)   # exactly at the window edge: still current
    ship(935)   # one past it: stale
    assert rx.counters["events"] == 2
    assert rx.counters["stale"] == 1
    assert {e.tick for e in (rx.pop_event(), rx.pop_event())} == {1000, 936}

    # End-to-end digests survive (loss 0, reorder 8) for 10^4 events.
    cp = ControlPlane(clock=lambda: 0)
    iid = cp.reserve_instance(listen=("sim", 0))
    cp.register_member(iid, "10.0.0.1", 9000, 1)
    cp.ingest_sync(
        iid, wire.SyncMessage(source_id=1, latest_tick=1, event_rate_hz=0, wallclock_ns=0)
    )
    cp.control_tick(now_ns=0)
    inst = cp.instances[iid]

    sent, packets = {}, []
    for ev in synth_events(DIGEST_EVENTS, 1, 3000, seed=1234):
        sent[ev.tick] = event_digest(ev)
        packets.extend(fragment_event(ev))
    arrivals = impair(
        packets, ImpairmentProfile(loss_prob=0.0, reorder_depth=8), seed=99, label="digest"
    )
    assert len(arrivals) == len(packets)

    rx = Receiver(expected_channels={0}, queue_capacity=64)
    got = {}
    rx.on_event = lambda tick, event: got.__setitem__(tick, event_digest(event))
    for pkt in arrivals:
        _dest, sid, payload = conftest.forward_one(inst, pkt)
        assert payload is not None, sid  # a drop: sid holds its reason
        rx.ingest_packet(payload, now_ns=0)
    assert got == sent


def test_criterion_07_wire_codecs():
    # Golden vectors, frozen from an independent int.to_bytes packer.
    assert wire.encode_lb_header(wire.LbMetaHeader(channel=0, tick=0)) == bytes.fromhex(
        "4c420101000000000000000000000000"
    )
    assert wire.encode_lb_header(
        wire.LbMetaHeader(channel=3, tick=1025)
    ) == bytes.fromhex("4c420101000000030000000000000401")
    assert wire.encode_re_header(
        wire.ReassemblyHeader(channel=2, offset=1400, total_length=4500, tick=7)
    ) == bytes.fromhex("1000000200000578000011940000000000000007")
    assert wire.encode_sync(
        wire.SyncMessage(source_id=1, latest_tick=5000, event_rate_hz=1000, wallclock_ns=0)
    ) == bytes.fromhex("4c430100000000010000000000001388000003e80000000000000000")

    rng = random.Random(7)
    for _ in range(ROUNDTRIP_SAMPLES):
        kind = rng.randrange(3)
        if kind == 0:
            h = wire.LbMetaHeader(channel=rng.randint(0, U16), tick=rng.randint(0, U64))
            assert wire.decode_lb_header(wire.encode_lb_header(h)) == h
        elif kind == 1:
            h = wire.ReassemblyHeader(
                channel=rng.randint(0, U16),
                offset=rng.randint(0, U32),
                total_length=rng.randint(0, U32),
                tick=rng.randint(0, U64),
            )
            assert wire.decode_re_header(wire.encode_re_header(h)) == h
        else:
            s = wire.SyncMessage(
                source_id=rng.randint(0, U32),
                latest_tick=rng.randint(0, U64),
                event_rate_hz=rng.randint(0, U32),
                wallclock_ns=rng.randint(0, U64),
            )
            assert wire.decode_sync(wire.encode_sync(s)) == s

    decoders = (wire.decode_lb_header, wire.decode_re_header, wire.decode_sync)
    valid = (
        wire.encode_lb_header(wire.LbMetaHeader(channel=9, tick=12345)),
        wire.encode_re_header(wire.ReassemblyHeader(2, 100, 4000, 12345)),
        wire.encode_sync(wire.SyncMessage(1, 12345, 500, 999)),
    )
    for _ in range(FUZZ_SAMPLES):
        if rng.random() < 0.5:
            blob = rng.randbytes(rng.randint(0, 64))
        else:  # mutate a valid encoding: truncate or flip one byte
            blob = bytearray(valid[rng.randrange(3)])
            if rng.random() < 0.5:
                blob = bytes(blob[: rng.randint(0, len(blob))])
            else:
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
                blob = bytes(blob)
        for decode in decoders:
            try:
                decode(blob)
            except wire.WireError:
                pass  # anything else (or a hang) fails the test


def test_criterion_08_instance_capacity():
    cp = ControlPlane(clock=lambda: 0)
    ids = [cp.reserve_instance(listen=("sim", 0)) for _ in range(MAX_INSTANCES)]
    assert ids == list(range(8))
    with pytest.raises(CapacityExhausted):
        cp.reserve_instance(listen=("sim", 0))


def test_criterion_09_crash_recovery(restart_report):
    r = restart_report
    assert r.cp_restarts == 1
    assert r.fates == {"delivered": 10_000}
    assert r.exactly_once_violations == []
    before = [e for e in r.epoch_log if e["t_s"] < 4.7]
    after = [e for e in r.epoch_log if e["t_s"] > 4.7]
    assert before and after, r.epoch_log
    assert after[0]["boundary_tick"] > before[-1]["boundary_tick"]
    boundaries = [e["boundary_tick"] for e in r.epoch_log]
    assert boundaries == sorted(boundaries)


def test_criterion_10_throughput_floor():
    result = run_realtime(count=4800, size=64_000, mtu=16_000, rate_hz=1600.0, seed=42)
    conftest.notes[10] = (
        f"measured {result.goodput_mbps:.0f} Mbps goodput, "
        f"{result.offered_mbps:.0f} Mbps offered, "
        f"dp drops {result.dp_drop_fraction:.2%}"
    )
    assert result.goodput_mbps >= THROUGHPUT_FLOOR_MBPS, result.to_dict()
    assert result.dp_drop_fraction < DP_DROP_CEILING, result.dp_counters
