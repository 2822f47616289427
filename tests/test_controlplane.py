"""Control plane: capacity, membership, feedback, prediction, scheduling."""

import hashlib
import json
import logging
import math
import os
import random
import shutil
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import forward_one

from streamlb import controlplane as cp_mod
from streamlb.controlplane import (
    GUARD_S,
    MAX_INSTANCES,
    PREDICT_WINDOW,
    STALE_AFTER_S,
    WEIGHT_GAIN,
    WEIGHT_MAX,
    WEIGHT_MIN,
    AlreadyDraining,
    CapacityExhausted,
    ControlPlane,
    CorruptSnapshot,
    DuplicateEndpoint,
    EmptyWeights,
    FillReport,
    NonMonotonicTick,
    NoSyncData,
    TickPredictor,
    UnknownInstance,
    UnknownSession,
    apportion_slots,
    load_snapshot,
)
from streamlb.dataplane import DRAIN_DELAY_S, SLOT_COUNT, DropReason, MemberState
from streamlb.wire import SyncMessage

S = 1_000_000_000


class FakeClock:
    def __init__(self, start_ns=0):
        self.now = start_ns

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += int(seconds * S)


def make_cp(start_s=100.0):
    clock = FakeClock(int(start_s * S))
    return ControlPlane(clock=clock), clock


def sync(source, tick, rate, t_ns):
    return SyncMessage(source_id=source, latest_tick=tick, event_rate_hz=rate, wallclock_ns=t_ns)


# --- apportionment ----------------------------------------------------------


def apportion_counts_oracle(weights, slot_count):
    """Largest remainder in exact Fraction arithmetic (independent path)."""
    total = sum(Fraction(w).limit_denominator(10**9) for w in weights.values())
    quotas = {
        s: Fraction(w).limit_denominator(10**9) * slot_count / total for s, w in weights.items()
    }
    counts = {s: math.floor(q) for s, q in quotas.items()}
    leftover = slot_count - sum(counts.values())
    for s in sorted(weights, key=lambda s: (-(quotas[s] - counts[s]), s))[:leftover]:
        counts[s] += 1
    return {s: n for s, n in counts.items() if n > 0}


def table_counts(table):
    counts = {}
    for sid in table:
        if sid is not None:
            counts[sid] = counts.get(sid, 0) + 1
    return counts


def test_apportion_2_1_1():
    table = apportion_slots({1: 2.0, 2: 1.0, 3: 1.0})
    assert table_counts(table) == {1: 256, 2: 128, 3: 128}
    assert table[:6] == (1, 2, 3, 1, 2, 3)


def test_apportion_1_1_1_tie_break():
    # 512/3 leaves two bonus slots; ties go to the lower session ids
    table = apportion_slots({1: 1.0, 2: 1.0, 3: 1.0})
    assert table_counts(table) == {1: 171, 2: 171, 3: 170}


def test_apportion_single_member_owns_all():
    assert apportion_slots({5: 0.25}) == (5,) * SLOT_COUNT


def test_apportion_empty_weights():
    with pytest.raises(EmptyWeights):
        apportion_slots({})
    with pytest.raises(EmptyWeights):
        apportion_slots({1: 0.0})


def test_apportion_counts_match_fraction_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 12)
        weights = {sid: rng.choice([0.05, 0.5, 1.0, 2.0, 3.25, 7.5, 20.0]) for sid in range(1, n + 1)}
        table = apportion_slots(weights)
        assert len(table) == SLOT_COUNT
        assert table_counts(table) == apportion_counts_oracle(weights, SLOT_COUNT)


def test_apportion_share_error_within_one_slot():
    rng = random.Random(7)
    for _ in range(100):
        weights = {sid: rng.uniform(0.05, 20.0) for sid in range(1, rng.randint(2, 9))}
        counts = table_counts(apportion_slots(weights))
        total = sum(weights.values())
        for sid, w in weights.items():
            assert abs(counts.get(sid, 0) - SLOT_COUNT * w / total) < 1.0 + 1e-9


def test_apportion_interleaves():
    # a member repeats adjacently only once every other member is spent
    rng = random.Random(55)
    for _ in range(50):
        weights = {sid: rng.uniform(0.1, 5.0) for sid in range(1, rng.randint(2, 6))}
        table = apportion_slots(weights)
        counts = table_counts(table)
        seen = {sid: 0 for sid in counts}
        for i, sid in enumerate(table):
            seen[sid] += 1
            if i + 1 < len(table) and table[i + 1] == sid:
                others_spent = all(seen[o] >= counts[o] for o in counts if o != sid)
                assert others_spent, f"adjacent repeat of {sid} at {i} before others exhausted"


# --- tick predictor ---------------------------------------------------------


def test_predictor_two_point_slope():
    p = TickPredictor()
    p.observe(1, 4000, 10 * S)
    p.observe(1, 5000, 11 * S)
    assert p.predict(12 * S) == 6000


def test_predictor_single_sample_flat():
    p = TickPredictor()
    p.observe(1, 900, 5 * S)
    assert p.predict(9 * S) == 900
    assert p.predict(5 * S) == 900


def test_predictor_clamps_to_newest_tick():
    p = TickPredictor()
    p.observe(1, 4000, 10 * S)
    p.observe(1, 5000, 11 * S)
    # extrapolating backwards would give 4500; newest observed wins
    assert p.predict(int(10.5 * S)) == 5000


def test_predictor_non_monotonic_same_source():
    p = TickPredictor()
    p.observe(1, 100, 1 * S)
    with pytest.raises(NonMonotonicTick):
        p.observe(1, 99, 2 * S)
    assert p.non_monotonic_count == 1
    p.observe(1, 100, 3 * S)  # equal tick is fine (idle stream)
    p.observe(2, 50, 4 * S)  # other sources keep their own floor


def test_predictor_window_evicts_old_samples():
    p = TickPredictor()
    for i in range(40):
        p.observe(1, 1000 * i, i * S)
    assert len(p.samples) == PREDICT_WINDOW
    assert p.samples[0][1] == 1000 * (40 - PREDICT_WINDOW)


def test_predictor_no_sync_data():
    with pytest.raises(NoSyncData):
        TickPredictor().predict(0)


def test_predictor_noisy_slope_vs_numpy_oracle():
    rng = random.Random(314)
    rate = 1000.0
    p = TickPredictor()
    ts, ys = [], []
    for i in range(PREDICT_WINDOW):
        t = i * S
        tick = round(rate * i + rng.uniform(-10, 10))
        ts.append(i)
        ys.append(tick)
        p.observe(1, tick, t)
    slope_oracle = np.polyfit(np.array(ts, dtype=float), np.array(ys, dtype=float), 1)[0]
    assert abs(slope_oracle - rate) / rate < 0.01  # the data itself is clean enough
    predicted = p.predict(20 * S)
    expected = np.polyval(np.polyfit(ts, ys, 1), 20.0)
    assert abs(predicted - expected) <= 1.0


# --- instance lifecycle -----------------------------------------------------


def test_reserve_assigns_low_ids_and_caps_at_eight():
    cp, _ = make_cp()
    ids = [cp.reserve_instance() for _ in range(MAX_INSTANCES)]
    assert ids == list(range(8))
    with pytest.raises(CapacityExhausted):
        cp.reserve_instance()


def test_free_releases_id_for_reuse():
    cp, _ = make_cp()
    for _ in range(MAX_INSTANCES):
        cp.reserve_instance()
    cp.free_instance(3)
    assert cp.reserve_instance() == 3


def test_free_unknown_instance():
    cp, _ = make_cp()
    with pytest.raises(UnknownInstance):
        cp.free_instance(0)


def test_reserve_requested_id():
    cp, _ = make_cp()
    assert cp.reserve_instance(instance_id=5) == 5
    with pytest.raises(CapacityExhausted):
        cp.reserve_instance(instance_id=5)
    with pytest.raises(ValueError):
        cp.reserve_instance(instance_id=8)


# --- membership -------------------------------------------------------------


def test_register_and_duplicate_endpoint():
    cp, _ = make_cp()
    iid = cp.reserve_instance()
    sid = cp.register_member(iid, "10.0.0.1", 18000, 4)
    assert sid == 1
    assert cp.instances[iid].members[sid].state is MemberState.ACTIVE
    with pytest.raises(DuplicateEndpoint):
        cp.register_member(iid, "10.0.0.1", 18000, 4)
    with pytest.raises(DuplicateEndpoint):
        cp.register_member(iid, "10.0.0.1", 18002, 4)  # overlapping range
    cp.register_member(iid, "10.0.0.1", 18004, 4)  # adjacent range is fine
    cp.register_member(iid, "10.0.0.2", 18000, 4)  # same ports, other host


def test_register_rejects_bad_port_count():
    cp, _ = make_cp()
    iid = cp.reserve_instance()
    for bad in (0, 3, 6, 12):
        with pytest.raises(ValueError):
            cp.register_member(iid, "10.0.0.1", 18000, bad)


def test_register_unknown_instance():
    cp, _ = make_cp()
    with pytest.raises(UnknownInstance):
        cp.register_member(4, "10.0.0.1", 18000, 1)


def test_deregister_transitions_and_errors():
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    sid = cp.register_member(iid, "10.0.0.1", 18000, 1)
    cp.deregister_member(sid)
    member = cp.instances[iid].members[sid]
    assert member.state is MemberState.DRAINING
    assert member.draining_since == clock.now
    with pytest.raises(AlreadyDraining):
        cp.deregister_member(sid)
    with pytest.raises(UnknownSession):
        cp.deregister_member(999)


# --- feedback ---------------------------------------------------------------


def test_fill_report_clamps_signal_and_validates_fill():
    r = FillReport(session_id=1, queue_fill=0.5, control_signal=3.0, ready=True)
    assert r.control_signal == 1.0
    with pytest.raises(ValueError):
        FillReport(session_id=1, queue_fill=1.5, control_signal=0.0, ready=True)


def test_ingest_fill_report_unknown_session():
    cp, _ = make_cp()
    cp.reserve_instance()
    with pytest.raises(UnknownSession):
        cp.ingest_fill_report(FillReport(session_id=42, queue_fill=0.0, control_signal=0.0, ready=True))


def test_update_weights_multiplicative_and_clamped():
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    sid = cp.register_member(iid, "10.0.0.1", 18000, 1, initial_weight=1.0)

    cp.ingest_fill_report(FillReport(sid, 0.0, 1.0, True))
    assert cp.update_weights(iid)[sid] == pytest.approx(1.0 + WEIGHT_GAIN)

    cp.ingest_fill_report(FillReport(sid, 1.0, -1.0, True))
    assert cp.update_weights(iid)[sid] == pytest.approx(1.5 * 0.5)

    for _ in range(30):
        cp.ingest_fill_report(FillReport(sid, 0.0, 1.0, True))
        cp.update_weights(iid)
    assert cp.instances[iid].members[sid].weight == WEIGHT_MAX

    for _ in range(30):
        cp.ingest_fill_report(FillReport(sid, 1.0, -1.0, True))
        cp.update_weights(iid)
    assert cp.instances[iid].members[sid].weight == WEIGHT_MIN


def test_zero_signal_is_fixed_point():
    cp, _ = make_cp()
    iid = cp.reserve_instance()
    sid = cp.register_member(iid, "10.0.0.1", 18000, 1, initial_weight=2.5)
    cp.ingest_fill_report(FillReport(sid, 0.5, 0.0, True))
    for _ in range(5):
        assert cp.update_weights(iid)[sid] == 2.5


def test_stale_report_excludes_member():
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    a = cp.register_member(iid, "10.0.0.1", 18000, 1)
    b = cp.register_member(iid, "10.0.0.2", 18000, 1)
    cp.ingest_fill_report(FillReport(a, 0.5, 0.0, True))
    cp.ingest_fill_report(FillReport(b, 0.5, 0.0, True))
    clock.advance(STALE_AFTER_S + 1.0)
    cp.ingest_fill_report(FillReport(b, 0.5, 0.0, True))  # b keeps reporting
    weights = cp.update_weights(iid)
    assert weights[a] == 0.0  # silent for > 3 s
    assert weights[b] > 0.0


def test_fresh_member_gets_grace_window():
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    sid = cp.register_member(iid, "10.0.0.1", 18000, 1)
    assert cp.update_weights(iid)[sid] == 1.0  # no report yet, inside grace
    clock.advance(STALE_AFTER_S + 1.0)
    from streamlb.controlplane import NoReadyMembers

    with pytest.raises(NoReadyMembers):
        cp.update_weights(iid)


def test_not_ready_report_zeroes_round_weight_only():
    cp, _ = make_cp()
    iid = cp.reserve_instance()
    a = cp.register_member(iid, "10.0.0.1", 18000, 1, initial_weight=4.0)
    b = cp.register_member(iid, "10.0.0.2", 18000, 1)
    cp.ingest_fill_report(FillReport(a, 0.0, 0.0, False))
    cp.ingest_fill_report(FillReport(b, 0.0, 0.0, True))
    weights = cp.update_weights(iid)
    assert weights[a] == 0.0
    assert cp.instances[iid].members[a].weight == 4.0  # stored weight untouched


# --- sync ingest ------------------------------------------------------------


def test_ingest_sync_feeds_predictor_and_counts_regressions():
    cp, _ = make_cp()
    iid = cp.reserve_instance()
    cp.ingest_sync(iid, sync(1, 1000, 500, 10 * S))
    cp.ingest_sync(iid, sync(1, 1500, 500, 11 * S))
    assert cp.predict_tick(iid, 12 * S) == 2000
    with pytest.raises(NonMonotonicTick):
        cp.ingest_sync(iid, sync(1, 900, 500, 12 * S))
    assert cp.predictors[iid].non_monotonic_count == 1


# --- control tick -----------------------------------------------------------


def full_member(cp, iid, octet, port=18000, weight=1.0):
    return cp.register_member(iid, f"10.0.0.{octet}", port, 1, initial_weight=weight)


def test_first_epoch_gives_new_member_all_slots():
    cp, _ = make_cp()
    iid = cp.reserve_instance()
    sid = full_member(cp, iid, 1)
    emitted = cp.control_tick()
    assert len(emitted) == 1
    _, epoch = emitted[0]
    assert epoch.table == (sid,) * SLOT_COUNT


def test_control_tick_idempotent_when_nothing_changes():
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    sid = full_member(cp, iid, 1)
    assert len(cp.control_tick()) == 1
    clock.advance(1.0)
    cp.ingest_fill_report(FillReport(sid, 0.5, 0.0, True))
    assert cp.control_tick() == []
    assert len(cp.instances[iid].epochs) == 1


def test_member_add_emits_exactly_one_epoch_with_future_boundary():
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    a = full_member(cp, iid, 1)
    cp.ingest_sync(iid, sync(1, 1000, 1000, clock.now))
    cp.control_tick()
    clock.advance(1.0)
    cp.ingest_sync(iid, sync(1, 2000, 1000, clock.now))
    cp.ingest_fill_report(FillReport(a, 0.5, 0.0, True))
    b = full_member(cp, iid, 2)
    emitted = cp.control_tick()
    assert len(emitted) == 1
    _, epoch = emitted[0]
    first = cp.instances[iid].epochs[0]
    assert epoch.boundary_tick > first.boundary_tick
    # boundary one guard interval ahead: tick 2000 now, rate 1000/s, guard 1 s
    assert epoch.boundary_tick == pytest.approx(2000 + 1000 * GUARD_S, abs=2)
    assert b in epoch.table and a in epoch.table


def test_deregister_sole_member_schedules_empty_table():
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    sid = full_member(cp, iid, 1)
    cp.control_tick()
    clock.advance(1.0)
    cp.deregister_member(sid)
    emitted = cp.control_tick()
    assert len(emitted) == 1
    _, epoch = emitted[0]
    assert set(epoch.table) == {None}
    from streamlb import wire

    dg = wire.encode_lb_header(wire.LbMetaHeader(channel=0, tick=epoch.boundary_tick)) + b"\x00" * 20
    assert forward_one(cp.instances[iid], dg)[1] is DropReason.NULL_SLOT


def test_boundary_never_behind_forwarded_traffic():
    from streamlb import wire

    cp, clock = make_cp()
    iid = cp.reserve_instance()
    sid = full_member(cp, iid, 1)
    cp.control_tick()
    inst = cp.instances[iid]
    for tick in range(0, 5000, 7):
        dg = wire.encode_lb_header(wire.LbMetaHeader(channel=0, tick=tick)) + b"\x00" * 20
        inst.forward_packet(dg)
    clock.advance(1.0)
    full_member(cp, iid, 2)  # force a table change
    emitted = cp.control_tick()
    assert emitted[0][1].boundary_tick > inst.max_forwarded_tick


def test_boundary_is_chosen_and_published_under_the_instance_lock(caplog):
    # One thread forwards 3-fragment events with rising ticks while control
    # passes flip the table between two members.  A boundary chosen outside
    # the instance lock can land at or below a tick forwarded before the
    # publish, and that tick's later fragments then reach the other member.
    from streamlb import wire

    caplog.set_level(logging.ERROR, logger=cp_mod.__name__)  # "no sync data" on every pass
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    a, b = full_member(cp, iid, 1), full_member(cp, iid, 2)
    cp.control_tick()
    inst = cp.instances[iid]
    dests = {}  # tick -> session ids its fragments reached
    stop = threading.Event()

    def forward():
        tick = 0
        while not stop.is_set():
            dg = wire.encode_lb_header(wire.LbMetaHeader(channel=0, tick=tick)) + bytes(20)
            for _ in range(3):
                for _dest, sid, _payloads in inst.forward_packet(dg):
                    dests.setdefault(tick, set()).add(sid)
            tick += 1

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    forwarder = threading.Thread(target=forward, daemon=True)
    try:
        forwarder.start()
        deadline = time.monotonic() + 60.0
        for i in range(2_000):
            # with only EPOCH_RETAIN epochs kept, never prune one still in use
            while (inst.max_forwarded_tick or 0) < inst.epochs[-1].boundary_tick + 2:
                assert time.monotonic() < deadline
                time.sleep(0)
            ready, idle = (a, b) if i % 2 else (b, a)
            cp.ingest_fill_report(FillReport(ready, 0.5, 0.0, True))
            cp.ingest_fill_report(FillReport(idle, 0.5, 0.0, False))
            assert cp.control_tick()  # the table changed, so an epoch was published
    finally:
        stop.set()
        forwarder.join(timeout=5.0)
        sys.setswitchinterval(old_interval)
    assert not forwarder.is_alive()
    split = sorted(t for t, sids in dests.items() if len(sids) > 1)
    assert not split, f"{len(split)} ticks reached both members, first {split[:5]}"


def test_boundaries_strictly_increase_without_sync_data():
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    full_member(cp, iid, 1)
    cp.control_tick()
    boundaries = [cp.instances[iid].epochs[-1].boundary_tick]
    for octet in (2, 3, 4):
        clock.advance(1.0)
        full_member(cp, iid, octet)
        cp.control_tick()
        boundaries.append(cp.instances[iid].epochs[-1].boundary_tick)
    assert boundaries == sorted(set(boundaries))


def test_epoch_listener_invoked():
    cp, _ = make_cp()
    iid = cp.reserve_instance()
    seen = []
    cp.epoch_listener = lambda i, e, fwd: seen.append((i, e.epoch_id, fwd))
    full_member(cp, iid, 1)
    cp.control_tick()
    assert seen == [(iid, 1, None)]


def forward_tick(inst, tick):
    from streamlb import wire

    return inst.forward_packet(wire.encode_lb_header(wire.LbMetaHeader(channel=0, tick=tick)) + bytes(20))


def test_reschedule_publishes_a_join_at_current_weights():
    cp, _ = make_cp()
    iid = cp.reserve_instance()
    a = full_member(cp, iid, 1, weight=3.0)
    cp.ingest_fill_report(FillReport(a, 0.9, 1.0, True))  # a feedback round would move the weight
    epoch = cp.reschedule(iid)
    assert epoch.table == (a,) * SLOT_COUNT
    assert cp.instances[iid].members[a].weight == 3.0
    b = full_member(cp, iid, 2)
    epoch = cp.reschedule(iid)
    assert table_counts(epoch.table) == {a: 384, b: 128}
    assert cp.instances[iid].epochs[-1] is epoch
    assert cp.reschedule(iid) is None  # same table: no epoch churn
    assert len(cp.instances[iid].epochs) == 2


def test_reschedule_skips_members_not_ready():
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    a = full_member(cp, iid, 1)
    b = full_member(cp, iid, 2)
    cp.ingest_fill_report(FillReport(b, 0.5, 0.0, False))
    assert cp.reschedule(iid).table == (a,) * SLOT_COUNT
    cp.deregister_member(a)
    assert set(cp.reschedule(iid).table) == {None}  # no ready member: empty table


def test_reschedule_supersedes_an_epoch_ahead_of_the_traffic():
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    inst = cp.instances[iid]
    a = full_member(cp, iid, 1)
    cp.ingest_sync(iid, sync(1, 1000, 1000, clock.now))
    cp.control_tick()
    (first,) = inst.epochs
    assert first.boundary_tick >= 1000
    forward_tick(inst, first.boundary_tick)  # traffic reaches the first epoch
    b = full_member(cp, iid, 2)
    ahead = cp.reschedule(iid)  # a join publishes at once
    assert ahead is not None and set(ahead.table) == {a, b}
    assert ahead.boundary_tick > first.boundary_tick
    assert inst.epochs == (first, ahead)
    cp.deregister_member(b)
    epoch = cp.reschedule(iid)  # so does a leave, while `ahead` is unreached
    assert epoch is not None and set(epoch.table) == {a}
    assert inst.epochs == (first, epoch)  # the unreached epoch is gone
    fwd = inst.max_forwarded_tick
    assert sum(e.boundary_tick > fwd for e in inst.epochs) == 1


def test_reschedule_tells_the_listener_what_was_forwarded():
    cp, _ = make_cp()
    iid = cp.reserve_instance()
    seen = []
    cp.epoch_listener = lambda i, e, fwd: seen.append((i, e.epoch_id, e.boundary_tick, fwd))
    full_member(cp, iid, 1)
    cp.reschedule(iid)
    forward_tick(cp.instances[iid], 40)
    full_member(cp, iid, 2)
    cp.reschedule(iid)
    assert seen == [(iid, 1, 0, None), (iid, 2, 41, 40)]


def test_reschedule_persists_the_membership_epoch(tmp_path):
    path = str(tmp_path / "state.bin")
    cp = ControlPlane(clock=FakeClock(10 * S), snapshot_path=path)
    iid = cp.reserve_instance()
    sid = full_member(cp, iid, 1)
    epoch = cp.reschedule(iid)
    state = load_snapshot(path)["instances"][str(iid)]
    assert [m["session_id"] for m in state["members"]] == [sid]
    assert state["epochs"] == [
        {"epoch_id": epoch.epoch_id, "boundary_tick": epoch.boundary_tick, "table": [sid] * SLOT_COUNT}
    ]


def test_draining_member_keeps_receiving_old_epoch_traffic():
    from streamlb import wire

    cp, clock = make_cp()
    iid = cp.reserve_instance()
    a = full_member(cp, iid, 1)
    cp.ingest_sync(iid, sync(1, 100, 100, clock.now))
    cp.control_tick()
    clock.advance(1.0)
    cp.ingest_sync(iid, sync(1, 200, 100, clock.now))
    b = full_member(cp, iid, 2)
    cp.ingest_fill_report(FillReport(a, 0.2, 0.0, True))
    cp.control_tick()
    clock.advance(1.0)
    cp.deregister_member(a)
    cp.ingest_fill_report(FillReport(b, 0.2, 0.0, True))
    cp.control_tick()
    inst = cp.instances[iid]
    assert inst.members[a].state is MemberState.DRAINING
    # a tick admitted before the drain boundary still routes to the drainer
    old_epoch = inst.epochs[0]
    dg = wire.encode_lb_header(wire.LbMetaHeader(channel=0, tick=0)) + b"\x00" * 20
    assert forward_one(inst, dg)[1] == a


# --- persistence ------------------------------------------------------------


def populated_cp(tmp_path, clock=None):
    clock = clock or FakeClock(50 * S)
    cp = ControlPlane(clock=clock, snapshot_path=str(tmp_path / "state.bin"))
    iid = cp.reserve_instance(listen=("127.0.0.1", 19500))
    a = cp.register_member(iid, "10.0.0.1", 18000, 4, initial_weight=2.0)
    b = cp.register_member(iid, "10.0.0.2", 18000, 2)
    cp.ingest_sync(iid, sync(1, 5000, 1000, clock.now))
    cp.ingest_fill_report(FillReport(a, 0.25, 0.1, True))
    cp.ingest_fill_report(FillReport(b, 0.75, -0.2, True))
    cp.control_tick()
    return cp, clock, iid


def test_snapshot_roundtrip_reproduces_state(tmp_path):
    cp, clock, iid = populated_cp(tmp_path)
    path = cp.persist_state()
    restored = ControlPlane.restore_state(path, clock=clock)
    assert restored._dump() == cp._dump()
    assert restored.persist_state(str(tmp_path / "again.bin"))
    assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "state.bin").read_bytes()


def write_snapshot(path, state):
    """A snapshot file with a valid checksum over any JSON payload."""
    payload = json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(cp_mod.SNAPSHOT_MAGIC + hashlib.sha256(payload).digest() + payload)


def test_restore_accepts_snapshot_with_admitted_epoch(tmp_path):
    # Snapshots written before the unread admitted_epoch field was dropped
    # still carry it per member; restore ignores it.
    cp, clock, iid = populated_cp(tmp_path)
    state = cp._dump()
    for member in state["instances"][str(iid)]["members"]:
        member["admitted_epoch"] = 1
    path = tmp_path / "older.bin"
    write_snapshot(path, state)
    restored = ControlPlane.restore_state(str(path), clock=clock)
    assert sorted(restored.instances[iid].members) == sorted(cp.instances[iid].members)
    assert restored._dump() == cp._dump()


def test_snapshot_restore_resumes_scheduling_identically(tmp_path):
    cp, clock, iid = populated_cp(tmp_path)
    path = cp.persist_state()
    restored = ControlPlane.restore_state(path, clock=clock)

    def drive(cp_obj):
        a, b = sorted(cp_obj.instances[iid].members)
        clock_ns = clock.now + S
        cp_obj.ingest_sync(iid, sync(1, 6000, 1000, clock_ns))
        cp_obj.ingest_fill_report(FillReport(a, 0.9, -0.5, True, wallclock_ns=clock_ns))
        cp_obj.ingest_fill_report(FillReport(b, 0.1, 0.5, True, wallclock_ns=clock_ns))
        return cp_obj.control_tick(now_ns=clock_ns)

    out_orig = drive(cp)
    out_restored = drive(restored)
    assert [(i, e.epoch_id, e.boundary_tick, e.table) for i, e in out_orig] == [
        (i, e.epoch_id, e.boundary_tick, e.table) for i, e in out_restored
    ]


def test_epoch_ids_survive_restart(tmp_path):
    cp, clock, iid = populated_cp(tmp_path)
    last_epoch = cp.instances[iid].epochs[-1]
    path = cp.persist_state()
    restored = ControlPlane.restore_state(path, clock=clock)
    clock.advance(1.0)
    restored.ingest_sync(iid, sync(1, 7000, 1000, clock.now))
    sid = restored.register_member(iid, "10.0.0.3", 18000, 1)
    emitted = restored.control_tick()
    assert emitted, "restart with changed membership must emit"
    _, epoch = emitted[0]
    assert epoch.epoch_id > last_epoch.epoch_id
    assert epoch.boundary_tick > last_epoch.boundary_tick


def test_restore_missing_file_is_empty(tmp_path):
    cp = ControlPlane.restore_state(str(tmp_path / "absent.bin"))
    assert cp.instances == {}


def test_corrupt_snapshot_detected(tmp_path, caplog):
    cp, clock, _ = populated_cp(tmp_path)
    path = cp.persist_state()
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[len(blob) // 2] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(CorruptSnapshot):
        load_snapshot(path)
    with caplog.at_level("ERROR"):
        restored = ControlPlane.restore_state(path)
    assert restored.instances == {}
    assert any("CORRUPT" in r.message for r in caplog.records)


def test_truncated_snapshot_detected(tmp_path):
    cp, clock, _ = populated_cp(tmp_path)
    path = cp.persist_state()
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    with pytest.raises(CorruptSnapshot):
        load_snapshot(path)


def test_snapshot_deterministic_for_identical_logs(tmp_path):
    def build(path):
        clock = FakeClock(10 * S)
        cp = ControlPlane(clock=clock)
        iid = cp.reserve_instance(listen=("127.0.0.1", 9000))
        a = cp.register_member(iid, "10.0.0.1", 18000, 2)
        clock.advance(0.5)
        cp.ingest_sync(iid, sync(3, 800, 400, clock.now))
        cp.ingest_fill_report(FillReport(a, 0.4, 0.2, True, wallclock_ns=clock.now))
        cp.control_tick()
        cp.persist_state(path)
        return path

    p1 = build(str(tmp_path / "one.bin"))
    p2 = build(str(tmp_path / "two.bin"))
    with open(p1, "rb") as one, open(p2, "rb") as two:
        assert one.read() == two.read()


def test_restores_a_snapshot_from_before_records_came_from_the_dataclasses(tmp_path):
    # Written by make_compat_snapshot.py with the older code: its layout
    # still carries sync_rate, epoch_retain and the report of a retired
    # session, all of which restore ignores.
    data = os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(data, "compat_expect.json")) as fh:
        expect = json.load(fh)
    path = shutil.copy(os.path.join(data, "compat_snapshot.bin"), tmp_path)
    cp = ControlPlane.restore_state(path, clock=FakeClock(expect["clock_ns"]))
    assert "sync_rate" in load_snapshot(path)["instances"]["0"]
    query = json.loads(json.dumps(cp.query()))
    for q in (*query.values(), *expect["query"].values()):
        q.pop("reads")  # socket reads of one process: never persisted
    assert query == expect["query"]
    emitted = [[iid, e.epoch_id, e.boundary_tick, list(e.table)] for iid, e in cp.control_tick()]
    assert emitted == expect["next_control_tick"]


def _without_slot_count(tmp_path):
    state = populated_cp(tmp_path)[0]._dump()
    for idata in state["instances"].values():
        del idata["slot_count"]
    return state


@pytest.mark.parametrize(
    "make_state",
    [lambda _: {"instances": {}}, lambda _: [1, 2], _without_slot_count],
    ids=["no_next_session_id", "a_list", "instance_without_slot_count"],
)
def test_snapshot_that_does_not_fit_the_schema_starts_empty(tmp_path, caplog, make_state):
    path = tmp_path / "misfit.bin"
    write_snapshot(path, make_state(tmp_path))
    with caplog.at_level("ERROR"):
        restored = ControlPlane.restore_state(str(path))
    assert restored.instances == {} and restored.predictors == {}
    assert restored.next_session_id == 1
    assert restored.snapshot_path == str(path)
    assert any("SNAPSHOT CORRUPT" in r.message for r in caplog.records)


def test_retired_sessions_leave_no_state_in_the_plane_or_its_snapshot(tmp_path):
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    sids = [full_member(cp, iid, 1, port=18000 + i) for i in range(50)]
    for sid in sids:
        cp.ingest_fill_report(FillReport(sid, 0.5, 0.0, True))
    cp.control_tick()
    for sid in sids[1:]:
        clock.advance(0.01)
        cp.deregister_member(sid)
        cp.reschedule(iid)
    for _ in range(int(DRAIN_DELAY_S) + 2):
        clock.advance(1.0)
        cp.ingest_fill_report(FillReport(sids[0], 0.5, 0.0, True))
        cp.control_tick()
    inst = cp.instances[iid]
    live = set(inst.members)
    retired = set(sids) - live
    assert live == {sids[0], *sids[-3:]}  # the last three leavers are still in retained epochs
    for obj in (cp, inst):
        for name, value in vars(obj).items():
            if isinstance(value, dict):
                assert not retired & set(value), f"{type(obj).__name__}.{name} keeps retired sessions"
    path = cp.persist_state(str(tmp_path / "state.bin"))
    state = load_snapshot(path)["instances"][str(iid)]
    assert {m["session_id"] for m in state["members"]} == live
    assert {sid for sid, _report, _at in state["feedback"]} == live
    assert ControlPlane.restore_state(path, clock=clock)._dump() == cp._dump()


def test_snapshot_counters_are_one_consistent_read():
    # A forwarding thread updates the counters while snapshots are taken;
    # each snapshot must see received == forwarded + dropped.
    cp, _ = make_cp()
    iid = cp.reserve_instance()
    full_member(cp, iid, 1)
    cp.control_tick()
    inst = cp.instances[iid]
    stop = threading.Event()

    def forward():
        tick = 0
        while not stop.is_set():
            forward_tick(inst, tick)
            inst.forward_packet(b"junk")  # truncated: a drop
            tick += 1

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    forwarder = threading.Thread(target=forward, daemon=True)
    torn = 0
    try:
        forwarder.start()
        for _ in range(3_000):
            c = cp._dump()["instances"][str(iid)]["counters"]
            dropped = sum(c["dropped_by_reason"].values())
            if c["received"] != c["forwarded"] + dropped or sum(c["forwarded_by_member"].values()) != c["forwarded"]:
                torn += 1
    finally:
        stop.set()
        forwarder.join(timeout=5.0)
        sys.setswitchinterval(old_interval)
    assert not forwarder.is_alive()
    assert inst.received_total > 0
    assert torn == 0, f"{torn} of 3000 snapshots read torn counters"


def test_query_shape():
    cp, clock = make_cp()
    iid = cp.reserve_instance()
    sid = full_member(cp, iid, 1)
    cp.ingest_fill_report(FillReport(sid, 0.3, 0.0, True))
    cp.control_tick()
    q = cp.query()[iid]
    assert q["members"][sid]["slots"] == SLOT_COUNT
    assert q["members"][sid]["queue_fill"] == 0.3
    assert q["counters"]["received"] == 0
    assert len(q["epochs"]) == 1
