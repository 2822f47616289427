"""Data plane: epoch selection, slot routing, drops, schedule lifecycle."""

import random
import socket
import threading
import time

import pytest

from streamlb import wire
from streamlb.dataplane import (
    DRAIN_DELAY_S,
    SLOT_COUNT,
    Drop,
    DropReason,
    ForwardAction,
    LbInstance,
    MemberSession,
    MemberState,
    NoEpoch,
    NullSlot,
    StaleBoundary,
    UdpDataPlane,
    dest_port,
)

S = 1_000_000_000  # ns


def make_instance(*sids):
    inst = LbInstance(instance_id=0)
    for sid in sids:
        inst.members[sid] = MemberSession(
            session_id=sid, dest_ip="10.0.0.%d" % sid, base_port=18000 + 100 * sid, port_count=4
        )
    return inst


def datagram(tick, channel=0, payload=b"x", offset=0, total=None):
    total = len(payload) if total is None else total
    return (
        wire.encode_lb_header(wire.LbMetaHeader(channel=channel, tick=tick))
        + wire.encode_re_header(
            wire.ReassemblyHeader(channel=channel, offset=offset, total_length=total, tick=tick)
        )
        + payload
    )


def full_table(sid):
    return (sid,) * SLOT_COUNT


def blocked_table(counts):
    """Contiguous blocks per (sid, n); fine for uniform-tick draws."""
    table = []
    for sid, n in counts:
        table.extend([sid] * n)
    assert len(table) == SLOT_COUNT
    return tuple(table)


# --- select_epoch -----------------------------------------------------------


def test_select_epoch_boundary_edges():
    inst = make_instance(1)
    e0 = inst.apply_schedule(0, full_table(1))
    e1 = inst.apply_schedule(10_000, full_table(1))
    assert inst.select_epoch(9_999) is e0
    assert inst.select_epoch(10_000) is e1
    assert inst.select_epoch(10_001) is e1


def test_select_epoch_pre_boundary_falls_back_to_oldest():
    inst = make_instance(1)
    e = inst.apply_schedule(5_000, full_table(1))
    assert inst.select_epoch(100) is e


def test_select_epoch_empty_raises():
    inst = make_instance(1)
    with pytest.raises(NoEpoch):
        inst.select_epoch(0)


# --- select_member ----------------------------------------------------------


def test_select_member_modular_slot():
    inst = make_instance(1, 2)
    table = [None] * SLOT_COUNT
    table[1] = 1
    table[0] = 2
    epoch = inst.apply_schedule(0, table)
    assert inst.select_member(epoch, 1025) == 1  # 1025 mod 512 == 1
    assert inst.select_member(epoch, 0) == 2
    assert inst.select_member(epoch, 512) == 2  # same slot as tick 0


def test_select_member_null_slot():
    inst = make_instance(1)
    table = [None] * SLOT_COUNT
    table[0] = 1
    epoch = inst.apply_schedule(0, table)
    with pytest.raises(NullSlot):
        inst.select_member(epoch, 3)


def test_select_member_share_monte_carlo():
    # 256/128/128 slot split must yield 50/25/25 shares on uniform ticks
    inst = make_instance(1, 2, 3)
    inst.apply_schedule(0, blocked_table([(1, 256), (2, 128), (3, 128)]))
    epoch = inst.select_epoch(0)
    rng = random.Random(31337)
    hits = {1: 0, 2: 0, 3: 0}
    n = 100_000
    for _ in range(n):
        tick = rng.randint(0, 2**48)
        hits[inst.select_member(epoch, tick)] += 1
    assert abs(hits[1] / n - 0.50) < 0.02
    assert abs(hits[2] / n - 0.25) < 0.02
    assert abs(hits[3] / n - 0.25) < 0.02


# --- dest_port --------------------------------------------------------------


def test_dest_port_modular():
    m = MemberSession(session_id=1, dest_ip="10.0.0.1", base_port=18000, port_count=4)
    assert dest_port(m, 6) == 18002
    assert [dest_port(m, c) for c in range(4)] == [18000, 18001, 18002, 18003]
    assert dest_port(m, 4) == 18000


def test_dest_port_single_port():
    m = MemberSession(session_id=1, dest_ip="10.0.0.1", base_port=9000, port_count=1)
    assert all(dest_port(m, c) == 9000 for c in range(10))


# --- forward_packet ---------------------------------------------------------


def test_forward_strips_header_and_targets_member():
    inst = make_instance(7)
    inst.apply_schedule(0, full_table(7))
    dg = datagram(tick=42, channel=6, payload=b"hello")
    action = inst.forward_packet(dg)
    assert isinstance(action, ForwardAction)
    assert action.payload == dg[16:]
    assert len(action.payload) == len(dg) - 16
    assert action.dest == ("10.0.0.7", 18700 + 6 % 4)
    assert action.session_id == 7
    assert action.tick == 42


def test_forward_drop_reasons():
    inst = make_instance(1)
    # no epoch yet
    d = inst.forward_packet(datagram(5))
    assert d == Drop(reason=DropReason.NO_EPOCH, tick=5)

    table = [None] * SLOT_COUNT
    table[0] = 1
    inst.apply_schedule(0, table)

    assert inst.forward_packet(datagram(512)).session_id == 1
    d = inst.forward_packet(datagram(513))
    assert isinstance(d, Drop) and d.reason is DropReason.NULL_SLOT

    # sync traffic belongs on the control port, not the data path
    sync = wire.encode_sync(wire.SyncMessage(1, 10, 100, 0))
    d = inst.forward_packet(sync)
    assert d.reason is DropReason.BAD_MAGIC

    d = inst.forward_packet(datagram(0)[:10])
    assert d.reason is DropReason.TRUNCATED

    bad = bytearray(datagram(0))
    bad[2] = 9
    assert inst.forward_packet(bytes(bad)).reason is DropReason.BAD_VERSION


def test_forward_unknown_member_drop():
    inst = make_instance(1)
    inst.apply_schedule(0, full_table(1))
    inst.members.pop(1)  # simulate a vanished session behind a live table
    d = inst.forward_packet(datagram(9))
    assert d.reason is DropReason.UNKNOWN_MEMBER


def test_forward_counter_conservation():
    inst = make_instance(1, 2)
    inst.apply_schedule(0, blocked_table([(1, 256), (2, 128), (None, 128)]))
    rng = random.Random(99)
    for _ in range(10_000):
        kind = rng.randrange(4)
        if kind == 0:
            inst.forward_packet(rng.randbytes(rng.randint(0, 40)))
        else:
            inst.forward_packet(datagram(rng.randint(0, 10_000)))
    c = inst.counters()
    assert c["received"] == 10_000
    assert c["forwarded"] + c["dropped"] == c["received"]
    assert sum(c["forwarded_by_member"].values()) == c["forwarded"]


def test_forward_share_matches_slot_allocation():
    inst = make_instance(1, 2, 3)
    inst.apply_schedule(0, blocked_table([(1, 256), (2, 128), (3, 128)]))
    n = 20_000
    for tick in range(n):  # sequential ticks sweep the table uniformly
        inst.forward_packet(datagram(tick))
    by = inst.counters()["forwarded_by_member"]
    assert abs(by[1] / n - 0.50) < 0.01
    assert abs(by[2] / n - 0.25) < 0.01
    assert abs(by[3] / n - 0.25) < 0.01


def test_forward_tracks_max_tick():
    inst = make_instance(1)
    inst.apply_schedule(0, full_table(1))
    for tick in (5, 900, 3, 900, 17):
        inst.forward_packet(datagram(tick))
    assert inst.max_forwarded_tick == 900


def test_event_coherence_any_fragment_order():
    # every fragment of one tick maps to one member, whatever the order
    inst = make_instance(1, 2, 3)
    rng = random.Random(4242)
    table = blocked_table([(1, 200), (2, 200), (3, 112)])
    inst.apply_schedule(0, table)
    for _ in range(300):
        tick = rng.randint(0, 2**40)
        frags = [datagram(tick, channel=c, offset=o) for c in range(3) for o in (0, 1400)]
        rng.shuffle(frags)
        owners = {inst.forward_packet(f).session_id for f in frags}
        assert len(owners) == 1


# --- apply_schedule ---------------------------------------------------------


def test_apply_schedule_first_epoch():
    inst = make_instance(1)
    inst.apply_schedule(0, full_table(1))
    assert len(inst.epochs) == 1
    assert inst.epochs[0].boundary_tick == 0


def test_apply_schedule_retains_four():
    inst = make_instance(1)
    ids = [inst.apply_schedule(b, full_table(1)).epoch_id for b in (0, 10, 20, 30, 40)]
    assert len(inst.epochs) == 4
    assert [e.epoch_id for e in inst.epochs] == ids[1:]
    assert inst.epochs[0].boundary_tick == 10


def test_apply_schedule_stale_boundary():
    inst = make_instance(1)
    inst.apply_schedule(100, full_table(1))
    with pytest.raises(StaleBoundary):
        inst.apply_schedule(100, full_table(1))
    with pytest.raises(StaleBoundary):
        inst.apply_schedule(99, full_table(1))


def test_apply_schedule_validates_table():
    inst = make_instance(1)
    with pytest.raises(ValueError):
        inst.apply_schedule(0, (1,) * 100)  # wrong length
    with pytest.raises(ValueError):
        inst.apply_schedule(0, full_table(9))  # unknown session
    inst.members[1].state = MemberState.DRAINING
    with pytest.raises(ValueError):
        inst.apply_schedule(0, full_table(1))  # draining member


def test_apply_schedule_epoch_ids_increase():
    inst = make_instance(1)
    e1 = inst.apply_schedule(0, full_table(1))
    e2 = inst.apply_schedule(10, full_table(1))
    assert e2.epoch_id > e1.epoch_id


def test_prune_retires_unreferenced_draining_member():
    inst = make_instance(1, 2)
    inst.apply_schedule(0, full_table(1))
    inst.members[1].state = MemberState.DRAINING
    inst.members[1].draining_since = 0
    # four more epochs push the only table referencing 1 out of retention
    for b in (10, 20, 30, 40):
        inst.apply_schedule(b, full_table(2))
    assert 1 not in inst.members


# --- retire_expired ---------------------------------------------------------


def drain(inst, sid, since_ns):
    inst.members[sid].state = MemberState.DRAINING
    inst.members[sid].draining_since = since_ns


def test_retire_after_delay_without_references():
    inst = make_instance(1, 2)
    inst.apply_schedule(0, full_table(2))  # member 1 never referenced
    drain(inst, 1, since_ns=0)
    assert inst.retire_expired(now_ns=int(6 * S)) == [1]
    assert 1 not in inst.members
    assert inst.members[2].state is MemberState.ACTIVE


def test_retire_not_before_delay():
    inst = make_instance(1, 2)
    inst.apply_schedule(0, full_table(2))
    drain(inst, 1, since_ns=0)
    assert inst.retire_expired(now_ns=int(1 * S)) == []
    assert 1 in inst.members
    assert DRAIN_DELAY_S == 5.0


def test_referenced_epochs_win_over_age():
    inst = make_instance(1)
    inst.apply_schedule(0, full_table(1))
    drain(inst, 1, since_ns=0)
    assert inst.retire_expired(now_ns=int(10 * S)) == []
    assert inst.members[1].state is MemberState.DRAINING


# --- concurrent publish -----------------------------------------------------


def test_schedule_swap_is_atomic_under_concurrent_forwarding():
    inst = make_instance(1, 2)
    inst.apply_schedule(0, full_table(1))
    stop = threading.Event()
    errors = []

    def reader():
        rng = random.Random(threading.get_ident())
        while not stop.is_set():
            out = inst.forward_packet(datagram(rng.randint(0, 100_000)))
            if isinstance(out, Drop) and out.reason is not DropReason.NULL_SLOT:
                errors.append(out)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    boundary = 1_000
    for i in range(200):
        sid = 1 if i % 2 == 0 else 2
        inst.apply_schedule(boundary, full_table(sid))
        boundary += 1_000
    stop.set()
    for t in threads:
        t.join()
    assert errors == []
    c = inst.counters()
    assert c["forwarded"] + c["dropped"] == c["received"]


# --- forward_packet against a reference model ---------------------------------

_WIRE_DROPS = {
    wire.BadMagic: DropReason.BAD_MAGIC,
    wire.BadVersion: DropReason.BAD_VERSION,
    wire.Truncated: DropReason.TRUNCATED,
}


def reference_forward(inst, dg, model):
    """Route with the public decoder and selectors; update model counters."""
    model["received"] += 1
    try:
        header = wire.decode_lb_header(dg)
    except wire.WireError as exc:
        outcome = (_WIRE_DROPS[type(exc)], None)
    else:
        tick = header.tick
        try:
            sid = inst.select_member(inst.select_epoch(tick), tick)
        except NoEpoch:
            outcome = (DropReason.NO_EPOCH, tick)
        except NullSlot:
            outcome = (DropReason.NULL_SLOT, tick)
        else:
            member = inst.members.get(sid)
            if member is None or member.state is MemberState.RETIRED:
                outcome = (DropReason.UNKNOWN_MEMBER, tick)
            else:
                model["forwarded"] += 1
                by = model["forwarded_by_member"]
                by[sid] = by.get(sid, 0) + 1
                if model["max_forwarded_tick"] is None or tick > model["max_forwarded_tick"]:
                    model["max_forwarded_tick"] = tick
                return ("forward", (member.dest_ip, dest_port(member, header.channel)), dg[16:], sid, tick)
    reason, tick = outcome
    drops = model["dropped_by_reason"]
    drops[reason.value] = drops.get(reason.value, 0) + 1
    model["dropped"] += 1
    return ("drop", reason, tick)


def observed(action):
    if isinstance(action, ForwardAction):
        return ("forward", action.dest, action.payload, action.session_id, action.tick)
    assert isinstance(action, Drop)
    return ("drop", action.reason, action.tick)


def test_forward_matches_reference_model():
    for seed in range(8):
        rng = random.Random(seed)
        inst = LbInstance(instance_id=0)
        model = {
            "received": 0, "forwarded": 0, "forwarded_by_member": {},
            "dropped_by_reason": {}, "dropped": 0, "max_forwarded_tick": None,
        }
        next_sid = 1
        boundary = rng.randint(0, 5_000)

        def register():
            nonlocal next_sid
            inst.members[next_sid] = MemberSession(
                session_id=next_sid, dest_ip=f"10.0.{seed}.{next_sid}",
                base_port=20_000 + 16 * next_sid, port_count=rng.choice([1, 2, 4, 8]),
            )
            next_sid += 1

        for _ in range(3):
            register()
        for step in range(300):
            roll = rng.random()
            active = [s for s, m in inst.members.items() if m.state is MemberState.ACTIVE]
            if roll < 0.15 and active:
                choices = active + [None]
                table = tuple(rng.choice(choices) for _ in range(SLOT_COUNT))
                inst.apply_schedule(boundary, table)
                boundary += rng.randint(1, 3_000)
            elif roll < 0.20 and len(active) > 1:
                drain(inst, rng.choice(active), since_ns=step * S)
            elif roll < 0.25:
                inst.retire_expired(now_ns=step * S)
            elif roll < 0.28:
                register()
            elif roll < 0.30 and inst.members:
                inst.members.pop(rng.choice(list(inst.members)))  # vanished behind a live table
            elif roll < 0.32 and inst.members:
                # free_instance marks members retired before it clears them
                inst.members[rng.choice(list(inst.members))].state = MemberState.RETIRED
            edges = [e.boundary_tick + d for e in inst.epochs for d in (-2, -1, 0, 1)] or [0]
            for _ in range(40):
                kind = rng.random()
                tick = rng.choice(edges) if kind < 0.4 else rng.randint(0, boundary + 2_000)
                tick = max(tick, 0)
                dg = datagram(tick, channel=rng.randint(0, 0xFFFF), payload=rng.randbytes(rng.randint(0, 30)))
                if kind > 0.9:
                    dg = rng.choice([
                        rng.randbytes(rng.randint(0, 40)),
                        dg[: rng.randint(0, 15)],
                        b"LB\x02" + dg[3:],
                        b"XB" + dg[2:],
                    ])
                want = reference_forward(inst, dg, model)
                assert observed(inst.forward_packet(dg)) == want
        c = inst.counters()
        assert c == model
        assert c["forwarded"] > 1_000 and len(c["dropped_by_reason"]) >= 5


# --- socket front end -----------------------------------------------------------


def test_udp_dataplane_forwards_and_stops_promptly_without_traffic():
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sink.bind(("127.0.0.1", 0))
    sink.settimeout(2.0)
    inst = LbInstance(instance_id=0, listen=("127.0.0.1", 0))
    inst.members[1] = MemberSession(
        session_id=1, dest_ip="127.0.0.1", base_port=sink.getsockname()[1], port_count=1
    )
    inst.apply_schedule(0, full_table(1))
    dp = UdpDataPlane(inst)
    dp.start()
    try:
        out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        dg = datagram(7, payload=b"through")
        out.sendto(dg, dp.address)
        out.close()
        assert sink.recv(100) == dg[16:]
        time.sleep(0.3)  # the loop is parked in recv again
    finally:
        t0 = time.monotonic()
        dp.stop()
        elapsed = time.monotonic() - t0
        sink.close()
    assert elapsed < 1.0
    assert not dp._thread.is_alive()
