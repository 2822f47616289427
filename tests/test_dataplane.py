"""Data plane: epoch selection, slot routing, drops, schedule lifecycle."""

import random
import socket
import struct
import threading
import time

import pytest
from conftest import forward_one

from streamlb import netutil, wire
from streamlb.dataplane import (
    DRAIN_DELAY_S,
    SLOT_COUNT,
    DropReason,
    LbInstance,
    MemberSession,
    MemberState,
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


# --- epoch and member selection, through forward_packet -------------------------


def routed(inst, tick):
    """The session a datagram for this tick goes to, or why it was dropped."""
    return forward_one(inst, datagram(tick))[1]


def test_select_epoch_boundary_edges():
    inst = make_instance(1, 2)
    inst.apply_schedule(0, full_table(1))
    inst.apply_schedule(10_000, full_table(2))
    assert routed(inst, 9_999) == 1
    assert routed(inst, 10_000) == 2
    assert routed(inst, 10_001) == 2


def test_select_epoch_pre_boundary_falls_back_to_oldest():
    inst = make_instance(1, 2)
    inst.apply_schedule(5_000, full_table(1))
    inst.apply_schedule(8_000, full_table(2))
    assert routed(inst, 100) == 1


def test_select_epoch_empty_drops():
    inst = make_instance(1)
    assert inst.forward_packet(datagram(7)) == []
    assert inst.dropped_by_reason == {DropReason.NO_EPOCH: 1}


def test_select_member_modular_slot():
    inst = make_instance(1, 2)
    table = [None] * SLOT_COUNT
    table[1] = 1
    table[0] = 2
    inst.apply_schedule(0, table)
    assert routed(inst, 1025) == 1  # 1025 mod 512 == 1
    assert routed(inst, 0) == 2
    assert routed(inst, 512) == 2  # same slot as tick 0


def test_select_member_null_slot():
    inst = make_instance(1)
    table = [None] * SLOT_COUNT
    table[0] = 1
    inst.apply_schedule(0, table)
    assert routed(inst, 3) is DropReason.NULL_SLOT


def test_select_member_share_monte_carlo():
    # 256/128/128 slot split must yield 50/25/25 shares on uniform ticks
    inst = make_instance(1, 2, 3)
    inst.apply_schedule(0, blocked_table([(1, 256), (2, 128), (3, 128)]))
    rng = random.Random(31337)
    hits = {1: 0, 2: 0, 3: 0}
    n = 100_000
    for _ in range(n):
        hits[routed(inst, rng.randint(0, 2**48))] += 1
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
    dest, sid, payload = forward_one(inst, dg)
    assert payload == dg[16:]
    assert len(payload) == len(dg) - 16
    assert dest == ("10.0.0.7", 18700 + 6 % 4)
    assert sid == 7
    assert inst.max_forwarded_tick == 42


def test_forward_drop_reasons():
    inst = make_instance(1)
    # no epoch yet
    assert routed(inst, 5) is DropReason.NO_EPOCH

    table = [None] * SLOT_COUNT
    table[0] = 1
    inst.apply_schedule(0, table)

    assert routed(inst, 512) == 1
    assert routed(inst, 513) is DropReason.NULL_SLOT

    # sync traffic belongs on the control port, not the data path
    sync = wire.encode_sync(wire.SyncMessage(1, 10, 100, 0))
    assert forward_one(inst, sync) == (None, DropReason.BAD_MAGIC, None)

    assert forward_one(inst, datagram(0)[:10])[1] is DropReason.TRUNCATED

    bad = bytearray(datagram(0))
    bad[2] = 9
    assert forward_one(inst, bytes(bad))[1] is DropReason.BAD_VERSION


def test_forward_unknown_member_drop():
    inst = make_instance(1)
    inst.apply_schedule(0, full_table(1))
    inst.members.pop(1)  # simulate a vanished session behind a live table
    assert routed(inst, 9) is DropReason.UNKNOWN_MEMBER


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
        owners = {forward_one(inst, f)[1] for f in frags}
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


def test_apply_schedule_supersedes_an_epoch_no_tick_has_reached():
    inst = make_instance(1)
    inst.apply_schedule(0, full_table(1))
    inst.forward_packet(datagram(5))
    for b in (10, 11, 12):
        inst.apply_schedule(b, full_table(1))
    assert [e.boundary_tick for e in inst.epochs] == [0, 12]
    inst.forward_packet(datagram(12))  # traffic reaches the newest epoch
    inst.apply_schedule(13, full_table(1))
    assert [e.boundary_tick for e in inst.epochs] == [0, 12, 13]


def test_epochs_ahead_of_the_traffic_never_split_a_tick():
    # Without the superseding rule, the three publishes stack four epochs
    # above tick 5, the fourth prunes the epoch tick 5 routes through, and
    # its third fragment falls back to the oldest survivor: session 2.
    inst = make_instance(1, 2)
    inst.apply_schedule(0, full_table(1))
    fragments = [datagram(5, offset=i, payload=b"f", total=3) for i in range(3)]
    sessions = [forward_one(inst, fragments[0])[1]]
    for b, sid in ((10, 2), (11, 1), (12, 2)):
        inst.apply_schedule(b, full_table(sid))
    sessions.append(forward_one(inst, fragments[1])[1])
    inst.apply_schedule(13, full_table(1))
    sessions.append(forward_one(inst, fragments[2])[1])
    assert sessions == [1, 1, 1]


def test_the_only_epoch_is_kept_when_traffic_routes_below_its_boundary():
    # Ticks below every boundary route through the oldest epoch, so a lone
    # epoch above the traffic still carries it and must not be superseded.
    inst = make_instance(1, 2)
    inst.apply_schedule(1_000, full_table(1))
    fragments = [datagram(500, offset=i, payload=b"f", total=2) for i in range(2)]
    sessions = [forward_one(inst, fragments[0])[1]]
    inst.apply_schedule(1_001, full_table(2))
    sessions.append(forward_one(inst, fragments[1])[1])
    assert sessions == [1, 1]
    assert [e.boundary_tick for e in inst.epochs] == [1_000, 1_001]


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

    def reader():
        rng = random.Random(threading.get_ident())
        while not stop.is_set():
            inst.forward_packet(datagram(rng.randint(0, 100_000)))

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
    # every drop counts under its own reason; a torn swap would show another
    assert set(inst.dropped_by_reason) <= {DropReason.NULL_SLOT}
    c = inst.counters()
    assert c["forwarded"] + c["dropped"] == c["received"]


# --- forward_packet against a reference model ---------------------------------

_WIRE_DROPS = {
    wire.BadMagic: DropReason.BAD_MAGIC,
    wire.BadVersion: DropReason.BAD_VERSION,
    wire.Truncated: DropReason.TRUNCATED,
}


def reference_forward(inst, dg, model):
    """Route with the public decoder and a scan of every epoch; update model counters."""
    model["received"] += 1
    try:
        header = wire.decode_lb_header(dg)
    except wire.WireError as exc:
        reason = _WIRE_DROPS[type(exc)]
    else:
        tick = header.tick
        epochs = inst.epochs
        if not epochs:
            reason = DropReason.NO_EPOCH
        else:
            # greatest boundary <= tick; pre-boundary ticks use the oldest
            current = [ep for ep in epochs if ep.boundary_tick <= tick]
            epoch = max(current, key=lambda ep: ep.boundary_tick) if current else epochs[0]
            sid = epoch.table[tick % inst.slot_count]
            member = inst.members.get(sid)
            if sid is None:
                reason = DropReason.NULL_SLOT
            elif member is None or member.state is MemberState.RETIRED:
                reason = DropReason.UNKNOWN_MEMBER
            else:
                model["forwarded"] += 1
                by = model["forwarded_by_member"]
                by[sid] = by.get(sid, 0) + 1
                if model["max_forwarded_tick"] is None or tick > model["max_forwarded_tick"]:
                    model["max_forwarded_tick"] = tick
                return (member.dest_ip, dest_port(member, header.channel)), sid, dg[16:]
    drops = model["dropped_by_reason"]
    drops[reason.value] = drops.get(reason.value, 0) + 1
    model["dropped"] += 1
    return None, reason, None


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
                assert forward_one(inst, dg) == want
                assert inst.max_forwarded_tick == model["max_forwarded_tick"]
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


# --- coalesced reads ----------------------------------------------------------------


def lb_segment(tick, channel, size, rng):
    """A datagram of exactly ``size`` octets: forwarding header, random rest."""
    head = wire.encode_lb_header(wire.LbMetaHeader(channel=channel, tick=tick))
    return head + rng.randbytes(size - len(head))


def test_coalesced_read_matches_each_segment_read_alone():
    reads = 0
    for seed in range(6):
        rng = random.Random(seed)
        coalesced, single = LbInstance(instance_id=0), LbInstance(instance_id=0)
        pair = (coalesced, single)
        next_sid, boundary = 1, rng.randint(0, 1_000)

        def register():
            nonlocal next_sid
            port_count = rng.choice([1, 2, 4])
            for inst in pair:
                inst.members[next_sid] = MemberSession(
                    session_id=next_sid, dest_ip=f"10.1.{seed}.{next_sid}",
                    base_port=30_000 + 16 * next_sid, port_count=port_count,
                )
            next_sid += 1

        for _ in range(3):
            register()
        for _ in range(150):
            roll = rng.random()
            active = [s for s, m in single.members.items() if m.state is MemberState.ACTIVE]
            if roll < 0.3:
                table = tuple(rng.choice(active + [None]) for _ in range(SLOT_COUNT))
                for inst in pair:
                    inst.apply_schedule(boundary, table)
                boundary += rng.randint(1, 6)
            elif roll < 0.35 and len(active) > 1:
                sid = rng.choice(active)
                for inst in pair:  # retired behind a live table
                    inst.members[sid].state = MemberState.RETIRED
            elif roll < 0.4:
                register()

            # One read: full segments, then a shorter last one or a tail
            # too short for a forwarding header.  Like a channel's
            # fragments, a segment often repeats the header before it.
            size = rng.randint(16, 80)
            segments = []
            edges = [e.boundary_tick + d for e in single.epochs for d in (-1, 0, 1)] or [0]
            for _ in range(rng.randint(1, 24)):
                if not segments or rng.random() < 0.4:
                    tick = max(0, rng.choice(edges) if rng.random() < 0.5 else rng.randint(0, boundary + 20))
                    channel, kind = rng.randint(0, 7), rng.random()
                seg = lb_segment(tick, channel, size, rng)
                if kind < 0.05:
                    seg = b"XB" + seg[2:]
                elif kind < 0.1:
                    seg = seg[:2] + b"\x02" + seg[3:]
                segments.append(seg)
            last = rng.random()
            if last < 0.4:
                segments.append(lb_segment(rng.randint(0, boundary + 20), 0, rng.randint(16, size), rng))
            elif last < 0.6:
                segments.append(rng.randbytes(rng.randint(1, 15)))

            want = []
            for seg in segments:
                for dest, sid, payloads in single.forward_packet(seg):
                    want.extend((dest, sid, p) for p in payloads)
            runs = coalesced.forward_packet(b"".join(segments), size)
            reads += 1
            assert [(dest, sid, bytes(p)) for dest, sid, payloads in runs for p in payloads] == want
            assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))  # every run is maximal
            assert coalesced.counters() == single.counters()
            assert single.reads_total == single.counters()["received"]  # a read per segment
        c = coalesced.counters()
        assert c["forwarded"] > 500 and len(c["dropped_by_reason"]) >= 5
        assert coalesced.reads_total == 150
    assert reads == 6 * 150


def test_forward_packet_lone_datagrams():
    inst = make_instance(1)
    inst.apply_schedule(0, full_table(1))
    dg = datagram(3, payload=b"lone")
    for size in (0, len(dg), len(dg) + 5):  # no cmsg, or a size past the read
        assert inst.forward_packet(dg, size) == [(("10.0.0.1", 18100), 1, [dg[16:]])]
    assert inst.forward_packet(b"") == []
    c = inst.counters()
    assert (inst.reads_total, c["received"], c["forwarded"]) == (4, 4, 3)
    assert c["dropped_by_reason"] == {"truncated": 1}


def loopback_plane(*sinks):
    """A running data plane over loopback whose members are the given sockets."""
    inst = LbInstance(instance_id=0, listen=("127.0.0.1", 0))
    for sid, sink in enumerate(sinks, start=1):
        inst.members[sid] = MemberSession(
            session_id=sid, dest_ip="127.0.0.1", base_port=sink.getsockname()[1], port_count=1
        )
    dp = UdpDataPlane(inst)
    dp.start()
    return inst, dp


def test_udp_dataplane_routes_a_gso_write_segment_by_segment():
    sinks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(2)]
    for sink in sinks:
        sink.bind(("127.0.0.1", 0))
        sink.settimeout(2.0)
    inst, dp = loopback_plane(*sinks)
    inst.apply_schedule(0, blocked_table([(1, 256), (2, 256)]))  # ticks 0-255 to 1, 256-511 to 2
    ticks = [7, 7, 7, 300, 300, 8]
    segments = [datagram(t, payload=bytes([i]) * 84) for i, t in enumerate(ticks)]
    segments[-1] = segments[-1][:-40]  # a shorter last segment
    out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        out.sendmsg(segments, [(netutil.SOL_UDP, netutil.UDP_SEGMENT, struct.pack("=H", 120))], 0, dp.address)
        got = [[sinks[0].recv(200) for _ in range(4)], [sinks[1].recv(200) for _ in range(2)]]
    finally:
        out.close()
        dp.stop()
        for sink in sinks:
            sink.close()
    assert got == [[segments[i][16:] for i in (0, 1, 2, 5)], [segments[i][16:] for i in (3, 4)]]
    assert (inst.reads_total, inst.counters()["received"]) == (1, 6)
