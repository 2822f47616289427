"""Receiver: reassembly exactness, aggregation, queue policy, PID."""

import errno
import itertools
import os
import random
import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from streamlb import netutil, wire
from streamlb.receiver import (
    DELIVERED,
    QUEUE_CAPACITY_DEFAULT,
    REASSEMBLY_TIMEOUT_S,
    TICK_WINDOW,
    PidController,
    ReassemblyBuffer,
    Receiver,
    UdpReceiver,
    _BoundedQueue,
)
from streamlb.sender import Event, fragment_event

S = 1_000_000_000


def forwarded(event, mtu=1400):
    """What the balancer hands a member: LB header stripped."""
    return [dg[wire.LB_HEADER_SIZE :] for dg in fragment_event(event, mtu)]


def make_receiver(channels=(0,), capacity=QUEUE_CAPACITY_DEFAULT, **kw):
    return Receiver(expected_channels=channels, queue_capacity=capacity, **kw)


def push_event(rx, event, now=0, mtu=1400):
    for frag in forwarded(event, mtu):
        rx.ingest_packet(frag, now)


# --- PID --------------------------------------------------------------------


def test_pid_proportional_only_example():
    pid = PidController(kp=0.5, ki=0.0, kd=0.0)
    assert pid.step(0.8) == pytest.approx(-0.15)


def test_pid_zero_at_setpoint():
    pid = PidController()
    assert pid.step(0.5) == 0.0


def test_pid_output_clamped():
    pid = PidController(kp=10.0, ki=0.0, kd=0.0)
    assert pid.step(0.0) == 1.0
    assert pid.step(1.0) == -1.0


def test_pid_integral_clamped():
    pid = PidController(kp=0.0, ki=1.0, kd=0.0, integral_limit=2.0)
    for _ in range(50):
        out = pid.step(0.0)  # error +0.5 every step
    assert pid.integral == 2.0
    assert out == 1.0
    for _ in range(50):
        pid.step(1.0)
    assert pid.integral == -2.0


def test_pid_derivative_acts_on_change():
    pid = PidController(kp=0.0, ki=0.0, kd=1.0)
    assert pid.step(0.4) == pytest.approx(0.1)  # error jumps 0 -> 0.1
    assert pid.step(0.4) == 0.0  # steady error, no derivative


def test_pid_reset():
    pid = PidController()
    pid.step(0.9)
    pid.reset()
    assert pid.integral == 0.0 and pid.prev_error == 0.0


# --- reassembly -------------------------------------------------------------


def test_completes_on_last_fragment_in_order():
    rx = make_receiver()
    payload = random.Random(1).randbytes(4500)
    frags = forwarded(Event(tick=9, channels={0: payload}))
    assert len(frags) == 4
    for frag in frags[:-1]:
        assert rx.ingest_packet(frag, 0) is None
    tick, channel, got = rx.ingest_packet(frags[-1], 0)
    assert (tick, channel) == (9, 0)
    assert got == payload
    assert rx.counters["applied"] == 4
    assert rx.counters["events"] == 1


def test_all_24_fragment_orders_identical():
    payload = random.Random(2).randbytes(4500)
    frags = forwarded(Event(tick=5, channels={0: payload}))
    assert len(frags) == 4
    for perm in itertools.permutations(range(4)):
        rx = make_receiver()
        for idx in perm:
            rx.ingest_packet(frags[idx], 0)
        ev = rx.pop_event()
        assert ev is not None and ev.channels[0] == payload, f"order {perm}"
        assert rx.counters["applied"] == 4


def test_zero_length_event_completes():
    rx = make_receiver()
    push_event(rx, Event(tick=3, channels={0: b""}))
    ev = rx.pop_event()
    assert ev == Event(tick=3, channels={0: b""})


def test_stale_window_drop():
    rx = make_receiver()
    push_event(rx, Event(tick=1000, channels={0: b"new"}))
    assert rx.newest_completed == 1000
    old = forwarded(Event(tick=100, channels={0: b"old"}))[0]
    assert rx.ingest_packet(old, 0) is None
    assert rx.counters["stale"] == 1
    # boundary: window is inclusive at newest - TICK_WINDOW
    edge = forwarded(Event(tick=1000 - TICK_WINDOW, channels={0: b"edge"}))[0]
    rx.ingest_packet(edge, 0)
    below = forwarded(Event(tick=1000 - TICK_WINDOW - 1, channels={0: b"below"}))[0]
    rx.ingest_packet(below, 0)
    assert rx.counters["stale"] == 2


def test_duplicate_fragment_counted_once():
    rx = make_receiver()
    payload = bytes(2800)
    frags = forwarded(Event(tick=1, channels={0: payload}))
    rx.ingest_packet(frags[0], 0)
    rx.ingest_packet(frags[0], 0)
    rx.ingest_packet(frags[1], 0)
    assert rx.counters["duplicate"] == 1
    assert rx.counters["events"] == 1


def test_duplicate_whole_event_not_redelivered():
    rx = make_receiver()
    ev = Event(tick=4, channels={0: b"payload"})
    push_event(rx, ev)
    push_event(rx, ev)
    assert rx.counters["events"] == 1
    assert rx.counters["duplicate"] == 1
    assert rx.pop_event() == ev
    assert rx.pop_event() is None


def test_overlap_mismatch_poisons_buffer():
    rx = make_receiver()
    a = Event(tick=2, channels={0: b"A" * 2000})
    b = Event(tick=2, channels={0: b"B" * 2000})
    fa, fb = forwarded(a), forwarded(b)
    rx.ingest_packet(fa[0], 0)
    assert rx.ingest_packet(fb[0], 0) is None  # same interval, different bytes
    assert rx.counters["overlap_mismatch"] == 1
    assert rx.counters["malformed"] == 1
    rx.ingest_packet(fa[1], 0)  # completes the byte range, but poisoned
    assert rx.counters["events"] == 0
    rx.expire(now_ns=int(3 * S))
    assert rx.counters["timeouts"] == 1
    assert not rx.ticks


def test_malformed_fragments_counted():
    rx = make_receiver()
    rx.ingest_packet(b"short", 0)
    bad_bounds = wire.encode_re_header(
        wire.ReassemblyHeader(channel=0, offset=1000, total_length=100, tick=1)
    ) + b"x" * 50
    rx.ingest_packet(bad_bounds, 0)
    foreign_channel = forwarded(Event(tick=1, channels={7: b"x"}))[0]
    rx.ingest_packet(foreign_channel, 0)
    assert rx.counters["malformed"] == 3
    assert rx.counters["applied"] == 0


def test_conflicting_total_length_is_malformed():
    rx = make_receiver()
    h1 = wire.encode_re_header(wire.ReassemblyHeader(channel=0, offset=0, total_length=10, tick=1))
    h2 = wire.encode_re_header(wire.ReassemblyHeader(channel=0, offset=5, total_length=11, tick=1))
    rx.ingest_packet(h1 + b"a" * 5, 0)
    rx.ingest_packet(h2 + b"b" * 5, 0)
    assert rx.counters["malformed"] == 1


def test_counter_conservation_under_fuzz():
    rx = make_receiver(channels=(0, 1))
    rng = random.Random(11)
    events = [
        Event(tick=t, channels={0: rng.randbytes(rng.randint(0, 3000)), 1: rng.randbytes(100)})
        for t in range(1, 40)
    ]
    stream = []
    for ev in events:
        stream.extend(forwarded(ev))
    stream.extend(stream[:30])  # duplicates
    stream.extend(rng.randbytes(rng.randint(0, 60)) for _ in range(40))  # garbage
    rng.shuffle(stream)
    for frag in stream:
        rx.ingest_packet(frag, 0)
    c = rx.counters
    assert c["ingested"] == len(stream)
    assert c["applied"] + c["duplicate"] + c["stale"] + c["malformed"] == c["ingested"]


# --- aggregation and queue ---------------------------------------------------


def test_two_channels_aggregate_to_one_event():
    rx = make_receiver(channels=(0, 1))
    ev = Event(tick=6, channels={0: b"a" * 100, 1: b"b" * 200})
    push_event(rx, ev)
    assert rx.counters["events"] == 1
    assert rx.pop_event() == ev


def test_partial_event_times_out():
    rx = make_receiver(channels=(0, 1))
    partial = forwarded(Event(tick=8, channels={0: b"only this channel"}))
    for frag in partial:
        rx.ingest_packet(frag, now_ns=0)
    assert rx.expire(now_ns=int(REASSEMBLY_TIMEOUT_S * S)) == [8]
    assert rx.counters["timeouts"] == 1
    assert rx.counters["events"] == 0
    assert not rx.ticks


def test_expire_spares_fresh_ticks():
    rx = make_receiver(channels=(0, 1))
    for frag in forwarded(Event(tick=8, channels={0: b"x"})):
        rx.ingest_packet(frag, now_ns=int(1.5 * S))
    assert rx.expire(now_ns=int(2.0 * S)) == []
    assert rx.counters["timeouts"] == 0


def record_drops(rx):
    dropped = []
    rx.on_dropped = lambda tick, fate: dropped.append((tick, fate))
    return dropped


def test_queue_eviction_oldest_first():
    rx = make_receiver(capacity=4)
    dropped = record_drops(rx)
    for t in range(1, 7):
        push_event(rx, Event(tick=t, channels={0: b"p"}))
    assert rx.counters["events"] == 6
    assert rx.counters["evicted"] == 2
    assert dropped == [(1, "evicted"), (2, "evicted")]
    assert len(rx.queue) == 4
    assert rx.pop_event().tick == 3  # oldest survivor


def test_on_dropped_names_a_timeout():
    rx = make_receiver(channels=(0, 1))
    dropped = record_drops(rx)
    push_event(rx, Event(tick=8, channels={0: b"channel 1 never comes"}))
    rx.expire(now_ns=int(REASSEMBLY_TIMEOUT_S * S))
    assert dropped == [(8, "timeout")]


def test_on_dropped_names_a_stale_datagram():
    rx = make_receiver()
    dropped = record_drops(rx)
    push_event(rx, Event(tick=1000, channels={0: b"new"}))
    push_event(rx, Event(tick=1000 - TICK_WINDOW - 1, channels={0: b"old"}))
    assert dropped == [(1000 - TICK_WINDOW - 1, "stale")]
    assert rx.counters["stale"] == 1


def test_on_dropped_names_partial_ticks_the_window_passes():
    rx = make_receiver(channels=(0, 1))
    dropped = record_drops(rx)
    push_event(rx, Event(tick=5, channels={0: b"a"}))  # channel 1 never comes
    push_event(rx, Event(tick=6, channels={0: b"b", 1: b"c"}))  # delivered
    rx.ingest_packet(forwarded(Event(tick=4, channels={1: bytes(3000)}))[0], 0)  # 1 fragment of 3
    push_event(rx, Event(tick=200, channels={0: b"d", 1: b"e"}))
    assert dropped == [(4, "stale"), (5, "stale")]
    assert rx.counters["stale_buffers"] == 2
    assert rx.ticks == {200: DELIVERED}


def test_pop_fifo_order_and_fill():
    rx = make_receiver(capacity=8)
    for t in (5, 9, 2_000):
        push_event(rx, Event(tick=t, channels={0: b"x"}))
    assert rx.queue_fill == pytest.approx(3 / 8)
    assert [rx.pop_event().tick for _ in range(3)] == [5, 9, 2_000]
    assert rx.pop_event() is None
    assert rx.queue_fill == 0.0
    assert rx.counters["popped"] == 3


def test_queue_overflow_returns_the_oldest():
    q = _BoundedQueue(2)
    a, b, c = (Event(tick=t, channels={0: b"x"}) for t in (1, 2, 3))
    assert q.push(a) is None
    assert q.push(b) is None
    assert q.push(c) is a
    assert len(q) == 2
    assert [q.pop(), q.pop(), q.pop()] == [b, c, None]
    assert len(q) == 0


def test_queue_blocking_pop_times_out_with_none():
    q = _BoundedQueue(4)
    t0 = time.monotonic()
    assert q.pop(block=True, timeout=0.05) is None
    assert time.monotonic() - t0 >= 0.04
    ev = Event(tick=7, channels={0: b"x"})
    threading.Timer(0.02, q.push, args=(ev,)).start()
    assert q.pop(block=True, timeout=5.0) is ev


def test_queue_threaded_stress_loses_and_repeats_nothing():
    # One producer races three consumers (more threads than cores) on a
    # small queue with rapid thread switches: every pushed event leaves
    # exactly once, popped or evicted.
    n, q = 20_000, _BoundedQueue(16)
    evicted, popped = [], [[] for _ in range(3)]
    done = threading.Event()
    deadline = time.monotonic() + 20.0

    def produce():
        for tick in range(n):
            old = q.push(Event(tick=tick, channels={}))
            if old is not None:
                evicted.append(old.tick)
            if time.monotonic() > deadline:
                break
        done.set()

    def consume(out):
        while time.monotonic() < deadline:
            ev = q.pop(block=True, timeout=0.01)
            if ev is not None:
                out.append(ev.tick)
            elif done.is_set() and len(q) == 0:
                return

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=produce, daemon=True)]
        threads += [threading.Thread(target=consume, args=(out,), daemon=True) for out in popped]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    leaving = evicted + [tick for out in popped for tick in out]
    assert len(leaving) == n
    assert sorted(leaving) == list(range(n))
    assert all(out == sorted(out) for out in popped)  # each consumer sees FIFO order


def test_make_report_reflects_drain_state():
    rx = make_receiver()
    rx.session_id = 12
    push_event(rx, Event(tick=1, channels={0: b"x"}))
    report = rx.make_report(now_ns=123)
    assert report.session_id == 12
    assert report.ready is True
    assert report.queue_fill == pytest.approx(1 / QUEUE_CAPACITY_DEFAULT)
    rx.drain()
    assert rx.make_report(now_ns=124).ready is False


def test_memory_bounded_by_window_eviction():
    rx = make_receiver(channels=(0, 1))
    # half-finished ticks pile up, then a much newer completion purges them
    for t in range(1, 30):
        rx.ingest_packet(forwarded(Event(tick=t, channels={0: b"x"}))[0], 0)
    assert len(rx.ticks) == 29
    push_event(rx, Event(tick=500, channels={0: b"y", 1: b"z"}))
    assert rx.counters["stale_buffers"] >= 29
    assert rx.ticks == {500: DELIVERED}


# --- socket front end ---------------------------------------------------------


def test_udp_receiver_end_to_end():
    core = make_receiver(channels=(0, 1))
    front = UdpReceiver(core, "127.0.0.1", base_port=0, port_count=2)
    front.start()
    try:
        ports = front.ports
        ev = Event(tick=77, channels={0: b"a" * 3000, 1: b"b" * 100})
        out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for frag in forwarded(ev):
            ch = wire.decode_re_header(frag).channel
            out.sendto(frag, ("127.0.0.1", ports[ch % 2]))
        got = core.pop_event(block=True, timeout=2.0)
        assert got == ev
        out.close()
    finally:
        front.stop()


def test_udp_receiver_reads_a_gso_write_without_udp_gro(monkeypatch):
    # A kernel before 5.0 refuses UDP_GRO: it cuts the write into datagrams.
    monkeypatch.setattr(netutil, "enable_gro", lambda sock: None)
    core = make_receiver()
    reads = []
    ingest = core.ingest_packet
    core.ingest_packet = lambda buf, now, size=0: reads.append(size) or ingest(buf, now, size)
    front = UdpReceiver(core, "127.0.0.1", base_port=0, port_count=1)
    front.start()
    event = Event(tick=5, channels={0: random.Random(5).randbytes(16_000)})  # 12 fragments
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
            netutil.SegmentSender(out).send(forwarded(event), ("127.0.0.1", front.base_port))
        assert core.pop_event(block=True, timeout=2.0) == event
        assert core.pop_event(block=True, timeout=0.3) is None
    finally:
        front.stop()
    assert reads == [0] * 12
    assert core.counters["ingested"] == core.counters["applied"] == 12
    assert core.counters["events"] == 1


def test_udp_receiver_rejects_bad_port_count():
    with pytest.raises(ValueError):
        UdpReceiver(make_receiver(), "127.0.0.1", 0, port_count=3)


def test_udp_receiver_ephemeral_ports_are_consecutive():
    # the balancer addresses channel c at base_port + c mod port_count
    core = make_receiver(channels=range(4))
    front = UdpReceiver(core, "127.0.0.1", base_port=0, port_count=4)
    before = set(threading.enumerate())
    front.start()
    try:
        assert len(set(threading.enumerate()) - before) == 1  # one loop serves every port
        assert front.ports == [front.base_port + i for i in range(4)]
        out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        ev = Event(tick=3, channels={c: bytes([c]) * 10 for c in range(4)})
        for frag in forwarded(ev):
            ch = wire.decode_re_header(frag).channel
            out.sendto(frag, ("127.0.0.1", front.base_port + ch % 4))
        out.close()
        assert core.pop_event(block=True, timeout=2.0) == ev
        assert core.counters["ingested"] == 4
    finally:
        front.stop()


def test_udp_receiver_retries_a_taken_range(monkeypatch):
    calls = []
    bind_range = UdpReceiver._bind_range

    def flaky(listen_ip, base_port, port_count):
        calls.append(base_port)
        if base_port and len(calls) == 2:  # the rest of the first range is taken
            raise OSError(errno.EADDRINUSE, "taken")
        return bind_range(listen_ip, base_port, port_count)

    monkeypatch.setattr(UdpReceiver, "_bind_range", staticmethod(flaky))
    front = UdpReceiver(make_receiver(), "127.0.0.1", base_port=0, port_count=2)
    try:
        assert calls[0] == 0 and calls[2] == 0  # a fresh ephemeral first port
        assert front.ports == [front.base_port, front.base_port + 1]
    finally:
        front.stop()


def test_udp_receiver_stops_promptly_without_traffic():
    front = UdpReceiver(make_receiver(), "127.0.0.1", base_port=0, port_count=2)
    front.start()
    time.sleep(0.3)  # the loop is parked in a poll
    t0 = time.monotonic()
    front.stop()
    assert time.monotonic() - t0 < 1.0
    assert not front._thread.is_alive()


def test_udp_receiver_expires_stuck_ticks_while_idle():
    core = make_receiver(channels=(0, 1), reassembly_timeout_s=0.1)
    front = UdpReceiver(core, "127.0.0.1", base_port=0, port_count=1)
    front.start()
    try:
        out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        out.sendto(forwarded(Event(tick=5, channels={0: b"half"}))[0], ("127.0.0.1", front.base_port))
        out.close()
        deadline = time.monotonic() + 3.0
        while core.counters["timeouts"] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert core.counters["timeouts"] == 1
    finally:
        front.stop()


# --- fast paths against a reference model ------------------------------------


class CoverageBuffer:
    """Byte-coverage model of ReassemblyBuffer.insert: no intervals at all."""

    def __init__(self, total_length):
        self.total_length = total_length
        self.data = bytearray(total_length)
        self.have = [False] * total_length
        self.poisoned = False
        self.got_zero = False

    def insert(self, offset, chunk):
        if self.total_length == 0:
            if self.got_zero:
                return "duplicate"
            self.got_zero = True
            return "applied"
        span = range(offset, offset + len(chunk))
        seen = [i for i in span if self.have[i]]
        if any(self.data[i] != chunk[i - offset] for i in seen):
            self.poisoned = True
            return "mismatch"
        if seen:
            return "duplicate"
        for i in span:
            self.have[i] = True
        self.data[offset : offset + len(chunk)] = chunk
        return "applied"

    @property
    def complete(self):
        if self.poisoned:
            return False
        return self.got_zero if self.total_length == 0 else all(self.have)


def random_chunks(rng, total):
    """Fragments of [0, total): in order, shuffled, duplicated, overlapping."""
    cuts = sorted(rng.sample(range(1, total), min(total - 1, rng.randint(0, 6)))) if total > 1 else []
    pieces = list(zip([0] + cuts, cuts + [total])) if total else [(0, 0)]
    style = rng.randrange(4)
    if style == 1:
        rng.shuffle(pieces)
    elif style == 2:
        pieces += rng.sample(pieces, rng.randint(1, len(pieces)))
        rng.shuffle(pieces)
    elif style == 3 and total:
        for _ in range(rng.randint(1, 3)):
            lo = rng.randrange(total)
            pieces.insert(rng.randrange(len(pieces) + 1), (lo, rng.randint(lo + 1, total)))
    return pieces


def test_reassembly_insert_matches_coverage_model():
    rng = random.Random(2024)
    for _ in range(3000):
        total = rng.choice([0, 1, 2, 7, 40, 300])
        payload = rng.randbytes(total)
        fast = ReassemblyBuffer(total)
        model = CoverageBuffer(total)
        for lo, hi in random_chunks(rng, total):
            chunk = bytearray(payload[lo:hi])
            if chunk and rng.random() < 0.05:
                chunk[rng.randrange(len(chunk))] ^= 0xFF  # mismatching overlap
            chunk = bytes(chunk)
            assert fast.insert(lo, chunk) == model.insert(lo, chunk)
            assert fast.complete == model.complete
        if fast.complete:
            assert fast.payload() == bytes(model.data)


class ModelReceiver(Receiver):
    """Reference: the public decoder, a ReassemblyBuffer for every fragment
    kept in four separate structures, and a full rescan of the tick window
    on every new newest tick."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.buffers = {}  # (tick, channel) -> ReassemblyBuffer
        self.tick_first_seen = {}  # tick -> ns
        self.tick_channels = {}  # tick -> {channel: payload}
        self.delivered_ticks = set()

    def _dropped(self, tick, fate):
        if self.on_dropped is not None:
            self.on_dropped(tick, fate)

    def ingest_packet(self, datagram, now_ns):
        c = self.counters
        c["ingested"] += 1
        try:
            h = wire.decode_re_header(datagram)
        except wire.WireError:
            c["malformed"] += 1
            return None
        body = datagram[wire.RE_HEADER_SIZE :]
        tick, channel = h.tick, h.channel
        if channel not in self.expected_channels:
            c["malformed"] += 1
            return None
        if h.total_length == 0:
            if h.offset != 0 or body:
                c["malformed"] += 1
                return None
        elif h.offset + len(body) > h.total_length or not body:
            c["malformed"] += 1
            return None
        if self.newest_completed is not None and tick < self.newest_completed - self.tick_window:
            c["stale"] += 1
            self._dropped(tick, "stale")
            return None
        if tick in self.delivered_ticks:
            c["duplicate"] += 1
            return None
        key = (tick, channel)
        buf = self.buffers.get(key)
        if buf is None and channel in self.tick_channels.get(tick, ()):
            c["duplicate"] += 1
            return None
        if buf is None:
            buf = self.buffers[key] = ReassemblyBuffer(h.total_length)
            self.tick_first_seen.setdefault(tick, now_ns)
        if buf.total_length != h.total_length:
            buf.poisoned = True
            c["overlap_mismatch"] += 1
            c["malformed"] += 1
            return None
        verdict = buf.insert(h.offset, body)
        if verdict != "applied":
            c["duplicate" if verdict == "duplicate" else "overlap_mismatch"] += 1
            if verdict == "mismatch":
                c["malformed"] += 1
            return None
        c["applied"] += 1
        if not buf.complete:
            return None
        c["completed_buffers"] += 1
        payload = buf.payload()
        del self.buffers[key]
        self.tick_channels.setdefault(tick, {})[channel] = payload
        if self.newest_completed is None or tick > self.newest_completed:
            self.newest_completed = tick
            floor = tick - self.tick_window
            partial = {k[0] for k in self.buffers if k[0] < floor}
            for k in [k for k in self.buffers if k[0] < floor]:
                del self.buffers[k]
                c["stale_buffers"] += 1
            partial.update(t for t in self.tick_channels if t < floor)
            for t in [t for t in self.tick_channels if t < floor]:
                del self.tick_channels[t]
                c["stale_buffers"] += 1
            self.delivered_ticks = {t for t in self.delivered_ticks if t >= floor}
            for t in [t for t in self.tick_first_seen if t < floor]:
                del self.tick_first_seen[t]
            for t in sorted(partial):
                self._dropped(t, "stale")
        if set(self.tick_channels[tick]) == self.expected_channels:
            self._deliver(tick)
        return (tick, channel, payload)

    def _deliver(self, tick):
        event = Event(tick=tick, channels=self.tick_channels.pop(tick))
        del self.tick_first_seen[tick]
        self.delivered_ticks.add(tick)
        evicted = self.queue.push(event)
        self.counters["events"] += 1
        if evicted is not None:
            self.counters["evicted"] += 1
            self._dropped(evicted.tick, "evicted")
        if self.on_event is not None:
            self.on_event(tick, event)

    def expire(self, now_ns):
        expired = [t for t, seen in self.tick_first_seen.items() if now_ns - seen >= self.timeout_ns]
        for tick in expired:
            del self.tick_first_seen[tick]
            self.tick_channels.pop(tick, None)
            for key in [k for k in self.buffers if k[0] == tick]:
                del self.buffers[key]
            self.counters["timeouts"] += 1
            self._dropped(tick, "timeout")
        return expired


def model_view(rx):
    """``Receiver.ticks`` read as ModelReceiver's four structures."""
    view = SimpleNamespace(buffers={}, tick_first_seen={}, tick_channels={}, delivered_ticks=set())
    for tick, rec in rx.ticks.items():
        if rec is DELIVERED:
            view.delivered_ticks.add(tick)
            continue
        view.tick_first_seen[tick] = rec.first_seen_ns
        for channel, part in rec.parts.items():
            if isinstance(part, ReassemblyBuffer):
                view.buffers[tick, channel] = part
            else:
                view.tick_channels.setdefault(tick, {})[channel] = part
    return view


def re_datagram(tick, channel, offset, total, chunk, version=wire.WIRE_VERSION):
    header = wire.encode_re_header(
        wire.ReassemblyHeader(channel=channel, offset=offset, total_length=total, tick=tick, version=version)
    )
    return header + chunk


def sender_fragments(rng, tick, channel, total, payload, chunk):
    """A channel cut as a sender cuts it, equal chunks in order, 60% of
    the time with one fault: a fragment lost, two reordered, a lost one
    replaced by a duplicate of another, one fragment or all of them
    foreign or of another version, or a header-only fragment at the end."""
    pieces = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    fault = rng.randrange(10)
    if fault == 4:
        channel, version = (99, wire.WIRE_VERSION) if rng.random() < 0.5 else (channel, 2)
    else:
        version = wire.WIRE_VERSION
    datagrams = [re_datagram(tick, channel, lo, total, payload[lo:hi], version) for lo, hi in pieces]
    full = [i for i, (lo, hi) in enumerate(pieces) if hi - lo == chunk]  # all but a shorter last
    if fault == 0:
        del datagrams[rng.randrange(len(datagrams))]
    elif fault == 1 and len(full) > 1:
        i, j = rng.sample(full, 2)
        datagrams[i], datagrams[j] = datagrams[j], datagrams[i]
    elif fault == 2 and len(full) > 1:
        i, j = rng.sample(full, 2)
        datagrams[i] = datagrams[j]
    elif fault == 3:
        i = rng.randrange(len(datagrams))
        lo, hi = pieces[i]
        if rng.random() < 0.5:
            datagrams[i] = re_datagram(tick, 99, lo, total, payload[lo:hi])
        else:
            datagrams[i] = re_datagram(tick, channel, lo, total, payload[lo:hi], version=2)
    elif fault == 5:
        datagrams.append(re_datagram(tick, channel, total, total, b""))
    return datagrams


def receiver_stream(rng, channels, n_ticks):
    """Fragments of random events, around a window that keeps moving."""
    base = 1_000
    for _ in range(n_ticks):
        base += rng.randint(0, 6)
        tick = base + rng.randint(-TICK_WINDOW - 8, 8)  # out of order across the window edge
        fragment_size = rng.choice([10, 25, 50, 100, 350])  # the sender's, for this tick
        for channel in rng.sample(channels, rng.randint(1, len(channels))):
            total = rng.choice([0, 1, 50, 300, 1400])
            payload = rng.randbytes(total)
            style = rng.random()
            if style < 0.3:
                yield re_datagram(tick, channel, 0, total, payload)  # whole channel
                continue
            if style < 0.6 and total > fragment_size:
                yield from sender_fragments(rng, tick, channel, total, payload, fragment_size)
                continue
            for lo, hi in random_chunks(rng, total):
                chunk = bytearray(payload[lo:hi])
                if chunk and rng.random() < 0.02:
                    chunk[0] ^= 0x5A  # overlap with mismatching bytes
                yield re_datagram(tick, channel, lo, total, bytes(chunk))
        roll = rng.random()
        if roll < 0.03:
            yield re_datagram(tick, rng.choice(channels), 0, 10, b"wrong length")  # total conflict
        elif roll < 0.05:
            yield rng.randbytes(rng.randint(0, 30))  # garbage
        elif roll < 0.06:
            yield re_datagram(tick, 99, 0, 1, b"x")  # foreign channel
        elif roll < 0.07:
            yield re_datagram(tick, channels[0], 0, 1, b"x", version=2)


def replay_against_model(rng, channels, timeout, reads):
    """Feed each read (octets, segment size) to a Receiver whole, and its
    datagrams one at a time to the reference model; assert that both
    agree along the way and at the end.

    Returns the Receiver, its drops, the number of multi-segment reads it
    completed in one join, and the number of segments it applied one at
    a time."""
    fast = make_receiver(channels=channels, capacity=64, reassembly_timeout_s=timeout)
    model = ModelReceiver(expected_channels=channels, queue_capacity=64, reassembly_timeout_s=timeout)
    got_fast, got_model = [], []
    fast.on_event = lambda t, ev: got_fast.append(ev)
    model.on_event = lambda t, ev: got_model.append(ev)
    dropped_fast, dropped_model = [], []
    fast.on_dropped = lambda t, fate: dropped_fast.append((t, fate))
    model.on_dropped = lambda t, fate: dropped_model.append((t, fate))
    one_by_one = []
    ingest_one = fast._ingest_one
    fast._ingest_one = lambda datagram, now: one_by_one.append(datagram) or ingest_one(datagram, now)
    now = 0
    joined = 0
    for i, (buf, size) in enumerate(reads):
        now += rng.randint(0, 2_000_000)
        before = len(one_by_one)
        done = fast.ingest_packet(buf, now, size)
        segments = [buf[s : s + size] for s in range(0, len(buf), size)] if size else [buf]
        joined += len(segments) > 1 and len(one_by_one) == before
        expected = None
        for datagram in segments:
            expected = model.ingest_packet(datagram, now) or expected
        assert done == expected, i
        if i % 97 == 0:
            assert fast.expire(now) == model.expire(now)
        if i % 50 == 0:
            assert model_view(fast).delivered_ticks == model.delivered_ticks
            assert dropped_fast == dropped_model, i
    assert fast.counters == model.counters
    assert got_fast == got_model
    assert dropped_fast == dropped_model
    view = model_view(fast)
    assert view.delivered_ticks == model.delivered_ticks
    assert view.tick_channels == model.tick_channels
    assert view.tick_first_seen == model.tick_first_seen
    assert view.buffers.keys() == model.buffers.keys()
    for key, buf in view.buffers.items():
        ref = model.buffers[key]
        assert (buf.intervals, buf.poisoned, buf.data) == (ref.intervals, ref.poisoned, ref.data)
    return fast, dropped_fast, joined, len(one_by_one)


def test_fast_ingest_matches_reference_model():
    for seed in range(6):
        rng = random.Random(seed)
        channels = [0, 1, 2][: 1 + seed % 3]
        timeout = 0.02 if seed % 2 else REASSEMBLY_TIMEOUT_S
        stream = list(receiver_stream(rng, channels, 1500))
        # replay a slice late so duplicates arrive after delivery and eviction
        stream += stream[len(stream) // 2 : len(stream) // 2 + 200]
        fast, dropped, _, _ = replay_against_model(rng, channels, timeout, [(dg, 0) for dg in stream])
        assert fast.counters["events"] > 100 and fast.counters["stale_buffers"] > 0
        assert fast.counters["timeouts"] > 0 or not seed % 2
        assert {fate for _, fate in dropped} == {"stale", "evicted"} | ({"timeout"} if seed % 2 else set())


class GsoWrites:
    """A socket stand-in that keeps each write of ``SegmentSender`` as the
    read a ``UDP_GRO`` receiver gets: (octets, segment size or 0)."""

    def __init__(self):
        self.reads = []

    def sendmsg(self, run, _ancdata, _flags, _dest):
        self.reads.append((b"".join(run), len(run[0])))

    def sendto(self, datagram, _dest):
        self.reads.append((datagram, 0))


def gso_reads(rng, stream):
    """The reads of ``stream`` written by ``SegmentSender``: most sends end
    where the channel or the tick changes, some run on into the next."""
    writes = GsoWrites()
    send = netutil.SegmentSender(writes).send
    batch = []
    for datagram in stream:
        if batch and datagram[2:4] + datagram[12:20] != batch[-1][2:4] + batch[-1][12:20] and rng.random() < 0.7:
            send(batch, ("127.0.0.1", 1))
            batch = []
        batch.append(datagram)
    send(batch, ("127.0.0.1", 1))
    return writes.reads


def test_coalesced_reads_match_the_model_fed_one_datagram_at_a_time():
    for seed in range(6):
        rng = random.Random(100 + seed)
        channels = [0, 1, 2][: 1 + seed % 3]
        timeout = 0.02 if seed % 2 else REASSEMBLY_TIMEOUT_S
        stream = list(receiver_stream(rng, channels, 1500))
        # replay a slice late, so whole runs arrive for delivered channels
        stream += stream[len(stream) // 2 : len(stream) // 2 + 200]
        reads = gso_reads(rng, stream)
        assert b"".join(buf for buf, _ in reads) == b"".join(stream)
        _, _, joined, one_by_one = replay_against_model(rng, channels, timeout, reads)
        assert joined > 40 and one_by_one > 1000  # both paths ran


def test_tick_heap_stays_bounded_when_nothing_completes():
    rx = make_receiver(reassembly_timeout_s=0.001)
    for tick in range(5_000):
        rx.ingest_packet(re_datagram(tick, 0, 0, 10, b"half"), tick * 1_000_000)
        if tick % 25 == 0:
            rx.expire(tick * 1_000_000)
    assert rx.counters["timeouts"] > 4_000
    assert len(rx._heap) < 200


def test_udp_receiver_burst_on_one_cpu_evicts_nothing():
    # A burst already queued in the socket, drained by an ingest thread that
    # shares one CPU with the consumer: the consumer must get turns before
    # the bounded queue overflows.
    n = 1_000
    core = make_receiver(capacity=256)
    front = UdpReceiver(core, "127.0.0.1", base_port=0, port_count=1)
    out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    for tick in range(1, n + 1):
        out.sendto(forwarded(Event(tick=tick, channels={0: bytes(1400)}))[0], ("127.0.0.1", front.base_port))
    out.close()
    popped = []

    def consume():
        while len(popped) < n and core.pop_event(block=True, timeout=3.0) is not None:
            popped.append(1)

    cpus = os.sched_getaffinity(0)
    consumer = threading.Thread(target=consume, daemon=True)
    os.sched_setaffinity(0, {min(cpus)})  # every thread of this process on one CPU
    try:
        consumer.start()
        front.start()
        consumer.join(timeout=10.0)
    finally:
        os.sched_setaffinity(0, cpus)
        front.stop()
    assert not consumer.is_alive()
    assert core.counters["ingested"] == n
    assert core.counters["evicted"] == 0
