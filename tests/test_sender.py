"""Sender: fragmentation, event files, pacing, sync heartbeats."""

import errno
import os
import random
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamlb import netutil, wire
from streamlb.sender import (
    MTU_PAYLOAD_MAX,
    Event,
    MalformedRecord,
    OversizeMtu,
    SharedTickState,
    emit_sync_loop,
    fragment_event,
    load_event_file,
    send_sync,
    stream_events,
    synth_events,
    write_event_file,
)


def headers(datagram):
    lb = wire.decode_lb_header(datagram)
    re = wire.decode_re_header(datagram[wire.LB_HEADER_SIZE :])
    body = datagram[wire.DATAGRAM_OVERHEAD :]
    return lb, re, body


# --- fragment_event ---------------------------------------------------------


def test_fragment_4500_at_1400():
    ev = Event(tick=7, channels={2: bytes(range(256)) * 17 + b"abcd" * 37})
    assert len(ev.channels[2]) == 4500
    frags = fragment_event(ev, 1400)
    assert len(frags) == 4
    offsets = []
    for dg in frags:
        lb, re, body = headers(dg)
        assert lb.tick == 7 and lb.channel == 2
        assert re.tick == 7 and re.channel == 2 and re.total_length == 4500
        assert len(dg) == len(body) + 36
        offsets.append((re.offset, len(body)))
    assert offsets == [(0, 1400), (1400, 1400), (2800, 1400), (4200, 300)]


def test_fragment_empty_payload_single_datagram():
    frags = fragment_event(Event(tick=1, channels={0: b""}), 1400)
    assert len(frags) == 1
    lb, re, body = headers(frags[0])
    assert re.offset == 0 and re.total_length == 0 and body == b""
    assert len(frags[0]) == 36


def test_fragment_multi_channel_ascending():
    ev = Event(tick=3, channels={5: b"x" * 10, 1: b"y" * 10, 3: b"z" * 10})
    frags = fragment_event(ev, 1400)
    assert [headers(f)[0].channel for f in frags] == [1, 3, 5]


def test_fragment_oversize_mtu():
    ev = Event(tick=1, channels={0: b"a"})
    for bad in (0, -5, MTU_PAYLOAD_MAX + 1):
        with pytest.raises(OversizeMtu):
            fragment_event(ev, bad)
    assert len(fragment_event(ev, MTU_PAYLOAD_MAX)) == 1


def reassemble(frags):
    """Concatenate fragment bodies per channel, honoring offsets."""
    out = {}
    for dg in frags:
        _, re, body = headers(dg)
        buf = out.setdefault(re.channel, bytearray(re.total_length))
        buf[re.offset : re.offset + len(body)] = body
    return {c: bytes(b) for c, b in out.items()}


def test_fragment_concat_identity_bulk():
    rng = random.Random(88)
    for _ in range(300):
        channels = {
            c: rng.randbytes(rng.randint(0, 5000))
            for c in rng.sample(range(8), rng.randint(1, 4))
        }
        ev = Event(tick=rng.randint(0, 2**40), channels=channels)
        mtu = rng.choice([1, 7, 100, 1400, 9000])
        assert reassemble(fragment_event(ev, mtu)) == channels


@settings(max_examples=200)
@given(
    payload=st.binary(max_size=4000),
    mtu=st.integers(min_value=1, max_value=2000),
    tick=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_fragment_concat_identity_property(payload, mtu, tick):
    ev = Event(tick=tick, channels={0: payload})
    frags = fragment_event(ev, mtu)
    assert reassemble(frags) == {0: payload}
    expected = max(1, -(-len(payload) // mtu))
    assert len(frags) == expected


# --- synth and event files --------------------------------------------------


def test_synth_events_reproducible():
    a = list(synth_events(20, channels=3, size_per_channel=100, start_tick=5, seed=42))
    b = list(synth_events(20, channels=3, size_per_channel=100, start_tick=5, seed=42))
    c = list(synth_events(20, channels=3, size_per_channel=100, start_tick=5, seed=43))
    assert a == b
    assert a != c
    assert [e.tick for e in a] == list(range(5, 25))
    assert all(set(e.channels) == {0, 1, 2} for e in a)
    assert all(len(p) == 100 for e in a for p in e.channels.values())


def test_event_file_roundtrip(tmp_path):
    events = list(synth_events(50, channels=2, size_per_channel=333, seed=9))
    path = tmp_path / "events.bin"
    assert write_event_file(path, events) == 50
    assert list(load_event_file(path)) == events


def test_event_file_zero_length_payload(tmp_path):
    events = [Event(tick=1, channels={0: b""}), Event(tick=2, channels={0: b"x"})]
    path = tmp_path / "e.bin"
    write_event_file(path, events)
    assert list(load_event_file(path)) == events


def test_event_file_truncated_header(tmp_path):
    path = tmp_path / "bad.bin"
    write_event_file(path, [Event(tick=1, channels={0: b"abc"})])
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])  # cut into the payload
    with pytest.raises(MalformedRecord) as exc:
        list(load_event_file(path))
    assert exc.value.offset == 0

    path.write_bytes(blob + blob[:7])  # dangling partial header
    with pytest.raises(MalformedRecord) as exc:
        list(load_event_file(path))
    assert exc.value.offset == len(blob)


def test_event_file_tick_regression(tmp_path):
    path = tmp_path / "bad.bin"
    with open(path, "wb") as fh:
        for tick in (5, 3):
            fh.write(tick.to_bytes(8, "big") + (0).to_bytes(2, "big") + (1).to_bytes(4, "big") + b"x")
    with pytest.raises(MalformedRecord):
        list(load_event_file(path))


def test_event_file_duplicate_channel(tmp_path):
    path = tmp_path / "bad.bin"
    with open(path, "wb") as fh:
        for _ in range(2):
            fh.write((7).to_bytes(8, "big") + (1).to_bytes(2, "big") + (1).to_bytes(4, "big") + b"x")
    with pytest.raises(MalformedRecord):
        list(load_event_file(path))


# --- stream_events over loopback -------------------------------------------


def sink_socket():
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    s.settimeout(2.0)
    return s


def test_stream_events_delivers_and_counts():
    sink = sink_socket()
    events = list(synth_events(30, channels=2, size_per_channel=500, seed=1))
    stats = stream_events(events, sink.getsockname(), rate_hz=0)
    assert stats.events == 30
    assert stats.fragments == 60
    assert stats.octets == sum(36 + 500 for _ in range(60))
    got = [sink.recv(2000) for _ in range(60)]
    assert sorted(got) == sorted(
        dg for ev in events for dg in fragment_event(ev, 1400)
    )
    sink.close()


def test_stream_events_pacing_within_tolerance():
    sink = sink_socket()
    events = list(synth_events(100, channels=1, size_per_channel=10, seed=2))
    t0 = time.monotonic()
    stats = stream_events(events, sink.getsockname(), rate_hz=100.0)
    elapsed = time.monotonic() - t0
    # 100 events at 100 Hz paces to ~1 s of deadlines (first fires at t=0)
    assert 0.99 * 0.95 <= elapsed <= 0.99 * 1.05 + 0.05
    assert stats.duration_s == pytest.approx(elapsed, abs=0.05)
    sink.close()


def test_stream_events_unpaced_is_fast():
    sink = sink_socket()
    events = list(synth_events(200, channels=1, size_per_channel=10, seed=3))
    t0 = time.monotonic()
    stream_events(events, sink.getsockname(), rate_hz=0)
    assert time.monotonic() - t0 < 0.5
    sink.close()


class CountingSocket:
    """A UDP socket that counts its sendto and sendmsg calls."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.calls = {"sendto": 0, "sendmsg": 0}

    def sendto(self, data, dest):
        self.calls["sendto"] += 1
        return self.sock.sendto(data, dest)

    def sendmsg(self, *args):
        self.calls["sendmsg"] += 1
        return self.sock.sendmsg(*args)

    def close(self):
        self.sock.close()


class GsoRefusingSocket(CountingSocket):
    """A socket whose every GSO write fails as on a device without checksum offload."""

    def sendmsg(self, *args):
        self.calls["sendmsg"] += 1
        raise OSError(errno.EIO, "Input/output error")


class SendtoOnlySocket:
    """Has sendto and nothing else, like a wrapper that records only sendto."""

    def __init__(self, sock):
        self.sendto = sock.sendto


def stream_through(sock, events, mtu=1400):
    """Stream events through ``sock`` to a fresh sink; returns every datagram received."""
    sink = sink_socket()
    netutil.request_buffer(sink, "recv", netutil.SOCKET_BUFFER)
    try:
        stats = stream_events(events, sink.getsockname(), rate_hz=0, mtu_payload=mtu, sock=sock)
        got = [sink.recv(65535) for _ in range(stats.fragments)]
        sink.settimeout(0.05)
        with pytest.raises(socket.timeout):
            sink.recv(65535)  # nothing beyond the count
    finally:
        sink.close()
    assert stats.fragments == sum(len(fragment_event(ev, mtu)) for ev in events)
    return got


def test_stream_events_sends_each_channel_in_one_gso_write():
    # 16,000 octets per channel: 11 full 1436-octet datagrams and a 636-octet last one.
    events = list(synth_events(3, channels=4, size_per_channel=16_000, seed=4))
    sock = CountingSocket()
    try:
        got = stream_through(sock, events)
    finally:
        sock.close()
    assert got == [dg for ev in events for dg in fragment_event(ev, 1400)]
    assert sock.calls == {"sendto": 0, "sendmsg": 3 * 4}


def test_stream_events_gso_runs_are_capped():
    # Full fragments only: runs cross channels and stop at 64 segments.
    events = list(synth_events(1, channels=3, size_per_channel=30 * 100, seed=5))
    sock = CountingSocket()
    try:
        got = stream_through(sock, events, mtu=100)
    finally:
        sock.close()
    assert got == fragment_event(events[0], 100)
    assert sock.calls == {"sendto": 0, "sendmsg": 2}  # 64 + 26 segments


def test_stream_events_falls_back_when_gso_is_refused():
    events = list(synth_events(5, channels=2, size_per_channel=5_000, seed=6))
    sock = GsoRefusingSocket()
    try:
        got = stream_through(sock, events)
    finally:
        sock.close()
    assert got == [dg for ev in events for dg in fragment_event(ev, 1400)]
    assert sock.calls == {"sendto": 5 * 2 * 4, "sendmsg": 1}  # refused once, then one datagram per call


class FailingGsoSocket(CountingSocket):
    """GSO writes to ``dest`` fail with ``errno_`` (``times`` of them, or every one)."""

    def __init__(self, dest, errno_, times=None):
        super().__init__()
        self.dest, self.errno, self.times = dest, errno_, times

    def sendmsg(self, buffers, ancdata, flags, dest):
        if dest == self.dest and self.times != 0:
            self.calls["sendmsg"] += 1
            self.times = None if self.times is None else self.times - 1
            raise OSError(self.errno, os.strerror(self.errno))
        return super().sendmsg(buffers, ancdata, flags, dest)


def drain(sink, count):
    got = [sink.recv(65535) for _ in range(count)]
    sink.settimeout(0.05)
    with pytest.raises(socket.timeout):
        sink.recv(65535)  # nothing beyond the count
    sink.settimeout(2.0)
    return got


def test_segment_sender_refusal_holds_for_one_destination_only():
    sinks = [sink_socket(), sink_socket()]
    refused, kept = (s.getsockname() for s in sinks)
    sock = FailingGsoSocket(refused, errno.EINVAL)  # as past a smaller path MTU
    sender = netutil.SegmentSender(sock)
    runs = [[bytes([i]) * 300] * 4 + [bytes([i]) * 100] for i in range(4)]
    try:
        for i, run in enumerate(runs):
            sender.send(run, (refused, kept)[i % 2])
        got = [drain(sinks[0], 10), drain(sinks[1], 10)]
    finally:
        sock.close()
        for s in sinks:
            s.close()
    assert got == [runs[0] + runs[2], runs[1] + runs[3]]
    assert sender.refused == {refused}
    assert sock.calls == {"sendmsg": 1 + 2, "sendto": 5 + 5}  # refused once; the other keeps GSO


def test_segment_sender_resends_a_run_after_a_transient_error():
    sink = sink_socket()
    sock = FailingGsoSocket(sink.getsockname(), errno.ENOBUFS, times=1)
    sender = netutil.SegmentSender(sock)
    runs = [[bytes([i]) * 200] * 6 for i in range(3)]
    try:
        for run in runs:
            sender.send(run, sink.getsockname())
        got = drain(sink, 18)
    finally:
        sock.close()
        sink.close()
    assert got == runs[0] + runs[1] + runs[2]
    assert not sender.refused
    assert sock.calls == {"sendmsg": 3, "sendto": 6}  # only the failed run went one datagram per call


def test_stream_events_through_a_socket_with_only_sendto():
    events = list(synth_events(5, channels=2, size_per_channel=5_000, seed=7))
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        got = stream_through(SendtoOnlySocket(sock), events)
    assert got == [dg for ev in events for dg in fragment_event(ev, 1400)]


def test_stream_events_empty_source():
    stats = stream_events([], ("127.0.0.1", 1), rate_hz=100.0)
    assert stats.events == 0 and stats.fragments == 0


# --- sync emission ----------------------------------------------------------


def test_first_sync_announces_first_tick():
    sink = sink_socket()
    shared = SharedTickState()
    sync_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    assert not send_sync(sync_sock, sink.getsockname(), shared, source_id=4)
    shared.announce(first_tick=1000)
    assert send_sync(sync_sock, sink.getsockname(), shared, source_id=4)
    msg = wire.decode_sync(sink.recv(64))
    assert msg.latest_tick == 1000
    assert msg.source_id == 4
    assert msg.event_rate_hz == 0
    sync_sock.close()
    sink.close()


def test_sync_loop_tracks_progress_and_idles():
    sink = sink_socket()
    shared = SharedTickState()
    shared.announce(50)
    stop = threading.Event()
    t = threading.Thread(
        target=emit_sync_loop,
        args=(sink.getsockname(), 9, shared, stop),
        kwargs={"interval_s": 0.05},
        daemon=True,
    )
    t.start()
    for tick in range(50, 150):
        shared.advance(tick)
    time.sleep(0.3)
    stop.set()
    t.join(timeout=2)

    msgs = []
    sink.settimeout(0.1)
    try:
        while True:
            msgs.append(wire.decode_sync(sink.recv(64)))
    except socket.timeout:
        pass
    assert len(msgs) >= 3
    ticks = [m.latest_tick for m in msgs]
    assert ticks == sorted(ticks), "latest_tick must be non-decreasing"
    assert ticks[-1] == 149
    assert msgs[-1].event_rate_hz == 0, "idle stream reports rate 0"
    assert any(m.event_rate_hz > 0 for m in msgs), "progress shows a positive rate"
    assert all(m.wallclock_ns > 0 for m in msgs)
    sink.close()
