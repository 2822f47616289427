"""Event sender: fragmentation, pacing, event files, sync heartbeats.

An event is one tick's payloads across channels.  Each channel payload
is cut into mtu-sized fragments and every fragment is prefixed with the
two wire headers (36 octets total), so the balancer can route on tick
and the receiver can reassemble by (tick, channel, offset).

The sync side channel announces tick progress once a second so the
control plane can place epoch boundaries ahead of the stream.  The
first sync goes out before the first event and carries the tick about
to be sent, which lets the first epoch cover the stream from its very
first event.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from . import wire

__all__ = [
    "MTU_PAYLOAD_DEFAULT",
    "UDP_PAYLOAD_LIMIT",
    "OversizeMtu",
    "MalformedRecord",
    "Event",
    "SenderStats",
    "event_digest",
    "SharedTickState",
    "fragment_event",
    "synth_events",
    "load_event_file",
    "write_event",
    "write_event_file",
    "stream_events",
    "send_sync",
    "emit_sync_loop",
]

log = logging.getLogger(__name__)

MTU_PAYLOAD_DEFAULT = 1400
UDP_PAYLOAD_LIMIT = 65507  # IPv4 maximum UDP payload
MTU_PAYLOAD_MAX = UDP_PAYLOAD_LIMIT - wire.DATAGRAM_OVERHEAD

_RECORD_HEAD = struct.Struct(">QHI")  # tick, channel, payload length


class OversizeMtu(ValueError):
    pass


class MalformedRecord(ValueError):
    def __init__(self, offset: int, why: str):
        super().__init__(f"at offset {offset}: {why}")
        self.offset = offset


@dataclass(frozen=True)
class Event:
    """One tick's payloads, keyed by channel."""

    tick: int
    channels: dict


def event_digest(event: Event) -> str:
    """Canonical sha256 of an event, stable across fragmentation.

    Each channel contributes its record header plus payload, in channel
    order, so two events collide only if tick, channel layout, and every
    octet agree.
    """
    h = hashlib.sha256()
    for channel in sorted(event.channels):
        payload = event.channels[channel]
        h.update(_RECORD_HEAD.pack(event.tick, channel, len(payload)))
        h.update(payload)
    return h.hexdigest()


@dataclass
class SenderStats:
    events: int = 0
    fragments: int = 0
    octets: int = 0
    duration_s: float = 0.0
    target_rate_hz: float = 0.0

    @property
    def achieved_rate_hz(self) -> float:
        return self.events / self.duration_s if self.duration_s > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "events": self.events,
            "fragments": self.fragments,
            "octets": self.octets,
            "duration_s": round(self.duration_s, 6),
            "target_rate_hz": self.target_rate_hz,
            "achieved_rate_hz": round(self.achieved_rate_hz, 3),
        }


def fragment_event(event: Event, mtu_payload: int = MTU_PAYLOAD_DEFAULT) -> list:
    """Cut one event into wire datagrams, channels in ascending order.

    Each datagram is one 36-octet pack of both headers plus its slice of
    the payload.  A field that does not fit its wire width raises
    ValueError, as the header encoders do.
    """
    if mtu_payload < 1 or mtu_payload > MTU_PAYLOAD_MAX:
        raise OversizeMtu(f"mtu_payload {mtu_payload} outside 1..{MTU_PAYLOAD_MAX}")
    pack, magic, version = wire.pack_datagram_headers, wire.LB_MAGIC, wire.WIRE_VERSION
    word0 = version << 12
    tick = event.tick
    datagrams = []
    append = datagrams.append
    try:
        for channel in sorted(event.channels):
            payload = event.channels[channel]
            total = len(payload)
            for offset in range(0, total, mtu_payload) or (0,):  # an empty channel is one fragment
                head = pack(magic, version, 1, 0, channel, tick, word0, channel, offset, total, tick)
                append(head + payload[offset : offset + mtu_payload])
    except struct.error as exc:
        raise ValueError(f"field out of range: {exc}") from None
    return datagrams


def synth_events(count: int, channels: int, size_per_channel: int, start_tick: int = 1, seed: int = 0):
    """Reproducible random events: same seed, same bytes."""
    rng = random.Random(seed)
    for i in range(count):
        yield Event(
            tick=start_tick + i,
            channels={c: rng.randbytes(size_per_channel) for c in range(channels)},
        )


def write_event(fh, event: Event) -> int:
    """Append one event's records to an open binary stream; returns octets."""
    n = 0
    for channel in sorted(event.channels):
        payload = event.channels[channel]
        fh.write(_RECORD_HEAD.pack(event.tick, channel, len(payload)))
        fh.write(payload)
        n += _RECORD_HEAD.size + len(payload)
    return n


def write_event_file(path, events) -> int:
    """Serialize events as concatenated records; returns events written."""
    n = 0
    with open(path, "wb") as fh:
        for ev in events:
            write_event(fh, ev)
            n += 1
    return n


def load_event_file(path):
    """Yield events from a record file; strict about layout.

    Records of one tick must be contiguous and ticks must strictly
    increase; violations and truncation raise MalformedRecord with the
    offending byte offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0
    current: Event | None = None
    last_tick = None
    while offset < len(blob):
        if offset + _RECORD_HEAD.size > len(blob):
            raise MalformedRecord(offset, "truncated record header")
        tick, channel, length = _RECORD_HEAD.unpack_from(blob, offset)
        body_at = offset + _RECORD_HEAD.size
        if body_at + length > len(blob):
            raise MalformedRecord(offset, f"payload needs {length} octets past end of file")
        payload = blob[body_at : body_at + length]
        if current is not None and tick == current.tick:
            if channel in current.channels:
                raise MalformedRecord(offset, f"duplicate channel {channel} in tick {tick}")
            current.channels[channel] = payload
        else:
            if current is not None:
                yield current
            if last_tick is not None and tick <= last_tick:
                raise MalformedRecord(offset, f"tick {tick} does not increase past {last_tick}")
            last_tick = tick
            current = Event(tick=tick, channels={channel: payload})
        offset = body_at + length
    if current is not None:
        yield current


class SharedTickState:
    """Tick progress shared between the stream and the sync emitter."""

    def __init__(self):
        self._lock = threading.Lock()
        self.latest_tick: int | None = None
        self.events_total = 0

    def announce(self, first_tick: int):
        with self._lock:
            if self.latest_tick is None:
                self.latest_tick = first_tick

    def advance(self, tick: int):
        with self._lock:
            self.latest_tick = tick
            self.events_total += 1

    def snapshot(self) -> tuple:
        with self._lock:
            return self.latest_tick, self.events_total


def stream_events(
    events,
    lb_address: tuple,
    rate_hz: float,
    mtu_payload: int = MTU_PAYLOAD_DEFAULT,
    shared: SharedTickState | None = None,
    sock: socket.socket | None = None,
) -> SenderStats:
    """Send a paced event stream; rate 0 means as fast as possible.

    Pacing is open-loop against absolute deadlines, so it never blocks
    on receiver state and drift does not accumulate.  Socket errors are
    fatal and propagate.
    """
    own_sock = sock is None
    if own_sock:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    stats = SenderStats(target_rate_hz=rate_hz)
    period = 1.0 / rate_hz if rate_hz > 0 else 0.0
    it = iter(events)
    first = next(it, None)
    if first is None:
        return stats
    if shared is not None:
        shared.announce(first.tick)
    start = time.monotonic()
    try:
        for i, ev in enumerate(itertools.chain([first], it)):
            if period:
                delay = start + i * period - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            for dg in fragment_event(ev, mtu_payload):
                sock.sendto(dg, lb_address)
                stats.fragments += 1
                stats.octets += len(dg)
            stats.events += 1
            if shared is not None:
                shared.advance(ev.tick)
    finally:
        stats.duration_s = time.monotonic() - start
        if own_sock:
            sock.close()
    return stats


def send_sync(
    sock: socket.socket,
    control_address: tuple,
    shared: SharedTickState,
    source_id: int,
    rate_hz: int = 0,
) -> bool:
    """Emit one sync from the shared state; no-op before the announce."""
    latest, _ = shared.snapshot()
    if latest is None:
        return False
    msg = wire.SyncMessage(
        source_id=source_id,
        latest_tick=latest,
        event_rate_hz=int(rate_hz),
        wallclock_ns=time.time_ns(),
    )
    sock.sendto(wire.encode_sync(msg), control_address)
    return True


def emit_sync_loop(
    control_address: tuple,
    source_id: int,
    shared: SharedTickState,
    stop: threading.Event,
    interval_s: float = 1.0,
    sock: socket.socket | None = None,
):
    """1 Hz (default) sync heartbeat; runs until stop is set.

    The measured rate is events emitted during the last interval.  An
    idle stream keeps repeating the last tick with rate 0.  Socket
    errors are logged and the loop keeps going; losing a sync only
    degrades prediction.
    """
    own_sock = sock is None
    if own_sock:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    last_total = 0
    try:
        while True:
            _, total = shared.snapshot()
            rate = max(0, round((total - last_total) / interval_s))
            last_total = total
            try:
                send_sync(sock, control_address, shared, source_id, rate_hz=rate)
            except OSError as exc:
                log.warning("sync send failed: %s", exc)
            if stop.wait(interval_s):
                break
    finally:
        if own_sock:
            sock.close()
