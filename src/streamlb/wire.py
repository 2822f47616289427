"""Wire formats for the load-balanced event stream.

Three fixed-size big-endian messages travel the fabric.

Forwarding header, 16 octets, prepended by senders and stripped by the
balancer::

    offset  size  field
    ------  ----  -----
    0       2     magic "LB" (0x4C 0x42)
    2       1     version (= 1)
    3       1     protocol (= 1, UDP event stream)
    4       2     reserved (0 on encode, ignored on decode)
    6       2     channel
    8       8     tick

Reassembly header, 20 octets, consumed by compute-node receivers::

    offset  size  field
    ------  ----  -----
    0       2     version (high 4 bits, = 1) | reserved (low 12 bits)
    2       2     channel
    4       4     fragment offset within the channel payload, octets
    8       4     total channel payload length, octets
    12      8     tick

Sync message, 28 octets, sender to control plane::

    offset  size  field
    ------  ----  -----
    0       2     magic "LC" (0x4C 0x43)
    2       1     version (= 1)
    3       1     reserved
    4       4     source id
    8       8     latest tick emitted (or announced)
    16      4     event rate, events/s, measured over the last second
    20      8     sender wallclock, ns since the Unix epoch

A data datagram is forwarding header || reassembly header || payload.
The balancer strips the leading 16 octets before forwarding, so
receivers see reassembly header || payload.  Fixed overhead is
therefore 36 octets per datagram on the sender side.

Decoders consume exactly their fixed size, never read past it, and
raise only the typed errors below, regardless of input bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = [
    "WireError",
    "BadMagic",
    "BadVersion",
    "Truncated",
    "LB_MAGIC",
    "SYNC_MAGIC",
    "WIRE_VERSION",
    "LB_HEADER_SIZE",
    "RE_HEADER_SIZE",
    "SYNC_SIZE",
    "DATAGRAM_OVERHEAD",
    "LbMetaHeader",
    "ReassemblyHeader",
    "SyncMessage",
    "encode_lb_header",
    "decode_lb_header",
    "encode_re_header",
    "decode_re_header",
    "encode_sync",
    "decode_sync",
    "unpack_lb_header",
    "unpack_re_header",
    "pack_re_header",
    "pack_datagram_headers",
]


class WireError(ValueError):
    """Datagram is malformed or belongs to a different protocol."""


class BadMagic(WireError):
    pass


class BadVersion(WireError):
    pass


class Truncated(WireError):
    pass


LB_MAGIC = b"LB"
SYNC_MAGIC = b"LC"
WIRE_VERSION = 1

_LB_STRUCT = struct.Struct(">2sBBHHQ")
_RE_STRUCT = struct.Struct(">HHIIQ")
_SYNC_STRUCT = struct.Struct(">2sBBIQIQ")

LB_HEADER_SIZE = _LB_STRUCT.size
RE_HEADER_SIZE = _RE_STRUCT.size
SYNC_SIZE = _SYNC_STRUCT.size

# sender-side octets added per datagram: both headers
DATAGRAM_OVERHEAD = LB_HEADER_SIZE + RE_HEADER_SIZE

# Raw field tuples for the per-datagram paths, which check length, magic
# and version inline rather than build a header object per datagram.
# Callers guarantee the length; a short buffer raises struct.error.
unpack_lb_header = _LB_STRUCT.unpack_from  # magic, version, protocol, reserved, channel, tick
unpack_re_header = _RE_STRUCT.unpack_from  # version<<12|reserved, channel, offset, total, tick
pack_re_header = _RE_STRUCT.pack  # the same fields back to 20 octets

# Both sender-side headers in one pack, forwarding header first; the
# layout is _LB_STRUCT's followed by _RE_STRUCT's, with no padding.
_DATAGRAM_STRUCT = struct.Struct(">2sBBHHQHHIIQ")
# magic, version, protocol, reserved, channel, tick, version<<12, channel, offset, total, tick
pack_datagram_headers = _DATAGRAM_STRUCT.pack

assert LB_HEADER_SIZE == 16
assert RE_HEADER_SIZE == 20
assert SYNC_SIZE == 28
assert _DATAGRAM_STRUCT.size == DATAGRAM_OVERHEAD


@dataclass(frozen=True)
class LbMetaHeader:
    """Forwarding header the balancer routes on, then strips."""

    channel: int
    tick: int
    version: int = WIRE_VERSION
    protocol: int = 1


@dataclass(frozen=True)
class ReassemblyHeader:
    """Fragment placement header; rides end-to-end to the receiver."""

    channel: int
    offset: int
    total_length: int
    tick: int
    version: int = WIRE_VERSION


@dataclass(frozen=True)
class SyncMessage:
    """Per-sender heartbeat carrying tick progress for prediction."""

    source_id: int
    latest_tick: int
    event_rate_hz: int
    wallclock_ns: int
    version: int = WIRE_VERSION


def encode_lb_header(h: LbMetaHeader) -> bytes:
    """Pack to 16 octets.  Fields must fit their declared widths."""
    try:
        return _LB_STRUCT.pack(LB_MAGIC, h.version, h.protocol, 0, h.channel, h.tick)
    except struct.error as exc:
        raise ValueError(f"field out of range: {exc}") from None


def decode_lb_header(data: bytes) -> LbMetaHeader:
    """Parse the first 16 octets; extra octets are left untouched."""
    if len(data) < LB_HEADER_SIZE:
        raise Truncated(f"need {LB_HEADER_SIZE} octets, got {len(data)}")
    magic, version, protocol, _reserved, channel, tick = _LB_STRUCT.unpack_from(data)
    if magic != LB_MAGIC:
        raise BadMagic(f"magic {magic!r}")
    if version != WIRE_VERSION:
        raise BadVersion(f"version {version}")
    return LbMetaHeader(channel=channel, tick=tick, version=version, protocol=protocol)


def encode_re_header(h: ReassemblyHeader) -> bytes:
    """Pack to 20 octets; version rides the high nibble of word 0."""
    if not 0 <= h.version <= 0xF:
        raise ValueError(f"version {h.version} out of range")
    try:
        return _RE_STRUCT.pack(h.version << 12, h.channel, h.offset, h.total_length, h.tick)
    except struct.error as exc:
        raise ValueError(f"field out of range: {exc}") from None


def decode_re_header(data: bytes) -> ReassemblyHeader:
    """Parse the first 20 octets; the fragment payload follows them."""
    if len(data) < RE_HEADER_SIZE:
        raise Truncated(f"need {RE_HEADER_SIZE} octets, got {len(data)}")
    word0, channel, offset, total_length, tick = _RE_STRUCT.unpack_from(data)
    version = word0 >> 12
    if version != WIRE_VERSION:
        raise BadVersion(f"version {version}")
    return ReassemblyHeader(
        channel=channel, offset=offset, total_length=total_length, tick=tick, version=version
    )


def encode_sync(s: SyncMessage) -> bytes:
    """Pack to 28 octets."""
    try:
        return _SYNC_STRUCT.pack(
            SYNC_MAGIC, s.version, 0, s.source_id, s.latest_tick, s.event_rate_hz, s.wallclock_ns
        )
    except struct.error as exc:
        raise ValueError(f"field out of range: {exc}") from None


def decode_sync(data: bytes) -> SyncMessage:
    """Parse the first 28 octets."""
    if len(data) < SYNC_SIZE:
        raise Truncated(f"need {SYNC_SIZE} octets, got {len(data)}")
    magic, version, _reserved, source_id, latest_tick, rate, wallclock = _SYNC_STRUCT.unpack_from(
        data
    )
    if magic != SYNC_MAGIC:
        raise BadMagic(f"magic {magic!r}")
    if version != WIRE_VERSION:
        raise BadVersion(f"version {version}")
    return SyncMessage(
        source_id=source_id,
        latest_tick=latest_tick,
        event_rate_hz=rate,
        wallclock_ns=wallclock,
        version=version,
    )
