"""Software data plane: tick-keyed redirection through epoch tables.

Each balancer instance holds up to EPOCH_RETAIN epochs.  An epoch is an
immutable 512-slot calendar table plus the boundary tick at which it
takes effect; a datagram for tick T routes through the epoch with the
greatest boundary <= T, then lands in slot T mod 512.  Keeping old
epochs alive while new ones are published is what lets membership
change without touching events already in flight.

All mutation happens under one instance lock and epochs are swapped as
a whole tuple, so the forwarding path never observes a half-applied
schedule.

Per datagram the socket loop makes one ``recv``; ``forward_packet``
does one header unpack with inline magic and version checks, picks the
epoch (newest first), indexes its slot and looks the member up; the loop
then makes one ``sendto``.  No header object or exception is built on
the way, and the returned ``ForwardAction`` is a plain slotted record.
"""

from __future__ import annotations

import enum
import logging
import socket
import threading
from dataclasses import dataclass, field

from . import netutil
from .wire import LB_HEADER_SIZE, LB_MAGIC, WIRE_VERSION, unpack_lb_header

__all__ = [
    "SLOT_COUNT",
    "EPOCH_RETAIN",
    "DRAIN_DELAY_S",
    "NoEpoch",
    "NullSlot",
    "StaleBoundary",
    "DropReason",
    "MemberState",
    "MemberSession",
    "Epoch",
    "ForwardAction",
    "Drop",
    "LbInstance",
    "UdpDataPlane",
    "dest_port",
]

log = logging.getLogger(__name__)

SLOT_COUNT = 512
EPOCH_RETAIN = 4
DRAIN_DELAY_S = 5.0


class NoEpoch(LookupError):
    """Instance has no epochs yet; nothing can route."""


class NullSlot(LookupError):
    """The slot for this tick is unassigned in the selected epoch."""


class StaleBoundary(ValueError):
    """New boundary does not exceed the newest retained boundary."""


class DropReason(enum.Enum):
    BAD_MAGIC = "bad_magic"
    BAD_VERSION = "bad_version"
    TRUNCATED = "truncated"
    NO_EPOCH = "no_epoch"
    NULL_SLOT = "null_slot"
    UNKNOWN_MEMBER = "unknown_member"


class MemberState(enum.Enum):
    ACTIVE = "active"
    DRAINING = "draining"
    RETIRED = "retired"


@dataclass
class MemberSession:
    """A registered compute node: coordinates, port range, lifecycle."""

    session_id: int
    dest_ip: str
    base_port: int
    port_count: int
    state: MemberState = MemberState.ACTIVE
    draining_since: int | None = None  # ns, set on deregister
    weight: float = 1.0
    registered_at: int = 0  # ns


@dataclass(frozen=True)
class Epoch:
    epoch_id: int
    boundary_tick: int
    table: tuple  # SLOT_COUNT entries, session_id or None


class ForwardAction:
    """Send ``payload`` to ``dest``; built once per forwarded datagram."""

    __slots__ = ("dest", "payload", "session_id", "tick")

    def __init__(self, dest: tuple, payload: bytes, session_id: int, tick: int):
        self.dest = dest  # (ip, port)
        self.payload = payload  # datagram minus the 16-octet forwarding header
        self.session_id = session_id
        self.tick = tick

    def __repr__(self):
        return (
            f"ForwardAction(dest={self.dest!r}, session_id={self.session_id}, "
            f"tick={self.tick}, payload={len(self.payload)} octets)"
        )


@dataclass(frozen=True)
class Drop:
    reason: DropReason
    tick: int | None = None


def dest_port(member: MemberSession, channel: int) -> int:
    """Spread channels across the member's port range."""
    return member.base_port + (channel % member.port_count)


@dataclass
class LbInstance:
    """One balancer instance: members, retained epochs, counters."""

    instance_id: int
    listen: tuple = ("0.0.0.0", 0)
    slot_count: int = SLOT_COUNT
    drain_delay_s: float = DRAIN_DELAY_S
    epoch_retain: int = EPOCH_RETAIN

    members: dict = field(default_factory=dict)  # session_id -> MemberSession
    next_epoch_id: int = 1

    def __post_init__(self):
        self._lock = threading.RLock()
        self._epochs: tuple = ()
        self.received_total = 0
        self.forwarded_total = 0
        self.forwarded_by_member: dict = {}
        self.dropped_by_reason: dict = {}
        self.max_forwarded_tick: int | None = None

    # --- epoch/slot selection --------------------------------------------

    @property
    def epochs(self) -> tuple:
        return self._epochs

    def select_epoch(self, tick: int) -> Epoch:
        """Greatest boundary <= tick; pre-boundary ticks use the oldest."""
        epochs = self._epochs
        if not epochs:
            raise NoEpoch(f"instance {self.instance_id} has no epochs")
        chosen = None
        for ep in epochs:
            if ep.boundary_tick <= tick:
                chosen = ep
        return chosen if chosen is not None else epochs[0]

    def select_member(self, epoch: Epoch, tick: int) -> int:
        sid = epoch.table[tick % self.slot_count]
        if sid is None:
            raise NullSlot(f"tick {tick} slot {tick % self.slot_count} unassigned")
        return sid

    # --- forwarding --------------------------------------------------------

    def forward_packet(self, datagram: bytes) -> ForwardAction | Drop:
        """Route one datagram; returns the action, never raises."""
        with self._lock:
            self.received_total += 1
            if len(datagram) < LB_HEADER_SIZE:
                return self._drop(DropReason.TRUNCATED, None)
            magic, version, _protocol, _reserved, channel, tick = unpack_lb_header(datagram)
            if magic != LB_MAGIC:
                return self._drop(DropReason.BAD_MAGIC, None)
            if version != WIRE_VERSION:
                return self._drop(DropReason.BAD_VERSION, None)
            epochs = self._epochs
            if not epochs:
                return self._drop(DropReason.NO_EPOCH, tick)
            epoch = epochs[-1]
            if epoch.boundary_tick > tick:
                epoch = epochs[0]  # pre-boundary ticks use the oldest
                for ep in epochs:
                    if ep.boundary_tick <= tick:
                        epoch = ep
            sid = epoch.table[tick % self.slot_count]
            if sid is None:
                return self._drop(DropReason.NULL_SLOT, tick)
            member = self.members.get(sid)
            if member is None or member.state is MemberState.RETIRED:
                return self._drop(DropReason.UNKNOWN_MEMBER, tick)
            self.forwarded_total += 1
            self.forwarded_by_member[sid] = self.forwarded_by_member.get(sid, 0) + 1
            if self.max_forwarded_tick is None or tick > self.max_forwarded_tick:
                self.max_forwarded_tick = tick
            return ForwardAction(
                (member.dest_ip, member.base_port + channel % member.port_count),  # dest_port
                datagram[LB_HEADER_SIZE:],
                sid,
                tick,
            )

    def _drop(self, reason: DropReason, tick) -> Drop:
        self.dropped_by_reason[reason] = self.dropped_by_reason.get(reason, 0) + 1
        return Drop(reason=reason, tick=tick)

    # --- schedule lifecycle -------------------------------------------------

    def apply_schedule(self, boundary_tick: int, table, epoch_id: int | None = None) -> Epoch:
        """Publish a new epoch atomically; prune beyond the retain window."""
        table = tuple(table)
        with self._lock:
            if len(table) != self.slot_count:
                raise ValueError(f"table length {len(table)} != {self.slot_count}")
            for sid in set(table):
                if sid is None:
                    continue
                member = self.members.get(sid)
                if member is None or member.state is not MemberState.ACTIVE:
                    raise ValueError(f"table references non-active session {sid}")
            if self._epochs and boundary_tick <= self._epochs[-1].boundary_tick:
                raise StaleBoundary(
                    f"boundary {boundary_tick} <= newest {self._epochs[-1].boundary_tick}"
                )
            if epoch_id is None:
                epoch_id = self.next_epoch_id
            self.next_epoch_id = max(self.next_epoch_id, epoch_id) + 1
            epoch = Epoch(epoch_id=epoch_id, boundary_tick=boundary_tick, table=table)
            epochs = self._epochs + (epoch,)
            if len(epochs) > self.epoch_retain:
                epochs = epochs[len(epochs) - self.epoch_retain :]
            self._epochs = epochs
            self._retire_unreferenced()
            return epoch

    def retire_expired(self, now_ns: int) -> list:
        """Retire members that finished draining and left every epoch."""
        with self._lock:
            referenced = self._referenced_sessions()
            delay_ns = int(self.drain_delay_s * 1e9)
            retired = []
            for member in list(self.members.values()):
                if member.state is not MemberState.DRAINING:
                    continue
                if member.session_id in referenced:
                    continue  # referenced epochs win, regardless of age
                if member.draining_since is not None and member.draining_since + delay_ns <= now_ns:
                    retired.append(member.session_id)
            for sid in retired:
                self._retire(sid)
            return retired

    def _referenced_sessions(self) -> set:
        refs = set()
        for ep in self._epochs:
            refs.update(s for s in ep.table if s is not None)
        return refs

    def _retire_unreferenced(self):
        referenced = self._referenced_sessions()
        for member in list(self.members.values()):
            if member.state is MemberState.DRAINING and member.session_id not in referenced:
                self._retire(member.session_id)

    def _retire(self, sid: int):
        member = self.members.pop(sid, None)
        if member is not None:
            member.state = MemberState.RETIRED
            log.info("instance %d retired session %d", self.instance_id, sid)

    # --- introspection ------------------------------------------------------

    def counters(self) -> dict:
        with self._lock:
            return {
                "received": self.received_total,
                "forwarded": self.forwarded_total,
                "forwarded_by_member": dict(self.forwarded_by_member),
                "dropped_by_reason": {r.value: n for r, n in self.dropped_by_reason.items()},
                "dropped": sum(self.dropped_by_reason.values()),
                "max_forwarded_tick": self.max_forwarded_tick,
            }


class UdpDataPlane:
    """Socket front end for one instance: recv, route, send."""

    def __init__(self, instance: LbInstance, rcvbuf: int = 8 << 20):
        self.instance = instance
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        netutil.request_buffer(self.sock, "recv", rcvbuf)
        self.sock.bind(instance.listen)
        self.instance.listen = self.sock.getsockname()
        self._out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        netutil.request_buffer(self._out, "send", rcvbuf)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple:
        return self.sock.getsockname()

    def start(self):
        self._thread = threading.Thread(target=self._run, name="lb-dataplane", daemon=True)
        self._thread.start()

    def _run(self):
        forward = self.instance.forward_packet
        send = self._out.sendto
        for datagram in netutil.recv_datagrams(self.sock, self._stop):
            if datagram is None:
                continue
            action = forward(datagram)
            if isinstance(action, ForwardAction):
                try:
                    send(action.payload, action.dest)
                except OSError as exc:
                    log.warning("sendto %s failed: %s", action.dest, exc)

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self.sock.close()
        self._out.close()
