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

The socket loop reads with ``UDP_GRO`` set, so a run of datagrams that a
sender wrote as one GSO write arrives in one read, cut into segments of
the size its control message gives; a read without one is one datagram.
``forward_packet`` is the one routing entry point, for the socket loop
and the virtual clock alike: each call is one read, and it routes every
segment under one hold of the lock, each by its own header: one header
unpack with inline magic and version checks, the epoch (newest first),
its slot and the member.  Each run of consecutive segments to one
destination then leaves in one GSO write (``netutil.SegmentSender``).
"""

from __future__ import annotations

import enum
import logging
import socket
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import netutil
from .wire import LB_HEADER_SIZE, LB_MAGIC, WIRE_VERSION, unpack_lb_header

if TYPE_CHECKING:
    from .controlplane import FillReport

__all__ = [
    "SLOT_COUNT",
    "EPOCH_RETAIN",
    "DRAIN_DELAY_S",
    "StaleBoundary",
    "DropReason",
    "MemberState",
    "MemberSession",
    "Epoch",
    "LbInstance",
    "UdpDataPlane",
    "dest_port",
]

log = logging.getLogger(__name__)

SLOT_COUNT = 512
EPOCH_RETAIN = 4
DRAIN_DELAY_S = 5.0


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
    """A registered compute node: coordinates, port range, lifecycle, feedback."""

    session_id: int
    dest_ip: str
    base_port: int
    port_count: int
    state: MemberState = MemberState.ACTIVE
    draining_since: int | None = None  # ns, set on deregister
    weight: float = 1.0
    registered_at: int = 0  # ns
    report: FillReport | None = None  # the last receiver feedback
    reported_at: int = 0  # ns, when the control plane took it


@dataclass(frozen=True)
class Epoch:
    epoch_id: int
    boundary_tick: int
    table: tuple  # SLOT_COUNT entries, session_id or None


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

    members: dict = field(default_factory=dict)  # session_id -> MemberSession
    next_epoch_id: int = 1

    def __post_init__(self):
        self._lock = threading.RLock()
        self._epochs: tuple = ()
        self.reads_total = 0  # forward_packet calls: one per socket read
        self.received_total = 0
        self.forwarded_total = 0
        self.forwarded_by_member: dict = {}
        self.dropped_by_reason: dict = {}
        self.max_forwarded_tick: int | None = None

    @property
    def epochs(self) -> tuple:
        return self._epochs

    # --- forwarding --------------------------------------------------------

    def forward_packet(self, buf: bytes, segment_size: int = 0) -> list:
        """Route one read of ``segment_size``-octet segments; never raises.

        A size of 0, or of at least ``len(buf)``, makes the buffer one
        datagram.  Every segment counts as one datagram received, and the
        call as one read.  Returns the sends as ``(dest, session_id,
        payloads)`` runs, one per run of consecutive forwarded segments
        to one destination, each payload a segment minus its forwarding
        header; a dropped segment shows only in the counters.
        """
        total = len(buf)
        if not 0 < segment_size < total:
            segment_size = total or 1  # one datagram, even an empty one
        runs = []
        run_dest = None
        start = 0
        with self._lock:
            self.reads_total += 1
            while True:
                # A segment routes on its forwarding header alone, and the
                # fragments of one channel share theirs: route a header once,
                # then take every following segment that repeats it.  A tail
                # shorter than a header never matches a full one.
                end = start + segment_size
                dest, sid, tick = self._route(buf, start, end if end < total else total)
                if dest is not None:
                    if dest != run_dest:
                        run_dest, payloads = dest, []
                        runs.append((dest, sid, payloads))
                    payloads.append(buf[start + LB_HEADER_SIZE : end])
                n = 1
                if end < total:
                    head = buf[start : start + LB_HEADER_SIZE]
                    while end < total and buf.startswith(head, end):
                        n += 1
                        if dest is not None:
                            payloads.append(buf[end + LB_HEADER_SIZE : end + segment_size])
                        end += segment_size
                self.received_total += n
                if dest is None:
                    self.dropped_by_reason[sid] = self.dropped_by_reason.get(sid, 0) + n  # sid: the reason
                else:
                    self.forwarded_total += n
                    self.forwarded_by_member[sid] = self.forwarded_by_member.get(sid, 0) + n
                    if self.max_forwarded_tick is None or tick > self.max_forwarded_tick:
                        self.max_forwarded_tick = tick
                if end >= total:
                    return runs
                start = end

    def _route(self, buf, start: int, end: int) -> tuple:
        """The routing rule for the datagram ``buf[start:end]``; counts nothing.

        Returns ``(dest, session_id, tick)``, or ``(None, DropReason,
        tick)``.  The caller holds the instance lock.
        """
        if end - start < LB_HEADER_SIZE:
            return None, DropReason.TRUNCATED, None
        magic, version, _protocol, _reserved, channel, tick = unpack_lb_header(buf, start)
        if magic != LB_MAGIC:
            return None, DropReason.BAD_MAGIC, None
        if version != WIRE_VERSION:
            return None, DropReason.BAD_VERSION, None
        epochs = self._epochs
        if not epochs:
            return None, DropReason.NO_EPOCH, tick
        epoch = epochs[-1]
        if epoch.boundary_tick > tick:
            epoch = epochs[0]  # pre-boundary ticks use the oldest
            for ep in epochs:
                if ep.boundary_tick <= tick:
                    epoch = ep
        sid = epoch.table[tick % self.slot_count]
        if sid is None:
            return None, DropReason.NULL_SLOT, tick
        member = self.members.get(sid)
        if member is None or member.state is MemberState.RETIRED:
            return None, DropReason.UNKNOWN_MEMBER, tick
        return (member.dest_ip, member.base_port + channel % member.port_count), sid, tick  # dest_port

    # --- schedule lifecycle -------------------------------------------------

    def apply_schedule(self, boundary_tick: int, table, epoch_id: int | None = None) -> Epoch:
        """Publish a new epoch atomically; prune beyond the retain window.

        Once traffic has been forwarded, a newest epoch whose boundary is
        still above ``max_forwarded_tick`` has routed no tick, unless it is
        the only one (ticks below every boundary route through the oldest),
        so the new epoch replaces it instead of pushing out the oldest.  At
        most one epoch is then ahead of the traffic, and the epoch that
        traffic routes through stays retained.
        """
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
            epochs = self._epochs
            fwd = self.max_forwarded_tick
            if fwd is not None and len(epochs) > 1 and epochs[-1].boundary_tick > fwd:
                epochs = epochs[:-1]  # supersede the unreached epoch
            epochs += (epoch,)
            if len(epochs) > EPOCH_RETAIN:
                epochs = epochs[len(epochs) - EPOCH_RETAIN :]
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
    """Socket front end for one instance: read, route, send."""

    def __init__(self, instance: LbInstance):
        self.instance = instance
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            netutil.request_buffer(self.sock, "recv", netutil.SOCKET_BUFFER)
            netutil.enable_gro(self.sock)
            self.sock.bind(instance.listen)
        except BaseException:
            self.sock.close()
            raise
        self.instance.listen = self.sock.getsockname()
        self._out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        netutil.request_buffer(self._out, "send", netutil.SOCKET_BUFFER)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple:
        return self.sock.getsockname()

    def start(self):
        self._thread = threading.Thread(target=self._run, name="lb-dataplane", daemon=True)
        self._thread.start()

    def _run(self):
        # The loop is inline, and a lone datagram goes straight to sendto:
        # on a stream of lone datagrams each call level saved costs about
        # as much as recvmsg costs over recv.
        route = self.instance.forward_packet
        sendto = self._out.sendto
        send = netutil.SegmentSender(self._out).send
        recvmsg, ancbufsize, stop = self.sock.recvmsg, netutil.GRO_CMSG_SPACE, self._stop
        netutil.arm_idle_tick(self.sock)
        while not stop.is_set():
            try:
                data, ancdata, _flags, _addr = recvmsg(65535, ancbufsize)
            except BlockingIOError:  # the idle tick: look at the stop flag
                continue
            except OSError:  # closed under us
                return
            for dest, _sid, payloads in route(data, netutil.gro_segment_size(ancdata) if ancdata else 0):
                try:
                    if len(payloads) == 1:
                        sendto(payloads[0], dest)
                    else:
                        send(payloads, dest)
                except OSError as exc:
                    log.warning("send to %s failed: %s", dest, exc)

    def request_stop(self):
        """Ask the loop to stop; it does within one idle tick."""
        self._stop.set()

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self.sock.close()
        self._out.close()
