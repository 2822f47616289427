"""Compute-node receiver: reassembly, aggregation, queue, feedback.

Fragments arrive keyed by (tick, channel).  Each buffer tracks the
exact byte intervals received, so duplicates and overlaps from the
network are detected rather than trusted; a completed buffer covers
[0, total) with no holes.  When every expected channel of a tick has
completed, the event enters a bounded FIFO queue; under overflow the
oldest event is evicted because fresher data is worth more than stale
data to a live analysis.

Queue fill feeds a small PID controller whose output rides fill
reports to the control plane, closing the loop that sizes this node's
share of the slot table.

Every ingested packet lands in exactly one of four counters (applied,
duplicate, stale, malformed), which keeps accounting losslessly
reconcilable against sender and balancer counters.

Per datagram the socket loop makes one ``recv`` and ``ingest_packet``
does one header unpack with an inline version check.  A fragment that
carries a whole channel (offset 0, every octet of the channel) skips
the reassembly buffer; fragments that arrive in order append to the
buffer's last interval, and only a gap or an overlap falls back to the
interval list.  Ticks enter a min-heap when first seen, so the 64-tick
window evicts from its low end instead of rescanning every tick.

The hand-off to the consumer is a ``queue.SimpleQueue``: a completed
event costs one C-level put, and a consumer blocked in ``pop_event``
waits on a C lock, with no Python condition variable in between.
"""

from __future__ import annotations

import errno
import heapq
import logging
import os
import queue
import socket
import threading
import time

from . import netutil
from .wire import RE_HEADER_SIZE, WIRE_VERSION, unpack_re_header
from .controlplane import FillReport
from .sender import Event

__all__ = [
    "REASSEMBLY_TIMEOUT_S",
    "TICK_WINDOW",
    "QUEUE_CAPACITY_DEFAULT",
    "PidController",
    "ReassemblyBuffer",
    "Receiver",
    "UdpReceiver",
]

log = logging.getLogger(__name__)

REASSEMBLY_TIMEOUT_S = 2.0
TICK_WINDOW = 64
QUEUE_CAPACITY_DEFAULT = 256
EXPIRE_INTERVAL_S = 0.25


class PidController:
    """Queue-fill regulator; output is clamped to [-1, 1].

    Positive output asks for more traffic (queue under the setpoint),
    negative output sheds it.  The integral term is clamped so a long
    saturation cannot wind up an unrecoverable backlog of correction.
    """

    def __init__(
        self,
        kp: float = 0.8,
        ki: float = 0.05,
        kd: float = 0.1,
        setpoint: float = 0.5,
        integral_limit: float = 2.0,
        period_s: float = 1.0,
    ):
        self.kp, self.ki, self.kd = kp, ki, kd
        self.setpoint = setpoint
        self.integral_limit = integral_limit
        self.period_s = period_s
        self.integral = 0.0
        self.prev_error = 0.0

    def step(self, fill: float) -> float:
        error = self.setpoint - fill
        self.integral = max(
            -self.integral_limit, min(self.integral_limit, self.integral + error * self.period_s)
        )
        derivative = (error - self.prev_error) / self.period_s
        self.prev_error = error
        out = self.kp * error + self.ki * self.integral + self.kd * derivative
        return max(-1.0, min(1.0, out))

    def reset(self):
        self.integral = 0.0
        self.prev_error = 0.0


class ReassemblyBuffer:
    """One (tick, channel) in flight: received intervals plus bytes."""

    __slots__ = ("tick", "channel", "total_length", "first_seen_ns", "data", "intervals", "poisoned", "got_zero")

    def __init__(
        self,
        tick: int,
        channel: int,
        total_length: int,
        first_seen_ns: int,
        data: bytearray | None = None,
        intervals: list | None = None,
        poisoned: bool = False,
        got_zero: bool = False,
    ):
        self.tick = tick
        self.channel = channel
        self.total_length = total_length
        self.first_seen_ns = first_seen_ns
        self.data = data if data else bytearray(total_length)
        self.intervals = intervals if intervals is not None else []  # sorted disjoint [start, end)
        self.poisoned = poisoned
        self.got_zero = got_zero

    def insert(self, offset: int, chunk: bytes) -> str:
        """Apply one fragment; returns applied, duplicate, or mismatch."""
        if self.total_length == 0:
            if self.got_zero:
                return "duplicate"
            self.got_zero = True
            return "applied"
        start, end = offset, offset + len(chunk)
        intervals = self.intervals
        if not intervals or start >= intervals[-1][1]:
            # in order (or past a gap): nothing can overlap, nothing re-sorts
            self.data[start:end] = chunk
            if intervals and start == intervals[-1][1]:
                intervals[-1] = (intervals[-1][0], end)
            else:
                intervals.append((start, end))
            return "applied"
        overlap_equal = True
        overlaps = False
        for s, e in intervals:
            lo, hi = max(s, start), min(e, end)
            if lo < hi:
                overlaps = True
                if self.data[lo:hi] != chunk[lo - start : hi - start]:
                    overlap_equal = False
                    break
        if overlaps:
            if not overlap_equal:
                self.poisoned = True
                return "mismatch"
            return "duplicate"
        self.data[start:end] = chunk
        intervals.append((start, end))
        intervals.sort()
        merged = [intervals[0]]
        for s, e in intervals[1:]:
            if s == merged[-1][1]:
                merged[-1] = (merged[-1][0], e)
            else:
                merged.append((s, e))
        self.intervals = merged
        return "applied"

    @property
    def complete(self) -> bool:
        if self.poisoned:
            return False
        if self.total_length == 0:
            return self.got_zero
        return self.intervals == [(0, self.total_length)]

    def payload(self) -> bytes:
        return bytes(self.data)


class _BoundedQueue:
    """FIFO of completed events; overflow evicts the oldest.

    Built on ``queue.SimpleQueue``, so a push or a pop is one C call and a
    blocked consumer waits on a C-level lock.  One thread pushes (the
    ingest side holds the receiver's lock); any thread may pop.  A pop
    racing an overflowing push can make that push evict the next-oldest
    event instead of the one just popped; every event still leaves
    exactly once, popped or evicted.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items = queue.SimpleQueue()

    def push(self, event: Event):
        """Append an event; returns the event evicted to make room, or None."""
        items = self._items
        evicted = None
        if items.qsize() >= self.capacity:
            try:
                evicted = items.get_nowait()
            except queue.Empty:  # a consumer emptied it meanwhile
                pass
        items.put(event)
        return evicted

    def pop(self, block: bool = False, timeout: float | None = None):
        """The oldest event, or None when empty (after up to timeout if blocking)."""
        try:
            return self._items.get(block, timeout)
        except queue.Empty:
            return None

    def __len__(self):
        return self._items.qsize()


class Receiver:
    """Reassembly, aggregation, and feedback state for one member."""

    def __init__(
        self,
        expected_channels,
        queue_capacity: int = QUEUE_CAPACITY_DEFAULT,
        pid: PidController | None = None,
        reassembly_timeout_s: float = REASSEMBLY_TIMEOUT_S,
        tick_window: int = TICK_WINDOW,
    ):
        self.expected_channels = frozenset(expected_channels)
        if not self.expected_channels:
            raise ValueError("expected_channels must be non-empty")
        self.queue = _BoundedQueue(queue_capacity)
        self.pid = pid or PidController()
        self.timeout_ns = int(reassembly_timeout_s * 1e9)
        self.tick_window = tick_window

        self.buffers: dict = {}  # (tick, channel) -> ReassemblyBuffer
        self.tick_first_seen: dict = {}  # tick -> ns
        self.tick_channels: dict = {}  # tick -> {channel: payload}
        self.delivered_ticks: set = set()
        self.newest_completed: int | None = None
        self._ticks: list = []  # min-heap of ticks holding any state above

        self.session_id: int | None = None
        self.ready = True
        self.draining = False

        self.counters = {
            "ingested": 0,
            "applied": 0,
            "duplicate": 0,
            "stale": 0,
            "malformed": 0,
            "overlap_mismatch": 0,
            "completed_buffers": 0,
            "events": 0,
            "evicted": 0,
            "timeouts": 0,
            "popped": 0,
            "stale_buffers": 0,
        }
        self.on_event = None  # callable(tick, Event)
        self.on_evicted = None  # callable(tick)
        self.on_timeout = None  # callable(tick)

    # --- ingest -----------------------------------------------------------

    def ingest_packet(self, datagram: bytes, now_ns: int):
        """Apply one balancer-forwarded datagram (reassembly header + slice).

        Returns the completed (tick, channel, payload) when this packet
        finishes a buffer, else None.
        """
        c = self.counters
        c["ingested"] += 1
        if len(datagram) < RE_HEADER_SIZE:
            c["malformed"] += 1
            return None
        word0, channel, offset, total_length, tick = unpack_re_header(datagram)
        if word0 >> 12 != WIRE_VERSION or channel not in self.expected_channels:
            c["malformed"] += 1
            return None
        size = len(datagram) - RE_HEADER_SIZE
        if total_length == 0:
            if offset or size:
                c["malformed"] += 1
                return None
        elif offset + size > total_length or not size:
            c["malformed"] += 1
            return None
        if self.newest_completed is not None and tick < self.newest_completed - self.tick_window:
            c["stale"] += 1
            return None
        if tick in self.delivered_ticks:
            c["duplicate"] += 1
            return None
        key = (tick, channel)
        buf = self.buffers.get(key)
        if buf is None:
            done = self.tick_channels.get(tick)
            if done is not None and channel in done:
                c["duplicate"] += 1  # channel already completed for this tick
                return None
            self._track(tick, now_ns)
            if size == total_length:  # the whole channel in one fragment
                c["applied"] += 1
                return self._complete(tick, channel, datagram[RE_HEADER_SIZE:])
            buf = ReassemblyBuffer(
                tick=tick, channel=channel, total_length=total_length, first_seen_ns=now_ns
            )
            self.buffers[key] = buf
        elif buf.total_length != total_length:
            buf.poisoned = True
            c["overlap_mismatch"] += 1
            c["malformed"] += 1
            return None
        verdict = buf.insert(offset, datagram[RE_HEADER_SIZE:])
        if verdict == "duplicate":
            c["duplicate"] += 1
            return None
        if verdict == "mismatch":
            c["overlap_mismatch"] += 1
            c["malformed"] += 1
            return None
        c["applied"] += 1
        if not buf.complete:
            return None
        del self.buffers[key]
        return self._complete(tick, channel, buf.payload())

    def _track(self, tick: int, now_ns: int):
        """Note a tick's first state and queue it for window eviction."""
        if tick not in self.tick_first_seen:
            self.tick_first_seen[tick] = now_ns
            heapq.heappush(self._ticks, tick)

    def _complete(self, tick: int, channel: int, payload: bytes):
        self.counters["completed_buffers"] += 1
        channels = self.tick_channels.setdefault(tick, {})
        channels[channel] = payload
        if self.newest_completed is None or tick > self.newest_completed:
            self.newest_completed = tick
            self._evict_below_window()
        if len(channels) == len(self.expected_channels):  # keys are expected channels
            self._deliver(tick)
        return (tick, channel, payload)

    def _deliver(self, tick: int):
        event = Event(tick=tick, channels=self.tick_channels.pop(tick))
        self.tick_first_seen.pop(tick, None)
        self.delivered_ticks.add(tick)
        evicted = self.queue.push(event)
        self.counters["events"] += 1
        if evicted is not None:
            self.counters["evicted"] += 1
            if self.on_evicted is not None:
                self.on_evicted(evicted.tick)
        if self.on_event is not None:
            self.on_event(tick, event)

    def _forget(self, tick: int) -> int:
        """Drop a tick's partial state; returns buffers and channel sets dropped."""
        self.tick_first_seen.pop(tick, None)
        dropped = 0 if self.tick_channels.pop(tick, None) is None else 1
        for channel in self.expected_channels:
            if self.buffers.pop((tick, channel), None) is not None:
                dropped += 1
        return dropped

    def _evict_below_window(self):
        floor = self.newest_completed - self.tick_window
        ticks = self._ticks
        while ticks and ticks[0] < floor:
            tick = heapq.heappop(ticks)
            if tick in self.delivered_ticks:
                self.delivered_ticks.discard(tick)  # delivery left no other state
            else:
                self.counters["stale_buffers"] += self._forget(tick)

    def expire(self, now_ns: int) -> list:
        """Abandon ticks stuck past the reassembly timeout."""
        expired = [
            t for t, seen in self.tick_first_seen.items() if now_ns - seen >= self.timeout_ns
        ]
        for tick in expired:
            self._forget(tick)
            self.counters["timeouts"] += 1
            if self.on_timeout is not None:
                self.on_timeout(tick)
            log.debug("tick %d abandoned after reassembly timeout", tick)
        if len(self._ticks) > 2 * (len(self.tick_first_seen) + len(self.delivered_ticks)) + self.tick_window:
            # Expired ticks stay in the heap until the window passes them,
            # which never happens while nothing completes: keep it bounded.
            self._ticks = sorted(self.tick_first_seen.keys() | self.delivered_ticks)
        return expired

    # --- queue and feedback --------------------------------------------------

    def pop_event(self, block: bool = False, timeout: float | None = None):
        event = self.queue.pop(block=block, timeout=timeout)
        if event is not None:
            self.counters["popped"] += 1
        return event

    @property
    def queue_fill(self) -> float:
        return len(self.queue) / self.queue.capacity

    def drain(self):
        self.draining = True

    def make_report(self, now_ns: int) -> FillReport:
        fill = self.queue_fill
        return FillReport(
            session_id=self.session_id if self.session_id is not None else 0,
            queue_fill=fill,
            control_signal=self.pid.step(fill),
            ready=self.ready and not self.draining,
            wallclock_ns=now_ns,
        )


class UdpReceiver:
    """Socket front end: one port per channel group, shared Receiver.

    The ports are consecutive, because the balancer addresses channel c
    at base_port + c mod port_count.  With base_port 0 the first port is
    ephemeral and the rest are bound after it, retrying on a collision.
    """

    BIND_ATTEMPTS = 32

    def __init__(self, core: Receiver, listen_ip: str, base_port: int, port_count: int, rcvbuf: int = 8 << 20):
        if port_count < 1 or port_count & (port_count - 1):
            raise ValueError(f"port_count {port_count} is not a power of two")
        self.core = core
        if base_port:
            self.socks = self._bind_range(listen_ip, base_port, port_count, rcvbuf)
        else:
            self.socks = self._bind_ephemeral_range(listen_ip, port_count, rcvbuf)
        self.base_port = self.socks[0].getsockname()[1]
        self._stop = threading.Event()
        self._threads = []
        self._lock = threading.Lock()  # one ingest at a time into the core

    @staticmethod
    def _bind_range(listen_ip: str, base_port: int, port_count: int, rcvbuf: int) -> list:
        socks = []
        try:
            for i in range(port_count):
                s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                socks.append(s)
                netutil.request_buffer(s, "recv", rcvbuf)
                s.bind((listen_ip, base_port + i))
        except BaseException:
            for s in socks:
                s.close()
            raise
        return socks

    @classmethod
    def _bind_ephemeral_range(cls, listen_ip: str, port_count: int, rcvbuf: int) -> list:
        for _ in range(cls.BIND_ATTEMPTS):
            (first,) = cls._bind_range(listen_ip, 0, 1, rcvbuf)
            base = first.getsockname()[1]
            if base + port_count - 1 > 0xFFFF:
                first.close()
                continue
            try:
                return [first] + cls._bind_range(listen_ip, base + 1, port_count - 1, rcvbuf)
            except OSError as exc:
                first.close()
                if exc.errno != errno.EADDRINUSE:
                    raise
        raise OSError(errno.EADDRINUSE, f"no {port_count} consecutive free ports after {cls.BIND_ATTEMPTS} tries")

    @property
    def ports(self) -> list:
        return [s.getsockname()[1] for s in self.socks]

    def start(self):
        for i, s in enumerate(self.socks):
            t = threading.Thread(target=self._ingest_loop, args=(s, i == 0), daemon=True)
            t.start()
            self._threads.append(t)

    def _ingest_loop(self, sock, housekeeping: bool):
        """Ingest until stopped; the first port's loop also expires stuck ticks."""
        core, lock, clock = self.core, self._lock, time.time_ns
        interval_ns = int(EXPIRE_INTERVAL_S * 1e9)
        next_expire = clock() + interval_ns
        queue = core.queue
        for datagram in netutil.recv_datagrams(sock, self._stop):
            now = clock()
            with lock:
                completed = datagram is not None and core.ingest_packet(datagram, now)
                if housekeeping and now >= next_expire:
                    core.expire(now)
                    next_expire = now + interval_ns
            if completed and len(queue) * 2 > queue.capacity:
                # A burst drains faster than one interpreter switch interval;
                # on a shared CPU the consumer would not run before the queue
                # evicts.  Yielding with the GIL released hands it a turn.
                os.sched_yield()

    def stop(self):
        self._stop.set()
        for t in self._threads:
            t.join(timeout=2.0)
        for s in self.socks:
            s.close()
