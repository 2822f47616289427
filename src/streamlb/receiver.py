"""Compute-node receiver: reassembly, aggregation, queue, feedback.

Per-tick state lives in one map, ``Receiver.ticks``: a record holds the
tick's first-seen time and, per channel, either the completed payload
or the ``ReassemblyBuffer`` still filling.  Each buffer tracks the
exact byte intervals received, so duplicates and overlaps from the
network are detected rather than trusted; a completed buffer covers
[0, total) with no holes.  When every expected channel of a tick has
completed, the event enters a bounded FIFO queue; under overflow the
oldest event is evicted because fresher data is worth more than stale
data to a live analysis.  A delivered tick keeps a shared marker in the
map, so late duplicates are refused, until the 64-tick window passes it.

Every loss of a tick is reported through ``on_dropped(tick, fate)``:
``evicted`` when queue overflow pushes its event out, ``timeout`` when
it outlives the reassembly timeout, and ``stale`` when the window
discards its partial state or refuses a datagram below the window.

Queue fill feeds a small PID controller whose output rides fill
reports to the control plane, closing the loop that sizes this node's
share of the slot table.

Every ingested packet lands in exactly one of four counters (applied,
duplicate, stale, malformed), which keeps accounting losslessly
reconcilable against sender and balancer counters.

One thread serves every port of a ``UdpReceiver``, so the core takes no
lock.

The sockets read with ``UDP_GRO`` set, so a run of datagrams that the
balancer wrote as one GSO write arrives in one read, cut into segments
of the size its control message gives; a read without one is one
datagram.  ``ingest_packet`` is the one ingest entry point, for the
socket loop and the virtual clock alike: each call is one read.  A read
that holds one whole channel of one tick in order completes it with one
join; any other read goes one segment at a time.  Per datagram,
``ingest_packet`` does one header unpack with an inline version check.
A fragment that carries a whole channel (offset 0, every octet of the
channel) skips the reassembly buffer; fragments that arrive in order
append to the buffer's last interval, and only a gap or an overlap
falls back to the interval list.  Ticks enter a min-heap when first
seen, so the window evicts from its low end, exactly under reordering,
instead of rescanning every tick.

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
import select
import socket
import threading
import time

from . import netutil
from .wire import RE_HEADER_SIZE, WIRE_VERSION, pack_re_header, unpack_re_header
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
    """One channel of one tick in flight: received intervals plus bytes."""

    __slots__ = ("total_length", "data", "intervals", "poisoned", "got_zero")

    def __init__(self, total_length: int):
        self.total_length = total_length
        self.data = bytearray(total_length)
        self.intervals = []  # sorted disjoint [start, end)
        self.poisoned = False
        self.got_zero = False

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
    ingest loop); any thread may pop.  A pop racing an overflowing push
    can make that push evict the next-oldest event instead of the one
    just popped; every event still leaves exactly once, popped or
    evicted.
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


class _Tick:
    """One tick in flight: when it was first seen and, per channel, the
    completed payload or the ReassemblyBuffer still filling."""

    __slots__ = ("first_seen_ns", "parts", "done")

    def __init__(self, first_seen_ns: int):
        self.first_seen_ns = first_seen_ns
        self.parts = {}  # channel -> payload bytes | ReassemblyBuffer
        self.done = 0  # channels completed


DELIVERED = object()  # what a delivered tick keeps until the window passes it


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

        self.ticks: dict = {}  # tick -> _Tick, or DELIVERED
        self.newest_completed: int | None = None
        self._heap: list = []  # min-heap of the ticks above, for window eviction

        self.session_id: int | None = None
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
        self.on_dropped = None  # callable(tick, "evicted" | "timeout" | "stale")

    # --- ingest -----------------------------------------------------------

    def ingest_packet(self, datagram: bytes, now_ns: int, segment_size: int = 0):
        """Apply one read of balancer-forwarded datagrams (reassembly header + slice).

        The read is cut into ``segment_size``-octet datagrams, the last of
        which may be shorter; a size of 0, or of at least its length,
        makes it one datagram.  Every datagram counts as ingested.
        Returns the last completed (tick, channel, payload) of the read,
        else None.
        """
        if 0 < segment_size < len(datagram):
            return self._ingest_run(datagram, now_ns, segment_size)
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
            if self.on_dropped is not None:
                self.on_dropped(tick, "stale")
            return None
        rec = self.ticks.get(tick)
        if rec is DELIVERED:
            c["duplicate"] += 1
            return None
        if rec is None:
            rec = self.ticks[tick] = _Tick(now_ns)
            heapq.heappush(self._heap, tick)
        buf = rec.parts.get(channel)
        if buf is None:
            if size == total_length:  # the whole channel in one fragment
                c["applied"] += 1
                return self._complete(tick, rec, channel, datagram[RE_HEADER_SIZE:])
            buf = rec.parts[channel] = ReassemblyBuffer(total_length)
        elif buf.__class__ is not ReassemblyBuffer:
            c["duplicate"] += 1  # channel already completed for this tick
            return None
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
        return self._complete(tick, rec, channel, buf.payload())

    # The single-datagram body for the segments of a run.  Bound here, it
    # stays the plain function when a subclass or a tracer replaces
    # ``ingest_packet``, so a run is one call of that name.
    _ingest_one = ingest_packet

    def _ingest_run(self, buf: bytes, now_ns: int, size: int):
        """Apply a read of ``size``-octet segments, the last possibly shorter.

        A read that holds one whole channel of one tick in order, which
        is what a sender's GSO write of a channel becomes, completes in
        one join; any other goes one segment at a time.
        """
        total = len(buf)
        n = -(-total // size)  # segments
        step = size - RE_HEADER_SIZE  # payload octets of each but the last
        if step > 0:  # so every segment holds a header and payload
            word0, channel, offset, total_length, tick = unpack_re_header(buf)
            rec = self.ticks.get(tick)
            if (
                not offset
                and total_length == total - n * RE_HEADER_SIZE
                and total_length > (n - 1) * step  # the last segment carries payload
                and word0 >> 12 == WIRE_VERSION
                and channel in self.expected_channels
                and (self.newest_completed is None or tick >= self.newest_completed - self.tick_window)
                and rec is not DELIVERED
                and (rec is None or channel not in rec.parts)
            ):
                for k in range(1, n):
                    if not buf.startswith(pack_re_header(word0, channel, k * step, total_length, tick), k * size):
                        break
                else:
                    c = self.counters
                    c["ingested"] += n
                    c["applied"] += n
                    if rec is None:
                        rec = self.ticks[tick] = _Tick(now_ns)
                        heapq.heappush(self._heap, tick)
                    view = memoryview(buf)
                    payload = b"".join([view[s + RE_HEADER_SIZE : s + size] for s in range(0, total, size)])
                    return self._complete(tick, rec, channel, payload)
        done = None
        for s in range(0, total, size):
            done = self._ingest_one(buf[s : s + size], now_ns) or done
        return done

    def _complete(self, tick: int, rec: _Tick, channel: int, payload: bytes):
        c = self.counters
        c["completed_buffers"] += 1
        rec.parts[channel] = payload
        rec.done += 1
        if self.newest_completed is None or tick > self.newest_completed:
            self.newest_completed = tick
            self._evict_below_window()
        if rec.done == len(self.expected_channels):
            self.ticks[tick] = DELIVERED
            event = Event(tick=tick, channels=rec.parts)
            evicted = self.queue.push(event)
            c["events"] += 1
            if evicted is not None:
                c["evicted"] += 1
                if self.on_dropped is not None:
                    self.on_dropped(evicted.tick, "evicted")
            if self.on_event is not None:
                self.on_event(tick, event)
        return (tick, channel, payload)

    def _evict_below_window(self):
        floor = self.newest_completed - self.tick_window
        heap, ticks = self._heap, self.ticks
        while heap and heap[0] < floor:
            tick = heapq.heappop(heap)
            rec = ticks.pop(tick, None)
            if rec is None or rec is DELIVERED:
                continue  # expired already, or delivered
            # partial buffers, plus one for the channels that had completed
            self.counters["stale_buffers"] += len(rec.parts) - rec.done + (rec.done > 0)
            if self.on_dropped is not None:
                self.on_dropped(tick, "stale")

    def expire(self, now_ns: int) -> list:
        """Abandon ticks stuck past the reassembly timeout."""
        ticks = self.ticks
        expired = [
            t for t, rec in ticks.items()
            if rec is not DELIVERED and now_ns - rec.first_seen_ns >= self.timeout_ns
        ]
        for tick in expired:
            del ticks[tick]
            self.counters["timeouts"] += 1
            if self.on_dropped is not None:
                self.on_dropped(tick, "timeout")
            log.debug("tick %d abandoned after reassembly timeout", tick)
        if len(self._heap) > 2 * len(ticks) + self.tick_window:
            # Expired ticks stay in the heap until the window passes them,
            # which never happens while nothing completes: keep it bounded.
            self._heap = sorted(ticks)
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
            ready=not self.draining,
            wallclock_ns=now_ns,
        )


class UdpReceiver:
    """Socket front end: one port per channel group, all read by one thread.

    The ports are consecutive, because the balancer addresses channel c
    at base_port + c mod port_count.  With base_port 0 the first port is
    ephemeral and the rest are bound after it, retrying on a collision.
    """

    BIND_ATTEMPTS = 32

    def __init__(self, core: Receiver, listen_ip: str, base_port: int, port_count: int):
        if port_count < 1 or port_count & (port_count - 1):
            raise ValueError(f"port_count {port_count} is not a power of two")
        self.core = core
        if base_port:
            self.socks = self._bind_range(listen_ip, base_port, port_count)
        else:
            self.socks = self._bind_ephemeral_range(listen_ip, port_count)
        self.base_port = self.socks[0].getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._ingest_loop, name="lb-recv-ingest", daemon=True)

    @staticmethod
    def _bind_range(listen_ip: str, base_port: int, port_count: int) -> list:
        socks = []
        try:
            for i in range(port_count):
                s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                socks.append(s)
                netutil.request_buffer(s, "recv", netutil.SOCKET_BUFFER)
                netutil.enable_gro(s)
                s.bind((listen_ip, base_port + i))
        except BaseException:
            for s in socks:
                s.close()
            raise
        return socks

    @classmethod
    def _bind_ephemeral_range(cls, listen_ip: str, port_count: int) -> list:
        for _ in range(cls.BIND_ATTEMPTS):
            (first,) = cls._bind_range(listen_ip, 0, 1)
            base = first.getsockname()[1]
            if base + port_count - 1 > 0xFFFF:
                first.close()
                continue
            try:
                return [first] + cls._bind_range(listen_ip, base + 1, port_count - 1)
            except OSError as exc:
                first.close()
                if exc.errno != errno.EADDRINUSE:
                    raise
        raise OSError(errno.EADDRINUSE, f"no {port_count} consecutive free ports after {cls.BIND_ATTEMPTS} tries")

    @property
    def ports(self) -> list:
        return [s.getsockname()[1] for s in self.socks]

    def start(self):
        self._thread.start()

    def _ingest_loop(self):
        """Until stopped, read once from each ready port per wake; expire stuck ticks on schedule."""
        # The loop is inline: on a stream of lone datagrams each call level
        # saved wins back some of what the poll and recvmsg cost over recv.
        core, clock, stop = self.core, time.time_ns, self._stop
        ingest, queue = core.ingest_packet, core.queue
        ancbufsize, segment_size = netutil.GRO_CMSG_SPACE, netutil.gro_segment_size
        poller, reads = select.poll(), {}  # fd -> that socket's recvmsg
        for sock in self.socks:
            sock.setblocking(False)
            poller.register(sock, select.POLLIN)
            reads[sock.fileno()] = sock.recvmsg
        poll, tick_ms = poller.poll, netutil.IDLE_TICK_S * 1e3
        interval_ns = int(EXPIRE_INTERVAL_S * 1e9)
        next_expire = clock() + interval_ns
        while not stop.is_set():
            ready = poll(tick_ms)
            now = clock()
            completed = None
            for fd, _mask in ready:
                try:
                    data, ancdata, _flags, _addr = reads[fd](65535, ancbufsize)
                except BlockingIOError:  # ready, yet nothing to read
                    continue
                except OSError:  # closed under us
                    return
                completed = ingest(data, now, segment_size(ancdata) if ancdata else 0) or completed
            if now >= next_expire:
                core.expire(now)
                next_expire = now + interval_ns
            if completed and len(queue) * 2 > queue.capacity:
                # A burst drains faster than one interpreter switch interval;
                # on a shared CPU the consumer would not run before the queue
                # evicts.  Yielding with the GIL released hands it a turn.
                os.sched_yield()

    def stop(self):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)
        for s in self.socks:
            s.close()
