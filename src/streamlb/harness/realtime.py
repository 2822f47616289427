"""Loopback fabric over real sockets: throughput, not simulation.

Runs lb-run's own balancer on 127.0.0.1, control pass included, and
feeds it as a deployment does: members register over the control
protocol and report their fill once a second, and the sender runs the
sync heartbeat beside the paced stream.  The virtual-clock harness
answers "is the protocol right"; this one answers "how fast is this
implementation", so it takes no impairment profile: shaping traffic here
would only measure the shaper.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field

from ..balancer import Balancer
from ..control import ControlClient
from ..controlplane import ControlPlane
from ..receiver import Receiver, UdpReceiver
from ..sender import SharedTickState, emit_sync_loop, stream_events, synth_events

__all__ = ["RealtimeResult", "run_realtime"]

# lb-run's config for one instance with every address on loopback.
LOOPBACK_CONFIG = {
    "control": "127.0.0.1:0",
    "metrics": "127.0.0.1:0",
    "instances": [{"instance_id": 0, "listen": "127.0.0.1:0", "sync_listen": "127.0.0.1:0"}],
}
# How long delivery may trail the last send before the run ends anyway.
DRAIN_TIMEOUT_S = 10.0


@dataclass
class MemberResult:
    events: int = 0
    payload_octets: int = 0
    counters: dict = field(default_factory=dict)


@dataclass
class RealtimeResult:
    events_sent: int
    fragments_sent: int
    wire_octets_sent: int
    send_duration_s: float
    wall_duration_s: float
    events_delivered: int
    payload_octets_delivered: int
    dp_counters: dict
    members: dict  # name -> MemberResult

    @property
    def goodput_mbps(self) -> float:  # the wall clock spans the stream, never 0
        return self.payload_octets_delivered * 8 / self.wall_duration_s / 1e6

    @property
    def offered_mbps(self) -> float:
        if self.send_duration_s <= 0:
            return 0.0
        return self.wire_octets_sent * 8 / self.send_duration_s / 1e6

    @property
    def delivered_fraction(self) -> float:
        return self.events_delivered / self.events_sent if self.events_sent else 0.0

    @property
    def dp_drop_fraction(self) -> float:
        received = self.dp_counters.get("received", 0)
        dropped = self.dp_counters.get("dropped", 0)
        return dropped / received if received else 0.0

    def to_dict(self) -> dict:
        rates = {"goodput_mbps": 3, "offered_mbps": 3, "delivered_fraction": 6, "dp_drop_fraction": 8}
        return {**asdict(self), **{k: round(getattr(self, k), n) for k, n in rates.items()}}


def _consume(rx: Receiver, result: MemberResult, halt: threading.Event):
    """Pop a receiver's queue as fast as it can and keep score."""
    while not halt.is_set():
        event = rx.pop_event(block=True, timeout=0.1)
        if event is not None:
            result.events += 1
            result.payload_octets += sum(len(p) for p in event.channels.values())


def _report_fill(client: ControlClient, fronts: list, stop: threading.Event):
    """Send every member's fill report once a second, as lb-recv does."""
    while not stop.wait(1.0):
        for front in fronts:
            client.report(front.core.make_report(time.time_ns()))


def run_realtime(
    count: int,
    size: int,
    rate_hz: float = 0.0,
    channels: int = 1,
    mtu: int = 1400,
    members: list | None = None,  # (name, weight, queue_capacity) triples
    seed: int = 0,
    source_id: int = 1,
) -> RealtimeResult:
    """Push a synthetic stream through lb-run's balancer on loopback and measure it."""
    members = members or [("m1", 1.0, 65536)]
    lb = Balancer(ControlPlane(), LOOPBACK_CONFIG)
    dp = lb.dataplanes[0]
    iid = dp.instance.instance_id
    shared, stop = SharedTickState(), threading.Event()
    control_loop = threading.Thread(target=lb.run, name="control-loop", daemon=True)
    control_loop.start()  # it serves the control connection below
    threads, fronts, results, client = [], [], {}, None
    try:
        lb.start()
        client = ControlClient(lb.control.address)
        for name, weight, capacity in members:
            rx = Receiver(expected_channels=range(channels), queue_capacity=capacity)
            fronts.append(UdpReceiver(rx, "127.0.0.1", base_port=0, port_count=1))
            fronts[-1].start()
            rx.session_id = client.register(iid, "127.0.0.1", fronts[-1].base_port, 1, weight=weight)
            results[name] = MemberResult()
            threads.append(threading.Thread(target=_consume, args=(rx, results[name], stop), daemon=True))
        sync = tuple(lb.endpoints()["instances"][str(iid)]["sync"])
        threads.append(threading.Thread(target=emit_sync_loop, args=(sync, source_id, shared, stop), daemon=True))
        threads.append(threading.Thread(target=_report_fill, args=(client, fronts, stop), daemon=True))
        for thread in threads:
            thread.start()

        t0 = time.monotonic()
        stats = stream_events(
            synth_events(count, channels, size, seed=seed), dp.address, rate_hz, mtu, shared
        )

        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        seen, last_change = -1, time.monotonic()
        while time.monotonic() < deadline:
            total = sum(front.core.counters["events"] for front in fronts)
            if total != seen:
                seen, last_change = total, time.monotonic()
            elif total >= count or time.monotonic() - last_change > 1.0:
                break
            time.sleep(0.05)
        wall = time.monotonic() - t0
    finally:
        stop.set()
        for thread in threads:  # the fill reporter may be mid-call, which the loop still answers
            if thread.is_alive():
                thread.join(timeout=2.0)
        lb.stop()
        control_loop.join(timeout=2.0)
        for front in fronts:
            front.stop()
        if client is not None:
            client.close()
        lb.close()

    for front, result in zip(fronts, results.values()):
        result.counters = dict(front.core.counters)
    return RealtimeResult(
        events_sent=stats.events,
        fragments_sent=stats.fragments,
        wire_octets_sent=stats.octets,
        send_duration_s=stats.duration_s,
        wall_duration_s=wall,
        events_delivered=sum(m.events for m in results.values()),
        payload_octets_delivered=sum(m.payload_octets for m in results.values()),
        dp_counters=dp.instance.counters(),
        members=results,
    )
