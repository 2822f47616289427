"""Virtual-clock scenarios over the whole fabric, with exact accounting.

A scenario wires synthetic senders, one balancer instance, and a set of
receivers through a pair of impaired hops, then drives everything from
a discrete-event loop.  Real wallclock never enters the run: the
control plane, reassembly timeouts, and pacing all read the simulated
clock, so a scenario with a fixed seed replays identically and a
ten-second story finishes in well under a second of real time.

Every emitted tick ends the run with a terminal fate (delivered,
evicted, timeout, dp_dropped, lost, ...), so assertions are exact
counts, not sampled estimates.  The per-second cadence inside a
simulated second is fixed: sender syncs at +0.05, receiver fill
reports at +0.30, the control pass at +0.50.

Ordering contract: events run in virtual-time order, and events due at
the same nanosecond run in the order they were scheduled.  The loop
keeps that order cheaply.  Work scheduled for the current instant goes
to a FIFO that runs after the heap entries due now (those were all
scheduled earlier); only future work enters the heap.  A sender's emits
are not queued up front: its block of tie-break numbers is reserved
when it starts, and each emit queues the next one under its reserved
number, so the heap holds one emit per sender and every emit keeps the
place it would have had among the rest.
"""

from __future__ import annotations

import heapq
import json
import logging
import os
import tempfile
from collections import Counter, deque
from dataclasses import dataclass, field

from ..controlplane import ControlPlane, UnknownSession
from ..dataplane import Drop
from ..receiver import QUEUE_CAPACITY_DEFAULT, PidController, Receiver
from ..sender import Event, fragment_event
from ..wire import SyncMessage
from .impair import ImpairHop, ImpairmentProfile, derive_rng

__all__ = [
    "Scenario",
    "MemberSpec",
    "SenderSpec",
    "ScenarioError",
    "ScenarioTimeout",
    "ScenarioReport",
    "run_scenario",
    "evaluate_assertions",
]

log = logging.getLogger(__name__)

S = 1_000_000_000

SYNC_PHASE_S = 0.05
REPORT_PHASE_S = 0.30
CONTROL_PHASE_S = 0.50
EXPIRE_PERIOD_S = 0.25
TAIL_S = 4.0


class ScenarioError(ValueError):
    pass


class ScenarioTimeout(RuntimeError):
    """The event budget ran out; the scenario never quiesced."""


@dataclass
class MemberSpec:
    name: str
    weight: float = 1.0
    service_rate_hz: float = 0.0  # 0 = consume immediately on delivery
    channels: tuple = (0,)
    queue_capacity: int = QUEUE_CAPACITY_DEFAULT
    port_count: int = 2

    @classmethod
    def from_dict(cls, data: dict) -> "MemberSpec":
        d = dict(data)
        if "channels" in d:
            d["channels"] = tuple(d["channels"])
        return cls(**d)


@dataclass
class SenderSpec:
    source_id: int
    rate_hz: float
    count: int
    channels: tuple = (0,)
    size: int = 1000
    start_s: float = 1.0
    start_tick: int = 0
    mtu: int = 1400

    @classmethod
    def from_dict(cls, data: dict) -> "SenderSpec":
        d = dict(data)
        if "channels" in d:
            d["channels"] = tuple(d["channels"])
        return cls(**d)


@dataclass
class Scenario:
    name: str = "scenario"
    seed: int = 0
    duration_s: float = 10.0
    tail_s: float = TAIL_S
    members: list = field(default_factory=list)  # MemberSpec
    senders: list = field(default_factory=list)  # SenderSpec
    timeline: list = field(default_factory=list)  # raw action dicts
    impair_in: ImpairmentProfile = field(default_factory=ImpairmentProfile)
    impair_out: ImpairmentProfile = field(default_factory=ImpairmentProfile)
    pid: dict = field(default_factory=dict)  # PidController overrides
    assertions: dict = field(default_factory=dict)
    max_events: int = 50_000_000

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        d = dict(data)
        d["members"] = [MemberSpec.from_dict(m) for m in d.get("members", [])]
        d["senders"] = [SenderSpec.from_dict(s) for s in d.get("senders", [])]
        for key in ("impair_in", "impair_out"):
            if key in d:
                d[key] = ImpairmentProfile.from_dict(d[key])
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class TickFate:
    """Everything that happened to one event tick."""

    tick: int
    fragments: int = 0
    lost: int = 0
    dp_dropped: int = 0
    dests: set = field(default_factory=set)  # session ids that got fragments
    delivered_to: list = field(default_factory=list)  # member names, in order
    evicted: bool = False
    timeout: bool = False

    def resolve(self) -> str:
        if len(self.delivered_to) > 1:
            return "multi_delivered"
        if self.evicted:
            return "evicted"
        if self.delivered_to:
            return "delivered"
        if self.dp_dropped:
            return "dp_dropped"
        if self.lost:
            return "lost"
        if self.timeout:
            return "timeout"
        return "unresolved"


@dataclass
class ScenarioReport:
    name: str
    seed: int
    duration_s: float
    events_sent: int = 0
    fragments_sent: int = 0
    fates: dict = field(default_factory=dict)  # fate -> count
    ledger: dict = field(default_factory=dict)  # tick -> fate
    splits: list = field(default_factory=list)  # ticks seen at >1 session
    delivered_by_member: dict = field(default_factory=dict)
    consumed_by_member: dict = field(default_factory=dict)
    deliveries: list = field(default_factory=list)  # (t_s, tick, member)
    fills: list = field(default_factory=list)  # (t_s, {member: fill})
    epoch_log: list = field(default_factory=list)
    boundary_violations: list = field(default_factory=list)
    exactly_once_violations: list = field(default_factory=list)
    dp_counters: dict = field(default_factory=dict)
    receiver_counters: dict = field(default_factory=dict)
    hop_counters: dict = field(default_factory=dict)
    cp_restarts: int = 0

    @property
    def delivered_total(self) -> int:
        return self.fates.get("delivered", 0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "events_sent": self.events_sent,
            "fragments_sent": self.fragments_sent,
            "fates": dict(self.fates),
            "splits": list(self.splits),
            "delivered_by_member": dict(self.delivered_by_member),
            "consumed_by_member": dict(self.consumed_by_member),
            "fills": [[t, dict(snap)] for t, snap in self.fills],
            "epoch_log": list(self.epoch_log),
            "boundary_violations": list(self.boundary_violations),
            "exactly_once_violations": list(self.exactly_once_violations),
            "dp_counters": self.dp_counters,
            "receiver_counters": self.receiver_counters,
            "hop_counters": self.hop_counters,
            "cp_restarts": self.cp_restarts,
            "ledger": {str(t): f for t, f in self.ledger.items()},
        }


@dataclass
class _SimMember:
    spec: MemberSpec
    rx: Receiver
    session_id: int | None = None
    reporting: bool = True
    consumed: int = 0
    pump_gen: int = 0


@dataclass
class _SimSender:
    spec: SenderSpec
    rng: object = None
    start_ns: int = 0
    seq: int = 0  # emit i >= 1 enters the heap with tie-break number seq + i
    latest_tick: int | None = None
    emitted: int = 0
    emitted_at_sync: int = 0
    stopped: bool = False


class _Run:
    def __init__(self, sc: Scenario):
        self.sc = sc
        self._validate(sc)
        self._heap: list = []  # (t_ns, seq, fn, args), future work only
        self._fifo: deque = deque()  # (fn, args) due at _instant, in scheduling order
        self._instant = None  # the virtual ns the loop is at; None while setting up
        self._seq = 0
        self.now_ns = 0
        self._total_ns = int((sc.duration_s + sc.tail_s) * S)
        self._budget = sc.max_events

        self._tmp = tempfile.TemporaryDirectory(prefix="lbscenario.")
        self.snapshot_path = os.path.join(self._tmp.name, "cp.snap")
        self.cp = ControlPlane(clock=self._clock, snapshot_path=self.snapshot_path)
        self.cp.epoch_listener = self._on_epoch
        self.iid = self.cp.reserve_instance(listen=("sim", 0))

        self.hop_in = ImpairHop(sc.impair_in, seed=sc.seed, label="hop-in")
        self.hop_out = ImpairHop(sc.impair_out, seed=sc.seed, label="hop-out")

        self.members: dict = {}  # name -> _SimMember
        self.by_session: dict = {}  # session_id -> _SimMember
        self.senders: list = []
        self.fates: dict = {}  # tick -> TickFate

        self.report = ScenarioReport(name=sc.name, seed=sc.seed, duration_s=sc.duration_s)

    @staticmethod
    def _validate(sc: Scenario):
        if not sc.members:
            raise ScenarioError("scenario needs at least one member")
        starts_later = any(e.get("action") == "start_sender" for e in sc.timeline)
        if not sc.senders and not starts_later:
            raise ScenarioError("scenario needs at least one sender")
        names = [m.name for m in sc.members]
        if len(set(names)) != len(names):
            raise ScenarioError("duplicate member names")
        sources = [s.source_id for s in sc.senders]
        if len(set(sources)) != len(sources):
            raise ScenarioError("duplicate sender source ids")
        for s in sc.senders:
            if s.rate_hz <= 0:
                raise ScenarioError(f"sender {s.source_id}: rate_hz must be > 0")
            end = s.start_s + s.count / s.rate_hz
            if end > sc.duration_s:
                raise ScenarioError(
                    f"sender {s.source_id} runs until {end:.2f}s, past duration {sc.duration_s}s"
                )

    # --- event loop ---------------------------------------------------------

    def _clock(self) -> int:
        return self.now_ns

    def _at(self, t_ns: int, fn, *args):
        if t_ns > self._total_ns:
            return  # nothing persists past the tail; pumps and phases die here
        if t_ns == self._instant:
            self._fifo.append((fn, args))
        else:
            self._seq += 1
            heapq.heappush(self._heap, (t_ns, self._seq, fn, args))

    def run(self) -> ScenarioReport:
        try:
            self._schedule()
            self._loop()
            return self._finish()
        finally:
            self._tmp.cleanup()

    def _schedule(self):
        """Members, per-second phases, senders and the timeline, before t=0 runs."""
        sc = self.sc
        for mspec in sc.members:
            self._add_member(mspec)
        horizon = int(sc.duration_s + sc.tail_s)
        for k in range(horizon + 1):
            self._at(int((k + SYNC_PHASE_S) * S), self._sync_phase)
            self._at(int((k + REPORT_PHASE_S) * S), self._report_phase)
            self._at(int((k + CONTROL_PHASE_S) * S), self._control_phase)
        t = EXPIRE_PERIOD_S / 2
        while t <= sc.duration_s + sc.tail_s:
            self._at(int(t * S), self._expire_phase)
            t += EXPIRE_PERIOD_S
        for sspec in sc.senders:
            self._start_sender(sspec, int(sspec.start_s * S))
        for entry in sc.timeline:
            if "at_s" not in entry or "action" not in entry:
                raise ScenarioError(f"timeline entry needs at_s and action: {entry}")
            self._at(int(entry["at_s"] * S), self._timeline_action, entry)
        self._at(int(sc.duration_s * S), self._flush_hops)
        self._at(int((sc.duration_s + 1.0) * S), self._flush_hops)

    def _loop(self):
        """Run every event; each one, heap or FIFO, spends one unit of budget."""
        heap, fifo = self._heap, self._fifo
        heappop, popleft = heapq.heappop, fifo.popleft
        budget = self._budget
        now = None
        while True:
            if fifo and not (heap and heap[0][0] == now):
                fn, args = popleft()
            elif heap:
                t_ns, _, fn, args = heappop(heap)
                if t_ns != now:  # time moves only once this instant's FIFO is empty
                    now = self.now_ns = self._instant = t_ns
            else:
                return
            budget -= 1
            if budget <= 0:
                raise ScenarioTimeout(f"{self.sc.name}: event budget exhausted at t={now / S:.3f}s")
            fn(*args)

    # --- membership ------------------------------------------------------------

    def _add_member(self, spec: MemberSpec):
        if spec.name in self.members:
            raise ScenarioError(f"member {spec.name} already exists")
        rx = Receiver(
            expected_channels=spec.channels,
            queue_capacity=spec.queue_capacity,
            pid=PidController(**self.sc.pid),
        )
        m = _SimMember(spec=spec, rx=rx)
        m.session_id = self.cp.register_member(
            self.iid,
            dest_ip=f"10.0.0.{len(self.members) + 1}",
            base_port=20000,
            port_count=spec.port_count,
            initial_weight=spec.weight,
        )
        rx.session_id = m.session_id
        rx.on_event = lambda tick, event, m=m: self._on_delivered(m, tick)
        rx.on_evicted = lambda tick: self._mark(tick, "evicted")
        rx.on_timeout = lambda tick: self._mark(tick, "timeout")
        self.members[spec.name] = m
        self.by_session[m.session_id] = m
        if spec.service_rate_hz > 0:
            self._at(self.now_ns + int(S / spec.service_rate_hz), self._pump, m, m.pump_gen)

    def _mark(self, tick: int, flag: str):
        fate = self.fates.get(tick)
        if fate is not None:
            setattr(fate, flag, True)

    def _on_delivered(self, m: _SimMember, tick: int):
        fate = self.fates.get(tick)
        if fate is None:
            fate = self.fates[tick] = TickFate(tick=tick)
        fate.delivered_to.append(m.spec.name)
        if len(fate.delivered_to) > 1:
            self.report.exactly_once_violations.append(tick)
        self.report.deliveries.append((self.now_ns / S, tick, m.spec.name))
        if m.spec.service_rate_hz == 0:
            self._at(self.now_ns, self._pop_now, m)

    def _pop_now(self, m: _SimMember):
        if m.rx.pop_event() is not None:
            m.consumed += 1

    def _pump(self, m: _SimMember, gen: int):
        if m.pump_gen != gen:
            return
        if len(m.rx.queue) and m.rx.pop_event() is not None:
            m.consumed += 1
        rate = m.spec.service_rate_hz
        if rate > 0:
            self._at(self.now_ns + int(S / rate), self._pump, m, gen)

    # --- per-second phases --------------------------------------------------------

    def _sync_phase(self):
        for sn in self.senders:
            if sn.latest_tick is None:
                continue
            rate = sn.emitted - sn.emitted_at_sync
            sn.emitted_at_sync = sn.emitted
            self.cp.ingest_sync(
                self.iid,
                SyncMessage(
                    source_id=sn.spec.source_id,
                    latest_tick=sn.latest_tick,
                    event_rate_hz=max(0, rate),
                    wallclock_ns=self.now_ns,
                ),
            )

    def _report_phase(self):
        snap = {}
        for m in self.members.values():
            if not m.reporting:
                continue
            snap[m.spec.name] = m.rx.queue_fill
            try:
                self.cp.ingest_fill_report(m.rx.make_report(self.now_ns))
            except UnknownSession:
                m.reporting = False  # session retired; stop talking to the CP
        self.report.fills.append((self.now_ns / S, snap))

    def _control_phase(self):
        self.cp.control_tick(now_ns=self.now_ns)

    def _expire_phase(self):
        for m in self.members.values():
            m.rx.expire(self.now_ns)

    def _on_epoch(self, iid, epoch, max_forwarded_before):
        names = {}
        for sid in epoch.table:
            if sid is None:
                continue
            member = self.by_session.get(sid)
            key = member.spec.name if member else str(sid)
            names[key] = names.get(key, 0) + 1
        entry = {
            "t_s": self.now_ns / S,
            "epoch_id": epoch.epoch_id,
            "boundary_tick": epoch.boundary_tick,
            "slots": names,
            "max_forwarded_before": max_forwarded_before,
        }
        self.report.epoch_log.append(entry)
        if max_forwarded_before is not None and epoch.boundary_tick <= max_forwarded_before:
            self.report.boundary_violations.append(entry)

    # --- traffic ------------------------------------------------------------------

    def _start_sender(self, spec: SenderSpec, start_ns: int):
        """Queue emit 0 and reserve the tie-break numbers of the rest."""
        sn = _SimSender(spec=spec, rng=derive_rng(self.sc.seed, f"sender:{spec.source_id}"), start_ns=start_ns)
        self.senders.append(sn)
        if spec.count:
            self._at(start_ns, self._emit, sn, 0)
            sn.seq = self._seq
            self._seq += spec.count - 1

    def _emit(self, sn: _SimSender, i: int):
        """Queue emit i+1, then send event i."""
        spec = sn.spec
        nxt = i + 1
        if nxt < spec.count:
            # Into the heap even when due now: its reserved number precedes
            # everything still pending at this instant, as it would have.
            t_ns = sn.start_ns + int(nxt * S / spec.rate_hz)
            if t_ns <= self._total_ns:
                heapq.heappush(self._heap, (t_ns, sn.seq + nxt, self._emit, (sn, nxt)))
        self._send_event(sn, i)

    def _send_event(self, sn: _SimSender, i: int):
        if sn.stopped:
            return
        spec = sn.spec
        tick = spec.start_tick + i
        event = Event(
            tick=tick, channels={c: sn.rng.randbytes(spec.size) for c in spec.channels}
        )
        sn.latest_tick = tick  # announce before the bytes leave
        sn.emitted += 1
        fate = self.fates.setdefault(tick, TickFate(tick=tick))
        datagrams = fragment_event(event, spec.mtu)
        fate.fragments += len(datagrams)
        self.report.fragments_sent += len(datagrams)
        submit, at, route, now = self.hop_in.submit, self._at, self._dp_route, self.now_ns
        for dg in datagrams:
            deliveries, dropped = submit(now, (tick, dg))
            if dropped:
                fate.lost += len(dropped)
            for t_d, (tk, pkt) in deliveries:
                at(t_d, route, tk, pkt)

    def _dp_route(self, tick: int, datagram: bytes):
        action = self.cp.instances[self.iid].forward_packet(datagram)
        fate = self.fates[tick]
        if isinstance(action, Drop):
            fate.dp_dropped += 1
            return
        sid = action.session_id
        fate.dests.add(sid)
        deliveries, dropped = self.hop_out.submit(self.now_ns, (tick, action.payload, sid))
        if dropped:
            fate.lost += len(dropped)
        for t_d, (tk, payload, sid) in deliveries:
            self._at(t_d, self._rx_ingest, tk, payload, sid)

    def _rx_ingest(self, tick: int, payload: bytes, session_id: int):
        member = self.by_session.get(session_id)
        if member is not None:
            member.rx.ingest_packet(payload, self.now_ns)

    def _flush_hops(self):
        for hop, then in ((self.hop_in, self._dp_route), (self.hop_out, self._rx_ingest)):
            for t_d, pkt in hop.flush(self.now_ns):
                self._at(t_d, then, *pkt)

    # --- timeline actions ------------------------------------------------------------

    def _timeline_action(self, entry: dict):
        action = entry["action"]
        if action == "register":
            self._add_member(MemberSpec.from_dict(entry["member"]))
        elif action == "deregister":
            m = self._named(entry["name"])
            self.cp.deregister_member(m.session_id)
            m.rx.drain()
        elif action == "start_sender":
            spec = SenderSpec.from_dict({**entry["sender"], "start_s": self.now_ns / S})
            if any(sn.spec.source_id == spec.source_id for sn in self.senders):
                raise ScenarioError(f"start_sender: source_id {spec.source_id} already running")
            if spec.start_s + spec.count / spec.rate_hz > self.sc.duration_s:
                raise ScenarioError(f"start_sender: sender {spec.source_id} runs past duration")
            self._start_sender(spec, self.now_ns)
        elif action in ("stop", "stop_sender"):
            for sn in self.senders:
                if sn.spec.source_id == entry["source_id"]:
                    sn.stopped = True
                    break
            else:
                raise ScenarioError(f"{action}: unknown source_id {entry['source_id']}")
        elif action == "set_service_rate":
            m = self._named(entry["name"])
            m.spec.service_rate_hz = float(entry["rate_hz"])
            m.pump_gen += 1
            if m.spec.service_rate_hz > 0:
                self._at(self.now_ns + int(S / m.spec.service_rate_hz), self._pump, m, m.pump_gen)
            else:
                self._at(self.now_ns, self._drain_queue, m)
        elif action == "restart_cp":
            self._restart_cp()
        else:
            raise ScenarioError(f"unknown timeline action {action!r}")

    def _named(self, name: str) -> _SimMember:
        try:
            return self.members[name]
        except KeyError:
            raise ScenarioError(f"unknown member {name!r}") from None

    def _drain_queue(self, m: _SimMember):
        while m.rx.pop_event() is not None:
            m.consumed += 1

    def _restart_cp(self):
        """Crash-and-recover: drop live state, reload the last snapshot."""
        self.cp = ControlPlane.restore_state(self.snapshot_path, clock=self._clock)
        self.cp.epoch_listener = self._on_epoch
        if self.iid not in self.cp.instances:
            raise ScenarioError("restart_cp before the first snapshot was persisted")
        self.report.cp_restarts += 1

    # --- wrap-up ----------------------------------------------------------------------

    def _finish(self) -> ScenarioReport:
        rep = self.report
        fates = Counter()
        for tick in sorted(self.fates):
            fate = self.fates[tick]
            final = fate.resolve()
            rep.ledger[tick] = final
            fates[final] += 1
            if len(fate.dests) > 1:
                rep.splits.append(tick)
            if final == "delivered":
                name = fate.delivered_to[0]
                rep.delivered_by_member[name] = rep.delivered_by_member.get(name, 0) + 1
        rep.fates = dict(fates)
        rep.events_sent = len(self.fates)
        rep.consumed_by_member = {n: m.consumed for n, m in self.members.items()}
        rep.dp_counters = self.cp.instances[self.iid].counters()
        rep.receiver_counters = {n: dict(m.rx.counters) for n, m in self.members.items()}
        rep.hop_counters = {
            "in": {"submitted": self.hop_in.submitted, "lost": self.hop_in.lost, "duplicated": self.hop_in.duplicated},
            "out": {"submitted": self.hop_out.submitted, "lost": self.hop_out.lost, "duplicated": self.hop_out.duplicated},
        }
        return rep


def run_scenario(scenario, seed: int | None = None) -> ScenarioReport:
    """Run one scenario (Scenario, dict, or path) to completion."""
    if isinstance(scenario, (str, os.PathLike)):
        scenario = Scenario.from_file(scenario)
    elif isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    if seed is not None:
        scenario = Scenario(**{**scenario.__dict__, "seed": seed})
    return _Run(scenario).run()


# --- assertions -------------------------------------------------------------------


def _shares(report: ScenarioReport) -> dict:
    total = sum(report.delivered_by_member.values())
    if total == 0:
        return {}
    return {n: c / total for n, c in report.delivered_by_member.items()}


def _first_converged(samples: list, setpoint: float, tol: float) -> int | None:
    """Index after which every sample stays within tol of setpoint."""
    idx = None
    for i, fill in enumerate(samples):
        if abs(fill - setpoint) < tol:
            if idx is None:
                idx = i
        else:
            idx = None
    return idx


def evaluate_assertions(report: ScenarioReport, assertions: dict | None = None) -> list:
    """Check a report against scenario assertions; returns result dicts."""
    checks = assertions if assertions is not None else {}
    results = []

    def add(name, ok, detail):
        results.append({"assertion": name, "ok": bool(ok), "detail": detail})

    for name, arg in checks.items():
        if name == "zero_loss":
            bad = {f: n for f, n in report.fates.items() if f != "delivered"}
            add(name, not bad, f"non-delivered fates: {bad}" if bad else "all events delivered")
        elif name == "no_splits":
            add(name, not report.splits, f"{len(report.splits)} split events")
        elif name == "boundary_safety":
            add(name, not report.boundary_violations, f"{len(report.boundary_violations)} violations")
        elif name == "exactly_once":
            add(name, not report.exactly_once_violations, f"{len(report.exactly_once_violations)} double deliveries")
        elif name == "max_fates":
            bad = {f: report.fates.get(f, 0) for f, cap in arg.items() if report.fates.get(f, 0) > cap}
            add(name, not bad, f"over budget: {bad}" if bad else "within budget")
        elif name == "min_delivered_fraction":
            frac = report.delivered_total / report.events_sent if report.events_sent else 0.0
            add(name, frac >= arg, f"delivered {frac:.4f} of events (need >= {arg})")
        elif name == "delivery_shares":
            tol = arg.get("tol_pp", 2.0) / 100.0
            shares = _shares(report)
            bad = {
                n: round(shares.get(n, 0.0), 4)
                for n, want in arg["shares"].items()
                if abs(shares.get(n, 0.0) - want) > tol
            }
            add(name, not bad, f"shares {dict((n, round(s, 4)) for n, s in shares.items())}" + (f", out of tolerance: {bad}" if bad else ""))
        elif name == "delivery_ratio":
            after = arg.get("after_s", 0.0)
            num = sum(1 for t, _, n in report.deliveries if t >= after and n == arg["numerator"])
            den = sum(1 for t, _, n in report.deliveries if t >= after and n == arg["denominator"])
            want, tol = arg["ratio"], arg.get("tol_frac", 0.1)
            ok = den > 0 and abs(num / den - want) <= want * tol
            add(name, ok, f"{arg['numerator']}/{arg['denominator']} = {num}/{den}" + (f" = {num / den:.3f} (want {want} +/- {tol * 100:.0f}%)" if den else ""))
        elif name == "fill_convergence":
            setpoint = arg.get("setpoint", 0.5)
            tol = arg.get("tol", 0.1)
            within = arg.get("within_intervals", 30)
            names = arg.get("members") or sorted(
                {n for _, snap in report.fills for n in snap}
            )
            bad = {}
            for member in names:
                samples = [snap[member] for _, snap in report.fills if member in snap]
                idx = _first_converged(samples, setpoint, tol)
                if idx is None or idx > within:
                    bad[member] = idx
            add(name, not bad, f"not converged within {within} intervals: {bad}" if bad else "all members converged")
        else:
            add(name, False, "unknown assertion")
    return results
