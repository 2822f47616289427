"""Control plane: membership, feedback weighting, epoch scheduling.

Runs a 1 Hz loop per balancer instance.  Each pass folds receiver queue
feedback into member weights, apportions the 512 slots by largest
remainder, predicts the tick that will be current one guard interval
ahead, and publishes the new table at that boundary so events already
in flight keep routing through the epochs that admitted them.

State survives restarts through checksummed snapshots written with a
temp-file-and-rename so a crash never leaves a torn file.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass

from .dataplane import (
    DRAIN_DELAY_S,
    SLOT_COUNT,
    DropReason,
    Epoch,
    LbInstance,
    MemberSession,
    MemberState,
)
from .wire import SyncMessage

__all__ = [
    "MAX_INSTANCES",
    "PREDICT_WINDOW",
    "WEIGHT_GAIN",
    "WEIGHT_MIN",
    "WEIGHT_MAX",
    "GUARD_S",
    "STALE_AFTER_S",
    "CapacityExhausted",
    "UnknownInstance",
    "DuplicateEndpoint",
    "UnknownSession",
    "AlreadyDraining",
    "NonMonotonicTick",
    "NoSyncData",
    "NoReadyMembers",
    "EmptyWeights",
    "CorruptSnapshot",
    "FillReport",
    "TickPredictor",
    "apportion_slots",
    "ControlPlane",
    "load_snapshot",
]

log = logging.getLogger(__name__)

MAX_INSTANCES = 8
PREDICT_WINDOW = 16
WEIGHT_GAIN = 0.5
WEIGHT_MIN = 0.05
WEIGHT_MAX = 20.0
GUARD_S = 1.0
STALE_AFTER_S = 3.0

SNAPSHOT_MAGIC = b"LBSNAP01"


class CapacityExhausted(RuntimeError):
    pass


class UnknownInstance(KeyError):
    pass


class DuplicateEndpoint(ValueError):
    pass


class UnknownSession(KeyError):
    pass


class AlreadyDraining(ValueError):
    pass


class NonMonotonicTick(ValueError):
    pass


class NoSyncData(LookupError):
    pass


class NoReadyMembers(RuntimeError):
    pass


class EmptyWeights(ValueError):
    pass


class CorruptSnapshot(ValueError):
    pass


@dataclass
class FillReport:
    """Receiver feedback: queue fill plus its local controller output."""

    session_id: int
    queue_fill: float
    control_signal: float
    ready: bool
    wallclock_ns: int = 0

    def __post_init__(self):
        if not 0.0 <= self.queue_fill <= 1.0:
            raise ValueError(f"queue_fill {self.queue_fill} outside [0, 1]")
        self.control_signal = max(-1.0, min(1.0, self.control_signal))


class TickPredictor:
    """Sliding-window least squares over (wallclock, tick) sync samples.

    Samples from every sender of an instance share one window; ticks
    only need to be monotone per source.  Prediction is clamped below
    at the newest observed tick so a boundary never lands behind
    traffic the senders have already announced.
    """

    def __init__(self, window: int = PREDICT_WINDOW):
        self.samples: deque = deque(maxlen=window)
        self.last_by_source: dict = {}
        self.non_monotonic_count = 0

    def observe(self, source_id: int, latest_tick: int, wallclock_ns: int):
        last = self.last_by_source.get(source_id)
        if last is not None and latest_tick < last:
            self.non_monotonic_count += 1
            raise NonMonotonicTick(f"source {source_id}: {latest_tick} < {last}")
        self.last_by_source[source_id] = latest_tick
        self.samples.append((wallclock_ns, latest_tick))

    def newest_tick(self) -> int:
        if not self.samples:
            raise NoSyncData("no sync samples")
        return max(tick for _, tick in self.samples)

    def predict(self, at_ns: int) -> int:
        if not self.samples:
            raise NoSyncData("no sync samples")
        t_ref, y_ref = self.samples[-1]
        xs = [(t - t_ref) / 1e9 for t, _ in self.samples]
        ys = [tick - y_ref for _, tick in self.samples]
        if len(self.samples) < 2 or len(set(xs)) < 2:
            slope, intercept = 0.0, ys[-1]
        else:
            slope, intercept = statistics.linear_regression(xs, ys)
            slope = max(0.0, slope)
        value = slope * ((at_ns - t_ref) / 1e9) + intercept + y_ref
        return max(round(value), self.newest_tick(), 0)


def apportion_slots(weights: dict, slot_count: int = SLOT_COUNT) -> tuple:
    """Largest-remainder split of slot_count, dealt round-robin.

    Ties on remainders break toward the lower session id.  The deal
    cycles members in descending slot-count order so consecutive ticks
    spread across members instead of dwelling on one.
    """
    positive = {sid: w for sid, w in weights.items() if w > 0}
    if not positive:
        raise EmptyWeights("no positive weights")
    total = sum(positive.values())
    quotas = {sid: slot_count * w / total for sid, w in positive.items()}
    counts = {sid: int(q) for sid, q in quotas.items()}
    leftover = slot_count - sum(counts.values())
    for sid in sorted(positive, key=lambda s: (-(quotas[s] - counts[s]), s))[:leftover]:
        counts[sid] += 1

    order = sorted(counts, key=lambda s: (-counts[s], s))
    remaining = dict(counts)
    table = []
    while len(table) < slot_count:
        dealt = False
        for sid in order:
            if remaining[sid] > 0:
                table.append(sid)
                remaining[sid] -= 1
                dealt = True
                if len(table) == slot_count:
                    break
        if not dealt:
            break
    return tuple(table)


def load_snapshot(path) -> dict:
    """Read and verify a snapshot file; raises CorruptSnapshot."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = len(SNAPSHOT_MAGIC)
    if len(blob) < head + 32 or not blob.startswith(SNAPSHOT_MAGIC):
        raise CorruptSnapshot("bad magic or truncated header")
    digest, payload = blob[head : head + 32], blob[head + 32 :]
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptSnapshot("checksum mismatch")
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        raise CorruptSnapshot(f"undecodable payload: {exc}") from None


@dataclass
class _SessionFeedback:
    report: FillReport | None = None
    received_ns: int = 0


class ControlPlane:
    """Owner of instances, sessions, prediction, and scheduling."""

    def __init__(self, clock=time.time_ns, snapshot_path=None):
        self.clock = clock
        self.snapshot_path = snapshot_path
        self.instances: dict = {}
        self.predictors: dict = {}
        self.sync_rate: dict = {}
        self.feedback: dict = {}  # session_id -> _SessionFeedback
        self.session_instance: dict = {}
        self.next_session_id = 1
        self.epoch_listener = None  # callable(instance_id, epoch, max_forwarded_before)
        self._lock = threading.RLock()

    # --- instance lifecycle -------------------------------------------------

    def reserve_instance(
        self,
        listen=("0.0.0.0", 0),
        instance_id: int | None = None,
        slot_count: int = SLOT_COUNT,
        drain_delay_s: float = DRAIN_DELAY_S,
    ) -> int:
        with self._lock:
            if instance_id is None:
                free = [i for i in range(MAX_INSTANCES) if i not in self.instances]
                if not free:
                    raise CapacityExhausted(f"all {MAX_INSTANCES} instances reserved")
                instance_id = free[0]
            else:
                if not 0 <= instance_id < MAX_INSTANCES:
                    raise ValueError(f"instance_id {instance_id} outside 0..{MAX_INSTANCES - 1}")
                if instance_id in self.instances:
                    raise CapacityExhausted(f"instance {instance_id} already reserved")
            self.instances[instance_id] = LbInstance(
                instance_id=instance_id,
                listen=tuple(listen),
                slot_count=slot_count,
                drain_delay_s=drain_delay_s,
            )
            self.predictors[instance_id] = TickPredictor()
            log.info("reserved instance %d listen=%s", instance_id, listen)
            return instance_id

    def free_instance(self, instance_id: int):
        with self._lock:
            inst = self._instance(instance_id)
            for member in list(inst.members.values()):
                member.state = MemberState.RETIRED
                self.feedback.pop(member.session_id, None)
                self.session_instance.pop(member.session_id, None)
            inst.members.clear()
            del self.instances[instance_id]
            self.predictors.pop(instance_id, None)
            self.sync_rate.pop(instance_id, None)
            log.info("freed instance %d", instance_id)

    def _instance(self, instance_id: int) -> LbInstance:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise UnknownInstance(instance_id) from None

    # --- membership -----------------------------------------------------------

    def register_member(
        self,
        instance_id: int,
        dest_ip: str,
        base_port: int,
        port_count: int,
        initial_weight: float = 1.0,
    ) -> int:
        if port_count < 1 or port_count & (port_count - 1):
            raise ValueError(f"port_count {port_count} is not a power of two")
        with self._lock:
            inst = self._instance(instance_id)
            lo, hi = base_port, base_port + port_count
            for m in inst.members.values():
                if m.dest_ip == dest_ip and lo < m.base_port + m.port_count and m.base_port < hi:
                    raise DuplicateEndpoint(f"{dest_ip}:{lo}-{hi - 1} overlaps session {m.session_id}")
            sid = self.next_session_id
            self.next_session_id += 1
            inst.members[sid] = MemberSession(
                session_id=sid,
                dest_ip=dest_ip,
                base_port=base_port,
                port_count=port_count,
                weight=initial_weight,
                registered_at=self.clock(),
            )
            self.feedback[sid] = _SessionFeedback()
            self.session_instance[sid] = instance_id
            log.info("instance %d registered session %d -> %s:%d x%d", instance_id, sid, dest_ip, base_port, port_count)
            return sid

    def deregister_member(self, session_id: int):
        with self._lock:
            member = self._member(session_id)
            if member.state is MemberState.DRAINING:
                raise AlreadyDraining(f"session {session_id}")
            member.state = MemberState.DRAINING
            member.draining_since = self.clock()
            log.info("session %d draining", session_id)

    def _member(self, session_id: int) -> MemberSession:
        iid = self.session_instance.get(session_id)
        if iid is None or iid not in self.instances:
            raise UnknownSession(session_id)
        member = self.instances[iid].members.get(session_id)
        if member is None or member.state is MemberState.RETIRED:
            raise UnknownSession(session_id)
        return member

    # --- feedback and prediction ----------------------------------------------

    def ingest_fill_report(self, report: FillReport):
        with self._lock:
            self._member(report.session_id)  # raises UnknownSession for gone members
            fb = self.feedback.setdefault(report.session_id, _SessionFeedback())
            fb.report = report
            fb.received_ns = self.clock()

    def ingest_sync(self, instance_id: int, sync: SyncMessage):
        with self._lock:
            self._instance(instance_id)
            self.sync_rate[instance_id] = sync.event_rate_hz
            self.predictors[instance_id].observe(
                sync.source_id, sync.latest_tick, sync.wallclock_ns
            )

    def predict_tick(self, instance_id: int, at_ns: int) -> int:
        with self._lock:
            self._instance(instance_id)
            return self.predictors[instance_id].predict(at_ns)

    def _is_ready(self, member: MemberSession, now_ns: int) -> bool:
        stale_ns = int(STALE_AFTER_S * 1e9)
        fb = self.feedback.get(member.session_id)
        if fb is None or fb.report is None:
            # grace window: a fresh member owes no report yet
            return now_ns - member.registered_at <= stale_ns
        if now_ns - fb.received_ns > stale_ns:
            return False
        return fb.report.ready

    def update_weights(self, instance_id: int, now_ns: int | None = None) -> dict:
        """One multiplicative feedback round; returns weights this round."""
        with self._lock:
            inst = self._instance(instance_id)
            now = self.clock() if now_ns is None else now_ns
            round_weights = {}
            any_ready = False
            for sid, member in inst.members.items():
                if member.state is not MemberState.ACTIVE:
                    continue
                if not self._is_ready(member, now):
                    round_weights[sid] = 0.0
                    continue
                fb = self.feedback.get(sid)
                signal = fb.report.control_signal if fb and fb.report else 0.0
                member.weight = max(
                    WEIGHT_MIN, min(WEIGHT_MAX, member.weight * (1.0 + WEIGHT_GAIN * signal))
                )
                round_weights[sid] = member.weight
                any_ready = True
            if not any_ready:
                raise NoReadyMembers(f"instance {instance_id}")
            return round_weights

    # --- the 1 Hz pass ----------------------------------------------------------

    def control_tick(self, instance_id: int | None = None, now_ns: int | None = None) -> list:
        """Reweight, apportion, schedule, retire; returns emitted epochs."""
        now = self.clock() if now_ns is None else now_ns
        emitted = []
        with self._lock:
            targets = [instance_id] if instance_id is not None else sorted(self.instances)
            for iid in targets:
                inst = self._instance(iid)
                if not inst.members and not inst.epochs:
                    continue
                try:
                    round_weights = self.update_weights(iid, now)
                    positive = {s: w for s, w in round_weights.items() if w > 0}
                    table = apportion_slots(positive, inst.slot_count)
                except NoReadyMembers:
                    log.warning("instance %d: no ready members, scheduling empty table", iid)
                    table = (None,) * inst.slot_count
                if inst.epochs and table == inst.epochs[-1].table:
                    inst.retire_expired(now)
                    continue  # nothing changed; no epoch churn
                boundary = self._choose_boundary(iid, inst, now)
                max_fwd_before = inst.max_forwarded_tick
                epoch = inst.apply_schedule(boundary, table)
                emitted.append((iid, epoch))
                if self.epoch_listener is not None:
                    self.epoch_listener(iid, epoch, max_fwd_before)
                log.info(
                    "instance %d epoch %d boundary %d (%d members)",
                    iid, epoch.epoch_id, boundary, len(set(table) - {None}),
                )
                inst.retire_expired(now)
            if self.snapshot_path is not None:
                self.persist_state()
        return emitted

    def _choose_boundary(self, iid: int, inst: LbInstance, now: int) -> int:
        try:
            boundary = self.predictors[iid].predict(now + int(GUARD_S * 1e9))
        except NoSyncData:
            rate = self.sync_rate.get(iid, 0)
            boundary = round(rate * GUARD_S)
            log.warning("instance %d: no sync data, degraded boundary estimate %d", iid, boundary)
        if inst.epochs:
            boundary = max(boundary, inst.epochs[-1].boundary_tick + 1)
        if inst.max_forwarded_tick is not None:
            boundary = max(boundary, inst.max_forwarded_tick + 1)
        return boundary

    # --- persistence ---------------------------------------------------------------

    def persist_state(self, path=None) -> str:
        """Atomically write a checksummed snapshot; returns the path."""
        path = path or self.snapshot_path
        if path is None:
            raise ValueError("no snapshot path configured")
        with self._lock:
            payload = json.dumps(self._dump(), sort_keys=True, separators=(",", ":")).encode()
        blob = SNAPSHOT_MAGIC + hashlib.sha256(payload).digest() + payload
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return str(path)

    def _dump(self) -> dict:
        instances = {}
        for iid, inst in sorted(self.instances.items()):
            instances[str(iid)] = {
                "listen": list(inst.listen),
                "slot_count": inst.slot_count,
                "drain_delay_s": inst.drain_delay_s,
                "epoch_retain": inst.epoch_retain,
                "next_epoch_id": inst.next_epoch_id,
                "members": [
                    {
                        "session_id": m.session_id,
                        "dest_ip": m.dest_ip,
                        "base_port": m.base_port,
                        "port_count": m.port_count,
                        "state": m.state.value,
                        "draining_since": m.draining_since,
                        "weight": m.weight,
                        "registered_at": m.registered_at,
                    }
                    for _, m in sorted(inst.members.items())
                ],
                "epochs": [
                    {"epoch_id": e.epoch_id, "boundary_tick": e.boundary_tick, "table": list(e.table)}
                    for e in inst.epochs
                ],
                "counters": {
                    "received": inst.received_total,
                    "forwarded": inst.forwarded_total,
                    "forwarded_by_member": {str(k): v for k, v in sorted(inst.forwarded_by_member.items())},
                    "dropped_by_reason": {r.value: n for r, n in sorted(inst.dropped_by_reason.items(), key=lambda kv: kv[0].value)},
                    "max_forwarded_tick": inst.max_forwarded_tick,
                },
                "predictor": {
                    "samples": [list(s) for s in self.predictors[iid].samples],
                    "last_by_source": {str(k): v for k, v in sorted(self.predictors[iid].last_by_source.items())},
                    "non_monotonic": self.predictors[iid].non_monotonic_count,
                },
                "sync_rate": self.sync_rate.get(iid, 0),
                "feedback": [
                    [
                        sid,
                        {
                            "queue_fill": fb.report.queue_fill,
                            "control_signal": fb.report.control_signal,
                            "ready": fb.report.ready,
                            "wallclock_ns": fb.report.wallclock_ns,
                        },
                        fb.received_ns,
                    ]
                    for sid, fb in sorted(self.feedback.items())
                    if fb.report is not None and self.session_instance.get(sid) == iid
                ],
            }
        return {"next_session_id": self.next_session_id, "instances": instances}

    @classmethod
    def restore_state(cls, path, clock=time.time_ns, snapshot_path=None) -> "ControlPlane":
        """Rebuild from a snapshot; missing file or corruption start empty."""
        cp = cls(clock=clock, snapshot_path=snapshot_path if snapshot_path is not None else path)
        try:
            state = load_snapshot(path)
        except FileNotFoundError:
            log.info("no snapshot at %s, starting empty", path)
            return cp
        except CorruptSnapshot as exc:
            log.error("SNAPSHOT CORRUPT at %s (%s); starting empty", path, exc)
            return cp
        cp._load(state)
        log.info("restored %d instance(s) from %s", len(cp.instances), path)
        return cp

    def _load(self, state: dict):
        self.next_session_id = state["next_session_id"]
        for iid_str, idata in state["instances"].items():
            iid = int(iid_str)
            inst = LbInstance(
                instance_id=iid,
                listen=tuple(idata["listen"]),
                slot_count=idata["slot_count"],
                drain_delay_s=idata["drain_delay_s"],
                epoch_retain=idata["epoch_retain"],
            )
            inst.next_epoch_id = idata["next_epoch_id"]
            for mdata in idata["members"]:
                member = MemberSession(
                    session_id=mdata["session_id"],
                    dest_ip=mdata["dest_ip"],
                    base_port=mdata["base_port"],
                    port_count=mdata["port_count"],
                    state=MemberState(mdata["state"]),
                    draining_since=mdata["draining_since"],
                    weight=mdata["weight"],
                    registered_at=mdata["registered_at"],
                )
                inst.members[member.session_id] = member
                self.session_instance[member.session_id] = iid
            epochs = tuple(
                Epoch(
                    epoch_id=e["epoch_id"],
                    boundary_tick=e["boundary_tick"],
                    table=tuple(e["table"]),
                )
                for e in idata["epochs"]
            )
            inst._epochs = epochs
            counters = idata["counters"]
            inst.received_total = counters["received"]
            inst.forwarded_total = counters["forwarded"]
            inst.forwarded_by_member = {int(k): v for k, v in counters["forwarded_by_member"].items()}
            inst.dropped_by_reason = {
                DropReason(k): v for k, v in counters["dropped_by_reason"].items()
            }
            inst.max_forwarded_tick = counters["max_forwarded_tick"]
            self.instances[iid] = inst
            predictor = TickPredictor()
            for t, tick in idata["predictor"]["samples"]:
                predictor.samples.append((t, tick))
            predictor.last_by_source = {int(k): v for k, v in idata["predictor"]["last_by_source"].items()}
            predictor.non_monotonic_count = idata["predictor"]["non_monotonic"]
            self.predictors[iid] = predictor
            self.sync_rate[iid] = idata["sync_rate"]
            for sid, rdata, received_ns in idata["feedback"]:
                self.feedback[sid] = _SessionFeedback(
                    report=FillReport(session_id=sid, **rdata), received_ns=received_ns
                )

    # --- introspection -----------------------------------------------------------

    def query(self, instance_id: int | None = None) -> dict:
        """Structured state snapshot for the control protocol and metrics."""
        with self._lock:
            targets = [instance_id] if instance_id is not None else sorted(self.instances)
            out = {}
            for iid in targets:
                inst = self._instance(iid)
                try:
                    predicted = self.predictors[iid].predict(self.clock())
                except NoSyncData:
                    predicted = None
                slots = {}
                if inst.epochs:
                    for sid in inst.epochs[-1].table:
                        if sid is not None:
                            slots[sid] = slots.get(sid, 0) + 1
                members = {}
                for sid, m in sorted(inst.members.items()):
                    fb = self.feedback.get(sid)
                    members[sid] = {
                        "dest_ip": m.dest_ip,
                        "base_port": m.base_port,
                        "port_count": m.port_count,
                        "state": m.state.value,
                        "weight": m.weight,
                        "slots": slots.get(sid, 0),
                        "queue_fill": fb.report.queue_fill if fb and fb.report else None,
                        "ready": fb.report.ready if fb and fb.report else None,
                    }
                out[iid] = {
                    "listen": list(inst.listen),
                    "members": members,
                    "epochs": [
                        {"epoch_id": e.epoch_id, "boundary_tick": e.boundary_tick}
                        for e in inst.epochs
                    ],
                    "epochs_emitted": inst.next_epoch_id - 1,
                    "counters": inst.counters(),
                    "predicted_tick": predicted,
                }
            return out
