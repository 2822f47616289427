"""Control plane: membership, feedback weighting, epoch scheduling.

Runs a 1 Hz loop per balancer instance.  Each pass folds receiver queue
feedback into member weights, apportions the 512 slots by largest
remainder, predicts the tick that will be current one guard interval
ahead, and publishes the new table at that boundary so events already
in flight keep routing through the epochs that admitted them.  A join or
a leave publishes its table at once, without a feedback round; an epoch
that no forwarded tick has reached yet is superseded by the new one.

Each fact has one home: a session, with its weight and last fill report,
lives in its instance's ``members``, so a member that retires takes its
feedback with it.  State survives restarts through checksummed snapshots
written with a temp-file-and-rename so a crash never leaves a torn file.
A snapshot holds each instance's live sessions with their last report,
its retained epochs, counters and predictor window; its member, epoch
and report records are the dataclasses' own fields, read one level deep.
A file that does not fit them, like a corrupt one, starts the plane empty.
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
from dataclasses import dataclass, fields

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


def _keys(cls, *skip) -> tuple:
    return tuple(f.name for f in fields(cls) if f.name not in skip)


# Snapshot records: each dataclass's own fields, minus those kept elsewhere
# in the file (a member's report goes to its instance's feedback list).
_INSTANCE_KEYS = _keys(LbInstance, "instance_id", "members")
_MEMBER_KEYS = _keys(MemberSession, "report", "reported_at")
_EPOCH_KEYS = _keys(Epoch)
_REPORT_KEYS = _keys(FillReport, "session_id")


def _record(obj, keys) -> dict:
    """The named fields of a dataclass, one level deep."""
    return {key: getattr(obj, key) for key in keys}


def _build(cls, keys, record: dict, **given):
    """``cls`` from a record's named keys; a missing key raises KeyError, others are ignored."""
    return cls(**{key: record[key] for key in keys if key not in given}, **given)


class ControlPlane:
    """Owner of instances, sessions, prediction, and scheduling."""

    def __init__(self, clock=time.time_ns, snapshot_path=None):
        self.clock = clock
        self.snapshot_path = snapshot_path
        self.instances: dict = {}
        self.predictors: dict = {}
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
            inst.members.clear()
            del self.instances[instance_id]
            self.predictors.pop(instance_id, None)
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
        if not 1 <= base_port <= base_port + port_count - 1 <= 0xFFFF:
            raise ValueError(f"ports {base_port}..{base_port + port_count - 1} are not all in 1..65535")
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
            log.info("instance %d registered session %d -> %s:%d x%d", instance_id, sid, dest_ip, base_port, port_count)
            return sid

    def deregister_member(self, session_id: int) -> int:
        """Start draining a session; returns its instance id."""
        with self._lock:
            iid, member = self._member(session_id)
            if member.state is MemberState.DRAINING:
                raise AlreadyDraining(f"session {session_id}")
            member.state = MemberState.DRAINING
            member.draining_since = self.clock()
            log.info("session %d draining", session_id)
            return iid

    def _member(self, session_id: int) -> tuple:
        """``(instance_id, session)`` of a live session; raises UnknownSession."""
        for iid, inst in self.instances.items():
            member = inst.members.get(session_id)
            if member is not None and member.state is not MemberState.RETIRED:
                return iid, member
        raise UnknownSession(session_id)

    # --- feedback and prediction ----------------------------------------------

    def ingest_fill_report(self, report: FillReport):
        with self._lock:
            _, member = self._member(report.session_id)  # raises UnknownSession for gone members
            member.report = report
            member.reported_at = self.clock()

    def ingest_sync(self, instance_id: int, sync: SyncMessage):
        with self._lock:
            self._instance(instance_id)
            self.predictors[instance_id].observe(
                sync.source_id, sync.latest_tick, sync.wallclock_ns
            )

    def predict_tick(self, instance_id: int, at_ns: int) -> int:
        with self._lock:
            self._instance(instance_id)
            return self.predictors[instance_id].predict(at_ns)

    def _is_ready(self, member: MemberSession, now_ns: int) -> bool:
        stale_ns = int(STALE_AFTER_S * 1e9)
        if member.report is None:
            # grace window: a fresh member owes no report yet
            return now_ns - member.registered_at <= stale_ns
        if now_ns - member.reported_at > stale_ns:
            return False
        return member.report.ready

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
                signal = member.report.control_signal if member.report else 0.0
                member.weight = max(
                    WEIGHT_MIN, min(WEIGHT_MAX, member.weight * (1.0 + WEIGHT_GAIN * signal))
                )
                round_weights[sid] = member.weight
                any_ready = True
            if not any_ready:
                raise NoReadyMembers(f"instance {instance_id}")
            return round_weights

    # --- the 1 Hz pass and membership passes ----------------------------------

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
                except NoReadyMembers:
                    round_weights = {}
                epoch = self._publish(iid, inst, round_weights, now)
                if epoch is not None:
                    emitted.append((iid, epoch))
                inst.retire_expired(now)
            if self.snapshot_path is not None:
                self.persist_state()
        return emitted

    def reschedule(self, instance_id: int, now_ns: int | None = None) -> Epoch | None:
        """Publish a membership change now; returns the epoch, or None if the table is unchanged.

        Slots go to the ready active members at their current weights; no
        feedback round runs.  An epoch still ahead of the traffic is
        superseded (``apply_schedule``), so the epoch that in-flight ticks
        route through stays retained.
        """
        now = self.clock() if now_ns is None else now_ns
        with self._lock:
            inst = self._instance(instance_id)
            weights = {
                sid: m.weight
                for sid, m in inst.members.items()
                if m.state is MemberState.ACTIVE and self._is_ready(m, now)
            }
            epoch = self._publish(instance_id, inst, weights, now)
            if self.snapshot_path is not None:
                self.persist_state()
        return epoch

    def _publish(self, iid: int, inst: LbInstance, weights: dict, now: int) -> Epoch | None:
        """Apportion the positive weights and publish unless the table is unchanged."""
        positive = {s: w for s, w in weights.items() if w > 0}
        if positive:
            table = apportion_slots(positive, inst.slot_count)
        else:
            log.warning("instance %d: no ready members, scheduling empty table", iid)
            table = (None,) * inst.slot_count
        if inst.epochs and table == inst.epochs[-1].table:
            return None  # nothing changed; no epoch churn
        with inst._lock:  # no tick forwards between the choice and the publish
            boundary = self._choose_boundary(iid, inst, now)
            max_fwd_before = inst.max_forwarded_tick
            epoch = inst.apply_schedule(boundary, table)
        if self.epoch_listener is not None:
            self.epoch_listener(iid, epoch, max_fwd_before)
        log.info(
            "instance %d epoch %d boundary %d (%d members)",
            iid, epoch.epoch_id, boundary, len(set(table) - {None}),
        )
        return epoch

    def _choose_boundary(self, iid: int, inst: LbInstance, now: int) -> int:
        try:
            boundary = self.predictors[iid].predict(now + int(GUARD_S * 1e9))
        except NoSyncData:
            log.warning("instance %d: no sync data, boundary from the floors alone", iid)
            boundary = 0
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
        with self._lock:  # callers on several threads share one temp file
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
            counters = inst.counters()  # one consistent read under the instance lock
            del counters["dropped"]  # the sum of dropped_by_reason
            counters["forwarded_by_member"] = {str(k): v for k, v in counters["forwarded_by_member"].items()}
            predictor = self.predictors[iid]
            members = [m for _, m in sorted(inst.members.items())]
            instances[str(iid)] = {
                **_record(inst, _INSTANCE_KEYS),
                "members": [{**_record(m, _MEMBER_KEYS), "state": m.state.value} for m in members],
                "epochs": [_record(e, _EPOCH_KEYS) for e in inst.epochs],
                "counters": counters,
                "predictor": {
                    "samples": list(predictor.samples),
                    "last_by_source": {str(k): v for k, v in sorted(predictor.last_by_source.items())},
                    "non_monotonic": predictor.non_monotonic_count,
                },
                "feedback": [
                    [m.session_id, _record(m.report, _REPORT_KEYS), m.reported_at]
                    for m in members
                    if m.report is not None
                ],
            }
        return {"next_session_id": self.next_session_id, "instances": instances}

    @classmethod
    def restore_state(cls, path, clock=time.time_ns, snapshot_path=None) -> "ControlPlane":
        """Rebuild from a snapshot; a missing, corrupt or misfitting file starts empty."""
        snapshot_path = snapshot_path if snapshot_path is not None else path
        cp = cls(clock=clock, snapshot_path=snapshot_path)
        try:
            cp._load(load_snapshot(path))
        except FileNotFoundError:
            log.info("no snapshot at %s, starting empty", path)
            return cp
        except CorruptSnapshot as exc:
            log.error("SNAPSHOT CORRUPT at %s (%s); starting empty", path, exc)
            return cls(clock=clock, snapshot_path=snapshot_path)  # nothing of a partial load
        log.info("restored %d instance(s) from %s", len(cp.instances), path)
        return cp

    def _load(self, state: dict):
        """Fill this plane from a snapshot payload; raises CorruptSnapshot if it does not fit."""
        try:
            self.next_session_id = state["next_session_id"]
            for iid_str, idata in state["instances"].items():
                iid = int(iid_str)
                inst = _build(LbInstance, _INSTANCE_KEYS, idata, instance_id=iid, listen=tuple(idata["listen"]))
                for mdata in idata["members"]:
                    member = _build(MemberSession, _MEMBER_KEYS, mdata, state=MemberState(mdata["state"]))
                    inst.members[member.session_id] = member
                for sid, rdata, reported_at in idata["feedback"]:
                    member = inst.members.get(sid)
                    if member is not None:  # files from before reports lived on the session kept retired ones
                        member.report = _build(FillReport, _REPORT_KEYS, rdata, session_id=sid)
                        member.reported_at = reported_at
                inst._epochs = tuple(
                    _build(Epoch, _EPOCH_KEYS, e, table=tuple(e["table"])) for e in idata["epochs"]
                )
                counters = idata["counters"]
                inst.received_total = counters["received"]
                inst.forwarded_total = counters["forwarded"]
                inst.forwarded_by_member = {int(k): v for k, v in counters["forwarded_by_member"].items()}
                inst.dropped_by_reason = {
                    DropReason(k): v for k, v in counters["dropped_by_reason"].items()
                }
                inst.max_forwarded_tick = counters["max_forwarded_tick"]
                predictor = TickPredictor()
                predictor.samples.extend((t, tick) for t, tick in idata["predictor"]["samples"])
                predictor.last_by_source = {int(k): v for k, v in idata["predictor"]["last_by_source"].items()}
                predictor.non_monotonic_count = idata["predictor"]["non_monotonic"]
                self.instances[iid] = inst
                self.predictors[iid] = predictor
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CorruptSnapshot(f"payload does not fit the schema: {exc!r}") from None

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
                    members[sid] = {
                        "dest_ip": m.dest_ip,
                        "base_port": m.base_port,
                        "port_count": m.port_count,
                        "state": m.state.value,
                        "weight": m.weight,
                        "slots": slots.get(sid, 0),
                        "queue_fill": m.report.queue_fill if m.report else None,
                        "ready": m.report.ready if m.report else None,
                    }
                reads = inst.reads_total  # read first: never above counters' received
                counters = inst.counters()
                fwd = counters["max_forwarded_tick"]
                out[iid] = {
                    "listen": list(inst.listen),
                    "members": members,
                    "epochs": [
                        {"epoch_id": e.epoch_id, "boundary_tick": e.boundary_tick}
                        for e in inst.epochs
                    ],
                    # Before any tick is forwarded, every epoch is ahead.
                    "epochs_ahead": sum(fwd is None or e.boundary_tick > fwd for e in inst.epochs),
                    "epochs_emitted": inst.next_epoch_id - 1,
                    "reads": reads,
                    "counters": counters,
                    "predicted_tick": predicted,
                }
            return out
