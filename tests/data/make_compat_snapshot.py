"""Write compat_snapshot.bin and compat_expect.json beside this script.

The committed pair was written by the code from before snapshot records
were derived from the dataclasses (commit a4b6b31), to pin that newer
code still restores those files; run it with that checkout's ``src`` on
``PYTHONPATH``:

    PYTHONPATH=<checkout>/src python tests/data/make_compat_snapshot.py

The plane has two active members, one draining member still referenced
by the epoch that routed forwarded traffic, one retired member that sent
a report, a regressed sync and a dropped datagram.  The JSON holds the
plane's ``query()`` at the fixed clock and the epochs that its next
``control_tick`` emits.
"""

import json
import os

from streamlb import wire
from streamlb.controlplane import ControlPlane, FillReport, NonMonotonicTick
from streamlb.wire import SyncMessage

S = 1_000_000_000
HERE = os.path.dirname(os.path.abspath(__file__))


class Clock:
    now = 1000 * S

    def __call__(self):
        return self.now


def build():
    clock = Clock()
    cp = ControlPlane(clock=clock)
    iid = cp.reserve_instance(listen=("127.0.0.1", 19600))
    a = cp.register_member(iid, "10.0.0.1", 18000, 2, initial_weight=2.0)
    b = cp.register_member(iid, "10.0.0.2", 18000, 1)
    c = cp.register_member(iid, "10.0.0.3", 18000, 1)
    d = cp.register_member(iid, "10.0.0.4", 18000, 1)
    cp.ingest_sync(iid, SyncMessage(1, 1000, 1000, clock.now))
    for sid, fill in ((a, 0.2), (b, 0.4), (c, 0.6), (d, 0.8)):
        cp.ingest_fill_report(FillReport(sid, fill, 0.1, True, wallclock_ns=clock.now))
    cp.deregister_member(d)  # in no epoch: retired by the first publish
    clock.now += S // 2
    cp.ingest_sync(iid, SyncMessage(1, 1500, 1000, clock.now))
    cp.control_tick()  # epoch 1 at tick 2500
    clock.now += S
    cp.ingest_sync(iid, SyncMessage(1, 2500, 1000, clock.now))
    inst = cp.instances[iid]
    for tick in range(2500, 2600):
        inst.forward_packet(wire.encode_lb_header(wire.LbMetaHeader(channel=tick % 3, tick=tick)) + bytes(20))
    inst.forward_packet(b"junk")  # truncated: a drop
    cp.deregister_member(c)  # still in epoch 1, which routed ticks 2500-2599
    cp.reschedule(iid)
    clock.now += S // 4
    try:
        cp.ingest_sync(iid, SyncMessage(1, 2400, 1000, clock.now))
    except NonMonotonicTick:
        pass
    cp.ingest_sync(iid, SyncMessage(2, 2760, 1000, clock.now))
    cp.ingest_fill_report(FillReport(a, 0.9, -0.4, True, wallclock_ns=clock.now))
    cp.ingest_fill_report(FillReport(b, 0.1, 0.5, True, wallclock_ns=clock.now))
    return cp, clock


def main():
    cp, clock = build()
    cp.persist_state(os.path.join(HERE, "compat_snapshot.bin"))
    expect = {
        "clock_ns": clock.now,
        "query": cp.query(),
        "next_control_tick": [
            [iid, e.epoch_id, e.boundary_tick, list(e.table)] for iid, e in cp.control_tick()
        ],
    }
    with open(os.path.join(HERE, "compat_expect.json"), "w") as fh:
        json.dump(expect, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
