"""Prints one PASS/FAIL line per acceptance criterion after a run; shared test helpers."""

import re
import threading

import pytest

from streamlb import balancer

CRITERIA = {
    1: "zero-loss membership churn, every event delivered exactly once",
    2: "weighted slots (256,128,128) and delivery shares 50/25/25 within 2pp",
    3: "no event split across members under reorder 8 plus 1% duplication",
    4: "PID fills reach 0.5 within 0.1 in 30 intervals; deliveries 2:1 within 10%",
    5: "tick prediction exact within 1 linear, slope error under 1% noisy, 0 boundary violations",
    6: "reassembly permutation-invariant, stale window counted, digests intact end to end",
    7: "wire goldens bit-exact, round-trip property, fuzz never crashes",
    8: "8 instance reservations succeed, the 9th raises CapacityExhausted",
    9: "snapshot restore resumes with strictly increasing boundaries and 0 loss",
    10: "loopback goodput at least 500 Mbps with data plane drops under 0.1%",
}

_results: dict = {}
notes: dict = {}


def forward_one(inst, datagram):
    """Route one datagram: ``(dest, session_id, payload)``, or ``(None, DropReason, None)``.

    ``forward_packet`` reports a drop only in its counters, so the reason
    is the one ``dropped_by_reason`` key the call moved.
    """
    before = dict(inst.dropped_by_reason)
    runs = inst.forward_packet(datagram)
    if runs:
        ((dest, sid, (payload,)),) = runs
        return dest, sid, payload
    (reason,) = [r for r, n in inst.dropped_by_reason.items() if n != before.get(r, 0)]
    return None, reason, None


@pytest.fixture
def serving(monkeypatch):
    """Start a Balancer over a given ControlPlane, its loop on a thread; stopped and closed after the test.

    No control pass runs unless the test shortens CONTROL_INTERVAL_S again.
    """
    monkeypatch.setattr(balancer, "CONTROL_INTERVAL_S", 3600.0)
    started = []

    def serve(cp, instances=()):
        lb = balancer.Balancer(cp, {"control": "127.0.0.1:0", "metrics": "127.0.0.1:0", "instances": list(instances)})
        runner = threading.Thread(target=lb.run, name="control-loop", daemon=True)
        started.append((lb, runner))
        lb.start()
        runner.start()
        return lb

    yield serve
    for lb, runner in started:
        lb.stop()
        runner.join(timeout=2.0)
        lb.close()


def _criterion_of(nodeid: str):
    if "test_acceptance" not in nodeid:
        return None
    m = re.search(r"criterion_(\d+)", nodeid)
    return int(m.group(1)) if m else None


def pytest_runtest_logreport(report):
    n = _criterion_of(report.nodeid)
    if n is None:
        return
    if report.when == "call":
        _results[n] = _results.get(n, True) and report.outcome == "passed"
    elif report.failed:  # setup/teardown error, e.g. a scenario fixture blew up
        _results[n] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_results):
        status = "PASS" if _results[n] else "FAIL"
        extra = f" [{notes[n]}]" if n in notes else ""
        terminalreporter.write_line(
            f"ACCEPTANCE {n:2d} {status}: {CRITERIA.get(n, '?')}{extra}"
        )
