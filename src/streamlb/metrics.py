"""Prometheus text exposition for control plane state.

One scrape renders the whole deployment: per-member gauges (fill, weight,
slot share), the tick predictor output, and the forwarding counters of every
instance.  ``lb_epochs_ahead`` counts the retained epochs whose boundary no
forwarded tick has reached.  A new epoch supersedes such an epoch unless it
is the only one, so once the traffic has reached the oldest boundary the
gauge reads 0 or 1.  ``MetricsServer`` answers ``GET /metrics`` over
HTTP/1.0 from ``lb-run``'s control loop and closes after each response.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .control import StreamServer
from .dataplane import DropReason

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
HEAD_MAX = 1 << 16  # a longer request head is answered 400
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_GET_METRICS = re.compile(rb"GET /metrics[ ?]")


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    # Integral floats print as ints so counters stay clean.
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Metric:
    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: list[tuple[dict, float]] = []

    def add(self, labels: dict, value: float) -> None:
        self.samples.append((labels, value))

    def render(self) -> Iterable[str]:
        yield f"# HELP {self.name} {self.help_text}"
        yield f"# TYPE {self.name} {self.kind}"
        for labels, value in self.samples:
            if labels:
                body = ",".join(
                    f'{k}="{_escape(str(v))}"' for k, v in labels.items()
                )
                yield f"{self.name}{{{body}}} {_fmt(value)}"
            else:
                yield f"{self.name} {_fmt(value)}"


def render_metrics(cp) -> str:
    """Render the exposition text for every instance the control plane owns."""
    snap = cp.query()

    fill = _Metric("lb_member_fill", "gauge", "Last reported queue fill per member.")
    weight = _Metric("lb_member_weight", "gauge", "Control weight per member.")
    slots = _Metric("lb_member_slots", "gauge", "Slots held in the newest epoch per member.")
    predicted = _Metric("lb_predicted_tick", "gauge", "Predicted tick at the next boundary horizon.")
    reads = _Metric("lb_reads_total", "counter", "Data-plane socket reads since start; one carries 1-64 datagrams.")
    received = _Metric("lb_received_total", "counter", "Datagrams received since start.")
    forwarded = _Metric("lb_forwarded_total", "counter", "Datagrams forwarded since start.")
    member_forwarded = _Metric(
        "lb_member_forwarded_total", "counter", "Datagrams forwarded per member since start."
    )
    max_forwarded = _Metric("lb_max_forwarded_tick", "gauge", "Highest tick forwarded.")
    newest_boundary = _Metric("lb_newest_boundary_tick", "gauge", "Boundary tick of the newest epoch.")
    epochs_ahead = _Metric(
        "lb_epochs_ahead", "gauge", "Retained epochs whose boundary is above the highest tick forwarded."
    )
    dropped = _Metric("lb_dropped_total", "counter", "Datagrams dropped, by reason.")
    epochs = _Metric("lb_epochs_total", "counter", "Epochs emitted since start.")

    for iid in sorted(snap):
        state = snap[iid]
        inst_label = {"instance": iid}
        for sid in sorted(state["members"]):
            member = state["members"][sid]
            labels = {"instance": iid, "session": sid}
            if member["queue_fill"] is not None:
                fill.add(labels, member["queue_fill"])
            weight.add(labels, member["weight"])
            slots.add(labels, member["slots"])
        if state["predicted_tick"] is not None:
            predicted.add(inst_label, state["predicted_tick"])
        counters = state["counters"]
        reads.add(inst_label, state["reads"])
        received.add(inst_label, counters["received"])
        forwarded.add(inst_label, counters["forwarded"])
        for sid in sorted(counters["forwarded_by_member"]):
            member_forwarded.add({"instance": iid, "session": sid}, counters["forwarded_by_member"][sid])
        if counters["max_forwarded_tick"] is not None:
            max_forwarded.add(inst_label, counters["max_forwarded_tick"])
        if state["epochs"]:
            newest_boundary.add(inst_label, state["epochs"][-1]["boundary_tick"])
        epochs_ahead.add(inst_label, state["epochs_ahead"])
        by_reason = counters["dropped_by_reason"]
        for reason in DropReason:
            dropped.add(
                {"instance": iid, "reason": reason.value},
                by_reason.get(reason.value, 0),
            )
        epochs.add(inst_label, state["epochs_emitted"])

    lines: list[str] = []
    for metric in (
        fill, weight, slots, predicted, reads, received, forwarded, member_forwarded,
        dropped, epochs, max_forwarded, newest_boundary, epochs_ahead,
    ):
        lines.extend(metric.render())
    return "\n".join(lines) + "\n"


def _response(status: str, body: bytes, content_type: str = "text/plain; charset=utf-8") -> bytes:
    head = f"HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    return head.encode() + body


class MetricsServer(StreamServer):
    """Serves GET /metrics for one control plane; any other request is 404."""

    def take(self, inbuf: bytearray) -> tuple[bytes, bool] | None:
        if _HEAD_END.search(inbuf) is None:
            return (_response("400 Bad Request", b"head too long\n"), True) if len(inbuf) > HEAD_MAX else None
        if _GET_METRICS.match(inbuf):
            return _response("200 OK", render_metrics(self.cp).encode(), CONTENT_TYPE), True
        return _response("404 Not Found", b"only GET /metrics is served\n"), True
