"""Prometheus text exposition for control plane state.

One scrape renders the whole deployment: per-member gauges (fill, weight,
slot share), the tick predictor output, and the forwarding counters of every
instance.  ``lb_epochs_ahead`` counts the retained epochs whose boundary no
forwarded tick has reached.  A new epoch supersedes such an epoch unless it
is the only one, so once the traffic has reached the oldest boundary the
gauge reads 0 or 1.  The HTTP side is a thin stdlib server; anything
heavier would be overkill for a single read-only endpoint.
"""

from __future__ import annotations

import http.server
from collections.abc import Iterable

from . import netutil
from .dataplane import DropReason

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


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


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802, stdlib naming
        if self.path.split("?", 1)[0] != "/metrics":
            self.send_error(404, "only /metrics is served")
            return
        body = render_metrics(self.server.cp).encode()
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


class MetricsServer(netutil.ServedOnThread, http.server.ThreadingHTTPServer):
    """Serves GET /metrics for one control plane."""

    def __init__(self, cp, address: tuple[str, int] = ("127.0.0.1", 0)):
        super().__init__(address, _Handler)
        self.cp = cp
