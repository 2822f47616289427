"""Control protocol: length-delimited JSON requests over TCP.

Framing is a 4-octet big-endian payload length followed by one UTF-8
JSON object.  A request carries a "verb" plus its arguments; the
response echoes {"ok": true, ...result} or {"ok": false, "error":
<name>, "message": ...}.  Error names are the control-plane exception
class names, so a client can re-raise the exact failure the server
hit; anything malformed maps to "BadRequest".

One connection serves any number of requests in series.  Verbs:
reserve, free, register, deregister, report, query.  A register or
deregister publishes the new membership before it answers; an epoch
that the traffic has not reached yet is superseded.

A connection that sends nothing for READ_TIMEOUT_S is closed, and at
most MAX_CONNECTIONS are served at once; later ones are closed on
accept.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import struct
import threading

from . import controlplane as cpmod
from . import netutil
from .controlplane import (
    AlreadyDraining,
    CapacityExhausted,
    ControlPlane,
    DuplicateEndpoint,
    FillReport,
    UnknownInstance,
    UnknownSession,
)

__all__ = [
    "FRAME_MAX",
    "READ_TIMEOUT_S",
    "MAX_CONNECTIONS",
    "ControlProtocolError",
    "FrameError",
    "ControlServer",
    "ControlClient",
]

log = logging.getLogger(__name__)

FRAME_MAX = 1 << 20
READ_TIMEOUT_S = 30.0  # idle or half-sent frames; receivers report every second
MAX_CONNECTIONS = 64
_LEN = struct.Struct(">I")

# exceptions worth naming across the wire; everything else is BadRequest
_NAMED_ERRORS = (
    CapacityExhausted,
    UnknownInstance,
    DuplicateEndpoint,
    UnknownSession,
    AlreadyDraining,
)


class ControlProtocolError(RuntimeError):
    """Server-side failure with no matching local exception class."""


class FrameError(ConnectionError):
    """The stream ended or desynchronized mid-frame."""


def _write_frame(stream, obj: dict):
    payload = json.dumps(obj, separators=(",", ":")).encode()
    stream.write(_LEN.pack(len(payload)) + payload)
    stream.flush()


class _Handler(socketserver.StreamRequestHandler):
    def setup(self):
        self.request.settimeout(READ_TIMEOUT_S)
        super().setup()

    def handle(self):
        try:
            self._serve()
        except TimeoutError:
            log.info("control client %s:%d idle for %.0f s; closing", *self.client_address, READ_TIMEOUT_S)
        except ConnectionError as exc:
            log.info("control client %s:%d dropped the connection (%s)", *self.client_address, exc)

    def _serve(self):
        while True:
            head = self.rfile.read(4)
            if len(head) < 4:
                return  # clean close between frames
            (length,) = _LEN.unpack(head)
            if length > FRAME_MAX:
                _write_frame(
                    self.wfile,
                    {"ok": False, "error": "BadRequest", "message": f"frame of {length} octets exceeds {FRAME_MAX}"},
                )
                return  # cannot resynchronize; drop the connection
            body = self.rfile.read(length)
            if len(body) < length:
                return
            _write_frame(self.wfile, self.server.dispatch(body))


class ControlServer(netutil.ServedOnThread, socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    request_queue_size = MAX_CONNECTIONS  # a burst of connects is refused, not left to SYN retries

    def __init__(self, cp: ControlPlane, address=("127.0.0.1", 0)):
        super().__init__(tuple(address), _Handler)
        self.cp = cp
        self._connections = 0
        self._connections_lock = threading.Lock()

    def verify_request(self, request, client_address) -> bool:
        with self._connections_lock:
            if self._connections >= MAX_CONNECTIONS:
                log.warning("refusing control client %s:%d: %d connections open", *client_address, self._connections)
                return False  # the server closes it
            self._connections += 1
            return True

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._connections_lock:
                self._connections -= 1

    # --- request handling -----------------------------------------------------

    def dispatch(self, body: bytes) -> dict:
        try:
            request = json.loads(body)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": "BadRequest", "message": f"undecodable request: {exc}"}
        if not isinstance(request, dict) or not isinstance(request.get("verb"), str):
            return {"ok": False, "error": "BadRequest", "message": "request must be an object with a verb"}
        try:
            return {"ok": True, **self._apply(request)}
        except _NAMED_ERRORS as exc:
            return {"ok": False, "error": type(exc).__name__, "message": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": "BadRequest", "message": f"{type(exc).__name__}: {exc}"}

    def _apply(self, request: dict) -> dict:
        verb = request["verb"]
        if verb == "reserve":
            kwargs = {}
            if "listen" in request:
                kwargs["listen"] = tuple(request["listen"])
            for key in ("instance_id", "slot_count"):
                if request.get(key) is not None:
                    kwargs[key] = int(request[key])
            if request.get("drain_delay_s") is not None:
                kwargs["drain_delay_s"] = float(request["drain_delay_s"])
            return {"instance_id": self.cp.reserve_instance(**kwargs)}
        if verb == "free":
            self.cp.free_instance(int(request["instance_id"]))
            return {}
        if verb == "register":
            session_id = self.cp.register_member(
                int(request["instance_id"]),
                str(request["dest_ip"]),
                int(request["base_port"]),
                int(request["port_count"]),
                initial_weight=float(request.get("weight", 1.0)),
            )
            self._reschedule(int(request["instance_id"]))
            return {"session_id": session_id}
        if verb == "deregister":
            self._reschedule(self.cp.deregister_member(int(request["session_id"])))
            return {}
        if verb == "report":
            self.cp.ingest_fill_report(
                FillReport(
                    session_id=int(request["session_id"]),
                    queue_fill=float(request["queue_fill"]),
                    control_signal=float(request["control_signal"]),
                    ready=bool(request["ready"]),
                    wallclock_ns=int(request.get("wallclock_ns", 0)),
                )
            )
            return {}
        if verb == "query":
            iid = request.get("instance_id")
            out = self.cp.query(None if iid is None else int(iid))
            return {"instances": {str(k): v for k, v in out.items()}}
        raise ValueError(f"unknown verb {verb!r}")

    def _reschedule(self, instance_id: int):
        try:
            self.cp.reschedule(instance_id)
        except OSError as exc:  # the change stands; the next control pass writes the snapshot
            log.error("snapshot after a membership change failed: %s", exc)


class ControlClient:
    """Blocking client; raises the server's exception classes locally."""

    def __init__(self, address, timeout: float = 5.0):
        self.sock = socket.create_connection(tuple(address), timeout=timeout)
        self._stream = self.sock.makefile("rwb")

    def call(self, verb: str, **fields) -> dict:
        _write_frame(self._stream, {"verb": verb, **fields})
        head = self._stream.read(4)
        if len(head) < 4:
            raise FrameError("connection closed before a response arrived")
        (length,) = _LEN.unpack(head)
        body = self._stream.read(length)
        if len(body) < length:
            raise FrameError("connection closed mid-response")
        response = json.loads(body)
        if response.pop("ok", False):
            return response
        name = response.get("error", "ControlProtocolError")
        message = response.get("message", "")
        exc_class = getattr(cpmod, name, None)
        if isinstance(exc_class, type) and issubclass(exc_class, Exception):
            raise exc_class(message)
        raise ControlProtocolError(f"{name}: {message}")

    # --- one method per verb ---------------------------------------------------

    def reserve(self, **kwargs) -> int:
        return self.call("reserve", **kwargs)["instance_id"]

    def free(self, instance_id: int):
        self.call("free", instance_id=instance_id)

    def register(self, instance_id: int, dest_ip: str, base_port: int, port_count: int, weight: float = 1.0) -> int:
        return self.call(
            "register",
            instance_id=instance_id,
            dest_ip=dest_ip,
            base_port=base_port,
            port_count=port_count,
            weight=weight,
        )["session_id"]

    def deregister(self, session_id: int):
        self.call("deregister", session_id=session_id)

    def report(self, report: FillReport):
        self.call(
            "report",
            session_id=report.session_id,
            queue_fill=report.queue_fill,
            control_signal=report.control_signal,
            ready=report.ready,
            wallclock_ns=report.wallclock_ns,
        )

    def query(self, instance_id: int | None = None) -> dict:
        return self.call("query", instance_id=instance_id)["instances"]

    def close(self):
        try:
            self._stream.close()
        finally:
            self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
