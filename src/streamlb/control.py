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

``StreamServer`` serves this protocol and ``/metrics`` from one loop.  A
connection without progress for READ_TIMEOUT_S (it sends nothing, or
leaves its reply unread) is closed, and each listener keeps at most
MAX_CONNECTIONS open; later ones are closed on accept.
"""

from __future__ import annotations

import contextlib
import json
import logging
import selectors
import socket
import struct
import time

from . import controlplane as cpmod
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
    "StreamServer",
    "ControlServer",
    "ControlClient",
]

log = logging.getLogger(__name__)

FRAME_MAX = 1 << 20
READ_TIMEOUT_S = 30.0  # no progress: idle, a half-sent frame or an unread reply; receivers report every second
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


def _frame(obj: dict) -> bytes:
    payload = json.dumps(obj, separators=(",", ":")).encode()
    return _LEN.pack(len(payload)) + payload


class _Connection:
    """One accepted stream: its unparsed input, its unsent reply and when it last moved."""

    def __init__(self, server: StreamServer, sock: socket.socket, peer: tuple):
        self.server, self.sock, self.peer = server, sock, peer[:2]
        self.inbuf, self.outbuf, self.closing = bytearray(), memoryview(b""), False
        self.progress = time.monotonic()

    def serve(self, events: int):
        """Read or send once, answering at most one request: connections take turns."""
        try:
            if events & selectors.EVENT_READ:
                data = self.sock.recv(1 << 16)
                if not data:
                    return self.close()  # a request cut short goes with it
                self.inbuf += data
                self.progress = time.monotonic()
            elif self.outbuf:
                self._send()
            # one request in flight, and none after a reply that closes
            taken = None if self.outbuf or self.closing else self.server.take(self.inbuf)
            if taken is not None:
                reply, self.closing = taken
                self.outbuf = memoryview(reply)
                self._send()
            if self.closing and not self.outbuf:
                return self.close()
            # after an answer, wait until writable: to send the rest, or to take a request already read
            events = selectors.EVENT_WRITE if taken or self.outbuf else selectors.EVENT_READ
            self.server.selector.modify(self.sock, events, self.serve)
        except OSError as exc:
            log.info("%s client %s:%d dropped the connection (%s)", type(self.server).__name__, *self.peer, exc)
            self.close()
        except Exception:
            log.exception("%s client %s:%d: request failed; closing", type(self.server).__name__, *self.peer)
            self.close()

    def _send(self):
        with contextlib.suppress(BlockingIOError):
            self.outbuf = self.outbuf[self.sock.send(self.outbuf) :]
            self.progress = time.monotonic()

    def close(self):
        self.server.connections.discard(self)
        self.server.selector.unregister(self.sock)
        self.sock.close()


class StreamServer:
    """A TCP listener for one control plane, served without blocking from a selector loop.

    Each key it registers carries a callable taking the ready events.  A
    subclass's ``take(inbuf)`` removes one request from the front of
    ``inbuf`` and returns (reply, close after it), or None while no
    request is whole.  A connection has one request in flight: a reply
    the peer does not read at once is kept until the socket drains.
    """

    def __init__(self, cp: ControlPlane, address, selector: selectors.BaseSelector):
        self.cp = cp
        # backlog = the cap: a burst of connects is refused, not left to SYN retries
        self.sock = socket.create_server(tuple(address), backlog=MAX_CONNECTIONS)
        self.sock.setblocking(False)
        self.address = self.sock.getsockname()[:2]
        self.selector = selector
        self.connections: set[_Connection] = set()
        selector.register(self.sock, selectors.EVENT_READ, self._accept)

    def _accept(self, _events: int):
        try:
            sock, peer = self.sock.accept()
        except OSError:  # the peer gave up before the accept
            return
        if len(self.connections) >= MAX_CONNECTIONS:
            log.warning("%s refused %s:%d: %d connections open", type(self).__name__, *peer[:2], len(self.connections))
            sock.close()
            return
        sock.setblocking(False)
        conn = _Connection(self, sock, peer)
        self.connections.add(conn)
        self.selector.register(sock, selectors.EVENT_READ, conn.serve)

    def expire(self, now: float) -> float:
        """Close every connection without progress for READ_TIMEOUT_S; returns the seconds until the next is due."""
        for conn in [c for c in self.connections if now - c.progress >= READ_TIMEOUT_S]:
            log.info("%s client %s:%d stalled for %.1f s; closing", type(self).__name__, *conn.peer, now - conn.progress)
            conn.close()
        return min((c.progress + READ_TIMEOUT_S - now for c in self.connections), default=READ_TIMEOUT_S)

    def close(self):
        for conn in list(self.connections):
            conn.close()
        self.selector.unregister(self.sock)
        self.sock.close()


class ControlServer(StreamServer):
    def take(self, inbuf: bytearray) -> tuple[bytes, bool] | None:
        if len(inbuf) < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(inbuf)
        if length > FRAME_MAX:  # cannot resynchronize: reply, then close
            error = {"ok": False, "error": "BadRequest", "message": f"frame of {length} octets exceeds {FRAME_MAX}"}
            return _frame(error), True
        end = _LEN.size + length
        if len(inbuf) < end:
            return None
        body = bytes(inbuf[_LEN.size : end])
        del inbuf[:end]
        return _frame(self.dispatch(body)), False

    # --- request handling -----------------------------------------------------

    def dispatch(self, body: bytes) -> dict:
        try:
            request = json.loads(body)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting past the parser's depth
            return {"ok": False, "error": "BadRequest", "message": f"undecodable request: {exc}"}
        if not isinstance(request, dict) or not isinstance(request.get("verb"), str):
            return {"ok": False, "error": "BadRequest", "message": "request must be an object with a verb"}
        try:
            return {"ok": True, **self._apply(request)}
        except _NAMED_ERRORS as exc:
            return {"ok": False, "error": type(exc).__name__, "message": str(exc)}
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(1e400)
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
        self._stream = self.sock.makefile("rb")

    def call(self, verb: str, **fields) -> dict:
        self.sock.sendall(_frame({"verb": verb, **fields}))
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
