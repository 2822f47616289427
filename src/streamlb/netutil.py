"""Small socket helpers shared by the front ends."""

from __future__ import annotations

import socket
import struct
import threading

__all__ = ["ServedOnThread", "request_buffer", "parse_address", "recv_datagrams"]

# How long a receive loop blocks before it looks at its stop flag.
IDLE_TICK_S = 0.2
# Kernel buffer each UDP front end asks for.  Unprivileged, the grant is
# capped at twice net.core.rmem_max (wmem_max for sending).
SOCKET_BUFFER = 8 << 20


def request_buffer(sock: socket.socket, direction: str, size: int) -> int:
    """Ask for a kernel buffer, forced when privileged; returns the grant.

    Plain SO_RCVBUF/SO_SNDBUF is silently capped by net.core.rmem_max /
    wmem_max; the FORCE variants ignore the cap but need CAP_NET_ADMIN,
    so try those first and fall back.
    """
    if direction == "recv":
        opt, force_name = socket.SO_RCVBUF, "SO_RCVBUFFORCE"
    elif direction == "send":
        opt, force_name = socket.SO_SNDBUF, "SO_SNDBUFFORCE"
    else:
        raise ValueError(f"direction {direction!r} is not recv or send")
    force = getattr(socket, force_name, None)
    if force is not None:
        try:
            sock.setsockopt(socket.SOL_SOCKET, force, size)
            return sock.getsockopt(socket.SOL_SOCKET, opt)
        except OSError:
            pass
    sock.setsockopt(socket.SOL_SOCKET, opt, size)
    return sock.getsockopt(socket.SOL_SOCKET, opt)


def parse_address(text: str) -> tuple:
    """'host:port' -> (host, port); bare ':port' binds all interfaces."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"address {text!r} is not host:port")
    return (host or "0.0.0.0", int(port))


def recv_datagrams(sock: socket.socket, stop, bufsize: int = 65535):
    """Yield each datagram from ``sock`` until ``stop`` is set or it closes.

    The socket stays in blocking mode with ``SO_RCVTIMEO`` set, so each
    datagram costs exactly one ``recvfrom``: a Python-level timeout would
    add a ``poll`` before every receive.  When the kernel timeout expires
    the loop yields ``None`` (the idle tick, for housekeeping) and checks
    ``stop``, which therefore takes effect within IDLE_TICK_S.
    """
    sock.setblocking(True)
    usec = int(IDLE_TICK_S * 1e6)
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_RCVTIMEO, struct.pack("@ll", usec // 1_000_000, usec % 1_000_000)
    )
    recv = sock.recv
    while not stop.is_set():
        try:
            datagram = recv(bufsize)
        except BlockingIOError:  # SO_RCVTIMEO expired with nothing queued
            datagram = None
        except OSError:  # closed under us
            return
        yield datagram


class ServedOnThread:
    """Mixin that serves a ``socketserver`` server from a daemon thread.

    ``stop`` returns within one IDLE_TICK_S poll, also on a server that
    never started.
    """

    daemon_threads = True  # request handlers never hold up an exit
    _thread: threading.Thread | None = None

    @property
    def address(self) -> tuple:
        return self.server_address[:2]

    def start(self):
        self._thread = threading.Thread(
            target=self.serve_forever, args=(IDLE_TICK_S,), name=type(self).__name__, daemon=True
        )
        self._thread.start()

    def stop(self):
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=2.0)
            self._thread = None
        self.server_close()
