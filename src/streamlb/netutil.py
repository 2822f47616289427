"""Small socket helpers shared by the front ends.

Two of them move a run of datagrams per system call with UDP segmentation
offload.  ``SegmentSender`` writes a run of equal-size datagrams to one
destination as one ``sendmsg`` carrying ``UDP_SEGMENT`` (Linux 4.18 or
later); the kernel cuts it back into datagrams on delivery, so a receiver
without ``UDP_GRO`` still reads one datagram per call.  On a socket with
``UDP_GRO`` set (``enable_gro``, Linux 5.0 or later) one ``recvmsg``
returns such a run whole, and ``gro_segment_size`` reads its segment size
from the control message.
"""

from __future__ import annotations

import errno
import logging
import socket
import struct

__all__ = [
    "SegmentSender",
    "request_buffer",
    "parse_address",
    "arm_idle_tick",
    "enable_gro",
    "gro_segment_size",
]

log = logging.getLogger(__name__)

# How long a receive loop blocks before it looks at its stop flag.
IDLE_TICK_S = 0.2
# Kernel buffer each UDP front end asks for.  Unprivileged, the grant is
# capped at twice net.core.rmem_max (wmem_max for sending).
SOCKET_BUFFER = 8 << 20

# linux/udp.h; Python's socket module names neither option.
SOL_UDP = getattr(socket, "SOL_UDP", 17)
UDP_SEGMENT = 103
UDP_GRO = 104
# One GSO write carries at most this many segments and octets.
GSO_MAX_SEGMENTS = 64
GSO_MAX_OCTETS = 65507  # the largest IPv4 UDP payload
# What a kernel answers a GSO write it will not segment: a segment past the
# path MTU or a kernel without UDP_SEGMENT (EINVAL), a device without
# checksum offload (EIO), a run past the size caps (EMSGSIZE).
GSO_REFUSED = frozenset((errno.EINVAL, errno.EIO, errno.EMSGSIZE))

_SEGMENT_SIZE = struct.Struct("=H")  # UDP_SEGMENT's cmsg: u16
_GRO_SIZE = struct.Struct("=i")  # UDP_GRO's cmsg: int
GRO_CMSG_SPACE = socket.CMSG_SPACE(_GRO_SIZE.size)  # recvmsg's ancbufsize on a UDP_GRO socket


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


def arm_idle_tick(sock: socket.socket):
    """Blocking mode with SO_RCVTIMEO: a receive returns within IDLE_TICK_S.

    A Python-level timeout would add a ``poll`` before every receive.
    """
    sock.setblocking(True)
    usec = int(IDLE_TICK_S * 1e6)
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_RCVTIMEO, struct.pack("@ll", usec // 1_000_000, usec % 1_000_000)
    )


def enable_gro(sock: socket.socket):
    """Set UDP_GRO, so one read may return a run of segments."""
    try:
        sock.setsockopt(SOL_UDP, UDP_GRO, 1)
    except OSError as exc:  # before Linux 5.0: each read stays one datagram
        log.warning("UDP_GRO refused (%s); reading one datagram per call", exc)


def gro_segment_size(ancdata: list) -> int:
    """The segment size of a coalesced read, from its UDP_GRO control message.

    Returns 0 for a read without one, which holds one datagram.
    """
    for level, kind, value in ancdata:
        if level == SOL_UDP and kind == UDP_GRO:
            return _GRO_SIZE.unpack(value)[0]
    return 0


class SegmentSender:
    """Sends datagrams in order, one GSO ``sendmsg`` per run where it can.

    A run is consecutive datagrams of one size, the last of which may be
    shorter, up to GSO_MAX_SEGMENTS and GSO_MAX_OCTETS.  A lone datagram,
    or any datagram on a socket object without ``sendmsg``, goes out with
    one ``sendto``.  A GSO write that fails is resent one datagram per
    call, so it costs no more datagrams than those sends would.  Once the
    kernel refuses a GSO write to a destination (GSO_REFUSED), every later
    run to that destination goes out one datagram per call; ``refused``
    holds those destinations, and each is logged once.
    """

    def __init__(self, sock):
        self._sendto = sock.sendto
        self._sendmsg = getattr(sock, "sendmsg", None)
        self.refused: set = set()

    def send(self, payloads: list, dest: tuple):
        """Send ``payloads`` to ``dest`` in order; a ``sendto``'s OSError propagates."""
        if len(payloads) == 1 or self._sendmsg is None or dest in self.refused:
            for payload in payloads:
                self._sendto(payload, dest)
            return
        run, size, octets = [], 0, 0
        for payload in payloads:
            n = len(payload)
            if run and (
                n > size or len(run[-1]) != size or len(run) == GSO_MAX_SEGMENTS
                or octets + n > GSO_MAX_OCTETS or not n
            ):
                self._send_run(run, dest)
                run = []
            if not run:
                size, octets = n, 0
            run.append(payload)
            octets += n
        self._send_run(run, dest)

    def _send_run(self, run: list, dest: tuple):
        if len(run) > 1 and dest not in self.refused:
            try:
                self._sendmsg(run, [(SOL_UDP, UDP_SEGMENT, _SEGMENT_SIZE.pack(len(run[0])))], 0, dest)
                return
            except OSError as exc:
                if exc.errno in GSO_REFUSED:
                    self.refused.add(dest)
                    log.warning(
                        "GSO write to %s refused (%s); sending to it one datagram per call "
                        "(%d destinations so far)", dest, exc, len(self.refused),
                    )
        for payload in run:
            self._sendto(payload, dest)

