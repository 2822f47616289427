"""The balancer that ``lb-run`` deploys, as one object.

Around one ControlPlane it binds what an ``lb-run`` config names: per
instance a UDP data plane and a sync socket, plus the control and
metrics listeners.  The data planes forward on their own threads; one
loop, ``run``, serves every other socket and the control pass.
``lb-run`` and the loopback harness both build it.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import selectors
import socket
import threading
import time

from . import controlplane, netutil, wire
from .control import ControlServer
from .dataplane import UdpDataPlane
from .metrics import MetricsServer

__all__ = ["CONTROL_INTERVAL_S", "Balancer"]

log = logging.getLogger(__name__)

CONTROL_INTERVAL_S = 1.0


class Balancer:
    """Binds every socket of a config at construction; a failed bind closes the rest.

    ``start`` starts the data-plane threads.  ``run`` serves everything
    else from one selector; ``stop`` ends it at once.  ``close`` releases
    everything, also after a partial start, within about one IDLE_TICK_S.
    """

    def __init__(self, cp: controlplane.ControlPlane, config: dict):
        self.cp = cp
        self.stopping = threading.Event()
        self.dataplanes, self._sync_socks = [], []
        self.control = self.metrics = None
        self._selector = selectors.DefaultSelector()
        self._wake, self._waker = socket.socketpair()  # stop writes one octet to end the wait
        self._waker.setblocking(False)
        self._selector.register(self._wake, selectors.EVENT_READ, lambda _events: None)
        try:
            for spec in config["instances"]:
                self._add_instance(spec)
            self.control = ControlServer(cp, netutil.parse_address(config["control"]), self._selector)
            self.metrics = MetricsServer(cp, netutil.parse_address(config["metrics"]), self._selector)
        except BaseException:
            self.close()
            raise

    def _add_instance(self, spec: dict):
        iid = spec["instance_id"]
        listen = netutil.parse_address(spec["listen"])
        if iid in self.cp.instances:
            self.cp.instances[iid].listen = listen  # snapshot ports may be stale
        else:
            extra = {k: spec[k] for k in ("slot_count", "drain_delay_s") if k in spec}
            self.cp.reserve_instance(listen=listen, instance_id=iid, **extra)
        self.dataplanes.append(UdpDataPlane(self.cp.instances[iid]))
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sync_socks.append(sock)
        sock.bind(netutil.parse_address(spec["sync_listen"]))
        sock.setblocking(False)
        self._selector.register(sock, selectors.EVENT_READ, functools.partial(self._read_sync, sock, iid))

    def endpoints(self) -> dict:
        """Every bound address, as lb-run's ready line prints it."""
        instances = {
            str(dp.instance.instance_id): {"data": list(dp.address), "sync": list(sock.getsockname())}
            for dp, sock in zip(self.dataplanes, self._sync_socks)
        }
        return {"control": list(self.control.address), "metrics": list(self.metrics.address), "instances": instances}

    def start(self):
        for dp in self.dataplanes:
            dp.start()

    def run(self):
        """Pass CONTROL_INTERVAL_S after the last pass ends; in between, serve syncs and requests (each waits a pass)."""
        next_pass = time.monotonic() + CONTROL_INTERVAL_S
        while not self.stopping.is_set():
            now = time.monotonic()
            if now < next_pass:
                wait = min(next_pass - now, self.control.expire(now), self.metrics.expire(now))
                for key, events in self._selector.select(wait):
                    key.data(events)
                continue
            try:
                self.cp.control_tick()
            except Exception:
                log.exception("control tick failed")
            next_pass = time.monotonic() + CONTROL_INTERVAL_S

    def stop(self):
        """End ``run`` without waiting out its wait; safe from a signal handler or another thread."""
        self.stopping.set()
        with contextlib.suppress(OSError):  # a wake is already pending, or the balancer is closed
            self._waker.send(b"\0")

    def _read_sync(self, sock: socket.socket, instance_id: int, _events: int):
        """Feed one datagram to the control plane; the socket leaves the loop once it is done."""
        try:
            self.cp.ingest_sync(instance_id, wire.decode_sync(sock.recv(4096)))
        except BlockingIOError:  # ready, yet nothing to read
            pass
        except (OSError, controlplane.UnknownInstance):  # closed under us, or the instance is gone
            self._selector.unregister(sock)
        except wire.WireError as exc:
            log.debug("instance %d: discarding sync datagram (%s)", instance_id, exc)
        except controlplane.NonMonotonicTick as exc:
            log.warning("instance %d: sync rejected (%s)", instance_id, exc)

    def close(self):
        """Signal every data plane to stop, then join them: the exit waits one idle tick, not one per part."""
        self.stop()
        for dp in self.dataplanes:
            dp.request_stop()
        for dp in self.dataplanes:
            dp.stop()
        for server in (self.control, self.metrics):
            if server is not None:
                server.close()
        for sock in (*self._sync_socks, self._wake, self._waker):
            sock.close()
        self._selector.close()
