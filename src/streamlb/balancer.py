"""The balancer that ``lb-run`` deploys, as one object.

Around one ControlPlane it binds what an ``lb-run`` config names: per
instance a UDP data plane and a sync socket, which the control pass
reads, plus the control and metrics servers.  ``lb-run`` and the
loopback harness both build it.
"""

from __future__ import annotations

import logging
import select
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

    ``run`` is the 1 Hz control pass; setting ``stopping`` ends it within
    one IDLE_TICK_S.  ``close`` releases everything, also after a partial
    start, within about one IDLE_TICK_S.
    """

    def __init__(self, cp: controlplane.ControlPlane, config: dict):
        self.cp = cp
        self.stopping = threading.Event()
        self.dataplanes, self._sync_socks = [], []
        self.control = self.metrics = None
        try:
            for spec in config["instances"]:
                self._add_instance(spec)
            self.control = ControlServer(cp, netutil.parse_address(config["control"]))
            self.metrics = MetricsServer(cp, netutil.parse_address(config["metrics"]))
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

    def endpoints(self) -> dict:
        """Every bound address, as lb-run's ready line prints it."""
        instances = {
            str(dp.instance.instance_id): {"data": list(dp.address), "sync": list(sock.getsockname())}
            for dp, sock in zip(self.dataplanes, self._sync_socks)
        }
        return {"control": list(self.control.address), "metrics": list(self.metrics.address), "instances": instances}

    def start(self):
        for part in (self.control, self.metrics, *self.dataplanes):
            part.start()

    def run(self):
        """Pass CONTROL_INTERVAL_S after the last pass ends; in between, read syncs (each waits one pass at most)."""
        poller, sources = select.poll(), {}  # fd -> (socket, instance id)
        for dp, sock in zip(self.dataplanes, self._sync_socks):
            sock.setblocking(False)
            poller.register(sock, select.POLLIN)
            sources[sock.fileno()] = (sock, dp.instance.instance_id)
        next_pass = time.monotonic() + CONTROL_INTERVAL_S
        while not self.stopping.is_set():
            wait = next_pass - time.monotonic()
            if wait > 0:
                for fd, _mask in poller.poll(min(netutil.IDLE_TICK_S, wait) * 1e3):
                    if not self._read_sync(*sources[fd]):
                        poller.unregister(fd)
                continue
            try:
                self.cp.control_tick()
            except Exception:
                log.exception("control tick failed")
            next_pass = time.monotonic() + CONTROL_INTERVAL_S

    def _read_sync(self, sock: socket.socket, instance_id: int) -> bool:
        """Feed one datagram to the control plane; False once the socket is done."""
        try:
            self.cp.ingest_sync(instance_id, wire.decode_sync(sock.recv(4096)))
        except BlockingIOError:  # ready, yet nothing to read
            pass
        except (OSError, controlplane.UnknownInstance):  # closed under us, or the instance is gone
            return False
        except wire.WireError as exc:
            log.debug("instance %d: discarding sync datagram (%s)", instance_id, exc)
        except controlplane.NonMonotonicTick as exc:
            log.warning("instance %d: sync rejected (%s)", instance_id, exc)
        return True

    def close(self):
        """Signal every part to stop, then join them: the exit waits one idle tick, not one per part."""
        self.stopping.set()  # the control pass
        servers = [s for s in (self.control, self.metrics) if s is not None]
        for part in (*self.dataplanes, *servers):
            part.request_stop()
        for dp in self.dataplanes:
            dp.stop()
        for sock in self._sync_socks:
            sock.close()
        for server in servers:
            server.stop()
