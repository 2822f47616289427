"""The balancer that ``lb-run`` deploys, as one object.

Around one ControlPlane it binds what an ``lb-run`` config names: per
instance a UDP data plane and a sync listener, plus the control and
metrics servers.  ``lb-run`` and the loopback harness both build it.
"""

from __future__ import annotations

import logging
import socket
import threading

from . import controlplane, netutil, wire
from .control import ControlServer
from .dataplane import UdpDataPlane
from .metrics import MetricsServer

__all__ = ["CONTROL_INTERVAL_S", "Balancer", "sync_listener"]

log = logging.getLogger(__name__)

CONTROL_INTERVAL_S = 1.0


def sync_listener(sock: socket.socket, cp, instance_id: int, stop: threading.Event):
    """Feed sync datagrams into the control plane until told to stop."""
    for datagram in netutil.recv_datagrams(sock, stop, bufsize=4096):
        if datagram is None:
            continue
        try:
            msg = wire.decode_sync(datagram)
        except wire.WireError as exc:
            log.debug("instance %d: discarding sync datagram (%s)", instance_id, exc)
            continue
        try:
            cp.ingest_sync(instance_id, msg)
        except controlplane.NonMonotonicTick as exc:
            log.warning("instance %d: sync rejected (%s)", instance_id, exc)
        except controlplane.UnknownInstance:
            break


class Balancer:
    """Binds every socket of a config at construction; a failed bind closes the rest.

    ``run`` is the 1 Hz control pass; setting ``stopping`` ends it and the
    sync listeners.  ``close`` releases everything, also after a partial
    start, within about one IDLE_TICK_S.
    """

    def __init__(self, cp: controlplane.ControlPlane, config: dict):
        self.cp = cp
        self.stopping = threading.Event()
        self.dataplanes, self._sync_socks, self._threads = [], [], []
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
        self._threads.append(threading.Thread(
            target=sync_listener, args=(sock, self.cp, iid, self.stopping), name=f"sync-{iid}", daemon=True
        ))

    def endpoints(self) -> dict:
        """Every bound address, as lb-run's ready line prints it."""
        instances = {
            str(dp.instance.instance_id): {"data": list(dp.address), "sync": list(sock.getsockname())}
            for dp, sock in zip(self.dataplanes, self._sync_socks)
        }
        return {"control": list(self.control.address), "metrics": list(self.metrics.address), "instances": instances}

    def start(self):
        for part in (self.control, self.metrics, *self.dataplanes, *self._threads):
            part.start()

    def run(self):
        while not self.stopping.wait(CONTROL_INTERVAL_S):
            try:
                self.cp.control_tick()
            except Exception:
                log.exception("control tick failed")

    def close(self):
        """Signal every part to stop, then join them: the exit waits one idle tick, not one per part."""
        self.stopping.set()  # the control pass and the sync listeners
        servers = [s for s in (self.control, self.metrics) if s is not None]
        for part in (*self.dataplanes, *servers):
            part.request_stop()
        for dp in self.dataplanes:
            dp.stop()
        for t in self._threads:
            if t.is_alive():
                t.join(timeout=2.0)
        for sock in self._sync_socks:
            sock.close()
        for server in servers:
            server.stop()
