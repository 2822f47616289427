"""The benchmark's span tracer binds the names the program calls.

``perfbench/tracer.py`` wraps each layer's entry point by its dotted name.
A renamed function would leave its per-layer figure at 0 with only a
warning, so every name must resolve here.
"""

import hashlib
import importlib.util
import socket
import urllib.request
from pathlib import Path

import pytest

from streamlb import netutil, wire
from streamlb.control import ControlClient
from streamlb.controlplane import ControlPlane
from streamlb.dataplane import SLOT_COUNT, LbInstance, MemberSession, UdpDataPlane
from streamlb.receiver import Receiver, UdpReceiver
from streamlb.sender import Event, fragment_event

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    missing = tracer.install(module.ENTRY_POINTS)
    try:
        yield tracer, missing
    finally:
        tracer.uninstall()


def test_every_tracer_entry_point_resolves(tracer):
    _, missing = tracer
    assert missing == []


def test_the_socket_loop_routes_through_the_traced_entry_point(tracer):
    tracer, _ = tracer
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sink.bind(("127.0.0.1", 0))
    sink.settimeout(2.0)
    inst = LbInstance(instance_id=0, listen=("127.0.0.1", 0))
    inst.members[1] = MemberSession(
        session_id=1, dest_ip="127.0.0.1", base_port=sink.getsockname()[1], port_count=1
    )
    inst.apply_schedule(0, (1,) * SLOT_COUNT)
    dp = UdpDataPlane(inst)
    dp.start()
    out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        (dg,) = fragment_event(Event(tick=3, channels={0: b"traced"}))
        out.sendto(dg, dp.address)
        assert sink.recv(100) == dg[16:]
    finally:
        out.close()
        dp.stop()
        sink.close()
    routed = tracer.totals().get("streamlb.dataplane.LbInstance.forward_packet", {"calls": 0})
    assert routed["calls"] == 1


def test_the_control_loop_serves_through_the_traced_entry_points(tracer, serving):
    tracer, _ = tracer
    lb = serving(ControlPlane())
    with ControlClient(lb.control.address) as client:
        iid = client.reserve()
    with urllib.request.urlopen("http://%s:%d/metrics" % lb.metrics.address, timeout=5.0) as resp:
        assert f'lb_epochs_total{{instance="{iid}"}} 0' in resp.read().decode()
    totals = tracer.totals()
    for name in ("streamlb.control.ControlServer.dispatch", "streamlb.metrics.render_metrics"):
        assert totals.get(name, {"calls": 0})["calls"] == 1, name


def test_the_receiver_loop_ingests_a_channel_through_one_traced_call(tracer):
    tracer, _ = tracer
    payload = bytes(range(256)) * 62 + bytes(128)  # 16,000 octets: 12 fragments
    core = Receiver(expected_channels=(0,))
    front = UdpReceiver(core, "127.0.0.1", base_port=0, port_count=1)
    front.start()
    out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        run = [dg[wire.LB_HEADER_SIZE :] for dg in fragment_event(Event(tick=9, channels={0: payload}))]
        netutil.SegmentSender(out).send(run, ("127.0.0.1", front.base_port))
        got = core.pop_event(block=True, timeout=2.0)
    finally:
        out.close()
        front.stop()
    assert got is not None and hashlib.sha256(got.channels[0]).digest() == hashlib.sha256(payload).digest()
    assert core.counters["ingested"] == 12
    ingested = tracer.totals().get("streamlb.receiver.Receiver.ingest_packet", {"calls": 0})
    assert ingested["calls"] == 1
