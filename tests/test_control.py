"""Control protocol server and client over a real TCP socket."""

import json
import select
import selectors
import socket
import struct
import sys
import threading
import time
import urllib.request

import pytest

from streamlb import balancer, control, wire
from streamlb import controlplane as cp_mod
from streamlb.control import FRAME_MAX, ControlClient, ControlProtocolError, ControlServer, FrameError
from streamlb.controlplane import (
    MAX_INSTANCES,
    AlreadyDraining,
    CapacityExhausted,
    ControlPlane,
    DuplicateEndpoint,
    FillReport,
    UnknownInstance,
    UnknownSession,
)
from streamlb.dataplane import SLOT_COUNT
from streamlb.metrics import MetricsServer

NO_INSTANCES = {"control": "127.0.0.1:0", "metrics": "127.0.0.1:0", "instances": []}


@pytest.fixture
def fabric(serving):
    cp = ControlPlane(clock=lambda: 0)
    lb = serving(cp)
    client = ControlClient(lb.control.address)
    yield cp, client
    client.close()


def _raw_call(sock, body: bytes) -> dict:
    sock.sendall(struct.pack(">I", len(body)) + body)
    (length,) = struct.unpack(">I", _recv_exactly(sock, 4))
    return json.loads(_recv_exactly(sock, length))


def _recv_exactly(sock, n: int) -> bytes:
    out = b""
    while len(out) < n:
        chunk = sock.recv(n - len(out))
        assert chunk, "the server closed the connection"
        out += chunk
    return out


@pytest.mark.parametrize("server_class", [ControlServer, MetricsServer])
def test_server_stops_within_a_quarter_second(server_class):
    with selectors.DefaultSelector() as selector:
        server_class(ControlPlane(), ("127.0.0.1", 0), selector).close()  # never served
    balancer.Balancer(ControlPlane(), NO_INSTANCES).close()  # never run
    lb = balancer.Balancer(ControlPlane(), NO_INSTANCES)
    server = lb.control if server_class is ControlServer else lb.metrics
    assert type(server) is server_class
    runner = threading.Thread(target=lb.run, daemon=True)
    runner.start()
    with ControlClient(lb.control.address) as client, socket.create_connection(server.address) as held:
        client.query()
        # half a request, left open on the server under test
        held.sendall(struct.pack(">I", 64) if server_class is ControlServer else b"GET /metrics HTTP/1.0\r\n")
        time.sleep(0.1)
        t0 = time.monotonic()
        lb.stop()
        runner.join(timeout=2.0)
        lb.close()
        elapsed = time.monotonic() - t0
    assert not runner.is_alive()
    assert elapsed < 0.25


def test_full_lifecycle_over_the_wire(fabric):
    cp, client = fabric
    iid = client.reserve(listen=["127.0.0.1", 0])
    sid = client.register(iid, "10.1.1.1", 7000, 2, weight=2.0)
    assert cp.instances[iid].members[sid].weight == 2.0

    client.report(FillReport(session_id=sid, queue_fill=0.25, control_signal=0.1, ready=True))
    assert cp.instances[iid].members[sid].report.queue_fill == 0.25

    info = client.query(iid)
    assert info[str(iid)]["members"][str(sid)]["dest_ip"] == "10.1.1.1"

    client.deregister(sid)
    assert cp.instances[iid].members[sid].state.value == "draining"
    client.free(iid)
    assert cp.instances == {}


def test_capacity_error_crosses_the_wire(fabric):
    _, client = fabric
    for _ in range(MAX_INSTANCES):
        client.reserve()
    with pytest.raises(CapacityExhausted):
        client.reserve()


def test_named_errors_reraise_locally(fabric):
    cp, client = fabric
    iid = client.reserve()
    sid = client.register(iid, "10.0.0.1", 9000, 4)
    with pytest.raises(DuplicateEndpoint):
        client.register(iid, "10.0.0.1", 9002, 2)  # overlaps 9000..9003
    with pytest.raises(UnknownSession):
        client.report(FillReport(session_id=777, queue_fill=0.0, control_signal=0.0, ready=True))
    client.deregister(sid)
    with pytest.raises(AlreadyDraining):
        client.deregister(sid)
    with pytest.raises(UnknownInstance):
        client.free(6)


def test_bad_requests_do_not_kill_the_connection(fabric):
    _, client = fabric
    with pytest.raises(ControlProtocolError):
        client.call("warp")
    with pytest.raises(ControlProtocolError):
        client.call("register")  # missing everything
    assert isinstance(client.reserve(), int)  # connection still healthy


def test_undecodable_frame_reports_bad_request(fabric):
    _, client = fabric
    server_addr = client.sock.getpeername()
    raw = socket.create_connection(server_addr)
    raw.sendall(struct.pack(">I", 9) + b"not json!")
    head = raw.recv(4)
    (length,) = struct.unpack(">I", head)
    response = json.loads(raw.recv(length))
    assert response["ok"] is False
    assert response["error"] == "BadRequest"
    raw.close()


def test_oversize_frame_rejected_and_closed(fabric):
    _, client = fabric
    raw = socket.create_connection(client.sock.getpeername())
    raw.sendall(struct.pack(">I", FRAME_MAX + 1))
    head = raw.recv(4)
    (length,) = struct.unpack(">I", head)
    response = json.loads(raw.recv(length))
    assert response["error"] == "BadRequest"
    assert raw.recv(1) == b""  # server hung up, no resync possible
    raw.close()


@pytest.mark.parametrize(
    "body",
    [b"[" * 100_000, b'{"verb":"free","instance_id":1e400}'],
    ids=["nested_past_the_parser_depth", "integer_overflow"],
)
def test_hostile_json_is_a_bad_request_and_keeps_the_connection(fabric, body):
    _, client = fabric
    with socket.create_connection(client.sock.getpeername(), timeout=5.0) as raw:
        response = _raw_call(raw, body)
        assert response["ok"] is False and response["error"] == "BadRequest"
        assert _raw_call(raw, b'{"verb":"query"}') == {"ok": True, "instances": {}}
    assert isinstance(client.reserve(), int)


@pytest.mark.parametrize("base_port, port_count", [(0, 1), (70000, 1), (65535, 2), (-3, 4)])
def test_register_rejects_ports_outside_the_range(fabric, base_port, port_count):
    cp, client = fabric
    iid = client.reserve()
    with pytest.raises(ControlProtocolError, match="BadRequest: ValueError"):
        client.register(iid, "127.0.0.1", base_port, port_count)
    assert cp.instances[iid].members == {}
    client.register(iid, "127.0.0.1", 65534, 2)  # the last two ports


def test_concurrent_clients_register_distinct_sessions(fabric):
    cp, client = fabric
    iid = client.reserve()
    sids, errors = [], []
    lock = threading.Lock()

    def register(n):
        try:
            with ControlClient(client.sock.getpeername()) as c:
                sid = c.register(iid, f"10.9.0.{n}", 8000, 2)
            with lock:
                sids.append(sid)
        except Exception as exc:  # surface, don't swallow
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=register, args=(n,)) for n in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(set(sids)) == 8
    assert len(cp.instances[iid].members) == 8


# --- membership takes effect before the response ------------------------------


def test_register_holds_slots_before_it_returns(fabric):
    cp, client = fabric
    iid = client.reserve()
    sid = client.register(iid, "10.1.1.1", 7000, 2)
    state = client.query(iid)[str(iid)]  # no control pass in between
    assert state["members"][str(sid)]["slots"] == SLOT_COUNT
    assert len(state["epochs"]) == 1
    assert cp.instances[iid].epochs[-1].table == (sid,) * SLOT_COUNT


def test_deregister_publishes_a_table_without_the_leaver(fabric):
    cp, client = fabric
    iid = client.reserve()
    a = client.register(iid, "10.1.1.1", 7000, 1)
    b = client.register(iid, "10.1.1.2", 7000, 1)
    assert set(cp.instances[iid].epochs[-1].table) == {a, b}
    client.deregister(a)
    state = client.query(iid)[str(iid)]
    assert state["members"][str(a)]["state"] == "draining"
    assert state["members"][str(a)]["slots"] == 0
    assert state["members"][str(b)]["slots"] == SLOT_COUNT
    assert len(state["epochs"]) == 3


def test_membership_storm_never_splits_a_tick_nor_runs_two_epochs_ahead(monkeypatch, caplog, serving):
    # One thread forwards 3-fragment events and feeds the tick predictor,
    # so each boundary lands a short guard interval ahead of the traffic,
    # while two clients register and deregister members over the wire.
    caplog.set_level("ERROR", logger=cp_mod.__name__)
    monkeypatch.setattr(cp_mod, "GUARD_S", 0.005)
    cp = ControlPlane()
    iid = cp.reserve_instance()
    inst = cp.instances[iid]
    cp.register_member(iid, "10.8.0.1", 9000, 1)  # stays a member throughout
    cp.control_tick()
    ahead = []  # epochs past the forwarded traffic right after each publish
    cp.epoch_listener = lambda i, e, fwd: ahead.append(sum(x.boundary_tick > fwd for x in inst.epochs))
    dests = {}  # tick -> session ids its fragments reached
    stop = threading.Event()

    def forward():
        tick = 0
        while not stop.is_set():
            dg = wire.encode_lb_header(wire.LbMetaHeader(channel=0, tick=tick)) + bytes(20)
            for _ in range(3):
                for _dest, sid, _payloads in inst.forward_packet(dg):
                    dests.setdefault(tick, set()).add(sid)
            if tick % 32 == 0:
                cp.ingest_sync(iid, wire.SyncMessage(1, tick, 0, time.time_ns()))
            tick += 1

    errors = []

    def churn(n):
        try:
            with ControlClient(server.address) as c:
                for k in range(12):
                    sid = c.register(iid, f"10.8.{n}.{k + 2}", 9000, 1)
                    time.sleep(0.002)  # a call is far quicker than the guard; let traffic pass
                    c.deregister(sid)
                    time.sleep(0.002)
        except Exception as exc:  # surface, don't swallow
            errors.append(exc)

    server = serving(cp).control
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    forwarder = threading.Thread(target=forward, daemon=True)
    clients = [threading.Thread(target=churn, args=(n,), daemon=True) for n in (1, 2)]
    try:
        forwarder.start()
        while inst.max_forwarded_tick is None:
            time.sleep(0.001)
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=60.0)
    finally:
        stop.set()
        forwarder.join(timeout=5.0)
        sys.setswitchinterval(old_interval)
    assert not forwarder.is_alive() and not any(t.is_alive() for t in clients)
    assert not errors
    assert len(ahead) >= 2, "the storm published no membership epoch"
    assert max(ahead) == 1, f"publishes left {max(ahead)} epochs ahead of the traffic"
    split = sorted(t for t, sids in dests.items() if len(sids) > 1)
    assert not split, f"{len(split)} ticks reached two members, first {split[:5]}"


# --- server bounds ---------------------------------------------------------------


def test_half_sent_frame_is_closed_after_the_read_timeout(fabric, monkeypatch):
    monkeypatch.setattr(control, "READ_TIMEOUT_S", 0.3)
    _, client = fabric
    addr = client.sock.getpeername()
    with socket.create_connection(addr, timeout=5.0) as raw:
        raw.sendall(struct.pack(">I", 9) + b"{")  # length and 1 of 9 octets
        t0 = time.monotonic()
        assert raw.recv(1) == b""  # server hung up
        assert time.monotonic() - t0 < 4.0
    with ControlClient(addr) as fresh:
        assert isinstance(fresh.reserve(), int)


def _wait_for_connections(server, n):
    deadline = time.monotonic() + 5.0
    while len(server.connections) != n:
        assert time.monotonic() < deadline
        time.sleep(0.01)


def test_client_reset_mid_frame_is_logged_without_a_traceback(capfd, serving):
    server = serving(ControlPlane(clock=lambda: 0)).control
    with ControlClient(server.address) as client:
        iid = client.reserve()
        raw = socket.create_connection(server.address, timeout=5.0)
        raw.sendall(struct.pack(">I", 9) + b"{")  # length and 1 of 9 octets
        _wait_for_connections(server, 2)
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        raw.close()  # linger 0: a reset, not a clean close
        _wait_for_connections(server, 1)
        assert str(iid) in client.query()  # the server keeps serving
    assert "Traceback" not in capfd.readouterr().err


def test_connections_past_the_cap_are_closed_at_accept(fabric, monkeypatch):
    monkeypatch.setattr(control, "MAX_CONNECTIONS", 8)
    _, client = fabric  # holds one of the 8
    addr = client.sock.getpeername()
    flood = [socket.create_connection(addr, timeout=5.0) for _ in range(20)]
    try:
        closed = set()
        deadline = time.monotonic() + 5.0
        while len(closed) < 13 and time.monotonic() < deadline:
            readable, _, _ = select.select([s for s in flood if s not in closed], [], [], 0.1)
            for sock in readable:
                assert sock.recv(1) == b""
                closed.add(sock)
        readable, _, _ = select.select([s for s in flood if s not in closed], [], [], 0.3)
        assert len(closed) == 13 and not readable  # 7 held open beside the client
        assert isinstance(client.reserve(), int)  # the existing client still works
    finally:
        for sock in flood:
            sock.close()
    deadline = time.monotonic() + 5.0
    while True:  # the held slots free up once their peers hang up
        try:
            with ControlClient(addr) as fresh:
                assert isinstance(fresh.reserve(), int)
            break
        except (FrameError, ConnectionError):
            assert time.monotonic() < deadline
            time.sleep(0.05)


def test_misbehaving_clients_delay_no_one_and_are_closed_after_the_read_timeout(serving, monkeypatch):
    # One client pipelines queries without reading a reply, one sent half
    # a frame and one half an HTTP request; the loop serves everyone else
    # meanwhile and closes each of the three once it has made no progress
    # for READ_TIMEOUT_S.
    monkeypatch.setattr(balancer, "CONTROL_INTERVAL_S", 0.1)
    cp = ControlPlane()
    iid = cp.reserve_instance()
    for n in range(300):  # a query reply of about 45 KB
        cp.register_member(iid, f"10.7.{n // 200}.{n % 200 + 1}", 9000, 1)
    passes = []
    tick = cp.control_tick
    monkeypatch.setattr(cp, "control_tick", lambda: (passes.append(time.monotonic()), tick()))
    lb = serving(cp)
    query = struct.pack(">I", 16) + b'{"verb":"query"}'
    unread = socket.socket()
    unread.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    half_frame = half_http = None
    try:
        unread.connect(lb.control.address)
        unread.setblocking(False)
        deadline = time.monotonic() + 20.0
        while True:  # until the unread replies fill the socket and requests wait behind them
            try:
                unread.send(query * 1000)
            except BlockingIOError:
                stuck = list(lb.control.connections)
                if stuck and stuck[0].inbuf and time.monotonic() - stuck[0].progress > 0.1:
                    break
                time.sleep(0.01)
            assert time.monotonic() < deadline
        monkeypatch.setattr(control, "READ_TIMEOUT_S", 0.6)
        half_frame = socket.create_connection(lb.control.address, timeout=5.0)
        half_frame.sendall(struct.pack(">I", 9) + b"{")
        half_http = socket.create_connection(lb.metrics.address, timeout=5.0)
        half_http.sendall(b"GET /metrics HTTP/1.1\r\nHost: lb\r\n")
        sent = time.monotonic()
        while len(lb.control.connections) + len(lb.metrics.connections) < 3:
            assert time.monotonic() - sent < 1.0
            time.sleep(0.01)

        sid = min(cp.instances[iid].members)
        for _ in range(3):
            t0 = time.monotonic()
            with ControlClient(lb.control.address) as client:
                assert str(sid) in client.query(iid)[str(iid)]["members"]
            host, port = lb.metrics.address
            with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=5.0) as resp:
                assert f'session="{sid}"' in resp.read().decode()
            assert time.monotonic() - t0 < 0.3
            time.sleep(0.1)

        for sock in (half_frame, half_http):
            assert sock.recv(1) == b""  # closed by the server
        closed = time.monotonic() - sent
        while lb.control.connections or lb.metrics.connections:
            assert time.monotonic() - sent < 2.0
            time.sleep(0.01)
    finally:
        for sock in (unread, half_frame, half_http):
            if sock is not None:
                sock.close()
    assert 0.55 <= closed < 1.5  # READ_TIMEOUT_S after the last octet each sent
    during = [p for p in passes if p > sent]
    assert len(during) >= 5
    assert max(b - a for a, b in zip(during, during[1:])) < 0.3  # every pass on time


def test_pipelined_requests_are_answered_whole_and_in_order_through_a_full_socket(serving):
    cp = ControlPlane(clock=lambda: 0)
    big, small = cp.reserve_instance(), cp.reserve_instance()
    for n in range(300):  # a query reply of about 45 KB
        cp.register_member(big, f"10.7.{n // 200}.{n % 200 + 1}", 9000, 1)
    lb = serving(cp)
    order = [big, small] * 20
    with socket.socket() as raw:
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        raw.connect(lb.control.address)
        raw.settimeout(5.0)
        deadline = time.monotonic() + 5.0
        while not lb.control.connections:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        (conn,) = lb.control.connections
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)  # every big reply leaves in pieces
        raw.sendall(b"".join(struct.pack(">I", len(b)) + b for b in (
            json.dumps({"verb": "query", "instance_id": iid}).encode() for iid in order
        )))
        time.sleep(0.2)  # the server fills the socket and keeps the rest of a reply
        assert conn.outbuf
        for iid in order:
            (length,) = struct.unpack(">I", _recv_exactly(raw, 4))
            response = json.loads(_recv_exactly(raw, length))
            assert response["ok"] and list(response["instances"]) == [str(iid)]


def test_a_closing_reply_that_drains_over_several_wakes_is_sent_once(serving):
    cp = ControlPlane(clock=lambda: 0)
    iid = cp.reserve_instance()
    for n in range(300):  # a scrape of tens of KB
        cp.register_member(iid, f"10.7.{n // 200}.{n % 200 + 1}", 9000, 1)
    lb = serving(cp)
    with socket.socket() as raw:
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        raw.connect(lb.metrics.address)
        raw.settimeout(5.0)
        deadline = time.monotonic() + 5.0
        while not lb.metrics.connections:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        (conn,) = lb.metrics.connections
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)  # the response leaves in pieces
        raw.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        time.sleep(0.2)
        assert conn.outbuf  # the server kept the rest for later wakes
        received, deadline = b"", time.monotonic() + 5.0
        while chunk := raw.recv(1 << 16):  # to EOF: the server closes after one response
            received += chunk
            assert time.monotonic() < deadline, f"{len(received)} octets and no EOF"
    head, _, body = received.partition(b"\r\n\r\n")
    assert received.count(b"HTTP/1.0 200") == 1
    (length,) = [int(line.split(b":")[1]) for line in head.split(b"\r\n") if line.startswith(b"Content-Length:")]
    assert len(body) == length > 20_000
