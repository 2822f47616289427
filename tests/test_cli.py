"""Command line entry points, including one full loopback pipeline."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import streamlb
from streamlb import cli, controlplane, wire
from streamlb.control import ControlClient
from streamlb.sender import event_digest, synth_events


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# Child processes import this checkout's package, installed or not.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(streamlb.__file__)))
_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
}


def _streamlb(command, *args):
    """argv for one CLI role through ``python -m streamlb``."""
    return [sys.executable, "-m", "streamlb", command, *args]


# --- lb-sim ------------------------------------------------------------------


def _smoke_scenario(**overrides):
    scenario = {
        "name": "cli-smoke",
        "seed": 5,
        "duration_s": 4.0,
        "members": [{"name": "m1"}],
        "senders": [
            {"source_id": 1, "rate_hz": 300, "count": 900, "size": 400, "start_s": 1.0}
        ],
        "assertions": {"zero_loss": True, "exactly_once": True},
    }
    scenario.update(overrides)
    return scenario


def test_sim_reports_and_passes(tmp_path, capsys):
    path = _write_json(tmp_path / "scn.json", _smoke_scenario())
    rc = cli.main_sim(["--scenario", path])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["fates"] == {"delivered": 900}
    assert all(r["ok"] for r in out["assertions"])
    assert "ledger" not in out


def test_sim_ledger_flag(tmp_path, capsys):
    path = _write_json(
        tmp_path / "scn.json",
        _smoke_scenario(senders=[{"source_id": 1, "rate_hz": 300, "count": 60}]),
    )
    rc = cli.main_sim(["--scenario", path, "--ledger"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(out["ledger"].values()) == {"delivered"}


def test_sim_failing_assertion_exits_nonzero(tmp_path, capsys):
    scenario = _smoke_scenario(
        impair_in={"loss_prob": 0.3},
        assertions={"zero_loss": True},
    )
    path = _write_json(tmp_path / "scn.json", scenario)
    rc = cli.main_sim(["--scenario", path])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert not out["assertions"][0]["ok"]


def test_sim_seed_override(tmp_path, capsys):
    scenario = _smoke_scenario(impair_in={"loss_prob": 0.2}, assertions={})
    path = _write_json(tmp_path / "scn.json", scenario)
    cli.main_sim(["--scenario", path, "--seed", "1"])
    first = json.loads(capsys.readouterr().out)
    cli.main_sim(["--scenario", path, "--seed", "2"])
    second = json.loads(capsys.readouterr().out)
    assert first["seed"] == 1 and second["seed"] == 2
    assert first["fates"] != second["fates"]


def test_sim_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main_sim(["--scenario", str(bad)]) == 2
    path = _write_json(tmp_path / "unknown.json", {"name": "x", "bogus_key": 1})
    assert cli.main_sim(["--scenario", path]) == 2
    capsys.readouterr()


def test_sim_realtime_smoke(tmp_path, capsys):
    scenario = {
        "name": "rt",
        "seed": 1,
        "members": [{"name": "m1", "queue_capacity": 4096}],
        "senders": [{"source_id": 1, "rate_hz": 0.0, "count": 300, "size": 600}],
    }
    path = _write_json(tmp_path / "rt.json", scenario)
    rc = cli.main_sim(["--scenario", path, "--real-time"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["events_sent"] == 300
    assert out["events_delivered"] >= 295
    assert out["members"]["m1"]["events"] == out["events_delivered"]


def test_sim_realtime_rejects_impairment(tmp_path, capsys):
    scenario = _smoke_scenario(impair_in={"reorder_depth": 4}, assertions={})
    path = _write_json(tmp_path / "scn.json", scenario)
    assert cli.main_sim(["--scenario", path, "--real-time"]) == 2
    capsys.readouterr()


# --- lb-send -----------------------------------------------------------------


class _UdpCollector:
    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.1)
        self.packets = []
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    @property
    def address(self):
        host, port = self.sock.getsockname()
        return f"{host}:{port}"

    def _loop(self):
        while not self._halt.is_set():
            try:
                self.packets.append(self.sock.recv(65535))
            except socket.timeout:
                continue
            except OSError:
                break

    def close(self):
        self._halt.set()
        self._thread.join(timeout=2.0)
        self.sock.close()


@pytest.fixture
def collectors():
    data, sync = _UdpCollector(), _UdpCollector()
    yield data, sync
    data.close()
    sync.close()


def test_send_synth_emits_stats_and_syncs(collectors, capsys):
    data, sync = collectors
    rc = cli.main_send([
        "--lb", data.address,
        "--control", sync.address,
        "--rate", "50",
        "--synth", "60,2,100",
        "--seed", "3",
    ])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["events"] == 60
    assert stats["fragments"] == 120
    assert 40 <= stats["achieved_rate_hz"] <= 60
    time.sleep(0.3)
    assert len(data.packets) == 120
    assert len(sync.packets) >= 1  # heartbeat fired during the 1.2 s stream


def test_send_file_replay(tmp_path, collectors, capsys):
    from streamlb.sender import write_event_file

    data, sync = collectors
    path = tmp_path / "events.bin"
    write_event_file(path, synth_events(20, 1, 50, seed=9))
    rc = cli.main_send([
        "--lb", data.address,
        "--control", sync.address,
        "--rate", "0",
        "--file", str(path),
    ])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["events"] == 20


def test_send_socket_error_is_nonzero(capsys):
    rc = cli.main_send([
        "--lb", "host.invalid.example:9",
        "--control", "host.invalid.example:9",
        "--rate", "0",
        "--synth", "5,1,10",
    ])
    assert rc == 1
    assert "send failed" in capsys.readouterr().err


def test_send_argument_validation(capsys):
    with pytest.raises(SystemExit):
        cli.main_send(["--lb", "a:1", "--control", "b:1", "--rate", "1"])
    with pytest.raises(SystemExit):
        cli.main_send([
            "--lb", "a:1", "--control", "b:1", "--rate", "1", "--synth", "nope",
        ])
    capsys.readouterr()


# --- lb-run / lb-recv config validation ---------------------------------------


def test_run_rejects_bad_config(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main_run(["--config", str(missing)]) == 2
    incomplete = _write_json(tmp_path / "cfg.json", {"control": "127.0.0.1:0"})
    assert cli.main_run(["--config", incomplete]) == 2
    empty = _write_json(
        tmp_path / "cfg2.json",
        {"control": "127.0.0.1:0", "metrics": "127.0.0.1:0", "instances": []},
    )
    assert cli.main_run(["--config", empty]) == 2
    capsys.readouterr()


def test_recv_rejects_bad_port_count(capsys):
    rc = cli.main_recv(["--cp", "127.0.0.1:1", "--channels", "1", "--ports", "3"])
    assert rc == 2
    assert "power of two" in capsys.readouterr().err


def test_sync_listener_feeds_control_plane_and_stops_promptly():
    cp = controlplane.ControlPlane()
    iid = cp.reserve_instance()
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    stop = threading.Event()
    listener = threading.Thread(target=cli._sync_listener, args=(sock, cp, iid, stop), daemon=True)
    listener.start()
    try:
        out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        out.sendto(b"not a sync message", sock.getsockname())
        out.sendto(wire.encode_sync(wire.SyncMessage(1, 500, 100, time.time_ns())), sock.getsockname())
        out.close()
        deadline = time.monotonic() + 2.0
        while cp.sync_rate.get(iid) != 100 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert cp.sync_rate.get(iid) == 100
        time.sleep(0.3)  # parked in recv with nothing to read
    finally:
        t0 = time.monotonic()
        stop.set()
        listener.join(timeout=2.0)
        elapsed = time.monotonic() - t0
        sock.close()
    assert not listener.is_alive()
    assert elapsed < 1.0


# --- full pipeline over loopback ----------------------------------------------


def test_pipeline_end_to_end(tmp_path):
    config = _write_json(
        tmp_path / "lb.json",
        {
            "control": "127.0.0.1:0",
            "metrics": "127.0.0.1:0",
            "instances": [
                {"instance_id": 0, "listen": "127.0.0.1:0", "sync_listen": "127.0.0.1:0"}
            ],
        },
    )
    lb = subprocess.Popen(
        _streamlb("run", "--config", config),
        env=_CHILD_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    recv = None
    try:
        ready_line = lb.stdout.readline()
        assert ready_line, lb.stderr.read()
        ready = json.loads(ready_line)
        control = f"127.0.0.1:{ready['control'][1]}"
        data = f"127.0.0.1:{ready['instances']['0']['data'][1]}"
        sync = f"127.0.0.1:{ready['instances']['0']['sync'][1]}"

        recv = subprocess.Popen(
            _streamlb(
                "recv", "--cp", control, "--listen", "127.0.0.1",
                "--channels", "2", "--ports", "1", "--queue", "1024",
                "--sink", "checksum",
            ),
            env=_CHILD_ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        client = ControlClient(("127.0.0.1", ready["control"][1]))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if client.query()["0"]["members"]:
                break
            time.sleep(0.1)
        else:
            pytest.fail("receiver never registered")

        send = subprocess.run(
            _streamlb(
                "send", "--lb", data, "--control", sync,
                "--rate", "40", "--synth", "160,2,200", "--seed", "7",
            ),
            env=_CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert send.returncode == 0, send.stderr
        stats = json.loads(send.stdout)
        assert stats["events"] == 160

        # /metrics shows forwarding happened
        import urllib.request

        url = f"http://127.0.0.1:{ready['metrics'][1]}/metrics"
        with urllib.request.urlopen(url) as resp:
            body = resp.read().decode()
        assert 'lb_forwarded_total{instance="0"}' in body

        time.sleep(1.0)  # let the tail flush through the sink
        recv.send_signal(signal.SIGINT)
        out, err = recv.communicate(timeout=15)
        assert recv.returncode == 0, err
        lines = [json.loads(l) for l in out.splitlines() if l.strip()]
        expected = {
            ev.tick: event_digest(ev) for ev in synth_events(160, 2, 200, seed=7)
        }
        ticks = [l["tick"] for l in lines]
        # An epoch lands once sync data flows, so a suffix of the stream
        # is delivered; every delivered event must be intact and unique.
        assert len(lines) >= 10
        assert len(ticks) == len(set(ticks))
        assert max(ticks) == 160
        for line in lines:
            assert line["sha256"] == expected[line["tick"]]
        client.close()
    finally:
        if recv is not None and recv.poll() is None:
            recv.kill()
        lb.send_signal(signal.SIGTERM)
        try:
            lb.communicate(timeout=10)  # also closes its pipes
        except subprocess.TimeoutExpired:
            lb.kill()
            lb.communicate()
    assert lb.returncode == 0


@pytest.mark.parametrize(
    "rate, count, leave_after_s", [(50, 250, 2.0), (2, 16, 3.0)], ids=["50hz", "2hz"]
)
def test_leaving_receiver_strands_no_event(tmp_path, rate, count, leave_after_s):
    # A receiver that leaves mid-stream keeps ingesting until the balancer
    # stops routing to it, so across both receivers every event arrives
    # exactly once.  At 2 events/s each receiver's ports sit idle for about
    # a second between events, so the drain cannot end on quiet ports.
    _leave_mid_stream(tmp_path, rate, count, leave_after_s)


def test_routing_ended_reads_the_balancer_state():
    def state(slots, boundary=100, forwarded=99, member=True):
        members = {"7": {"slots": slots}} if member else {}
        epochs = [{"epoch_id": 1, "boundary_tick": 50}, {"epoch_id": 2, "boundary_tick": boundary}]
        return {"members": members, "epochs": epochs, "counters": {"max_forwarded_tick": forwarded}}

    assert not cli._routing_ended(state(slots=3, forwarded=500), 7)  # still in the newest epoch
    assert not cli._routing_ended(state(slots=0, forwarded=99), 7)  # old epochs still route
    assert not cli._routing_ended(state(slots=0, forwarded=None), 7)  # nothing forwarded yet
    assert cli._routing_ended(state(slots=0, forwarded=100), 7)  # the boundary has passed
    assert cli._routing_ended(state(slots=0, member=False), 7)  # retired
    assert cli._routing_ended({"members": {"7": {"slots": 0}}, "epochs": [], "counters": {}}, 7)


def _leave_mid_stream(tmp_path, rate, count, leave_after_s):
    config = _write_json(
        tmp_path / "lb.json",
        {
            "control": "127.0.0.1:0",
            "metrics": "127.0.0.1:0",
            "instances": [
                {"instance_id": 0, "listen": "127.0.0.1:0", "sync_listen": "127.0.0.1:0"}
            ],
        },
    )
    lb = subprocess.Popen(
        _streamlb("run", "--config", config),
        env=_CHILD_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    receivers, send = [], None
    try:
        ready_line = lb.stdout.readline()
        assert ready_line, lb.stderr.read()
        ready = json.loads(ready_line)
        control = f"127.0.0.1:{ready['control'][1]}"
        data = f"127.0.0.1:{ready['instances']['0']['data'][1]}"
        sync = f"127.0.0.1:{ready['instances']['0']['sync'][1]}"
        for _ in range(2):
            receivers.append(
                subprocess.Popen(
                    _streamlb(
                        "recv", "--cp", control, "--listen", "127.0.0.1",
                        "--channels", "2", "--ports", "1", "--queue", "1024",
                        "--sink", "checksum",
                    ),
                    env=_CHILD_ENV,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
            )
        client = ControlClient(("127.0.0.1", ready["control"][1]))
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            members = client.query()["0"]["members"]
            if len(members) == 2 and all(m["slots"] > 0 for m in members.values()):
                break  # an epoch covers both, so the stream routes from its first tick
            time.sleep(0.1)
        else:
            pytest.fail("receivers never shared an epoch")
        client.close()

        send = subprocess.Popen(
            _streamlb(
                "send", "--lb", data, "--control", sync,
                "--rate", str(rate), "--synth", f"{count},2,200", "--seed", "11",
            ),
            env=_CHILD_ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        time.sleep(leave_after_s)
        leaver, stayer = receivers
        leaver.send_signal(signal.SIGTERM)
        left_out, left_err = leaver.communicate(timeout=20)
        assert leaver.returncode == 0, left_err
        send_out, send_err = send.communicate(timeout=30)
        assert send.returncode == 0, send_err
        assert json.loads(send_out)["events"] == count
        time.sleep(1.0)  # let the tail flush through the sink
        stayer.send_signal(signal.SIGINT)
        stay_out, stay_err = stayer.communicate(timeout=20)
        assert stayer.returncode == 0, stay_err

        expected = {ev.tick: event_digest(ev) for ev in synth_events(count, 2, 200, seed=11)}
        left = [json.loads(l) for l in left_out.splitlines() if l.strip()]
        stayed = [json.loads(l) for l in stay_out.splitlines() if l.strip()]
        assert left and stayed, "both receivers must have served part of the stream"
        ticks = [l["tick"] for l in left + stayed]
        assert sorted(ticks) == sorted(expected), (
            f"missing {sorted(set(expected) - set(ticks))[:10]}, "
            f"{len(ticks) - len(set(ticks))} delivered twice"
        )
        for line in left + stayed:
            assert line["sha256"] == expected[line["tick"]]
    finally:
        for proc in receivers + ([send] if send is not None else []):
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        lb.send_signal(signal.SIGTERM)
        try:
            lb.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            lb.kill()
            lb.communicate()
    assert lb.returncode == 0
