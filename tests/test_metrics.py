"""Metrics rendering and the /metrics HTTP endpoint."""

import urllib.error
import urllib.request

import pytest

from streamlb import metrics, wire
from streamlb.controlplane import ControlPlane, FillReport
from streamlb.sender import Event, fragment_event


def _scrape(text: str) -> dict:
    """Parse exposition text into {name{labels}: value} for assertions."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        out[key] = float(value)
    return out


@pytest.fixture
def cp_with_traffic():
    now = [0]
    cp = ControlPlane(clock=lambda: now[0])
    iid = cp.reserve_instance(listen=("sim", 0))
    s1 = cp.register_member(iid, "10.0.0.1", 7000, 2, initial_weight=2.0)
    s2 = cp.register_member(iid, "10.0.0.2", 7000, 2)
    cp.ingest_sync(iid, wire.SyncMessage(source_id=1, latest_tick=100,
                                         event_rate_hz=1000, wallclock_ns=0))
    cp.control_tick(now_ns=0)
    cp.ingest_fill_report(FillReport(session_id=s1, queue_fill=0.25,
                                     control_signal=0.2, ready=True))
    inst = cp.instances[iid]
    for dgram in fragment_event(Event(tick=500, channels={0: b"x" * 100})):
        inst.forward_packet(dgram)
    inst.forward_packet(b"junk")
    return cp, iid, s1, s2


def test_render_member_gauges(cp_with_traffic):
    cp, iid, s1, s2 = cp_with_traffic
    values = _scrape(metrics.render_metrics(cp))
    assert values[f'lb_member_weight{{instance="{iid}",session="{s1}"}}'] == 2.0
    assert values[f'lb_member_weight{{instance="{iid}",session="{s2}"}}'] == 1.0
    assert values[f'lb_member_fill{{instance="{iid}",session="{s1}"}}'] == 0.25
    # s2 never reported, so it has no fill sample at all.
    assert f'lb_member_fill{{instance="{iid}",session="{s2}"}}' not in values
    slots1 = values[f'lb_member_slots{{instance="{iid}",session="{s1}"}}']
    slots2 = values[f'lb_member_slots{{instance="{iid}",session="{s2}"}}']
    assert slots1 + slots2 == 512


def test_render_counters_and_prediction(cp_with_traffic):
    cp, iid, s1, s2 = cp_with_traffic
    values = _scrape(metrics.render_metrics(cp))
    assert values[f'lb_forwarded_total{{instance="{iid}"}}'] == 1.0
    assert values[f'lb_dropped_total{{instance="{iid}",reason="truncated"}}'] == 1.0
    # Every drop reason appears even when its count is zero.
    assert values[f'lb_dropped_total{{instance="{iid}",reason="null_slot"}}'] == 0.0
    assert values[f'lb_epochs_total{{instance="{iid}"}}'] == 1.0
    assert values[f'lb_predicted_tick{{instance="{iid}"}}'] >= 100.0


def test_render_forwarding_progress(cp_with_traffic):
    cp, iid, s1, s2 = cp_with_traffic
    values = _scrape(metrics.render_metrics(cp))
    epoch = cp.instances[iid].epochs[-1]
    owner = epoch.table[500 % 512]
    other = s2 if owner == s1 else s1
    assert values[f'lb_received_total{{instance="{iid}"}}'] == 2.0
    assert values[f'lb_member_forwarded_total{{instance="{iid}",session="{owner}"}}'] == 1.0
    # a member nothing was forwarded to has no sample yet
    assert f'lb_member_forwarded_total{{instance="{iid}",session="{other}"}}' not in values
    assert values[f'lb_max_forwarded_tick{{instance="{iid}"}}'] == 500.0
    assert values[f'lb_newest_boundary_tick{{instance="{iid}"}}'] == epoch.boundary_tick


def test_render_reads_beside_datagrams(cp_with_traffic):
    # Each forward_packet call is one read, however many datagrams it
    # carries: the fixture's two lone datagrams are two reads, so on the
    # virtual clock, which routes a datagram per call, reads equal datagrams.
    cp, iid, *_ = cp_with_traffic
    inst = cp.instances[iid]
    values = _scrape(metrics.render_metrics(cp))
    assert values[f'lb_reads_total{{instance="{iid}"}}'] == 2.0
    channel = fragment_event(Event(tick=600, channels={0: b"y" * 3000}), mtu_payload=1000)
    inst.forward_packet(b"".join(channel), len(channel[0]))
    inst.forward_packet(channel[0], len(channel[0]))
    values = _scrape(metrics.render_metrics(cp))
    assert values[f'lb_reads_total{{instance="{iid}"}}'] == 2.0 + 2
    assert values[f'lb_received_total{{instance="{iid}"}}'] == 2.0 + 3 + 1
    assert values[f'lb_forwarded_total{{instance="{iid}"}}'] == 1.0 + 3 + 1


def test_render_shows_an_epoch_ahead_of_the_traffic(cp_with_traffic):
    # A control pass publishes a boundary above the highest forwarded tick;
    # a join then supersedes that unreached epoch, so one stays ahead.
    cp, iid, *_ = cp_with_traffic
    cp.ingest_sync(iid, wire.SyncMessage(source_id=1, latest_tick=900,
                                         event_rate_hz=1000, wallclock_ns=0))
    cp.register_member(iid, "10.0.0.3", 7000, 2)
    assert cp.control_tick(now_ns=0)
    cp.register_member(iid, "10.0.0.4", 7000, 2)
    cp.reschedule(iid)
    values = _scrape(metrics.render_metrics(cp))
    newest = values[f'lb_newest_boundary_tick{{instance="{iid}"}}']
    assert newest == cp.instances[iid].epochs[-1].boundary_tick
    assert newest > values[f'lb_max_forwarded_tick{{instance="{iid}"}}'] == 500.0
    assert values[f'lb_epochs_ahead{{instance="{iid}"}}'] == 1.0
    assert cp.query(iid)[iid]["epochs_ahead"] == 1
    for dgram in fragment_event(Event(tick=int(newest), channels={0: b"z" * 100})):
        cp.instances[iid].forward_packet(dgram)
    values = _scrape(metrics.render_metrics(cp))
    assert values[f'lb_max_forwarded_tick{{instance="{iid}"}}'] == newest
    assert values[f'lb_epochs_ahead{{instance="{iid}"}}'] == 0.0


def test_render_empty_control_plane():
    cp = ControlPlane(clock=lambda: 0)
    text = metrics.render_metrics(cp)
    assert "# TYPE lb_member_fill gauge" in text
    assert "# TYPE lb_dropped_total counter" in text
    assert _scrape(text) == {}


def test_help_and_type_precede_samples(cp_with_traffic):
    cp, *_ = cp_with_traffic
    lines = metrics.render_metrics(cp).splitlines()
    seen = set()
    for line in lines:
        if line.startswith("# HELP"):
            name = line.split()[2]
            assert name not in seen
        elif not line.startswith("#"):
            seen.add(line.split("{")[0].split(" ")[0])


def test_http_endpoint(cp_with_traffic, serving):
    cp, iid, *_ = cp_with_traffic
    host, port = serving(cp).metrics.address
    with urllib.request.urlopen(f"http://{host}:{port}/metrics") as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"] == metrics.CONTENT_TYPE
        body = resp.read()
        assert int(resp.headers["Content-Length"]) == len(body)
    assert f'lb_forwarded_total{{instance="{iid}"}} 1' in body.decode()
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"http://{host}:{port}/other")
    with err.value:
        assert err.value.code == 404
