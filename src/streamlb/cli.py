"""Command line front ends.

Four binaries cover the deployment roles:

  lb-run    balancer instances plus their control and metrics endpoints
  lb-send   paced event stream with the sync heartbeat
  lb-recv   reassembling receiver that registers itself and reports fill
  lb-sim    scenario runs, either on the virtual clock or over loopback

Everything here is argument plumbing; the behavior lives in the library
modules.  Logging goes to stderr (level via the LB_LOG environment
variable), machine-readable results go to stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import socket
import sys
import threading
import time

from . import control, controlplane, metrics, netutil, receiver, sender, wire
from .dataplane import UdpDataPlane
from .harness import Scenario, ScenarioError, ScenarioTimeout, evaluate_assertions, run_scenario
from .harness.realtime import run_realtime

log = logging.getLogger("streamlb.cli")


def _setup_logging():
    level = os.environ.get("LB_LOG", "info").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.INFO),
        format="%(asctime)s %(levelname)s %(name)s %(message)s",
    )


def _install_stop_handlers(stop: threading.Event):
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())


# --- lb-run ----------------------------------------------------------------


def _sync_listener(sock: socket.socket, cp, instance_id: int, stop: threading.Event):
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


def main_run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lb-run",
        description="Run balancer instances with control and metrics endpoints.",
    )
    parser.add_argument("--config", required=True, help="deployment config (JSON)")
    parser.add_argument(
        "--snapshot",
        help="state snapshot path; restored at startup when present, rewritten every control interval",
    )
    args = parser.parse_args(argv)
    _setup_logging()

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"lb-run: cannot load config {args.config}: {exc}", file=sys.stderr)
        return 2
    for key in ("control", "metrics", "instances"):
        if key not in config:
            print(f"lb-run: config is missing {key!r}", file=sys.stderr)
            return 2
    if not config["instances"]:
        print("lb-run: config declares no instances", file=sys.stderr)
        return 2

    if args.snapshot:
        cp = controlplane.ControlPlane.restore_state(args.snapshot)
    else:
        cp = controlplane.ControlPlane()

    stop = threading.Event()
    dataplanes, sync_socks, threads = [], [], []
    ctl = met = None
    try:
        endpoints = {}
        for spec in config["instances"]:
            iid = spec["instance_id"]
            listen = netutil.parse_address(spec["listen"])
            if iid in cp.instances:
                cp.instances[iid].listen = listen  # snapshot ports may be stale
            else:
                extra = {
                    k: spec[k] for k in ("slot_count", "drain_delay_s") if k in spec
                }
                cp.reserve_instance(listen=listen, instance_id=iid, **extra)
            dp = UdpDataPlane(cp.instances[iid])
            dataplanes.append(dp)

            sync_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sync_sock.bind(netutil.parse_address(spec["sync_listen"]))
            sync_socks.append(sync_sock)
            t = threading.Thread(
                target=_sync_listener,
                args=(sync_sock, cp, iid, stop),
                name=f"sync-{iid}",
                daemon=True,
            )
            threads.append(t)
            endpoints[str(iid)] = {
                "data": list(dp.address),
                "sync": list(sync_sock.getsockname()),
            }

        ctl = control.ControlServer(cp, netutil.parse_address(config["control"]))
        met = metrics.MetricsServer(cp, netutil.parse_address(config["metrics"]))
    except OSError as exc:
        print(f"lb-run: startup failed: {exc}", file=sys.stderr)
        for dp in dataplanes:
            dp.stop()
        for s in sync_socks:
            s.close()
        return 1

    _install_stop_handlers(stop)
    ctl.start()
    met.start()
    for dp in dataplanes:
        dp.start()
    for t in threads:
        t.start()

    # One ready line on stdout so wrappers can learn the bound ports.
    print(
        json.dumps(
            {
                "control": list(ctl.address),
                "metrics": list(met.address),
                "instances": endpoints,
            }
        ),
        flush=True,
    )
    log.info("control %s metrics %s", ctl.address, met.address)

    while not stop.wait(1.0):
        try:
            cp.control_tick()
        except Exception:
            log.exception("control tick failed")

    log.info("shutting down")
    for dp in dataplanes:
        dp.stop()
    for s in sync_socks:
        s.close()
    for t in threads:
        t.join(timeout=2.0)
    ctl.stop()
    met.stop()
    if args.snapshot:
        try:
            cp.persist_state()
        except OSError as exc:
            log.error("final snapshot failed: %s", exc)
    return 0


# --- lb-send ---------------------------------------------------------------


def _parse_synth(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected count,channels,size")
    try:
        count, channels, size = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if count < 1 or channels < 1 or size < 0:
        raise argparse.ArgumentTypeError("count and channels must be >= 1, size >= 0")
    return count, channels, size


def main_send(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lb-send", description="Stream events at a balancer."
    )
    parser.add_argument("--lb", required=True, help="balancer data address ip:port")
    parser.add_argument("--control", required=True, help="sync destination ip:port")
    parser.add_argument("--rate", type=float, required=True, help="events per second, 0 = unpaced")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="event record file to replay")
    source.add_argument("--synth", type=_parse_synth, metavar="COUNT,CHANNELS,SIZE",
                        help="generate synthetic events")
    parser.add_argument("--mtu", type=int, default=sender.MTU_PAYLOAD_DEFAULT,
                        help="payload octets per fragment")
    parser.add_argument("--source-id", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="synthetic payload seed")
    args = parser.parse_args(argv)
    _setup_logging()

    if args.rate < 0:
        parser.error("--rate must be >= 0")
    if args.file is not None:
        if not os.path.exists(args.file):
            parser.error(f"event file {args.file} does not exist")
        events = sender.load_event_file(args.file)
    else:
        count, channels, size = args.synth
        events = sender.synth_events(count, channels, size, seed=args.seed)

    shared = sender.SharedTickState()
    stop = threading.Event()
    sync_thread = threading.Thread(
        target=sender.emit_sync_loop,
        args=(netutil.parse_address(args.control), args.source_id, shared, stop),
        name="sync",
        daemon=True,
    )
    sync_thread.start()
    try:
        stats = sender.stream_events(
            events, netutil.parse_address(args.lb), args.rate, args.mtu, shared
        )
    except sender.OversizeMtu as exc:
        print(f"lb-send: {exc}", file=sys.stderr)
        return 2
    except sender.MalformedRecord as exc:
        print(f"lb-send: {args.file}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"lb-send: send failed: {exc}", file=sys.stderr)
        return 1
    finally:
        stop.set()
        sync_thread.join(timeout=2.0)

    print(json.dumps(stats.as_dict()))
    return 0


# --- lb-recv ---------------------------------------------------------------


def _make_sink(spec: str):
    """Returns (consume(event), close())."""
    if spec == "null":
        return (lambda event: None), (lambda: None)
    if spec == "checksum":
        def consume(event):
            line = json.dumps({"tick": event.tick, "sha256": sender.event_digest(event)})
            print(line, flush=True)
        return consume, (lambda: None)
    if spec.startswith("file:"):
        fh = open(spec[5:], "ab")

        def consume(event):
            sender.write_event(fh, event)
            fh.flush()

        return consume, fh.close
    raise argparse.ArgumentTypeError(f"unknown sink {spec!r}")


def main_recv(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lb-recv", description="Receive, reassemble, and report queue fill."
    )
    parser.add_argument("--cp", required=True, help="control endpoint ip:port")
    parser.add_argument("--listen", default="127.0.0.1", help="address to bind and advertise")
    parser.add_argument("--base-port", type=int, default=0, help="first data port, 0 = ephemeral")
    parser.add_argument("--ports", type=int, default=1, help="consecutive ports, power of two")
    parser.add_argument("--channels", type=int, required=True, help="channels per event")
    parser.add_argument("--queue", type=int, default=receiver.QUEUE_CAPACITY_DEFAULT)
    parser.add_argument("--kp", type=float, default=0.8)
    parser.add_argument("--ki", type=float, default=0.05)
    parser.add_argument("--kd", type=float, default=0.1)
    parser.add_argument("--setpoint", type=float, default=0.5)
    parser.add_argument("--weight", type=float, default=1.0, help="initial control weight")
    parser.add_argument("--instance", type=int, default=0, help="balancer instance to join")
    parser.add_argument("--sink", default="null",
                        help="delivered events go to: null, checksum, or file:PATH")
    args = parser.parse_args(argv)
    _setup_logging()

    try:
        consume, close_sink = _make_sink(args.sink)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))

    pid = receiver.PidController(
        kp=args.kp, ki=args.ki, kd=args.kd, setpoint=args.setpoint
    )
    try:
        core = receiver.Receiver(
            expected_channels=range(args.channels),
            queue_capacity=args.queue,
            pid=pid,
        )
        front = receiver.UdpReceiver(core, args.listen, args.base_port, args.ports)
    except (ValueError, OSError) as exc:
        print(f"lb-recv: {exc}", file=sys.stderr)
        close_sink()
        return 2

    try:
        client = control.ControlClient(netutil.parse_address(args.cp))
        session_id = client.register(
            args.instance, args.listen, front.base_port, args.ports, weight=args.weight
        )
    except (OSError, control.ControlProtocolError, RuntimeError, ValueError, KeyError) as exc:
        print(f"lb-recv: registration failed: {exc}", file=sys.stderr)
        front.stop()
        close_sink()
        return 1
    core.session_id = session_id
    log.info("session %d on ports %s", session_id, front.ports)

    stop = threading.Event()
    _install_stop_handlers(stop)
    flushed = threading.Event()  # set once ingest is over: drain the queue, then quit

    def consume_loop():
        while not (flushed.is_set() and len(core.queue) == 0):
            event = core.pop_event(block=True, timeout=0.1)
            if event is not None:
                consume(event)

    consumer = threading.Thread(target=consume_loop, name="consume", daemon=True)
    front.start()
    consumer.start()

    lost_control = False
    while not stop.wait(1.0):
        report = core.make_report(time.time_ns())
        try:
            client.report(report)
        except controlplane.UnknownSession:
            log.info("session retired by the control plane")
            break
        except (OSError, ConnectionError) as exc:
            log.error("control connection lost: %s", exc)
            lost_control = True
            break

    core.drain()
    deregistered = False
    if not lost_control:
        try:
            client.deregister(session_id)
            deregistered = True
        except controlplane.AlreadyDraining:
            deregistered = True
        except (controlplane.UnknownSession, OSError, ConnectionError):
            pass
    if deregistered:
        _drain_ingest(core, client, args.instance)
    front.stop()
    flushed.set()
    consumer.join(timeout=5.0)
    client.close()
    close_sink()
    log.info("counters %s", core.counters)
    return 1 if lost_control else 0


def _drain_ingest(core: receiver.Receiver, client: control.ControlClient, instance_id: int):
    """Keep ingesting after deregistering until the balancer stops routing here.

    A draining member keeps its slots in every retained epoch that names
    it, so datagrams for ticks below the first boundary without it keep
    coming.  The control plane's state says when that is over: the
    session is gone (retired), or the newest epoch gives it no slot and
    the balancer has already forwarded a tick at or past that epoch's
    boundary.  Datagrams still in flight then get one idle tick.  The
    drain delay caps the wait (a stream that has stopped never passes the
    boundary), and a lost control connection ends it.
    """
    deadline = time.monotonic() + controlplane.DRAIN_DELAY_S
    while time.monotonic() < deadline:
        try:
            state = client.query(instance_id)[str(instance_id)]
        except (OSError, ConnectionError, control.ControlProtocolError) as exc:
            log.error("control connection lost while draining: %s", exc)
            return
        if _routing_ended(state, core.session_id):
            log.info("balancer no longer routes here; drain done")
            time.sleep(netutil.IDLE_TICK_S)
            return
        time.sleep(netutil.IDLE_TICK_S)
    log.info("drain delay passed; the balancer could still route here")


def _routing_ended(state: dict, session_id: int) -> bool:
    """True once no future datagram of an in-order stream maps to the session."""
    member = state["members"].get(str(session_id))
    if member is None or not state["epochs"]:
        return True
    boundary = state["epochs"][-1]["boundary_tick"]
    forwarded = state["counters"]["max_forwarded_tick"]
    return member["slots"] == 0 and forwarded is not None and forwarded >= boundary


# --- lb-sim ----------------------------------------------------------------


def _realtime_from_scenario(scenario: Scenario, seed: int | None):
    if len(scenario.senders) != 1:
        raise ScenarioError("real-time runs need exactly one sender")
    if scenario.timeline:
        raise ScenarioError("real-time runs do not support timeline actions")
    for profile in (scenario.impair_in, scenario.impair_out):
        if not profile.is_identity:
            raise ScenarioError("real-time runs do not support impairment")
    spec = scenario.senders[0]
    if tuple(spec.channels) != tuple(range(len(spec.channels))):
        raise ScenarioError("real-time senders must use channels 0..n-1")
    return run_realtime(
        count=spec.count,
        size=spec.size,
        rate_hz=spec.rate_hz,
        channels=len(spec.channels),
        mtu=spec.mtu,
        members=[(m.name, m.weight, m.queue_capacity) for m in scenario.members]
        or None,
        seed=scenario.seed if seed is None else seed,
        source_id=spec.source_id,
    )


def main_sim(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lb-sim", description="Run a scenario and report what happened."
    )
    parser.add_argument("--scenario", required=True, help="scenario file (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--real-time", action="store_true",
                        help="drive real sockets over loopback instead of the virtual clock")
    parser.add_argument("--ledger", action="store_true",
                        help="include the per-tick fate ledger in the report")
    args = parser.parse_args(argv)
    _setup_logging()

    try:
        scenario = Scenario.from_file(args.scenario)
    except (OSError, json.JSONDecodeError, ScenarioError, TypeError) as exc:
        print(f"lb-sim: cannot load scenario {args.scenario}: {exc}", file=sys.stderr)
        return 2

    if args.real_time:
        try:
            result = _realtime_from_scenario(scenario, args.seed)
        except ScenarioError as exc:
            print(f"lb-sim: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result.to_dict(), indent=2))
        return 0

    try:
        report = run_scenario(scenario, seed=args.seed)
    except ScenarioTimeout as exc:
        print(f"lb-sim: {exc}", file=sys.stderr)
        return 1
    out = report.to_dict()
    if not args.ledger:
        del out["ledger"]
    out["assertions"] = evaluate_assertions(report, scenario.assertions)
    print(json.dumps(out, indent=2))
    return 0 if all(r["ok"] for r in out["assertions"]) else 1
