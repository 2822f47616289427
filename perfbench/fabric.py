"""Loopback stream workloads: lb-run and lb-recv processes, this process sends.

One run sets the fabric up several times (spawn ``lb-run``, spawn the
initial ``lb-recv`` processes, wait until ``query`` shows an epoch that
gives every member slots) and keeps the last set-up for the measured
stream.  This process is the load generator: one thread calls
``sender.stream_events`` open loop against absolute deadlines, another
runs ``sender.emit_sync_loop``.  The main thread samples kernel socket
drops, process CPU, ``/metrics`` and ``query`` once a second and carries
out the churn timeline.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass

from streamlb import control, sender

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROLE = os.path.join(HERE, "role.py")
CLK_TCK = os.sysconf("SC_CLK_TCK")
SOURCE_ID = 1
SETUPS = 3
CPUS = os.sched_getaffinity(0)  # the CPUs this benchmark may use
WARMUP_S = 1.0
MIN_WINDOW_EVENTS = 100


@dataclass(frozen=True)
class StreamSpec:
    name: str
    size: int  # octets per channel
    channels: int
    rate_hz: float
    ports: int  # lb-recv port range
    receivers: int  # initial lb-recv processes
    snapshot: bool
    churn: bool  # join at 1/3, SIGTERM one initial receiver at 2/3


STREAM_SMALL = StreamSpec("stream-small", 1400, 1, 10_000, 1, 1, False, False)
STREAM_CHURN = StreamSpec("stream-churn", 16_000, 4, 150, 2, 2, True, True)


# --- procfs -----------------------------------------------------------------


def udp_drops() -> dict:
    """{local port: drops} for every IPv4 UDP socket, from /proc/net/udp."""
    out = {}
    with open("/proc/net/udp") as fh:
        next(fh)
        for line in fh:
            fields = line.split()
            port = int(fields[1].rsplit(":", 1)[1], 16)
            out[port] = out.get(port, 0) + int(fields[-1])
    return out


def cpu_seconds(pid: int) -> float | None:
    """utime + stime of a live process, None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def free_port_range(count: int, host: str = "127.0.0.1") -> int:
    """First port of `count` consecutive free UDP ports."""
    for _ in range(100):
        socks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM)]
        try:
            socks[0].bind((host, 0))
            base = socks[0].getsockname()[1]
            if base + count > 65535:
                continue
            for i in range(1, count):
                s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                socks.append(s)
                s.bind((host, base + i))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise RuntimeError(f"no {count} consecutive free UDP ports")


def pin(pid: int, receiving: bool):
    """Fix process placement: receivers on the second allowed CPU, the rest on the first.

    Called right after spawn, before the child starts its threads, which
    inherit the mask.  Placement left to the scheduler moved fabric CPU per
    event by about 10% between otherwise identical runs.
    """
    cpus = sorted(CPUS)
    if len(cpus) > 1:
        os.sched_setaffinity(pid, {cpus[1] if receiving else cpus[0]})


# --- processes -------------------------------------------------------------------


class Role:
    """One fabric process launched through role.py; owns its log and record."""

    def __init__(self, kind: str, args: list, outdir: str, tag: str, env: dict, traced: bool,
                 extra: tuple = (), stdout_path: str | None = None):
        self.tag = tag
        self.record_path = os.path.join(outdir, f"{tag}.json")
        self.log_path = os.path.join(outdir, f"{tag}.log")
        cmd = [sys.executable, ROLE, kind, "--record", self.record_path]
        if traced:
            cmd.append("--trace")
        cmd += [*extra, "--", *args]
        if kind == "run":
            stdout = subprocess.PIPE
        elif stdout_path is not None:
            stdout = open(stdout_path, "wb")
        else:
            stdout = subprocess.DEVNULL
        with open(self.log_path, "wb") as log:
            self.spawned = time.monotonic()
            try:
                self.proc = subprocess.Popen(
                    cmd, stdin=subprocess.DEVNULL, stdout=stdout, stderr=log, env=env
                )
            finally:
                if stdout_path is not None:
                    stdout.close()
        pin(self.proc.pid, kind != "run")
        self.ready_s: float | None = None
        self.cpu_start: float | None = None
        self.cpu_end: float | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read_ready_line(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        buf = b""
        while not buf.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"{self.tag}: no ready line (see {self.log_path})")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"{self.tag}: exited before its ready line")
                buf += chunk
        self.ready_s = time.monotonic() - self.spawned
        return json.loads(buf.decode())

    def cpu(self) -> float | None:
        return cpu_seconds(self.pid)

    def stop(self, timeout: float = 10.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode

    def load(self) -> dict:
        with open(self.record_path) as fh:
            return json.load(fh)


class Member:
    def __init__(self, role: Role, base_port: int, ports: int):
        self.role = role
        self.ports = [base_port + i for i in range(ports)]
        self.base_port = base_port
        self.session_id: str | None = None
        self.kernel_drops = 0
        self.left = False


class Fabric:
    """lb-run plus lb-recv processes for one set-up."""

    def __init__(self, spec: StreamSpec, outdir: str, env: dict, traced: bool, attempt: int):
        self.spec, self.outdir, self.env, self.traced = spec, outdir, env, traced
        self.attempt = attempt
        self.receivers: list = []
        self.lb: Role | None = None
        self.client: control.ControlClient | None = None
        self.query_rtts: list = []

    def _tag(self, name: str) -> str:
        return f"setup{self.attempt}-{name}"

    def start(self) -> float:
        """Bring the fabric up; returns seconds until every member has slots."""
        config = {
            "control": "127.0.0.1:0",
            "metrics": "127.0.0.1:0",
            "instances": [{"instance_id": 0, "listen": "127.0.0.1:0", "sync_listen": "127.0.0.1:0"}],
        }
        cfg_path = os.path.join(self.outdir, self._tag("lb.json"))
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        args = ["--config", cfg_path]
        if self.spec.snapshot:
            snap = os.path.join(self.outdir, self._tag("state.snap"))
            if os.path.exists(snap):
                os.remove(snap)  # every set-up starts from an empty control plane
            args += ["--snapshot", snap]
        self.lb = Role("run", args, self.outdir, self._tag("lb-run"), self.env, self.traced)
        ready = self.lb.read_ready_line(timeout=60.0)
        self.control_addr = tuple(ready["control"])
        self.metrics_addr = tuple(ready["metrics"])
        self.data_addr = tuple(ready["instances"]["0"]["data"])
        self.sync_addr = tuple(ready["instances"]["0"]["sync"])
        self.client = control.ControlClient(self.control_addr)
        for _ in range(self.spec.receivers):
            self.add_receiver()
        deadline = self.lb.spawned + 60.0
        while True:
            state = self.query()
            members = state["members"]
            self.note_registrations(members)
            if all(r.session_id is not None for r in self.receivers) and all(
                members[r.session_id]["slots"] > 0 for r in self.receivers
            ):
                return time.monotonic() - self.lb.spawned
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.spec.name}: no epoch covering every member")
            time.sleep(0.01)

    def add_receiver(self) -> "Member":
        # lb-recv --ports N with --base-port 0 binds N unrelated ephemeral
        # ports but registers base..base+N-1, so pick a free range here.
        base = free_port_range(self.spec.ports)
        n = len(self.receivers)
        args = [
            "--cp", "%s:%d" % self.control_addr,
            "--channels", str(self.spec.channels),
            "--ports", str(self.spec.ports),
            "--base-port", str(base),
            "--sink", "null",
        ]
        role = Role("recv", args, self.outdir, self._tag(f"lb-recv{n}"), self.env, self.traced)
        rx = Member(role, base, self.spec.ports)
        self.receivers.append(rx)
        return rx

    def query(self) -> dict:
        t0 = time.perf_counter()
        state = self.client.query(0)["0"]
        self.query_rtts.append(time.perf_counter() - t0)
        return state

    def note_registrations(self, members: dict):
        by_port = {m["base_port"]: sid for sid, m in members.items()}
        for rx in self.receivers:
            if rx.session_id is None and rx.base_port in by_port:
                rx.session_id = by_port[rx.base_port]
                rx.role.ready_s = time.monotonic() - rx.role.spawned

    def stop(self):
        for rx in self.receivers:
            rx.role.stop()
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.lb is not None:
            self.lb.stop()

    def roles(self) -> list:
        return [self.lb] + [rx.role for rx in self.receivers]


class TimedTickState(sender.SharedTickState):
    """SharedTickState that also records when each event finished sending.

    ``stream_events`` announces the first tick immediately before it
    reads the clock that anchors its deadlines, so the announce time is
    the schedule's origin: event i is due at start + i * period.
    """

    def __init__(self, period: float):
        super().__init__()
        self.period = period
        self.start: float | None = None
        self.first_tick: int | None = None
        self.lateness: list = []

    def announce(self, first_tick: int):
        self.start = time.monotonic()
        self.first_tick = first_tick
        super().announce(first_tick)

    def advance(self, tick: int):
        due = self.start + (tick - self.first_tick) * self.period
        self.lateness.append(time.monotonic() - due)
        super().advance(tick)


class TracedSocket:
    """The sender's UDP socket with its sendto recorded as a span."""

    def __init__(self, tracer: Tracer):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sendto = tracer.wrap(self._sock.sendto, "socket.socket.sendto")

    def close(self):
        self._sock.close()


def scrape(addr) -> float:
    t0 = time.perf_counter()
    with urllib.request.urlopen("http://%s:%d/metrics" % addr, timeout=5) as resp:
        resp.read()
    return time.perf_counter() - t0


def run_stream(spec: StreamSpec, seed: int, seconds: float, outdir: str, env: dict, traced: bool) -> dict:
    """Set up SETUPS times, stream on the last set-up; returns raw observations."""
    setups, startups, fabric = [], [], None
    pin(0, False)  # this process is the load generator
    try:
        for attempt in range(SETUPS):
            if fabric is not None:
                fabric.stop()
            fabric = Fabric(spec, outdir, env, traced, attempt)
            setups.append(fabric.start())
            if attempt < SETUPS - 1:
                startups += [role.ready_s for role in fabric.roles()]
        obs = _stream(fabric, spec, seed, seconds, traced)
    finally:
        if fabric is not None:
            fabric.stop()
    startups += [role.ready_s for role in fabric.roles() if role.ready_s is not None]
    obs["seed"] = seed
    obs["setups_s"] = setups
    obs["startup_s"] = startups
    obs["query_rtt_s"] = fabric.query_rtts
    records = {rx.role.tag: rx.role.load() for rx in fabric.receivers}
    obs["lb_record"] = fabric.lb.load()
    obs["receivers"] = [
        {
            "tag": rx.role.tag,
            "session_id": rx.session_id,
            "ports": rx.ports,
            "left": rx.left,
            "kernel_drops": rx.kernel_drops,
            "cpu_s": _window(rx.role),
            "exit_code": rx.role.proc.returncode,
            "record": records[rx.role.tag],
        }
        for rx in fabric.receivers
    ]
    obs["lb_cpu_s"] = _window(fabric.lb)
    obs["lb_exit_code"] = fabric.lb.proc.returncode
    return obs


def _window(role: Role) -> float | None:
    if role.cpu_start is None or role.cpu_end is None:
        return None
    return role.cpu_end - role.cpu_start


def _stream(fabric: Fabric, spec: StreamSpec, seed: int, seconds: float, traced: bool) -> dict:
    count = max(1, int(spec.rate_hz * seconds))
    shared = TimedTickState(1.0 / spec.rate_hz)
    stop_sync = threading.Event()
    result: dict = {}
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install(["streamlb.sender.fragment_event"])

    def send():
        sock = TracedSocket(tracer) if tracer is not None else None
        cpu0 = time.thread_time()
        try:
            events = sender.synth_events(count, spec.channels, spec.size, seed=seed)
            result["stats"] = sender.stream_events(
                events, fabric.data_addr, spec.rate_hz, sender.MTU_PAYLOAD_DEFAULT, shared, sock=sock
            )
        except Exception as exc:  # reported by the main thread
            result["error"] = repr(exc)
        finally:
            result["thread_cpu_s"] = time.thread_time() - cpu0
            if sock is not None:
                sock.close()

    sync = threading.Thread(
        target=sender.emit_sync_loop,
        args=(fabric.sync_addr, SOURCE_ID, shared, stop_sync),
        name="bench-sync",
        daemon=True,
    )
    sending = threading.Thread(target=send, name="bench-send", daemon=True)

    scrapes = []
    lb_port = fabric.data_addr[1]
    receivers = fabric.receivers

    def sample() -> int:
        """Kernel drops now; a closed socket keeps its last sampled value."""
        drops = udp_drops()
        for rx in receivers:
            seen = [drops[p] for p in rx.ports if p in drops]
            if seen and not (rx.left and rx.role.proc.poll() is not None):
                rx.kernel_drops = max(rx.kernel_drops, sum(seen))
        return drops.get(lb_port, 0)

    for role in fabric.roles():
        role.cpu_start = role.cpu()
    sync.start()
    sending.start()
    t0 = time.monotonic()
    join_at = t0 + seconds / 3 if spec.churn else None
    leave_at = t0 + 2 * seconds / 3 if spec.churn else None
    joiner = leaver = None
    next_sample = t0 + 1.0
    while sending.is_alive():
        now = time.monotonic()
        if join_at is not None and now >= join_at and joiner is None:
            joiner = fabric.add_receiver()
        if joiner is not None and joiner.session_id is None:
            fabric.note_registrations(fabric.query()["members"])
            if joiner.session_id is not None:
                joiner.role.cpu_start = joiner.role.cpu()
        if leave_at is not None and now >= leave_at and leaver is None:
            leaver = receivers[0]
            sample()
            leaver.role.cpu_end = leaver.role.cpu()
            leaver.left = True
            leaver.role.proc.send_signal(signal.SIGTERM)
        if leaver is not None and leaver.role.proc.poll() is None:
            sample()  # catch drops on the leaving sockets up to their close
        if now >= next_sample:
            next_sample += 1.0
            sample()
            scrapes.append(scrape(fabric.metrics_addr))
            fabric.query()
        sending.join(0.05)
    result["send_end"] = time.monotonic()

    # Let the last datagrams through every hop before reading counters.
    sent = result["stats"].fragments if "stats" in result else 0
    settle_deadline = time.monotonic() + 5.0
    state = fabric.query()
    while time.monotonic() < settle_deadline:
        lb_kd = sample()
        if state["counters"]["received"] + lb_kd >= sent:
            break
        time.sleep(0.05)
        state = fabric.query()
    time.sleep(0.5)  # receivers finish reassembly and pop
    lb_kernel_drops = sample()
    state = fabric.query()
    for role in fabric.roles():
        if role.cpu_end is None:
            role.cpu_end = role.cpu()
    stop_sync.set()
    sync.join(5.0)
    if tracer is not None:
        result["sender_trace"] = tracer.dump()
        tracer.uninstall()
    if "error" in result:
        raise RuntimeError(f"sender failed: {result['error']}")

    stats = result["stats"]
    return {
        "sent_events": stats.events,
        "sent_datagrams": stats.fragments,
        "send_duration_s": stats.duration_s,
        "sender_thread_cpu_s": result["thread_cpu_s"],
        "sender_trace": result.get("sender_trace"),
        "start_mono": shared.start,
        "send_end": result["send_end"],
        "first_tick": shared.first_tick,
        "period_s": shared.period,
        "lateness_s": shared.lateness,
        "lb_kernel_drops": lb_kernel_drops,
        "lb_counters": state["counters"],
        "epochs_emitted": state["epochs_emitted"],
        "scrape_s": scrapes,
        "joined": joiner is not None,
    }


def summarize(spec: StreamSpec, obs: dict) -> dict:
    """Correctness, conservation lines and metrics from one stream run."""
    period, start, first = obs["period_s"], obs["start_mono"], obs["first_tick"]
    payload = spec.size * spec.channels
    expected = {}
    for event in sender.synth_events(obs["sent_events"], spec.channels, spec.size, seed=obs["seed"]):
        expected[event.tick] = sender.event_digest(event)

    seen_at: dict = {}  # tick -> receiver tag
    failures = {"digest_mismatch": 0, "duplicate": 0, "split": 0, "unknown_tick": 0}
    latencies = {}  # tick -> seconds from due time to pop
    for rx in obs["receivers"]:
        pops = rx["record"]["pops"]
        for tick, ns, digest in zip(pops["ticks"], pops["ns"], pops["digests"]):
            if tick in seen_at:
                failures["split" if seen_at[tick] != rx["tag"] else "duplicate"] += 1
                continue
            seen_at[tick] = rx["tag"]
            want = expected.get(tick)
            if want is None:
                failures["unknown_tick"] += 1
            elif want != digest:
                failures["digest_mismatch"] += 1
            else:
                latencies[tick] = ns / 1e9 - (start + (tick - first) * period)
    failed = sum(failures.values())
    delivered = len(latencies)

    lb = obs["lb_counters"]
    lines = []

    def line(name, lhs, terms):
        lines.append({"line": name, "lhs": lhs, "terms": dict(terms), "closes": lhs == sum(v for _, v in terms)})

    line("sent = lb.kernel_drops + lb.received", obs["sent_datagrams"],
         [("lb.kernel_drops", obs["lb_kernel_drops"]), ("lb.received", lb["received"])])
    line("lb.received = lb.dropped + lb.forwarded", lb["received"],
         [("lb.dropped", lb["dropped"]), ("lb.forwarded", lb["forwarded"])])
    lost_after_forward = 0
    for rx in obs["receivers"]:
        fwd = lb["forwarded_by_member"].get(str(rx["session_id"]), 0)
        ingested = rx["record"].get("counters", {}).get("ingested", 0)
        lost = fwd - rx["kernel_drops"] - ingested
        terms = [
            ("rx.kernel_drops", rx["kernel_drops"]),
            ("rx.ingested", ingested),
            ("lost_after_forward", lost),
        ]
        lines.append(
            {
                "line": f"forwarded_by_member[{rx['tag']}] = rx.kernel_drops + rx.ingested + lost_after_forward",
                "lhs": fwd,
                "terms": dict(terms),
                # Datagrams may only vanish after forwarding at a member that
                # left mid-stream; anywhere else the line must close with 0.
                "closes": lost == 0 or (rx["left"] and lost > 0),
            }
        )
        lost_after_forward += max(lost, 0)

    receivers_cpu = [rx["cpu_s"] for rx in obs["receivers"] if rx["cpu_s"] is not None]
    fabric_cpu = obs["lb_cpu_s"] + sum(receivers_cpu)
    ingested_total = sum(rx["record"].get("counters", {}).get("ingested", 0) for rx in obs["receivers"])
    duration = obs["send_duration_s"]
    lat, samples, windows = windowed_latency(latencies, first, spec.rate_hz)
    return {
        "attempted": obs["sent_events"],
        "delivered": delivered,
        "failed": failed,
        "failures": failures,
        "conservation": lines,
        "lost_after_forward": lost_after_forward,
        "latency_samples": samples,
        "latency_p50_ms": lat[0.50],
        "latency_p90_ms": lat[0.90],
        "latency_p99_ms": lat[0.99],
        "latency_windows": windows,
        "e2e": {
            "delivered_frac": delivered / obs["sent_events"],
            "goodput_mbps": delivered * payload * 8 / duration / 1e6,
            "fabric_cpu_us_per_event": fabric_cpu / max(delivered, 1) * 1e6,
            "events_per_s": delivered / duration,
        },
        "fabric_cpu_s": fabric_cpu,
        "receivers_cpu_s": sum(receivers_cpu),
        "ingested_total": ingested_total,
    }


def windowed_latency(latencies: dict, first_tick: int, rate_hz: float) -> tuple:
    """Latency percentiles in ms, after skipping the first WARMUP_S of the schedule.

    p50 and p90 are medians over consecutive windows of each window's
    percentile; a window is one second of events and never fewer than
    MIN_WINDOW_EVENTS, so its p90 has at least ten samples beyond it.  A
    stall, a join or a leave then moves one window, not the figure.  p99
    is taken over all samples.  Returns ({quantile: ms}, samples, windows).
    """
    ticks = sorted(t for t in latencies if t >= first_tick + rate_hz * WARMUP_S)
    width = max(int(rate_hz), MIN_WINDOW_EVENTS)
    windows = [
        sorted(latencies[t] * 1e3 for t in ticks[i : i + width])
        for i in range(0, len(ticks) - width + 1, width)
    ]
    every = sorted(latencies[t] * 1e3 for t in ticks)
    windows = windows or [every]
    out = {q: median(quantile(w, q) for w in windows) for q in (0.50, 0.90)}
    out[0.99] = quantile(every, 0.99)
    return out, len(ticks), len(windows)


def quantile(sorted_values: list, q: float) -> float:
    """Linear interpolation between closest ranks (0 for no samples)."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0
