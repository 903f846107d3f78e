"""The gateway-echo workload: a live ``repro gateway serve`` child and a
single-process open-loop client.

The client opens two TCP connections and multiplexes 64 shim flows of
64-byte echo over them.  Requests follow a seeded Poisson schedule at a
fixed rate; each request's latency is measured from the instant it was
*due*, so a stall delays every request queued behind it.  The sender's
own lateness (send instant minus due instant) is reported per rate
step, and a step where the generator itself fell behind is marked
instead of being averaged in.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import select
import signal
import statistics
import struct
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from .common import (cpus_kept_awake, percentile, proc_cpu_s,
                     proc_peak_rss_mb,
                     tail_percentile)
from .workloads import Rep, Workload, scaled_setup_s

FLOWS = 64
CONNECTIONS = 2
PAYLOAD = 64
SERVER_APP = "echo-server"
#: fixed-rate windows (req/s, seconds); the gated rate runs as several
#: short windows so a repetition's median spans more of the box's noise
FIXED_STEPS = ((2000, 0.5), (4000, 1.2), (4000, 1.2))
GATED_RATE = 4000
#: the rising ladder that finds the highest rate meeting the limit
LADDER = (6000, 8000, 10000, 12000, 14000, 16000, 18000, 20000)
LADDER_STEP_S = 0.5
P99_LIMIT_S = 0.025
#: a step whose send lateness p99 exceeds this was generator-bound
GENERATOR_LATE_S = 0.002
#: the flat-out phase after the windows: bursts of requests sent at
#: once, each followed by the same burst to the bare echo server
BURSTS = 24
BURST_REQUESTS = 512
#: the bare burst is this many times longer: it takes about as long
BARE_MULTIPLE = 4
#: reference calls just before and just after set-up
REF_CALLS = 3
BURST_TIMEOUT_S = 10.0
ECHO_SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "echo_server.py")
DRAIN_S = 3.0
ALLOC_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 30.0

_ID = struct.Struct(">Q")


class _Flow:
    __slots__ = ("conn", "flow_id", "ready", "failed", "next_message")

    def __init__(self, conn: "_Conn", flow_id: int) -> None:
        self.conn = conn
        self.flow_id = flow_id
        self.ready = False
        self.failed: Optional[str] = None
        self.next_message = 0


class _Conn:
    """One TCP connection carrying a share of the flows."""

    def __init__(self, client: "EchoLoad", channel: Any) -> None:
        from repro.gateway.wire import frame_to_wire
        self.client = client
        self.channel = channel
        self.flows: Dict[int, _Flow] = {}
        self._to_wire = frame_to_wire
        channel.set_receiver(self._on_bytes)

    def send(self, frame: tuple) -> None:
        if not self.channel.send(self._to_wire(frame)):
            self.client.send_failures += 1

    def _on_bytes(self, buf: bytes) -> None:
        from repro.gateway.wire import decode_shim_frame
        from repro.shard.framing import FrameFormatError
        now = time.perf_counter()
        try:
            kind, flow_id, payload, _size = decode_shim_frame(buf)
        except FrameFormatError:
            self.client.wire_errors += 1
            return
        flow = self.flows.get(flow_id)
        if flow is None:
            return
        if kind == "data":
            data = getattr(payload, "data", b"")
            if len(data) != PAYLOAD:
                self.client.wire_errors += 1
                return
            self.client.on_reply(_ID.unpack_from(data)[0], now)
        elif kind == "alloc-ok":
            flow.ready = True
        elif kind in ("alloc-err", "dealloc"):
            flow.failed = str(payload)


class EchoLoad:
    """The open-loop client over ``CONNECTIONS`` connections."""

    def __init__(self) -> None:
        self.conns: List[_Conn] = []
        self.flows: List[_Flow] = []
        self.wire_errors = 0
        self.send_failures = 0
        # per request of the current step: due offset and reply instant
        self._due: List[float] = []
        self._sent: List[float] = []
        self._replied: List[Optional[float]] = []
        self._step_id_base = 0
        self._received = 0
        #: set when every request of the current burst has its reply
        self._all_replied: Optional[asyncio.Event] = None

    async def connect(self, port: int) -> None:
        from repro.gateway.transport import open_tcp_channel
        for _ in range(CONNECTIONS):
            channel = await open_tcp_channel("127.0.0.1", port)
            self.conns.append(_Conn(self, channel))
        for index in range(FLOWS):
            conn = self.conns[index % CONNECTIONS]
            flow = _Flow(conn, 2 + 2 * (index // CONNECTIONS))
            conn.flows[flow.flow_id] = flow
            self.flows.append(flow)

    async def allocate(self) -> int:
        """Allocate every flow; returns the number that failed."""
        for index, flow in enumerate(self.flows):
            flow.conn.send(("alloc", flow.flow_id,
                            (f"bench-{index}", SERVER_APP), 16))
        deadline = time.perf_counter() + ALLOC_TIMEOUT_S
        while time.perf_counter() < deadline:
            if all(flow.ready or flow.failed for flow in self.flows):
                break
            await asyncio.sleep(0.001)
        return sum(1 for flow in self.flows if not flow.ready or flow.failed)

    def close(self) -> None:
        for conn in self.conns:
            conn.channel.close()

    def on_reply(self, request_id: int, now: float) -> None:
        index = request_id - self._step_id_base
        if 0 <= index < len(self._replied) and self._replied[index] is None:
            self._replied[index] = now
            self._received += 1
            if (self._all_replied is not None
                    and self._received == len(self._replied)):
                self._all_replied.set()

    def _send(self, index: int) -> None:
        from repro.core.delimiting import Fragment
        flow = self.flows[index % FLOWS]
        data = _ID.pack(self._step_id_base + index) + b"x" * (
            PAYLOAD - _ID.size)
        fragment = Fragment(flow.next_message, 0, True, data)
        flow.next_message += 1
        flow.conn.send(("data", flow.flow_id, fragment,
                        fragment.wire_size()))

    async def burst(self, count: int) -> Dict[str, Any]:
        """Send ``count`` requests at once and wait for their replies:
        the server runs flat out, so the time from the first send to the
        last reply is its cost per request with no arrival pattern in
        it."""
        self._step_id_base += len(self._due) + 1_000_000
        self._due = [0.0] * count
        self._sent = [0.0] * count
        self._replied = [None] * count
        self._received = 0
        self._all_replied = asyncio.Event()
        start = time.perf_counter()
        for index in range(count):
            self._send(index)
        try:
            await asyncio.wait_for(self._all_replied.wait(),
                                   BURST_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        self._all_replied = None
        replied = [when for when in self._replied if when is not None]
        return {"rate": "burst", "requests": count,
                "replies": len(replied), "missing": count - len(replied),
                "wall_s": (max(replied) - start) if replied else 0.0}

    async def step(self, rate: float, seconds: float, rng: random.Random,
                   server_pid: Optional[int] = None) -> Dict[str, Any]:
        """One open-loop step at ``rate`` req/s for ``seconds``."""
        due = []
        offset = 0.0
        while True:
            offset += rng.expovariate(rate)
            if offset >= seconds:
                break
            due.append(offset)
        count = len(due)
        self._step_id_base += len(self._due) + 1_000_000
        self._due = due
        self._sent = [0.0] * count
        self._replied = [None] * count
        self._received = 0
        cpu0 = proc_cpu_s(server_pid) if server_pid else 0.0
        base = time.perf_counter() + 0.005
        index = 0
        while index < count:
            now = time.perf_counter() - base
            while index < count and due[index] <= now:
                self._send(index)
                self._sent[index] = now
                index += 1
            if index < count:
                # the loop's timers round up to ~1 ms: sleep short of the
                # next due instant and yield-spin the rest
                wait = due[index] - (time.perf_counter() - base)
                await asyncio.sleep(wait - 0.0015 if wait > 0.002 else 0)
        backlog = count - self._received
        # drain: wait while replies keep arriving (an overloaded server
        # answers late, not never), give up after DRAIN_S without any
        progress = (self._received, time.perf_counter())
        while self._received < count:
            await asyncio.sleep(0.0005)
            if self._received != progress[0]:
                progress = (self._received, time.perf_counter())
            elif time.perf_counter() - progress[1] > DRAIN_S:
                break
        cpu = (proc_cpu_s(server_pid) - cpu0) if server_pid else 0.0
        latencies = [(replied - base) - due[i]
                     for i, replied in enumerate(self._replied)
                     if replied is not None]
        lateness = [self._sent[i] - due[i] for i in range(count)]
        late_p99 = percentile(lateness, 99) if lateness else 0.0
        tail = tail_percentile(latencies)
        p99 = percentile(latencies, 99) if latencies else float("inf")
        missing = count - len(latencies)
        return {
            "rate": rate,
            "requests": count,
            "replies": len(latencies),
            "missing": missing,
            "p50_ms": (percentile(latencies, 50) * 1000.0
                       if latencies else float("inf")),
            "p99_ms": p99 * 1000.0,
            "tail": ({"pct": tail["pct"], "ms": tail["value"] * 1000.0,
                      "n": tail["n"], "beyond": tail["beyond"]}
                     if tail else None),
            "late_p50_ms": percentile(lateness, 50) * 1000.0 if lateness
            else 0.0,
            "late_p99_ms": late_p99 * 1000.0,
            "generator_behind": late_p99 > GENERATOR_LATE_S,
            "backlog_at_end": backlog,
            "backlog_growing": backlog > max(10, rate * P99_LIMIT_S),
            "server_cpu_s": cpu,
            "latencies": latencies,
        }


class _BareClient(asyncio.Protocol):
    """One connection to the bare echo server (``echo_server.py``)."""

    def __init__(self) -> None:
        self.transport: Any = None
        self.buf = bytearray()
        self.received = 0
        self.target = 0
        self.last = 0.0
        self.done: Optional[asyncio.Event] = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        from repro.gateway.wire import LENGTH_PREFIX
        self.last = time.perf_counter()
        buf = self.buf
        buf += data
        pos = 0
        while len(buf) - pos >= LENGTH_PREFIX.size:
            (length,) = LENGTH_PREFIX.unpack_from(buf, pos)
            end = pos + LENGTH_PREFIX.size + length
            if end > len(buf):
                break
            pos = end
            self.received += 1
        del buf[:pos]
        if self.done is not None and self.received >= self.target:
            self.done.set()

    async def burst(self, frames: List[bytes]) -> float:
        """Send ``frames`` at once; the wall seconds until the last echo
        (``inf`` if they did not all come back)."""
        self.received = 0
        self.target = len(frames)
        self.done = asyncio.Event()
        start = time.perf_counter()
        for frame in frames:
            self.transport.write(frame)
        try:
            await asyncio.wait_for(self.done.wait(), BURST_TIMEOUT_S)
        except asyncio.TimeoutError:
            return float("inf")
        finally:
            self.done = None
        return self.last - start


def _burst_frames() -> List[bytes]:
    """The bytes of the bare burst's requests: a gateway burst's, length
    prefix included, ``BARE_MULTIPLE`` times over."""
    from repro.core.delimiting import Fragment
    from repro.gateway.wire import LENGTH_PREFIX, frame_to_wire
    frames = []
    for index in range(BURST_REQUESTS * BARE_MULTIPLE):
        data = _ID.pack(index) + b"x" * (PAYLOAD - _ID.size)
        fragment = Fragment(index, 0, True, data)
        wire = frame_to_wire(("data", 2 + 2 * (index % FLOWS // CONNECTIONS),
                              fragment, fragment.wire_size()))
        frames.append(LENGTH_PREFIX.pack(len(wire)) + wire)
    return frames


class BareEcho:
    """The bare echo server in a child process, on the given CPUs."""

    def __init__(self, cpus: Optional[set]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, ECHO_SERVER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("ready "):
            self.stop()
            raise RuntimeError(f"bare echo server did not start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _server_command(traced: bool) -> List[str]:
    if traced:
        here = os.path.dirname(os.path.abspath(__file__))
        return [sys.executable, os.path.join(here, "gateway_server.py")]
    return [sys.executable, "-m", "repro", "gateway", "serve",
            "--tcp-port", "0", "--udp-port", "0", "--duration", "170"]


class Server:
    """A gateway server child process (plain ``repro gateway serve`` or
    the traced launcher)."""

    def __init__(self, src: str, traced: bool,
                 server_cpus: Optional[set] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.traced = traced
        self.proc = subprocess.Popen(
            _server_command(traced), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, text=True)
        if server_cpus:
            try:
                os.sched_setaffinity(self.proc.pid, server_cpus)
            except OSError:
                pass   # pinning is a noise reduction, not a requirement
        self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("gateway serving"):
            self.stop()
            raise RuntimeError(f"gateway server did not start: {line!r}")
        for part in line.split():
            if part.startswith("tcp="):
                return int(part[4:])
        raise RuntimeError(f"no tcp port in {line!r}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> Optional[Dict[str, Any]]:
        """Stop the server and wait for it: SIGINT for ``repro gateway
        serve``, end of input for the traced launcher, which answers
        with its trace report (one JSON line)."""
        report = None
        try:
            if not self.traced:
                self.proc.send_signal(signal.SIGINT)
            out, _ = self.proc.communicate(timeout=30)
            lines = [line for line in out.splitlines() if line.strip()]
            if self.traced and lines:
                report = json.loads(lines[-1])
        except (subprocess.TimeoutExpired, ValueError):
            self.proc.kill()
            self.proc.communicate()
        return report


class GatewayEcho(Workload):
    """Setup: server up and 64 flows allocated.  Timed: the fixed-rate
    steps (the last repetition also climbs the ladder)."""

    name = "gateway-echo"

    def __init__(self, seed: int, src: str) -> None:
        super().__init__(seed)
        self.src = src
        self.rng = random.Random(seed)
        self.peak_mb = 0.0
        self.ladder: List[Dict[str, Any]] = []
        self.max_rps = 0
        # client and server on separate CPUs when there are two: the
        # client's send loop busy-waits, and sharing a CPU with it would
        # put the server's latency at the mercy of the time slice
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else []
        self.server_cpus = None
        if len(cpus) >= 2:
            try:
                os.sched_setaffinity(0, {cpus[0]})
                self.server_cpus = {cpus[1]}
            except OSError:
                pass
        # set-up runs mostly in the server: the reference runs there too
        self.reference_cpus = self.server_cpus

    def rep(self, tracer: Any, traced: bool = False,
            ladder: bool = False) -> Rep:
        rep = Rep()
        with cpus_kept_awake(self.server_cpus or ()):
            gc.collect()
            self._reference()
            start = time.perf_counter()
            server = Server(self.src, traced, self.server_cpus)
            bare = None
            try:
                bare = BareEcho(self.server_cpus)
                steps, bursts, ladder_rows, alloc_failed, setup_s, client = \
                    asyncio.run(self._drive(server, bare.port, start,
                                            ladder))
                rep.setup_s = setup_s
                rep.extra["server_peak_rss_mb"] = proc_peak_rss_mb(
                    server.pid)
            finally:
                report = server.stop()
                if bare is not None:
                    bare.stop()
        if self.yardstick:
            rep.ref_s = self.yardstick.take()
        self.peak_mb = max(self.peak_mb, rep.extra["server_peak_rss_mb"])
        check_gateway(rep, steps + bursts + ladder_rows, alloc_failed,
                      client.wire_errors + client.send_failures)
        lost = sum(1 for burst in bursts if burst["bare_s"] == float("inf"))
        if lost:
            # a burst with no reference time has no run_x either
            rep.failed += lost
            rep.problems.append(f"{lost} bare echo bursts timed out")
        for rate in sorted({step["rate"] for step in steps}):
            p50_s, cpu_s = _pooled([step for step in steps
                                    if step["rate"] == rate])
            rep.extra[f"p50_ms.r{rate}"] = p50_s * 1000.0
            rep.extra[f"server_cpu_us_per_req.r{rate}"] = cpu_s * 1e6
            if rate == GATED_RATE:
                rep.run_s = p50_s
                rep.cpu_s = cpu_s
        rep.extra["steps"] = steps
        rep.extra["bursts"] = bursts
        if ladder:
            self.ladder = ladder_rows
            self.max_rps = _max_rps(steps, ladder_rows)
        if report is not None:
            rep.self_s = report["self_s"]
            rep.traced_wall_s = report["wall_s"]
            rep.layer_counts = report["counts"]
            rep.layer_counts["gateway.wire.wire_errors"] += client.wire_errors
            if report["counts"]["gateway.wire.wire_errors"]:
                rep.failed += int(report["counts"]["gateway.wire.wire_errors"])
                rep.problems.append("server reported wire errors")
        return rep

    async def _drive(self, server: Server, bare_port: int, start: float,
                     ladder: bool
                     ) -> Tuple[list, list, list, int, float, EchoLoad]:
        client = EchoLoad()
        await client.connect(server.port)
        alloc_failed = await client.allocate()
        setup_s = time.perf_counter() - start
        self._reference()
        _transport, bare = await asyncio.get_running_loop(
        ).create_connection(_BareClient, "127.0.0.1", bare_port)
        frames = _burst_frames()
        steps = []
        for rate, seconds in FIXED_STEPS:
            steps.append(await client.step(rate, seconds, self.rng,
                                           server.pid))
        bursts = []
        for _ in range(BURSTS):
            row = await client.burst(BURST_REQUESTS)
            row["bare_s"] = await bare.burst(frames)
            bursts.append(row)
        bare.transport.close()
        ladder_rows = []
        if ladder:
            for rate in LADDER:
                row = await client.step(rate, LADDER_STEP_S, self.rng,
                                        server.pid)
                ladder_rows.append(row)
                if not _passes(row):
                    break
        client.close()
        await asyncio.sleep(0.05)
        return steps, bursts, ladder_rows, alloc_failed, setup_s, client

    def _reference(self) -> None:
        """Reference calls just before and just after set-up (they block
        the client's event loop while nothing is in flight)."""
        if self.yardstick:
            for _ in range(REF_CALLS):
                self.yardstick.call()

    def peak_rss_mb(self) -> float:
        return self.peak_mb

    def summary(self, reps: List[Rep]) -> Dict[str, float]:
        """``run_x`` is the median over the repetitions (each with a
        server process of its own, which moves it by up to a fifth) of
        the median over the repetition's bursts of a burst's wall time
        per request over the bare echo server's per request in the
        burst right after it, on the same CPU: the gateway's cost over
        the event loop's and the sockets' alone.  (The windows' latency
        and server CPU move with the wake-ups of two processes and with
        how arrivals bunch, which no reference follows: they are
        reported, not gated.)"""
        return {"setup_s": scaled_setup_s(reps),
                "run_x": statistics.median(
                    statistics.median(
                        burst["wall_s"] * BARE_MULTIPLE / burst["bare_s"]
                        for burst in rep.extra["bursts"])
                    for rep in reps)}

    def extras(self, reps: List[Rep]) -> Dict[str, float]:
        """``run_s`` and ``cpu_s`` pool every window at the gated rate
        in the run: the median latency of all its requests, and the
        server's CPU over them per reply."""
        run_s, cpu_s = _pooled([step for rep in reps
                                for step in rep.extra["steps"]
                                if step["rate"] == GATED_RATE])
        return {"setup_wall_s": statistics.median(rep.setup_s
                                                  for rep in reps),
                "run_s": run_s, "cpu_s": cpu_s}


def _pooled(windows: List[Dict[str, Any]]) -> Tuple[float, float]:
    """Median latency (s) of every reply in ``windows``, and the
    server's CPU seconds over them per reply."""
    latencies = [value for step in windows for value in step["latencies"]]
    replies = sum(step["replies"] for step in windows)
    return (percentile(latencies, 50) if latencies else float("inf"),
            sum(step["server_cpu_s"] for step in windows) / max(1, replies))


def check_gateway(rep: Rep, steps: List[Dict[str, Any]], alloc_failed: int,
                  client_errors: int) -> None:
    """Check one gateway repetition into ``rep``: every request matched
    to its reply, every flow allocated, no wire error or failed send at
    the client.  Each miss is one failed operation."""
    for step in steps:
        rep.attempted += step["requests"]
        rep.failed += step["missing"]
        if step["missing"]:
            rep.problems.append(f"r{step['rate']}: {step['missing']} of "
                                f"{step['requests']} requests unanswered")
    rep.attempted += FLOWS
    rep.failed += alloc_failed + client_errors
    if alloc_failed:
        rep.problems.append(f"{alloc_failed} of {FLOWS} flows failed to "
                            f"allocate")
    if client_errors:
        rep.problems.append(f"client: {client_errors} wire errors or "
                            f"failed sends")


def _passes(step: Dict[str, Any]) -> bool:
    return (step["p99_ms"] <= P99_LIMIT_S * 1000.0 and not step["missing"]
            and not step["backlog_growing"] and not step["generator_behind"])


def _max_rps(steps: List[Dict[str, Any]],
             ladder: List[Dict[str, Any]]) -> int:
    """Highest rate whose step met the limit (the ladder stops at its
    first step that does not)."""
    return max((int(step["rate"]) for step in steps + ladder
                if _passes(step)), default=0)
