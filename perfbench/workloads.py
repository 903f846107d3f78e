"""The three simulated workloads: serial and 2-shard control plane, and
recursive data plane.

Each workload object runs one *repetition* at a time: a timed set-up, a
timed run, then output checks outside both windows.  The harness in
``run.py`` repeats until the run's time budget is spent and reports
medians.  Untraced, the run calls the reference computation
(``common.Yardstick``) every ``PACE_S`` or so, leaving its time out of
the run's, and ``run_x`` is the run's time over the reference's.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import os
import statistics
import time
from typing import Any, Dict, Iterator, List, Optional

from .common import (REFERENCE_CALL_S, Yardstick, children_cpu_s,
                     cpus_kept_awake, peak_rss_mb)
from .tracing import Tracer

#: The E6 plant of the control-plane workloads: 10 regions x 15 hosts,
#: plus a border per region and the core (161 systems).
CTRL_REGIONS = 10
CTRL_HOSTS = 15
CTRL_SHARDS = 2

#: The recursive data-plane plant: 10 regions x 20 hosts (211 systems).
DATA_REGIONS = 10
DATA_HOSTS = 20
DATA_BULK_BYTES = 8 * 1024 * 1024
DATA_CHUNK = 8 * 1024
DATA_ECHOES = 3000
DATA_ECHO_BYTES = 64
#: loss on the receiver's access link, installed after set-up
DATA_LOSS = 0.002

#: ctrl-serial runs in steps of this many events (a few ms), so that the
#: reference can be called between them
PACE_EVENTS = 500
#: reference calls just before and just after each ctrl-sharded run
BRACKET_CALLS = 5


class Rep:
    """The outcome of one repetition."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.run_s = 0.0
        self.cpu_s = 0.0
        #: mean wall seconds of the reference calls made with the run
        self.ref_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: reported, not gated
        self.extra: Dict[str, Any] = {}
        #: per-layer counts of this repetition (traced runs only)
        self.layer_counts: Dict[str, float] = {}
        #: traced wall time of the measured windows and its self times
        self.traced_wall_s = 0.0
        self.self_s: Dict[str, float] = {}


def rib_digest(node_stats: List[Dict[str, Any]]) -> str:
    """The E6 RIB fingerprint of a control-plane run's member rows."""
    from repro.experiments.e6_scalability import _stateful_row
    return _stateful_row(node_stats)["rib_sha256"]


def check_control_plane(rep: "Rep", systems: int, enrolled: int,
                        node_stats: List[Dict[str, Any]],
                        expected_digest: Optional[str]) -> None:
    """Check one control-plane run into ``rep``: every system enrolled
    with a full table (``table_rows == n(n-1)``), and the RIB digest
    equal to the reference when one is given.  A system that fails
    counts as one failed operation, and so does a digest mismatch."""
    rep.attempted += systems + 1
    rows = sum(row["table_size"] for row in node_stats)
    short = [row["node"] for row in node_stats
             if row["table_size"] != systems - 1]
    bad = max(len(short), systems - enrolled)
    if bad or rows != systems * (systems - 1):
        rep.failed += max(bad, 1)
        rep.problems.append(
            f"enrolled {enrolled} of {systems}; table rows {rows} != "
            f"n(n-1) = {systems * (systems - 1)}; partial: "
            f"{', '.join(short[:5])}")
    if expected_digest is not None:
        digest = rib_digest(node_stats)
        if digest != expected_digest:
            rep.failed += 1
            rep.problems.append(f"rib_sha256 {digest[:16]} != reference "
                                f"{expected_digest[:16]}")


def check_data(rep: "Rep", bytes_received: int, transfers: int,
               replies: int) -> None:
    """Check one data-plane repetition into ``rep``: every bulk byte and
    the end-of-file marker arrived, and every echo was answered.  Each
    missing chunk and each missing reply is one failed operation."""
    chunks = -(-DATA_BULK_BYTES // DATA_CHUNK)
    rep.attempted += chunks + DATA_ECHOES
    missing = DATA_BULK_BYTES - bytes_received
    if missing or transfers != 1:
        rep.failed += max(1, -(-abs(missing) // DATA_CHUNK))
        rep.problems.append(f"bulk: {bytes_received} of {DATA_BULK_BYTES} "
                            f"bytes, {transfers} end-of-file markers")
    if replies != DATA_ECHOES:
        rep.failed += abs(DATA_ECHOES - replies)
        rep.problems.append(f"echo: {replies} of {DATA_ECHOES} replies")


class _Windows:
    """Host-time windows of one repetition, with the tracer's self-time
    deltas over exactly those windows."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.wall = 0.0
        self.self_s: Dict[str, float] = {}

    def measure(self, fn, *args):
        tracer = self.tracer
        before = tracer.snapshot() if tracer is not None else None
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.wall += elapsed
        if tracer is not None:
            after = tracer.snapshot()
            for layer, value in after.items():
                self.self_s[layer] = (self.self_s.get(layer, 0.0)
                                      + value - before[layer])
        return result, elapsed

    def fill(self, rep: Rep) -> None:
        rep.traced_wall_s = self.wall
        rep.self_s = self.self_s


def _reset_counts(tracer: Optional[Tracer]) -> None:
    if tracer is not None:
        tracer.calls.clear()
        tracer.entries.clear()
        tracer.totals.clear()


class Workload:
    """One benchmark workload (subclasses fill in the phases)."""

    name = ""
    #: set-ups timed in each repetition: ``setup_s`` is their total
    #: divided by their number, so a set-up of a few milliseconds is
    #: measured over 100 ms or more
    setup_batch = 1

    #: modules imported before the first repetition, so no set-up
    #: window pays a one-time import
    imports: tuple = ()

    #: CPUs the reference process is pinned to (None: not pinned)
    reference_cpus: Optional[set] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: the reference the untraced repetitions call (set by run.py)
        self.yardstick: Optional[Yardstick] = None
        for module in self.imports:
            importlib.import_module(module)

    def _pin(self) -> None:
        """Keep this single-process workload and its reference on one
        CPU, so the reference meets the CPU the workload ran on."""
        cpus = sorted(os.sched_getaffinity(0))
        self.reference_cpus = {cpus[0]}
        os.sched_setaffinity(0, self.reference_cpus)

    def _spent(self) -> float:
        """Wall seconds spent in reference calls so far."""
        return self.yardstick.spent_s if self.yardstick else 0.0

    def _pace(self) -> None:
        if self.yardstick:
            self.yardstick.pace()

    def _take_ref(self, rep: Rep) -> None:
        if self.yardstick:
            rep.ref_s = self.yardstick.take()

    def rep(self, tracer: Optional[Tracer]) -> Rep:
        raise NotImplementedError

    def _timed_setup(self, windows: "_Windows", rep: Rep):
        """Time ``setup_batch`` calls of the subclass's ``_setup`` into
        ``rep.setup_s`` (their total over their number); returns the
        last set-up, which the run uses.  The previous set-up is freed
        and collected outside the timer, so each call meets the heap a
        single set-up would (in one timed batch, collecting the growing
        heap more than doubles a control-plane build)."""
        total = 0.0
        for _ in range(self.setup_batch):
            made = None
            gc.collect()
            made, elapsed = windows.measure(self._setup)
            total += elapsed
            self._pace()
        rep.setup_s = total / self.setup_batch
        return made

    def finish(self, reps: List[Rep]) -> None:
        """Checks that need every repetition (run after the last one);
        failures are charged to the repetitions they concern."""

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def summary(self, reps: List[Rep]) -> Dict[str, float]:
        """The gated time metrics: medians over the repetitions of the
        run's time over the reference's, and of the set-up time."""
        return {"setup_s": scaled_setup_s(reps),
                "run_x": statistics.median(rep.run_s / rep.ref_s
                                           for rep in reps)}

    def extras(self, reps: List[Rep]) -> Dict[str, float]:
        """The run's own times, reported but not gated: medians over the
        repetitions."""
        return {"setup_wall_s": statistics.median(rep.setup_s
                                                  for rep in reps),
                "run_s": statistics.median(rep.run_s for rep in reps),
                "cpu_s": statistics.median(rep.cpu_s for rep in reps)}


def scaled_setup_s(reps: List[Rep]) -> float:
    """``setup_s``: the median over the repetitions of the set-up time
    over the reference's, in seconds of a box on which one reference
    call takes ``REFERENCE_CALL_S``."""
    return REFERENCE_CALL_S * statistics.median(rep.setup_s / rep.ref_s
                                                for rep in reps)


# ----------------------------------------------------------------------
# Control plane
# ----------------------------------------------------------------------
def _ctrl_inputs():
    from repro.experiments.e6_scalability import (build_flood_spec,
                                                  build_stateful_workload)
    return (build_flood_spec(CTRL_REGIONS, CTRL_HOSTS),
            build_stateful_workload(CTRL_REGIONS, CTRL_HOSTS))


class CtrlSerial(Workload):
    """The flat stateful control plane on one engine."""

    name = "ctrl-serial"
    setup_batch = 10
    imports = ("repro.shard", "repro.experiments.e6_scalability")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.digests: List[str] = []
        self._pin()

    def _setup(self):
        from repro.shard import StatefulControlPlane
        spec, workload = _ctrl_inputs()
        network = spec.build(seed=self.seed)
        plane = StatefulControlPlane(network, workload)
        return spec, workload, network, plane

    def _run(self, network, until: float) -> None:
        """``network.run(until)`` in steps of ``PACE_EVENTS`` events,
        pacing the reference between them."""
        engine = network.engine
        while True:
            before = engine.events_processed
            network.run(until=until, max_events=PACE_EVENTS)
            self._pace()
            if engine.events_processed - before < PACE_EVENTS:
                return

    def rep(self, tracer: Optional[Tracer]) -> Rep:
        rep = Rep()
        windows = _Windows(tracer)
        _reset_counts(tracer)
        spec, workload, network, plane = self._timed_setup(windows, rep)
        cpu0 = time.process_time()
        spent0 = self._spent()
        _, wall = windows.measure(self._run, network, workload["until"])
        rep.run_s = wall - (self._spent() - spent0)
        rep.cpu_s = time.process_time() - cpu0
        self._take_ref(rep)
        windows.fill(rep)
        if tracer is not None:
            rep.layer_counts = sim_layer_counts(tracer)
        node_stats = plane.node_stat_rows()
        check_control_plane(rep, len(spec.nodes),
                            plane.summary_extra()["enrolled"], node_stats,
                            self.digests[0] if self.digests else None)
        self.digests.append(rib_digest(node_stats))
        rep.extra = {"events": network.engine.events_processed}
        return rep


class CtrlSharded(Workload):
    """The same plant, schedule and seed through ``run_sharded`` with 2
    process shards and the library's default protocol and transport."""

    name = "ctrl-sharded"
    imports = ("repro.shard", "repro.experiments.e6_scalability")
    setup_batch = 75

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.digests: List[str] = []

    def _setup(self):
        from repro.experiments.e6_scalability import flood_assignment
        from repro.shard import RegionPlan
        spec, workload = _ctrl_inputs()
        plan = RegionPlan(spec, flood_assignment(CTRL_REGIONS, CTRL_HOSTS,
                                                 CTRL_SHARDS))
        return spec, workload, plan

    def rep(self, tracer: Optional[Tracer]) -> Rep:
        from repro.shard import run_sharded
        rep = Rep()
        windows = _Windows(tracer)
        _reset_counts(tracer)
        spec, workload, plan = self._timed_setup(windows, rep)
        # the parent and the workers wait on each other's pipes
        with cpus_kept_awake(os.sched_getaffinity(0)), \
                self._paced_rounds():
            self._bracket()
            cpu0 = time.process_time()
            child0 = children_cpu_s()
            spent0 = self._spent()
            result, wall = windows.measure(
                lambda: run_sharded(plan, workload, seed=self.seed,
                                    until=workload["until"],
                                    collect_traces=False))
            rep.run_s = wall - (self._spent() - spent0)
            rep.cpu_s = (time.process_time() - cpu0
                         + children_cpu_s() - child0)
            self._bracket()
        self._take_ref(rep)
        windows.fill(rep)
        if tracer is not None:
            counts = sim_layer_counts(tracer)
            counts.update({
                "sim.engine.events": result.events,
                "shard.coordinator.rounds": result.rounds,
                "shard.coordinator.grants": result.grants,
                "shard.coordinator.region_steps": result.steps,
                "shard.coordinator.frames_relayed": result.frames_relayed,
                "shard.coordinator.relay_batches": result.relay_batches,
                "shard.coordinator.relay_bytes": result.relay_bytes,
            })
            rep.layer_counts = counts
        enrolled = sum(shard["enrolled"] for shard in result.shards)
        # the digest is compared with the serial run in finish()
        check_control_plane(rep, len(spec.nodes), enrolled,
                            result.node_stats, None)
        self.digests.append(rib_digest(result.node_stats))
        rep.extra = {"events": result.events, "rounds": result.rounds}
        return rep

    def _bracket(self) -> None:
        if self.yardstick:
            for _ in range(BRACKET_CALLS):
                self.yardstick.call()

    @contextlib.contextmanager
    def _paced_rounds(self) -> Iterator[None]:
        """While the yardstick is on, pace it before each barrier round
        of the coordinator (``_step_some``): every worker is idle then,
        waiting for its next step.  The barrier-free protocol calls
        ``_step_some`` only to finish, so there only the brackets
        measure the reference."""
        if not self.yardstick:
            yield
            return
        from repro.shard.coordinator import ShardCoordinator
        original = ShardCoordinator._step_some
        pace = self._pace

        def _step_some(coordinator, *args, **kwargs):
            pace()
            return original(coordinator, *args, **kwargs)

        ShardCoordinator._step_some = _step_some
        try:
            yield
        finally:
            ShardCoordinator._step_some = original

    def finish(self, reps: List[Rep]) -> None:
        """Compare every repetition's RIB digest with one serial run of
        the same plant and seed (run after the sharded repetitions, so
        its memory does not count against their peak)."""
        from repro.shard import StatefulControlPlane
        spec, workload = _ctrl_inputs()
        network = spec.build(seed=self.seed)
        plane = StatefulControlPlane(network, workload)
        network.run(until=workload["until"])
        serial = rib_digest(plane.node_stat_rows())
        for rep, digest in zip(reps, self.digests):
            rep.attempted += 1
            if digest != serial:
                rep.failed += 1
                rep.problems.append(f"rib_sha256 {digest[:16]} != serial "
                                    f"{serial[:16]}")

    def peak_rss_mb(self) -> float:
        """Parent peak plus each worker at the largest worker's peak."""
        import resource
        return (peak_rss_mb()
                + CTRL_SHARDS * peak_rss_mb(resource.RUSAGE_CHILDREN))


# ----------------------------------------------------------------------
# Recursive data plane
# ----------------------------------------------------------------------
class DataRecursive(Workload):
    """Bulk transfer then a 64-byte echo burst, h0_0 -> h9_0 over the
    host-to-host DIF stacked on region and backbone DIFs."""

    name = "data-recursive"
    setup_batch = 3
    imports = ("repro.apps.echo", "repro.apps.filetransfer", "repro.core",
               "repro.experiments.e6_scalability", "repro.sim.link")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._pin()

    def _setup(self):
        from repro.apps.echo import EchoClient, EchoServer
        from repro.apps.filetransfer import FileSender, FileSink
        from repro.core import run_until
        from repro.experiments.e6_scalability import build_recursive
        network, systems, _difs = build_recursive(DATA_REGIONS, DATA_HOSTS,
                                                  seed=self.seed)
        src, dst = systems["h0_0"], systems[f"h{DATA_REGIONS - 1}_0"]
        sink = FileSink(dst, dif_names=["h2h"])
        EchoServer(dst, dif_names=["h2h"])
        client = EchoClient(src, dif_name="h2h")
        if not run_until(network, lambda: client.waiter.completed):
            raise RuntimeError("echo flow allocation timed out")
        # the sender starts pushing as soon as its flow is allocated:
        # stop set-up within 1 ms of simulated time of that instant
        sender = FileSender(src, DATA_BULK_BYTES, dif_name="h2h",
                            chunk_size=DATA_CHUNK)
        if not run_until(network, lambda: sender.waiter.completed,
                         step=0.001):
            raise RuntimeError("bulk flow allocation timed out")
        return network, client, sender, sink

    def _paced(self, predicate):
        """``predicate`` that paces the reference each time it is asked
        (once per simulated step of ``run_until``)."""
        def check() -> bool:
            self._pace()
            return predicate()
        return check

    def _bulk(self, network, sink) -> bool:
        from repro.core import run_until
        return run_until(network, self._paced(
            lambda: sink.transfers_completed >= 1),
            timeout=600.0, step=0.01)

    def _echo(self, network, client) -> bool:
        from repro.core import run_until
        for _ in range(DATA_ECHOES):
            client.ping(DATA_ECHO_BYTES)
        return run_until(network, self._paced(
            lambda: client.replies >= DATA_ECHOES),
            timeout=600.0, step=0.01)

    def rep(self, tracer: Optional[Tracer]) -> Rep:
        from repro.sim.link import UniformLoss
        rep = Rep()
        windows = _Windows(tracer)
        _reset_counts(tracer)
        network, client, _sender, sink = self._timed_setup(windows, rep)
        dst = f"h{DATA_REGIONS - 1}_0"
        network.link_between(dst, f"border{DATA_REGIONS - 1}").loss = \
            UniformLoss(DATA_LOSS)
        cpu0 = time.process_time()
        spent0 = self._spent()
        _, bulk_s = windows.measure(self._bulk, network, sink)
        spent1 = self._spent()
        _, echo_s = windows.measure(self._echo, network, client)
        bulk_s -= spent1 - spent0
        echo_s -= self._spent() - spent1
        rep.cpu_s = time.process_time() - cpu0
        rep.run_s = bulk_s + echo_s
        self._take_ref(rep)
        windows.fill(rep)
        if tracer is not None:
            rep.layer_counts = sim_layer_counts(tracer)
        check_data(rep, sink.bytes_received, sink.transfers_completed,
                   client.replies)
        rep.extra = {
            "bulk_mb_per_s": DATA_BULK_BYTES / 1e6 / bulk_s,
            "echo_rtts_per_s": DATA_ECHOES / echo_s,
            "events": network.engine.events_processed,
        }
        return rep


# ----------------------------------------------------------------------
# Per-layer counts harvested from a traced simulated repetition
# ----------------------------------------------------------------------
#: classes whose instances carry the counters the traced run reports
TRACKED = (
    "repro.sim.engine:Engine",
    "repro.sim.link:Link",
    "repro.core.rmt:Rmt",
    "repro.core.efcp:EfcpStats",
    "repro.core.routing:LinkStateRouting",
    "repro.core.enrollment:EnrollmentTask",
    "repro.gateway.transport:FrameChannel",
    "repro.gateway.server:GatewayServer",
)

#: functions whose every call is counted
COUNTED = (
    "repro.core.routing:Lsa.from_value",
    "repro.core.routing:LinkStateRouting.handle_lsa",
    "repro.core.riep:RiepMessage.__init__",
    "repro.core.riep:_estimate_value_size",
    "repro.core.delimiting:Fragment.__init__",
    "repro.core.shim:ShimIpcp._on_frame",
    "repro.gateway.driver:AsyncEngineDriver.inject",
)


def _add_len(name: str, use_result: bool):
    def hook(tracer: Tracer, args, result, _duration) -> None:
        tracer.totals[name] += len(result if use_result else args[0])
    return hook


def _add_time(name: str):
    def hook(tracer: Tracer, _args, _result, duration) -> None:
        tracer.totals[name] += duration
    return hook


class _TimedConnection:
    """Stands in for ``multiprocessing.connection`` inside the shard
    coordinator: the asynchronous scheduler blocks in its ``wait``,
    which adds the blocked time to ``shard.coordinator.wait_s``."""

    def __init__(self, tracer: Tracer, module: Any) -> None:
        self._tracer = tracer
        self._module = module

    def wait(self, *args, **kwargs):
        tracer = self._tracer
        start = tracer.clock()
        try:
            return self._module.wait(*args, **kwargs)
        finally:
            tracer.totals["shard.coordinator.wait_s"] += \
                tracer.clock() - start

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def install_tracer(tracer: Tracer) -> Tracer:
    """Register the counters and hooks the per-layer metrics need, then
    install the tracer."""
    tracer.track(*TRACKED)
    tracer.count_calls(*COUNTED)
    for key in ("repro.shard.framing:pack_frames",
                "repro.shard.framing:pack_frame"):
        tracer.hook(key, _add_len("shard.framing.bytes", True))
    for key in ("repro.shard.framing:unpack_frames",
                "repro.shard.framing:unpack_frame"):
        tracer.hook(key, _add_len("shard.framing.bytes", False))
    tracer.hook("repro.gateway.wire:frame_to_wire",
                _add_len("gateway.wire.wire_bytes", True))
    tracer.hook("repro.gateway.wire:decode_shim_frame",
                _add_len("gateway.wire.wire_bytes", False))
    # the parent blocks on worker pipes in _recv (barrier protocols) or
    # in multiprocessing.connection.wait (asynchronous grants)
    tracer.hook("repro.shard.coordinator:_ProcessShard._recv",
                _add_time("shard.coordinator.wait_s"))
    tracer.install()
    coordinator = importlib.import_module("repro.shard.coordinator")
    tracer.patch(coordinator, "mp_connection",
                 _TimedConnection(tracer, coordinator.mp_connection))
    return tracer


def sim_layer_counts(tracer: Tracer) -> Dict[str, float]:
    """Counts of one repetition from the tracked instances and counted
    calls (zero where a layer did not run)."""
    def total(class_key: str, *attrs: str) -> Dict[str, int]:
        sums = {attr: 0 for attr in attrs}
        for obj in tracer.take_instances(class_key):
            for attr in attrs:
                value = getattr(obj, attr)
                sums[attr] += sum(value) if isinstance(value, list) else value
        return sums

    calls = tracer.calls
    entries = tracer.entries
    engines = total("repro.sim.engine:Engine", "events_processed")
    links = total("repro.sim.link:Link", "frames_sent", "bytes_delivered",
                  "frames_dropped_queue", "frames_dropped_loss")
    rmt = total("repro.core.rmt:Rmt", "pdus_relayed", "pdus_dropped")
    efcp = total("repro.core.efcp:EfcpStats", "pdus_sent",
                 "retransmissions", "duplicates", "acks_sent")
    routing = total("repro.core.routing:LinkStateRouting", "lsas_received",
                    "lsas_reflooded", "spf_runs", "spf_skipped")
    enrollment = total("repro.core.enrollment:EnrollmentTask",
                       "joins_completed")
    channels = total("repro.gateway.transport:FrameChannel", "frames_in",
                     "frames_out")
    servers = tracer.take_instances("repro.gateway.server:GatewayServer")
    handled = calls["repro.core.routing:LinkStateRouting.handle_lsa"]
    messages = calls["repro.core.riep:RiepMessage.__init__"]
    injects = calls["repro.gateway.driver:AsyncEngineDriver.inject"]
    return {
        "sim.engine.events": engines["events_processed"],
        "sim.link.frames": links["frames_sent"],
        "sim.link.bytes": links["bytes_delivered"],
        "sim.link.drops_queue": links["frames_dropped_queue"],
        "sim.link.drops_loss": links["frames_dropped_loss"],
        "core.shim.frames": calls["repro.core.shim:ShimIpcp._on_frame"],
        "core.rmt.pdus_relayed": rmt["pdus_relayed"],
        "core.rmt.pdus_dropped": rmt["pdus_dropped"],
        "core.efcp.pdus_sent": efcp["pdus_sent"],
        "core.efcp.retransmissions": efcp["retransmissions"],
        "core.efcp.duplicates": efcp["duplicates"],
        "core.efcp.acks_sent": efcp["acks_sent"],
        "core.efcp.useful_ratio": (
            (efcp["pdus_sent"] - efcp["retransmissions"]) / efcp["pdus_sent"]
            if efcp["pdus_sent"] else 0.0),
        "core.delimiting.fragments":
            calls["repro.core.delimiting:Fragment.__init__"],
        "core.routing.lsas_received": routing["lsas_received"],
        "core.routing.lsas_reflooded": routing["lsas_reflooded"],
        "core.routing.lsa_decodes_per_lsa": (
            calls["repro.core.routing:Lsa.from_value"] / handled
            if handled else 0.0),
        "core.routing.spf_runs": routing["spf_runs"],
        "core.routing.spf_skipped": routing["spf_skipped"],
        "core.riep.messages": messages,
        "core.riep.size_estimates_per_message": (
            calls["repro.core.riep:_estimate_value_size"] / messages
            if messages else 0.0),
        "core.enrollment.enrolled": enrollment["joins_completed"],
        "core.codec.encodes": entries["repro.core.codec:encode"],
        "core.codec.decodes": entries["repro.core.codec:decode"],
        "shard.framing.bytes": tracer.totals["shard.framing.bytes"],
        "shard.coordinator.rounds": 0,
        "shard.coordinator.grants": 0,
        "shard.coordinator.region_steps": 0,
        "shard.coordinator.frames_relayed": 0,
        "shard.coordinator.relay_batches": 0,
        "shard.coordinator.relay_bytes": 0,
        "shard.coordinator.wait_s":
            tracer.totals["shard.coordinator.wait_s"],
        "gateway.transport.frames_in": channels["frames_in"],
        "gateway.transport.frames_out": channels["frames_out"],
        "gateway.wire.wire_bytes": tracer.totals["gateway.wire.wire_bytes"],
        "gateway.wire.wire_errors": sum(server.stats["wire_errors"]
                                        for server in servers),
        "gateway.driver.injects": injects,
        "gateway.driver.inject_wait_ms": (
            tracer.totals["gateway.driver.inject_wait_s"] * 1000.0 / injects
            if injects else 0.0),
    }


WORKLOADS = {cls.name: cls for cls in (CtrlSerial, CtrlSharded,
                                       DataRecursive)}
