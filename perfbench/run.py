"""Run the repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --workload ctrl-serial --seed 3 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload data-recursive --trace 1

One workload per process: the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics, measured with no
tracing installed and with the reference computation (``reference.py``)
called in lock-step; with ``--trace 1`` they are the per-layer metrics of
a traced run (after one untraced repetition that the tracing overhead
is measured against).  Without ``--workload`` every workload runs in
its own child process and the exit code is non-zero if any output check
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.common import Yardstick, box_tag, steal_s  # noqa: E402
from perfbench.tracing import LAYERS, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, install_tracer  # noqa: E402

WORKLOAD_NAMES = ("ctrl-serial", "ctrl-sharded", "data-recursive",
                  "gateway-echo")

#: gated end-to-end metrics: (name, unit)
END_TO_END = (("setup_s", "s"), ("run_x", "x"), ("peak_rss_mb", "MB"))

#: reported beside the gated metrics, never gated
EXTRA_UNITS = {
    "setup_wall_s": "s", "run_s": "s", "cpu_s": "s",
    "bulk_mb_per_s": "MB/s", "echo_rtts_per_s": "1/s", "events": "count",
    "rounds": "count", "p50_ms.r2000": "ms", "p50_ms.r4000": "ms",
    "server_cpu_us_per_req.r2000": "us", "server_cpu_us_per_req.r4000": "us",
    "server_peak_rss_mb": "MB",
}

#: repetitions every run makes at least, whatever its time budget
MIN_REPS = 3


def _layer_metric_units() -> Dict[str, str]:
    units = {"trace.wall_s": "s", "trace.unattributed_s": "s",
             "trace.overhead_x": "x"}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name, unit in PER_LAYER_COUNTS:
        units[name] = unit
    return units


#: per-layer counts and ratios of the traced run
PER_LAYER_COUNTS = (
    ("sim.engine.events", "count"),
    ("sim.link.frames", "count"), ("sim.link.bytes", "B"),
    ("sim.link.drops_queue", "count"), ("sim.link.drops_loss", "count"),
    ("core.shim.frames", "count"),
    ("core.rmt.pdus_relayed", "count"), ("core.rmt.pdus_dropped", "count"),
    ("core.efcp.pdus_sent", "count"), ("core.efcp.retransmissions", "count"),
    ("core.efcp.duplicates", "count"), ("core.efcp.acks_sent", "count"),
    ("core.efcp.useful_ratio", "ratio"),
    ("core.delimiting.fragments", "count"),
    ("core.routing.lsas_received", "count"),
    ("core.routing.lsas_reflooded", "count"),
    ("core.routing.lsa_decodes_per_lsa", "ratio"),
    ("core.routing.spf_runs", "count"), ("core.routing.spf_skipped", "count"),
    ("core.riep.messages", "count"),
    ("core.riep.size_estimates_per_message", "ratio"),
    ("core.enrollment.enrolled", "count"),
    ("core.codec.encodes", "count"), ("core.codec.decodes", "count"),
    ("shard.framing.bytes", "B"),
    ("shard.coordinator.rounds", "count"),
    ("shard.coordinator.grants", "count"),
    ("shard.coordinator.region_steps", "count"),
    ("shard.coordinator.frames_relayed", "count"),
    ("shard.coordinator.relay_batches", "count"),
    ("shard.coordinator.relay_bytes", "B"),
    ("shard.coordinator.wait_s", "s"),
    ("gateway.transport.frames_in", "count"),
    ("gateway.transport.frames_out", "count"),
    ("gateway.wire.wire_bytes", "B"), ("gateway.wire.wire_errors", "count"),
    ("gateway.driver.injects", "count"),
    ("gateway.driver.inject_wait_ms", "ms"),
)


def _make(name: str, seed: int):
    if name == "gateway-echo":
        # imported here: the asyncio client would otherwise sit in the
        # memory every forked shard worker inherits
        from perfbench.gateway import GatewayEcho
        return GatewayEcho(seed, SRC)
    return WORKLOADS[name](seed)


def _rep(workload, tracer, traced: bool, last: bool):
    if workload.name == "gateway-echo":
        return workload.rep(None, traced=traced, ladder=last and not traced)
    return workload.rep(tracer)


def _run_reps(workload, seconds: float, trace: bool):
    """Repetitions until the time budget is spent (at least MIN_REPS
    measured ones).  Returns (measured reps, untraced reference rep)."""
    reference = _rep(workload, None, False, False) if trace else None
    tracer = None
    if trace and workload.name != "gateway-echo":
        tracer = install_tracer(Tracer())
    reps = []
    minimum = 1 if trace else MIN_REPS
    start = time.perf_counter()
    durations: List[float] = []
    try:
        while True:
            elapsed = time.perf_counter() - start
            estimate = statistics.median(durations) if durations else 0.0
            last = (len(reps) + 1 >= minimum
                    and elapsed + 2 * estimate >= seconds)
            began = time.perf_counter()
            reps.append(_rep(workload, tracer, trace, last))
            durations.append(time.perf_counter() - began)
            if last:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return reps, reference


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    box = box_tag()
    steal0 = steal_s()
    workload = _make(name, seed)
    yardstick = None if trace else Yardstick(workload.reference_cpus)
    try:
        workload.yardstick = yardstick
        reps, reference = _run_reps(workload, seconds, trace)
        peak = workload.peak_rss_mb()
    finally:
        # closed after the peaks are read: it is a child process too
        if yardstick is not None:
            yardstick.close()
    workload.yardstick = None
    workload.finish(reps)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if trace:
        metrics = _layer_metrics(reps, reference,
                                 name == "gateway-echo")
    else:
        metrics = dict(workload.summary(reps), peak_rss_mb=peak)
    units = dict(END_TO_END) if not trace else _layer_metric_units()
    print(f"workload {name}  seed {seed}  repetitions {len(reps)}  "
          f"traced {int(trace)}")
    steal1 = steal_s()
    if steal0 is not None and steal1 is not None:
        box["steal_s"] = round(steal1 - steal0, 2)
    print("box " + json.dumps(box, sort_keys=True))
    for key, value in metrics.items():
        print(f"  {key:<42} {value:>14.6g} {units[key]}")
    if not trace:
        for key, value in workload.extras(reps).items():
            print(f"  (not gated) {key:<30} {value:>14.6g} "
                  f"{EXTRA_UNITS[key]}")
        for key, label in (("setup_s", "setup_wall_s"), ("run_s", "run_s"),
                           ("cpu_s", "cpu_s"), ("ref_s", "ref_s")):
            values = " ".join(f"{getattr(rep, key):.6g}" for rep in reps)
            print(f"  per repetition {label}: {values}")
        values = " ".join(f"{workload.summary([rep])['run_x']:.6g}"
                          for rep in reps)
        print(f"  per repetition run_x: {values}")
    _print_extras(workload, reps)
    print(f"  ops attempted {attempted}  failed {failed}")
    for rep in reps:
        for problem in rep.problems:
            print(f"  FAILED: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def _print_extras(workload, reps) -> None:
    keys = [key for key in reps[0].extra if key in EXTRA_UNITS]
    for key in keys:
        values = [rep.extra[key] for rep in reps if key in rep.extra]
        print(f"  (not gated) {key:<30} "
              f"{statistics.median(values):>14.6g} "
              f"{EXTRA_UNITS[key]}")
    if workload.name != "gateway-echo":
        return
    rows = [step for rep in reps for step in rep.extra.get("steps", [])]
    rows += workload.ladder
    for step in rows:
        tail = step["tail"]
        tail_text = (f"p{tail['pct']:g} {tail['ms']:.3f} ms "
                     f"({tail['beyond']} beyond)" if tail else "no tail")
        flags = [flag for flag in ("generator_behind", "backlog_growing")
                 if step[flag]]
        print(f"  step r{int(step['rate'])}: n={step['replies']}/"
              f"{step['requests']} p50 {step['p50_ms']:.3f} ms "
              f"{tail_text}; lateness p50 {step['late_p50_ms']:.3f} ms "
              f"p99 {step['late_p99_ms']:.3f} ms"
              + (f"  [{', '.join(flags)}]" if flags else ""))
    if workload.ladder:
        print(f"  (not gated) {'max_rps':<30} {workload.max_rps:>14d} 1/s")


def _layer_metrics(reps, reference, gateway: bool) -> Dict[str, float]:
    """Per-layer metrics: means over the traced repetitions."""
    count = len(reps)
    wall = sum(rep.traced_wall_s for rep in reps) / count
    metrics: Dict[str, float] = {"trace.wall_s": wall}
    covered = 0.0
    for layer in LAYERS:
        value = sum(rep.self_s.get(layer, 0.0) for rep in reps) / count
        covered += value
        metrics[f"{layer}.self_s"] = value
    metrics["trace.unattributed_s"] = wall - covered
    # the gateway's wall time is set by its schedule: compare server CPU
    if gateway:
        traced = statistics.median([rep.cpu_s for rep in reps])
        untraced = reference.cpu_s
    else:
        traced = statistics.median([rep.setup_s + rep.run_s
                                    for rep in reps])
        untraced = reference.setup_s + reference.run_s
    metrics["trace.overhead_x"] = traced / untraced
    for name, _unit in PER_LAYER_COUNTS:
        metrics[name] = sum(rep.layer_counts.get(name, 0)
                            for rep in reps) / count
    return metrics


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; non-zero if any check failed."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
        summary[name] = result
    print(json.dumps({"correct": status == 0, "workloads": summary}))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}/repro; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
