"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import asyncio
import importlib
import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run  # noqa: E402
from perfbench.common import (Yardstick, cpus_kept_awake,  # noqa: E402
                              tail_percentile)
from perfbench.gateway import (BURST_TIMEOUT_S, FLOWS,  # noqa: E402
                               BareEcho, _BareClient, _burst_frames,
                               check_gateway)
from perfbench.tracing import Tracer, self_times, traced_modules  # noqa: E402
from perfbench.workloads import (DATA_BULK_BYTES, DATA_ECHOES,  # noqa: E402
                                 Rep, check_control_plane, check_data,
                                 install_tracer, rib_digest)


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_times_of_nested_spans():
    # a[0,10] > b[1,4] > c[2,3];  a > b'[5,9]
    spans = [
        (2, "c", 2.0, 3.0, 1),
        (1, "b", 1.0, 4.0, 0),
        (3, "b", 5.0, 9.0, 0),
        (0, "a", 0.0, 10.0, None),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"a": 3.0, "b": 6.0, "c": 1.0})
    # self times of a tree add up to its root's duration
    assert sum(got.values()) == pytest.approx(10.0)


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_online_self_times_match_span_records():
    clock = _FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.tick(2.0)

    def same_layer_helper():
        clock.tick(0.5)

    def outer():
        clock.tick(1.0)
        traced_inner()
        traced_helper()   # same layer as outer: no span of its own
        clock.tick(3.0)

    traced_inner = tracer.wrap(inner, "core.efcp", "t:inner")
    traced_helper = tracer.wrap(same_layer_helper, "sim.engine", "t:helper")
    traced_outer = tracer.wrap(outer, "sim.engine", "t:outer")
    traced_outer()
    traced_outer()
    online = tracer.snapshot()
    assert online["sim.engine"] == pytest.approx(2 * 4.5)
    assert online["core.efcp"] == pytest.approx(2 * 2.0)
    assert self_times(tracer.spans) == pytest.approx(
        {"sim.engine": 9.0, "core.efcp": 4.0})
    assert tracer.entries["t:outer"] == 2
    assert "t:helper" not in tracer.entries


def test_span_closes_when_the_call_raises():
    clock = _FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.tick(1.0)
        raise ValueError("boom")

    traced = tracer.wrap(boom, "core.rmt", "t:boom")
    with pytest.raises(ValueError):
        traced()
    assert tracer.snapshot()["core.rmt"] == pytest.approx(1.0)
    assert not tracer._stack


# ----------------------------------------------------------------------
# percentile helper
# ----------------------------------------------------------------------
def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    tail = tail_percentile(samples)
    assert (tail["pct"], tail["value"], tail["n"], tail["beyond"]) == \
        (90.0, 90, 100, 10)
    tail = tail_percentile(list(range(1, 1001)))
    assert (tail["pct"], tail["value"], tail["beyond"]) == (99.0, 990, 10)
    assert tail_percentile(list(range(15))) is None


# ----------------------------------------------------------------------
# spinners
# ----------------------------------------------------------------------
@pytest.mark.skipif(not hasattr(os, "SCHED_IDLE"), reason="needs SCHED_IDLE")
def test_spinners_run_idle_class_and_are_reaped():
    before = _children()
    with cpus_kept_awake(sorted(os.sched_getaffinity(0))[:1]):
        spinners = _children() - before
        assert len(spinners) == 1
        assert os.sched_getscheduler(spinners.pop()) == os.SCHED_IDLE
    assert _children() == before


def test_yardstick_times_reference_calls_and_is_reaped():
    before = _children()
    yardstick = Yardstick()
    try:
        for _ in range(3):
            yardstick.call()
        # the reference's own time is part of each round trip
        assert 0 < yardstick.take() <= yardstick.spent_s / 3
    finally:
        yardstick.close()
    assert _children() == before


def test_bare_echo_answers_a_burst_and_is_reaped():
    before = _children()
    bare = BareEcho(None)

    async def burst() -> float:
        _transport, client = await asyncio.get_running_loop(
        ).create_connection(_BareClient, "127.0.0.1", bare.port)
        try:
            return await client.burst(_burst_frames()[:64])
        finally:
            client.transport.close()
    try:
        assert 0 < asyncio.run(burst()) < BURST_TIMEOUT_S
    finally:
        bare.stop()
    assert _children() == before


def _children():
    with open(f"/proc/{os.getpid()}/task/{os.getpid()}/children") as handle:
        return {int(pid) for pid in handle.read().split()}


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _stats(systems: int, short: int = 0):
    rows = [{"node": f"n{i}", "table_size": systems - 1,
             "lsas_received": i, "rib_sha256": f"{i:064x}"}
            for i in range(systems)]
    for row in rows[:short]:
        row["table_size"] -= 1
    return rows


def test_control_plane_check_passes_and_fails():
    good = _stats(5)
    rep = Rep()
    check_control_plane(rep, 5, 5, good, rib_digest(good))
    assert (rep.attempted, rep.failed) == (6, 0)

    rep = Rep()
    check_control_plane(rep, 5, 5, good, "0" * 64)
    assert rep.failed == 1 and "rib_sha256" in rep.problems[0]

    rep = Rep()
    check_control_plane(rep, 5, 4, _stats(5, short=1), None)
    assert rep.failed == 1 and "partial" in rep.problems[0]


def test_data_check_counts_missing_reply_and_bytes():
    rep = Rep()
    check_data(rep, DATA_BULK_BYTES, 1, DATA_ECHOES)
    assert rep.failed == 0
    rep = Rep()
    check_data(rep, DATA_BULK_BYTES, 1, DATA_ECHOES - 1)
    assert rep.failed == 1
    rep = Rep()
    check_data(rep, DATA_BULK_BYTES - 100, 1, DATA_ECHOES)
    assert rep.failed == 1


def test_gateway_check_counts_unanswered_requests():
    step = {"rate": 4000, "requests": 10, "missing": 0}
    rep = Rep()
    check_gateway(rep, [step], 0, 0)
    assert (rep.attempted, rep.failed) == (10 + FLOWS, 0)
    rep = Rep()
    check_gateway(rep, [dict(step, missing=1)], 0, 0)
    assert rep.failed == 1
    rep = Rep()
    check_gateway(rep, [step], 2, 1)
    assert rep.failed == 3


# ----------------------------------------------------------------------
# installing and removing the tracer
# ----------------------------------------------------------------------
def _attribute_table():
    # import everything first: importing a submodule binds it on its
    # package, which must not read as a change
    modules = [importlib.import_module(name) for name in traced_modules()]
    table = {}
    for module in modules:
        name = module.__name__
        for attr, value in vars(module).items():
            table[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for key, raw in vars(value).items():
                    table[(name, attr, key)] = raw
    return table


def test_traced_run_restores_every_wrapped_function():
    from repro.sim.engine import Engine
    before = _attribute_table()
    original_run = Engine.run
    tracer = Tracer()
    assert tracer.install() > 500
    assert Engine.run is not original_run
    assert Engine.run.__wrapped__ is original_run
    tracer.uninstall()
    after = _attribute_table()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_runs_untraced():
    from repro.sim.engine import Engine
    original_run = Engine.run
    tracer = Tracer()
    tracer.install()
    try:
        pid = os.fork()
        if pid == 0:  # child: the tracer must have put the originals back
            os._exit(0 if Engine.run is original_run else 1)
        _, status = os.waitpid(pid, 0)
    finally:
        tracer.uninstall()
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("protocol", ["per-channel", "async-grants"])
def test_pipe_waits_are_timed_under_every_protocol(protocol):
    from repro.experiments.e6_scalability import (build_flood_spec,
                                                  build_stateful_workload,
                                                  flood_assignment)
    from repro.shard import RegionPlan, run_sharded
    spec = build_flood_spec(2, 2)
    workload = build_stateful_workload(2, 2)
    plan = RegionPlan(spec, flood_assignment(2, 2, 2))
    tracer = install_tracer(Tracer())
    try:
        run_sharded(plan, workload, seed=1, mode="process",
                    protocol=protocol, until=workload["until"],
                    collect_traces=False)
    finally:
        tracer.uninstall()
    # the parent of a sharded run mostly blocks on its workers
    assert tracer.totals["shard.coordinator.wait_s"] > \
        0.5 * tracer.snapshot()["shard.coordinator"]
    from repro.shard import coordinator
    from multiprocessing import connection
    assert coordinator.mp_connection is connection


def test_a_traced_simulation_attributes_its_time():
    from repro.experiments.e6_scalability import (build_flood_spec,
                                                  build_stateful_workload)
    from repro.shard import StatefulControlPlane
    tracer = Tracer()
    tracer.install()
    try:
        spec = build_flood_spec(2, 2)
        workload = build_stateful_workload(2, 2)
        before = sum(tracer.self_s)
        network = spec.build(seed=1)
        StatefulControlPlane(network, workload)
        network.run(until=workload["until"])
        covered = sum(tracer.self_s) - before
    finally:
        tracer.uninstall()
    snapshot = tracer.snapshot()
    assert covered > 0
    for layer in ("sim.engine", "sim.link", "core.routing", "core.riep"):
        assert snapshot[layer] > 0, layer


# ----------------------------------------------------------------------
# the benchmark description agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run._layer_metric_units()
    assert [m["name"] for m in spec["end_to_end"]].count("setup_s") == 1
