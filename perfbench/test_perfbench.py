"""Checks of the benchmark itself, on small inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Two traced passes over the same inputs must give identical counters, the
layer self times must account for the traced op time, tracing must not
change any output, a pass must run each op once, each timed part of an op
must be taken at its median over the passes, the pace must scale a part by
the samples nearest to it and leave out the time spent sampling, and the
benchmark must refuse to run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ordermetric  # noqa: E402
import ordermetric.cli  # noqa: E402,F401
import pace  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

TIMED = ("_s", "_share", ".coverage")


def _small(name, tmp_path):
    if name == "suite":
        w = workloads.Suite(ordermetric, 7, tmp_path)
        w.spec = ordermetric.default_suite(
            sample_seed=7, budgets=ordermetric.Budgets(samples=60, n_max=40))
        return w
    if name == "ladder":
        return workloads.Ladder(ordermetric, 7, tmp_path, n_points=10)
    return workloads.Corpus(ordermetric, 7, tmp_path, count=150)


def _traced_pass(workload):
    tr = tracer_mod.Tracer()
    tr.install(ordermetric)
    try:
        res = workload.run_pass(tr)
    finally:
        tr.uninstall()
    return tr, res


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_and_self_times_add_up(name, tmp_path):
    workload = _small(name, tmp_path)
    plain = workload.run_pass()
    assert plain.failed == 0
    # a pass runs each op once, so no op's time comes from a warm repeat
    assert len(set(plain.keys)) == len(plain.keys) == len(plain.latencies) \
        == len(plain.cpu) == len(plain.ops) == len(plain.outputs)
    first, res1 = _traced_pass(workload)
    second, res2 = _traced_pass(workload)
    assert res1.outputs == plain.outputs == res2.outputs
    assert res1.failed == res2.failed == 0
    counts1 = {k: v for k, v in first.metrics().items() if not k.endswith(TIMED)}
    counts2 = {k: v for k, v in second.metrics().items() if not k.endswith(TIMED)}
    assert counts1 == counts2
    assert first.calls == second.calls
    assert first.fraction_new == second.fraction_new
    assert sum(first.calls.values()) > 0
    op_time = sum(dur for _, _, dur, _ in first.ops)
    assert math.isclose(sum(first.self_s.values()), op_time, rel_tol=1e-9)
    assert all(v >= -1e-9 for v in first.self_s.values())


def test_each_part_is_taken_at_its_median_over_passes():
    passes = [{"keys": ["a1", "a2", "b"], "ops": ["a", "a", "b"],
               "latencies": [1.0, 1.0, 4.0], "wall_s": 7.0},
              {"keys": ["a1", "a2", "b"], "ops": ["a", "a", "b"],
               "latencies": [2.0, 0.5, 3.0], "wall_s": 6.0},
              {"keys": ["a1", "a2", "b"], "ops": ["a", "a", "b"],
               "latencies": [3.0, 0.25, 5.0], "wall_s": 9.5}]
    assert run._typical(passes, "latencies", "wall_s") == ([2.5, 4.0], 1.0)
    first = {"ops": ["a", "a", "b"], "digests": ["x", "y", "z"], "attempted": 2}
    assert run._mismatches(first, dict(first, digests=["x", "q", "q"])) == 2
    assert run._mismatches(first, dict(first, digests=["x"])) == 2


def test_pace_scales_by_the_nearest_samples_and_leaves_out_their_cost():
    p = pace.Pace()
    # ten samples a second apart: the loop takes the nominal time for the
    # first five, twice that for the last five
    for i in range(10):
        p.at.append(float(i))
        took = pace.REF_CPU_S * (1 if i < 5 else 2)
        p.wall.append(took)
        p.cpu.append(took)
        p.cost_wall.append(p.cost_wall[-1] + 0.5)
        p.cost_cpu.append(p.cost_cpu[-1] + 0.25)
    # a short part: the seven samples nearest to its middle
    assert p.factors(0.4, 0.6) == (1.0, 1.0)
    assert p.factors(9.4, 9.6) == (0.5, 0.5)
    # a long part: the samples taken in it
    assert p.factors(2.5, 9.5) == (0.5, 0.5)
    assert p.factors() == pytest.approx((1 / 1.5, 1 / 1.5))
    # samples at 3, 4 and 5 fall in [2.5, 5.5)
    assert p.cost(2.5, 5.5) == (1.5, 0.75)
    assert p.cost(5.5, 5.9) == (0.0, 0.0)
    with pace.Pace() as live:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(live.at) >= 3
    assert all(c > 0 for c in live.cpu)


def test_uninstall_restores_every_binding():
    before = (ordermetric.run_suite, ordermetric.harness.run_suite,
              ordermetric.cli.run_suite, Fraction.__dict__["__new__"],
              ordermetric.ConeMetricSpace.distance)
    tr = tracer_mod.Tracer()
    tr.install(ordermetric)
    assert ordermetric.cli.run_suite is not before[2]
    assert ordermetric.harness.run_suite is ordermetric.cli.run_suite
    tr.uninstall()
    after = (ordermetric.run_suite, ordermetric.harness.run_suite,
             ordermetric.cli.run_suite, Fraction.__dict__["__new__"],
             ordermetric.ConeMetricSpace.distance)
    assert after == before


def test_ladder_lists_the_top_last():
    text = workloads.ladder_text(3, n_points=8)
    desc = ordermetric.parse_instance_text(text)
    assert desc.points[-1] == 1
    assert len(desc.points) == 8
    bundle = ordermetric.build_bundle(desc)
    assert bundle.solver_seed == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
