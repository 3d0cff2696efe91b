#!/usr/bin/env python3
"""Benchmark of the ordermetric package.

    python3 perfbench/run.py --workload suite|ladder|corpus --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The workload's inputs come from ``--seed`` alone (see workloads.py).

Every pass runs in a fresh process, which imports the package, sets the
workload up and runs each op of the workload once, checking every output;
so no state of one pass (a memo, a cache) can reach another. With
``--trace 0`` the run makes max(3, round(seconds / nominal_pass_s)) passes
one after another. A pass scales every time it takes to the reference pace
(pace.py), so that a slower spell of the shared host does not read as a
slower program. Each op is timed as the sum of its parts (the op itself, or
in ``suite`` each check row), each part at its median over the passes:
``ops_per_s`` is ops over the sum of those times plus the median rest of a
pass, ``cpu_s`` the same sum in process CPU time, ``op_p50_ms`` and
``op_p90_ms`` are percentiles of those times, ``setup_s`` is the median
over the passes of the CPU time from process start (interpreter start-up
included) to the first op, and ``peak_rss_mb`` is the largest peak resident
memory of a pass. With ``--trace 1`` it makes one untraced and one traced
pass over the same inputs, checks that both produced identical outputs,
writes the trace to ``.perfbench/trace-<workload>-<seed>.json`` and reports
the per-layer metrics; the tracing overhead is the traced minus the
untraced pass time. Metric names and units are those BENCHMARK.json
declares.

Every workload, one after another:

    for w in suite ladder corpus; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 32 --trace 0
    done

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
repeat every metric by name with its unit, and the fail ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
PACKAGE = "ordermetric"
# the whole run, every pass included, ends within this many seconds
RUN_LIMIT_S = 170
# the fewest passes whose median means anything
MIN_PASSES = 3


def one_pass(workload_cls, seed: int, traced: bool, paced: bool, name: str) -> dict:
    """Set up and run one pass in this process; a fresh process per pass.
    A paced pass scales its times to the reference pace (pace.py)."""
    om = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    workload = workload_cls(om, seed, WORKDIR)
    setup_s = time.process_time()  # CPU time since the process started
    pace = None
    if paced:
        import pace as pace_mod

        pace = pace_mod.Pace()
        for _ in range(pace_mod.WINDOW):  # the pace of the set-up
            pace.sample()
        setup_s *= pace.factors()[1]
    tracer = None
    if traced:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install(om)
    try:
        with pace or contextlib.nullcontext():
            w0, c0 = time.perf_counter(), time.process_time()
            res = workload.run_pass(tracer)
            w1, c1 = time.perf_counter(), time.process_time()
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s, cpu_s = w1 - w0, c1 - c0
    raw = {"raw_wall_s": wall_s, "raw_cpu_s": cpu_s}
    latencies, cpu = res.latencies, res.cpu
    if pace is not None:
        # every part, less the samples taken in it, at its own pace; the
        # rest of the pass at the pass's pace
        spans = [(start, start + t) for start, t in zip(res.starts, latencies)]
        costs = [pace.cost(*span) for span in spans]
        latencies = [t - c for t, (c, _) in zip(latencies, costs)]
        cpu = [t - c for t, (_, c) in zip(cpu, costs)]
        cost_wall, cost_cpu = pace.cost(w0, w1)
        rest_wall = wall_s - cost_wall - sum(latencies)
        rest_cpu = cpu_s - cost_cpu - sum(cpu)
        factors = [pace.factors(*span) for span in spans]
        latencies = [t * f for t, (f, _) in zip(latencies, factors)]
        cpu = [t * f for t, (_, f) in zip(cpu, factors)]
        fwall, fcpu = pace.factors()
        raw["pace"] = [fwall, fcpu]
        wall_s = sum(latencies) + rest_wall * fwall
        cpu_s = sum(cpu) + rest_cpu * fcpu
    out = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, **raw,
           "keys": res.keys, "ops": res.ops, "latencies": latencies, "cpu": cpu,
           "attempted": res.attempted, "failed": res.failed, "digests": res.digests(),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["trace"] = tracer.metrics()
        out["trace"]["trace.coverage"] = sum(tracer.self_s.values()) / wall_s
        tracer.dump(WORKDIR / f"trace-{name}-{seed}.json",
                    {"workload": name, "seed": seed, "traced_s": wall_s,
                     "op_span_s": sum(dur for _, _, dur, _ in tracer.ops)})
    return out


def _spawn(args, traced: bool, deadline: float, paced: bool = False) -> dict:
    """Run one pass in a child process and return what it measured."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(traced)), "--one-pass"] + ["--paced"] * paced
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _mismatches(first: dict, other: dict) -> int:
    """Ops with a part whose output differs from the same part in the first
    pass."""
    if len(first["digests"]) != len(other["digests"]):
        return other["attempted"]
    return len({op for op, a, b in zip(first["ops"], first["digests"], other["digests"])
                if a != b})


def _typical(passes, field, total):
    """Each op's time as the sum of its parts, each part at its median over
    the passes, and the median time of a pass outside its parts (corpus
    generation, run_suite outside its rows)."""
    parts = {}
    for p in passes:
        for key, t in zip(p["keys"], p[field]):
            parts.setdefault(key, []).append(t)
    ops = {}
    for key, op in zip(passes[0]["keys"], passes[0]["ops"]):
        ops[op] = ops.get(op, 0.0) + statistics.median(parts[key])
    rest = statistics.median(p[total] - sum(p[field]) for p in passes)
    return list(ops.values()), rest


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_measured(args, workload_cls, deadline):
    # a fixed number of passes for a given --seconds, so that a faster
    # program does the same measured work, not more
    count = max(MIN_PASSES, round(args.seconds / workload_cls.nominal_pass_s))
    passes = [_spawn(args, False, deadline, paced=True) for _ in range(count)]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) \
        + sum(_mismatches(passes[0], p) for p in passes[1:])
    # the pace takes out the host's slower spells; the median over passes
    # the odd part it did not catch
    op_s, rest = _typical(passes, "latencies", "wall_s")
    op_cpu, rest_cpu = _typical(passes, "cpu", "cpu_s")
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ops_per_s": len(op_s) / (sum(op_s) + rest),
        "cpu_s": sum(op_cpu) + rest_cpu,
        "op_p50_ms": 1000 * _quantile(op_s, 50),
        "op_p90_ms": 1000 * _quantile(op_s, 90),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    info = {"passes": count, "ops_per_pass": len(op_s),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_cpu_s": [p["cpu_s"] for p in passes],
            "raw_pass_cpu_s": [p["raw_cpu_s"] for p in passes],
            "pace_cpu": [p["pace"][1] for p in passes],
            "setups_s": [p["setup_s"] for p in passes]}
    return metrics, attempted, failed, info


def run_traced(args, deadline):
    plain = _spawn(args, False, deadline)
    traced = _spawn(args, True, deadline)
    metrics = dict(traced["trace"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
    failed = plain["failed"] + traced["failed"] + _mismatches(plain, traced)
    info = {"untraced_s": plain["wall_s"], "traced_s": traced["wall_s"]}
    return metrics, plain["attempted"] + traced["attempted"], failed, info


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one pass in this process and print what it measured
    parser.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--paced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if args.one_pass:
        print(json.dumps(one_pass(cls, args.seed, bool(args.trace), args.paced,
                                  args.workload)))
        return 0
    if args.trace:
        metrics, attempted, failed, info = run_traced(args, deadline)
    else:
        metrics, attempted, failed, info = run_measured(args, cls, deadline)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    for key, value in info.items():
        print(f"# {key}: {value}")
    for key in units:
        value = metrics[key]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{key} = {shown} {units[key]}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
