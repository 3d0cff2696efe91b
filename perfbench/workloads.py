"""The three workloads: seeded inputs, one pass of ops, and output checks.

Every workload drives the package through its public entry points, in one
process and one thread. An op is timed in parts, each part once a pass: a
part is the op itself, except in ``suite``, where it is one check row of the
op. A pass returns the wall and CPU time of each part, the number of ops
whose output check failed, and a digest of every part's output, so that two
passes over the same inputs (untraced and traced) can be compared byte for
byte. The ops of one pass share a process, as a long-lived caller of
``run_suite`` or ``cli.main`` would.

suite    one ``run_suite(default_suite(sample_seed=seed))``; an op is one
         instance's rows of one check prefix (``group``, ``seq``, ...),
         timed by the sum of its rows, each timed around its entry of
         ``harness.CHECKS`` (``CheckRow.runtime`` is wall time only). The
         law rows of a prefix share one memoized law report, so a single
         row's time would be a memo lookup; the map rows compute the
         hypotheses reports that the endpoint and solver rows reuse. Mostly
         the ``topo`` sequence checks and the ``order_core``, ``topo`` and
         ``cone_metric`` laws.
ladder   ``cli.main`` on a seeded instance file: one ``verify --checks
         map,endpoint,solver``, then a ``solve`` from every point under both
         rules, in a seeded order; an op is a CLI call. Exhaustive
         ``contraction``/``solver`` work on one large multi-valued table
         map: the hypotheses are re-verified on every walk, O(N^3) in the
         verify.
corpus   ``weak_contraction_corpus(seed, count)`` and, per instance, the
         one-sided check, the endpoint scan, the inf-sup value and (for
         instances with a ratio witness) a walk from every point under both
         rules; an op is an instance. Thousands of maps with at most five
         points, so fixed per-call cost dominates, not pair scans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

# ladder size: 1 verify and 2 x 31 solves a pass; oracle-agreement, O(N^3),
# is the verify's largest row by far. 31 points, not more: a pass then takes
# about 8.6 s, so a 32 s run makes the four passes that keep the verify's
# median steady on a noisy host (41 points take 17 s a pass, and two passes
# left the run-to-run spread of the latencies at 0.25 to 0.4). The ratio is
# fixed: the cost of the exact arithmetic depends on it (a third costs half
# again as much as a quarter), so a seed-picked ratio would spread the
# figures across seeds.
LADDER_POINTS = 31
LADDER_RATIO = Fraction(1, 4)
# corpus instances per pass; the corpus's own cost varies from seed to seed
# (its Fraction count by 4% between quartiles at 2000), less with more
CORPUS_COUNT = 3000

SUITE_ROWS = 196  # 4 instances x 49 checks


@dataclass
class PassResult:
    """What one pass measured, part by part."""
    keys: list[str] = field(default_factory=list)  # which part, per part
    ops: list[str] = field(default_factory=list)  # its op, per part
    latencies: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # perf_counter at its start
    failed: int = 0  # ops whose output check failed
    outputs: list = field(default_factory=list)  # per part

    @property
    def attempted(self) -> int:
        return len(set(self.ops))

    def digests(self) -> list[str]:
        """One digest of each part's output, in part order."""
        return [hashlib.sha256(repr(out).encode()).hexdigest() for out in self.outputs]


def _span(tracer, kind, label=""):
    return tracer.op(kind, label) if tracer is not None else contextlib.nullcontext()


@contextlib.contextmanager
def _timed(res: PassResult, tracer, kind, key, label=""):
    """Time one op in wall and CPU seconds, inside its root span if traced."""
    w0, c0 = time.perf_counter(), time.process_time()
    with _span(tracer, kind, label):
        yield
    res.cpu.append(time.process_time() - c0)
    res.latencies.append(time.perf_counter() - w0)
    res.starts.append(w0)
    res.keys.append(key)
    res.ops.append(key)


# A run makes max(3, round(seconds / nominal_pass_s)) passes, each
# in a fresh process, scales every time to the reference pace (pace.py) and
# keeps each part's median over the passes. On the shared 2-vCPU VM the
# benchmark was written on, other tenants slow the package by up to 1.6x,
# in spells from a second to several minutes.


# ---------------------------------------------------------------------------
# suite


class Suite:
    nominal_pass_s = 10.3

    def __init__(self, om, seed: int, workdir):
        self.om = om
        self.spec = om.default_suite(sample_seed=seed)

    def run_pass(self, tracer=None) -> PassResult:
        # CheckRow carries a row's wall time only, so each row is timed
        # around its entry of the check registry
        checks = self.om.harness.CHECKS
        saved, timed = dict(checks), {}
        checks.update({check: _row_timed(fn, check, timed) for check, fn in saved.items()})
        try:
            with _span(tracer, "suite"):
                report = self.om.run_suite(self.spec)
        finally:
            checks.update(saved)
        res = PassResult()
        failed = set()
        for row in report.rows:
            op = f"{row.instance} {row.check.split('/', 1)[0]}"
            res.keys.append(f"{row.instance} {row.check}")
            res.ops.append(op)
            start, wall, cpu = timed[row.instance, row.check]
            res.latencies.append(wall)
            res.cpu.append(cpu)
            res.starts.append(start)
            res.outputs.append(f"{row.check}\t{row.instance}\t{row.outcome}\t{row.witness}")
            if row.outcome not in ("pass", "skip"):
                failed.add(op)
        res.failed = res.attempted if len(report.rows) != SUITE_ROWS else len(failed)
        return res


def _row_timed(fn, check, into):
    """``fn``, recording its start, wall and CPU time under (instance, check)
    in ``into``."""
    def run(bundle, ctx):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(bundle, ctx)
        finally:
            c1, w1 = time.process_time(), time.perf_counter()
            into[bundle.name, check] = (w0, w1 - w0, c1 - c0)
    return run


# ---------------------------------------------------------------------------
# ladder


def ladder_text(seed: int, n_points: int = LADDER_POINTS) -> str:
    """Instance text of the ladder {0} u {r^j : j < n_points - 1}.

    r^j maps to {r^(j+1), r^(j+2)}, an index past the bottom maps to 0, and 0
    maps to {0}; the witness is the constant ratio 1/2. The seed shuffles
    the listing order of every point but the top, which is listed last so
    that it is the instance's default solver seed.
    """
    rungs = [LADDER_RATIO ** j for j in range(n_points - 1)]

    def rung(k):
        return rungs[k] if k < len(rungs) else Fraction(0)

    listed = [Fraction(0)] + rungs[1:]
    random.Random(seed).shuffle(listed)
    listed.append(rungs[0])
    lines = ["[group]", "family = real", "", "[structure]", "kind = strict-order", "",
             "[space]", "points = " + "; ".join(str(p) for p in listed),
             "metric = abs", "", "[map]"]
    for p in listed:
        if p == 0:
            images = [Fraction(0)]
        else:
            j = rungs.index(p)
            images = sorted({rung(j + 1), rung(j + 2)})
        lines.append(f"image {p} = " + "; ".join(str(q) for q in images))
    lines += ["", "[witness]", "class = alpha-const", "alpha = 1/2", ""]
    return "\n".join(lines)


class Ladder:
    nominal_pass_s = 8.6

    def __init__(self, om, seed: int, workdir, n_points: int = LADDER_POINTS):
        r = LADDER_RATIO
        self.om = om
        self.seed = seed
        self.path = workdir / f"ladder-{seed}.ini"
        self.path.write_text(ladder_text(seed, n_points), encoding="utf-8")
        # below the least positive distance r^(N-2), so every walk must
        # reach the exact endpoint 0
        self.eps = r ** (n_points - 2) / 2
        # from r^j the walk takes N-1-j rungs to reach 0: one rung a step
        # under min-dist, two under lex
        starts = [(Fraction(0), 0)] + [(r ** j, n_points - 1 - j) for j in range(n_points - 1)]
        solves = [(p, rule, left if rule == "min-dist" else (left + 1) // 2)
                  for p, left in starts for rule in ("min-dist", "lex")]
        self.solves = random.Random(seed).sample(solves, len(solves))

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.om.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        argv = ["verify", str(self.path), "--checks", "map,endpoint,solver",
                "--format", "machine-rows", "--seed", str(self.seed)]
        with _timed(res, tracer, "verify", "verify"):
            code, out, err = self._call(argv)
        res.outputs.append((code, out, err))
        res.failed += not self._verify_ok(code, out)
        for point, rule, steps in self.solves:
            argv = ["solve", str(self.path), "--seed-point", str(point),
                    "--eps", str(self.eps), "--rule", rule]
            with _timed(res, tracer, "solve", f"{point} {rule}", f"solve {point} {rule}"):
                code, out, err = self._call(argv)
            res.outputs.append((code, out, err))
            res.failed += not self._solve_ok(code, out, steps)
        return res

    @staticmethod
    def _verify_ok(code, out) -> bool:
        rows = {}
        for line in out.splitlines():
            check, _inst, outcome, witness = line.split("\t", 3)
            rows[check] = (outcome, witness)
        if code != 0 or any(o not in ("pass", "skip") for o, _ in rows.values()):
            return False
        # non-vacuity: the walks and the equivalence really ran
        needed = ("solver/oracle-agreement", "endpoint/iff-zero-gap", "solver/trace-monotone")
        if any(rows.get(c, ("missing",))[0] != "pass" for c in needed):
            return False
        return "governed trace of 0 steps" not in rows["solver/trace-monotone"][1]

    @staticmethod
    def _solve_ok(code, out, steps) -> bool:
        lines = out.splitlines()
        taken = sum(1 for line in lines if line.startswith("  n="))
        return (code == 0 and lines[:1] == ["outcome: endpoint-found"]
                and "endpoint: 0" in lines and not any(l.startswith("mode:") for l in lines)
                and taken == steps)


# ---------------------------------------------------------------------------
# corpus


def _oracle(table: dict):
    """Endpoints and inf-sup value by a double loop over the image table."""
    ends = tuple(x for x, img in table.items() if set(img) == {x})
    value = min(max(abs(x - y) for y in img) for x, img in table.items())
    return ends, value


class Corpus:
    nominal_pass_s = 6.4

    def __init__(self, om, seed: int, workdir, count: int = CORPUS_COUNT):
        self.om = om
        self.seed = seed
        self.count = count

    def run_pass(self, tracer=None) -> PassResult:
        om = self.om
        res = PassResult()
        with _span(tracer, "generate"):
            insts = om.weak_contraction_corpus(self.seed, self.count)
        for inst in insts:
            with _timed(res, tracer, "instance", inst.name, inst.name):
                out = self._check(inst)
            res.outputs.append(out[1])
            res.failed += not out[0]
        return res

    def _check(self, inst):
        om = self.om
        T = inst.map_
        table = {x: T.images_fn(x) for x in inst.space.points}
        oracle_ends, oracle_value = _oracle(table)
        weak = om.is_weak_contraction(T, inst.phi_witness)
        ends = om.endpoints_bruteforce(T)
        value = om.approximate_endpoint_property_finite(T)
        ok = (weak.passed and ends.members == oracle_ends and value.value == oracle_value
              and (len(ends) == 1) == (value.value == 0))
        walks = []
        if inst.alpha_witness is not None:
            ok = ok and len(oracle_ends) == 1
            pts = inst.space.points
            eps = min(abs(x - y) for x in pts for y in pts if x != y) / 2
            for rule in om.SelectionRule:
                for seed in pts:
                    cfg = om.SolverConfig(eps=eps, seed_point=seed, max_iter=500,
                                          selection_rule=rule)
                    rep = om.iterate_endpoint(T, inst.alpha_witness, cfg)
                    walks.append((rep.outcome.value, rep.endpoint, rep.iterations))
                    ok = ok and (rep.outcome is om.SolverOutcome.ENDPOINT_FOUND
                                 and rep.endpoint == oracle_ends[0] and not rep.best_effort)
        return ok, (inst.name, ends.members, value.value, tuple(walks))


WORKLOADS = {"suite": Suite, "ladder": Ladder, "corpus": Corpus}
