"""Suite orchestration: run every law, limit fact, and solver check over the
registered instances and emit a traceability report.

Checks are identified by stable descriptive ids ("group/g1", "seq/sum",
"solver/oracle-agreement", ...). A run is deterministic in its seed: the
serialized report (which omits wall-clock timings) is byte-identical
across runs. Skips are first-class outcomes and always carry a reason.
What a row needs of its bundle (a tolerance family, a finite space, a map
and a witness, ...) is named at its entry in ``CHECKS`` from one table of
(predicate, reason) pairs, and the row skips with the reason of the first
need its bundle lacks. Any other skip reason is the check's own finding.

The suite's instances come from the layer below: ``builtin_bundles`` and
``DEFAULT_INSTANCES`` live in ``instance_files`` with the instance texts
they are built from, and are re-exported here.

Fault injection produces mutated copies of a bundle, each engineered to
flip one targeted check; the sensitivity helper asserts the flip, which is
the meta-test that the harness can actually see violations.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .order_core import (
    Order,
    SamplePlan,
    _law_rng,
    _q,
    check_group_laws,
    check_module_laws,
    format_element,
)
from .topo import (
    _windowed,
    check_limit_uniqueness,
    check_regularity,
    check_topo_laws,
    constant,
    constant_tail_start,
    harmonic,
    is_certificate,
    sandwich_convergence,
    sum_convergence,
    sum_of,
    verify_convergence,
    verify_convergence_twosided,
)
from .cone_metric import (
    SetDistanceUndefined,
    cauchy_check,
    check_metric_laws,
    hausdorff,
    min_positive_distance,
    point_convergence,
    point_seq,
)
from .contraction import (
    ContractionWitness,
    CStatus,
    SetValuedMap,
    WitnessClass,
    approximate_endpoint_sequence,
    bound_table,
    c_condition_status,
    check_hypotheses,
    endpoints_bruteforce,
)
from .solver import (
    SelectionRule,
    SolverConfig,
    SolverOutcome,
    endpoint_census,
    endpoint_iff_report,
    iterate_endpoint,
    iterate_fixed_point,
    walk_tolerance,
)
from .instance_files import (
    DEFAULT_INSTANCES,
    InstanceBundle,
    builtin_bundles,
    render_element_list,
)


@dataclass(frozen=True)
class Budgets:
    samples: int = 1000
    n_max: int = 200

    def __post_init__(self):
        # a zero budget would make sampled and windowed checks pass on nothing
        if self.samples < 1 or self.n_max < 1:
            raise ValueError(f"budgets must be at least 1, got {self}")


@dataclass(frozen=True)
class SuiteSpec:
    instances: tuple[str, ...]
    checks: tuple[str, ...]
    sample_seed: int = 0
    budgets: Budgets = Budgets()


@dataclass(frozen=True)
class CheckRow:
    check: str
    instance: str
    outcome: str  # pass | fail | skip
    witness: str
    runtime: float


@dataclass(frozen=True)
class TraceabilityReport:
    rows: tuple[CheckRow, ...]

    @property
    def failed(self) -> tuple[CheckRow, ...]:
        return tuple(r for r in self.rows if r.outcome == "fail")

    @property
    def ok(self) -> bool:
        return not self.failed

    def row(self, check: str, instance: str) -> CheckRow:
        for r in self.rows:
            if r.check == check and r.instance == instance:
                return r
        raise KeyError((check, instance))

    def to_text(self, fmt: str = "text") -> str:
        if fmt == "machine-rows":
            return "\n".join(f"{r.check}\t{r.instance}\t{r.outcome}\t{r.witness}"
                             for r in self.rows) + "\n"
        width = max((len(r.check) for r in self.rows), default=10) + 2
        lines = []
        for r in self.rows:
            line = f"{r.check:<{width}} {r.instance:<14} {r.outcome:<5}"
            if r.witness:
                line += f" {r.witness}"
            lines.append(line.rstrip())
        n_fail = len(self.failed)
        n_skip = sum(1 for r in self.rows if r.outcome == "skip")
        lines.append(f"-- {len(self.rows)} rows: "
                     f"{len(self.rows) - n_fail - n_skip} pass, {n_fail} fail, {n_skip} skip")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# check implementations

class _Ctx:
    """Per-run scratch: the sampling plan and memoized law reports."""

    def __init__(self, plan: SamplePlan, budgets: Budgets):
        self.plan = plan
        self.budgets = budgets
        self.cache: dict = {}

    def memo(self, key, thunk):
        if key not in self.cache:
            self.cache[key] = thunk()
        return self.cache[key]


def _law_row(report, law: str):
    try:
        r = report.result(law)
    except KeyError:
        return "skip", "law not applicable to this instance"
    if r.passed:
        return "pass", f"checked {r.checked}"
    return "fail", r.witness or "violated"


# law family -> (its laws, its checker applied to the bundle part it checks)
_LAW_FAMILIES = {
    "group": (("assoc", "comm", "identity", "inverse", "order-reflexive",
               "order-antisymmetric", "order-transitive", "g1", "g1-prime"),
              lambda b, plan: check_group_laws(b.module.group, plan)),
    "module": (("r1", "m1", "m1-prime", "m2", "m2-prime"),
               lambda b, plan: check_module_laws(b.module, plan)),
    "topo": (("t1", "t2", "t3", "t4-shrinking", "t5", "t6", "strictness-gap"),
             lambda b, plan: check_topo_laws(b.structure, plan)),
    "metric": (("d1", "d2", "d3"), lambda b, plan: check_metric_laws(b.space, plan)),
}


def _check_law(family: str, law: str):
    """Row of one law: the family's report on the bundle is computed once
    per run and shared by the family's rows."""
    _, report = _LAW_FAMILIES[family]

    def run(b: InstanceBundle, ctx: _Ctx):
        rep = ctx.memo((family, b.name), lambda: report(b, ctx.plan))
        return _law_row(rep, law)
    return run


def _theta_sums(b: InstanceBundle, ctx: _Ctx) -> tuple:
    """(s_i, s_{i+1}, s_i + s_{i+1}) over the bundle's closed forms that tend
    to the identity, cyclically; built once per run, so every seq row
    shares the sums' term and outcome memos. Empty when there are none."""
    def build():
        g = b.module.group
        seqs = [s for s in b.sequences if s.closed_form and g.eq(s.declared_limit, g.identity)]
        return tuple((s1, s2, sum_of(s1, s2)) for s1, s2 in zip(seqs, seqs[1:] + seqs[:1]))
    return ctx.memo(("theta-sums", b.name), build)


def _failure_text(outcome) -> str:
    """A failed convergence outcome in the CLI's syntax: reason, tolerance, indices."""
    return (f"{outcome.reason} at {format_element(outcome.epsilon)}, "
            f"n = {outcome.first_violation}..{outcome.last_violation}")


def _check_limit_uniqueness(b: InstanceBundle, ctx: _Ctx):
    g, t = b.module.group, b.structure
    n_max, sums = ctx.budgets.n_max, _theta_sums(b, ctx)
    fake = t.shrink(t.positivity_witness)
    unresolved = None
    for s, _, _ in sums:
        ok = check_limit_uniqueness(t, s, g.identity, g.identity, b.eps_family, n_max)
        if ok.candidate_is_limit is not True:
            return "fail", f"{s.name}: true limit rejected ({ok.witness})"
        alt = check_limit_uniqueness(t, s, g.identity, fake, b.eps_family, n_max)
        if alt.candidate_is_limit is True:
            return "fail", f"{s.name}: fake limit {format_element(fake)} not refuted"
        # None: the window neither refutes nor accepts the fake limit
        if alt.candidate_is_limit is None and unresolved is None:
            unresolved = (f"{s.name}: fake limit {format_element(fake)} unresolved "
                          f"for n <= {n_max} ({alt.witness})")
    if unresolved:
        return "skip", unresolved
    return "pass", f"{len(sums)} sequences, fake limit refuted each time"


def _check_sum(b: InstanceBundle, ctx: _Ctx):
    t, sums = b.structure, _theta_sums(b, ctx)
    for s1, s2, _ in sums:
        outs = sum_convergence(t, s1, s2, b.eps_family, ctx.budgets.n_max)
        bad = [o for o in outs if not is_certificate(o)]
        if bad:
            return "fail", f"{s1.name} + {s2.name}: {_failure_text(bad[0])}"
    return "pass", f"{len(sums)} sums certified by tolerance splitting"


def _check_sandwich(b: InstanceBundle, ctx: _Ctx):
    g, t, sums = b.module.group, b.structure, _theta_sums(b, ctx)
    for lower, _, upper in sums:
        outs = sandwich_convergence(t, lower, upper, g.identity,
                                    b.eps_family, ctx.budgets.n_max)
        bad = [o for o in outs if not is_certificate(o)]
        if bad:
            return "fail", f"{lower.name} vs {upper.name}: {_failure_text(bad[0])}"
    return "pass", f"{len(sums)} dominated pairs certified"


def _check_regularity(b: InstanceBundle, ctx: _Ctx):
    t = b.structure
    shifted = sum_of(constant(b.module, t.positivity_witness),
                     harmonic(b.module, t.positivity_witness))
    decreasing = [s for s, _, _ in _theta_sums(b, ctx)] + [shifted]
    rep = check_regularity(t, decreasing, b.eps_family, ctx.budgets.n_max)
    if rep.all_convergent:
        return "pass", f"{len(rep.rows)} decreasing sequences converge"
    bad = [r for r in rep.rows if r.status != "converges"][0]
    return "fail", f"{bad.sequence}: {bad.status}"


def _check_two_sided(b: InstanceBundle, ctx: _Ctx):
    g, t = b.module.group, b.structure
    for s, _, _ in _theta_sums(b, ctx):
        one = verify_convergence(t, s, g.identity, b.eps_family, ctx.budgets.n_max)
        two = verify_convergence_twosided(t, s, g.identity, b.eps_family, ctx.budgets.n_max)
        for a, c in zip(one, two):
            if not (is_certificate(a) and is_certificate(c)):
                return "fail", f"{s.name}: outcome mismatch at {format_element(a.epsilon)}"
            if a.threshold != c.threshold:
                return "fail", (f"{s.name}: thresholds differ at "
                                f"{format_element(a.epsilon)}: {a.threshold} vs {c.threshold}")
    return "pass", "both phrasings agree on every threshold"


def _check_weak_vs_strong(b: InstanceBundle, ctx: _Ctx):
    g = b.module.group
    if len(g.coords(g.identity)) < 2:
        return "skip", "no strict-order twin registered (relations coincide)"
    t_main, t_strict = b.structure, b.strict_twin
    etas = [t_main.shrink(g.coerce(eps)) for eps in b.eps_family]
    for s, _, _ in _theta_sums(b, ctx):
        strict_outs = verify_convergence(t_strict, s, g.identity, etas, ctx.budgets.n_max)
        main_outs = verify_convergence(t_main, s, g.identity, b.eps_family, ctx.budgets.n_max)
        for strict_out, main_out in zip(strict_outs, main_outs):
            if not (is_certificate(strict_out) and is_certificate(main_out)):
                return "fail", f"{s.name}: certification failed"
            if main_out.threshold > strict_out.threshold:
                return "fail", (f"{s.name}: dominance threshold {main_out.threshold} "
                                f"exceeds strict-order threshold {strict_out.threshold} "
                                f"on the produced witness")
    return "pass", "strict-order certificates convert with no larger thresholds"


def _check_norm_to_order(b: InstanceBundle, ctx: _Ctx):
    g, t = b.module.group, b.structure
    n_max = ctx.budgets.n_max
    established = 0
    for s, _, _ in _theta_sums(b, ctx):
        for eps in b.eps_family:
            eps = g.coerce(eps)
            floor = min(g.coords(eps))

            def below_floor(n):
                return max(g.coords(s.term(n))) < floor

            norm = _windowed(below_floor, eps, None, n_max)
            if not is_certificate(norm):
                # sup-coordinate decay not established in the window: vacuous
                continue
            established += 1
            out = verify_convergence(t, s, g.identity, [eps], n_max)[0]
            if not is_certificate(out):
                return "fail", f"{s.name}: no dominance certificate at {format_element(eps)}"
            if out.threshold > norm.threshold:
                return "fail", (f"{s.name}: dominance threshold {out.threshold} exceeds "
                                f"sup-coordinate threshold {norm.threshold}")
    if not established:
        return "skip", "no (sequence, tolerance) pair established sup-coordinate decay in the window"
    return "pass", f"sup-coordinate decay certifies dominance on {established} pairs"


def _sample_subsets(b: InstanceBundle, ctx: _Ctx, pairs: int = 30):
    rng = _law_rng(ctx.plan, f"hausdorff:{b.name}")
    space = b.space
    out = []
    for _ in range(pairs):
        pool = list(space.points) if space.finite else [space.draw_point(rng) for _ in range(6)]
        k1 = rng.randint(1, min(4, len(pool)))
        k2 = rng.randint(1, min(4, len(pool)))
        out.append((tuple(rng.sample(pool, k1)), tuple(rng.sample(pool, k2))))
    return out


def _set_text(points) -> str:
    """A sampled subset in the ``--set-a`` syntax, braced."""
    return "{" + render_element_list(points) + "}"


def _check_hausdorff_identity(b: InstanceBundle, ctx: _Ctx):
    g = b.space.group
    defined = 0
    for a, _ in _sample_subsets(b, ctx):
        try:
            h = hausdorff(b.space, a, a)
        except SetDistanceUndefined:
            continue
        defined += 1
        if not g.eq(h, g.identity):
            return "fail", f"H(A, A) = {format_element(h)} for A = {_set_text(a)}"
    return "pass", f"H(A, A) is the identity on {defined} defined samples"


def _check_hausdorff_symmetry(b: InstanceBundle, ctx: _Ctx):
    g = b.space.group
    defined = 0
    # H(C, A) under the metric with its arguments swapped: H itself is the max
    # of both directed values, so swapping only the sets could never differ
    d = b.space.metric
    swapped = dataclasses.replace(b.space, metric=lambda x, y: d(y, x))
    for a, c in _sample_subsets(b, ctx):
        try:
            h1, h2 = hausdorff(b.space, a, c), hausdorff(swapped, c, a)
        except SetDistanceUndefined:
            continue
        defined += 1
        if not g.eq(h1, h2):
            return "fail", f"H asymmetric on {_set_text(a)} vs {_set_text(c)}"
    if not defined:
        return "skip", "no sampled pair of sets has a defined distance"
    return "pass", f"symmetric on {defined} defined samples"


def _check_hausdorff_singleton(b: InstanceBundle, ctx: _Ctx):
    g = b.space.group
    rng = _law_rng(ctx.plan, f"hausdorff-singleton:{b.name}")
    for _ in range(40):
        x, y = b.space.draw_point(rng), b.space.draw_point(rng)
        if not g.eq(hausdorff(b.space, [x], [y]), b.space.distance(x, y)):
            return "fail", f"H({{x}}, {{y}}) != d(x, y) at x={format_element(x)}, y={format_element(y)}"
    return "pass", "singleton sets reduce to the point distance"


def _check_hausdorff_triangle(b: InstanceBundle, ctx: _Ctx):
    g = b.space.group
    if isinstance(g.identity, tuple):
        return "skip", "triangle check restricted to totally ordered targets"
    subsets = _sample_subsets(b, ctx, pairs=20)
    sets = list(itertools.chain.from_iterable(subsets))  # A_t at 2t, C_t at 2t + 1
    if b.space.finite:
        # every ordered triple of the distinct sampled sets: 7 on three
        # points, at most 40 on any finite carrier
        first = {}
        for i, s in enumerate(sets):
            first.setdefault(frozenset(s), i)
        triples = itertools.product(first.values(), repeat=3)
    else:  # 20 triples, the middle set taken from the next pair
        n = len(subsets)
        triples = ((2 * t, 2 * ((t + 1) % n), 2 * t + 1) for t in range(n))
    h = {}  # H once per ordered pair of sets, by position

    def H(i, k):
        if (i, k) not in h:
            h[i, k] = hausdorff(b.space, sets[i], sets[k])
        return h[i, k]

    for i, j, k in triples:
        if not g.leq(H(i, k), g.add(H(i, j), H(j, k))):
            return "fail", (f"H(A, C) > H(A, B) + H(B, C) for A = {_set_text(sets[i])}, "
                            f"B = {_set_text(sets[j])}, C = {_set_text(sets[k])}")
    return "pass", "triangle inequality holds on sampled set triples"


def _geometric_approach(b: InstanceBundle):
    """Points marching toward the designated corner with geometric steps."""
    module = b.module
    corner = b.solver_seed

    def rule(n):
        # 1 - 1/2^n, in lowest terms because 2^n - 1 is odd
        return module.scale(_q(2 ** n - 1, 2 ** n), corner)

    return point_seq(b.space, rule=rule, name="geometric approach"), corner


def _check_point_convergence(b: InstanceBundle, ctx: _Ctx):
    s, corner = _geometric_approach(b)
    outs = point_convergence(b.space, s, corner, b.eps_family, 64)
    if all(is_certificate(o) for o in outs):
        return "pass", "distance profile to the corner certified toward the identity"
    bad = next(o for o in outs if not is_certificate(o))
    return "fail", f"no certificate at {format_element(bad.epsilon)}"


def _check_point_cauchy(b: InstanceBundle, ctx: _Ctx):
    module = b.module
    s, corner = _geometric_approach(b)
    profile = (module.scale(Fraction(1, 2), corner), Fraction(1, 2))
    for out in cauchy_check(b.space, s, b.eps_family, 64, step_profile=profile):
        if not is_certificate(out):
            return "fail", _failure_text(out)
        if not out.analytic:
            return "fail", f"no geometric tail bound at {format_element(out.epsilon)}"
    return "pass", "certified with geometric tail bounds dominating the windowed thresholds"


def _check_finite_completeness(b: InstanceBundle, ctx: _Ctx):
    space, g = b.space, b.space.group
    try:
        minpos = walk_tolerance(space, min_positive_distance(space))
    except ValueError as exc:  # no least positive distance, or it is no tolerance
        return "skip", f"certification scale undefined: {exc}"
    pts = space.points
    n_max = 24
    sequences = {
        "constant": point_seq(space, [pts[0]] * n_max, name="constant"),
        "stabilizing": point_seq(space, [pts[-1], pts[0]] + [pts[0]] * (n_max - 2),
                                 name="stabilizing"),
        "oscillating": point_seq(space, [pts[0], pts[-1]] * (n_max // 2),
                                 name="oscillating"),
    }
    for name, s in sequences.items():
        outcome = cauchy_check(space, s, [minpos], n_max)[0]
        if is_certificate(outcome):
            if constant_tail_start(g, s, n_max) > outcome.threshold + 1:
                return "fail", f"{name}: certified at the minimum scale but not constant"
            tail_value = s.term(n_max)
            conv = point_convergence(space, s, tail_value, b.eps_family, n_max)
            if not all(is_certificate(o) for o in conv):
                return "fail", f"{name}: eventually constant but convergence failed"
        elif name != "oscillating":
            return "fail", f"{name}: expected a certificate at the minimum positive distance"
    return "pass", "certified-at-scale sequences are eventually constant, hence convergent"


def _hypotheses(b: InstanceBundle, ctx: _Ctx):
    """The map's kept verdict with its one-sided outcome, from one pass over
    the pairs: every map row and every row that needs a pair law reads it."""
    return check_hypotheses(b.map_, b.witness, ctx.plan, one_sided=True)


def _global_report(b: InstanceBundle, ctx: _Ctx):
    return _hypotheses(b, ctx).global_report


def _weak_report(b: InstanceBundle, ctx: _Ctx):
    return _hypotheses(b, ctx).one_sided_report


def _witness_result(b: InstanceBundle, ctx: _Ctx):
    return _hypotheses(b, ctx).witness_report.result("phi-strictly-below")


def _map_row(result, row):
    """Row of a map check from ``result(b, ctx)``, the memoized ``LawResult``
    of a pair scan: it needs a map and a witness, and skips when the scan
    passed without a pair of distinct points to check; else ``row``'s."""
    def run(b: InstanceBundle, ctx: _Ctx):
        r = result(b, ctx)
        if r.passed and r.checked == 0:
            return "skip", "no pair of distinct points to check"
        return row(b, ctx, r)
    return _needs(_MAP_WITNESS)(run)


def _check_witness_validity(b: InstanceBundle, ctx: _Ctx, r):
    return ("pass", f"checked {r.checked}") if r.passed else ("fail", r.witness)


def _check_contraction(b: InstanceBundle, ctx: _Ctx, r):
    if r.passed:
        return "pass", "exhaustive" if b.space.finite else f"{r.checked} sampled pairs"
    return "fail", r.witness


def _check_global_implies_weak(b: InstanceBundle, ctx: _Ctx, glob):
    if not glob.passed:
        return "skip", "all-pairs bound does not hold; implication is vacuous"
    weak = _weak_report(b, ctx)
    if weak.passed:
        return "pass", "all-pairs bound entails the one-sided bound on the same samples"
    return "fail", f"one-sided check failed despite all-pairs: {weak.witness}"


def _check_c_status(b: InstanceBundle, ctx: _Ctx):
    status = c_condition_status(b.witness)
    if status.status is CStatus.HOLDS_BY_THEOREM:
        return "pass", f"{status.status.value}: {status.justification}"
    if b.witness.ratio is None:  # the theorem covers every ratio witness
        return "skip", f"{status.status.value}: {status.justification}"
    return "fail", f"unexpected verdict {status.status.value}"


def _check_at_most_one(b: InstanceBundle, ctx: _Ctx):
    if not _weak_report(b, ctx).passed:
        return "skip", "one-sided bound fails; uniqueness not implied"
    ends = endpoints_bruteforce(b.map_)
    if len(ends) <= 1:
        return "pass", f"endpoints: {_set_text(ends.members)}"
    return "fail", f"two endpoints: {format_element(ends.members[0])}, {format_element(ends.members[1])}"


def _check_approx_equivalence(b: InstanceBundle, ctx: _Ctx):
    census = endpoint_census(b.map_)
    if census.status == "skipped":
        return "skip", census.reason
    value = format_element(census.infsup_value)
    if not census.equivalent:
        return "fail", (f"endpoint presence and inf-sup value disagree: "
                        f"{len(census.endpoints)} endpoints, value {value}")
    if census.infsup_is_zero:
        if not b.eps_family:
            return "pass", "inf-sup is zero; constant witness not checked: bundle has no tolerance family"
        const_pts = point_seq(b.space, [census.achieving_point] * 16, name="minimizer")
        const_bounds = constant(b.module, b.space.group.identity)
        rep = approximate_endpoint_sequence(b.map_, const_pts, const_bounds,
                                            b.eps_family, 16)
        if not rep.passed:
            return "fail", f"constant witness at the minimizer rejected: {rep.witness}"
        return "pass", "inf-sup is zero and the constant witness validates"
    return "pass", f"no endpoint and inf-sup value {value} above zero"


def _check_iff(b: InstanceBundle, ctx: _Ctx):
    rep = endpoint_iff_report(b.map_, b.witness, ctx.plan, weak=_weak_report(b, ctx))
    if rep.status == "skipped":
        return "skip", rep.reason
    if rep.equivalent:
        return "pass", (f"endpoint={rep.endpoint_exists}, inf-sup zero={rep.infsup_is_zero}, "
                        f"value {format_element(rep.infsup_value)}")
    return "fail", "sides disagree: solver defect"


def _solver_cfg(b: InstanceBundle) -> SolverConfig:
    return SolverConfig(eps=b.solver_eps, seed_point=b.solver_seed, max_iter=400)


def _check_oracle_agreement(b: InstanceBundle, ctx: _Ctx):
    ends = endpoints_bruteforce(b.map_)
    if len(ends) != 1:
        return "fail", f"expected a unique endpoint, found {len(ends)}"
    target = ends.members[0]
    try:
        half = b.module.scale(Fraction(1, 2), min_positive_distance(b.space))
        eps = walk_tolerance(b.space, half)
    except ValueError as exc:  # no least positive distance, or half of it is no tolerance
        return "skip", f"walk tolerance undefined: {exc}"
    for seed in b.space.points:
        for rule in SelectionRule:
            cfg = SolverConfig(eps=eps, seed_point=seed, max_iter=400, selection_rule=rule)
            rep = iterate_endpoint(b.map_, b.witness, cfg, ctx.plan)
            if rep.outcome is not SolverOutcome.ENDPOINT_FOUND or rep.endpoint != target:
                return "fail", (f"seed {format_element(seed)} rule {rule.value}: "
                                f"{rep.outcome.value} at {format_element(rep.endpoint)}")
    return "pass", f"every seed and rule reaches {format_element(target)}"


def _check_trace_monotone(b: InstanceBundle, ctx: _Ctx):
    g = b.space.group
    rep = iterate_endpoint(b.map_, b.witness, _solver_cfg(b), ctx.plan)
    if rep.outcome is SolverOutcome.HYPOTHESIS_VIOLATION:
        return "fail", rep.message
    steps = rep.trace
    if len(steps) < 2:
        return "skip", (f"{rep.outcome.value} with a trace of {len(steps)} steps: "
                        f"fewer than two steps compare nothing")
    for prev, cur in zip(steps, steps[1:]):
        if not g.leq(cur.step_distance, prev.bound):
            return "fail", (f"step {cur.n}: {format_element(cur.step_distance)} exceeds the "
                            f"bound {format_element(prev.bound)} consumed before it")
        if not g.leq(cur.step_distance, prev.step_distance):
            return "fail", f"step {cur.n}: trace distance grew"
    return "pass", f"{rep.outcome.value} with governed trace of {len(steps)} steps"


def _check_banach_rate(b: InstanceBundle, ctx: _Ctx, _):
    g = b.space.group
    rep = iterate_fixed_point(b.map_, b.witness, _solver_cfg(b), ctx.plan)
    if rep.outcome not in (SolverOutcome.ENDPOINT_FOUND, SolverOutcome.APPROX_ENDPOINT_SEQUENCE):
        return "fail", rep.message
    for step in rep.trace:
        if not g.leq(step.step_distance, step.apriori_bound):
            return "fail", (f"n={step.n}: step {format_element(step.step_distance)} exceeds "
                            f"the a-priori bound {format_element(step.apriori_bound)}")
    return "pass", f"{rep.outcome.value} in {rep.iterations} steps, a-priori bound dominates"


# ---------------------------------------------------------------------------
# row needs: what a row requires of the bundle, as (predicate, skip reason)

_TOLERANCES = (lambda b, ctx: b.eps_family, "bundle has no tolerance family")
_THETA_SUMS = (_theta_sums, "no closed-form sequence tends to the identity")
_CONTINUUM = (lambda b, ctx: not b.space.finite,
              "continuum row; finite spaces are covered by eventual constancy")
_FINITE = (lambda b, ctx: b.space.finite, "eventual constancy applies to finite spaces")
_MAP_WITNESS = (lambda b, ctx: b.map_ is not None and b.witness is not None,
                "bundle has no map/witness")
_FINITE_MAP = (lambda b, ctx: b.map_ is not None and b.space.finite, "needs a finite mapped space")
_WITNESS = (lambda b, ctx: b.witness is not None, "bundle has no witness")
_GOVERNED = (lambda b, ctx: _global_report(b, ctx).passed,
             "all-pairs bound fails; walk not governed")
_SINGLE_VALUED = (lambda b, ctx: b.map_ is not None and b.map_.function is not None,
                  "bundle has no single-valued contraction")
_RATIO = (lambda b, ctx: b.witness is not None and b.witness.ratio is not None,
          "witness gives no ratio")


def _needs(*needs):
    """Wrap a row ``check(b, ctx)`` so that it first tests its needs in
    order and skips with the reason of the first one the bundle lacks."""
    def wrap(check):
        def run(b: InstanceBundle, ctx: _Ctx):
            for holds, reason in needs:
                if not holds(b, ctx):
                    return "skip", reason
            return check(b, ctx)
        return run
    return wrap


CHECKS: dict[str, Callable[[InstanceBundle, _Ctx], tuple[str, str]]] = {
    f"{family}/{law}": _check_law(family, law)
    for family, (laws, _) in _LAW_FAMILIES.items() for law in laws
}

CHECKS.update({
    "metric/point-convergence": _needs(_TOLERANCES, _CONTINUUM)(_check_point_convergence),
    "metric/cauchy": _needs(_TOLERANCES, _CONTINUUM)(_check_point_cauchy),
    "metric/finite-completeness": _needs(_TOLERANCES, _FINITE)(_check_finite_completeness),
    "seq/limit-uniqueness": _needs(_TOLERANCES, _THETA_SUMS)(_check_limit_uniqueness),
    "seq/sum": _needs(_TOLERANCES, _THETA_SUMS)(_check_sum),
    "seq/sandwich": _needs(_TOLERANCES, _THETA_SUMS)(_check_sandwich),
    "seq/regularity": _needs(_TOLERANCES)(_check_regularity),
    "seq/two-sided": _needs(_TOLERANCES, _THETA_SUMS)(_check_two_sided),
    "seq/weak-vs-strong": _needs(_TOLERANCES, _THETA_SUMS)(_check_weak_vs_strong),
    "seq/norm-to-order": _needs(_TOLERANCES)(_check_norm_to_order),
    "hausdorff/identity": _check_hausdorff_identity,
    "hausdorff/symmetry": _check_hausdorff_symmetry,
    "hausdorff/singleton": _check_hausdorff_singleton,
    "hausdorff/triangle": _check_hausdorff_triangle,
    "map/phi-strictly-below": _map_row(_witness_result, _check_witness_validity),
    "map/weak-contraction": _map_row(_weak_report, _check_contraction),
    "map/global-contraction": _map_row(_global_report, _check_contraction),
    "map/global-implies-weak": _map_row(_global_report, _check_global_implies_weak),
    "map/c-status": _needs(_WITNESS)(_check_c_status),
    "endpoint/at-most-one": _needs(_FINITE_MAP, _WITNESS)(_check_at_most_one),
    "endpoint/approx-equivalence": _needs(_FINITE_MAP)(_check_approx_equivalence),
    "endpoint/iff-zero-gap": _needs(_MAP_WITNESS)(_check_iff),
    "solver/oracle-agreement": _needs(_FINITE_MAP, _WITNESS, _GOVERNED)(_check_oracle_agreement),
    "solver/trace-monotone": _needs(_MAP_WITNESS, _GOVERNED)(_check_trace_monotone),
    "solver/banach-rate": _needs(_SINGLE_VALUED, _RATIO, _GOVERNED)(
        _map_row(_global_report, _check_banach_rate)),
})

ALL_CHECKS = tuple(CHECKS)


def default_suite(instances=None, checks=None, sample_seed: int = 0,
                  budgets: Budgets | None = None) -> SuiteSpec:
    return SuiteSpec(
        instances=tuple(instances) if instances else DEFAULT_INSTANCES,
        checks=tuple(checks) if checks else ALL_CHECKS,
        sample_seed=sample_seed,
        budgets=budgets or Budgets(),
    )


def run_suite(spec: SuiteSpec, bundles: dict[str, InstanceBundle] | None = None) -> TraceabilityReport:
    """Execute every (instance, check) cell deterministically.

    A check that raises is recorded as a failing row carrying the error;
    remaining cells still run.
    """
    bundles = bundles if bundles is not None else builtin_bundles()
    rows = []
    for name in spec.instances:
        bundle = bundles.get(name)
        if bundle is None:
            for check in spec.checks:
                rows.append(CheckRow(check, name, "fail", "instance failed to load", 0.0))
            continue
        seed = spec.sample_seed ^ zlib.crc32(name.encode())
        ctx = _Ctx(SamplePlan(seed=seed, count=spec.budgets.samples), spec.budgets)
        for check in spec.checks:
            fn = CHECKS.get(check)
            t0 = time.perf_counter()
            if fn is None:
                rows.append(CheckRow(check, name, "fail", "unknown check id", 0.0))
                continue
            try:
                outcome, witness = fn(bundle, ctx)
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                outcome, witness = "fail", f"error: {exc}"
            rows.append(CheckRow(check, name, outcome, witness,
                                 time.perf_counter() - t0))
    return TraceabilityReport(tuple(rows))


# ---------------------------------------------------------------------------
# fault injection

def _break_g1(bundle: InstanceBundle) -> InstanceBundle:
    g = bundle.module.group
    if isinstance(g.identity, tuple):
        bad = tuple(Fraction(1) if i == 0 else Fraction(-1) for i in range(len(g.identity)))
    else:
        bad = Fraction(-1)
    orig = g.cmp

    def cmp(a, b):
        if a == g.identity and b == bad:
            return Order.LESS
        if a == bad and b == g.identity:
            return Order.GREATER
        return orig(a, b)

    corrupt_group = dataclasses.replace(g, cmp=cmp, name=g.name + "!g1")
    module = dataclasses.replace(bundle.module, group=corrupt_group)
    return bundle.replace(module=module)


def _break_t3(bundle: InstanceBundle) -> InstanceBundle:
    t = bundle.structure
    g = t.group
    if isinstance(g.identity, tuple):
        bad = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(len(g.identity)))
    else:
        bad = Fraction(0)
    orig = t.strictly_below

    def strictly_below(a, b):
        if a == g.identity and b == bad:
            return True
        return orig(a, b)

    corrupt = dataclasses.replace(t, strictly_below=strictly_below, name=t.name + "!t3")
    return bundle.replace(structure=corrupt)


def _break_d2(bundle: InstanceBundle) -> InstanceBundle:
    space = bundle.space
    g = space.group
    bump = g.fill(Fraction(1, 3))
    orig = space.metric

    def metric(x, y):
        d = orig(x, y)
        if x < y:
            return g.add(d, bump)
        return d

    corrupt = dataclasses.replace(space, metric=metric, name=space.name + "!d2")
    return bundle.replace(space=corrupt)


def _break_phi_bound(bundle: InstanceBundle) -> InstanceBundle:
    if not bundle.space.finite or bundle.witness is None:
        raise ValueError("break-phi-bound needs a finite mapped space with a witness")
    space, w = bundle.space, bundle.witness
    pts = space.points
    x0, y0 = pts[0], pts[-1]
    table = {}
    for x in pts:
        for y in pts:
            if x == y:
                continue
            table[(x, y)] = w.phi(space, x, y, space.distance(x, y))
    table[(x0, y0)] = space.distance(x0, y0)  # no longer strictly below
    corrupt = ContractionWitness(WitnessClass.PHI_TABLE, phi_table=bound_table(space, table),
                                 label=(w.describe() + " with one saturated entry"))
    return bundle.replace(witness=corrupt)


def _add_second_endpoint(bundle: InstanceBundle) -> InstanceBundle:
    if not bundle.space.finite or bundle.map_ is None:
        raise ValueError("add-second-endpoint needs a finite mapped space")
    space, T = bundle.space, bundle.map_
    ends = endpoints_bruteforce(T)
    candidates = [p for p in space.points if p not in ends.members]
    if not candidates:
        raise ValueError("no non-endpoint available to pin")
    pinned = max(candidates)
    table = {p: ((p,) if p == pinned else T.images(p)) for p in space.points}
    corrupt = SetValuedMap.from_table(space, table, name=T.name + "!second-endpoint")
    return bundle.replace(map_=corrupt)


# fault -> (the check it is engineered to flip, the built-in bundle it flips
# that check on, the mutation)
_FAULTS = {
    "identity": (None, None, lambda bundle: bundle),
    "break-g1": ("group/g1", "cone-2", _break_g1),
    "break-t3": ("topo/t3", "cone-2", _break_t3),
    "break-d2": ("metric/d2", "three-point", _break_d2),
    "break-phi-bound": ("map/phi-strictly-below", "three-point", _break_phi_bound),
    "add-second-endpoint": ("map/weak-contraction", "three-point", _add_second_endpoint),
}

FAULT_TARGETS = {name: target for name, (target, _, _) in _FAULTS.items()
                 if target is not None}


def fault_inject(bundle: InstanceBundle, mutation: str) -> InstanceBundle:
    """Return a mutated copy whose targeted check must fail."""
    if mutation not in _FAULTS:
        raise ValueError(f"unknown mutation {mutation!r}")
    _, _, mutate = _FAULTS[mutation]
    return mutate(bundle)


@dataclass(frozen=True)
class SensitivityResult:
    mutation: str
    instance: str
    target: str
    before: str
    after: str

    @property
    def flipped(self) -> bool:
        return self.before == "pass" and self.after == "fail"


def run_fault_sensitivity(sample_seed: int = 0,
                          budgets: Budgets | None = None) -> list[SensitivityResult]:
    """Apply every registered mutation to a suitable bundle and record
    whether its targeted check flipped from pass to fail."""
    budgets = budgets or Budgets(samples=300, n_max=100)
    bundles = builtin_bundles()
    results = []
    for mutation, target in FAULT_TARGETS.items():
        _, inst, _ = _FAULTS[mutation]
        spec = SuiteSpec(instances=(inst,), checks=(target,),
                         sample_seed=sample_seed, budgets=budgets)
        before = run_suite(spec, bundles).row(target, inst).outcome
        mutated = {inst: fault_inject(bundles[inst], mutation)}
        after = run_suite(spec, mutated).row(target, inst).outcome
        results.append(SensitivityResult(mutation, inst, target, before, after))
    return results
