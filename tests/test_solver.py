import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordermetric import cli
from ordermetric import (
    ConeMetricSpace,
    ContractionWitness,
    IffReport,
    IncomparableError,
    Order,
    PsiProperties,
    SelectionRule,
    SetValuedMap,
    SolverConfig,
    SolverOutcome,
    SolverReport,
    SuiteSpec,
    WitnessClass,
    banach_iterate,
    bound_table,
    build_bundle,
    builtin_bundles,
    check_hypotheses,
    coord_cone_module,
    endpoint_census,
    endpoint_iff_report,
    endpoints_bruteforce,
    format_element,
    global_alpha_corpus,
    interior_cone_structure,
    is_weak_contraction,
    iterate_endpoint,
    min_positive_distance,
    order_min,
    parse_instance_text,
    real_module,
    run_suite,
    strict_order_structure,
)
from ordermetric.instance_files import _interval_carrier
from ordermetric.solver import TraceStep, walk_tolerance

HALF = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=Fraction(1, 2))


@pytest.fixture
def grid64(rstruct):
    pts = tuple(Fraction(k, 64) for k in range(65))
    return ConeMetricSpace("grid64", rstruct, lambda x, y: abs(x - y), points=pts)


@pytest.fixture
def floor_halving(grid64):
    def rule(x):
        k = int(x * 64)
        return (Fraction(k // 2, 64),)

    return SetValuedMap.from_rule(grid64, rule, name="floor-halving")


@pytest.fixture
def dilation(rstruct):
    pts = (Fraction(0), Fraction(1, 4), Fraction(1))
    space = ConeMetricSpace("three-point", rstruct, lambda x, y: abs(x - y), points=pts)
    T = SetValuedMap.from_table(space, {
        Fraction(0): (Fraction(0),),
        Fraction(1, 4): (Fraction(0),),
        Fraction(1): (Fraction(0), Fraction(1, 4)),
    })
    return space, T


def test_floor_halving_walks_to_zero_best_effort(floor_halving):
    """Grid rounding breaks the exact ratio on adjacent points, so the
    hypotheses fail and the solver degrades to best effort, yet the walk
    from 1 still collapses at 0 in ceil(log2(64)) + 1 = 7 steps."""
    cfg = SolverConfig(eps=Fraction(1, 1024), seed_point=Fraction(1), max_iter=50)
    rep = iterate_endpoint(floor_halving, HALF, cfg)
    assert rep.outcome is SolverOutcome.ENDPOINT_FOUND
    assert rep.endpoint == Fraction(0)
    assert rep.best_effort
    assert rep.iterations == 7


def test_seed_at_endpoint_returns_immediately(floor_halving):
    cfg = SolverConfig(eps=Fraction(1, 1024), seed_point=Fraction(0), max_iter=50)
    rep = iterate_endpoint(floor_halving, HALF, cfg)
    assert rep.outcome is SolverOutcome.ENDPOINT_FOUND
    assert rep.endpoint == Fraction(0)
    assert rep.iterations == 0


def test_dilation_agrees_with_bruteforce_both_rules(dilation):
    space, T = dilation
    target = endpoints_bruteforce(T).members[0]
    for rule in SelectionRule:
        for seed in space.points:
            cfg = SolverConfig(eps=Fraction(1, 16), seed_point=seed,
                               max_iter=50, selection_rule=rule)
            rep = iterate_endpoint(T, HALF, cfg)
            assert rep.outcome is SolverOutcome.ENDPOINT_FOUND
            assert rep.endpoint == target == Fraction(0)
            assert not rep.best_effort


def test_trace_obeys_consumed_bounds(dilation):
    space, T = dilation
    g = space.group
    cfg = SolverConfig(eps=Fraction(1, 16), seed_point=Fraction(1), max_iter=50)
    rep = iterate_endpoint(T, HALF, cfg)
    for prev, cur in zip(rep.trace, rep.trace[1:]):
        assert g.leq(cur.step_distance, prev.bound)
        assert g.lt(prev.bound, prev.step_distance)  # bound strictly below step


def test_approximate_certificate_on_continuum(real_line_space, rmod):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,), name="halve")
    cfg = SolverConfig(eps=Fraction(1, 100), seed_point=Fraction(1), max_iter=100)
    rep = iterate_endpoint(T, HALF, cfg)
    assert rep.outcome is SolverOutcome.APPROX_ENDPOINT_SEQUENCE
    assert not rep.best_effort
    g = real_line_space.group
    # the emitted pair really is a witness: image distances within bounds
    for x, a in zip(rep.witness_points, rep.witness_bounds):
        for xp in T.images(x):
            assert g.leq(real_line_space.distance(x, xp), a)
    # bounds vanish geometrically
    for b1, b2 in zip(rep.witness_bounds, rep.witness_bounds[1:]):
        assert b2 <= b1 / 2


def test_budget_exhaustion(real_line_space):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,))
    cfg = SolverConfig(eps=Fraction(1, 2 ** 40), seed_point=Fraction(1), max_iter=5)
    rep = iterate_endpoint(T, HALF, cfg)
    assert rep.outcome is SolverOutcome.BUDGET_EXHAUSTED
    assert rep.iterations == 5


def test_chain_with_saturating_image_best_effort(rstruct):
    """T1 contains 1/2 whose own image {0} sits exactly at distance
    d(1, 1/2) * 1, so no valid bound exists and hypotheses fail; the walk
    still collapses at 0 and matches the exhaustive scan."""
    pts = (Fraction(0), Fraction(1, 2), Fraction(1))
    space = ConeMetricSpace("chain", rstruct, lambda x, y: abs(x - y), points=pts)
    T = SetValuedMap.from_table(space, {
        Fraction(0): (Fraction(0),),
        Fraction(1, 2): (Fraction(0),),
        Fraction(1): (Fraction(1, 2), Fraction(0)),
    })
    witness = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=Fraction(3, 4))
    from ordermetric import is_weak_contraction

    assert not is_weak_contraction(T, witness).passed
    for rule in SelectionRule:
        cfg = SolverConfig(eps=Fraction(1, 16), seed_point=Fraction(1),
                           max_iter=20, selection_rule=rule)
        rep = iterate_endpoint(T, witness, cfg)
        assert rep.outcome is SolverOutcome.ENDPOINT_FOUND
        assert rep.best_effort
        assert rep.endpoint == endpoints_bruteforce(T).members[0] == Fraction(0)


def test_expanding_map_flags_hypothesis_violation(rstruct):
    pts = tuple(Fraction(k, 8) for k in range(9))
    space = ConeMetricSpace("grid8", rstruct, lambda x, y: abs(x - y), points=pts)

    def rule(x):
        return (min(2 * x, Fraction(1)),) if x != 0 else (Fraction(1, 8),)

    T = SetValuedMap.from_rule(space, rule, name="double")
    cfg = SolverConfig(eps=Fraction(1, 64), seed_point=Fraction(1, 8), max_iter=30)
    rep = iterate_endpoint(T, HALF, cfg)
    assert rep.outcome is SolverOutcome.HYPOTHESIS_VIOLATION
    assert rep.best_effort


def test_min_dist_falls_back_to_point_order_on_incomparable_distances(cstruct2):
    """From (1, 1) the candidate distances (1, 0) and (0, 1) are incomparable
    in the coordinate cone, so the min-distance rule takes the first
    candidate in the points' natural order, (0, 1)."""
    p01, p10, p11 = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
                     (Fraction(1), Fraction(1)))
    space = ConeMetricSpace("cone-2 corners", cstruct2,
                            lambda x, y: tuple(abs(a - b) for a, b in zip(x, y)),
                            points=(p01, p10, p11))
    T = SetValuedMap.from_table(space, {p01: (p01,), p10: (p10,), p11: (p10, p01)})
    cfg = SolverConfig(eps=(Fraction(1, 16), Fraction(1, 16)), seed_point=p11, max_iter=5)
    rep = iterate_endpoint(T, HALF, cfg)
    assert [(s.point, s.chosen, s.step_distance) for s in rep.trace] \
        == [(p11, p01, (Fraction(1), Fraction(0)))]
    assert rep.outcome is SolverOutcome.ENDPOINT_FOUND and rep.endpoint == p01


def test_a_violating_step_evaluates_no_bound(rstruct, monkeypatch):
    """From 1/8 the walk doubles to 1/4 and then to 1/2, a step that grows:
    the bound of that step is never evaluated, not by the walk that stops
    there and not by a later one that reads its kept steps, while a walk
    seeded at 1/4 takes that step unchecked and evaluates its bound."""
    pts = tuple(Fraction(k, 8) for k in range(9))
    space = ConeMetricSpace("grid8", rstruct, lambda x, y: abs(x - y), points=pts)
    T = SetValuedMap.from_rule(
        space, lambda x: (min(2 * x, Fraction(1)),) if x != 0 else (Fraction(1, 8),))
    check_hypotheses(T, HALF)
    bounded, entry_bound = [], ContractionWitness._entry_bound

    def recorded_reader(self, m):
        bound, point = entry_bound(self, m), m._point

        def recorded(a, b, d):
            bounded.append((point(a), point(b)))
            return bound(a, b, d)

        return recorded

    monkeypatch.setattr(ContractionWitness, "_entry_bound", recorded_reader)
    eighth, quarter, half = Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)
    for seed, calls in [(eighth, [(eighth, quarter)]), (eighth, []),
                        (quarter, [(quarter, half)])]:
        bounded.clear()
        cfg = SolverConfig(eps=Fraction(1, 64), seed_point=seed, max_iter=30)
        rep = iterate_endpoint(T, HALF, cfg)
        assert (rep.outcome, bounded) == (SolverOutcome.HYPOTHESIS_VIOLATION, calls)
    assert rep.message == "step 1: distance grew from 1/4 to 1/2"


# -- kept steps against the point loop -----------------------------------------


def _point_walk(T, w, cfg):
    """The walk on points, every step decided anew, with the selection rule
    written out: the reference the walk on kept steps must equal."""
    m, g, t = T.space, T.space.group, T.space.structure
    eps = walk_tolerance(m, cfg.eps)
    y = m.require_member(cfg.seed_point)
    notes = check_hypotheses(T, w).notes
    verified = not notes
    trace, prev_bound, prev_step = [], None, None
    for n in range(cfg.max_iter + 1):
        images = T.images(y)
        if images == (y,):
            return SolverReport(SolverOutcome.ENDPOINT_FOUND, tuple(trace), endpoint=y,
                                best_effort=not verified, notes=notes,
                                message=f"image collapsed at iteration {n}")
        if all(t.ll(m.distance(y, xp), eps) for xp in images):
            return SolverReport(SolverOutcome.APPROX_ENDPOINT_SEQUENCE, tuple(trace),
                                witness_points=tuple(s.chosen for s in trace),
                                witness_bounds=tuple(s.bound for s in trace),
                                best_effort=not verified, notes=notes,
                                message=(f"image spread strictly within tolerance at "
                                         f"{format_element(y)} after {n} steps"))
        if n == cfg.max_iter:
            break
        ordered = sorted(p for p in images if p != y)
        chosen = ordered[0]
        if cfg.selection_rule is SelectionRule.MIN_DISTANCE:
            dists = [m.distance(y, p) for p in ordered]
            try:
                chosen = ordered[dists.index(order_min(g, dists))]
            except IncomparableError:
                pass
        step = m.distance(y, chosen)
        if prev_bound is not None and verified and not g.leq(step, prev_bound):
            return SolverReport(SolverOutcome.HYPOTHESIS_VIOLATION, tuple(trace),
                                best_effort=False, notes=notes,
                                message=(f"step {n}: d={format_element(step)} exceeds the "
                                         f"consumed bound {format_element(prev_bound)}"))
        if prev_step is not None and not verified and g.cmp(step, prev_step) is Order.GREATER:
            return SolverReport(SolverOutcome.HYPOTHESIS_VIOLATION, tuple(trace),
                                best_effort=True, notes=notes,
                                message=(f"step {n}: distance grew from "
                                         f"{format_element(prev_step)} to {format_element(step)}"))
        bound = w.phi(m, y, chosen, step)
        trace.append(TraceStep(n, y, chosen, step, bound))
        prev_bound, prev_step, y = bound, step, chosen
    return SolverReport(SolverOutcome.BUDGET_EXHAUSTED, tuple(trace),
                        best_effort=not verified, notes=notes,
                        message=f"no certificate within {cfg.max_iter} iterations")


_LINE = strict_order_structure(real_module())
_CONE = interior_cone_structure(coord_cone_module(2))
_INTERVAL = ConeMetricSpace("interval", _LINE, lambda x, y: abs(x - y), None,
                            *_interval_carrier(Fraction(0), Fraction(1)))


@st.composite
def _walk_cases(draw):
    """A map, two witnesses, a tolerance and the walk's seed points. The map
    is a ladder 1/4^j -> {1/4^(j+1), 1/4^(j+2)} down to 0, on which the
    ratio 1/2 verifies, or a random table on the line or the cone-2 grid,
    with points that may repeat, which often breaks the bound and often
    cycles, each seeded at every point; or a scale rule x -> {f x} with one
    to three factors on the sampled interval 0 .. 1, seeded at points its
    sampler draws. A witness is a constant ratio or, leaving the walk
    best-effort, a bound table on a finite space and a scalar function
    without declared properties on the interval."""
    kind = draw(st.sampled_from(["ladder", "line", "cone", "interval"]))
    ratios = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    if kind == "interval":
        factors = draw(st.lists(st.sampled_from([Fraction(k, 4) for k in range(5)]),
                                min_size=1, max_size=3))
        T = SetValuedMap.from_rule(_INTERVAL, lambda x: [f * x for f in factors], name=kind)
        rng = random.Random(draw(st.integers(0, 2 ** 16)))

        def witness():
            r = draw(ratios)
            if draw(st.booleans()):
                return ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=r)
            return ContractionWitness(WitnessClass.PSI_ON_DISTANCE, psi=lambda d: 2 * r * d)

        e = draw(st.sampled_from([Fraction(1, 64), Fraction(1, 8), Fraction(1, 2), Fraction(2)]))
        return T, witness(), witness(), e, [_INTERVAL.sampler(rng) for _ in range(4)]
    if kind == "ladder":
        rungs = [Fraction(1, 4) ** j for j in range(draw(st.integers(1, 6)))] + [Fraction(0)]
        pts = tuple(draw(st.permutations(rungs)))
        table = {p: (rungs[min(j + 1, len(rungs) - 1)], rungs[min(j + 2, len(rungs) - 1)])
                 for j, p in enumerate(rungs)}
    else:
        if kind == "line":
            pool = [Fraction(k, 4) for k in range(9)]
        else:
            pool = [(Fraction(a), Fraction(b)) for a in range(3) for b in range(3)]
        pts = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
        table = {p: draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3)) for p in pts}
    structure = _CONE if kind == "cone" else _LINE
    metric = (lambda x, y: tuple(abs(a - b) for a, b in zip(x, y))) if kind == "cone" \
        else (lambda x, y: abs(x - y))
    space = ConeMetricSpace(kind, structure, metric, points=pts)
    T = SetValuedMap.from_table(space, table, name=kind)

    def witness():
        if draw(st.booleans()):
            return ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=draw(ratios))
        return ContractionWitness(WitnessClass.PHI_TABLE, phi_table=bound_table(space, {
            (x, y): structure.module.scale(draw(ratios) * 2, space.distance(x, y))
            for x in pts for y in pts if x != y}))

    e = draw(st.sampled_from([Fraction(1, 64), Fraction(1, 8), Fraction(1, 2), Fraction(2)]))
    return T, witness(), witness(), (e, e) if kind == "cone" else e, pts


def _walked(walk, *args):
    """A walk's report, or its error as its type and text."""
    try:
        return walk(*args)
    except Exception as exc:  # noqa: BLE001 - compared with the reference's error
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_walk_cases(), st.data())
def test_kept_steps_walk_as_the_point_loop(case, data):
    # every seed under both rules in a drawn order, with a budget that a
    # walk may exhaust, on the map, on a replaced copy of it (no kept steps),
    # then with another witness and the first one again (their steps start
    # anew): every report equals the point loop's, field by field, messages
    # included, on a finite space and on the sampled interval alike
    T, w, other, eps, seeds = case
    max_iter = data.draw(st.integers(1, 6))
    walks = data.draw(st.permutations([(seed, rule) for seed in seeds
                                       for rule in SelectionRule]))
    for T_, w_ in [(T, w), (dataclasses.replace(T), w), (T, other), (T, w)]:
        for seed, rule in walks:
            cfg = SolverConfig(eps=eps, seed_point=seed, max_iter=max_iter,
                               selection_rule=rule)
            assert _walked(iterate_endpoint, T_, w_, cfg) == _walked(_point_walk, T_, w_, cfg)


# -- ratio iteration ---------------------------------------------------------


def test_banach_halving_exact_rates(real_line_space):
    cfg = SolverConfig(eps=Fraction(1, 1024), seed_point=Fraction(1), max_iter=50)
    rep = banach_iterate(real_line_space, lambda x: x / 2, Fraction(1, 2), cfg)
    assert rep.outcome is SolverOutcome.APPROX_ENDPOINT_SEQUENCE
    assert rep.iterations <= 12
    for step in rep.trace:
        # measured distance to the fixed point 0 is exactly 2^{-n}
        assert step.point == Fraction(1, 2 ** step.n)
        assert step.apriori_bound == Fraction(1, 2 ** step.n)
        assert abs(step.point - 0) <= step.apriori_bound
    # termination guarantee: the final point sits strictly within eps of 0
    assert abs(rep.final_point) < Fraction(1, 1024)


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)])
def test_banach_linear_map_exact_rate(real_line_space, alpha):
    """For x -> alpha * x the measured distance to 0 is exactly alpha^n
    times the start, and the a-priori bound dominates it at every step."""
    cfg = SolverConfig(eps=Fraction(1, 10 ** 6), seed_point=Fraction(1), max_iter=200)
    rep = banach_iterate(real_line_space, lambda x: alpha * x, alpha, cfg)
    assert rep.outcome is SolverOutcome.APPROX_ENDPOINT_SEQUENCE
    for step in rep.trace:
        assert abs(step.point - 0) == alpha ** step.n
        assert abs(step.point - 0) <= step.apriori_bound


def test_banach_exact_fixed_point_on_singleton(rstruct):
    space = ConeMetricSpace("one", rstruct, lambda x, y: abs(x - y),
                            points=(Fraction(5),))
    cfg = SolverConfig(eps=Fraction(1), seed_point=Fraction(5), max_iter=5)
    rep = banach_iterate(space, lambda x: x, Fraction(0), cfg)
    assert rep.outcome is SolverOutcome.ENDPOINT_FOUND
    assert rep.fixed_point == Fraction(5)
    assert rep.iterations == 1  # the single probing step


def test_banach_constant_map_one_step(real_line_space):
    p = Fraction(1, 3)
    cfg = SolverConfig(eps=Fraction(1, 128), seed_point=Fraction(1), max_iter=10)
    rep = banach_iterate(real_line_space, lambda x: p, Fraction(0), cfg)
    assert rep.outcome is SolverOutcome.ENDPOINT_FOUND
    assert rep.fixed_point == p
    assert rep.iterations <= 2


def test_banach_vector_componentwise_rates(box2_space):
    cfg = SolverConfig(eps=(Fraction(1, 512), Fraction(1, 512)),
                       seed_point=(Fraction(1), Fraction(1)), max_iter=60)
    rep = banach_iterate(box2_space, lambda x: (x[0] / 2, x[1] / 3),
                         Fraction(1, 2), cfg)
    assert rep.outcome is SolverOutcome.APPROX_ENDPOINT_SEQUENCE
    g = box2_space.group
    for step in rep.trace:
        assert step.point == (Fraction(1, 2 ** step.n), Fraction(1, 3 ** step.n))
        assert g.leq(step.step_distance, step.apriori_bound)


def test_banach_rejects_non_contraction(real_line_space, box2_space, dilation):
    """The hypotheses name the first pair of the space's one pair list (the
    sampled pairs every pair check reads, or on a finite space the pairs of
    positions) whose images break the global bound, which on singleton
    images is the ratio bound."""
    q = Fraction
    three, _ = dilation
    cases = [
        (real_line_space, lambda x: 1 - x, q(1, 2),
         "global bound check failed: x=2/5, y=1, x'=3/5, y'=0: d=3/5 exceeds 3/10"),
        (box2_space, lambda x: (x[0] / 2, 1 - x[1]), (q(1, 2), q(1, 2)),
         "global bound check failed: x=(2/5, 1), y=(2/9, 1/3), x'=(1/5, 0), "
         "y'=(1/9, 2/3): d=(4/45, 2/3) exceeds (4/45, 1/3)"),
        # fixes 0 and 1: the first pair in position order, (0, 1/4), holds
        (three, {q(0): q(0), q(1, 4): q(0), q(1): q(1)}.__getitem__, q(1),
         "global bound check failed: x=0, y=1, x'=0, y'=1: d=1 exceeds 1/2"),
    ]
    for space, f, seed, message in cases:
        eps = tuple(q(1, 64) for _ in seed) if isinstance(seed, tuple) else q(1, 64)
        cfg = SolverConfig(eps=eps, seed_point=seed, max_iter=10)
        rep = banach_iterate(space, f, q(1, 2), cfg)
        assert rep.outcome is SolverOutcome.HYPOTHESIS_VIOLATION
        assert (rep.message, rep.trace) == (message, ())


# -- equivalence reports ------------------------------------------------------


def test_iff_report_endpoint_instance(dilation):
    _, T = dilation
    rep = endpoint_iff_report(T, HALF)
    assert rep.status == "checked"
    assert rep.endpoint_exists and rep.infsup_is_zero and rep.equivalent


def test_iff_report_both_sides_false(rstruct):
    space = ConeMetricSpace("two", rstruct, lambda x, y: abs(x - y),
                            points=(Fraction(0), Fraction(1)))
    both = (Fraction(0), Fraction(1))
    T = SetValuedMap.from_table(space, {Fraction(0): both, Fraction(1): both})
    rep = endpoint_iff_report(T, HALF)
    assert rep.status == "checked"
    assert rep.endpoint_exists is False and rep.infsup_is_zero is False
    assert rep.equivalent
    assert rep.infsup_value == Fraction(1)


def test_iff_report_skips_non_contraction(rstruct):
    space = ConeMetricSpace("two", rstruct, lambda x, y: abs(x - y),
                            points=(Fraction(0), Fraction(1)))
    swap = SetValuedMap.from_table(space, {Fraction(0): (Fraction(1),),
                                           Fraction(1): (Fraction(0),)})
    rep = endpoint_iff_report(swap, HALF)
    assert rep.status == "skipped"
    assert "bound check failed" in rep.reason


def test_iff_report_skips_unknown_convergence_class(dilation):
    _, T = dilation
    table = {}
    for x in T.space.points:
        for y in T.space.points:
            if x != y:
                table[(x, y)] = HALF.phi(T.space, x, y, T.space.distance(x, y))
    w = ContractionWitness(WitnessClass.PHI_TABLE, phi_table=bound_table(T.space, table))
    rep = endpoint_iff_report(T, w)
    assert rep.status == "skipped"
    assert "convergence condition" in rep.reason


def _rows(bundle, checks):
    spec = SuiteSpec(instances=(bundle.name,), checks=checks)
    report = run_suite(spec, {bundle.name: bundle})
    return {r.check: (r.outcome, r.witness) for r in report.rows}


def test_iff_report_counts_several_endpoints():
    """The identity on three-point has three endpoints: it has an endpoint,
    its inf-sup value is zero, and only uniqueness fails."""
    three = builtin_bundles()["three-point"]
    identity = SetValuedMap.from_table(three.space, {x: (x,) for x in three.space.points})
    # the identity is not below itself: declared here only to reach the census
    psi = ContractionWitness(WitnessClass.PSI_ON_DISTANCE, psi=lambda t: t,
                             psi_properties=PsiProperties(
                                 upper_semicontinuous=True, below_identity=True,
                                 positive_tail_gap=True))
    rep = endpoint_iff_report(identity, psi)
    assert (rep.status, rep.equivalent) == ("checked", True)
    assert rep.endpoint_exists is True and rep.infsup_is_zero is True
    assert rep.endpoints == three.space.points
    rows = _rows(three.replace(map_=identity, witness=psi),
                 ("endpoint/at-most-one", "endpoint/approx-equivalence", "endpoint/iff-zero-gap"))
    assert rows == {
        "endpoint/at-most-one": ("fail", "two endpoints: 0, 1/4"),
        "endpoint/approx-equivalence":
            ("pass", "inf-sup is zero and the constant witness validates"),
        "endpoint/iff-zero-gap": ("pass", "endpoint=True, inf-sup zero=True, value 0"),
    }


PROBE_B = """\
[group]
family = coord-cone
dimension = 2

[structure]
kind = interior-cone

[space]
points = (0, 0); (1, 0); (0, 1)
metric = coordinatewise

[map]
image (0, 0) = (0, 0)
image (1, 0) = (0, 0)
image (0, 1) = (0, 0)

[witness]
class = alpha-const
alpha = 1/2
"""


def test_iff_report_checks_a_least_sup_that_is_no_chain():
    """On the coordinate cone the sups over the images of (1, 0) and (0, 1)
    are incomparable, yet (0, 0)'s sup is below both: the inf-sup value is
    that least one, so the census and both endpoint rows are checked. The
    distances (1, 0) and (0, 1) have no least one, so the oracle row has no
    walk tolerance and skips."""
    probe = build_bundle(parse_instance_text(PROBE_B, name="probe-b"))
    zero = (Fraction(0), Fraction(0))
    rep = endpoint_census(probe.map_)
    assert (rep.status, rep.infsup_value, rep.endpoints, rep.equivalent) == (
        "checked", zero, (zero,), True)
    assert endpoint_iff_report(probe.map_, probe.witness) == rep
    rows = _rows(probe, ("endpoint/approx-equivalence", "endpoint/iff-zero-gap",
                         "solver/oracle-agreement"))
    assert rows == {"endpoint/approx-equivalence":
                        ("pass", "inf-sup is zero and the constant witness validates"),
                    "endpoint/iff-zero-gap":
                        ("pass", "endpoint=True, inf-sup zero=True, value (0, 0)"),
                    "solver/oracle-agreement": (
                        "skip", "walk tolerance undefined: minimum positive distance: "
                                "incomparable pair (1, 0) , (0, 1)")}


PROBE_C = """\
[group]
family = coord-cone
dimension = 2

[structure]
kind = interior-cone

[space]
points = (2, 0); (2, 2); (0, 1)
metric = coordinatewise

[map]
image (2, 0) = (2, 0); (2, 2)
image (2, 2) = (2, 2); (2, 0)
image (0, 1) = (2, 0); (2, 2)

[witness]
class = alpha-const
alpha = 1/2
"""


def test_iff_report_skips_an_incomparable_inf_sup():
    """The sups over the images are (0, 2), (0, 2) and (2, 1), which have no
    least one, so the inf-sup side, and both endpoint rows, skip."""
    probe = build_bundle(parse_instance_text(PROBE_C, name="probe-c"))
    assert is_weak_contraction(probe.map_, probe.witness).passed
    reason = "inf-sup undefined: inf over points: incomparable pair (0, 2) , (2, 1)"
    assert endpoint_census(probe.map_) == IffReport("skipped", reason)
    assert endpoint_iff_report(probe.map_, probe.witness) == IffReport("skipped", reason)
    rows = _rows(probe, ("endpoint/approx-equivalence", "endpoint/iff-zero-gap"))
    assert rows == {"endpoint/approx-equivalence": ("skip", reason),
                    "endpoint/iff-zero-gap": ("skip", reason)}


# the points (0, 0); (1, 0); (2, 0), each mapped to (0, 0)
COLLAPSE_ON_A_LINE = PROBE_B.replace("(0, 1)", "(2, 0)")


ONE_POINT = """\
[group]
family = real

[structure]
kind = strict-order

[space]
points = 0
metric = abs

[map]
image 0 = 0

[witness]
class = alpha-const
alpha = 1/2
"""


@pytest.mark.parametrize("text,rows", [
    (PROBE_B, {
        "metric/finite-completeness": (
            "skip", "certification scale undefined: minimum positive distance: "
                    "incomparable pair (1, 0) , (0, 1)"),
        "solver/oracle-agreement": (
            "skip", "walk tolerance undefined: minimum positive distance: "
                    "incomparable pair (1, 0) , (0, 1)")}),
    (COLLAPSE_ON_A_LINE, {
        "metric/finite-completeness": (
            "skip", "certification scale undefined: tolerance (1, 0) does not strictly "
                    "dominate the identity"),
        "solver/oracle-agreement": (
            "skip", "walk tolerance undefined: tolerance (1/2, 0) does not strictly "
                    "dominate the identity")}),
    (ONE_POINT, {
        "metric/finite-completeness": (
            "skip", "certification scale undefined: space has fewer than two distinct points"),
        "solver/oracle-agreement": (
            "skip", "walk tolerance undefined: space has fewer than two distinct points")}),
], ids=["no-least-distance", "least-distance-on-the-boundary", "one-point"])
def test_rows_without_a_distance_scale_skip(tmp_path, text, rows):
    """Both rows take their scale from the least positive distance: where
    there is none, or it does not strictly dominate the identity under the
    space's structure, they skip and say why, and verify exits 0."""
    bundle = build_bundle(parse_instance_text(text, name="scale"))
    assert _rows(bundle, tuple(rows)) == rows
    path = tmp_path / "scale.ini"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 0


def test_a_point_listed_twice_has_no_distance_scale(rstruct):
    """A space built through the API may list one point twice: it has two
    points but one distinct point, and the reason says so."""
    one = Fraction(1)
    space = ConeMetricSpace("twice", rstruct, lambda x, y: abs(x - y), points=(one, one))
    with pytest.raises(ValueError, match="^space has fewer than two distinct points$"):
        min_positive_distance(space)
    bundle = build_bundle(parse_instance_text(ONE_POINT, name="twice")).replace(space=space)
    assert _rows(bundle, ("metric/finite-completeness",)) == {
        "metric/finite-completeness": (
            "skip", "certification scale undefined: space has fewer than two distinct points")}


def test_a_point_listed_twice_is_one_endpoint(rstruct):
    """The endpoint scan counts distinct points, as the pair list does: a
    space listing 1 twice, with T(1) = {1}, has the one endpoint 1."""
    one = Fraction(1)
    space = ConeMetricSpace("twice", rstruct, lambda x, y: abs(x - y), points=(one, one))
    T = SetValuedMap.from_table(space, {one: (one,)})
    assert endpoints_bruteforce(T).members == (one,)
    bundle = build_bundle(parse_instance_text(ONE_POINT, name="twice")).replace(
        space=space, map_=T)
    assert _rows(bundle, ("endpoint/at-most-one", "solver/oracle-agreement")) == {
        "endpoint/at-most-one": ("pass", "endpoints: {1}"),
        "solver/oracle-agreement": (
            "skip", "walk tolerance undefined: space has fewer than two distinct points")}


def test_point_dependent_ratio_route(dilation):
    """A ratio that varies with the pair but is declared bounded below one
    drives the same walk and equivalence check as a constant ratio."""
    space, T = dilation
    w = ContractionWitness(
        WitnessClass.ALPHA_FUNCTION,
        alpha_fn=lambda x, y: Fraction(1, 2) + abs(x - y) / 8,
        alpha_bound=Fraction(5, 8))
    from ordermetric import c_condition_status, CStatus, is_global_weak_contraction

    assert c_condition_status(w).status is CStatus.HOLDS_BY_THEOREM
    assert is_global_weak_contraction(T, w).passed
    cfg = SolverConfig(eps=Fraction(1, 16), seed_point=Fraction(1), max_iter=30)
    rep = iterate_endpoint(T, w, cfg)
    assert rep.outcome is SolverOutcome.ENDPOINT_FOUND
    assert rep.endpoint == Fraction(0)
    assert not rep.best_effort
    iff = endpoint_iff_report(T, w)
    assert iff.status == "checked" and iff.equivalent


def test_scalar_function_route(dilation):
    """A scalar shrinking function of the distance with the declared
    analytic properties supports the equivalence check on finite spaces."""
    space, T = dilation
    from ordermetric import PsiProperties, c_condition_status, CStatus

    w = ContractionWitness(WitnessClass.PSI_ON_DISTANCE,
                           psi=lambda t: t / 2,
                           psi_properties=PsiProperties(upper_semicontinuous=True,
                                                        below_identity=True,
                                                        positive_tail_gap=True))
    assert c_condition_status(w).status is CStatus.HOLDS_BY_THEOREM
    iff = endpoint_iff_report(T, w)
    assert iff.status == "checked" and iff.equivalent
    cfg = SolverConfig(eps=Fraction(1, 16), seed_point=Fraction(1), max_iter=30)
    rep = iterate_endpoint(T, w, cfg)
    assert rep.outcome is SolverOutcome.ENDPOINT_FOUND
    assert rep.endpoint == Fraction(0)


# -- corpus agreement ---------------------------------------------------------


def test_solver_matches_oracle_on_global_corpus_sample():
    insts = global_alpha_corpus(count=60, minimum=10)[:12]
    for inst in insts:
        target = endpoints_bruteforce(inst.map_).members
        assert len(target) == 1, inst.name
        eps = min_positive_distance(inst.space) / 2
        for rule in SelectionRule:
            for seed in inst.space.points:
                cfg = SolverConfig(eps=eps, seed_point=seed, max_iter=300,
                                   selection_rule=rule)
                rep = iterate_endpoint(inst.map_, inst.alpha_witness, cfg)
                assert rep.outcome is SolverOutcome.ENDPOINT_FOUND, inst.name
                assert rep.endpoint == target[0], inst.name


def test_endpoint_walk_demo_renders_every_mode():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "endpoint_walk_demo.py")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    banners = [lines[i + 1] for i, line in enumerate(lines) if line == "=" * 72][::2]
    assert banners == ["finite three-point instance, verified hypotheses",
                       "grid-rounded halving, best-effort mode",
                       "exact halving on the rational unit interval",
                       "ratio iteration with a-priori bounds"]
    # the grid walk is the one best-effort walk; its note is the map's verdict
    assert lines.count("mode: best-effort (hypotheses not verified; no uniqueness claim)") == 1
    assert [line for line in lines if line.startswith("note: ")] \
        == ["note: global bound check failed: x=1/64, y=1/32, x'=0, y'=1/64: "
            "d=1/64 exceeds 1/128"]
    assert "witness points: 1/2, 1/4, 1/8, 1/16, 1/32, 1/64, 1/128, 1/256, 1/512, 1/1024" \
        in lines
