"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines in a
passing run. Every expected value is either computed by an independent
in-test oracle (brute-force scans, double loops, exhaustive enumeration)
or is a direct consequence checked with exact rational arithmetic; there
are no float tolerances anywhere.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ordermetric import (
    Budgets,
    ConeMetricSpace,
    SamplePlan,
    SelectionRule,
    SolverConfig,
    SolverOutcome,
    approximate_endpoint_property_finite,
    banach_iterate,
    check_group_laws,
    check_metric_laws,
    check_module_laws,
    check_limit_uniqueness,
    check_topo_laws,
    coord_cone_module,
    endpoints_bruteforce,
    global_alpha_corpus,
    hausdorff,
    interior_cone_structure,
    is_certificate,
    is_weak_contraction,
    iterate_endpoint,
    min_positive_distance,
    real_module,
    run_fault_sensitivity,
    strict_order_structure,
    sum_convergence,
    sum_of,
    sandwich_convergence,
    verify_convergence,
    verify_convergence_twosided,
    weak_contraction_corpus,
)
from ordermetric.harness import builtin_bundles


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {name}")
        raise
    print(f"[PASS] criterion {number}: {name}")


QUANTIFIED_GROUP_LAWS = ("assoc", "comm", "identity", "inverse",
                         "order-reflexive", "order-antisymmetric",
                         "order-transitive", "g1", "g1-prime")
QUANTIFIED_MODULE_LAWS = ("m1", "m1-prime", "m2", "m2-prime")
QUANTIFIED_TOPO_LAWS = ("t1", "t2", "t3", "t5", "t6")
METRIC_LAWS = ("d1", "d2", "d3")


def test_criterion_1_axiom_suite_with_fault_sensitivity():
    """All order/module/structure/metric laws on both built-in families at
    >= 1000 seeded samples per quantified law, plus every registered fault
    injection flipping its targeted check, inside a one-minute budget."""
    with criterion(1, "axiom suite and fault sensitivity"):
        started = time.monotonic()
        plan = SamplePlan(seed=20260809, count=1000)
        modules = [real_module(), coord_cone_module(2), coord_cone_module(3)]
        structures = [strict_order_structure(modules[0]),
                      interior_cone_structure(modules[1]),
                      interior_cone_structure(modules[2])]

        for module in modules:
            g_report = check_group_laws(module.group, plan)
            assert g_report.passed, g_report.summary()
            for law in QUANTIFIED_GROUP_LAWS:
                assert g_report.result(law).checked >= 1000, (module.name, law)
            m_report = check_module_laws(module, plan)
            assert m_report.passed, m_report.summary()
            assert m_report.result("r1").passed
            for law in QUANTIFIED_MODULE_LAWS:
                assert m_report.result(law).checked >= 1000, (module.name, law)

        for structure in structures:
            t_report = check_topo_laws(structure, plan)
            assert t_report.passed, t_report.summary()
            for law in QUANTIFIED_TOPO_LAWS:
                assert t_report.result(law).checked >= 1000, (structure.name, law)

        bundles = builtin_bundles()
        for name in ("real-line", "cone-2", "cone-3"):
            d_report = check_metric_laws(bundles[name].space, plan)
            assert d_report.passed, d_report.summary()
            for law in METRIC_LAWS:
                assert d_report.result(law).checked >= 1000, (name, law)

        results = run_fault_sensitivity(budgets=Budgets(samples=400, n_max=100))
        assert len(results) == 5
        for r in results:
            assert r.flipped, f"{r.mutation} did not flip {r.target}"

        elapsed = time.monotonic() - started
        assert elapsed < 60, f"axiom suite took {elapsed:.1f}s"


def _theta_families(bundle):
    g = bundle.module.group
    seqs = [s for s in bundle.sequences
            if s.closed_form and g.eq(s.declared_limit, g.identity)]
    assert len(seqs) >= 5
    return seqs


def _brute_last_violation(structure, seq, limit, eps, horizon):
    g = structure.group
    last = 0
    for n in range(1, horizon + 1):
        diff = g.sub(seq.term(n), limit)
        if not (g.is_nonneg(diff) and structure.ll(diff, eps)):
            last = n
    return last


def test_criterion_2_sequence_limit_laws():
    """Limit uniqueness, sum convergence, and dominated-difference
    convergence on >= 5 closed-form families per instance, every
    certificate carrying an analytically exact threshold."""
    with criterion(2, "sequence limit laws with exact thresholds"):
        bundles = builtin_bundles()
        n_max = 400
        for name in ("real-line", "cone-2", "cone-3"):
            b = bundles[name]
            t, g = b.structure, b.module.group
            seqs = _theta_families(b)
            fake = t.shrink(t.positivity_witness)
            for s in seqs:
                outs = verify_convergence(t, s, g.identity, b.eps_family, n_max)
                assert all(is_certificate(o) and o.analytic for o in outs), s.name
                for eps, out in zip(b.eps_family, outs):
                    oracle = _brute_last_violation(t, s, g.identity,
                                                   g.coerce(eps), out.threshold + 64)
                    assert out.threshold == oracle, (name, s.name)
                ok = check_limit_uniqueness(t, s, g.identity, g.identity,
                                            b.eps_family, n_max)
                assert ok.candidate_is_limit is True, s.name
                bad = check_limit_uniqueness(t, s, g.identity, fake,
                                             b.eps_family, n_max)
                assert bad.candidate_is_limit is False, s.name

            for i, s1 in enumerate(seqs):
                s2 = seqs[(i + 1) % len(seqs)]
                outs = sum_convergence(t, s1, s2, b.eps_family, n_max)
                assert all(is_certificate(o) and o.analytic for o in outs), \
                    (s1.name, s2.name)
                outs = sandwich_convergence(t, s1, sum_of(s1, s2), g.identity,
                                            b.eps_family, n_max)
                assert all(is_certificate(o) and o.analytic for o in outs), \
                    (s1.name, s2.name)


def test_criterion_3_endpoint_iff_on_finite_corpus():
    """Over >= 100 finite instances passing the exhaustive one-sided check:
    never two endpoints, and an endpoint exists exactly when the inf-sup
    image distance is zero."""
    with criterion(3, "endpoint uniqueness and iff over the finite corpus"):
        insts = weak_contraction_corpus(count=120)
        assert len(insts) >= 100
        for inst in insts:
            assert len(inst.space.points) <= 5
            weak = is_weak_contraction(inst.map_, inst.phi_witness)
            n = len(inst.space.points)
            assert weak.passed and weak.checked == n * (n - 1), inst.name
            ends = endpoints_bruteforce(inst.map_)
            assert len(ends) <= 1, inst.name
            value = approximate_endpoint_property_finite(inst.map_)
            has_endpoint = len(ends) == 1
            infsup_zero = value.value == Fraction(0)
            assert has_endpoint == infsup_zero, inst.name
            if has_endpoint:
                assert inst.map_.images(value.achieving_point) == (value.achieving_point,)


def test_criterion_4_solver_oracle_agreement():
    """On every corpus instance passing the all-pairs check with a constant
    ratio witness, the walk reaches exactly the brute-force endpoint from
    every seed under both selection rules."""
    with criterion(4, "solver agreement with the brute-force oracle"):
        insts = global_alpha_corpus(count=120, minimum=20)
        assert len(insts) >= 20
        for inst in insts:
            ends = endpoints_bruteforce(inst.map_)
            assert len(ends) == 1, inst.name
            target = ends.members[0]
            eps = min_positive_distance(inst.space) / 2
            for rule in SelectionRule:
                for seed in inst.space.points:
                    cfg = SolverConfig(eps=eps, seed_point=seed, max_iter=500,
                                       selection_rule=rule)
                    rep = iterate_endpoint(inst.map_, inst.alpha_witness, cfg)
                    assert rep.outcome is SolverOutcome.ENDPOINT_FOUND, \
                        (inst.name, rule.value, seed)
                    assert rep.endpoint == target, (inst.name, rule.value, seed)
                    assert not rep.best_effort, inst.name


def test_criterion_5_banach_reproduction():
    """Halving on the rational unit interval from 1 at eps = 2^-10: within
    12 steps, measured distance to 0 exactly 2^-n throughout, a-priori
    bound dominating at every step, all in exact arithmetic."""
    with criterion(5, "ratio-iteration reproduction with exact rates"):
        bundle = builtin_bundles()["real-line"]
        eps = Fraction(1, 2 ** 10)
        cfg = SolverConfig(eps=eps, seed_point=Fraction(1), max_iter=64)
        rep = banach_iterate(bundle.space, lambda x: x / 2, Fraction(1, 2), cfg)
        assert rep.outcome is SolverOutcome.APPROX_ENDPOINT_SEQUENCE
        assert rep.iterations <= 12
        reached = any(abs(step.point - 0) < eps for step in rep.trace)
        assert reached
        first_step = abs(Fraction(1) - Fraction(1, 2))
        for step in rep.trace:
            assert step.point == Fraction(1, 2 ** step.n)
            measured = abs(step.point - 0)
            apriori = Fraction(1, 2) ** step.n * 2 * first_step
            assert step.apriori_bound == apriori
            assert measured <= apriori
        assert abs(rep.final_point - 0) < eps


def test_criterion_6_hausdorff_oracle_equivalence():
    """On >= 100 random finite subset pairs of a 20-point real-valued
    instance, the set distance equals an independent double-loop max-min
    oracle exactly, is symmetric, and vanishes on identical sets."""
    with criterion(6, "set distance against the double-loop oracle"):
        module = real_module()
        structure = strict_order_structure(module)
        points = tuple(Fraction(k, 3) for k in range(20))
        space = ConeMetricSpace("line20", structure, lambda x, y: abs(x - y),
                                points=points)
        assert len(points) == 20

        def oracle(set_a, set_b):
            d = space.distance
            left = max(min(d(x, y) for y in set_b) for x in set_a)
            right = max(min(d(y, x) for x in set_a) for y in set_b)
            return max(left, right)

        rng = random.Random(20260809)
        for trial in range(100):
            a = tuple(rng.sample(points, rng.randint(1, 6)))
            b = tuple(rng.sample(points, rng.randint(1, 6)))
            h = hausdorff(space, a, b)
            assert h == oracle(a, b), (trial, a, b)
            assert h == hausdorff(space, b, a), trial
            assert hausdorff(space, a, a) == Fraction(0), trial


def test_criterion_7_convergence_strength_ordering():
    """Sup-coordinate decay always certifies dominance convergence with a
    threshold no larger than the coordinatewise one, and the two-sided
    phrasing produces identical thresholds on every tested pair."""
    with criterion(7, "convergence-strength ordering and two-sided identity"):
        bundles = builtin_bundles()
        n_max = 400
        for name in ("cone-2", "cone-3"):
            b = bundles[name]
            t, g = b.structure, b.module.group
            for s in _theta_families(b):
                for eps in b.eps_family:
                    eps = g.coerce(eps)
                    floor = min(eps)

                    def max_coord(n):
                        return max(s.term(n))

                    viol = [n for n in range(1, n_max + 1)
                            if not max_coord(n) < floor]
                    assert not viol or viol[-1] < n_max, (name, s.name)
                    coord_n = viol[-1] if viol else 0
                    out = verify_convergence(t, s, g.identity, [eps], n_max)[0]
                    assert is_certificate(out), (name, s.name)
                    assert out.threshold <= coord_n, (name, s.name)

        for name in ("real-line", "cone-2", "cone-3"):
            b = bundles[name]
            t, g = b.structure, b.module.group
            for s in _theta_families(b):
                one = verify_convergence(t, s, g.identity, b.eps_family, n_max)
                two = verify_convergence_twosided(t, s, g.identity,
                                                  b.eps_family, n_max)
                assert [o.threshold for o in one] == [o.threshold for o in two], \
                    (name, s.name)
