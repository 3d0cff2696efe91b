import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordermetric import (
    ALL_CHECKS,
    Budgets,
    ConvergenceCertificate,
    ConvergenceFailure,
    DomainError,
    PositiveSequence,
    SamplePlan,
    SuiteSpec,
    builtin_bundles,
    check_limit_uniqueness,
    check_regularity,
    check_topo_laws,
    constant,
    default_suite,
    from_function,
    from_terms,
    geometric,
    harmonic,
    inverse_square,
    is_certificate,
    run_suite,
    sum_convergence,
    sum_of,
    sandwich_convergence,
    verify_convergence,
    verify_convergence_twosided,
)
from ordermetric import harness, order_core, topo
from ordermetric.instance_files import parse_element, parse_element_list
from ordermetric.topo import (
    PreconditionViolation,
    SeqAtom,
    TopoStructure,
    _interior_below,
    _split_tolerance,
    _validate_eps,
)
from test_finite_tables import _rationals


def brute_threshold(t, seq, limit, eps, horizon=4000):
    """Independent oracle: last violating index of the sandwich by direct scan."""
    g = t.group
    last = 0
    for n in range(1, horizon + 1):
        diff = g.sub(seq.term(n), limit)
        if not (g.is_nonneg(diff) and t.ll(diff, eps)):
            last = n
    return last


@pytest.mark.parametrize("name, witness, halved_edges", [
    ("real-line", "1", "0; 1/2; -1/2; 1/4; -1/4; 7/6"),
    ("three-point", "1", "0; 1/2; -1/2; 1/4; -1/4; 7/6"),
    ("cone-2", "(1, 1)",
     "(0, 0); (1/2, 1/2); (-1/2, -1/2); (1/2, 0); (0, 1/2); (1/2, -1/2); (1/4, 1/4)"),
    ("cone-3", "(1, 1, 1)",
     "(0, 0, 0); (1/2, 1/2, 1/2); (-1/2, -1/2, -1/2); (1/2, 0, 0); (0, 1/2, 0); "
     "(0, 0, 1/2); (1/2, -1/2, -1/2); (1/4, 1/4, 1/4)"),
])
def test_a_structure_takes_its_group_witness_and_shrink_from_its_module(
        name, witness, halved_edges):
    assert [f.name for f in dataclasses.fields(TopoStructure)] == [
        "name", "module", "strictly_below", "interior_sampler"]
    bundle = builtin_bundles()[name]
    for t in (bundle.structure, bundle.strict_twin):
        g = t.group
        assert g is t.module.group is bundle.module.group
        halved = [t.shrink(e) for e in g.edge_elements]
        assert t.positivity_witness == parse_element(witness)
        assert halved == list(parse_element_list(halved_edges))
        assert all(type(c) is Fraction
                   for e in [t.positivity_witness, *halved] for c in g.coords(e))


def test_topo_laws_pass(rstruct, cstruct2, cstruct3, plan):
    for t in (rstruct, cstruct2, cstruct3):
        report = check_topo_laws(t, plan)
        assert report.passed, report.summary()


def test_dominance_differs_from_strict_order(cstruct2, cmod2):
    g = cmod2.group
    a, b = (Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))
    assert g.lt(a, b)
    assert not cstruct2.ll(a, b)
    assert check_topo_laws(cstruct2, SamplePlan(seed=1, count=50)) \
        .result("strictness-gap").passed


def test_harmonic_threshold_matches_oracle(cstruct2, cmod2):
    s = harmonic(cmod2, (1, 1))
    eps = (Fraction(1, 10), Fraction(1, 10))
    out = verify_convergence(cstruct2, s, (0, 0), [eps], 100)[0]
    assert isinstance(out, ConvergenceCertificate)
    assert out.analytic
    assert out.threshold == brute_threshold(cstruct2, s, cmod2.group.identity, eps)
    assert out.threshold == 10


def test_constant_sequence_threshold_zero(rstruct, rmod):
    s = constant(rmod, Fraction(0))
    for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)):
        out = verify_convergence(rstruct, s, 0, [eps], 50)[0]
        assert is_certificate(out) and out.threshold == 0


def test_nonmonotone_bumpy_sequence_fails_at_even_index(cstruct2, cmod2):
    def term(n):
        v = Fraction(1, n) + (1 if n % 2 == 0 else 0)
        return (v, v)

    s = from_function(cmod2, term, 100, name="bumpy")
    eps = (Fraction(1, 2), Fraction(1, 2))
    out = verify_convergence(cstruct2, s, (0, 0), [eps], 100)[0]
    assert isinstance(out, ConvergenceFailure)
    assert out.last_violation % 2 == 0
    assert out.last_violation == 100


def test_rejects_limit_outside_nonnegative_part(rstruct, rmod):
    s = harmonic(rmod, 1)
    with pytest.raises(Exception):
        verify_convergence(rstruct, s, Fraction(-1), [Fraction(1, 10)], 50)


def test_rejects_non_dominating_tolerance(rstruct, rmod):
    s = harmonic(rmod, 1)
    with pytest.raises(ValueError):
        verify_convergence(rstruct, s, 0, [Fraction(0)], 50)


# -- limit uniqueness -------------------------------------------------------


def test_limit_uniqueness_same_limit_passes(rstruct, rmod):
    s = harmonic(rmod, 1)
    res = check_limit_uniqueness(rstruct, s, 0, 0, [Fraction(1, 10)], 150)
    assert res.candidate_is_limit is True


def test_limit_uniqueness_refutes_positive_candidate(rstruct, rmod):
    s = harmonic(rmod, 1)
    res = check_limit_uniqueness(rstruct, s, 0, Fraction(1, 100),
                                 [Fraction(1, 10)], 200)
    assert res.candidate_is_limit is False
    # 1/n sinks below 1/100 exactly at n = 101
    assert "n=101" in res.witness


def test_limit_uniqueness_vector(cstruct2, cmod2):
    s = harmonic(cmod2, (1, 2))
    ok = check_limit_uniqueness(cstruct2, s, (0, 0), (0, 0),
                                [(Fraction(1, 10), Fraction(1, 10))], 150)
    assert ok.candidate_is_limit is True
    bad = check_limit_uniqueness(cstruct2, s, (0, 0), (Fraction(1, 50), Fraction(1, 50)),
                                 [(Fraction(1, 10), Fraction(1, 10))], 150)
    assert bad.candidate_is_limit is False


# -- sums -------------------------------------------------------------------


def test_sum_convergence_closed_forms(rstruct, rmod):
    outs = sum_convergence(rstruct, harmonic(rmod, 1), inverse_square(rmod, 1),
                           [Fraction(1, 10)], 200)
    assert all(is_certificate(o) for o in outs)
    assert outs[0].analytic
    # the split threshold must actually cover the sum: re-verify directly
    total = sum_of(harmonic(rmod, 1), inverse_square(rmod, 1))
    assert brute_threshold(rstruct, total, Fraction(0), Fraction(1, 10)) <= outs[0].threshold


def test_sum_of_zero_constants_threshold_zero(rstruct, rmod):
    z = constant(rmod, 0)
    outs = sum_convergence(rstruct, z, z, [Fraction(1, 4)], 50)
    assert outs[0].threshold == 0


def test_sum_convergence_axis_sequences(cstruct2, cmod2):
    s1 = harmonic(cmod2, (1, 0))
    s2 = harmonic(cmod2, (0, 1))
    outs = sum_convergence(cstruct2, s1, s2,
                           [(Fraction(1, 10), Fraction(1, 10))], 200)
    assert all(is_certificate(o) for o in outs)


# -- sandwich ---------------------------------------------------------------


def test_sandwich_dominated_pair(rstruct, rmod):
    lower = harmonic(rmod, 1)          # 1/n
    upper = harmonic(rmod, 2)          # 2/n
    outs = sandwich_convergence(rstruct, lower, upper, 0, [Fraction(1, 10)], 200)
    assert all(is_certificate(o) for o in outs)
    # difference is 1/n, so its own threshold at 1/10 is 10
    assert outs[0].threshold == 10
    assert outs[0].analytic


def test_sandwich_equal_sequences_zero_threshold(rstruct, rmod):
    s = harmonic(rmod, 1)
    outs = sandwich_convergence(rstruct, s, s, 0, [Fraction(1, 10)], 100)
    assert outs[0].threshold == 0


def test_sandwich_shifted_limit(rstruct, rmod):
    lower = constant(rmod, 1)
    upper = sum_of(constant(rmod, 1), harmonic(rmod, 1))  # 1 + 1/n
    outs = sandwich_convergence(rstruct, lower, upper, 1, [Fraction(1, 10)], 100)
    assert all(is_certificate(o) for o in outs)
    assert outs[0].threshold == 10


def test_sandwich_precondition_violation_reports_index(rstruct, rmod):
    lower = constant(rmod, Fraction(1, 2))
    upper = harmonic(rmod, 1)  # drops below 1/2 from n = 3
    with pytest.raises(PreconditionViolation) as exc:
        sandwich_convergence(rstruct, lower, upper, 0, [Fraction(1, 10)], 50)
    assert exc.value.index == 3


# -- sums and sandwiches against direct scans -------------------------------


def reference_sum(t, s1, s2, eps_family, n_max):
    """Reference sum convergence: an explicit summed sequence from
    ``sum_of``, rescanned directly over the window."""
    g = t.group
    family = _validate_eps(t, eps_family)
    total = sum_of(s1, s2)
    outcomes = []
    for eps in family:
        eta = _split_tolerance(t, eps)
        parts = []
        for s, tol in ((s1, eta), (s2, g.sub(eps, eta))):
            out = verify_convergence(t, s, g.identity, [tol], n_max)[0]
            if not is_certificate(out):
                outcomes.append(ConvergenceFailure(
                    eps, out.first_violation, out.last_violation,
                    reason="component failed on the split tolerance"))
                break
            parts.append(out)
        else:
            n_at = max(p.threshold for p in parts)
            cap = total.cap(n_max)
            bad = [n for n in range(n_at + 1, cap + 1)
                   if not t.sandwich(g.sub(total.term(n), g.identity), eps)]
            if bad:
                outcomes.append(ConvergenceFailure(eps, bad[0], bad[-1],
                                                   reason="sum sandwich failed"))
            else:
                outcomes.append(ConvergenceCertificate(
                    eps, n_at, cap, analytic=all(p.analytic for p in parts)))
    return outcomes


def reference_sandwich(t, lower, upper, limit, eps_family, n_max):
    """Reference sandwich convergence: the upper sequence's outcomes for the
    whole family, then a direct scan of the difference."""
    g = t.group
    limit = g.coerce(limit)
    cap = min(lower.cap(n_max), upper.cap(n_max))
    for n in range(1, cap + 1):
        if not g.geq(upper.term(n), lower.term(n)):
            raise PreconditionViolation(f"upper term below lower term at n={n}", index=n)
        if not g.geq(lower.term(n), limit):
            raise PreconditionViolation(f"lower term below the limit at n={n}", index=n)
    if not g.is_nonneg(limit):
        raise PreconditionViolation("limit is not in the nonnegative part")
    family = _validate_eps(t, eps_family)
    outcomes = []
    for eps, base in zip(family, verify_convergence(t, upper, limit, family, n_max)):
        if not is_certificate(base):
            outcomes.append(base)
            continue
        bad = [n for n in range(1, cap + 1)
               if not t.sandwich(g.sub(upper.term(n), lower.term(n)), eps)]
        last = bad[-1] if bad else 0
        if bad and last == cap:
            scan = ConvergenceFailure(eps, bad[0], last,
                                      reason="sandwich still failing at the end of the window")
        else:
            scan = ConvergenceCertificate(eps, last, cap)
        if not base.analytic:
            outcomes.append(scan)
        elif is_certificate(scan) and base.threshold <= cap:
            outcomes.append(ConvergenceCertificate(eps, scan.threshold, cap, analytic=True))
        elif is_certificate(scan) or scan.last_violation <= base.threshold:
            outcomes.append(ConvergenceCertificate(eps, base.threshold, cap, analytic=True))
        else:
            outcomes.append(ConvergenceFailure(
                eps, scan.first_violation, scan.last_violation,
                reason="difference violates the tolerance past the dominated tail"))
    return outcomes


def _element(dim):
    frac = st.builds(Fraction, st.integers(0, 6), st.integers(1, 4))
    return frac if dim == 1 else st.tuples(frac, frac)


def _sequence_spec(dim):
    """A closed form of one to three atoms (constants included, so some do
    not tend to the identity) or an explicit prefix, often not decreasing,
    whose run of trailing zeros lets some prefixes converge."""
    ratio = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2, 3)])
    # constants are drawn rarely, so that most sums and sandwiches can converge
    kind = st.sampled_from(["constant", "harmonic", "harmonic", "inverse-square",
                            "inverse-square", "geometric", "geometric"])
    atom = st.tuples(kind, _element(dim), ratio)
    zero = Fraction(0) if dim == 1 else (Fraction(0), Fraction(0))
    prefix = st.tuples(st.lists(_element(dim), min_size=1, max_size=20),
                       st.lists(st.just(zero), max_size=10)).map(lambda p: p[0] + p[1])
    return st.one_of(st.tuples(st.just("closed"), st.lists(atom, min_size=1, max_size=3)),
                     st.tuples(st.just("explicit"), prefix))


def _build_sequence(module, spec):
    kind, parts = spec
    if kind == "explicit":
        return from_terms(module, parts)
    return PositiveSequence(module, "closed", atoms=tuple(
        SeqAtom(k, module.group.coerce(c), r if k == "geometric" else None)
        for k, c, r in parts))


def _refusing_fifths(t):
    """``t`` with dominance refused wherever the lower side has a coordinate
    whose denominator is a multiple of 5: an unsound structure, so the
    analytic thresholds of c/n fail their window re-check."""
    def strictly_below(a, b):
        coords = a if isinstance(a, tuple) else (a,)
        return t.strictly_below(a, b) and all(c.denominator % 5 for c in coords)
    return dataclasses.replace(t, strictly_below=strictly_below)


def _outcome_or_error(fn):
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_sum_and_sandwich_match_the_direct_scans(rstruct, cstruct2, dim, data):
    t = rstruct if dim == 1 else cstruct2
    if data.draw(st.booleans()):
        t = _refusing_fifths(t)
    module = t.module
    scale = st.sampled_from([Fraction(3), Fraction(1, 2), Fraction(1, 10), Fraction(1, 37)])
    eps_family = data.draw(st.lists(scale if dim == 1 else st.tuples(scale, scale),
                                    min_size=1, max_size=3))
    n_max = data.draw(st.integers(1, 60))
    spec1, spec2 = data.draw(_sequence_spec(dim)), data.draw(_sequence_spec(dim))
    dominated = data.draw(st.booleans())
    limit = data.draw(st.one_of(st.just(module.group.identity), _element(dim)))

    def inputs():
        # fresh sequences per side, so neither reads the other's memos
        s1, s2 = _build_sequence(module, spec1), _build_sequence(module, spec2)
        return s1, s2, (sum_of(s1, s2) if dominated else s2)

    s1, s2, _ = inputs()
    expected = reference_sum(t, s1, s2, eps_family, n_max)
    s1, s2, _ = inputs()
    assert sum_convergence(t, s1, s2, eps_family, n_max) == expected

    lower, _, upper = inputs()
    expected = _outcome_or_error(
        lambda: reference_sandwich(t, lower, upper, limit, eps_family, n_max))
    lower, _, upper = inputs()
    assert _outcome_or_error(
        lambda: sandwich_convergence(t, lower, upper, limit, eps_family, n_max)) == expected


def test_window_check_failure_names_the_last_violation_in_the_window(rstruct, rmod):
    # 1/n << 1/10 from n = 11 on, so the window is 11..43, in which the
    # unsound structure refuses 1/15, 1/20, ..., 1/40
    t = _refusing_fifths(rstruct)
    out = verify_convergence(t, harmonic(rmod, 1), 0, [Fraction(1, 10)], 43)[0]
    assert out == ConvergenceFailure(Fraction(1, 10), 15, 40, reason="window check failed")


def _refusing_thirds_of_sums(t):
    """Real ``t`` with dominance refused wherever the lower side is p/q with
    p > 1 and q a multiple of 3. Unit fractions such as 1/n and 1/n^2 keep
    their thresholds, while the sum (n+1)/n^2 and the difference (n-1)/n^2
    of those two are refused at every n divisible by 3: the structure breaks
    t3, so the sum and the difference fail though both parts converge."""
    def strictly_below(a, b):
        return t.strictly_below(a, b) and (a.numerator <= 1 or a.denominator % 3)
    return dataclasses.replace(t, strictly_below=strictly_below)


def test_sum_sandwich_failure_names_the_first_and_last_bad_index(rstruct, rmod):
    # both halves of 1/10 are 1/20: 1/n certifies past 20 and 1/n^2 past 4,
    # so the sum is re-checked over 21..50 and refused at 21, 24, ..., 48
    t = _refusing_thirds_of_sums(rstruct)
    out = sum_convergence(t, harmonic(rmod, 1), inverse_square(rmod, 1), [Fraction(1, 10)], 50)
    assert out == [ConvergenceFailure(Fraction(1, 10), 21, 48, reason="sum sandwich failed")]


def test_sandwich_failure_past_the_dominated_tail(rstruct, rmod):
    # 1/n certifies past 10; the difference (n-1)/n^2 is at least 1/10 up to
    # n = 8 and is refused at every multiple of 3 up to the window end 48
    t = _refusing_thirds_of_sums(rstruct)
    out = sandwich_convergence(t, inverse_square(rmod, 1), harmonic(rmod, 1), 0,
                               [Fraction(1, 10)], 48)
    assert out == [ConvergenceFailure(
        Fraction(1, 10), 2, 48,
        reason="difference violates the tolerance past the dominated tail")]


# -- regularity ------------------------------------------------------------


def test_regularity_closed_forms(rstruct, rmod):
    seqs = [harmonic(rmod, 1), constant(rmod, Fraction(3, 4)),
            sum_of(constant(rmod, 1), harmonic(rmod, 1))]
    report = check_regularity(rstruct, seqs, [Fraction(1, 10)], 150)
    assert report.all_convergent
    limits = [r.limit for r in report.rows]
    assert limits == [Fraction(0), Fraction(3, 4), Fraction(1)]


def test_regularity_vector_limit(cstruct2, cmod2):
    s = sum_of(constant(cmod2, (0, 1)), harmonic(cmod2, (1, 1)))  # (1/n, 1 + 1/n)
    report = check_regularity(cstruct2, [s], [(Fraction(1, 10), Fraction(1, 10))], 150)
    assert report.all_convergent
    assert report.rows[0].limit == (Fraction(0), Fraction(1))


def test_regularity_flags_non_decreasing(rstruct, rmod):
    s = from_function(rmod, lambda n: Fraction(n % 3, 3), 30, name="sawtooth")
    report = check_regularity(rstruct, [s], [Fraction(1, 10)], 30)
    assert report.rows[0].status == "not-decreasing"
    assert report.rows[0].first_bad_index is not None


def test_regularity_explicit_prefix_limit_is_its_window_end(rstruct, rmod, cstruct2, cmod2):
    """A decreasing explicit prefix that the window covers is a descending
    chain, so its limit is its last term: with a constant tail, without one,
    and for a single term, on the line and on cone-2."""
    q = Fraction
    line = [from_terms(rmod, [1, q(1, 2), q(1, 4), q(1, 4), q(1, 4)], "tail"),
            from_terms(rmod, [1, q(1, 2), q(1, 3), q(1, 4)], "strict"),
            from_terms(rmod, [q(2, 3)], "single")]
    report = check_regularity(rstruct, line, [q(1, 10)], 150)
    assert [(r.limit, r.status) for r in report.rows] == [
        (q(1, 4), "converges"), (q(1, 4), "converges"), (q(2, 3), "converges")]
    cone = [from_terms(cmod2, [(1, 1), (q(1, 2), 1), (0, q(1, 2)), (0, q(1, 2))], "tail"),
            from_terms(cmod2, [(1, 2), (q(1, 2), 2), (q(1, 2), 1), (q(1, 3), q(1, 2))], "strict"),
            from_terms(cmod2, [(q(1, 2), q(3, 4))], "single")]
    tol = [(q(1, 10), q(1, 10))]
    report = check_regularity(cstruct2, cone, tol, 150)
    assert [(r.limit, r.status) for r in report.rows] == [
        ((0, q(1, 2)), "converges"), ((q(1, 3), q(1, 2)), "converges"),
        ((q(1, 2), q(3, 4)), "converges")]
    # a window that ends before the prefix does names no limit: the terms
    # past it may still fall, as (1/3, 1/2) does here
    report = check_regularity(cstruct2, cone[1:2], tol, 2)
    assert [(r.first_bad_index, r.limit, r.status) for r in report.rows] == [
        (None, None, "unresolved")]
    report = check_regularity(rstruct, line[:2], [q(1, 10)], 4)
    assert [(r.limit, r.status) for r in report.rows] == [
        (None, "unresolved"), (q(1, 4), "converges")]
    # a decrease inside the window is still found first
    rising = from_terms(rmod, [q(1, 2), 1, q(1, 4)], "rising")
    report = check_regularity(rstruct, [rising], [q(1, 10)], 2)
    assert [(r.first_bad_index, r.status) for r in report.rows] == [(1, "not-decreasing")]


# -- two-sided characterization --------------------------------------------


@pytest.mark.parametrize("coeff", [(1, 1), (2, 3), (1, 5)])
def test_two_sided_threshold_identical(cstruct2, cmod2, coeff):
    s = harmonic(cmod2, coeff)
    fam = [(Fraction(1, 7), Fraction(1, 7)), (Fraction(1, 2), Fraction(1, 3))]
    one = verify_convergence(cstruct2, s, (0, 0), fam, 120)
    two = verify_convergence_twosided(cstruct2, s, (0, 0), fam, 120)
    assert [o.threshold for o in one] == [o.threshold for o in two]


@given(num=st.integers(min_value=1, max_value=30),
       den=st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_geometric_threshold_matches_brute_scan(rstruct, rmod, num, den):
    s = geometric(rmod, num, Fraction(1, 2))
    eps = Fraction(1, den)
    out = verify_convergence(rstruct, s, 0, [eps], 200)[0]
    assert is_certificate(out)
    assert out.threshold == brute_threshold(rstruct, s, Fraction(0), eps, horizon=300)


# -- sequence-layer kernel ---------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.tuples(_rationals, _rationals),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(st.tuples(*[_rationals] * n), st.tuples(*[_rationals] * n)))))
def test_interior_below_matches_subtraction_form(pair):
    # ints and Fractions mixed, so the int fallback is pinned too
    a, b = pair
    diff = tuple(y - x for x, y in zip(a, b)) if isinstance(a, tuple) else (b - a,)
    assert _interior_below(a, b) == all(c > 0 for c in diff)


def _kernel_sequences(module, coefficient):
    return {
        "constant": lambda: constant(module, coefficient),
        "harmonic": lambda: harmonic(module, coefficient),
        "inverse-square": lambda: inverse_square(module, coefficient),
        "geometric": lambda: geometric(module, coefficient, Fraction(2, 3)),
        "sum": lambda: sum_of(harmonic(module, coefficient),
                              geometric(module, coefficient, Fraction(1, 2))),
    }


@pytest.mark.parametrize("kind", ["constant", "harmonic", "inverse-square", "geometric", "sum"])
def test_memoized_terms_match_a_fresh_sequence(cmod2, kind):
    make = _kernel_sequences(cmod2, (1, 3))[kind]
    s = make()
    indices = list(range(1, 251)) + [1 << 20]
    for n in indices:
        s.term(n)
    for n in indices:  # served from the memo now
        assert s.term(n) == make().term(n), n


def _count_atom_values(monkeypatch):
    calls = [0]
    value = SeqAtom.value

    def counting(self, module, n):
        calls[0] += 1
        return value(self, module, n)

    monkeypatch.setattr(SeqAtom, "value", counting)
    return calls


def _counting_structure(t):
    calls = [0]

    def strictly_below(a, b):
        calls[0] += 1
        return t.strictly_below(a, b)

    return dataclasses.replace(t, strictly_below=strictly_below), calls


def test_repeated_convergence_evaluates_no_atom(cstruct2, cmod2, monkeypatch):
    atoms = _count_atom_values(monkeypatch)
    s = sum_of(harmonic(cmod2, (1, 1)), inverse_square(cmod2, (2, 1)))
    fam = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 10), Fraction(1, 10))]
    first = verify_convergence(cstruct2, s, (0, 0), fam, 150)
    assert atoms[0] > 0
    atoms[0] = 0
    again = verify_convergence(cstruct2, s, (0, 0), fam, 150)
    assert atoms[0] == 0
    assert again == first


@pytest.mark.parametrize("fact", ["sum", "sandwich"])
def test_repeated_sum_and_sandwich_evaluate_no_atom(cstruct2, cmod2, monkeypatch, fact):
    atoms = _count_atom_values(monkeypatch)
    h = harmonic(cmod2, (1, 1))
    s = sum_of(h, inverse_square(cmod2, (2, 1)))
    fam = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 10), Fraction(1, 10))]
    run = {"sum": lambda: sum_convergence(cstruct2, h, s, fam, 150),
           "sandwich": lambda: sandwich_convergence(cstruct2, h, s, (0, 0), fam, 150)}[fact]
    first = run()
    assert atoms[0] > 0
    atoms[0] = 0
    assert run() == first
    assert atoms[0] == 0


def test_replaced_structure_and_two_sided_are_evaluated_afresh(cstruct2, cmod2):
    t, calls = _counting_structure(cstruct2)
    s = harmonic(cmod2, (1, 2))
    fam = [(Fraction(1, 10), Fraction(1, 10))]
    first = verify_convergence(t, s, (0, 0), fam, 100)
    assert calls[0] > 0
    calls[0] = 0
    verify_convergence(t, s, (0, 0), fam, 100)
    assert calls[0] == len(fam)  # the tolerance check only: memoized outcome
    calls[0] = 0
    two = verify_convergence_twosided(t, s, (0, 0), fam, 100)
    assert calls[0] > len(fam)  # the other phrasing has its own key
    assert two[0].threshold == first[0].threshold
    copy, copy_calls = _counting_structure(t)
    assert verify_convergence(copy, s, (0, 0), fam, 100) == first
    assert copy_calls[0] > len(fam)  # a replaced structure is a new key


def _batch_facts(m):
    """Each fact on sequences built afresh per call, so no call reads
    another's memo. Twenty terms 1/4 (also as 1/8 + 1/8, and as 1/4 - 0)
    certify at 1 but not at 1/8; the closed forms 1/n and 1/n^2 certify at
    both over a sound structure."""
    def prefix(c):
        return from_terms(m, [Fraction(c)] * 20)
    return {
        "one-sided": lambda t, fam: [
            verify_convergence(t, prefix(Fraction(1, 4)), 0, fam, 30),
            verify_convergence(t, harmonic(m, 1), 0, fam, 30)],
        "sum": lambda t, fam: [
            sum_convergence(t, prefix(Fraction(1, 8)), prefix(Fraction(1, 8)), fam, 30),
            sum_convergence(t, harmonic(m, 1), inverse_square(m, 1), fam, 30)],
        "sandwich": lambda t, fam: [
            sandwich_convergence(t, prefix(0), prefix(Fraction(1, 4)), 0, fam, 30),
            sandwich_convergence(t, inverse_square(m, 1), harmonic(m, 1), 0, fam, 30)],
    }


@pytest.mark.parametrize("unsound", [False, True])
@pytest.mark.parametrize("fact", ["one-sided", "sum", "sandwich"])
def test_a_batched_family_matches_one_tolerance_calls(rstruct, rmod, fact, unsound):
    # the unsound structure fails the closed-form sums and differences
    t = _refusing_thirds_of_sums(rstruct) if unsound else rstruct
    run = _batch_facts(rmod)[fact]
    # a failing tolerance before a passing one, and a repeat
    family = [Fraction(1, 8), Fraction(1), Fraction(1, 10), Fraction(1, 8)]
    singles = [run(t, [eps]) for eps in family]
    assert run(t, family) == [[one[k][0] for one in singles] for k in range(2)]
    # only the second tolerance fails on the prefixes
    assert [is_certificate(o) for o in run(t, family[1::-1])[0]] == [True, False]


def test_a_failed_first_summand_keeps_its_reason_and_indices(rstruct, rmod):
    # both halves of 1/8 are 1/16: the first summand fails over 4..20 and
    # the second over 1..20, and the sum reports the first
    first = from_terms(rmod, [Fraction(0)] * 3 + [Fraction(1, 8)] * 17)
    second = from_terms(rmod, [Fraction(1, 8)] * 20)
    out = sum_convergence(rstruct, first, second, [Fraction(1, 2), Fraction(1, 8)], 30)
    assert is_certificate(out[0])
    assert out[1] == ConvergenceFailure(Fraction(1, 8), 4, 20,
                                        reason="component failed on the split tolerance")


def test_window_values_are_not_kept_on_the_sequence(cstruct2, cmod2):
    # the window values of one call must not outlive it: memos on the
    # sequence raised the suite benchmark's peak RSS by 8% and 13%
    declared = {"module", "name", "atoms", "explicit", "_terms", "_outcomes"}
    assert {f.name for f in dataclasses.fields(PositiveSequence)} == declared
    h = harmonic(cmod2, (1, 1))
    s = sum_of(h, inverse_square(cmod2, (2, 1)))
    p = from_terms(cmod2, [(Fraction(1, 4), Fraction(1, 4))] * 20)
    fam = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 10), Fraction(1, 10))]
    verify_convergence(cstruct2, s, (0, 0), fam, 150)
    verify_convergence(cstruct2, p, (0, 0), fam, 30)
    sum_convergence(cstruct2, h, s, fam, 150)
    sandwich_convergence(cstruct2, h, s, (0, 0), fam, 150)
    for seq in (h, s, p):
        assert set(vars(seq)) == declared
        assert all(isinstance(o, (ConvergenceCertificate, ConvergenceFailure))
                   for o in seq._outcomes.values())
        fresh = dataclasses.replace(seq)  # empty memos
        assert all(isinstance(n, int) and v == fresh.term(n) for n, v in seq._terms.items())
    assert p._terms == {}


def test_bad_limit_and_tolerance_raise_on_every_call(rstruct, rmod):
    s = harmonic(rmod, 1)
    low = constant(rmod, Fraction(1, 2))  # s drops below it from n = 3
    verify_convergence(rstruct, s, 0, [Fraction(1, 2)], 50)
    sum_convergence(rstruct, s, s, [Fraction(1, 2)], 50)
    sandwich_convergence(rstruct, s, s, 0, [Fraction(1, 2)], 50)
    for _ in range(2):
        with pytest.raises(ValueError, match="strictly dominate"):
            verify_convergence(rstruct, s, 0, [Fraction(1, 2), 0], 50)
        with pytest.raises(DomainError):
            verify_convergence(rstruct, s, -1, [Fraction(1, 2)], 50)
        with pytest.raises(ValueError, match="strictly dominate"):
            sum_convergence(rstruct, s, s, [Fraction(1, 2), 0], 50)
        with pytest.raises(ValueError, match="strictly dominate"):
            sandwich_convergence(rstruct, s, s, 0, [Fraction(1, 2), 0], 50)
        with pytest.raises(PreconditionViolation, match="n=3"):
            sandwich_convergence(rstruct, low, s, 0, [Fraction(1, 2)], 50)


SEQ_CHECKS = tuple(c for c in ALL_CHECKS if c.startswith("seq/"))


def test_seq_machine_rows_match_golden():
    golden = (Path(__file__).parent / "data" / "suite-seq-default-seed0.rows").read_text(
        encoding="utf-8")
    assert run_suite(default_suite(checks=SEQ_CHECKS)).to_text("machine-rows") == golden


# Fraction constructions of the spec below before the kernel memoized
# terms and outcomes, before each sum was built once per run, and before
# each window value was computed once per tolerance family; the counts are
# deterministic, unlike wall clock. A construction is a call of
# Fraction.__new__ or of order_core._q, which builds the built-in
# instances' results without it
SEQ_FRACTIONS_BEFORE_KERNEL = 536_815
SEQ_FRACTIONS_BEFORE_SHARED_SUMS = 92_331
SEQ_FRACTIONS_BEFORE_WINDOWS = 76_656


def test_seq_rows_construct_at_most_55_percent_of_the_fractions(monkeypatch):
    spec = SuiteSpec(instances=("real-line", "cone-2"), checks=SEQ_CHECKS,
                     budgets=Budgets(samples=150, n_max=120))
    bundles = builtin_bundles()
    count, sums = [0], [0]
    raw_new = Fraction.__dict__["__new__"].__func__
    raw_q = order_core._q

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return raw_new(cls, *args, **kwargs)

    def counting_q(n, d):
        count[0] += 1
        return raw_q(n, d)

    def counting_sum_of(*args, **kwargs):
        sums[0] += 1
        return sum_of(*args, **kwargs)

    for mod in (topo, harness):
        monkeypatch.setattr(mod, "sum_of", counting_sum_of)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(order_core, "_q", counting_q)
    report = run_suite(spec, bundles)
    monkeypatch.undo()
    assert report.ok
    assert count[0] <= 0.55 * SEQ_FRACTIONS_BEFORE_KERNEL, count[0]
    assert count[0] <= 0.9 * SEQ_FRACTIONS_BEFORE_SHARED_SUMS, count[0]
    assert count[0] <= 0.6 * SEQ_FRACTIONS_BEFORE_WINDOWS, count[0]
    # per instance: five sums built once and shared by seq/sum and
    # seq/sandwich, plus the shifted sequence of seq/regularity
    assert sums[0] == 12
