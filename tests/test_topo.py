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
    SamplePlan,
    SuiteSpec,
    builtin_bundles,
    check_limit_uniqueness,
    check_regularity,
    check_topo_laws,
    constant,
    default_suite,
    finite_infimum,
    from_function,
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
from ordermetric.topo import PreconditionViolation, SeqAtom, _interior_below


def brute_threshold(t, seq, limit, eps, horizon=4000):
    """Independent oracle: last violating index of the sandwich by direct scan."""
    g = t.group
    last = 0
    for n in range(1, horizon + 1):
        diff = g.sub(seq.term(n), limit)
        if not (g.is_nonneg(diff) and t.ll(diff, eps)):
            last = n
    return last


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


# -- regularity and infimum -------------------------------------------------


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


def test_finite_infimum_vector_meet(cmod2):
    g = cmod2.group
    inf = finite_infimum(g, [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))])
    assert inf == (Fraction(1), Fraction(1))
    # below every member, above the obvious lower bound
    assert g.leq(inf, (Fraction(1), Fraction(2)))
    assert g.leq((Fraction(0), Fraction(0)), inf)


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


def test_interior_below_matches_subtraction_form(rstruct, cstruct2, cstruct3):
    for t in (rstruct, cstruct2, cstruct3):
        g = t.group
        for a in g.edge_elements:
            for b in g.edge_elements:
                diff = g.sub(b, a)
                coords = diff if isinstance(diff, tuple) else (diff,)
                assert _interior_below(a, b) == all(c > 0 for c in coords), (a, b)


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


def test_bad_limit_and_tolerance_raise_on_every_call(rstruct, rmod):
    s = harmonic(rmod, 1)
    verify_convergence(rstruct, s, 0, [Fraction(1, 2)], 50)
    for _ in range(2):
        with pytest.raises(ValueError, match="strictly dominate"):
            verify_convergence(rstruct, s, 0, [Fraction(1, 2), 0], 50)
        with pytest.raises(DomainError):
            verify_convergence(rstruct, s, -1, [Fraction(1, 2)], 50)


SEQ_CHECKS = tuple(c for c in ALL_CHECKS if c.startswith("seq/"))


def test_seq_machine_rows_match_golden():
    golden = (Path(__file__).parent / "data" / "suite-seq-default-seed0.rows").read_text(
        encoding="utf-8")
    assert run_suite(default_suite(checks=SEQ_CHECKS)).to_text("machine-rows") == golden


# Fraction constructions of the spec below before the kernel memoized
# terms and outcomes; the count is deterministic, unlike wall clock
SEQ_FRACTIONS_BEFORE_KERNEL = 536_815


def test_seq_rows_construct_at_most_55_percent_of_the_fractions(monkeypatch):
    spec = SuiteSpec(instances=("real-line", "cone-2"), checks=SEQ_CHECKS,
                     budgets=Budgets(samples=150, n_max=120))
    bundles = builtin_bundles()
    count = [0]
    raw_new = Fraction.__dict__["__new__"].__func__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return raw_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    report = run_suite(spec, bundles)
    monkeypatch.undo()
    assert report.ok
    assert count[0] <= 0.55 * SEQ_FRACTIONS_BEFORE_KERNEL, count[0]
