import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordermetric import (
    DomainError,
    IncomparableError,
    LawResult,
    Order,
    RingDescriptor,
    SamplePlan,
    builtin_bundles,
    check_group_laws,
    check_module_laws,
    compare,
    coord_cone_group,
    fault_inject,
    coord_cone_module,
    order_max,
    order_min,
    real_group,
    real_module,
)
from ordermetric.order_core import _q_abs, _q_add, _q_dist, _q_mul, _q_neg, _run_law, _run_laws

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@pytest.mark.parametrize("count", [0, -3])
def test_sample_plan_needs_a_sample(count):
    with pytest.raises(ValueError):
        SamplePlan(count=count)


def test_compare_total_order_on_reals():
    g = real_group()
    assert compare(g, 1, 2) is Order.LESS
    assert compare(g, 2, 1) is Order.GREATER
    assert compare(g, Fraction(1, 3), Fraction(1, 3)) is Order.EQUAL


def test_compare_cone_order():
    g = coord_cone_group(2)
    # difference (1, 1) has both coordinates nonnegative
    assert compare(g, (1, 2), (2, 3)) is Order.LESS
    # neither difference lands in the nonnegative orthant
    assert compare(g, (0, 1), (1, 0)) is Order.INCOMPARABLE
    assert compare(g, (1, 1), (1, 1)) is Order.EQUAL


def test_compare_rejects_foreign_elements():
    g = coord_cone_group(2)
    with pytest.raises(DomainError):
        compare(g, (1, 2, 3), (0, 0))


@pytest.mark.parametrize("make", [real_group, lambda: coord_cone_group(2),
                                  lambda: coord_cone_group(3)])
def test_group_laws_pass_on_builtins(make, plan):
    report = check_group_laws(make(), plan)
    assert report.passed, report.summary()
    for law in ("assoc", "comm", "identity", "inverse", "g1", "g1-prime"):
        assert report.result(law).checked >= plan.count


def test_corrupted_order_fails_g1_with_witness():
    g = coord_cone_group(2)
    bad = (Fraction(1), Fraction(-1))
    orig = g.cmp

    def cmp(a, b):
        if a == g.identity and b == bad:
            return Order.LESS
        if a == bad and b == g.identity:
            return Order.GREATER
        return orig(a, b)

    corrupt = dataclasses.replace(g, cmp=cmp, name="cone-2-corrupt")
    report = check_group_laws(corrupt, SamplePlan(seed=3, count=300))
    assert not report.passed
    failed = {r.law for r in report.failures()}
    assert failed & {"g1", "g1-prime", "order-antisymmetric"}
    assert all(r.witness for r in report.failures())


@pytest.mark.parametrize("make", [real_module, lambda: coord_cone_module(2),
                                  lambda: coord_cone_module(3)])
def test_module_laws_pass_on_builtins(make, plan):
    report = check_module_laws(make(), plan)
    assert report.passed, report.summary()


def test_negated_scale_fails_m1(plan):
    m = real_module()
    broken = dataclasses.replace(m, scale=lambda r, a: -r * a)
    report = check_module_laws(broken, plan)
    assert not report.result("m1").passed
    assert report.result("m1").witness


def test_inverted_ring_order_fails_r1():
    m = real_module()
    flipped = RingDescriptor(
        name="Q-flipped", zero=Fraction(0), one=Fraction(1),
        le=lambda a, b: b <= a,
        sampler=m.ring.sampler, edge_scalars=m.ring.edge_scalars)
    report = check_module_laws(dataclasses.replace(m, ring=flipped),
                               SamplePlan(seed=0, count=50))
    assert not report.result("r1").passed


def test_the_group_fixes_the_shape_of_its_elements():
    F = Fraction
    half, third = F(1, 2), F(1, 3)
    real, cone2, cone3 = real_group(), coord_cone_group(2), coord_cone_group(3)
    assert real.fill(half) is half
    assert cone2.fill(half) == (half, half)
    assert cone3.fill(third) == (third, third, third)
    assert real.coords(F(7, 3)) == (F(7, 3),)
    assert real.coords(F(0)) == (F(0),)
    assert cone2.coords((F(1), F(-1))) == (F(1), F(-1))
    assert cone3.coords((F(0), half, F(2))) == (F(0), half, F(2))
    assert [cone2.coords(cone2.fill(q)) for q in (F(0), half)] == [(F(0), F(0)), (half, half)]
    assert real.coords(real.fill(half)) == (half,)


def test_coerce_keeps_a_canonical_tuple_and_canonicalizes_the_rest():
    F = Fraction
    cone2, real = coord_cone_group(2), real_group()
    canonical = (F(1, 2), F(-3))
    assert cone2.coerce(canonical) is canonical
    for loose in ([F(1, 2), -3], (F(1, 2), -3), [1, 2]):
        out = cone2.coerce(loose)
        assert type(out) is tuple and all(type(c) is Fraction for c in out)
        assert out == tuple(F(c) for c in loose)
    assert type(real.coerce(2)) is Fraction and real.coerce(2) == 2
    for outside, group in (((F(1), F(2), F(3)), cone2), ((F(1),), cone2),
                           ((F(1), F(2)), real), ([1, 2, 3], cone2)):
        with pytest.raises(DomainError, match="is not in the carrier"):
            group.coerce(outside)


@given(a=fractions_st, b=fractions_st)
@settings(max_examples=100)
def test_exact_addition_roundtrip_scalar(a, b):
    g = real_group()
    assert g.sub(g.add(a, b), b) == a


@given(a=st.tuples(fractions_st, fractions_st), b=st.tuples(fractions_st, fractions_st))
@settings(max_examples=100)
def test_exact_addition_roundtrip_vector(a, b):
    g = coord_cone_group(2)
    assert g.sub(g.add(a, b), b) == a


@given(a=st.tuples(fractions_st, fractions_st),
       b=st.tuples(fractions_st, fractions_st),
       c=st.tuples(fractions_st, fractions_st))
@settings(max_examples=100)
def test_translation_preserves_comparison(a, b, c):
    """The whole four-way comparison is invariant under translation, which
    packages the strict law and its converse at once."""
    g = coord_cone_group(2)
    assert g.cmp(g.add(a, c), g.add(b, c)) is g.cmp(a, b)


@given(a=st.tuples(fractions_st, fractions_st), b=st.tuples(fractions_st, fractions_st))
@settings(max_examples=100)
def test_comparison_antisymmetric_consistent(a, b):
    g = coord_cone_group(2)
    assert g.cmp(a, b) is g.cmp(b, a).flipped()


def test_order_min_max_on_chain():
    g = real_group()
    vals = [Fraction(3), Fraction(1, 2), Fraction(2)]
    assert order_min(g, vals) == Fraction(1, 2)
    assert order_max(g, vals) == Fraction(3)


def test_order_min_raises_on_incomparable_pair():
    g = coord_cone_group(2)
    vals = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))]
    with pytest.raises(IncomparableError) as exc:
        order_min(g, vals)
    assert "(1, 2)" in str(exc.value) and "(2, 1)" in str(exc.value)


def test_sampling_is_deterministic():
    g = coord_cone_group(2)
    rng1, rng2 = random.Random(11), random.Random(11)
    assert [g.sampler(rng1) for _ in range(20)] == [g.sampler(rng2) for _ in range(20)]


def test_registration_requires_non_identity_element():
    g = real_group()
    with pytest.raises(DomainError):
        dataclasses.replace(g, edge_elements=(Fraction(0),))


# ---------------------------------------------------------------------------
# the law runner


def _fails_at(k):
    return lambda n: f"fails at {n}" if n == k else None


def _raises_at(k):
    def predicate(n):
        if n == k:
            raise ValueError(f"raised at {n}")
    return predicate


def _stream(n, raise_at=None):
    for i in range(1, n + 1):
        if i == raise_at:
            raise ValueError(f"stream raised at {i}")
        yield (i,)


def test_runner_gives_each_law_its_own_outcome():
    results = _run_laws(_stream(5), [("holds", lambda n: None), ("fails", _fails_at(2))])
    assert results == [LawResult("holds", True, 5), LawResult("fails", False, 2, "fails at 2")]


def test_runner_holds_a_predicate_error_for_its_own_law():
    holds, raises = _run_laws(_stream(5), [("holds", lambda n: None), ("raises", _raises_at(3))])
    assert holds == LawResult("holds", True, 5)
    assert isinstance(raises, ValueError) and str(raises) == "raised at 3"


def test_runner_holds_a_stream_error_for_every_running_law():
    done, running = _run_laws(_stream(5, raise_at=4),
                              [("done", _fails_at(2)), ("running", lambda n: None)])
    assert done == LawResult("done", False, 2, "fails at 2")
    assert isinstance(running, ValueError) and str(running) == "stream raised at 4"


def test_single_law_raises_its_held_error():
    with pytest.raises(ValueError, match="raised at 3"):
        _run_law("raises", list(_stream(5)), _raises_at(3))
    with pytest.raises(ValueError, match="stream raised at 1"):
        _run_law("holds", _stream(5, raise_at=1), lambda n: None)


# ---------------------------------------------------------------------------
# the order predicates read one four-way comparison

# outcome of cmp(a, b) -> (eq, leq, lt, geq, gt)
_TRUTH = {
    Order.EQUAL: (True, True, False, True, False),
    Order.LESS: (False, True, True, False, False),
    Order.GREATER: (False, False, False, True, True),
    Order.INCOMPARABLE: (False, False, False, False, False),
}


def _predicates(g, a, b):
    return (g.eq(a, b), g.leq(a, b), g.lt(a, b), g.geq(a, b), g.gt(a, b))


def _assert_truth_table(g, a, b):
    """Every predicate on (a, b), and the sign predicates of a, agree with
    the truth table of the one outcome ``cmp`` gives."""
    expected = _TRUTH[g.cmp(a, b)]
    assert _predicates(g, a, b) == expected
    if b == g.identity:
        assert (g.is_nonneg(a), g.is_positive(a)) == expected[3:]


@pytest.mark.parametrize("outcome", list(Order), ids=[o.value for o in Order])
def test_predicates_give_the_truth_table_of_each_outcome(outcome):
    base = real_group()
    pinned = Fraction(5)

    def cmp(a, b):
        return outcome if (a, b) == (pinned, base.identity) else base.cmp(a, b)

    g = dataclasses.replace(base, cmp=cmp, name="stub")
    assert g.cmp(pinned, g.identity) is outcome
    _assert_truth_table(g, pinned, g.identity)
    for a, b in [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(1)), (pinned, pinned)]:
        _assert_truth_table(g, a, b)


def test_predicates_follow_the_broken_g1_comparison():
    g = fault_inject(builtin_bundles()["cone-2"], "break-g1").module.group
    bad = (Fraction(1), Fraction(-1))
    assert g.cmp(g.identity, bad) is Order.LESS
    assert g.cmp(bad, g.identity) is Order.GREATER
    assert g.is_nonneg(bad) and g.is_positive(bad)
    for a, b in [(g.identity, bad), (bad, g.identity), (bad, (Fraction(0), Fraction(1)))]:
        _assert_truth_table(g, a, b)


# -- the exact kernel ---------------------------------------------------------

_BIG = 10 ** 40
_numerators = st.one_of(st.integers(-60, 60), st.integers(-_BIG, _BIG),
                        st.sampled_from([0, 1, -1, _BIG, -_BIG]))
_denominators = st.one_of(st.just(1), st.integers(1, 60), st.integers(1, _BIG),
                          st.sampled_from([_BIG, _BIG + 1]))


@st.composite
def _kernel_operands(draw):
    """Two rationals: unrelated, over one written denominator, negations of
    each other, equal, or one of them zero."""
    d = draw(_denominators)
    a = Fraction(draw(_numerators), d)
    shape = draw(st.sampled_from(["free", "same-denominator", "negated", "equal", "zero"]))
    if shape == "free":
        b = Fraction(draw(_numerators), draw(_denominators))
    elif shape == "same-denominator":
        b = Fraction(draw(_numerators), d)
    elif shape == "negated":
        b = -a
    elif shape == "equal":
        b = Fraction(a.numerator, a.denominator)
    else:
        b = Fraction(0)
    return (b, a) if draw(st.booleans()) else (a, b)


def _exactly(value):
    """Everything a result shows: its type, both slots (so lowest terms and
    the sign of the denominator), its hash and its text."""
    if isinstance(value, tuple):
        return tuple(_exactly(v) for v in value)
    return type(value), value.numerator, value.denominator, hash(value), str(value)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_kernel_operands())
def test_kernel_agrees_exactly_with_the_fraction_operators(pair):
    a, b = pair
    assert _exactly(_q_add(a, b)) == _exactly(a + b)
    assert _exactly(_q_neg(a)) == _exactly(-a)
    assert _exactly(_q_abs(a)) == _exactly(abs(a))
    assert _exactly(_q_mul(a, b)) == _exactly(a * b)
    assert _exactly(_q_dist(a, b)) == _exactly(abs(a - b))
    assert _exactly(_q_dist(b, a)) == _exactly(abs(a - b))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_kernel_operands(), min_size=3, max_size=3))
def test_cone_operations_agree_exactly_coordinate_by_coordinate(pairs):
    x = tuple(a for a, _ in pairs)
    y = tuple(b for _, b in pairs)
    r = y[0]
    g, m = coord_cone_group(3), coord_cone_module(3)
    assert _exactly(g.add(x, y)) == _exactly(tuple(p + q for p, q in zip(x, y)))
    assert _exactly(g.neg(x)) == _exactly(tuple(-p for p in x))
    assert _exactly(m.scale(r, x)) == _exactly(tuple(r * p for p in x))
