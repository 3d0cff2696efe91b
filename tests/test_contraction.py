import re
from fractions import Fraction

import pytest

from ordermetric import (
    ConeMetricSpace,
    ContractionWitness,
    CStatus,
    DomainError,
    LawResult,
    PsiProperties,
    SamplePlan,
    SetValuedMap,
    WitnessClass,
    approximate_endpoint_property_finite,
    approximate_endpoint_sequence,
    bound_table,
    c_condition_status,
    constant,
    endpoints_bruteforce,
    from_function,
    harmonic,
    is_global_weak_contraction,
    is_weak_contraction,
    point_seq,
    validate_witness,
    weak_contraction_corpus,
)
from ordermetric.contraction import _distinct_pairs

HALF = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=Fraction(1, 2))


def table_space(rstruct, points):
    from ordermetric import ConeMetricSpace

    pts = tuple(Fraction(p) for p in points)
    return ConeMetricSpace("table", rstruct, lambda x, y: abs(x - y), points=pts)


def test_weak_contraction_matched_scalings(real_line_space):
    """Each image point x/k pairs with y/k, giving distance d/k below d/2."""
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2, x / 3))
    report = is_weak_contraction(T, HALF, SamplePlan(seed=2, count=250))
    assert report.passed, report.witness


def test_weak_contraction_rejects_identity_map(real_line_space):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x,))
    report = is_weak_contraction(T, HALF, SamplePlan(seed=2, count=100))
    assert not report.passed
    assert report.witness


def test_weak_contraction_single_valued_halving(real_line_space):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,))
    assert is_weak_contraction(T, HALF, SamplePlan(seed=2, count=250)).passed


def test_global_contraction_single_valued_halving(real_line_space):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,))
    assert is_global_weak_contraction(T, HALF, SamplePlan(seed=2, count=250)).passed


def test_global_contraction_cross_terms_fail(real_line_space):
    """With images {x/2, x/3} the cross pairings overshoot the halved
    distance; brute force over a coarse grid already shows a worst ratio of
    one, so no constant ratio below one can govern all image pairs."""
    grid = [Fraction(k, 4) for k in range(5)]
    worst = max(
        max(abs(xp - yp) for xp in (x / 2, x / 3) for yp in (y / 2, y / 3)) / abs(x - y)
        for x in grid for y in grid if x != y)
    assert worst == Fraction(1)

    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2, x / 3))
    report = is_global_weak_contraction(T, HALF, SamplePlan(seed=2, count=250))
    assert not report.passed


def test_global_contraction_reflected_images_fail(real_line_space):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2, 1 - x / 2))
    report = is_global_weak_contraction(T, HALF, SamplePlan(seed=2, count=250))
    assert not report.passed
    assert report.witness


def test_witness_validity(real_line_space):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,))
    assert validate_witness(T, HALF, SamplePlan(seed=2, count=200)).passed


def test_witness_saturated_bound_fails(rstruct):
    space = table_space(rstruct, [0, 1])
    T = SetValuedMap.from_table(space, {Fraction(0): (Fraction(0),),
                                        Fraction(1): (Fraction(0),)})
    table = {(Fraction(0), Fraction(1)): Fraction(1),
             (Fraction(1), Fraction(0)): Fraction(1, 2)}
    w = ContractionWitness(WitnessClass.PHI_TABLE, phi_table=bound_table(space, table))
    assert w.phi_table == [None, Fraction(1), Fraction(1, 2), None]
    report = validate_witness(T, w)
    assert not report.result("phi-strictly-below").passed


@pytest.mark.parametrize("points", [[0, 1], [1, 0, 2], [Fraction(1, 2), 0, 2]])
def test_a_point_keyed_table_has_no_entry_at_the_first_pair(rstruct, points):
    # on an integer carrier a point pair is also a pair of small integers,
    # yet a table is read by one flat position, never by a pair
    space = ConeMetricSpace("ints", rstruct, lambda x, y: abs(x - y), points=tuple(points))
    T = SetValuedMap.from_table(space, {p: (points[1],) for p in points})
    w = ContractionWitness(WitnessClass.PHI_TABLE, phi_table={
        (x, y): abs(x - y) / 2 for x in points for y in points if x != y})
    first = f"bound table has no entry for ({points[0]}, {points[1]})"
    for check in (is_weak_contraction, is_global_weak_contraction, validate_witness):
        with pytest.raises(DomainError, match=re.escape(first)):
            check(T, w)
    with pytest.raises(DomainError, match=re.escape(first)):
        w.phi(space, points[0], points[1], abs(points[0] - points[1]))


def test_a_bound_table_needs_a_finite_space(real_line_space):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,))
    w = ContractionWitness(WitnessClass.PHI_TABLE, phi_table=[])
    needs = "a bound table needs a finite space; 'unit-interval' is sampled"
    with pytest.raises(DomainError, match=needs):
        validate_witness(T, w, SamplePlan(seed=1, count=5))
    with pytest.raises(DomainError, match=needs):
        w.phi(real_line_space, Fraction(0), Fraction(1), Fraction(1))
    with pytest.raises(DomainError, match=needs):
        bound_table(real_line_space, {})


def _line_map(rstruct, table):
    space = table_space(rstruct, [0, 1, 2, 3])
    return SetValuedMap.from_table(
        space, {Fraction(x): tuple(Fraction(y) for y in img) for x, img in table.items()})


def test_global_failure_names_the_first_image_point_of_y_beyond_the_bound(rstruct):
    # at the first pair (0, 1): d(0, 0) = 0 is within 1/2, d(0, 1) = 1 is not
    T = _line_map(rstruct, {0: [0], 1: [0, 1], 2: [0], 3: [0]})
    assert is_global_weak_contraction(T, HALF) == LawResult(
        "global", False, 1, "x=0, y=1, x'=0, y'=1: d=1 exceeds 1/2")


def test_weak_failure_names_the_image_point_of_x_with_no_image_of_y_near(rstruct):
    # at the first pair (0, 1): x' = 3 meets y' = 3; x' = 0 is 2 and 3 from {2, 3}
    T = _line_map(rstruct, {0: [3, 0], 1: [2, 3], 2: [0], 3: [0]})
    assert is_weak_contraction(T, HALF) == LawResult(
        "weak", False, 1, "x=0, y=1, x'=0: no image point of y within 1/2")


def test_pairs_of_a_space_with_a_repeated_point_are_the_unequal_ones(rstruct):
    space = table_space(rstruct, [0, 1, 0, 2, 1])
    pts = space.points
    expected = [(i, j) for i, x in enumerate(pts) for j, y in enumerate(pts) if x != y]
    assert _distinct_pairs(space, SamplePlan()) == expected
    assert len(expected) == 16


# -- inf-sup value -----------------------------------------------------------


def test_infsup_zero_at_endpoint(rstruct):
    space = table_space(rstruct, [0, Fraction(1, 2), 1])
    T = SetValuedMap.from_table(space, {
        Fraction(0): (Fraction(0),),
        Fraction(1, 2): (Fraction(0),),
        Fraction(1): (Fraction(1, 2),),
    })
    res = approximate_endpoint_property_finite(T)
    assert res.value == Fraction(0)
    assert res.achieving_point == Fraction(0)


def test_infsup_swap_map(rstruct):
    space = table_space(rstruct, [0, 1])
    T = SetValuedMap.from_table(space, {Fraction(0): (Fraction(1),),
                                        Fraction(1): (Fraction(0),)})
    res = approximate_endpoint_property_finite(T)
    assert res.value == Fraction(1)


def test_infsup_chain(rstruct):
    space = table_space(rstruct, [0, Fraction(1, 2), 1])
    T = SetValuedMap.from_table(space, {
        Fraction(0): (Fraction(1, 2),),
        Fraction(1, 2): (Fraction(0),),
        Fraction(1): (Fraction(1, 2),),
    })
    res = approximate_endpoint_property_finite(T)
    assert res.value == Fraction(1, 2)


# -- witness-pair property ---------------------------------------------------


def test_approx_sequence_halving(real_line_space, rmod):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,))
    seq = point_seq(real_line_space, rule=lambda n: Fraction(1, n))
    bounds = harmonic(rmod, 1)
    rep = approximate_endpoint_sequence(T, seq, bounds, [Fraction(1, 10)], 60)
    assert rep == LawResult("approx-endpoint-sequence", True, 60)


def test_approx_sequence_constant_endpoint(rstruct, rmod):
    space = table_space(rstruct, [0, 1])
    T = SetValuedMap.from_table(space, {Fraction(0): (Fraction(0),),
                                        Fraction(1): (Fraction(0),)})
    seq = point_seq(space, [Fraction(0)] * 20)
    bounds = constant(rmod, 0)
    rep = approximate_endpoint_sequence(T, seq, bounds, [Fraction(1, 10)], 20)
    assert rep == LawResult("approx-endpoint-sequence", True, 20)
    # with no tolerance the bound sequence is not certified, so nothing passes
    assert approximate_endpoint_sequence(T, seq, bounds, [], 20) == LawResult(
        "approx-endpoint-sequence", False, 0, "bound sequence failed to certify toward the identity")


def test_approx_sequence_too_tight_bound_fails(real_line_space, rmod):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,))
    seq = point_seq(real_line_space, rule=lambda n: Fraction(1, n))
    bounds = from_function(rmod, lambda n: Fraction(1, n ** 3), 40, name="cubic")
    rep = approximate_endpoint_sequence(T, seq, bounds, [Fraction(1, 10)], 40)
    # 1/(2n) stays within 1/n^3 only at n = 1
    assert rep == LawResult("approx-endpoint-sequence", False, 2,
                            "n=2, x'=1/4: d=1/4 exceeds bound 1/8")


# -- endpoints ---------------------------------------------------------------


def test_endpoints_bruteforce_examples(rstruct):
    space = table_space(rstruct, [0, 1])
    keep_zero = SetValuedMap.from_table(space, {Fraction(0): (Fraction(0),),
                                                Fraction(1): (Fraction(0), Fraction(1))})
    assert endpoints_bruteforce(keep_zero).members == (Fraction(0),)

    identity = SetValuedMap.from_rule(space, lambda x: (x,))
    assert set(endpoints_bruteforce(identity).members) == set(space.points)

    swap = SetValuedMap.from_table(space, {Fraction(0): (Fraction(1),),
                                           Fraction(1): (Fraction(0),)})
    assert endpoints_bruteforce(swap).members == ()


# -- convergence-condition classes ------------------------------------------


def test_c_status_constant_ratio():
    status = c_condition_status(HALF)
    assert status.status is CStatus.HOLDS_BY_THEOREM
    assert status.justification


def test_c_status_bounded_ratio_function():
    w = ContractionWitness(WitnessClass.ALPHA_FUNCTION,
                           alpha_fn=lambda x, y: Fraction(9, 10),
                           alpha_bound=Fraction(9, 10))
    assert c_condition_status(w).status is CStatus.HOLDS_BY_THEOREM


def test_c_status_bare_table_unknown():
    w = ContractionWitness(WitnessClass.PHI_TABLE,
                           phi_table=[None, Fraction(0), Fraction(0), None])
    assert c_condition_status(w).status is CStatus.UNKNOWN


def test_c_status_scalar_function():
    w = ContractionWitness(WitnessClass.PSI_ON_DISTANCE,
                           psi=lambda t: t / (1 + t),
                           psi_properties=PsiProperties(upper_semicontinuous=True,
                                                        below_identity=True,
                                                        positive_tail_gap=True))
    assert c_condition_status(w).status is CStatus.HOLDS_BY_THEOREM
    partial = ContractionWitness(WitnessClass.PSI_ON_DISTANCE,
                                 psi=lambda t: t / 2,
                                 psi_properties=PsiProperties(upper_semicontinuous=True,
                                                              below_identity=True))
    assert c_condition_status(partial).status is CStatus.UNKNOWN


def test_c_status_scalar_function_certifies_nothing_undeclared():
    # a scalar witness earns the certificate only by declaring all three facts
    w = ContractionWitness(WitnessClass.PSI_ON_DISTANCE, psi=lambda t: t / 2,
                           psi_properties=PsiProperties())
    assert c_condition_status(w).status is CStatus.UNKNOWN


# -- structural facts over the corpus ---------------------------------------


def test_corpus_uniqueness_and_necessity():
    """One-sided contractions admit at most one endpoint, and an endpoint
    forces the inf-sup value to zero with a validating constant witness."""
    insts = weak_contraction_corpus(count=60)
    g = insts[0].space.group
    for inst in insts:
        assert is_weak_contraction(inst.map_, inst.phi_witness).passed, inst.name
        ends = endpoints_bruteforce(inst.map_)
        assert len(ends) <= 1, inst.name
        if ends.members:
            value = approximate_endpoint_property_finite(inst.map_)
            assert value.value == g.identity, inst.name


def test_global_implies_weak_on_corpus():
    insts = [i for i in weak_contraction_corpus(count=60) if i.global_contraction]
    assert insts
    for inst in insts:
        assert is_global_weak_contraction(inst.map_, inst.alpha_witness).passed, inst.name
        assert is_weak_contraction(inst.map_, inst.alpha_witness).passed, inst.name


def test_two_endpoints_refute_the_bound(rstruct):
    """Pinning a second fixed image set creates a pair whose distance cannot
    sit strictly below itself, so the one-sided check must reject."""
    space = table_space(rstruct, [0, 1])
    T = SetValuedMap.from_rule(space, lambda x: (x,))
    assert len(endpoints_bruteforce(T)) == 2
    report = is_weak_contraction(T, HALF)
    assert not report.passed


def test_duplicate_image_entries_collapse(rstruct):
    space = table_space(rstruct, [0, 1])
    T = SetValuedMap.from_table(space, {Fraction(0): (Fraction(0), Fraction(0)),
                                        Fraction(1): (Fraction(0),)})
    assert T.images(Fraction(0)) == (Fraction(0),)
    assert endpoints_bruteforce(T).members == (Fraction(0),)
    T = SetValuedMap.from_table(space, {Fraction(0): (Fraction(1), Fraction(0), Fraction(1)),
                                        Fraction(1): (Fraction(0),)})
    assert T.images(Fraction(0)) == (Fraction(1), Fraction(0))  # first-occurrence order


def test_from_table_empty_image_raises_at_lookup(rstruct):
    space = table_space(rstruct, [0, 1])
    T = SetValuedMap.from_table(space, {Fraction(0): (), Fraction(1): (Fraction(0),)})
    assert T.images(Fraction(1)) == (Fraction(0),)
    with pytest.raises(DomainError, match="empty image"):
        T.images(Fraction(0))
