from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordermetric import (
    ConeMetricSpace,
    ConvergenceCertificate,
    ConvergenceFailure,
    IncomparableError,
    SetDistanceUndefined,
    cauchy_check,
    check_metric_laws,
    hausdorff,
    is_certificate,
    min_positive_distance,
    order_min,
    point_convergence,
    point_seq,
)


def brute_set_distance(space, set_a, set_b):
    """Independent double-loop max-min oracle over a totally ordered target."""
    d = space.distance
    left = max(min(d(x, y) for y in set_b) for x in set_a)
    right = max(min(d(y, x) for x in set_a) for y in set_b)
    return max(left, right)


@pytest.fixture
def line_points(rstruct):
    pts = tuple(Fraction(k) for k in (1, 2, 4, 5))
    return ConeMetricSpace("line", rstruct, lambda x, y: abs(x - y), points=pts)


@pytest.fixture
def incomparable_table(cstruct2):
    p, q, r = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    z = (Fraction(0), Fraction(0))
    table = {
        (p, p): z, (q, q): z, (r, r): z,
        (p, q): (Fraction(1), Fraction(2)), (q, p): (Fraction(1), Fraction(2)),
        (p, r): (Fraction(2), Fraction(1)), (r, p): (Fraction(2), Fraction(1)),
        (q, r): (Fraction(2), Fraction(2)), (r, q): (Fraction(2), Fraction(2)),
    }
    return ConeMetricSpace("vector-table", cstruct2,
                           lambda x, y: table[(x, y)], points=(p, q, r))


def test_metric_laws_pass(real_line_space, box2_space, line_points,
                          incomparable_table, plan):
    for space in (real_line_space, box2_space, line_points, incomparable_table):
        report = check_metric_laws(space, plan)
        assert report.passed, report.summary()


def test_asymmetric_table_fails_d2(rstruct, plan):
    pts = (Fraction(0), Fraction(1))
    table = {(Fraction(0), Fraction(1)): Fraction(1),
             (Fraction(1), Fraction(0)): Fraction(2)}

    def metric(x, y):
        if x == y:
            return Fraction(0)
        return table[(x, y)]

    space = ConeMetricSpace("asym", rstruct, metric, points=pts)
    report = check_metric_laws(space, plan)
    assert not report.result("d2").passed
    assert report.result("d2").witness


_D1_POINTS = (Fraction(0), Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize("metric, expected", [
    (lambda x, y: abs(x - y), (True, 400, None)),
    # negative distance
    (lambda x, y: -abs(x - y), (False, 5, "0, 1/2")),
    # zero distance between the distinct points 0 and 1
    (lambda x, y: Fraction(0) if {x, y} == {Fraction(0), Fraction(1)} else abs(x - y),
     (False, 10, "1, 0")),
    # nonzero self-distance
    (lambda x, y: abs(x - y) + 1, (False, 1, "0, 0")),
], ids=["sound", "negative", "zero-between-distinct", "nonzero-self"])
def test_d1_result_is_pinned(rstruct, plan, metric, expected):
    space = ConeMetricSpace("d1-probe", rstruct, metric, points=_D1_POINTS)
    r = check_metric_laws(space, plan).result("d1")
    assert (r.passed, r.checked, r.witness) == expected


def test_point_convergence_vector(box2_space):
    s = point_seq(box2_space, rule=lambda n: (Fraction(1, n), Fraction(1, n)))
    outs = point_convergence(box2_space, s, (Fraction(0), Fraction(0)),
                             [(Fraction(1, 10), Fraction(1, 10))], 80)
    assert all(is_certificate(o) for o in outs)
    assert outs[0].threshold == 10


def test_point_convergence_constant(real_line_space):
    x = Fraction(1, 2)
    s = point_seq(real_line_space, [x] * 30)
    outs = point_convergence(real_line_space, s, x, [Fraction(1, 10)], 30)
    assert outs[0].threshold == 0


def test_point_convergence_alternating_fails(real_line_space):
    a, b = Fraction(0), Fraction(1, 2)
    s = point_seq(real_line_space, [a, b] * 20)
    out = point_convergence(real_line_space, s, a, [Fraction(1, 4)], 40)[0]
    assert isinstance(out, ConvergenceFailure)


def _cauchy_violations(s, eps, cap):
    """Brute-force oracle on a real line: the indices a < cap with some
    later b <= cap at distance eps or more."""
    pts = [s.term(n) for n in range(1, cap + 1)]
    return [a for a in range(1, cap)
            if any(not abs(pts[a - 1] - pts[b - 1]) < eps for b in range(a + 1, cap + 1))]


def test_cauchy_geometric_partial_sums(real_line_space):
    # x_n = 1 - 2^{-n}; consecutive steps are 2^{-(n+1)}
    s = point_seq(real_line_space, rule=lambda n: 1 - Fraction(1, 2 ** n))
    eps = Fraction(1, 100)
    out = cauchy_check(real_line_space, s, [eps], 100,
                       step_profile=(Fraction(1, 2), Fraction(1, 2)))[0]
    # tail bound: the sum of the steps from n is 2^{-n} < 1/100 past n = 6,
    # re-checked over the window 7..99
    assert out == ConvergenceCertificate(eps, 6, 99, analytic=True)
    # oracle: every index past the analytic threshold passes in the window
    bad = _cauchy_violations(s, eps, 100)
    assert bad and bad[-1] <= out.threshold
    # without a declared profile the window's own threshold is the last bad index
    assert cauchy_check(real_line_space, s, [eps], 100)[0] == ConvergenceCertificate(
        eps, bad[-1], 99)


def test_cauchy_tail_bound_is_rechecked_over_the_window(real_line_space):
    # a step profile of c = 1/2, alpha = 1/2 allows the 1/40 jump at n = 4,
    # but 1/40 is not within 1/64; the tail bound 2^{-n} certifies past 6
    terms = [Fraction(0)] * 4 + [Fraction(1, 40)] * 20
    s = point_seq(real_line_space, terms)
    eps = Fraction(1, 64)
    out = cauchy_check(real_line_space, s, [eps], 24,
                       step_profile=(Fraction(1, 2), Fraction(1, 2)))[0]
    assert out == ConvergenceCertificate(eps, 6, 23, analytic=True)
    assert _cauchy_violations(s, eps, 24) == [1, 2, 3, 4]


def test_cauchy_constant(real_line_space):
    s = point_seq(real_line_space, [Fraction(1, 3)] * 20)
    out = cauchy_check(real_line_space, s, [Fraction(1, 10)], 20)[0]
    assert out == ConvergenceCertificate(Fraction(1, 10), 0, 19)
    assert _cauchy_violations(s, Fraction(1, 10), 20) == []


def test_cauchy_oscillation_fails_below_gap(real_line_space):
    s = point_seq(real_line_space, [Fraction(0), Fraction(1, 2)] * 15)
    out = cauchy_check(real_line_space, s, [Fraction(1, 4)], 30)[0]
    assert isinstance(out, ConvergenceFailure)
    # oracle: every index up to the last pair (29, 30) violates
    bad = _cauchy_violations(s, Fraction(1, 4), 30)
    assert (out.first_violation, out.last_violation) == (bad[0], bad[-1]) == (1, 29)


def test_cauchy_violating_last_pair_fails(real_line_space):
    s = point_seq(real_line_space, [Fraction(0)] * 9 + [Fraction(1)])
    out = cauchy_check(real_line_space, s, [Fraction(1, 2)], 10)[0]
    assert _cauchy_violations(s, Fraction(1, 2), 10) == list(range(1, 10))
    assert out == ConvergenceFailure(Fraction(1, 2), 1, 9,
                                     reason="sandwich still failing at the end of the window")


def test_min_positive_distance(line_points):
    assert min_positive_distance(line_points) == Fraction(1)


# -- set distance ------------------------------------------------------------


def test_hausdorff_two_pairs(line_points):
    a = [Fraction(1), Fraction(2)]
    b = [Fraction(4), Fraction(5)]
    value = hausdorff(line_points, a, b)
    assert value == brute_set_distance(line_points, a, b)
    assert value == Fraction(3)


def test_hausdorff_identical_sets(line_points):
    a = [Fraction(1), Fraction(2)]
    assert hausdorff(line_points, a, a) == Fraction(0)


def test_hausdorff_singletons_reduce_to_distance(box2_space):
    x = (Fraction(0), Fraction(0))
    y = (Fraction(1), Fraction(2, 3))
    assert hausdorff(box2_space, [x], [y]) == (Fraction(1), Fraction(2, 3))


def test_hausdorff_incomparable_candidates_error(incomparable_table):
    p, q, r = incomparable_table.points
    with pytest.raises(SetDistanceUndefined) as exc:
        hausdorff(incomparable_table, [p], [q, r])
    msg = str(exc.value)
    assert "(1, 2)" in msg and "(2, 1)" in msg


def test_hausdorff_symmetry_and_triangle_sampled(line_points, plan):
    import random

    rng = random.Random(5)
    pts = line_points.points
    for _ in range(60):
        a = tuple(rng.sample(pts, rng.randint(1, 3)))
        b = tuple(rng.sample(pts, rng.randint(1, 3)))
        c = tuple(rng.sample(pts, rng.randint(1, 3)))
        hab, hba = hausdorff(line_points, a, b), hausdorff(line_points, b, a)
        assert hab == hba == brute_set_distance(line_points, a, b)
        assert hausdorff(line_points, a, c) <= hab + hausdorff(line_points, b, c)


@given(
    a=st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=8),
               min_size=1, max_size=5, unique=True),
    b=st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=8),
               min_size=1, max_size=5, unique=True),
)
@settings(max_examples=120, deadline=None)
def test_hausdorff_matches_oracle_on_random_sets(rstruct, a, b):
    pts = tuple(sorted(set(a) | set(b)))
    space = ConeMetricSpace("adhoc", rstruct, lambda x, y: abs(x - y), points=pts)
    h = hausdorff(space, a, b)
    assert h == brute_set_distance(space, a, b)
    assert h == hausdorff(space, b, a)


def test_finite_completeness_at_minimum_scale(line_points):
    """A sequence certified Cauchy at the least positive distance is
    eventually constant, hence converges to its tail value."""
    pts = line_points.points
    s = point_seq(line_points, [pts[2], pts[1], pts[0]] + [pts[0]] * 17)
    minpos = min_positive_distance(line_points)
    out = cauchy_check(line_points, s, [minpos], 20)[0]
    assert is_certificate(out)
    assert out.threshold == _cauchy_violations(s, minpos, 20)[-1] == 2
    tail = [s.term(n) for n in range(out.threshold + 1, 21)]
    assert all(p == tail[0] for p in tail)
    conv = point_convergence(line_points, s, tail[0], [minpos], 20)
    assert all(is_certificate(o) for o in conv)


def test_min_positive_distance_equals_the_full_chain_check(rstruct):
    pts = tuple(Fraction(k, 4) for k in range(9))
    grid = ConeMetricSpace("grid", rstruct, lambda x, y: abs(x - y), points=pts)
    every = [grid.distance(x, y) for i, x in enumerate(pts) for y in pts[i + 1:]]
    assert len(set(every)) < len(every)
    assert min_positive_distance(grid) == order_min(grid.group, every) == Fraction(1, 4)


def test_min_positive_distance_keeps_the_incomparable_pair(cstruct2):
    one, zero = Fraction(1), Fraction(0)
    pts = ((zero, zero), (one, zero), (zero, one), (one, one))
    space = ConeMetricSpace("square", cstruct2,
                            lambda x, y: tuple(abs(a - b) for a, b in zip(x, y)), points=pts)
    every = [space.distance(x, y) for i, x in enumerate(pts) for y in pts[i + 1:]]
    assert (one, zero) in every and (zero, one) in every
    with pytest.raises(IncomparableError) as full:
        order_min(space.group, every, "minimum positive distance")
    with pytest.raises(IncomparableError) as exc:
        min_positive_distance(space)
    assert str(exc.value) == str(full.value)


def test_cauchy_check_validates_tolerances_first(real_line_space):
    s = point_seq(real_line_space, [Fraction(0), Fraction(1)] * 5)
    # the declared step profile fails at n=1 too; the tolerance is reported
    with pytest.raises(ValueError) as exc:
        cauchy_check(real_line_space, s, [Fraction(1, 2), Fraction(0)], 10,
                     step_profile=(Fraction(1, 100), Fraction(1, 2)))
    assert str(exc.value) == "tolerance 0 does not strictly dominate the identity"
