"""Finite spaces tabulate their distances once, rationals compare by one
cross-multiplication and the walk hypotheses take one pass over the pairs,
visiting every ordered pair: equivalence with the point-by-point scans,
the exact comparison kernels, the one-pass least and greatest elements,
the one-pass hypotheses against the two scans and every scan against an
every-pair reference (and their errors), every law's count against its
predicate calls, work counters on a 31-point ladder and the finite
corpus, and the ladder's verify and solve outputs against committed
goldens."""

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from ordermetric import (
    ConeMetricSpace,
    ContractionWitness,
    DomainError,
    IncomparableError,
    LawResult,
    Order,
    SamplePlan,
    SetValuedMap,
    SolverConfig,
    WitnessClass,
    approximate_endpoint_property_finite,
    bound_table,
    check_hypotheses,
    coord_cone_group,
    coord_cone_module,
    endpoints_bruteforce,
    interior_cone_structure,
    is_global_weak_contraction,
    is_weak_contraction,
    iterate_endpoint,
    min_positive_distance,
    order_max,
    order_min,
    real_group,
    real_module,
    strict_order_structure,
    validate_witness,
    weak_contraction_corpus,
)
from ordermetric import cli, cone_metric, contraction, harness, order_core, solver
from ordermetric.cli import main
from ordermetric.instance_files import (
    BUILTIN_INSTANCE_TEXTS,
    _interval_carrier,
    build_bundle,
    load_instance,
)
from ordermetric.order_core import LawReport, _cone_cmp, _raise_held, _scalar_cmp, format_element

DATA = Path(__file__).parent / "data"
LADDER = DATA / "ladder-31.ini"
LADDER_EPS = "1/576460752303423488"  # (1/4)^29 / 2, below the least distance
HALF = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=Fraction(1, 2))
F = Fraction


# ---------------------------------------------------------------------------
# the point-by-point scans the tabulated ones replace: every ordered pair of
# distinct points, no table and no positions


def _ref_pairs(space):
    return [(x, y) for x in space.points for y in space.points if x != y]


def _every_pair(T, w, laws):
    """Each named law's outcome over every ordered pair of distinct points,
    on the one law runner, point by point: each distance from the metric,
    each bound from ``phi`` at its own pair, and no table or position;
    the reference the tabulated scans must equal."""
    space, g = T.space, T.space.group

    def stream():
        for x, y in _ref_pairs(space):
            d = space.distance(x, y)
            yield x, y, d, w.phi(space, x, y, d)

    def pair_text(x, y, xp):
        return f"x={format_element(x)}, y={format_element(y)}, x'={format_element(xp)}"

    def weak(x, y, d, bound):
        for xp in T.images(x):
            if not any(g.leq(space.distance(xp, yp), bound) for yp in T.images(y)):
                return f"{pair_text(x, y, xp)}: no image point of y within {format_element(bound)}"

    def global_(x, y, d, bound):
        for xp in T.images(x):
            for yp in T.images(y):
                dd = space.distance(xp, yp)
                if not g.leq(dd, bound):
                    return (f"{pair_text(x, y, xp)}, y'={format_element(yp)}: "
                            f"d={format_element(dd)} exceeds {format_element(bound)}")

    def phi_strictly_below(x, y, d, bound):
        if g.is_positive(d) and not g.lt(bound, d):
            return (f"x={format_element(x)}, y={format_element(y)}: bound "
                    f"{format_element(bound)} not strictly below {format_element(d)}")

    def alpha_range(x, y, d, bound):
        r = w.alpha(x, y)
        if not (0 <= r < 1):
            return f"ratio {r} at ({format_element(x)}, {format_element(y)})"
        if w.klass is WitnessClass.ALPHA_FUNCTION and r > w.alpha_bound:
            return f"ratio {r} exceeds declared bound {w.alpha_bound}"

    named = {"weak": weak, "global": global_, "phi-strictly-below": phi_strictly_below,
             "alpha-range": alpha_range}
    return order_core._run_laws(stream(), [(law, named[law]) for law in laws])


def _first_pair_ratio(T, w):
    """A constant ratio's range as one item: the first pair, or none."""
    def alpha_range(x, y):
        r = w.alpha(x, y)
        if not (0 <= r < 1):
            return f"ratio {r} at ({format_element(x)}, {format_element(y)})"

    return order_core._run_laws(_ref_pairs(T.space)[:1], [("alpha-range", alpha_range)])


def _every_pair_witness(T, w):
    laws = ["phi-strictly-below"]
    if w.klass is WitnessClass.ALPHA_FUNCTION:
        laws.append("alpha-range")
    results = _every_pair(T, w, laws)
    if w.klass is WitnessClass.ALPHA_CONSTANT:
        results += _first_pair_ratio(T, w)
    held = [r for r in results if isinstance(r, Exception)]
    return held[0] if held else LawReport(f"witness {w.describe()} against {T.name}",
                                          tuple(results))


def _ref_weak(T, w):
    return _raise_held(_every_pair(T, w, ["weak"])[0])


def _ref_global(T, w):
    return _raise_held(_every_pair(T, w, ["global"])[0])


def _ref_validate(T, w):
    return _raise_held(_every_pair_witness(T, w))


def _quadratic_extreme(g, items, keep, context):
    """The first item below (``keep`` LESS) or above (GREATER) or equal to
    every item, else IncomparableError naming the first incomparable pair."""
    vals = list(items)
    for a in vals:
        if all(g.cmp(a, b) in (keep, Order.EQUAL) for b in vals):
            return a
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            if g.cmp(a, b) is Order.INCOMPARABLE:
                raise IncomparableError(a, b, context)
    raise AssertionError("no extreme and no incomparable pair")


def _ref_infsup(T):
    g, space = T.space.group, T.space
    sups = [(x, _quadratic_extreme(g, [space.distance(x, y) for y in T.images(x)],
                                   Order.GREATER, f"image spread at {format_element(x)}"))
            for x in space.points]
    value = _quadratic_extreme(g, [s for _, s in sups], Order.LESS, "inf over points")
    return next((s, x) for x, s in sups if g.eq(s, value))


# ---------------------------------------------------------------------------
# finite fixtures


def _three_point():
    return harness.builtin_bundles()["three-point"]


def _fixtures():
    """(label, map, witness) on finite spaces, passing and failing."""
    b = _three_point()
    space, T = b.space, b.map_
    two_ends = harness.fault_inject(b, "add-second-endpoint")
    broken_phi = harness.fault_inject(b, "break-phi-bound")
    pts = space.points
    phi = ContractionWitness(
        WitnessClass.PHI_TABLE,
        phi_table=bound_table(space, {(x, y): space.distance(x, y) / 2
                                      for x in pts for y in pts if x != y}))
    not_weak = SetValuedMap.from_table(space, {F(0): (F(0),), F(1, 4): (F(1),),
                                               F(1): (F(0),)}, name="swap")
    ladder = build_bundle(load_instance(LADDER))
    cone = _square()
    shrink = SetValuedMap.from_table(cone, {p: (cone.points[0],) for p in cone.points},
                                     name="collapse")
    spread = SetValuedMap.from_table(cone, {p: cone.points[1:3] for p in cone.points},
                                     name="spread")
    return [
        ("three-point", T, b.witness),
        ("two-endpoint map", two_ends.map_, two_ends.witness),
        ("break-phi-bound", T, broken_phi.witness),
        ("phi table", T, phi),
        ("weak-contraction failure", not_weak, HALF),
        ("ladder", ladder.map_, ladder.witness),
        ("cone collapse", shrink, HALF),
        ("cone spread", spread, HALF),
    ]


def _square():
    one, zero = F(1), F(0)
    pts = ((zero, zero), (one, zero), (zero, one), (one, one))
    structure = interior_cone_structure(coord_cone_module(2))
    return ConeMetricSpace("square", structure,
                           lambda x, y: tuple(abs(a - b) for a, b in zip(x, y)), points=pts)


FIXTURES = _fixtures()
FIXTURE_IDS = [label for label, _, _ in FIXTURES]


@pytest.mark.parametrize("label,T,w", FIXTURES, ids=FIXTURE_IDS)
def test_contraction_reports_match_the_point_by_point_scans(label, T, w):
    assert is_weak_contraction(T, w) == _ref_weak(T, w)
    assert is_global_weak_contraction(T, w) == _ref_global(T, w)
    assert validate_witness(T, w) == _ref_validate(T, w)


def test_fixtures_cover_passing_and_failing_reports():
    outcomes = {label: (is_weak_contraction(T, w).passed,
                        is_global_weak_contraction(T, w).passed,
                        validate_witness(T, w).passed)
                for label, T, w in FIXTURES}
    assert outcomes["three-point"] == (True, True, True)
    assert outcomes["ladder"] == (True, True, True)
    assert not outcomes["two-endpoint map"][0]
    assert not outcomes["break-phi-bound"][2]
    assert outcomes["weak-contraction failure"][:2] == (False, False)
    assert not outcomes["cone spread"][1]


@pytest.mark.parametrize("label,T,w", FIXTURES, ids=FIXTURE_IDS)
def test_infsup_matches_the_point_by_point_value(label, T, w):
    try:
        expected = _ref_infsup(T)
    except IncomparableError as ref:
        with pytest.raises(IncomparableError) as exc:
            approximate_endpoint_property_finite(T)
        assert str(exc.value) == str(ref)
        return
    value = approximate_endpoint_property_finite(T)
    assert (value.value, value.achieving_point) == expected


def _quasi(x, y):
    # a quasi-metric: going up costs twice the gap, going down half of it
    return 2 * (y - x) if x < y else (x - y) / 2


def test_min_positive_distance_reads_every_ordered_pair_of_distinct_points():
    line = strict_order_structure(real_module())
    repeated = ConeMetricSpace("repeated", line, lambda x, y: abs(x - y),
                               points=(F(0), F(1), F(1)))
    assert min_positive_distance(repeated) == 1  # not d(1, 1) = 0
    quasi = ConeMetricSpace("quasi", line, _quasi, points=(F(0), F(1)))
    assert min_positive_distance(quasi) == F(1, 2)  # d(1, 0), below d(0, 1) = 2


def test_min_positive_distance_matches_the_point_by_point_chain():
    for space in (_three_point().space, build_bundle(load_instance(LADDER)).space):
        pts = space.points
        every = [space.distance(x, y) for i, x in enumerate(pts) for y in pts[i + 1:]]
        expected = _quadratic_extreme(space.group, every, Order.LESS, "min")
        assert min_positive_distance(space) == expected


# ---------------------------------------------------------------------------
# the table itself


def _counting(space):
    calls = []
    orig = space.metric

    def metric(x, y):
        calls.append((x, y))
        return orig(x, y)

    return dataclasses.replace(space, metric=metric), calls


def test_table_is_filled_once_through_distance():
    b = _three_point()
    space, calls = _counting(b.space)
    T = SetValuedMap.from_table(space, {p: b.map_.images(p) for p in space.points})
    is_global_weak_contraction(T, HALF)
    assert len(calls) == len(space.points) ** 2
    validate_witness(T, HALF)
    is_weak_contraction(T, HALF)
    approximate_endpoint_property_finite(T)
    min_positive_distance(space)
    assert len(calls) == len(space.points) ** 2


def test_replaced_space_starts_with_an_empty_table():
    b = _three_point()
    T = b.map_
    assert is_global_weak_contraction(T, HALF).passed
    # the d2 fault replaces the metric; its table must hold the new distances
    corrupt = harness.fault_inject(b, "break-d2").space
    assert "_distances" not in vars(corrupt)
    pts = corrupt.points
    expected = [corrupt.metric(x, y) for x in pts for y in pts]
    corrupt._dist
    assert vars(corrupt)["_distances"] == expected
    assert vars(b.space)["_distances"] != expected


def test_a_metric_error_leaves_the_table_empty():
    def metric(x, y):
        metric.calls += 1
        if metric.calls == 5:
            raise ValueError("metric failed once")
        return abs(x - y)

    metric.calls = 0
    space = ConeMetricSpace("flaky", strict_order_structure(real_module()), metric,
                            points=(F(0), F(1), F(3)))
    with pytest.raises(ValueError, match="metric failed once"):
        min_positive_distance(space)
    assert "_distances" not in vars(space)
    assert min_positive_distance(space) == 1


def _asymmetric(x, y):
    # a quasi-metric: going down costs the gap, going up twice the gap
    return x - y if x >= y else 2 * (y - x)


def _coordinatewise(x, y):
    return tuple(abs(a - b) for a, b in zip(x, y))


_SMALL = st.sampled_from([F(0), F(1), F(1, 2), F(-1, 3), F(3, 4), F(2)])


@st.composite
def _finite_spaces(draw):
    """A finite space of 1-6 points, repeats allowed, under a symmetric,
    an asymmetric or a cone-valued metric."""
    kind = draw(st.sampled_from(["abs", "asymmetric", "cone"]))
    if kind == "cone":
        pts = tuple(draw(st.lists(st.tuples(_SMALL, _SMALL), min_size=1, max_size=6)))
        return ConeMetricSpace("drawn", interior_cone_structure(coord_cone_module(2)),
                               _coordinatewise, points=pts)
    metric = (lambda x, y: abs(x - y)) if kind == "abs" else _asymmetric
    pts = tuple(draw(st.lists(_SMALL, min_size=1, max_size=6)))
    return ConeMetricSpace("drawn", strict_order_structure(real_module()), metric, points=pts)


@settings(max_examples=120, deadline=None)
@given(_finite_spaces())
def test_table_equals_the_point_by_point_distances(space):
    pts = space.points
    assert space._distances == [space.distance(x, y) for x in pts for y in pts]


def _entry_reader_case(kind):
    """A space, a map on it, its points and a point outside it: four points
    with 0 listed twice, or the sampled box 0 .. 1 in two coordinates."""
    if kind == "finite":
        space = ConeMetricSpace("repeated", strict_order_structure(real_module()),
                                lambda x, y: abs(x - y), points=(F(0), F(1, 2), F(0), F(1)))
        T = SetValuedMap.from_table(space, {F(0): [F(0)], F(1, 2): [F(0)], F(1): [F(1, 2), F(0)]})
        return space, T, space.points, F(2)
    space = ConeMetricSpace("box", interior_cone_structure(coord_cone_module(2)),
                            lambda x, y: tuple(abs(a - b) for a, b in zip(x, y)), None,
                            *_interval_carrier((F(0), F(0)), (F(1), F(1))))
    T = SetValuedMap.from_rule(space, lambda x: [(x[0] / 2, x[1]), (F(0), F(0))])
    rng = random.Random(11)
    return space, T, [space.draw_point(rng) for _ in range(6)], (F(2), F(0))


@pytest.mark.parametrize("kind", ["finite", "sampled"])
def test_entry_readers_stand_for_their_points(kind):
    # an entry is a point's first position on a finite space and the point
    # itself on a sampled one; the space and the map read either kind
    space, T, pts, outside = _entry_reader_case(kind)
    point, dist = space._point, space._dist
    for x in pts:
        a = space._entry(x)
        assert point(a) == x
        assert tuple(point(b) for b in T._entry_images(a)) == T.images(x)
        for y in pts:
            assert dist(a, space._entry(y)) == space.distance(x, y)
    if kind == "finite":
        assert [space._entry(p) for p in pts] == [0, 1, 0, 3]
    with pytest.raises(DomainError) as member:
        space.require_member(outside)
    with pytest.raises(DomainError, match="is not in space") as entry:
        space._entry(outside)
    assert str(entry.value) == str(member.value)


def _scan_recording_bounds(T, w, laws, plan=None):
    """The items of one scan of ``T`` under ``w`` with ``laws`` as the
    runner receives them, running no law, and the ``(x, y)`` pairs at
    which the scan evaluated the bound through the witness's bound reader."""
    calls, items, entry_bound = [], [], w._entry_bound

    def recorded(space):
        bound, point = entry_bound(space), space._point

        def counted(a, b, d):
            calls.append((point(a), point(b)))
            return bound(a, b, d)

        return counted

    object.__setattr__(w, "_entry_bound", recorded)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contraction, "_run_laws", lambda stream, laws: items.extend(stream))
        contraction._scan(T, w, plan, laws)
    return items, calls


@settings(max_examples=120, deadline=None)
@given(_finite_spaces(), st.booleans(), st.sampled_from(["hypotheses", "weak"]))
def test_a_scan_visits_every_ordered_pair_and_evaluates_its_bound_there(space, psi, kind):
    pts, n = space.points, len(space.points)
    scalar = not isinstance(pts[0], tuple)
    w = (ContractionWitness(WitnessClass.PSI_ON_DISTANCE, psi=lambda d: d / (1 + d))
         if psi and scalar else
         ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=F(1, 2)))
    T = SetValuedMap.from_table(space, {p: (p,) for p in pts})
    laws = ([contraction._image_law(T, "global")] + contraction._witness_laws(T, w)
            if kind == "hypotheses" else [contraction._image_law(T, "weak")])
    items, calls = _scan_recording_bounds(T, w, laws)
    pairs = [(a, b) for a in range(n) for b in range(n) if pts[a] != pts[b]]
    assert [item[:2] for item in items] == pairs
    assert calls == [(pts[a], pts[b]) for a, b in pairs]
    for a, b, d, bound in items:  # the class's phi, past the counting one
        x, y = pts[a], pts[b]
        assert d == space.distance(x, y)
        assert bound == ContractionWitness.phi(w, space, x, y, d)


def test_sampled_scans_take_one_bound_a_pair(real_line_space):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,))
    w = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=F(1, 2))
    laws = [contraction._image_law(T, "global")] + contraction._witness_laws(T, w)
    items, calls = _scan_recording_bounds(T, w, laws, SamplePlan(seed=3, count=50))
    assert calls == [(x, y) for x, y, _, _ in items] and len(calls) == 50


def test_a_metric_error_is_held_for_both_walk_hypotheses():
    def metric(x, y):
        metric.calls += 1
        if metric.calls == 5:
            raise ValueError("metric failed once")
        return abs(x - y)

    metric.calls = 0
    space = ConeMetricSpace("flaky", strict_order_structure(real_module()), metric,
                            points=(F(0), F(1), F(3)))
    T = SetValuedMap.from_table(space, {p: (F(0),) for p in space.points})
    outcomes = contraction._hypothesis_pass(T, HALF, SamplePlan(), True)
    assert all(out is outcomes[0] for out in outcomes)
    assert (type(outcomes[0]), str(outcomes[0])) == (ValueError, "metric failed once")
    assert "_distances" not in vars(space)


@pytest.mark.parametrize("fail_at", [1, 2, 4, 5, 9, 16])
def test_a_metric_error_mid_fill_is_the_first_row_major_one(fail_at):
    pts = (F(0), F(1), F(3), F(1))
    order = [(x, y) for x in pts for y in pts]
    seen = []

    def metric(x, y):
        seen.append((x, y))
        if len(seen) >= fail_at:
            raise ValueError(f"metric failed at ({x}, {y})")
        return abs(x - y)

    space = ConeMetricSpace("flaky", strict_order_structure(real_module()), metric, points=pts)
    x, y = order[fail_at - 1]
    with pytest.raises(ValueError) as exc:
        space._distances
    assert str(exc.value) == f"metric failed at ({x}, {y})"
    assert seen == order[:fail_at]
    assert "_distances" not in vars(space)


def test_filling_the_ladder_table_hashes_nothing(monkeypatch):
    space = build_bundle(load_instance(LADDER)).space
    calls = {"hash": 0, "eq": 0}
    raw_hash, raw_eq = Fraction.__hash__, Fraction.__eq__

    def counted_hash(self):
        calls["hash"] += 1
        return raw_hash(self)

    def counted_eq(self, other):
        calls["eq"] += 1
        return raw_eq(self, other)

    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    monkeypatch.setattr(Fraction, "__eq__", counted_eq)
    table = space._distances
    monkeypatch.undo()
    # filling compares nothing: the mirror test made 495 equality tests
    assert (calls, len(table)) == ({"hash": 0, "eq": 0}, 961)


def test_sampled_spaces_tabulate_nothing(real_line_space):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,))
    assert is_global_weak_contraction(T, HALF, SamplePlan(seed=3, count=50)).passed
    assert "_distances" not in vars(real_line_space)
    assert "_index" not in vars(real_line_space)
    assert "_image_positions" not in vars(T)


# ---------------------------------------------------------------------------
# images outside a finite carrier


def _escaping_map():
    space = _three_point().space
    return SetValuedMap.from_rule(space, lambda x: (x * 2,), name="double")


@pytest.mark.parametrize("check", [is_weak_contraction, is_global_weak_contraction])
def test_image_outside_the_carrier_names_the_point(check):
    with pytest.raises(DomainError, match=r"map 'double' sends 1/4 to 1/2, which is "
                                          r"not in space 'three-point'"):
        check(_escaping_map(), HALF)


def test_image_outside_the_carrier_stops_the_walk_and_the_infsup():
    T = _escaping_map()
    with pytest.raises(DomainError, match="sends 1/4 to 1/2"):
        approximate_endpoint_property_finite(T)
    cfg = SolverConfig(eps=F(1, 16), seed_point=F(1))
    with pytest.raises(DomainError, match="sends 1/4 to 1/2"):
        iterate_endpoint(T, HALF, cfg)


def test_image_outside_the_carrier_exits_two_from_solve(monkeypatch, capsys):
    def escaping_bundle(desc):
        bundle = build_bundle(desc)
        return bundle.replace(map_=SetValuedMap.from_rule(bundle.space, lambda x: (x * 2,),
                                                          name="double"))

    monkeypatch.setattr(cli, "build_bundle", escaping_bundle)
    rc = main(["solve", "three-point", "--seed-point", "1", "--eps", "1/16"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("domain error: map 'double' sends 1/4 to 1/2, "
                   "which is not in space 'three-point'\n")


# ---------------------------------------------------------------------------
# exact comparison kernels

_huge = st.integers(min_value=1, max_value=10 ** 40)
_rationals = st.one_of(
    st.integers(min_value=-10 ** 30, max_value=10 ** 30),
    st.fractions(),
    st.builds(Fraction, st.integers(min_value=-10 ** 40, max_value=10 ** 40), _huge),
    st.sampled_from([F(0), 0, F(-1, 3), F(1, 10 ** 40), F(-1, 10 ** 40)]),
)


def _python_order(a, b):
    if a == b:
        return Order.EQUAL
    return Order.LESS if a < b else Order.GREATER


@settings(max_examples=400, deadline=None)
@given(_rationals, _rationals)
def test_scalar_cmp_agrees_with_python_comparisons(a, b):
    assert _scalar_cmp(a, b) is _python_order(a, b)
    assert _scalar_cmp(b, a) is _python_order(b, a)
    assert _scalar_cmp(a, a) is Order.EQUAL


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(st.lists(_rationals, min_size=n, max_size=n),
                        st.lists(_rationals, min_size=n, max_size=n))))
def test_cone_cmp_agrees_with_python_comparisons(pair):
    a, b = (tuple(v) for v in pair)
    below = any(x < y for x, y in zip(a, b))
    above = any(x > y for x, y in zip(a, b))
    expected = (Order.INCOMPARABLE if below and above else Order.LESS if below
                else Order.GREATER if above else Order.EQUAL)
    assert _cone_cmp(a, b) is expected


# ---------------------------------------------------------------------------
# least and greatest elements in one pass


def _vector(ints):
    return tuple(F(v) for v in ints)


_steps = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=14)


@st.composite
def _cone_chains(draw):
    """A shuffled chain of cone-2 vectors, repeats included as new objects."""
    total, chain = (0, 0), []
    for step in draw(_steps):
        total = (total[0] + step[0], total[1] + step[1])
        chain.append(_vector(total))
    return draw(st.permutations(chain))


@st.composite
def _cone_antichains(draw):
    xs = draw(st.lists(st.integers(-5, 5), min_size=2, max_size=10, unique=True))
    return [_vector((x, 3 - x)) for x in xs]


_cone_lists = st.one_of(
    _cone_chains(),
    _cone_antichains(),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(_vector),
             min_size=1, max_size=10),
)


def _same_outcome(g, vals, keep, fn):
    try:
        expected = _quadratic_extreme(g, vals, keep, "ctx")
    except IncomparableError as ref:
        with pytest.raises(IncomparableError) as exc:
            fn(g, vals, "ctx")
        assert str(exc.value) == str(ref)
        assert exc.value.pair[0] is ref.pair[0] and exc.value.pair[1] is ref.pair[1]
        return "raised"
    assert fn(g, vals, "ctx") is expected
    return "returned"


@settings(max_examples=300, deadline=None)
@given(_cone_lists)
def test_order_extreme_matches_the_quadratic_scan_on_cone_2(vals):
    g = coord_cone_group(2)
    _same_outcome(g, vals, Order.LESS, order_min)
    _same_outcome(g, vals, Order.GREATER, order_max)


@settings(max_examples=200, deadline=None)
@given(_cone_chains())
def test_order_extreme_on_a_chain_returns_the_first_equal_extreme(vals):
    g = coord_cone_group(2)
    assert _same_outcome(g, vals, Order.LESS, order_min) == "returned"
    assert _same_outcome(g, vals, Order.GREATER, order_max) == "returned"


@settings(max_examples=100, deadline=None)
@given(_cone_antichains())
def test_order_extreme_on_an_antichain_raises_on_the_first_pair(vals):
    g = coord_cone_group(2)
    assert _same_outcome(g, vals, Order.LESS, order_min) == "raised"


def test_order_extreme_on_the_line_returns_the_first_occurrence():
    g = real_group()
    rng = random.Random(5)
    for _ in range(50):
        vals = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 12))]
        _same_outcome(g, vals, Order.LESS, order_min)
        _same_outcome(g, vals, Order.GREATER, order_max)


def test_order_extreme_takes_a_least_element_that_is_no_chain():
    g = coord_cone_group(2)
    items = [_vector(v) for v in ((1, 0), (0, 0), (0, 1))]
    assert order_min(g, items) is items[1]
    items = [_vector(v) for v in ((0, 1), (1, 1), (1, 0))]
    assert order_max(g, items) is items[1]
    with pytest.raises(IncomparableError, match=r"^min: incomparable pair \(0, 1\) , \(1, 0\)$"):
        order_min(g, items)


def test_order_extreme_returns_the_first_of_a_repeated_extreme():
    g = coord_cone_group(2)
    items = [_vector(v) for v in ((1, 0), (0, 0), (0, 1), (0, 0), (2, 2), (2, 2))]
    assert order_min(g, items) is items[1]
    assert order_max(g, items) is items[4]


def test_order_extreme_raises_on_a_comparison_that_is_no_partial_order():
    # 1 is incomparable with 0, but 0 is below 1: the pass notes 1 and the
    # pair scan finds nothing to name
    g = real_group()

    def lopsided(a, b):
        return Order.INCOMPARABLE if (a, b) == (F(1), F(0)) else _scalar_cmp(a, b)

    with pytest.raises(RuntimeError, match="^min: the comparison is not a partial order$"):
        order_min(dataclasses.replace(g, cmp=lopsided), [F(0), F(1)])


def test_hausdorff_of_every_subset_with_itself_is_the_identity():
    # the grid {0, 1, 2}^2 under the coordinatewise metric: every nonempty
    # subset A has H(A, A) = 0, although most have no chain of distances
    pts = tuple(_vector((i, j)) for i in range(3) for j in range(3))
    structure = interior_cone_structure(coord_cone_module(2))
    grid = ConeMetricSpace("grid", structure,
                           lambda x, y: tuple(abs(a - b) for a, b in zip(x, y)), points=pts)
    zero = grid.group.identity
    for mask in range(1, 2 ** len(pts)):
        subset = [p for i, p in enumerate(pts) if mask >> i & 1]
        assert cone_metric.hausdorff(grid, subset, subset) == zero, subset


# ---------------------------------------------------------------------------
# the walk hypotheses in one pass


def _read(get):
    """A report, or the text of the domain error reading it raised."""
    try:
        return get()
    except DomainError as exc:
        return f"DomainError: {exc}"


_ratios = st.sampled_from([F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(5, 4)])


@st.composite
def _maps_and_witnesses(draw, space):
    """A random map table on ``space`` and a witness of any class, passing
    or failing: phi tables with scaled, skewed (so possibly incomparable on
    a cone) or missing entries, constant ratios in range or forced out of
    it, ratio functions that break their range or declared bound, and psi
    functions (a scaling on a cone)."""
    pts, cone = space.points, isinstance(space.points[0], tuple)
    T = SetValuedMap.from_table(
        space, {p: draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3)) for p in pts},
        name="random")
    pairs = _ref_pairs(space)
    klass = draw(st.sampled_from(list(WitnessClass)))
    if klass is WitnessClass.PHI_TABLE:
        table = {}
        for x, y in pairs:
            d = space.distance(x, y)
            skew = cone and draw(st.booleans())
            table[(x, y)] = (draw(_ratios) * d[0], draw(_ratios) * d[1]) if skew \
                else space.structure.module.scale(draw(_ratios), d)
        for key in draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else ():
            table.pop(key, None)
        return T, ContractionWitness(klass, phi_table=bound_table(space, table))
    if klass is WitnessClass.ALPHA_CONSTANT:
        w = ContractionWitness(klass, alpha_const=draw(st.sampled_from(
            [F(0), F(1, 4), F(1, 2), F(3, 4)])))
        if draw(st.integers(0, 4)) == 0:  # past the constructor's range check
            object.__setattr__(w, "alpha_const", draw(st.sampled_from([F(1), F(3, 2)])))
        return T, w
    if klass is WitnessClass.ALPHA_FUNCTION:
        ratios = {pair: draw(_ratios) for pair in pairs}
        return T, ContractionWitness(klass, alpha_fn=lambda x, y: ratios[(x, y)],
                                     alpha_bound=draw(st.sampled_from([F(1, 2), F(3, 4)])))
    r = draw(_ratios)
    if cone:
        return T, ContractionWitness(klass, psi=lambda d: space.structure.module.scale(r, d))
    psi = draw(st.sampled_from([lambda d: r * d, lambda d: d / (1 + d),
                                lambda d: min(d, F(1, 2))]))
    return T, ContractionWitness(klass, psi=psi)


@st.composite
def _hypothesis_cases(draw):
    """A random finite space of distinct points on the line or on the
    cone-2 grid, with a random map table and witness."""
    if draw(st.booleans()):
        coords = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               min_size=1, max_size=5, unique=True))
        space = ConeMetricSpace("cone", interior_cone_structure(coord_cone_module(2)),
                                lambda x, y: tuple(abs(a - b) for a, b in zip(x, y)),
                                points=tuple(_vector(c) for c in coords))
    else:
        nums = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True))
        space = ConeMetricSpace("line", strict_order_structure(real_module()),
                                lambda x, y: abs(x - y), points=tuple(F(k, 4) for k in nums))
    return draw(_maps_and_witnesses(space))


@settings(max_examples=400, deadline=None)
@given(_hypothesis_cases())
def test_one_pass_hypotheses_equal_the_two_scans(case):
    T, w = case
    hyps = check_hypotheses(T, w)
    expected_global = _read(lambda: _ref_global(T, w))
    expected_witness = _read(lambda: _ref_validate(T, w))
    assert _read(lambda: hyps.global_report) == expected_global
    assert _read(lambda: hyps.witness_report) == expected_witness
    assert _read(lambda: is_global_weak_contraction(T, w)) == expected_global
    assert _read(lambda: validate_witness(T, w)) == expected_witness


def _outcome(value):
    """A report, or a held error as its type and text."""
    return (type(value), str(value)) if isinstance(value, Exception) else value


def _raised(get):
    try:
        return get()
    except Exception as exc:  # noqa: BLE001 - compared with the reference's held error
        return _outcome(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_finite_spaces(), st.data())
def test_every_scan_equals_the_every_pair_reference(space, data):
    # repeated points, asymmetric and cone tables, multi-valued maps, every
    # witness class, and psi bounds that raise at one distance: the table
    # and the bound reuse change no outcome, count, text or held error
    T, w = data.draw(_maps_and_witnesses(space))
    pairs = _ref_pairs(space)
    if w.klass is WitnessClass.PSI_ON_DISTANCE and pairs and data.draw(st.booleans()):
        inner, bad = w.psi, space.distance(*data.draw(st.sampled_from(pairs)))

        def psi(d):
            if d == bad:
                raise ValueError(f"psi undefined at {format_element(d)}")
            return inner(d)

        w = ContractionWitness(WitnessClass.PSI_ON_DISTANCE, psi=psi)
    global_outcome, witness_outcome, weak_outcome = \
        contraction._hypothesis_pass(T, w, SamplePlan(), True)
    assert contraction._hypothesis_pass(T, w, SamplePlan())[2] is None
    assert _outcome(global_outcome) == _outcome(_every_pair(T, w, ["global"])[0])
    assert _outcome(witness_outcome) == _outcome(_every_pair_witness(T, w))
    assert _outcome(weak_outcome) == _outcome(_every_pair(T, w, ["weak"])[0])
    assert _raised(lambda: is_global_weak_contraction(T, w)) == _outcome(global_outcome)
    assert _raised(lambda: validate_witness(T, w)) == _outcome(witness_outcome)
    assert _raised(lambda: is_weak_contraction(T, w)) == _outcome(weak_outcome)
    # the kept one-sided outcome, decided in the verdict's own pass or in a
    # scan added to a verdict kept without it, is the standalone check's
    together, added = dataclasses.replace(T), dataclasses.replace(T)
    check_hypotheses(added, w)
    for U in (together, added):
        assert _raised(lambda: check_hypotheses(U, w, one_sided=True).one_sided_report) \
            == _outcome(weak_outcome)


def _counting_laws(calls):
    """A law runner that runs ``order_core._run_laws`` with each predicate
    counting its calls into ``calls`` under its law's name."""

    def counted(law, predicate):
        def counting(*args):
            calls[law] += 1
            return predicate(*args)

        return counting

    def run_laws(stream, laws):
        for law, _ in laws:
            calls[law] = 0
        return order_core._run_laws(stream, [(law, counted(law, p)) for law, p in laws])

    return run_laws


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_finite_spaces(), st.data())
def test_every_law_evaluates_each_item_it_counts_as_checked(space, data):
    # symmetric, asymmetric and cone tables, repeated points and every
    # witness class: a law's count is the number of its predicate calls,
    # and alpha-range's the number of ratios it evaluated (outside phi)
    T, w = data.draw(_maps_and_witnesses(space))
    ratios, in_phi = [0], [0]
    raw_alpha, raw_phi = ContractionWitness.alpha, ContractionWitness.phi

    def counted_alpha(self, x, y):
        ratios[0] += not in_phi[0]
        return raw_alpha(self, x, y)

    def counted_phi(self, *args):
        in_phi[0] += 1
        try:
            return raw_phi(self, *args)
        finally:
            in_phi[0] -= 1

    checks = {
        "weak": lambda: [contraction.is_weak_contraction(T, w)],
        "global": lambda: [contraction.is_global_weak_contraction(T, w)],
        "witness": lambda: list(contraction.validate_witness(T, w).results),
        "pass": lambda: [r for out in contraction._hypothesis_pass(T, w, SamplePlan(), True)
                         for r in getattr(out, "results", (out,))],
    }
    for check, run in checks.items():
        calls = {}
        ratios[0] = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contraction, "_run_laws", _counting_laws(calls))
            mp.setattr(ContractionWitness, "alpha", counted_alpha)
            mp.setattr(ContractionWitness, "phi", counted_phi)
            try:
                results = run()
            except Exception:  # noqa: BLE001 - a held error carries no count
                continue
        for r in results:
            if isinstance(r, LawResult):
                assert calls[r.law] == r.checked, (check, r)
                if r.law == "alpha-range":
                    assert ratios[0] == r.checked, (check, r)


def test_an_asymmetric_table_checks_both_orders_of_a_pair():
    # d(0, 1) = 2 and d(1, 0) = 1/2, and T swaps the points: (0, 1) meets
    # its bound 1 at image distance d(1, 0), while (1, 0) has bound 1/4 and
    # image distance d(0, 1) = 2; a scan that read (1, 0) off (0, 1) would pass
    space = ConeMetricSpace("quasi", strict_order_structure(real_module()), _quasi,
                            points=(F(0), F(1)))
    T = SetValuedMap.from_table(space, {F(0): (F(1),), F(1): (F(0),)}, name="swap")
    expected = LawResult("global", False, 2, "x=1, y=0, x'=0, y'=1: d=2 exceeds 1/4")
    assert is_global_weak_contraction(T, HALF) == expected
    assert check_hypotheses(T, HALF).global_report == expected


def _verdict(get):
    out = _read(get)
    return "raises" if isinstance(out, str) else out.passed


@pytest.mark.parametrize("klass", list(WitnessClass), ids=[k.value for k in WitnessClass])
def test_hypothesis_cases_pass_and_fail_for_every_witness_class(klass):
    wanted = [(True, True), (False, False), (True, False)]
    if klass is WitnessClass.PHI_TABLE:
        wanted.append(("raises", "raises"))
    for verdicts in wanted:
        find(_hypothesis_cases(),
             lambda c: c[1].klass is klass and (_verdict(lambda: _ref_global(*c)),
                                                _verdict(lambda: _ref_validate(*c))) == verdicts,
             settings=settings(max_examples=2000, database=None, derandomize=True,
                               phases=[Phase.generate]))


class _CountedRatio(Fraction):
    """A ratio that counts the comparisons made with it."""

    compared = 0

    def __ge__(self, other):
        _CountedRatio.compared += 1
        return super().__ge__(other)

    def __lt__(self, other):
        _CountedRatio.compared += 1
        return super().__lt__(other)


@pytest.mark.parametrize("alpha", [F(1, 2), F(3, 2)])
def test_constant_ratio_range_is_checked_once_per_report(real_line_space, alpha):
    T = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,))
    plan = SamplePlan(seed=3, count=50)
    w = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=F(0))
    object.__setattr__(w, "alpha_const", _CountedRatio(alpha))  # past the range check
    _CountedRatio.compared = 0
    result = validate_witness(T, w, plan).result("alpha-range")
    assert _CountedRatio.compared == 2  # 0 <= alpha < 1, once for all 50 pairs
    if alpha < 1:
        assert result == LawResult("alpha-range", True, 1)  # one item: the ratio
    else:
        x, y = contraction._distinct_pairs(real_line_space, plan)[0]
        assert result == LawResult("alpha-range", False, 1,
                                   f"ratio 3/2 at ({format_element(x)}, {format_element(y)})")


# a phi table missing the entry at (1, 1/4), the last pair of three-point,
# with the two reports failing before it or not at all; rows and solve
# stderr as the two separate scans gave them
_MISSING = "error: bound table has no entry for (1, 1/4)"
_PHI_CASES = {
    "missing": ({}, _MISSING, _MISSING,
                "domain error: bound table has no entry for (1, 1/4)\n"),
    "witness fails first": (
        {(F(0), F(1, 4)): F(1, 4)}, "x=0, y=1/4: bound 1/4 not strictly below 1/4", _MISSING,
        "hypothesis violated: the bound must sit strictly below the distance at every "
        "pair of distinct points\nwitness: x=0, y=1/4: bound 1/4 not strictly below 1/4\n"),
    "global fails first": (
        {(F(0), F(1)): F(1, 8)}, _MISSING, "x=0, y=1, x'=0, y'=1/4: d=1/4 exceeds 1/8",
        "domain error: bound table has no entry for (1, 1/4)\n"),
}


def _gappy_phi(space, overrides):
    table = {(x, y): space.distance(x, y) / 2 for x, y in _ref_pairs(space)}
    table.update(overrides)
    del table[(F(1), F(1, 4))]
    return ContractionWitness(WitnessClass.PHI_TABLE, phi_table=bound_table(space, table))


def _map_rows(bundle):
    checks = ("map/phi-strictly-below", "map/weak-contraction", "map/global-contraction")
    report = harness.run_suite(harness.SuiteSpec((bundle.name,), checks),
                               {bundle.name: bundle})
    return [report.row(check, bundle.name).witness for check in checks]


@pytest.mark.parametrize("case", list(_PHI_CASES))
def test_missing_phi_entry_keeps_each_report_and_solve_error(case, monkeypatch, capsys):
    overrides, witness_row, global_row, stderr = _PHI_CASES[case]
    b = _three_point()
    w = _gappy_phi(b.space, overrides)
    assert _map_rows(b.replace(witness=w)) == [witness_row, _MISSING, global_row]
    monkeypatch.setattr(cli, "build_bundle",
                        lambda desc: build_bundle(desc).replace(witness=w))
    rc = main(["solve", "three-point", "--seed-point", "1", "--eps", "1/16"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (2, "", stderr)


def test_a_phi_file_missing_an_entry_is_a_parse_error(tmp_path, capsys):
    text = BUILTIN_INSTANCE_TEXTS["three-point"]
    path = tmp_path / "gappy.ini"
    pairs = [("0", "1/4"), ("0", "1"), ("1/4", "0"), ("1/4", "1"), ("1", "0")]  # no (1, 1/4)
    path.write_text(text[:text.index("[witness]")] + "[witness]\nclass = phi-table\n"
                    + "".join(f"phi {x} | {y} = 1/8\n" for x, y in pairs), encoding="utf-8")
    rc = main(["solve", str(path), "--seed-point", "1", "--eps", "1/16"])
    assert (rc, capsys.readouterr().err) == (3, "parse error: phi table misses pair (1, 1/4)\n")


def test_raising_images_leave_the_witness_row_its_own():
    b = _three_point()

    def images(x):
        if x == F(1):
            raise ValueError("no image at 1")
        return (F(0),)

    raising = b.replace(map_=SetValuedMap.from_rule(b.space, images, name="raising"))
    assert _map_rows(raising) == ["checked 6", "error: no image at 1", "error: no image at 1"]


def test_a_map_without_a_witness_skips_the_rows_that_need_one(tmp_path, capsys):
    text = LADDER.read_text(encoding="utf-8")
    path = tmp_path / "no-witness.ini"
    path.write_text(text[:text.index("[witness]")], encoding="utf-8")
    rc = main(["verify", str(path), "--checks", "endpoint/at-most-one,solver/oracle-agreement",
               "--format", "machine-rows"])
    assert capsys.readouterr().out == (
        "endpoint/at-most-one\tno-witness\tskip\tbundle has no witness\n"
        "solver/oracle-agreement\tno-witness\tskip\tbundle has no witness\n")
    assert rc == 0


# ---------------------------------------------------------------------------
# work counters on the 31-point ladder


@pytest.mark.parametrize("rule", ["min-dist", "lex"])
def test_ladder_solve_computes_each_distance_about_once(monkeypatch, capsys, rule):
    # the point-by-point scans made 6,272 to 6,421 distance calls per solve
    # here, about 6.6 per ordered pair; the table makes 961 and the walk the rest
    calls = [0]
    orig = cone_metric.ConeMetricSpace.distance

    def counted(self, x, y):
        calls[0] += 1
        return orig(self, x, y)

    monkeypatch.setattr(cone_metric.ConeMetricSpace, "distance", counted)
    rc = main(["solve", str(LADDER), "--seed-point", "1", "--eps", LADDER_EPS,
               "--rule", rule])
    assert rc == 0
    assert "endpoint: 0" in capsys.readouterr().out
    assert 961 <= calls[0] <= 1100


def test_ladder_pairs_compare_positions_not_points(monkeypatch):
    space = build_bundle(load_instance(LADDER)).space
    calls = [0]
    raw_eq = Fraction.__eq__

    def counted(self, other):
        calls[0] += 1
        return raw_eq(self, other)

    monkeypatch.setattr(Fraction, "__eq__", counted)
    pairs = contraction._distinct_pairs(space, SamplePlan())
    monkeypatch.undo()
    assert (len(pairs), calls[0]) == (930, 0)


# rational comparisons, Fraction constructions (Fraction.__new__ or
# order_core._q) and Fraction equality tests in one ladder solve, the
# hypotheses visiting all 930 ordered pairs; the pair scan that compared
# points made 1,818 equality tests, and the walk on points 2,069
# constructions and 362 equality tests
LADDER_SOLVE_BUDGET = {"cmp": 5370, "new": 2047, "eq": 340}


def test_ladder_solve_stays_within_its_work_budget(monkeypatch, capsys):
    counts = dict.fromkeys(LADDER_SOLVE_BUDGET, 0)
    raw_cmp, raw_eq = order_core._scalar_cmp, Fraction.__eq__
    raw_new = Fraction.__dict__["__new__"].__func__
    raw_q = order_core._q

    def counted_cmp(a, b):
        counts["cmp"] += 1
        return raw_cmp(a, b)

    def counted_new(cls, *args, **kwargs):
        counts["new"] += 1
        return raw_new(cls, *args, **kwargs)

    def counted_q(n, d):
        counts["new"] += 1
        return raw_q(n, d)

    def counted_eq(self, other):
        counts["eq"] += 1
        return raw_eq(self, other)

    monkeypatch.setattr(order_core, "_scalar_cmp", counted_cmp)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(order_core, "_q", counted_q)
    monkeypatch.setattr(Fraction, "__eq__", counted_eq)
    rc = main(["solve", str(LADDER), "--seed-point", "1", "--eps", "1/1024",
               "--rule", "min-dist"])
    monkeypatch.undo()
    assert rc == 0
    assert capsys.readouterr().out.startswith("outcome: approximate-endpoint-sequence\n")
    assert all(counts[k] <= LADDER_SOLVE_BUDGET[k] for k in counts), counts


# pair lists, bound evaluations and rational comparisons of one ladder
# verify of its map, endpoint and solver rows: one pass lists the 930 pairs
# and evaluates their bounds for the three pair laws, and the oracle row's
# walks evaluate one bound a step, 60 in all; the separate one-sided scan
# listed the pairs twice and called phi 1,920 times (930 + 930 + 60)
LADDER_VERIFY_BUDGET = {"pairs": 1, "bounds": 990, "cmp": 9226}


def test_ladder_verify_stays_within_its_work_budget(monkeypatch, capsys, bounds_read):
    counts = dict.fromkeys(LADDER_VERIFY_BUDGET, 0)
    raw_pairs, raw_cmp = contraction._distinct_pairs, order_core._scalar_cmp

    def counted_pairs(*args):
        counts["pairs"] += 1
        return raw_pairs(*args)

    def counted_cmp(a, b):
        counts["cmp"] += 1
        return raw_cmp(a, b)

    monkeypatch.setattr(contraction, "_distinct_pairs", counted_pairs)
    monkeypatch.setattr(order_core, "_scalar_cmp", counted_cmp)
    rc = main(["verify", str(LADDER), "--checks", "map,endpoint,solver",
               "--format", "machine-rows"])
    monkeypatch.undo()
    counts["bounds"] = bounds_read[0]
    assert rc == 0
    assert capsys.readouterr().out == \
        (DATA / "verify-ladder-31-seed0.rows").read_text(encoding="utf-8")
    assert (counts["pairs"], counts["bounds"]) == \
        (LADDER_VERIFY_BUDGET["pairs"], LADDER_VERIFY_BUDGET["bounds"]), counts
    assert counts["cmp"] <= LADDER_VERIFY_BUDGET["cmp"], counts


# _select_next calls, Fraction equality tests and Fraction hashes of the
# ladder's oracle row, 2 x 31 walks: each rule decides the step from each of
# the 30 points that are not the endpoint once; the walks on points decided
# every step anew, 705 selections, 3,950 equality tests and 2,003 hashes
ORACLE_ROW_BUDGET = {"select": 60, "eq": 242, "hash": 306}


def test_ladder_oracle_row_decides_each_step_once(monkeypatch):
    bundle = build_bundle(load_instance(LADDER))
    counts = dict.fromkeys(ORACLE_ROW_BUDGET, 0)
    raw_select, raw_eq, raw_hash = solver._select_next, Fraction.__eq__, Fraction.__hash__

    def counted_select(*args):
        counts["select"] += 1
        return raw_select(*args)

    def counted_eq(self, other):
        counts["eq"] += 1
        return raw_eq(self, other)

    def counted_hash(self):
        counts["hash"] += 1
        return raw_hash(self)

    monkeypatch.setattr(solver, "_select_next", counted_select)
    monkeypatch.setattr(Fraction, "__eq__", counted_eq)
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    report = harness.run_suite(harness.SuiteSpec((bundle.name,), ("solver/oracle-agreement",)),
                               {bundle.name: bundle})
    monkeypatch.undo()
    assert report.row("solver/oracle-agreement", bundle.name).witness == \
        "every seed and rule reaches 0"
    assert all(counts[k] <= ORACLE_ROW_BUDGET[k] for k in counts), counts


# Fraction.__hash__ calls of weak_contraction_corpus(0, 3000) alone, and
# with the one-sided check, the endpoint scan and the inf-sup value of every
# instance: each instance's point index, built with its map; the checks read
# positions and hash nothing. Scoring every pair of every attempt and
# rebuilding each kept one through a point-keyed table took 111,297 and
# 205,217, point-keyed bound tables and image dicts 47,530 and 112,214, and
# an endpoint scan that looked each point's image up by point 8,730 and 17,358
CORPUS_HASH_BUDGET = {"generate": 8730, "total": 8730}


def test_corpus_stays_within_its_hash_budget(monkeypatch):
    calls = [0]
    raw_hash = Fraction.__hash__

    def counted(self):
        calls[0] += 1
        return raw_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    insts = weak_contraction_corpus(0, 3000)
    counts = {"generate": calls[0]}
    for inst in insts:
        assert is_weak_contraction(inst.map_, inst.phi_witness).passed
        endpoints_bruteforce(inst.map_)
        approximate_endpoint_property_finite(inst.map_)
    monkeypatch.undo()
    counts["total"] = calls[0]
    assert all(counts[k] <= CORPUS_HASH_BUDGET[k] for k in counts), counts


def test_ladder_min_positive_distance_takes_one_pass(monkeypatch):
    # one comparison per ordered pair after the first, and no hash: the
    # all-pairs chain check made 108,344 comparisons on its 465 values, the
    # chain sort about 3,800, and deduplicating the 930 values first took
    # 930 hashes and 464 comparisons; the pair list looked up the first
    # position of each of the 31 points, and now reads that each point is
    # listed once from the size of the index
    calls = {"cmp": 0, "hash": 0}
    orig, raw_hash = order_core._scalar_cmp, Fraction.__hash__

    def counted(a, b):
        calls["cmp"] += 1
        return orig(a, b)

    def counted_hash(self):
        calls["hash"] += 1
        return raw_hash(self)

    monkeypatch.setattr(order_core, "_scalar_cmp", counted)
    space = build_bundle(load_instance(LADDER)).space
    space._dist
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    calls.update(cmp=0, hash=0)  # building the space compares and hashes too
    assert min_positive_distance(space) == Fraction(1, 4) ** 29
    assert calls == {"cmp": 929, "hash": 0}


@pytest.fixture
def bounds_read(monkeypatch):
    """Count the bounds read through every witness's bound reader, the one
    way a scan or a walk evaluates a bound (the ladder's constant ratio
    scales the distance there, without calling ``phi``)."""
    calls, entry_bound = [0], ContractionWitness._entry_bound

    def counted_reader(self, space):
        bound = entry_bound(self, space)

        def counted(*args):
            calls[0] += 1
            return bound(*args)

        return counted

    monkeypatch.setattr(ContractionWitness, "_entry_bound", counted_reader)
    return calls


def test_ladder_solve_checks_its_hypotheses_in_one_pass(monkeypatch, capsys, bounds_read):
    # the two separate scans listed the 930 pairs twice and evaluated phi
    # 1,860 times; one pass lists them once and evaluates the bound once a
    # pair for both hypotheses
    listed, in_check = [], {}
    pairs, check = contraction._distinct_pairs, cli.check_hypotheses

    def counted_pairs(*args):
        out = pairs(*args)
        listed.append(len(out))
        return out

    def counted_check(*args):
        before = bounds_read[0]
        out = check(*args)
        in_check["bounds"] = bounds_read[0] - before
        return out

    monkeypatch.setattr(contraction, "_distinct_pairs", counted_pairs)
    monkeypatch.setattr(cli, "check_hypotheses", counted_check)
    rc = main(["solve", str(LADDER), "--seed-point", "1", "--eps", LADDER_EPS])
    assert rc == 0
    assert "endpoint: 0" in capsys.readouterr().out
    assert listed == [930]
    assert in_check["bounds"] == 930


@pytest.mark.parametrize("rule, steps", [("min-dist", 30), ("lex", 15)])
def test_ladder_solve_evaluates_one_bound_per_ordered_pair(capsys, bounds_read, rule, steps):
    # the hypotheses take one bound per ordered pair, the walk one a step
    rc = main(["solve", str(LADDER), "--seed-point", "1", "--eps", LADDER_EPS, "--rule", rule])
    out = capsys.readouterr().out
    assert rc == 0
    assert sum(line.startswith("  n=") for line in out.splitlines()) == steps
    assert bounds_read[0] == 930 + steps


def test_ladder_walk_hypotheses_evaluate_each_ordered_pair_once(monkeypatch, capsys):
    # the global law and the one-sided law each run on all 930 ordered pairs
    calls = {"global": 0, "weak": 0}
    image_law = contraction._image_law

    def counted(T, kind):
        name, law = image_law(T, kind)

        def counting(*args):
            calls[kind] += 1
            return law(*args)

        return name, counting

    monkeypatch.setattr(contraction, "_image_law", counted)
    assert main(["solve", str(LADDER), "--seed-point", "1", "--eps", LADDER_EPS]) == 0
    assert calls == {"global": 930, "weak": 0}
    assert main(["verify", str(LADDER), "--checks", "map/weak-contraction",
                 "--format", "machine-rows"]) == 0
    assert calls == {"global": 930, "weak": 930}
    capsys.readouterr()


def test_ladder_hausdorff_triangle_stays_within_its_work_budget(monkeypatch, capsys):
    # every ordered triple of the 36 distinct sampled sets (the file's name
    # seeds the sampler: the same text as ladder-0.ini draws 38), each H once
    # per ordered pair of sets; the row's only order test is the triangle's
    counts = {"triples": 0, "hausdorff": 0}
    leq, hausdorff = order_core.OrderedGroupInstance.leq, harness.hausdorff

    def counted_leq(self, a, b):
        counts["triples"] += 1
        return leq(self, a, b)

    def counted_hausdorff(*args):
        counts["hausdorff"] += 1
        return hausdorff(*args)

    monkeypatch.setattr(order_core.OrderedGroupInstance, "leq", counted_leq)
    monkeypatch.setattr(harness, "hausdorff", counted_hausdorff)
    rc = main(["verify", str(LADDER), "--checks", "hausdorff/triangle", "--seed", "0",
               "--format", "machine-rows"])
    monkeypatch.undo()
    assert rc == 0
    assert capsys.readouterr().out.split("\t")[2] == "pass"
    assert counts == {"triples": 36 ** 3, "hausdorff": 36 ** 2}


# ---------------------------------------------------------------------------
# ladder goldens, generated by the point-by-point implementation


def test_ladder_verify_matches_golden(capsys):
    rc = main(["verify", str(LADDER), "--checks", "map,endpoint,solver",
               "--format", "machine-rows", "--seed", "0"])
    assert rc == 0
    golden = (DATA / "verify-ladder-31-seed0.rows").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("rule", ["min-dist", "lex"])
@pytest.mark.parametrize("point,tag", [("1", "1"), ("1/1024", "1_1024"), ("0", "0")])
def test_ladder_solve_matches_golden(capsys, point, tag, rule):
    rc = main(["solve", str(LADDER), "--seed-point", point, "--eps", LADDER_EPS,
               "--rule", rule])
    assert rc == 0
    golden = (DATA / f"solve-ladder-31-{tag}-{rule}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
