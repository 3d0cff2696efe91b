"""Metric spaces whose distances land in an ordered group.

Point sets are either finite enumerations or sampled rational boxes; the
distance map is exact. The space owns the entry format of pair scans and
walks: an entry is a point's first position on a finite space and the
point itself on a sampled one; ``_entry`` gives a point's entry, ``_point``
an entry's point and ``_dist`` the distance of two entries. A finite space
keeps two derived facts for its lifetime, each a
``functools.cached_property`` computed on first use: the index from each
point to its first position, which membership and ``_entry`` read; and the
N x N distance table that ``_dist`` reads, since the exhaustive pair scans
visit that many pairs anyway. The table compares and hashes nothing.
Sampled spaces keep neither.

Point convergence and the Cauchy check return ``topo``'s outcomes, both
decided on its one window path.

The set distance is restricted to finite subsets: in a genuinely partial
order the inner min/max may simply not exist. Every fold takes the least
or greatest element, and where there is none it fails loudly with the
first incomparable pair instead of inventing an answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .order_core import (
    DomainError,
    Element,
    IncomparableError,
    LawReport,
    SamplePlan,
    _law_stream,
    _run_law,
    format_element,
    order_max,
    order_min,
)
from .topo import (
    PositiveSequence,
    TopoStructure,
    _sandwiched,
    _validate_eps,
    _windowed,
    exact_threshold,
    from_terms,
    geometric,
    verify_convergence,
)

Point = object


@dataclass(frozen=True, eq=False)
class ConeMetricSpace:
    """A point set with a group-valued distance.

    ``points`` enumerates finite carriers; continuum carriers leave it None
    and provide ``sampler`` plus a membership test. Points are rationals or
    tuples of them, so their natural order is the canonical enumeration
    order that solvers use as a deterministic tie-break.

    A finite space keeps its point index (``_index``) and its distance
    table (``_distances``) as cached properties, computed whole on first
    use (an error leaves them unset); ``dataclasses.replace`` starts
    without them.
    """

    name: str
    structure: TopoStructure
    metric: Callable[[Point, Point], Element]
    points: tuple | None = None
    contains: Callable[[Point], bool] | None = None
    sampler: Callable[[random.Random], Point] | None = None

    @property
    def group(self):
        return self.structure.group

    @property
    def finite(self) -> bool:
        return self.points is not None

    @cached_property
    def _index(self) -> dict:
        """Each point of a finite space to its first position."""
        index: dict = {}
        for i, p in enumerate(self.points):
            index.setdefault(p, i)
        return index

    def member(self, p) -> bool:
        if self.points is not None:
            return p in self._index
        return bool(self.contains and self.contains(p))

    def require_member(self, p) -> Point:
        if not self.member(p):
            raise DomainError(f"point {format_element(p)} is not in space {self.name!r}")
        return p

    def draw_point(self, rng: random.Random) -> Point:
        """One seeded point: a choice of a finite space's points, else a ``sampler`` draw."""
        return self.sampler(rng) if self.points is None else rng.choice(self.points)

    def _entry(self, p):
        """The entry of ``p``: its first position on a finite space, from one
        lookup that is also its membership test, else ``p`` itself;
        ``require_member`` raises for a point outside."""
        if self.points is None:
            return self.require_member(p)
        at = self._index.get(p)
        if at is None:
            self.require_member(p)
        return at

    @property
    def _point(self) -> Callable:
        """``point(a)``: the point that the entry ``a`` stands for."""
        return _itself if self.points is None else self.points.__getitem__

    def distance(self, x, y) -> Element:
        return self.metric(x, y)

    @cached_property
    def _distances(self) -> list:
        """The distance table of a finite space: one list, row by row, filled
        through ``distance`` in that order; it compares and hashes nothing."""
        pts, distance = self.points, self.distance
        n = len(pts)
        table = [None] * (n * n)  # sized exactly: a space keeps its table
        for i, x in enumerate(pts):
            table[i * n:i * n + n] = [distance(x, y) for y in pts]
        return table

    def _position_pairs(self) -> list[tuple]:
        """Every ordered pair of positions holding distinct points, row by
        row: two positions hold equal points exactly when they share a first
        position, so no point is compared, and when the index has a position
        for each point, every pair of distinct positions qualifies and no
        point is hashed either."""
        n = len(self.points)
        if len(self._index) == n:
            return [(i, j) for i in range(n) for j in range(n) if i != j]
        first = [self._index[p] for p in self.points]
        return [(i, j) for i, fi in enumerate(first) for j, fj in enumerate(first) if fi != fj]

    @property
    def _dist(self) -> Callable[[object, object], Element]:
        """``dist(a, b)``: the distance of two entries' points, from the table
        on a finite space, which this fills, else the metric; the space keeps no reader."""
        if self.points is None:
            return self.distance
        table, n = self._distances, len(self.points)
        return lambda i, j: table[i * n + j]

    def sample_points(self, plan: SamplePlan, label: str) -> list:
        return _law_stream(plan, label, self.draw_point, self.points or ())


def _itself(p):
    return p


def min_positive_distance(m: ConeMetricSpace) -> Element:
    """Least distance between distinct points of a finite space, over every
    ordered pair: the canonical tolerance scale."""
    if not m.finite:
        raise ValueError("minimum positive distance needs a finite space")
    table, n = m._distances, len(m.points)
    if len(m._index) == n:  # every point listed once: every off-diagonal entry, row by row
        vals = [d for k, d in enumerate(table) if k % (n + 1)]
    else:
        vals = [table[i * n + j] for i, j in m._position_pairs()]
    if not vals:
        raise ValueError("space has fewer than two distinct points")
    # repeated values hash nothing: the one pass takes the first least value
    # and the fallback names the first incomparable pair, as on distinct values
    return order_min(m.group, vals, "minimum positive distance")


def check_metric_laws(m: ConeMetricSpace, plan: SamplePlan) -> LawReport:
    """Verify positivity/identity, symmetry, and the triangle inequality."""
    g = m.group
    results = []

    def w(*pts):
        return ", ".join(format_element(p) for p in pts)

    def d1(x, y):
        # nonnegative, and the identity exactly on equal points
        d = m.distance(x, y)
        return None if g.is_nonneg(d) and (x == y) == g.eq(d, g.identity) else w(x, y)

    pairs = list(zip(m.sample_points(plan, "d1"), m.sample_points(plan, "d1-b")))
    results.append(_run_law("d1", pairs, d1))

    def d2(x, y):
        return None if g.eq(m.distance(x, y), m.distance(y, x)) else w(x, y)

    pairs = list(zip(m.sample_points(plan, "d2"), m.sample_points(plan, "d2-b")))
    results.append(_run_law("d2", pairs, d2))

    def d3(x, y, z):
        lhs = m.distance(x, y)
        rhs = g.add(m.distance(x, z), m.distance(z, y))
        return None if g.leq(lhs, rhs) else w(x, y, z)

    triples = list(zip(m.sample_points(plan, "d3"), m.sample_points(plan, "d3-b"),
                       m.sample_points(plan, "d3-c")))
    results.append(_run_law("d3", triples, d3))

    return LawReport(subject=f"metric laws on {m.name}", results=tuple(results))


# ---------------------------------------------------------------------------
# point sequences


@dataclass(frozen=True, eq=False)
class PointSequence:
    """A 1-indexed sequence of points, explicit or rule-defined."""

    space: ConeMetricSpace
    name: str
    explicit: tuple | None = None
    rule: Callable[[int], Point] | None = None

    def __post_init__(self):
        if (self.explicit is None) == (self.rule is None):
            raise ValueError("point sequence needs exactly one of explicit / rule")

    def term(self, n: int) -> Point:
        if n < 1:
            raise IndexError("point sequences are 1-indexed")
        if self.explicit is not None:
            if n > len(self.explicit):
                raise IndexError("explicit point sequence exhausted")
            return self.explicit[n - 1]
        return self.rule(n)

    def cap(self, n_max: int) -> int:
        if self.explicit is None:
            return n_max
        return min(n_max, len(self.explicit))


def point_seq(space: ConeMetricSpace, terms=None, rule=None, name: str = "points") -> PointSequence:
    if terms is not None:
        terms = tuple(space.require_member(p) for p in terms)
        return PointSequence(space, name, explicit=terms)
    return PointSequence(space, name, rule=rule)


def distance_profile(m: ConeMetricSpace, s: PointSequence, x: Point, n_max: int) -> PositiveSequence:
    """Materialize n -> d(x_n, x) as a positive sequence over the target group."""
    cap = s.cap(n_max)
    return from_terms(m.structure.module,
                      [m.distance(s.term(n), x) for n in range(1, cap + 1)],
                      name=f"d({s.name}, {format_element(x)})")


def point_convergence(m: ConeMetricSpace, s: PointSequence, x: Point,
                      eps_family: Sequence[Element], n_max: int) -> list:
    """Convergence of points is convergence of the distance profile to zero."""
    m.require_member(x)
    profile = distance_profile(m, s, x, n_max)
    return verify_convergence(m.structure, profile, m.group.identity, eps_family, n_max)


def cauchy_check(m: ConeMetricSpace, s: PointSequence, eps_family: Sequence[Element],
                 n_max: int, step_profile: tuple[Element, Fraction] | None = None) -> list:
    """Windowed Cauchy check with an optional exact geometric tail bound.

    Index a passes at a tolerance when d(x_a, x_b) << eps for every later
    b <= cap. The outcomes come from ``topo``'s window path over 1..cap - 1,
    so a violating last pair fails.

    ``step_profile = (c, alpha)`` declares d(x_n, x_{n+1}) <= c * alpha^n;
    the declaration is re-checked on the materialized prefix. The tail sum
    c * alpha^a / (1 - alpha) bounds d(x_a, x_b) for every b > a, so the
    threshold of its sandwich is an analytic threshold.
    """
    t = m.structure
    g = m.group
    eps_family = _validate_eps(t, eps_family)
    cap = s.cap(n_max)
    pts = [s.term(n) for n in range(1, cap + 1)]

    tail_below = None
    if step_profile is not None:
        c, alpha = g.coerce(step_profile[0]), Fraction(step_profile[1])
        steps = geometric(t.module, c, alpha)
        for n in range(1, cap):
            if not g.leq(m.distance(pts[n - 1], pts[n]), steps.term(n)):
                raise ValueError(f"declared step profile fails at n={n}")
        tail = geometric(t.module, t.module.scale(1 / (1 - alpha), c), alpha)
        tail_below = _sandwiched(t, tail.term)

    # each pair's distance once, shared by every tolerance
    later = {a: [m.distance(pts[a - 1], pts[b - 1]) for b in range(a + 1, cap + 1)]
             for a in range(1, cap)} if eps_family else {}

    def outcome_at(eps):
        analytic_n = None if tail_below is None else exact_threshold(tail_below(eps))
        return _windowed(lambda a: all(t.ll(d, eps) for d in later[a]), eps, analytic_n, cap - 1)

    return [outcome_at(eps) for eps in eps_family]


# ---------------------------------------------------------------------------
# set distance


class SetDistanceUndefined(IncomparableError):
    """The order cannot rank the candidate distances of these sets."""


def _directed(m: ConeMetricSpace, src: Sequence, dst: Sequence) -> Element:
    g = m.group
    per_point = [order_min(g, [m.distance(x, y) for y in dst], "inner point-to-set min")
                 for x in src]
    return order_max(g, per_point, "directed max")


def hausdorff(m: ConeMetricSpace, set_a: Sequence, set_b: Sequence) -> Element:
    """Exact two-sided set distance of finite nonempty subsets.

    Exhaustive max of the two directed values, each an exhaustive
    max-over-min; a fold with no extreme aborts naming its first
    incomparable pair, because a partial order need not admit them.
    """
    if not set_a or not set_b:
        raise ValueError("set distance needs nonempty sets")
    a = [m.require_member(p) for p in set_a]
    b = [m.require_member(p) for p in set_b]
    g = m.group
    try:
        return order_max(g, [_directed(m, a, b), _directed(m, b, a)], "two-sided max")
    except IncomparableError as exc:
        raise SetDistanceUndefined(*exc.pair, "set distance undefined for this order") from exc
