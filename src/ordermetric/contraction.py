"""Set-valued maps and weak-contraction predicates.

A map sends each point to a finite nonempty subset of the space. The
one-sided contraction bound asks, for every ordered pair of distinct
points and every image point of the first, for some image point of the
second within the bound; the global variant bounds every image pair.
Both are decided exhaustively on finite spaces and on seeded samples
otherwise, always with a concrete counterexample on failure.

The scans work on the space's entries (``cone_metric``): positions on a
finite space, where the pair stream tells equal points apart by their
first positions instead of comparing points, and points on a sampled one.
The space reads an entry's point and distance, the map its image as
entries (``_entry_images``), on a finite space from the positions it
records once, and the witness its bound (``_entry_bound``): a bound table
is one list over positions, read at two positions with nothing hashed,
and a constant ratio scales the distance without reading a point.
The hot laws compare through the group's ``cmp`` and test its outcome
against the ``Order`` singletons by identity.
An image point outside a finite space is a ``DomainError`` naming it.

A space and a plan have one pair list (``_distinct_pairs``) that every
pair check reads, so the one-sided bound, the global bound and the witness
obligations speak of the same pairs. Each check runs its pair laws on the
one law runner in one pass over that list, reading each visited pair's
distance and bound once, and returns the runner's ``LawResult`` or
``LawReport``; the walk hypotheses share one pass, which the one-sided
bound joins when a caller asks for it, and every item a law counts is a
pair it evaluated. Every step that can raise runs inside the
stream or in the first call of its law, so the runner holds each error for
the laws it reached. The approximate-endpoint sequence runs its per-index
image bound as one law on the same runner.

A map keeps what is derived from it: its image positions, a
``functools.cached_property`` like every unkeyed memo here, and its walk
verdict, a ``Hypotheses`` kept for one witness object and, on a sampled
space, plan (``check_hypotheses``), with the one-sided bound once asked
for, which on a finite space also keeps the walk steps decided under it
(``solver``). No pair law runs twice on one map and witness.

A constant ratio is the same at every pair, so the witness obligations
decide its range as one item outside the pair stream, at the first pair
drawn; its count is that one evaluation.

Convergence conditions that quantify over all sequences are not decidable
from tables, so witnesses carry them as class-level certificates: the
ratio-bounded classes earn "holds-by-theorem", bare bound tables stay
"unknown" and downstream solvers must degrade to best effort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, ClassVar, Mapping, Sequence

from .order_core import (
    _EQUAL,
    _GREATER,
    _LESS,
    DomainError,
    Element,
    LawReport,
    LawResult,
    SamplePlan,
    _law_rng,
    _raise_held,
    _run_law,
    _run_laws,
    format_element,
    order_max,
    order_min,
)
from .cone_metric import ConeMetricSpace, PointSequence
from .topo import PositiveSequence, is_certificate, verify_convergence

Point = object


def _distinct(points) -> tuple:
    """The points without repeats, in first-occurrence order; a tuple that
    has none is returned as the same object, and one of fewer than two
    points, a scale rule's usual image, hashes nothing."""
    out = tuple(points)
    if len(out) < 2 or len(set(out)) == len(out):
        return out
    return tuple(dict.fromkeys(out))


def _recorded(table: dict, x: Point) -> tuple:
    """A table map's image of ``x``: ``images_fn`` is ``partial(_recorded, table)``."""
    try:
        return table[x]
    except KeyError:
        raise DomainError(f"no image recorded for {format_element(x)}") from None


def _recorded_at(index: dict, images: list, x: Point) -> tuple:
    """The image of ``x`` at its first position: ``images_fn`` is
    ``partial(_recorded_at, space._index, images)``."""
    at = index.get(x)
    if at is None:
        raise DomainError(f"no image recorded for {format_element(x)}")
    return images[at]


@dataclass(frozen=True, eq=False)
class SetValuedMap:
    """x -> finite nonempty subset of the space, table- or rule-backed.

    ``images_fn`` returns tuples without repeats: tables are normalized when
    built and rule images when computed. On a finite space the cached
    property ``_image_positions`` holds every image as positions, which
    ``_entry_images`` reads; the one slot ``_verdict`` holds the walk
    ``Hypotheses`` for one witness object and, on a sampled space, plan,
    with the walk steps kept under it (see ``check_hypotheses``).
    ``dataclasses.replace`` starts without either.
    """

    space: ConeMetricSpace
    images_fn: Callable[[Point], tuple]
    name: str = "T"
    _verdict: tuple = field(default=(None, None, None), init=False, repr=False)
    function: ClassVar[Callable[[Point], Point] | None] = None  # set on single-valued maps

    def images(self, x: Point) -> tuple:
        out = self.images_fn(x)
        if not out:
            raise DomainError(f"map {self.name!r} has an empty image at {format_element(x)}")
        return out

    @property
    def _entry_images(self) -> Callable:
        """``images(a)``: the image of the entry ``a`` as entries: positions
        on a finite space, which this computes, else ``images``."""
        return self._image_positions.__getitem__ if self.space.finite else self.images

    @cached_property
    def _image_positions(self) -> list:
        """``positions[i]`` is the image of ``space.points[i]`` as positions;
        raises DomainError at the first image point outside the space."""
        space = self.space
        where = space._index
        built = []
        for x in space.points:
            row = []
            for y in self.images(x):
                if y not in where:
                    raise DomainError(
                        f"map {self.name!r} sends {format_element(x)} to "
                        f"{format_element(y)}, which is not in space {space.name!r}")
                row.append(where[y])
            built.append(tuple(row))
        return built

    @staticmethod
    def from_table(space: ConeMetricSpace, table: Mapping, name: str = "T") -> "SetValuedMap":
        frozen = {k: _distinct(v) for k, v in table.items()}
        for x, img in frozen.items():
            for p in (x, *img):
                space.require_member(p)
        if space.points is not None:
            missing = [p for p in space.points if p not in frozen]
            if missing:
                raise DomainError(f"map table misses point {format_element(missing[0])}")
        return SetValuedMap(space, partial(_recorded, frozen), name)

    @staticmethod
    def _from_positions(space: ConeMetricSpace, positions: list, name: str = "T") -> "SetValuedMap":
        """``from_table`` unchecked, from ``positions[i]``, the image of
        ``space.points[i]`` as first positions without repeats; it becomes
        ``_image_positions``, and a point's image is read at its first
        position through the space's index, so no second dict of points
        is built."""
        pts = space.points
        T = SetValuedMap(space, partial(
            _recorded_at, space._index, [tuple([pts[k] for k in row]) for row in positions]), name)
        T.__dict__["_image_positions"] = positions
        return T

    @staticmethod
    def from_rule(space: ConeMetricSpace, rule: Callable[[Point], Sequence],
                  name: str = "T") -> "SetValuedMap":
        return SetValuedMap(space, lambda x: _distinct(rule(x)), name)

    @staticmethod
    def from_function(space: ConeMetricSpace, f: Callable[[Point], Point],
                      name: str = "T") -> "SetValuedMap":
        """The single-valued map x -> {f(x)}, which keeps ``f``."""
        return _SingleValuedMap(space, lambda x: (f(x),), name, function=f)


@dataclass(frozen=True, eq=False)
class _SingleValuedMap(SetValuedMap):
    function: Callable[[Point], Point] = None  # every image is (function(x),)


@dataclass(frozen=True)
class EndpointSet:
    members: tuple

    def __len__(self):
        return len(self.members)


class WitnessClass(Enum):
    PHI_TABLE = "phi-table"
    ALPHA_CONSTANT = "alpha-const"
    ALPHA_FUNCTION = "alpha-fn"
    PSI_ON_DISTANCE = "psi"


class CStatus(Enum):
    HOLDS_BY_THEOREM = "holds-by-theorem"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PsiProperties:
    """Declared analytic facts about a scalar shrinking function.

    All three are needed for the convergence condition: upper
    semicontinuity, sitting strictly below the identity on positives, and
    a positive gap liminf at infinity. Each is False until declared, so
    nothing is certified by default.
    """

    upper_semicontinuous: bool = False
    below_identity: bool = False
    positive_tail_gap: bool = False

    @property
    def all_hold(self) -> bool:
        return self.upper_semicontinuous and self.below_identity and self.positive_tail_gap


@dataclass(frozen=True, eq=False)
class ContractionWitness:
    """The bound paired with a map: a table, a ratio, a ratio function with
    a declared sup bound, or a scalar function composed with the distance.

    A table lives on a finite space: one list over its positions, row by
    row like the space's distance table, ``phi_table[i * n + j]`` the bound
    at the points of positions i and j, None on equal points and where the
    table has no entry (``bound_table`` builds one from point pairs).
    ``phi`` reads a bound at two points and ``_entry_bound`` at two entries.
    Reading a missing entry raises DomainError naming the two points, and a
    table that is not a list of n * n entries, a point-keyed dict say, has
    none; a table on a sampled space raises DomainError.
    """

    klass: WitnessClass
    phi_table: list | None = None
    alpha_const: Fraction | None = None
    alpha_fn: Callable[[Point, Point], Fraction] | None = None
    alpha_bound: Fraction | None = None
    psi: Callable[[Element], Element] | None = None
    psi_properties: PsiProperties | None = None
    label: str = ""

    def __post_init__(self):
        if self.klass is WitnessClass.ALPHA_CONSTANT:
            if self.alpha_const is None or not (0 <= self.alpha_const < 1):
                raise ValueError("constant ratio must lie in [0, 1)")
        if self.klass is WitnessClass.ALPHA_FUNCTION:
            if self.alpha_fn is None or self.alpha_bound is None \
                    or not (0 <= self.alpha_bound < 1):
                raise ValueError("ratio function needs a declared sup bound in [0, 1)")
        if self.klass is WitnessClass.PHI_TABLE and self.phi_table is None:
            raise ValueError("table witness needs its table")
        if self.klass is WitnessClass.PSI_ON_DISTANCE and self.psi is None:
            raise ValueError("scalar witness needs its function")

    def alpha(self, x: Point, y: Point) -> Fraction:
        if self.klass is WitnessClass.ALPHA_CONSTANT:
            return self.alpha_const
        if self.klass is WitnessClass.ALPHA_FUNCTION:
            return self.alpha_fn(x, y)
        raise ValueError("witness has no ratio payload")

    @property
    def ratio(self) -> Fraction | None:
        """The constant, or the declared cap of a ratio function, else None."""
        if self.klass is WitnessClass.ALPHA_CONSTANT:
            return self.alpha_const
        return self.alpha_bound if self.klass is WitnessClass.ALPHA_FUNCTION else None

    def phi(self, space: ConeMetricSpace, x: Point, y: Point, d: Element) -> Element:
        """Evaluate the bound at an ordered pair of distinct points whose
        distance ``d`` the caller already holds; a table reads the first
        positions of the two points."""
        if self.klass is WitnessClass.PHI_TABLE:
            bound, where = self._entry_bound(space), space._index
            if x not in where or y not in where:
                raise _no_entry(x, y)
            return bound(where[x], where[y], d)
        if self.ratio is not None:
            return space.structure.module.scale(self.alpha(x, y), d)
        return self.psi(d)

    def _entry_bound(self, space: ConeMetricSpace) -> Callable:
        """``bound(a, b, d)``: the bound at two entries of ``space`` whose
        distance is ``d``, as ``space._dist`` reads a distance. A table reads
        its list at two positions and hashes nothing, a constant ratio
        scales the distance and reads no point, and any other witness
        evaluates ``phi`` at the entries' points."""
        if self.klass is WitnessClass.ALPHA_CONSTANT:
            scale, alpha = space.structure.module.scale, self.alpha_const
            return lambda a, b, d: scale(alpha, d)
        if self.klass is not WitnessClass.PHI_TABLE:
            point = space._point
            return lambda a, b, d: self.phi(space, point(a), point(b), d)
        table, pts = self.phi_table, _table_points(space)
        n = len(pts)
        if not isinstance(table, list) or len(table) != n * n:
            table = [None] * (n * n)  # a point-keyed dict, say: it has no entry to read

        def bound(i, j, d):
            out = table[i * n + j]
            if out is None:
                raise _no_entry(pts[i], pts[j])
            return out

        return bound

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.klass is WitnessClass.ALPHA_CONSTANT:
            return f"alpha-const {self.alpha_const}"
        if self.klass is WitnessClass.ALPHA_FUNCTION:
            return f"alpha-fn (bound {self.alpha_bound})"
        return self.klass.value


def _table_points(space: ConeMetricSpace) -> tuple:
    """The points a bound table is laid out over; a sampled space raises."""
    if not space.finite:
        raise DomainError(f"a bound table needs a finite space; {space.name!r} is sampled")
    return space.points


def _no_entry(x: Point, y: Point) -> DomainError:
    return DomainError(f"bound table has no entry for ({format_element(x)}, {format_element(y)})")


def bound_table(space: ConeMetricSpace, bounds: Mapping) -> list:
    """The bound table of a finite space from a point-keyed mapping
    ``{(x, y): bound}``: ``table[i * n + j]`` is the bound at the points
    of positions i and j, so every position of a repeated point reads its
    point's bound; None on equal points and at pairs the mapping lacks."""
    pts = _table_points(space)
    return [None if x == y else bounds.get((x, y)) for x in pts for y in pts]


@dataclass(frozen=True)
class CConditionStatus:
    status: CStatus
    justification: str


def c_condition_status(w: ContractionWitness) -> CConditionStatus:
    """Class-level verdict on the convergence condition.

    Ratio classes qualify: with ratios capped by some value below one, the
    gap (1 - ratio) * d dominates a fixed positive multiple of d, so a
    vanishing gap forces vanishing distance, and dividing by (1 - cap)
    is legal because the scalar ring is the rationals. A scalar function
    with the three declared analytic properties qualifies by the standard
    subsequence argument on the real line. A bare table proves nothing
    about sequences, so it stays unknown.

    The pairwise-index variant of the condition (vanishing gaps over all
    index pairs force vanishing distances over all index pairs) follows
    from the sequence form by reindexing the countable set of pairs; like
    the condition itself it is a statement about all sequences, so it is
    carried here as documentation rather than as a runtime check.
    """
    if w.klass is WitnessClass.ALPHA_CONSTANT:
        return CConditionStatus(
            CStatus.HOLDS_BY_THEOREM,
            f"uniform ratio {w.alpha_const} < 1: the gap dominates "
            f"(1 - {w.alpha_const}) * d, and that factor is invertible and positive",
        )
    if w.klass is WitnessClass.ALPHA_FUNCTION:
        return CConditionStatus(
            CStatus.HOLDS_BY_THEOREM,
            f"ratios are declared bounded by {w.alpha_bound} < 1, so the gap "
            f"dominates (1 - {w.alpha_bound}) * d with an invertible positive factor",
        )
    if w.klass is WitnessClass.PSI_ON_DISTANCE and w.psi_properties \
            and w.psi_properties.all_hold:
        return CConditionStatus(
            CStatus.HOLDS_BY_THEOREM,
            "scalar bound: upper semicontinuous, strictly below the identity on "
            "positives, with positive gap liminf at infinity",
        )
    return CConditionStatus(CStatus.UNKNOWN,
                            "no registered criterion applies to this witness class")


# ---------------------------------------------------------------------------
# pair streams and pair laws


def _distinct_pairs(space: ConeMetricSpace, plan: SamplePlan) -> list[tuple]:
    """Every ordered pair of distinct points of a finite space, as positions
    in ``space.points``, or ``plan.count`` seeded distinct pairs of points
    drawn from the plan's one pair stream. Every pair check of a space and
    plan reads this list, so their reports speak of the same pairs; the
    space's ``_point`` and ``_dist`` read either kind of entry."""
    if space.finite:
        return space._position_pairs()
    rng = _law_rng(plan, "global")  # the stream the all-pairs bound always drew
    out = []
    attempts = 0
    while len(out) < plan.count and attempts < plan.count * 64:
        attempts += 1
        x, y = space.sampler(rng), space.sampler(rng)
        if x != y:
            out.append((x, y))
    return out


def _scan(T: SetValuedMap, w: ContractionWitness, plan: SamplePlan | None, laws: list,
          first: list | None = None) -> list:
    """Each law's outcome over the pairs of ``_distinct_pairs(space, plan)``.
    A law takes ``(a, b, d, bound)``: entries, distance and witness bound,
    each read once a pair for all laws; every pair is visited and evaluates
    its bound there. Drawing the pairs and filling the table run inside the
    stream, so the runner holds their errors for every law. ``first``, if
    given, receives the first pair drawn, if any."""
    space = T.space

    def stream():
        pairs = _distinct_pairs(space, plan or SamplePlan())
        if first is not None:
            first.extend(pairs[:1])
        dist, bound = space._dist, w._entry_bound(space)
        for a, b in pairs:
            d = dist(a, b)
            yield a, b, d, bound(a, b, d)

    return _run_laws(stream(), laws)


def _image_law(T: SetValuedMap, kind: str) -> tuple:
    """The one-sided (``weak``) or ``global`` bound on the images of a pair:
    some, or every, image point of y within the bound of each one of x; a
    failure names the first such x' and, for ``global``, its first y' beyond
    the bound. Its first call reads the images, so the runner holds their
    errors for this law alone. Images and distances are read through the
    entry readers of the map and the space."""
    space, cmp, weak = T.space, T.space.group.cmp, kind == "weak"
    point = images = dist = None

    def law(a, b, d, bound):
        nonlocal point, images, dist
        if images is None:
            point, images, dist = space._point, T._entry_images, space._dist
        ty = images(b)
        for xp in images(a):
            if weak:
                for yp in ty:
                    rel = cmp(dist(xp, yp), bound)
                    if rel is _LESS or rel is _EQUAL:
                        break
                else:
                    return (f"{_pair_text(point, a, b, xp)}: no image point of y within "
                            f"{format_element(bound)}")
            else:
                for yp in ty:
                    dxy = dist(xp, yp)
                    rel = cmp(dxy, bound)
                    if rel is not _LESS and rel is not _EQUAL:
                        return (f"{_pair_text(point, a, b, xp)}, y'={format_element(point(yp))}: "
                                f"d={format_element(dxy)} exceeds {format_element(bound)}")

    return kind, law


def _pair_text(point, a, b, xp) -> str:
    return (f"x={format_element(point(a))}, y={format_element(point(b))}, "
            f"x'={format_element(point(xp))}")


def is_weak_contraction(T: SetValuedMap, w: ContractionWitness,
                        plan: SamplePlan | None = None) -> LawResult:
    """For each pair and each image point of the first, some image point of
    the second must land within the bound."""
    return _raise_held(_scan(T, w, plan, [_image_law(T, "weak")])[0])


def is_global_weak_contraction(T: SetValuedMap, w: ContractionWitness,
                               plan: SamplePlan | None = None) -> LawResult:
    """Every image pair must satisfy the bound."""
    return _raise_held(_scan(T, w, plan, [_image_law(T, "global")])[0])


def _witness_laws(T: SetValuedMap, w: ContractionWitness) -> list:
    """The witness obligations as laws on a pair's entries: the bound
    strictly below a positive distance and, for a ratio witness, the ratio
    in [0, 1) and, for a ratio function, within its declared bound."""
    g, point = T.space.group, T.space._point
    cmp, zero = g.cmp, g.identity

    def phi_strictly_below(a, b, d, bound):
        if cmp(d, zero) is _GREATER and cmp(bound, d) is not _LESS:
            return (f"x={format_element(point(a))}, y={format_element(point(b))}: bound "
                    f"{format_element(bound)} not strictly below {format_element(d)}")

    laws = [("phi-strictly-below", phi_strictly_below)]
    if w.ratio is not None:
        const = w.klass is WitnessClass.ALPHA_CONSTANT

        def alpha_range(a, b, *_):
            x, y = point(a), point(b)
            r = w.alpha(x, y)
            if not (0 <= r < 1):
                return f"ratio {r} at ({format_element(x)}, {format_element(y)})"
            if not const and r > w.alpha_bound:
                return f"ratio {r} exceeds declared bound {w.alpha_bound}"

        laws.append(("alpha-range", alpha_range))
    return laws


def _witness_pass(T: SetValuedMap, w: ContractionWitness, plan: SamplePlan | None,
                  laws: list) -> tuple:
    """``laws``' outcomes and the witness report (or the first error its laws
    held), from one scan of the pair list. A constant ratio is the same at
    every pair, so its range is one item outside the stream: the first pair
    drawn, which its failure names, or none without a pair."""
    witness = _witness_laws(T, w)
    once = [witness.pop()] if w.klass is WitnessClass.ALPHA_CONSTANT else []
    first: list = []
    results = _scan(T, w, plan, laws + witness, first)
    results += _run_laws(first, once)
    held = [r for r in results[len(laws):] if isinstance(r, Exception)]
    report = held[0] if held else LawReport(subject=f"witness {w.describe()} against {T.name}",
                                            results=tuple(results[len(laws):]))
    return results[:len(laws)], report


def validate_witness(T: SetValuedMap, w: ContractionWitness,
                     plan: SamplePlan | None = None) -> LawReport:
    """Check the witness obligations: the bound sits strictly below the
    distance wherever the distance is positive, and ratio payloads stay in
    [0, 1). Only distinct pairs are ever consulted."""
    return _raise_held(_witness_pass(T, w, plan, [])[1])


@dataclass(frozen=True)
class Hypotheses:
    """The verdicts a walk's verified mode rests on: the global bound
    result and the witness report, each an outcome the law runner gave (a
    report, or the error it held, raised when read), and the class-level
    convergence-condition verdict. The map keeps one for a witness object
    and, on a sampled space, a plan (``check_hypotheses``); ``notes`` is a
    cached property. ``one_sided_outcome`` is the one-sided bound's result
    on the same pairs, None until a caller asks for it: it is decided once
    and filled in then, and no comparison reads it, as no walk rests on it.
    On a finite space ``_steps_by_rule`` holds the walk steps decided under
    this verdict (``solver``): they rest on its mode."""

    global_outcome: LawResult | Exception
    witness_outcome: LawReport | Exception
    c_status: CConditionStatus
    one_sided_outcome: LawResult | Exception | None = field(default=None, compare=False)
    _steps_by_rule: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def global_report(self) -> LawResult:
        return _raise_held(self.global_outcome)

    @property
    def witness_report(self) -> LawReport:
        return _raise_held(self.witness_outcome)

    @property
    def one_sided_report(self) -> LawResult | None:
        return _raise_held(self.one_sided_outcome)

    @cached_property
    def notes(self) -> tuple[str, ...]:
        """One line per hypothesis that failed or stays unknown."""
        notes = []
        if not self.global_report.passed:
            notes.append(f"global bound check failed: {self.global_report.witness}")
        if not self.witness_report.passed:
            notes.append("witness obligations failed: "
                         + "; ".join(r.witness or r.law
                                     for r in self.witness_report.failures()))
        if self.c_status.status is not CStatus.HOLDS_BY_THEOREM:
            notes.append(f"convergence condition unknown: {self.c_status.justification}")
        return tuple(notes)

    @property
    def verified(self) -> bool:
        return not self.notes


def check_hypotheses(T: SetValuedMap, w: ContractionWitness,
                     plan: SamplePlan | None = None, *, one_sided: bool = False) -> Hypotheses:
    """The global bound check and the witness obligations on ``plan`` (None
    is ``SamplePlan()``), and the class-level convergence-condition verdict;
    with ``one_sided`` also the one-sided bound, in the same pass over the
    pairs. The map keeps them for its last witness object and, on a sampled
    space, plan: a finite space's pair list ignores the plan. A kept verdict
    that lacks a requested one-sided outcome gets it from a scan of the
    same pair list for that law alone, keeping its other outcomes and its
    walk steps, so no law runs twice on one map. Map, space, witness and
    plan are frozen, so they are what a new check would give."""
    key = None if T.space.finite else plan or SamplePlan()
    if T._verdict[0] is not w or T._verdict[1] != key:
        global_outcome, witness_outcome, weak = _hypothesis_pass(T, w, plan, one_sided)
        verdict = Hypotheses(global_outcome, witness_outcome, c_condition_status(w), weak)
        object.__setattr__(T, "_verdict", (w, key, verdict))
    verdict = T._verdict[2]
    if one_sided and verdict.one_sided_outcome is None:
        weak = _scan(T, w, plan, [_image_law(T, "weak")])[0]
        object.__setattr__(verdict, "one_sided_outcome", weak)
    return verdict


def _hypothesis_pass(T: SetValuedMap, w: ContractionWitness, plan: SamplePlan | None,
                     one_sided: bool = False) -> tuple:
    """The global, witness and one-sided outcomes from one scan of the pair
    list: the global law, the witness laws and, with ``one_sided``, the
    one-sided law; the one-sided outcome is None without it."""
    laws = [_image_law(T, "global")] + ([_image_law(T, "weak")] if one_sided else [])
    outcomes, witness_outcome = _witness_pass(T, w, plan, laws)
    return outcomes[0], witness_outcome, outcomes[1] if one_sided else None


# ---------------------------------------------------------------------------
# endpoints


def endpoints_bruteforce(T: SetValuedMap) -> EndpointSet:
    """The distinct points of a finite space with image exactly {x}: the
    positions i whose image positions are ``(i,)``, so no point is hashed."""
    if not T.space.finite:
        raise ValueError("brute-force endpoint scan needs a finite space")
    pts = T.space.points
    return EndpointSet(tuple(pts[i] for i, img in enumerate(T._image_positions) if img == (i,)))


@dataclass(frozen=True)
class ApproxEndpointValue:
    value: Element
    achieving_point: Point


def approximate_endpoint_property_finite(T: SetValuedMap) -> ApproxEndpointValue:
    """min over points of the max image distance, with the minimizer.

    The property holds exactly when the value is the identity. Raises with
    the first incomparable pair when a max or the min does not exist.
    """
    if not T.space.finite:
        raise ValueError("the inf-sup computation needs a finite space")
    g, pts, dist = T.space.group, T.space.points, T.space._dist
    sups = [order_max(g, [dist(i, j) for j in img], f"image spread at {format_element(x)}")
            for i, (x, img) in enumerate(zip(pts, T._image_positions))]
    value = order_min(g, sups, "inf over points")
    return ApproxEndpointValue(value, pts[sups.index(value)])


def approximate_endpoint_sequence(T: SetValuedMap, seq: PointSequence,
                                  bounds: PositiveSequence, eps_family, n_max: int) -> LawResult:
    """Verify the witness-pair form of the approximate endpoint property:
    a point sequence and a vanishing bound sequence dominating every image
    distance at each index of the window, once the bound sequence has
    certified toward the identity."""
    law = "approx-endpoint-sequence"
    space, g = T.space, T.space.group
    bound_out = verify_convergence(space.structure, bounds, g.identity, eps_family, n_max)
    if not bound_out or not all(is_certificate(o) for o in bound_out):
        return LawResult(law, False, 0, "bound sequence failed to certify toward the identity")

    def image_bound(n):
        x, a_n = seq.term(n), bounds.term(n)
        for xp in T.images(x):
            d = space.distance(x, xp)
            if not g.leq(d, a_n):
                return (f"n={n}, x'={format_element(xp)}: d={format_element(d)} "
                        f"exceeds bound {format_element(a_n)}")

    cap = min(seq.cap(n_max), bounds.cap(n_max))
    return _run_law(law, [(n,) for n in range(1, cap + 1)], image_bound)
