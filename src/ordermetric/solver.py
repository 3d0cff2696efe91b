"""Endpoint and fixed-point solvers with certified termination.

The set-valued solver walks y_{n+1} inside the image of y_n under a
deterministic selection rule. It stops in one of four ways: the image
collapses to the current point (an exact endpoint), every image point sits
strictly within the tolerance (an approximate-endpoint certificate built
from the walk and its bounds), the step budget runs out, or a step
contradicts the contraction bound that was supposed to govern it.

Hypotheses gate the language of the report: when the global bound check or
the convergence-condition certificate fails, the solver still runs, but in
best-effort mode, and never claims uniqueness. The walk reads the map's
``Hypotheses`` (``contraction.check_hypotheses``), which the map keeps for
the witness object and the plan, notes included.

The walk runs on the space's entries (``cone_metric``), positions on a
finite space, where it walks each step once: the map's kept verdict keeps,
by selection rule, each position's step (successor and step distance), its
bound, and each predecessor position's governed check, as the walks decide
them (``_KeptSteps``). For a fixed rule the step from a point depends on
the point alone and the check on two consecutive steps, and the mode is
fixed by that verdict, so a kept decision is what a new one would give;
only the tolerance stop depends on the tolerance, and it is decided at
every step. Sampled spaces keep nothing. One walk loop serves both,
through a step reader. A single-valued map under a ratio witness also
has the ratio iteration (``iterate_fixed_point``) on the same verdict.
``endpoint_census`` alone decides the endpoint equivalence on a finite
space ("has an endpoint": at least one); ``endpoint_iff_report`` gates it
on the theorem's hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .order_core import (
    DomainError,
    Element,
    IncomparableError,
    LawResult,
    Order,
    SamplePlan,
    format_element,
    order_min,
)
from .topo import _validate_eps
from .cone_metric import ConeMetricSpace
from .contraction import (
    CStatus,
    ContractionWitness,
    Hypotheses,
    SetValuedMap,
    WitnessClass,
    approximate_endpoint_property_finite,
    c_condition_status,
    check_hypotheses,
    endpoints_bruteforce,
    is_weak_contraction,
)

Point = object


class SelectionRule(Enum):
    MIN_DISTANCE = "min-dist"
    LEX_FIRST = "lex"


class SolverOutcome(Enum):
    ENDPOINT_FOUND = "endpoint-found"
    APPROX_ENDPOINT_SEQUENCE = "approximate-endpoint-sequence"
    BUDGET_EXHAUSTED = "budget-exhausted"
    HYPOTHESIS_VIOLATION = "hypothesis-violation"


@dataclass(frozen=True)
class SolverConfig:
    eps: Element
    seed_point: Point
    max_iter: int = 1000
    selection_rule: SelectionRule = SelectionRule.MIN_DISTANCE

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


class TraceStep(NamedTuple):
    n: int
    point: Point
    chosen: Point
    step_distance: Element
    bound: Element | None = None  # contraction bound consumed by the next step


@dataclass(frozen=True)
class SolverReport:
    outcome: SolverOutcome
    trace: tuple[TraceStep, ...]
    endpoint: Point | None = None
    witness_points: tuple = ()
    witness_bounds: tuple = ()
    best_effort: bool = False
    notes: tuple[str, ...] = ()
    message: str = ""

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def render(self) -> str:
        lines = [f"outcome: {self.outcome.value}"]
        if self.best_effort:
            lines.append("mode: best-effort (hypotheses not verified; no uniqueness claim)")
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.message:
            lines.append(self.message)
        if self.endpoint is not None:
            lines.append(f"endpoint: {format_element(self.endpoint)}")
        if self.witness_points:
            pts = ", ".join(format_element(p) for p in self.witness_points)
            bnds = ", ".join(format_element(b) for b in self.witness_bounds)
            lines.append(f"witness points: {pts}")
            lines.append(f"witness bounds: {bnds}")
        lines.append("trace:")
        for s in self.trace:
            row = (f"  n={s.n}  y={format_element(s.point)}  ->  {format_element(s.chosen)}"
                   f"  d={format_element(s.step_distance)}")
            if s.bound is not None:
                row += f"  bound={format_element(s.bound)}"
            lines.append(row)
        if not self.trace:
            lines.append("  (empty)")
        return "\n".join(lines)


def _select_next(candidates: Sequence, current, rule: SelectionRule, point: Callable,
                 dist: Callable, g) -> object:
    """Deterministic choice of the next walk entry among the image's.

    Candidates are entries standing for points (``point``), and ``dist``
    is their distance. Min-distance picks the candidate closest to the
    current point when the candidate distances have a least one, with the
    points' natural order as tie-break; without a least distance it falls
    back to that order.
    """
    ordered = sorted(candidates, key=point)
    if rule is SelectionRule.LEX_FIRST:
        return ordered[0]
    dists = [dist(current, p) for p in ordered]
    try:  # order_min returns the first occurrence of the least value
        return ordered[dists.index(order_min(g, dists, "selection"))]
    except IncomparableError:
        return ordered[0]


def walk_tolerance(m: ConeMetricSpace, eps) -> Element:
    """The tolerance as a group element; raises ValueError unless it
    strictly dominates the identity."""
    return _validate_eps(m.structure, [eps])[0]


class _PointSteps:
    """The walk's step reader on points, deciding every step anew: a
    sampled space's. Entries are read through the space's ``_point`` and
    ``_dist`` and the witness's ``_entry_bound``. ``step`` is the successor
    ``_select_next`` picks in the image and the step distance, ``breaks``
    the governed check of a step against the one before it, and ``bound``
    the witness bound the next step consumes."""

    __slots__ = ("space", "rule", "_bound")

    def __init__(self, space: ConeMetricSpace, w: ContractionWitness, rule: SelectionRule):
        self.space, self.rule, self._bound = space, rule, w._entry_bound(space)

    def step(self, a, images) -> tuple:
        space, dist = self.space, self.space._dist
        b = _select_next([c for c in images if c != a], a, self.rule, space._point, dist,
                         space.group)
        return b, dist(a, b)

    def breaks(self, prev, step: Element, prev_step: Element, prev_bound: Element | None,
               verified: bool) -> bool:
        """Whether ``step``, taken after the step from ``prev``, breaks the
        walk: in verified mode by exceeding the bound consumed from ``prev``,
        else by growing past the step from ``prev``."""
        g = self.space.group
        if verified:
            return prev_bound is not None and not g.leq(step, prev_bound)
        return g.cmp(step, prev_step) is Order.GREATER

    def bound(self, a, b, d: Element) -> Element:
        return self._bound(a, b, d)


class _KeptSteps(_PointSteps):
    """A finite map's step reader for one verdict and rule, on positions.
    Each position's step and bound, and each predecessor position's check,
    are decided on first use and kept, as successor, distance, bound and
    check at ``4 * position`` of one list: for one rule the step from a
    point depends on the point alone, the check after ``prev`` on the steps
    from ``prev`` and from its successor, and the walk mode on the verdict
    that keeps this reader. A decision that raises keeps nothing."""

    __slots__ = ("_kept",)

    def __init__(self, space: ConeMetricSpace, w: ContractionWitness, rule: SelectionRule):
        super().__init__(space, w, rule)
        self._kept = [None] * (4 * len(space.points))

    def step(self, a: int, images) -> tuple:
        kept, at = self._kept, 4 * a
        if kept[at] is None:
            kept[at], kept[at + 1] = _PointSteps.step(self, a, images)
        return kept[at], kept[at + 1]

    def bound(self, a: int, b: int, d: Element) -> Element:
        kept, at = self._kept, 4 * a + 2
        if kept[at] is None:
            kept[at] = _PointSteps.bound(self, a, b, d)
        return kept[at]

    def breaks(self, prev: int, step, prev_step, prev_bound, verified) -> bool:
        kept, at = self._kept, 4 * prev + 3
        if kept[at] is None:
            kept[at] = _PointSteps.breaks(self, prev, step, prev_step, prev_bound, verified)
        return kept[at]


def _step_reader(T: SetValuedMap, verdict: Hypotheses, w: ContractionWitness,
                 rule: SelectionRule) -> _PointSteps:
    """On a finite space the reader that ``verdict``, the map's kept
    ``check_hypotheses(T, w, ...)``, keeps for ``rule``; else a new one."""
    if not T.space.finite:
        return _PointSteps(T.space, w, rule)
    kept = verdict._steps_by_rule
    if rule not in kept:
        kept[rule] = _KeptSteps(T.space, w, rule)
    return kept[rule]


def iterate_endpoint(T: SetValuedMap, w: ContractionWitness, cfg: SolverConfig,
                     plan: SamplePlan | None = None) -> SolverReport:
    """Walk y_{n+1} in the image of y_n until an endpoint or the tolerance.

    Verified mode holds when the global bound check passes, the witness
    obligations pass, and the convergence condition is certified for the
    witness class; each consumed bound is then enforced against the next
    step and any breach aborts as a hypothesis violation. In best-effort
    mode only gross monotonicity breaches (a strictly growing step) abort.
    A bound is evaluated only after its step passed that check.

    The verdict, ``check_hypotheses(T, w, plan)``, is read after the
    tolerance and the seed point are validated, from the map after its
    first walk with this witness object and plan; the entry readers of
    the map and the space are read after it. The walk runs on the space's
    entries, positions on a finite space, where the verdict keeps each
    step, bound and check decided under it for a rule (``_KeptSteps``), so
    later walks read them; only the tolerance stop is decided at every step.
    """
    m, ll = T.space, T.space.structure.ll
    eps = walk_tolerance(m, cfg.eps)
    at = m._entry(cfg.seed_point)

    verdict = check_hypotheses(T, w, plan)
    notes = verdict.notes
    verified = not notes
    steps = _step_reader(T, verdict, w, cfg.selection_rule)
    images_of, point, dist = T._entry_images, m._point, m._dist

    trace: list[TraceStep] = []
    prev = prev_bound = prev_step = None
    for n in range(cfg.max_iter + 1):
        images = images_of(at)
        if images == (at,):
            return SolverReport(SolverOutcome.ENDPOINT_FOUND, tuple(trace), endpoint=point(at),
                                best_effort=not verified, notes=notes,
                                message=f"image collapsed at iteration {n}")
        if all(ll(dist(at, b), eps) for b in images):
            points = tuple(s.chosen for s in trace)
            bounds = tuple(s.bound for s in trace)
            return SolverReport(SolverOutcome.APPROX_ENDPOINT_SEQUENCE, tuple(trace),
                                witness_points=points, witness_bounds=bounds,
                                best_effort=not verified, notes=notes,
                                message=(f"image spread strictly within tolerance at "
                                         f"{format_element(point(at))} after {n} steps"))
        if n == cfg.max_iter:
            break
        nxt, step = steps.step(at, images)
        if n and steps.breaks(prev, step, prev_step, prev_bound, verified):
            if verified:
                return SolverReport(SolverOutcome.HYPOTHESIS_VIOLATION, tuple(trace),
                                    best_effort=False, notes=notes,
                                    message=(f"step {n}: d={format_element(step)} exceeds the "
                                             f"consumed bound {format_element(prev_bound)}"))
            return SolverReport(SolverOutcome.HYPOTHESIS_VIOLATION, tuple(trace),
                                best_effort=True, notes=notes,
                                message=(f"step {n}: distance grew from "
                                         f"{format_element(prev_step)} to {format_element(step)}"))
        bound = steps.bound(at, nxt, step)
        trace.append(TraceStep(n, point(at), point(nxt), step, bound))
        prev, prev_step, prev_bound, at = at, step, bound, nxt
    return SolverReport(SolverOutcome.BUDGET_EXHAUSTED, tuple(trace),
                        best_effort=not verified, notes=notes,
                        message=f"no certificate within {cfg.max_iter} iterations")


# ---------------------------------------------------------------------------
# single-valued ratio iteration


@dataclass(frozen=True)
class BanachStep:
    n: int
    point: Point
    next_point: Point
    step_distance: Element
    apriori_bound: Element


@dataclass(frozen=True)
class BanachReport:
    outcome: SolverOutcome
    trace: tuple[BanachStep, ...]
    alpha: Fraction
    fixed_point: Point | None = None
    final_point: Point | None = None
    error_bound: Element | None = None
    message: str = ""

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def render(self) -> str:
        lines = [f"outcome: {self.outcome.value} (ratio {self.alpha})"]
        if self.message:
            lines.append(self.message)
        if self.fixed_point is not None:
            lines.append(f"fixed point: {format_element(self.fixed_point)}")
        if self.final_point is not None:
            lines.append(f"final point: {format_element(self.final_point)}")
        if self.error_bound is not None:
            lines.append(f"guaranteed error bound: {format_element(self.error_bound)}")
        lines.append("trace:")
        for s in self.trace:
            lines.append(f"  n={s.n}  x={format_element(s.point)}  ->  "
                         f"{format_element(s.next_point)}  d={format_element(s.step_distance)}"
                         f"  apriori={format_element(s.apriori_bound)}")
        return "\n".join(lines)


def iterate_fixed_point(T: SetValuedMap, w: ContractionWitness, cfg: SolverConfig,
                        plan: SamplePlan | None = None) -> BanachReport:
    """Successive application of a single-valued map's ``T.function`` at its
    witness's ``w.ratio`` alpha, with exact bounds.

    The map's kept ``check_hypotheses(T, w, plan)`` decides the ratio
    bound d(fx, fy) <= alpha * d(x, y): on one-point images it is the
    global bound. A failing hypothesis ends the call as a violation naming
    it. Then the iteration stops at an exact fixed point, or as soon as the
    step is strictly dominated by (1 - alpha) * eps: the geometric tail
    keeps the fixed point strictly within eps. Every trace row also carries
    the a-priori bound alpha^n * (1 - alpha)^{-1} * d(x0, x1).
    """
    m, f, alpha = T.space, T.function, w.ratio
    if f is None or alpha is None:
        raise ValueError("ratio iteration needs a single-valued map and a ratio witness")
    g, t, module = m.group, m.structure, m.structure.module
    eps = walk_tolerance(m, cfg.eps)
    x = m.require_member(cfg.seed_point)

    notes = check_hypotheses(T, w, plan).notes
    if notes:
        return BanachReport(SolverOutcome.HYPOTHESIS_VIOLATION, (), alpha,
                            message="; ".join(notes))

    stop_scale = module.scale(1 - alpha, eps)
    inv_gap = 1 / (1 - alpha)
    trace: list[BanachStep] = []
    for n in range(cfg.max_iter + 1):
        x_next = f(x)
        if not m.member(x_next):
            raise DomainError(f"iterate {format_element(x_next)} left the space")
        step = m.distance(x, x_next)
        apriori = module.scale(alpha ** n * inv_gap, trace[0].step_distance if trace else step)
        trace.append(BanachStep(n, x, x_next, step, apriori))
        if g.eq(step, g.identity):
            return BanachReport(SolverOutcome.ENDPOINT_FOUND, tuple(trace), alpha,
                                fixed_point=x,
                                message=f"exact fixed point after {n} steps")
        if t.ll(step, stop_scale):
            err = module.scale(inv_gap, step)
            return BanachReport(SolverOutcome.APPROX_ENDPOINT_SEQUENCE, tuple(trace), alpha,
                                final_point=x_next, error_bound=err,
                                message=(f"step strictly below (1 - {alpha}) * eps at n={n}; "
                                         "the geometric tail keeps the limit strictly within eps"))
        x = x_next
    return BanachReport(SolverOutcome.BUDGET_EXHAUSTED, tuple(trace), alpha,
                        message=f"no certificate within {cfg.max_iter} iterations")


def banach_iterate(m: ConeMetricSpace, f: Callable[[Point], Point], alpha,
                   cfg: SolverConfig, plan: SamplePlan | None = None) -> BanachReport:
    """``iterate_fixed_point`` on x -> {f(x)} under the constant ratio ``alpha``."""
    w = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=Fraction(alpha))
    return iterate_fixed_point(SetValuedMap.from_function(m, f), w, cfg, plan)


# ---------------------------------------------------------------------------
# equivalence reports


@dataclass(frozen=True)
class IffReport:
    """Both sides of the endpoint equivalence. ``endpoint_exists`` means at
    least one endpoint; uniqueness is ``endpoint/at-most-one``'s question."""

    status: str  # checked | skipped
    reason: str = ""
    endpoint_exists: bool | None = None
    infsup_is_zero: bool | None = None
    endpoints: tuple = ()
    infsup_value: Element | None = None
    achieving_point: Point | None = None

    @property
    def equivalent(self) -> bool | None:
        if self.status != "checked":
            return None
        return self.endpoint_exists == self.infsup_is_zero


def endpoint_census(T: SetValuedMap) -> IffReport:
    """Both sides of the endpoint equivalence on a finite space, decided
    independently: whether the inf-sup image distance is the identity
    (skipped, naming the first incomparable pair, when an extreme is missing),
    then whether some point is an endpoint. The two are forced to agree on a
    finite space, so a disagreement is a defect in this package."""
    try:
        value = approximate_endpoint_property_finite(T)
    except IncomparableError as exc:
        return IffReport("skipped", f"inf-sup undefined: {exc}")
    ends = endpoints_bruteforce(T)
    g = T.space.group
    return IffReport("checked", "",
                     endpoint_exists=len(ends) > 0,
                     infsup_is_zero=g.eq(value.value, g.identity),
                     endpoints=ends.members,
                     infsup_value=value.value,
                     achieving_point=value.achieving_point)


def endpoint_iff_report(T: SetValuedMap, w: ContractionWitness,
                        plan: SamplePlan | None = None,
                        weak: LawResult | None = None) -> IffReport:
    """The endpoint census once the theorem's hypotheses hold (a finite
    space, the one-sided bound, a certified convergence condition), else
    skipped with the first one missing. ``weak`` is a precomputed
    ``is_weak_contraction(T, w, plan)``; when None it is computed here."""
    if not T.space.finite:
        return IffReport("skipped", "space is not finite")
    if weak is None:
        weak = is_weak_contraction(T, w, plan)
    if not weak.passed:
        return IffReport("skipped", f"one-sided bound check failed: {weak.witness}")
    cstat = c_condition_status(w)
    if cstat.status is not CStatus.HOLDS_BY_THEOREM:
        return IffReport("skipped", f"convergence condition not certified: {cstat.justification}")
    return endpoint_census(T)

