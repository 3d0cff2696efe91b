"""Strict-dominance structures and exact convergence certificates.

A structure pairs a module's group with an auxiliary relation "strictly
below" that refines the strict order (think: difference lies in the
interior of the cone); its positivity witness and its shrink come from the
module. Convergence of positive sequences is made finitely checkable: a
certificate fixes a tolerance, a threshold N (every index past it passes),
and the window over which the test was actually evaluated. For registered
closed-form sequences (c/n, c/n^2, geometric, constants and finite sums of
these) the threshold is computed analytically with rational arithmetic and
is valid for every index, not just the checked window.

Each sequence object does its exact work once: it memoizes its closed-form
terms by index and its convergence outcomes by (phrasing, structure, limit,
tolerance, window). Both are pure functions of their key; the structure is
keyed by identity, so a replaced copy is evaluated afresh, and limit and
tolerances are validated on every call. One entry over the tolerances,
``_converge``, serves all four facts: the one- and two-sided phrasings, sums
and sandwiches. It hands every tolerance not yet memoized to the fact at
once, and the fact computes each window value (a_n - a, the sum of two
terms, the difference b_n - a_n) and its sign once per index for all of
them. Window values live for that one call only, not on the sequence: kept
there they grow with every structure, limit and window, and in the suite
benchmark two such memos raised peak RSS by 8% and 13% (to 28.9 and
29.8 MB), against a 10% bound, for at most 3% of speed. A sum is
checked from its components' memoized terms, so no summed sequence is built
for it. Every window, the Cauchy check's included, takes one path
(``_windowed``): an analytic threshold re-checked term by term to the end
of the window, or else the empirical scan of the whole window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .order_core import (
    Element,
    DomainError,
    LawReport,
    LawResult,
    OrderedGroupInstance,
    OrderedModuleInstance,
    SamplePlan,
    _POSITIVE_FRACTIONS,
    _draw_entries,
    _law_rng,
    _law_stream,
    _q,
    _q_abs,
    _q_add,
    _rand_positive_fraction,
    _run_law,
    format_element,
)

_SEARCH_CAP = 1 << 40
_SHRINK_CAP = 160
_SPOT_WINDOW = 32
_HALF = Fraction(1, 2)  # the factor of ``TopoStructure.shrink``


class PreconditionViolation(ValueError):
    """A stated hypothesis failed at a concrete index."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class TopoStructure:
    """A module's group with a strict-dominance relation.

    A structure chooses its relation and a sampler of elements strictly
    dominating the identity; the rest is its module's: ``group`` is
    ``module.group``, ``positivity_witness`` (the anchor of shrinking
    families) is 1 in every coordinate, and ``shrink`` halves by the
    module's scalar action, which law t6 and the Banach steps use too.
    """

    name: str
    module: OrderedModuleInstance
    strictly_below: Callable[[Element, Element], bool]
    interior_sampler: Callable[[random.Random], Element]

    @property
    def group(self) -> OrderedGroupInstance:
        return self.module.group

    @property
    def positivity_witness(self) -> Element:
        return self.module.group.fill(Fraction(1))

    def shrink(self, e: Element) -> Element:
        return self.module.scale(_HALF, e)

    def ll(self, a: Element, b: Element) -> bool:
        return self.strictly_below(a, b)

    def gg_zero(self, a: Element) -> bool:
        return self.strictly_below(self.group.identity, a)

    def sandwich(self, diff: Element, eps: Element) -> bool:
        """identity <= diff and diff strictly below eps."""
        return self.group.is_nonneg(diff) and self.strictly_below(diff, eps)

    def shrinking_family(self, count: int) -> list[Element]:
        fam, e = [], self.positivity_witness
        for _ in range(count):
            fam.append(e)
            e = self.shrink(e)
        return fam


def _interior_below(a: Element, b: Element) -> bool:
    """b - a interior to the cone, compared coordinate by coordinate: the
    difference is positive in every coordinate exactly when a_i < b_i, each
    decided by one cross-multiplication (denominators are positive) on the
    ``Fraction`` slots, or on the public properties of an int."""
    if isinstance(a, tuple):
        for x, y in zip(a, b):
            try:
                if x._numerator * y._denominator >= y._numerator * x._denominator:
                    return False
            except AttributeError:  # an int coordinate
                if x.numerator * y.denominator >= y.numerator * x.denominator:
                    return False
        return True
    try:
        return a._numerator * b._denominator < b._numerator * a._denominator
    except AttributeError:  # an int operand
        return a.numerator * b.denominator < b.numerator * a.denominator


def strict_order_structure(module: OrderedModuleInstance) -> TopoStructure:
    """Use the strict order itself as the dominance relation."""
    g = module.group
    return TopoStructure(name=f"strict-order({g.name})", module=module,
                         strictly_below=g.lt, interior_sampler=g.positive_sampler)


def interior_cone_structure(module: OrderedModuleInstance) -> TopoStructure:
    """Dominance = difference interior to the nonnegative orthant.

    Interior membership is decided exactly: every coordinate strictly
    positive. In one dimension this coincides with the strict order.
    """
    g = module.group
    if not isinstance(g.identity, tuple):
        interior_sampler = _rand_positive_fraction
    else:
        tables = (_POSITIVE_FRACTIONS,) * len(g.identity)

        def interior_sampler(rng: random.Random) -> Element:
            return _draw_entries(rng, tables)

    return TopoStructure(name=f"interior-cone({g.name})", module=module,
                         strictly_below=_interior_below, interior_sampler=interior_sampler)


# ---------------------------------------------------------------------------
# positive sequences

_ATOM_KINDS = ("constant", "harmonic", "inverse-square", "geometric")


@dataclass(frozen=True)
class SeqAtom:
    kind: str
    coefficient: Element
    ratio: Fraction | None = None

    def value(self, module: OrderedModuleInstance, n: int) -> Element:
        if self.kind == "constant":
            return self.coefficient
        if self.kind == "harmonic":
            return module.scale(_q(1, n), self.coefficient)
        if self.kind == "inverse-square":
            return module.scale(_q(1, n * n), self.coefficient)
        if self.kind == "geometric":  # p^n/q^n is in lowest terms as p/q is
            r = self.ratio
            return module.scale(_q(r._numerator ** n, r._denominator ** n), self.coefficient)
        raise ValueError(f"unknown atom kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class PositiveSequence:
    """A sequence in the nonnegative part of the group, 1-indexed.

    Either a finite explicit prefix or a closed form built from registered
    atoms. Closed forms with nonnegative coefficients are termwise
    nonincreasing toward their declared limit, which is what makes exact
    threshold computation sound.
    """

    module: OrderedModuleInstance
    name: str
    atoms: tuple[SeqAtom, ...] | None = None
    explicit: tuple | None = None
    # memos: closed-form terms by index, convergence outcomes by the key
    # _converge builds
    _terms: dict = field(default_factory=dict, init=False, repr=False)
    _outcomes: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        g = self.module.group
        if (self.atoms is None) == (self.explicit is None):
            raise ValueError("sequence needs exactly one of atoms / explicit terms")
        if self.atoms is not None:
            for atom in self.atoms:
                if atom.kind not in _ATOM_KINDS:
                    raise ValueError(f"unknown atom kind {atom.kind!r}")
                if not g.is_nonneg(atom.coefficient):
                    raise ValueError("atom coefficients must sit above the identity")
                if atom.kind == "geometric" and not (0 <= atom.ratio < 1):
                    raise ValueError("geometric ratio must lie in [0, 1)")
        else:
            for i, t in enumerate(self.explicit):
                if not g.is_nonneg(t):
                    raise ValueError(f"term {i + 1} is not above the identity")

    @property
    def closed_form(self) -> bool:
        return self.atoms is not None

    @property
    def length(self) -> int | None:
        return None if self.explicit is None else len(self.explicit)

    def term(self, n: int) -> Element:
        if n < 1:
            raise IndexError("sequences are 1-indexed")
        if self.explicit is not None:
            if n > len(self.explicit):
                raise IndexError(f"explicit sequence has only {len(self.explicit)} terms")
            return self.explicit[n - 1]
        total = self._terms.get(n)
        if total is None:
            g = self.module.group
            total = g.identity
            for atom in self.atoms:
                total = g.add(total, atom.value(self.module, n))
            self._terms[n] = total
        return total

    @property
    def declared_limit(self) -> Element:
        """Limit of a closed form: the constant part (vanishing atoms drop)."""
        g = self.module.group
        if self.atoms is None:
            return None
        total = g.identity
        for atom in self.atoms:
            if atom.kind == "constant":
                total = g.add(total, atom.coefficient)
        return total

    def cap(self, n_max: int) -> int:
        return n_max if self.explicit is None else min(n_max, len(self.explicit))


def harmonic(module, coefficient, name: str = "") -> PositiveSequence:
    c = module.group.coerce(coefficient)
    return PositiveSequence(module, name or f"{format_element(c)}/n",
                            atoms=(SeqAtom("harmonic", c),))


def inverse_square(module, coefficient, name: str = "") -> PositiveSequence:
    c = module.group.coerce(coefficient)
    return PositiveSequence(module, name or f"{format_element(c)}/n^2",
                            atoms=(SeqAtom("inverse-square", c),))


def geometric(module, coefficient, ratio, name: str = "") -> PositiveSequence:
    c = module.group.coerce(coefficient)
    r = Fraction(ratio)
    return PositiveSequence(module, name or f"({r})^n*{format_element(c)}",
                            atoms=(SeqAtom("geometric", c, r),))


def constant(module, value, name: str = "") -> PositiveSequence:
    c = module.group.coerce(value)
    return PositiveSequence(module, name or f"const {format_element(c)}",
                            atoms=(SeqAtom("constant", c),))


def sum_of(a: PositiveSequence, b: PositiveSequence, name: str = "") -> PositiveSequence:
    if a.module is not b.module:
        raise ValueError("sequences live over different modules")
    label = name or f"{a.name} + {b.name}"
    if a.closed_form and b.closed_form:
        return PositiveSequence(a.module, label, atoms=a.atoms + b.atoms)
    n = min(x for x in (a.length, b.length) if x is not None)
    g = a.module.group
    terms = tuple(g.add(a.term(i), b.term(i)) for i in range(1, n + 1))
    return PositiveSequence(a.module, label, explicit=terms)


def from_terms(module, terms, name: str = "explicit") -> PositiveSequence:
    coerced = tuple(module.group.coerce(t) for t in terms)
    return PositiveSequence(module, name, explicit=coerced)


def from_function(module, fn: Callable[[int], Element], n_max: int,
                  name: str = "rule") -> PositiveSequence:
    return from_terms(module, [fn(n) for n in range(1, n_max + 1)], name)


def default_sequences(module: OrderedModuleInstance) -> tuple:
    """The closed forms an instance checks unless it lists its own, all
    tending to the identity, with coefficients sized by the group."""
    g = module.group
    one = g.fill(Fraction(1))
    ramp = tuple(Fraction(i + 1) for i in range(len(g.coords(g.identity))))
    square_c, geometric_c = (ramp, ramp) if isinstance(g.identity, tuple) else (one, Fraction(2))
    return (
        harmonic(module, one),
        inverse_square(module, square_c),
        geometric(module, one, Fraction(1, 2)),
        geometric(module, geometric_c, Fraction(2, 3)),
        sum_of(harmonic(module, one), inverse_square(module, one)),
    )


# ---------------------------------------------------------------------------
# convergence certificates


@dataclass(frozen=True)
class ConvergenceCertificate:
    epsilon: Element
    threshold: int
    verified_up_to: int
    analytic: bool = False


@dataclass(frozen=True)
class ConvergenceFailure:
    epsilon: Element
    first_violation: int
    last_violation: int
    reason: str = ""


def is_certificate(outcome) -> bool:
    return isinstance(outcome, ConvergenceCertificate)


def _validate_eps(t: TopoStructure, eps_family: Sequence[Element]) -> list[Element]:
    out = []
    for eps in eps_family:
        eps = t.group.coerce(eps)
        if not t.gg_zero(eps):
            raise ValueError(f"tolerance {format_element(eps)} does not strictly dominate the identity")
        out.append(eps)
    return out


def exact_threshold(predicate: Callable[[int], bool]) -> int | None:
    """Smallest N with ``predicate(n)`` for every n > N, by doubling and
    bisection; None past the search cap. Sound for a predicate that keeps
    holding once it holds, such as the sandwich of a registered closed form
    toward its declared limit: the non-constant part of the form is
    termwise nonincreasing, and dominance is stable under going down (t2)."""
    hi = 1
    while not predicate(hi):
        hi *= 2
        if hi > _SEARCH_CAP:
            return None
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo - 1


def _violations(pred, first: int, last: int) -> list[int]:
    """The indices first..last at which ``pred`` fails, in order."""
    return [n for n in range(first, last + 1) if not pred(n)]


def _converge(t: TopoStructure, s: PositiveSequence, limit,
              eps_family: Sequence[Element], n_max: int, phrasing, outcomes_at) -> list:
    """The one entry over the tolerances; ``outcomes_at(limit, tolerances)``
    returns the fact's outcomes at several tolerances, in order.

    Limit and tolerances are validated on every call; each outcome is
    computed once per (phrasing, structure, limit, eps, n_max) and kept on
    ``s``. The tolerances not yet memoized go to one ``outcomes_at`` call,
    in family order with duplicates dropped, so the fact can share its
    window values among them. Structures and sequences hash by identity, so
    a phrasing may name the other sequence of a sum or a sandwich.
    """
    g = t.group
    limit = g.coerce(limit)
    if not g.is_nonneg(limit):
        raise DomainError(f"limit {format_element(limit)} is not in the nonnegative part")
    memo = s._outcomes
    keys = [(phrasing, t, limit, eps, n_max) for eps in _validate_eps(t, eps_family)]
    todo = list(dict.fromkeys(k for k in keys if k not in memo))
    if todo:
        memo.update(zip(todo, outcomes_at(limit, [k[3] for k in todo])))
    return [memo[k] for k in keys]


_UNSEEN = object()


def _sandwiched(t: TopoStructure, value: Callable[[int], Element]):
    """``make(eps)`` returns the predicate n -> t.sandwich(value(n), eps).

    ``value(n)`` and its sign are computed once per index for every
    predicate ``make`` returns and live only as long as they do, one call
    (see the module docstring). The relation and the group are read from
    ``t``, so a replaced structure is evaluated afresh.
    """
    g, below = t.group, t.strictly_below
    nonneg = {}  # index -> value(n) when it is nonnegative, else None

    def make(eps: Element):
        def holds(n: int) -> bool:
            v = nonneg.get(n, _UNSEEN)
            if v is _UNSEEN:
                v = value(n)
                v = nonneg[n] = v if g.is_nonneg(v) else None
            return v is not None and below(v, eps)
        return holds
    return make


def _windowed(pred, eps: Element, analytic_n: int | None, end: int):
    """The outcome of ``pred`` at one tolerance over a window ending at
    ``end``: re-checked from past an analytic threshold, or else scanned
    from 1 with the last violation as the threshold, unless it is ``end``."""
    bad = _violations(pred, 1 if analytic_n is None else analytic_n + 1, end)
    if analytic_n is not None:
        if bad:
            return ConvergenceFailure(eps, bad[0], bad[-1], reason="window check failed")
        return ConvergenceCertificate(eps, analytic_n, end, analytic=True)
    if bad and bad[-1] == end:
        return ConvergenceFailure(eps, bad[0], bad[-1],
                                  reason="sandwich still failing at the end of the window")
    return ConvergenceCertificate(eps, bad[-1] if bad else 0, end)


def _converge_one(t: TopoStructure, s: PositiveSequence, limit, eps, n_max: int, pred):
    """A closed form toward its declared limit has an analytic threshold,
    valid for every index; its window still runs a spot window past it."""
    analytic_n = None
    if s.closed_form and t.group.eq(limit, s.declared_limit):
        analytic_n = exact_threshold(pred)
    end = s.cap(n_max) if analytic_n is None else max(n_max, analytic_n + _SPOT_WINDOW)
    return _windowed(pred, eps, analytic_n, end)


def verify_convergence(t: TopoStructure, s: PositiveSequence, limit,
                       eps_family: Sequence[Element], n_max: int) -> list:
    """Certify the sandwich identity <= a_n - a << eps beyond a threshold.

    One outcome per tolerance, in order: an exact certificate for closed
    forms, a windowed certificate for explicit prefixes, or a failure
    carrying the first and last violating index inside the window.
    """
    g = t.group

    def outcomes_at(limit, tolerances):
        make = _sandwiched(t, lambda n: g.sub(s.term(n), limit))
        return [_converge_one(t, s, limit, eps, n_max, make(eps)) for eps in tolerances]

    return _converge(t, s, limit, eps_family, n_max, "one-sided", outcomes_at)


def verify_convergence_twosided(t: TopoStructure, s: PositiveSequence, limit,
                                eps_family: Sequence[Element], n_max: int) -> list:
    """Same convergence, phrased as a <= a_n << a + eps without subtraction.

    Exists so the two phrasings can be compared: on every instance here
    they must produce identical thresholds, since dominance is translation
    invariant.
    """
    g = t.group

    def outcome_at(limit, eps):
        bound = g.add(limit, eps)

        def between(n):
            term = s.term(n)
            return g.leq(limit, term) and t.ll(term, bound)
        return _converge_one(t, s, limit, eps, n_max, between)

    return _converge(t, s, limit, eps_family, n_max, "two-sided",
                     lambda limit, tolerances: [outcome_at(limit, eps) for eps in tolerances])


@dataclass(frozen=True)
class LimitUniquenessResult:
    candidate_is_limit: bool | None  # None = unresolved within budget
    witness: str


def check_limit_uniqueness(t: TopoStructure, s: PositiveSequence, limit, candidate,
                           eps_family: Sequence[Element], n_max: int) -> LimitUniquenessResult:
    """Decide whether a second declared limit survives against a certified one.

    The certified limit must validate first (that is the precondition).
    A distinct candidate is refuted by exhibiting an index where the terms
    drop below it; only the certified limit itself can pass.
    """
    g = t.group
    limit = g.coerce(limit)
    candidate = g.coerce(candidate)
    base = verify_convergence(t, s, limit, eps_family, n_max)
    if not all(is_certificate(o) for o in base):
        raise PreconditionViolation("the declared limit itself failed to certify")
    if g.eq(candidate, limit):
        return LimitUniquenessResult(True, "candidate equals the certified limit")
    cap = s.cap(n_max)
    violations = _violations(lambda n: g.leq(candidate, s.term(n)), 1, cap)
    if violations:
        n0 = violations[0]
        persistent = s.closed_form or violations[-1] == cap
        if persistent:
            return LimitUniquenessResult(
                False,
                f"a_n drops below the candidate at n={n0}: "
                f"a_{n0}={format_element(s.term(n0))}")
        return LimitUniquenessResult(None, f"transient violation at n={n0}")
    # candidate stays below every checked term; only the identity can do that
    # when the sequence is certified toward the identity
    if g.eq(candidate, g.identity):
        return LimitUniquenessResult(True, "candidate is the identity")
    return LimitUniquenessResult(None, "candidate not excluded within the window")


def _split_tolerance(t: TopoStructure, eps: Element) -> Element:
    g = t.group
    eta = t.shrink(eps)
    for _ in range(_SHRINK_CAP):
        if t.gg_zero(eta) and t.gg_zero(g.sub(eps, eta)):
            return eta
        eta = t.shrink(eta)
    raise ValueError(f"cannot split tolerance {format_element(eps)}")


def sum_convergence(t: TopoStructure, s1: PositiveSequence, s2: PositiveSequence,
                    eps_family: Sequence[Element], n_max: int) -> list:
    """Certify the termwise sum toward the identity via tolerance splitting.

    The threshold for the sum at eps is max of the component thresholds at
    eta and eps - eta, with eta a produced witness; the termwise sums of the
    components' terms are then re-verified directly over the window. Every
    tolerance is split first, so each component is verified once for the
    whole family; a failed first component reports its own indices.
    """
    if s1.module is not s2.module:
        raise ValueError("sequences live over different modules")
    g = t.group
    cap = min(s1.cap(n_max), s2.cap(n_max))

    def outcomes_at(limit, tolerances):
        etas = [_split_tolerance(t, eps) for eps in tolerances]
        firsts = verify_convergence(t, s1, limit, etas, n_max)
        seconds = verify_convergence(
            t, s2, limit, [g.sub(eps, eta) for eps, eta in zip(tolerances, etas)], n_max)
        make = _sandwiched(t, lambda n: g.add(s1.term(n), s2.term(n)))

        def outcome_at(eps, parts):
            for out in parts:
                if not is_certificate(out):
                    return ConvergenceFailure(eps, out.first_violation, out.last_violation,
                                              reason="component failed on the split tolerance")
            n_at = max(p.threshold for p in parts)
            bad = _violations(make(eps), n_at + 1, cap)
            if bad:
                return ConvergenceFailure(eps, bad[0], bad[-1], reason="sum sandwich failed")
            return ConvergenceCertificate(eps, n_at, cap,
                                          analytic=all(p.analytic for p in parts))

        return [outcome_at(eps, parts) for eps, parts in zip(tolerances, zip(firsts, seconds))]

    return _converge(t, s1, g.identity, eps_family, n_max, ("sum", s2), outcomes_at)


def sandwich_convergence(t: TopoStructure, lower: PositiveSequence, upper: PositiveSequence,
                         limit, eps_family: Sequence[Element], n_max: int) -> list:
    """From b_n >= a_n >= a and b_n -> a, certify (b_n - a_n) -> identity.

    The pointwise domination is a hard precondition and is checked on every
    materialized index before any certificate is produced. The certificate
    carries the difference's own threshold from a direct scan; it is marked
    exact when the upper sequence certifies analytically inside the window,
    because past the window the difference is dominated by b_n - a, which
    is already strictly below the tolerance there.
    """
    g = t.group
    limit = g.coerce(limit)
    cap = min(lower.cap(n_max), upper.cap(n_max))
    for n in range(1, cap + 1):
        lo, up = lower.term(n), upper.term(n)
        if not g.geq(up, lo):
            raise PreconditionViolation(f"upper term below lower term at n={n}", index=n)
        if not g.geq(lo, limit):
            raise PreconditionViolation(f"lower term below the limit at n={n}", index=n)
    if not g.is_nonneg(limit):
        raise PreconditionViolation("limit is not in the nonnegative part")

    def outcomes_at(limit, tolerances):
        make = _sandwiched(t, lambda n: g.sub(upper.term(n), lower.term(n)))

        def outcome_at(eps, base):
            if not is_certificate(base):
                return base
            scan = _windowed(make(eps), eps, None, cap)
            if not base.analytic:
                return scan
            # beyond the upper threshold the difference is dominated by
            # b_n - a, already strictly below eps, so that threshold is valid
            # for every index; the scan can only tighten it inside a long
            # enough window
            if is_certificate(scan) and base.threshold <= cap:
                return ConvergenceCertificate(eps, scan.threshold, cap, analytic=True)
            if is_certificate(scan) or scan.last_violation <= base.threshold:
                return ConvergenceCertificate(eps, base.threshold, cap, analytic=True)
            return ConvergenceFailure(
                eps, scan.first_violation, scan.last_violation,
                reason="difference violates the tolerance past the dominated tail")

        bases = verify_convergence(t, upper, limit, tolerances, n_max)
        return [outcome_at(eps, base) for eps, base in zip(tolerances, bases)]

    return _converge(t, upper, limit, eps_family, n_max, ("sandwich", lower), outcomes_at)


@dataclass(frozen=True)
class RegularityRow:
    sequence: str
    first_bad_index: int | None
    limit: Element | None
    status: str  # converges | unresolved | not-decreasing


@dataclass(frozen=True)
class RegularityReport:
    rows: tuple[RegularityRow, ...]

    @property
    def all_convergent(self) -> bool:
        return all(r.status == "converges" for r in self.rows)


def constant_tail_start(g: OrderedGroupInstance, s, n_max: int) -> int:
    """Smallest index i such that every term of ``s`` from i through the
    window end equals the final term under ``g.eq``; the window end itself
    when no tail repeats. ``s`` is a positive sequence or a point sequence."""
    cap = s.cap(n_max)
    last = s.term(cap)
    start = cap
    while start > 1 and g.eq(s.term(start - 1), last):
        start -= 1
    return start


def check_regularity(t: TopoStructure, sequences: Sequence[PositiveSequence],
                     eps_family: Sequence[Element], n_max: int) -> RegularityReport:
    """For each decreasing positive sequence, try to certify its convergence.

    The limit is the declared one for closed forms. A decreasing explicit
    prefix that the window covers whole is a descending chain, so its last
    term is its infimum and its limit. A window that ends before the prefix
    does cannot name a limit (the terms past it may still fall), so that
    row is ``unresolved`` with none; rows that do not certify say so rather
    than guessing.
    """
    g = t.group
    rows = []
    for s in sequences:
        cap = s.cap(n_max)
        bad = next((n for n in range(1, cap)
                    if not g.leq(s.term(n + 1), s.term(n))), None)
        if bad is not None:
            rows.append(RegularityRow(s.name, bad, None, "not-decreasing"))
            continue
        if not s.closed_form and cap < s.length:
            rows.append(RegularityRow(s.name, None, None, "unresolved"))
            continue
        limit = s.declared_limit if s.closed_form else s.term(cap)
        outcomes = verify_convergence(t, s, limit, eps_family, n_max)
        status = "converges" if all(is_certificate(o) for o in outcomes) else "unresolved"
        rows.append(RegularityRow(s.name, None, limit, status))
    return RegularityReport(tuple(rows))


# ---------------------------------------------------------------------------
# structure laws


def check_topo_laws(t: TopoStructure, plan: SamplePlan) -> LawReport:
    """Verify t1, t2, t3, t5 and t6 on seeded samples.

    t4 quantifies over every dominating tolerance, which sampling cannot
    exhaust; it is checked in shrinking-family form: each sampled nonzero
    nonnegative element must escape the family eps0, eps0/2, eps0/4, ...
    at some finite depth, and the identity must never escape.
    """
    g = t.group
    fmt = format_element
    interior = t.interior_sampler
    results = []

    rng1 = _law_rng(plan, "t1")
    t1_stream = [(a, g.add(a, interior(rng1))) for a in
                 [g.sampler(rng1) for _ in range(plan.count)]]
    t1_stream += [(a, b) for a in g.edge_elements for b in g.edge_elements]

    def t1(a, b):
        if t.ll(a, b) and not g.lt(a, b):
            return f"a={fmt(a)}, b={fmt(b)}"

    results.append(_run_law("t1", t1_stream, t1))

    def t2_item(rng):
        a = g.sampler(rng)
        b = g.add(a, g.positive_sampler(rng)) if rng.random() < 0.7 else a
        return a, b, g.add(b, interior(rng))

    def t2(a, b, c):
        if g.leq(a, b) and t.ll(b, c) and not t.ll(a, c):
            return f"a={fmt(a)}, b={fmt(b)}, c={fmt(c)}"

    results.append(_run_law("t2", _law_stream(plan, "t2", t2_item), t2))

    rng3 = _law_rng(plan, "t3")
    t3_stream = [(a, g.add(a, interior(rng3)), g.sampler(rng3))
                 for a in [g.sampler(rng3) for _ in range(plan.count)]]
    t3_stream += [(a, b, c) for a in g.edge_elements for b in g.edge_elements
                  for c in g.edge_elements[:3]]

    def t3(a, b, c):
        if t.ll(a, b) and not t.ll(g.add(a, c), g.add(b, c)):
            return f"a={fmt(a)}, b={fmt(b)}, c={fmt(c)}"

    results.append(_run_law("t3", t3_stream, t3))

    t4_stream = [(g.identity,)] + _law_stream(plan, "t4", lambda rng: (g.positive_sampler(rng),))
    family = t.shrinking_family(_SHRINK_CAP)

    def t4(a):
        if g.eq(a, g.identity):
            if not all(t.ll(g.identity, e) for e in family[:8]):
                return "identity escaped a shrinking witness"
        elif g.is_nonneg(a) and all(t.ll(a, e) for e in family):
            return f"a={fmt(a)} survived the whole shrinking family"

    results.append(_run_law("t4-shrinking", t4_stream, t4))

    t5_stream = _law_stream(plan, "t5", lambda rng: (interior(rng),)) + [(e,) for e in family[:8]]

    def t5(eps):
        if t.gg_zero(eps):
            eta = t.shrink(eps)
            if not (t.gg_zero(eta) and t.ll(eta, eps)):
                return f"eps={fmt(eps)}, eta={fmt(eta)}"

    results.append(_run_law("t5", t5_stream, t5))

    ring = t.module.ring
    quarter = Fraction(1, 4)

    def t6_item(rng):
        a = g.sampler(rng)
        return a, g.add(a, interior(rng)), _q_add(_q_abs(ring.sampler(rng)), quarter)

    def t6(a, b, r):
        if t.ll(a, b) and ring.lt(ring.zero, r) \
                and not t.ll(t.module.scale(r, a), t.module.scale(r, b)):
            return f"a={fmt(a)}, b={fmt(b)}, r={r}"

    results.append(_run_law("t6", _law_stream(plan, "t6", t6_item), t6))

    gap = _strictness_gap_result(t)
    if gap is not None:
        results.append(gap)

    return LawReport(subject=f"structure laws on {t.name}", results=tuple(results))


def _strictness_gap_result(t: TopoStructure) -> LawResult | None:
    """Exhibit a strictly ordered pair that dominance rejects (dim >= 2).

    Returns None when the relation does not separate from the strict order
    on the witness pair (one-dimensional carriers, or the strict order used
    as its own structure), since then there is nothing to demonstrate.
    """
    g = t.group
    zeros = g.coords(g.identity)
    if len(zeros) < 2:
        return None
    a, b = zeros[:-1] + (Fraction(1),), zeros[:-1] + (Fraction(2),)
    if not g.lt(a, b):
        # the witness pair lost its strict order
        return LawResult("strictness-gap", False, 1,
                         f"a={format_element(a)}, b={format_element(b)}")
    if t.ll(a, b):
        return None
    # the pair is ordered strictly but not dominated
    return LawResult("strictness-gap", True, 1)
