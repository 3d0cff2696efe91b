"""Partially ordered abelian groups and modules with executable laws.

Everything here is exact: elements are `fractions.Fraction` scalars or
fixed-width tuples of them, comparisons are four-way (equal, strictly-less,
strictly-greater, incomparable), and law checks quantify over deterministic
seeded samples plus designated edge elements, so a failing law always comes
back with a concrete witness instead of a silent boolean. The group owns
its elements' shape: ``fill(q)`` puts q in every coordinate and
``coords(a)`` lists the coordinates of a; on a scalar group they are q and
``(a,)``.

The four-way comparison is deliberate: with a genuinely partial order,
returning plain ``False`` for "not below" would conflate incomparability
with strict reversal, and min/max must name a pair when there is no extreme.
The four outcomes are also module constants (``_EQUAL``, ``_LESS``,
``_GREATER``, ``_INCOMPARABLE``): the built-in comparisons return them, and
each boolean predicate of a group makes one ``cmp`` call and tests its
outcome against them by identity.

The built-in samplers return p/q with p and q uniform in small ranges, so
the few hundred values they can return are built once, at import, in one
table. A draw picks a row and then an entry of it, both in the one frame
of ``_draw_entry``; ``_draw`` picks from a flat table. A tuple-valued
sampler draws its whole point in the one frame of ``_draw_entries``, a
``_draw_entry`` per coordinate table, and a scalar one calls
``_draw_entry`` itself, which costs less for one table. Each index is drawn
as CPython's ``Random._randbelow_with_getrandbits`` draws it for
``randint``/``randrange`` of that width: ``getrandbits(width.bit_length())``
until the result is below the width. So a seed draws the same values, in
the same order and with the same random state after them, as
``Fraction(rng.randint(...), rng.randint(...))``, with the same
``getrandbits`` calls.

A law stream, its designated items and then one draw per item up to the
count, is built by ``_law_stream`` on one generator seeded from the plan and
the law's label. g1 draws its shifts and order-transitive its steps that way
too, so no law seeds a generator per item: a group report on cone-2 seeds 11.

The built-in instances add, negate, scale and measure |a - b| through a
small exact kernel (``_q_add``, ``_q_neg``, ``_q_mul``, ``_q_dist``), per
coordinate on the cones; the law streams build their scalars (|r| with
``_q_abs``, |r| + 1/3, r + |s| + gap) and the sequence terms (1/n, r^n) on
it too.
Its contract: the operands are ``Fraction``s (an int has no
``_numerator`` slot), and every result is the normalized
``Fraction`` the matching operator gives, in lowest terms with a positive
denominator, so ``==``, hashing and ``format_element`` see no difference.
The gcd steps are those of ``Fraction._add`` and ``Fraction._mul``, and
``_q`` fills the two slots of ``Fraction.__slots__`` (``_numerator``,
``_denominator``) on a bare instance instead of normalizing again; a
Python whose ``Fraction`` keeps other slots breaks the kernel, and
``tests/test_order_core.py`` compares every part of its results with the
operators' to make that loud. The comparisons (``_scalar_cmp``,
``_cone_cmp``, the ring's ``le``) read the same two slots; an operand
without them, a plain int, raises ``AttributeError`` there and is compared
through its public ``numerator`` and ``denominator`` instead, so they
also accept plain ints.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

Element = Union[Fraction, tuple]
Scalar = Fraction


class Order(Enum):
    """Outcome of comparing two elements under a partial order."""

    EQUAL = "equal"
    LESS = "strictly-less"
    GREATER = "strictly-greater"
    INCOMPARABLE = "incomparable"

    def flipped(self) -> "Order":
        if self is Order.LESS:
            return Order.GREATER
        if self is Order.GREATER:
            return Order.LESS
        return self


# module globals are cheaper to read than enum attributes, at every comparison
_EQUAL, _LESS, _GREATER, _INCOMPARABLE = (Order.EQUAL, Order.LESS, Order.GREATER,
                                          Order.INCOMPARABLE)


class DomainError(ValueError):
    """A value does not belong to the instance's carrier."""


class IncomparableError(ValueError):
    """An order-dependent min/max met a pair with no order between them."""

    def __init__(self, a: Element, b: Element, context: str = ""):
        self.pair = (a, b)
        msg = f"incomparable pair {format_element(a)} , {format_element(b)}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


def format_element(value: Element) -> str:
    """Exact text form: scalars as p/q, vectors as (p/q, ...)."""
    if isinstance(value, tuple):
        return "(" + ", ".join(format_element(v) for v in value) + ")"
    return str(value)


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic quantification plan for universally quantified laws.

    ``seed`` fixes every stream; ``count`` is the number of sampled
    tuples per law, at least one so that no law passes on nothing. The
    instance's own edge elements lead every stream that includes edges.
    """

    seed: int = 0
    count: int = 200

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"sample count must be at least 1, got {self.count}")


@dataclass(frozen=True)
class LawResult:
    law: str
    passed: bool
    checked: int
    witness: str | None = None


@dataclass(frozen=True)
class LawReport:
    subject: str
    results: tuple[LawResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[LawResult]:
        return [r for r in self.results if not r.passed]

    def result(self, law: str) -> LawResult:
        for r in self.results:
            if r.law == law:
                return r
        raise KeyError(law)

    def summary(self) -> str:
        lines = [f"law report: {self.subject}"]
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            line = f"  {r.law:<28} {status}  (checked {r.checked})"
            if r.witness:
                line += f"  witness: {r.witness}"
            lines.append(line)
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class OrderedGroupInstance:
    """An abelian group carrier with a translation-invariant partial order.

    ``cmp`` is the primitive: a four-way comparison that must return EQUAL
    exactly on identical elements. ``sampler`` draws arbitrary carrier
    elements, ``positive_sampler`` draws elements strictly above the
    identity; both take an explicit ``random.Random`` so every law check is
    reproducible.
    """

    name: str
    identity: Element
    add: Callable[[Element, Element], Element]
    neg: Callable[[Element], Element]
    cmp: Callable[[Element, Element], Order]
    contains: Callable[[Element], bool]
    sampler: Callable[[random.Random], Element]
    positive_sampler: Callable[[random.Random], Element]
    edge_elements: tuple = ()

    def __post_init__(self):
        # standing assumption: the carrier is not just the identity
        if not any(self.cmp(e, self.identity) is not Order.EQUAL for e in self.edge_elements):
            raise DomainError(f"instance {self.name!r} registers no non-identity element")

    # -- derived order helpers -------------------------------------------
    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def eq(self, a: Element, b: Element) -> bool:
        return self.cmp(a, b) is _EQUAL

    def leq(self, a: Element, b: Element) -> bool:
        rel = self.cmp(a, b)
        return rel is _LESS or rel is _EQUAL

    def lt(self, a: Element, b: Element) -> bool:
        return self.cmp(a, b) is _LESS

    def geq(self, a: Element, b: Element) -> bool:
        rel = self.cmp(a, b)
        return rel is _GREATER or rel is _EQUAL

    def gt(self, a: Element, b: Element) -> bool:
        return self.cmp(a, b) is _GREATER

    def is_nonneg(self, a: Element) -> bool:
        rel = self.cmp(a, self.identity)
        return rel is _GREATER or rel is _EQUAL

    def is_positive(self, a: Element) -> bool:
        return self.cmp(a, self.identity) is _GREATER

    def fill(self, q) -> Element:
        """q in every coordinate; q itself on a scalar group."""
        return tuple(q for _ in self.identity) if isinstance(self.identity, tuple) else q

    def coords(self, a: Element) -> tuple:
        """The coordinates of a; ``(a,)`` on a scalar group."""
        return a if isinstance(self.identity, tuple) else (a,)

    def coerce(self, value) -> Element:
        """Canonicalize ints/lists into the exact carrier representation; a
        tuple of ``Fraction``s already is one and is returned as it is."""
        if isinstance(value, (list, tuple)):
            if isinstance(value, list) or not all(isinstance(v, Fraction) for v in value):
                value = tuple(Fraction(v) for v in value)
        elif not isinstance(value, Fraction):
            value = Fraction(value)
        if not self.contains(value):
            raise DomainError(f"{format_element(value)} is not in the carrier of {self.name!r}")
        return value


@dataclass(frozen=True, eq=False)
class RingDescriptor:
    """Totally ordered ring of scalars; instantiated as the rationals."""

    name: str
    zero: Scalar
    one: Scalar
    le: Callable[[Scalar, Scalar], bool]
    sampler: Callable[[random.Random], Scalar]
    edge_scalars: tuple = ()

    def lt(self, a: Scalar, b: Scalar) -> bool:
        return self.le(a, b) and a != b


@dataclass(frozen=True, eq=False)
class OrderedModuleInstance:
    """A group together with a scalar action that preserves strict order."""

    group: OrderedGroupInstance
    ring: RingDescriptor
    scale: Callable[[Scalar, Element], Element]

    @property
    def name(self) -> str:
        return self.group.name


# ---------------------------------------------------------------------------
# sampling streams


def _law_rng(plan: SamplePlan, label: str) -> random.Random:
    return random.Random(plan.seed ^ zlib.crc32(label.encode()))


def _law_stream(plan: SamplePlan, label: str, draw: Callable[[random.Random], object],
                lead: Iterable = (), count: int | None = None) -> list:
    """``lead``, then one ``draw(rng)`` per item from the law's generator until
    ``count`` items (``plan.count`` unless given); a longer lead is kept whole."""
    rng = _law_rng(plan, label)
    out = list(lead)
    out += [draw(rng) for _ in range((plan.count if count is None else count) - len(out))]
    return out


def sample_elements(g: OrderedGroupInstance, plan: SamplePlan, label: str) -> list[Element]:
    return _law_stream(plan, label, g.sampler, g.edge_elements)


def _edge_pairs(g: OrderedGroupInstance) -> list[tuple]:
    return [(a, b) for a in g.edge_elements for b in g.edge_elements]


def sample_pairs(g, plan: SamplePlan, label: str) -> list[tuple]:
    return _law_stream(plan, label, lambda rng: (g.sampler(rng), g.sampler(rng)), _edge_pairs(g))


def _triples(g) -> Callable[[random.Random], tuple]:
    return lambda rng: (g.sampler(rng), g.sampler(rng), g.sampler(rng))


def sample_triples(g, plan: SamplePlan, label: str) -> list[tuple]:
    edges = g.edge_elements
    lead = [(a, b, c) for a in edges for b in edges for c in edges]
    return _law_stream(plan, label, _triples(g), lead[: plan.count // 2])


def strict_pairs(g, plan: SamplePlan, label: str) -> list[tuple]:
    """Pairs (a, b) with a strictly below b, built constructively.

    Edge x edge pairs that happen to be strict are kept as well; this is
    what lets a corrupted comparison on a designated pair surface in the
    translation laws.
    """
    rng = _law_rng(plan, label)
    out = [(a, b) for a, b in _edge_pairs(g) if g.lt(a, b)]
    attempts = 0
    while len(out) < plan.count and attempts < plan.count * 64:
        attempts += 1
        a = g.sampler(rng)
        b = g.add(a, g.positive_sampler(rng))
        if g.lt(a, b):
            out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# operations


def compare(g: OrderedGroupInstance, a, b) -> Order:
    """Four-way comparison of two carrier elements."""
    return g.cmp(g.coerce(a), g.coerce(b))


def order_min(g: OrderedGroupInstance, items: Iterable[Element], context: str = "min") -> Element:
    """Least element: the first occurrence of the value below or equal to
    every item, else IncomparableError naming the first incomparable pair."""
    return _order_extreme(g, items, Order.LESS, context)


def order_max(g: OrderedGroupInstance, items: Iterable[Element], context: str = "max") -> Element:
    return _order_extreme(g, items, Order.GREATER, context)


def _order_extreme(g, items, keep: Order, context: str) -> Element:
    """One pass keeps the first item strictly better (``keep``) than the one
    kept so far and notes the items incomparable with it. By transitivity
    only those can beat the kept item, so it is the extreme if each of them
    loses to it; otherwise the pairs are scanned for the first incomparable
    one. A chain of n distinct items costs n - 1 comparisons."""
    vals = list(items)
    if not vals:
        raise ValueError(f"{context} of empty collection")
    cmp, lose = g.cmp, _GREATER if keep is _LESS else _LESS
    best, noted = vals[0], []
    for v in vals[1:]:
        rel = cmp(v, best)
        if rel is keep:
            best = v
        elif rel is _INCOMPARABLE:
            noted.append(v)
    if all(cmp(v, best) is lose for v in noted):
        return best
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            if cmp(a, b) is _INCOMPARABLE:
                raise IncomparableError(a, b, context)
    raise RuntimeError(f"{context}: the comparison is not a partial order")


def _run_laws(stream: Iterable, laws: Sequence[tuple]) -> list:
    """The law runner: each ``(law, predicate)`` runs ``predicate(*args)`` on
    the tuples of the stream in order, up to its own first failure, so one
    pass over the stream serves every law. A predicate returns None where
    its law holds and its witness text where it fails. Each law's entry is
    its ``LawResult`` or a held error: the one its predicate raised, or one
    the stream raised while the law was still running."""
    done: dict = {}
    live, checked = list(laws), 0
    try:
        for args in stream:
            checked += 1
            for law, predicate in live:
                try:
                    witness = predicate(*args)
                    if witness is None:
                        continue
                    done[law] = LawResult(law, False, checked, witness)
                except Exception as exc:  # noqa: BLE001 - held for this law
                    done[law] = exc
                live = [entry for entry in live if entry[0] not in done]
            if not live:
                break
    except Exception as exc:  # noqa: BLE001 - the stream's, held for every running law
        done.update((law, exc) for law, _ in live)
    return [done[law] if law in done else LawResult(law, True, checked) for law, _ in laws]


def _raise_held(outcome):
    """The outcome of a law or a report, raising it if it is a held error,
    with the traceback it was held with, so raising it again does not grow it."""
    if isinstance(outcome, Exception):
        raise outcome.with_traceback(
            outcome.__dict__.setdefault("_held_traceback", outcome.__traceback__))
    return outcome


def _run_law(law: str, stream: Sequence, predicate) -> LawResult:
    return _raise_held(_run_laws(stream, [(law, predicate)])[0])


def check_group_laws(g: OrderedGroupInstance, plan: SamplePlan) -> LawReport:
    """Verify the group and order axioms on seeded samples.

    Covers associativity, commutativity, identity, inverses, the order
    axioms (reflexive, antisymmetric-consistent, transitive), the strict
    translation law g1, and its two-sided form g1': translation by any
    element preserves the whole four-way comparison.
    """
    results = []
    fmt = format_element

    def w(*els):
        return ", ".join(fmt(e) for e in els)

    results.append(_run_law(
        "assoc",
        sample_triples(g, plan, "assoc"),
        lambda a, b, c: None if g.eq(g.add(g.add(a, b), c), g.add(a, g.add(b, c))) else w(a, b, c),
    ))
    results.append(_run_law(
        "comm",
        sample_pairs(g, plan, "comm"),
        lambda a, b: None if g.eq(g.add(a, b), g.add(b, a)) else w(a, b),
    ))
    results.append(_run_law(
        "identity",
        [(a,) for a in sample_elements(g, plan, "identity")],
        lambda a: None if g.eq(g.add(a, g.identity), a) else w(a),
    ))
    results.append(_run_law(
        "inverse",
        [(a,) for a in sample_elements(g, plan, "inverse")],
        lambda a: None if g.eq(g.add(a, g.neg(a)), g.identity) else w(a),
    ))
    results.append(_run_law(
        "order-reflexive",
        [(a,) for a in sample_elements(g, plan, "order-reflexive")],
        lambda a: None if g.cmp(a, a) is Order.EQUAL else w(a),
    ))
    results.append(_run_law(
        "order-antisymmetric",
        sample_pairs(g, plan, "order-antisymmetric"),
        lambda a, b: None if g.cmp(a, b) is g.cmp(b, a).flipped() else w(a, b),
    ))

    def transitive(a, p, q):
        b = g.add(a, p)
        c = g.add(b, q)
        if g.leq(a, b) and g.leq(b, c) and not g.leq(a, c):
            return w(a, b, c)

    steps = _law_stream(plan, "order-transitive-steps",
                        lambda rng: (g.positive_sampler(rng), g.positive_sampler(rng)))
    results.append(_run_law("order-transitive", [(a, p, q) for a, (p, q) in zip(
        sample_elements(g, plan, "order-transitive"), steps)], transitive))

    def g1(a, b, c):
        if g.lt(a, b) and not g.lt(g.add(a, c), g.add(b, c)):
            return w(a, b, c)

    pairs = strict_pairs(g, plan, "g1")
    shifts = _law_stream(plan, "g1-shifts", g.sampler, count=len(pairs))
    results.append(_run_law("g1", [(a, b, c) for (a, b), c in zip(pairs, shifts)], g1))

    def g1_prime(a, b, c):
        return None if g.cmp(g.add(a, c), g.add(b, c)) is g.cmp(a, b) else w(a, b, c)

    g1p_lead = [(a, b, c) for (a, b) in _edge_pairs(g) for c in g.edge_elements]
    results.append(_run_law("g1-prime", _law_stream(plan, "g1-prime", _triples(g), g1p_lead),
                            g1_prime))

    return LawReport(subject=f"group laws on {g.name}", results=tuple(results))


def check_module_laws(m: OrderedModuleInstance, plan: SamplePlan) -> LawReport:
    """Verify the ring-action axioms r1, m1, m1', m2, m2' on seeded samples.

    m2 and m2' are derived facts, so they are checked rather than assumed:
    a broken scalar action must surface here even if m1 was taken on faith.
    """
    g, ring = m.group, m.ring
    fmt = format_element
    results = [_run_law("r1", [(ring.zero, ring.one)],
                        lambda zero, one: None if ring.lt(zero, one) else f"1 = {one}, 0 = {zero}")]

    def m1(a, b, r):
        if g.lt(a, b) and ring.lt(ring.zero, r) and not g.lt(m.scale(r, a), m.scale(r, b)):
            return f"a={fmt(a)}, b={fmt(b)}, r={r}"

    pairs = strict_pairs(g, plan, "m1")
    abs_rs = [_q_abs(r) for r in _law_stream(plan, "m1-scalars", ring.sampler, ring.edge_scalars,
                                             len(pairs))]
    third = Fraction(1, 3)
    results.append(_run_law("m1", [(a, b, _q_add(r, third)) for (a, b), r in zip(pairs, abs_rs)], m1))

    def m1_prime(a, b, r):
        if g.leq(a, b) and ring.le(ring.zero, r) and not g.leq(m.scale(r, a), m.scale(r, b)):
            return f"a={fmt(a)}, b={fmt(b)}, r={r}"

    results.append(_run_law("m1-prime", [(a, b, r) for (a, b), r in zip(pairs, abs_rs)], m1_prime))

    def ordered_triples(label: str, gap) -> list:
        """(r, s, a) with s = r + |draw| + gap and a positive, drawn in that order."""
        def draw(rng):
            r = ring.sampler(rng)
            return r, _q_add(_q_add(r, _q_abs(ring.sampler(rng))), gap), g.positive_sampler(rng)
        return _law_stream(plan, label, draw)

    def m2(r, s, a):
        if ring.lt(r, s) and g.is_positive(a) and not g.lt(m.scale(r, a), m.scale(s, a)):
            return f"r={r}, s={s}, a={fmt(a)}"

    results.append(_run_law("m2", ordered_triples("m2", Fraction(1, 5)), m2))

    def m2_prime(r, s, a):
        if ring.le(r, s) and g.is_nonneg(a) and not g.leq(m.scale(r, a), m.scale(s, a)):
            return f"r={r}, s={s}, a={fmt(a)}"

    results.append(_run_law("m2-prime", ordered_triples("m2-prime", Fraction(0)), m2_prime))

    return LawReport(subject=f"module laws on {m.name}", results=tuple(results))


# ---------------------------------------------------------------------------
# built-in instances


def _draw(rng: random.Random, table: Sequence):
    """``table[i]`` for ``i`` uniform below ``n = len(table)``, drawn as
    ``random.Random._randbelow_with_getrandbits`` draws it for
    ``rng.randrange(n)``: ``getrandbits(n.bit_length())`` until the result
    is below ``n``."""
    getrandbits = rng.getrandbits
    n = len(table)
    k = n.bit_length()
    i = getrandbits(k)
    while i >= n:
        i = getrandbits(k)
    return table[i]


def _draw_entry(rng: random.Random, rows: Sequence[Sequence]):
    """``_draw(rng, _draw(rng, rows))`` in one frame: a row, then an entry
    of it; the rows may differ in length."""
    getrandbits = rng.getrandbits
    n = len(rows)
    k = n.bit_length()
    i = getrandbits(k)
    while i >= n:
        i = getrandbits(k)
    row = rows[i]
    n = len(row)
    k = n.bit_length()
    i = getrandbits(k)
    while i >= n:
        i = getrandbits(k)
    return row[i]


def _draw_entries(rng: random.Random, tables: Sequence) -> tuple:
    """``tuple(_draw_entry(rng, rows) for rows in tables)`` in one frame: a
    point, one ``_draw_entry`` per coordinate, with the same ``getrandbits``
    calls in the same order."""
    getrandbits = rng.getrandbits
    out = []
    for rows in tables:
        n = len(rows)
        k = n.bit_length()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        row = rows[i]
        n = len(row)
        k = n.bit_length()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        out.append(row[i])
    return tuple(out)


# every value a built-in sampler can return: row n + 48 holds n/1 .. n/8
# for n in -48..48; the samplers draw a row, then a column
_FRACTIONS = tuple(tuple(Fraction(n, d) for d in range(1, 9)) for n in range(-48, 49))
_NONNEG_FRACTIONS = _FRACTIONS[48:]  # numerators 0..48
_POSITIVE_FRACTIONS = _FRACTIONS[49:]  # numerators 1..48
_RING_FRACTIONS = _FRACTIONS[32:65]  # numerators -16..16
_UNIT_FRACTIONS = _FRACTIONS[49]  # 1/1 .. 1/8


def _rand_fraction(rng: random.Random) -> Fraction:
    """randint(-48, 48) / randint(1, 8)."""
    return _draw_entry(rng, _FRACTIONS)


def _rand_positive_fraction(rng: random.Random) -> Fraction:
    """randint(1, 48) / randint(1, 8)."""
    return _draw_entry(rng, _POSITIVE_FRACTIONS)


# ---------------------------------------------------------------------------
# exact rational kernel: the arithmetic of the built-in instances


_new = object.__new__
_gcd = math.gcd


def _q(n: int, d: int) -> Fraction:
    """The Fraction n/d, which the caller guarantees is in lowest terms with
    d > 0: filled in through its two slots, with no normalization."""
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _q_add(a: Fraction, b: Fraction) -> Fraction:
    """a + b, reduced by the gcd steps of ``Fraction._add``."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = _gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = _gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _q_neg(a: Fraction) -> Fraction:
    return _q(-a._numerator, a._denominator)


def _q_abs(a: Fraction) -> Fraction:
    """|a|: a itself unless it is negative."""
    return a if a._numerator >= 0 else _q(-a._numerator, a._denominator)


def _q_mul(a: Fraction, b: Fraction) -> Fraction:
    """a * b, reduced by the cross gcds of ``Fraction._mul``."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = _gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = _gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _q(na * nb, db * da)


def _q_dist(a: Fraction, b: Fraction) -> Fraction:
    """|a - b| in one construction: the steps of ``_q_add`` on a and -b,
    with the numerator's sign dropped before the result is built."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = _gcd(da, db)
    if g == 1:
        return _q(abs(na * db - da * nb), da * db)
    s = da // g
    t = abs(na * (db // g) - nb * s)
    g2 = _gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _scalar_cmp(a: Fraction, b: Fraction) -> Order:
    # one cross-multiplication: exact, since denominators are positive
    try:
        lhs, rhs = a._numerator * b._denominator, b._numerator * a._denominator
    except AttributeError:  # an int operand
        lhs, rhs = a.numerator * b.denominator, b.numerator * a.denominator
    if lhs == rhs:
        return _EQUAL
    return _LESS if lhs < rhs else _GREATER


def _cone_cmp(a: tuple, b: tuple) -> Order:
    below = above = False
    for x, y in zip(a, b):
        try:
            lhs, rhs = x._numerator * y._denominator, y._numerator * x._denominator
        except AttributeError:  # an int coordinate
            lhs, rhs = x.numerator * y.denominator, y.numerator * x.denominator
        if lhs < rhs:
            below = True
        elif lhs > rhs:
            above = True
    if below and above:
        return _INCOMPARABLE
    if below:
        return _LESS
    if above:
        return _GREATER
    return _EQUAL


def real_group() -> OrderedGroupInstance:
    """The rational line with its usual (total) order."""
    return OrderedGroupInstance(
        name="real",
        identity=Fraction(0),
        add=_q_add,
        neg=_q_neg,
        cmp=_scalar_cmp,
        contains=lambda v: isinstance(v, Fraction),
        sampler=_rand_fraction,
        positive_sampler=_rand_positive_fraction,
        edge_elements=(Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                       Fraction(-1, 2), Fraction(7, 3)),
    )


def coord_cone_group(dim: int) -> OrderedGroupInstance:
    """Rational coordinate space ordered by the nonnegative-orthant cone.

    x is below y exactly when every coordinate of y - x is nonnegative;
    mixed signs come back incomparable.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")

    def contains(v) -> bool:
        return isinstance(v, tuple) and len(v) == dim and all(isinstance(c, Fraction) for c in v)

    positions = range(dim)
    tables, nonneg_tables = (_FRACTIONS,) * dim, (_NONNEG_FRACTIONS,) * dim

    def sampler(rng):
        return _draw_entries(rng, tables)

    def positive_sampler(rng):
        # at least one strictly positive coordinate, none negative
        vec = list(_draw_entries(rng, nonneg_tables))
        at = _draw(rng, positions)
        vec[at] = _q_add(vec[at], _draw(rng, _UNIT_FRACTIONS))
        return tuple(vec)

    zero = tuple(Fraction(0) for _ in range(dim))
    ones = tuple(Fraction(1) for _ in range(dim))
    units = [tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)]
    mixed = tuple(Fraction(1 if i == 0 else -1) for i in range(dim))
    edges = (zero, ones, tuple(-c for c in ones), *units, mixed,
             tuple(Fraction(1, 2) for _ in range(dim)))

    return OrderedGroupInstance(
        name=f"cone-{dim}",
        identity=zero,
        add=lambda a, b: tuple(map(_q_add, a, b)),
        neg=lambda a: tuple(map(_q_neg, a)),
        cmp=_cone_cmp,
        contains=contains,
        sampler=sampler,
        positive_sampler=positive_sampler,
        edge_elements=edges,
    )


def rational_ring() -> RingDescriptor:
    return RingDescriptor(
        name="Q",
        zero=Fraction(0),
        one=Fraction(1),
        le=lambda a, b: _scalar_cmp(a, b) is not _GREATER,
        sampler=lambda rng: _draw_entry(rng, _RING_FRACTIONS),
        edge_scalars=(Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                      Fraction(2), Fraction(-3, 2)),
    )


def real_module() -> OrderedModuleInstance:
    return OrderedModuleInstance(group=real_group(), ring=rational_ring(), scale=_q_mul)


def coord_cone_module(dim: int) -> OrderedModuleInstance:
    return OrderedModuleInstance(
        group=coord_cone_group(dim),
        ring=rational_ring(),
        scale=lambda r, a: tuple([_q_mul(r, x) for x in a]),
    )
