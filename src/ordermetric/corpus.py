"""Deterministic corpora of small finite map instances.

Each instance is a finite rational point set with the absolute-value
distance and a table-backed set-valued map that provably admits a
one-sided contraction bound: the minimal admissible bound at an ordered
pair (the directed max-over-min of image distances) is computed
exhaustively and the instance is kept only when it sits strictly below the
distance at every pair. That minimal bound then doubles as the bound table
of the witness, so the one-sided check passes by construction and
everything downstream is tested against honest instances rather than
hand-tuned ones.

Instances whose exhaustive max image-pair distance also stays strictly
below the distance additionally carry a constant-ratio witness (the exact
worst ratio), which is what the solver agreement corpus filters on.

Both bounds are decided in integers: the points are numerators over one
common denominator and each image is a tuple of positions among them. A
rejected attempt computes nothing past its first failing pair; only a kept
one gets its needs and spans and is built into Fractions, a space, a map
(from the positions) and its witnesses. The generator draws numerators
from the pool directly, on ``getrandbits`` as ``random.Random`` draws
them; ``build_instance`` brings its rationals to their least common
denominator first, so both take the same path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .order_core import _draw, _q_dist, real_module
from .topo import strict_order_structure
from .cone_metric import ConeMetricSpace
from .contraction import ContractionWitness, SetValuedMap, WitnessClass

_POOL_DEN, _POOL_SIZE = 4, 17  # the points 0, 1/4, ..., 4, as numerators over 4
_MAX_ATTEMPTS = 200000


@dataclass(frozen=True, eq=False)
class CorpusInstance:
    name: str
    space: ConeMetricSpace
    map_: SetValuedMap
    phi_witness: ContractionWitness
    alpha_witness: ContractionWitness | None
    worst_ratio: Fraction | None

    @property
    def global_contraction(self) -> bool:
        return self.alpha_witness is not None


def _admit(structure, den: int, nums, images, name: str) -> CorpusInstance | None:
    """The instance on the points ``nums[i] / den``, ascending, where point
    i maps to the positions ``images[i]`` (first positions, no repeats), if
    the map admits a valid bound; None otherwise.

    A pair fails when some x' in T(x) is at least d(x, y) from every y' in
    T(y). A kept attempt's need at a pair is the max over x' of the min over
    y' of |x' - y'|, its span the greatest distance between the two images'
    extremes, and its worst ratio is found by cross-multiplication before
    one Fraction is built per point, per distinct need and for that ratio.
    """
    imgs = [[nums[k] for k in img] for img in images]
    for a, img_a in zip(nums, imgs):
        for b, img_b in zip(nums, imgs):
            d = abs(a - b)
            if d == 0:
                continue
            for p in img_a:
                for q in img_b:
                    if -d < p - q < d:
                        break
                else:
                    return None
    lo, hi = [min(img) for img in imgs], [max(img) for img in imgs]
    scored, span, over = [], 0, 1  # the worst ratio is span / over, 0 without pairs
    for i, (a, img_a) in enumerate(zip(nums, imgs)):
        for j, (b, img_b) in enumerate(zip(nums, imgs)):
            d = abs(a - b)
            if d == 0:
                continue
            scored.append((i, j, max(min(abs(p - q) for q in img_b) for p in img_a)))
            s = max(hi[i] - lo[j], hi[j] - lo[i])
            if s * over > span * d:
                span, over = s, d
    points = tuple(Fraction(k, den) for k in nums)
    space = ConeMetricSpace(name, structure, _q_dist, points=points)
    T = SetValuedMap._from_positions(space, images, name=f"T[{name}]")
    bound = {need: Fraction(need, den) for need in {need for *_, need in scored}}
    phi_w = ContractionWitness(WitnessClass.PHI_TABLE, label=f"minimal bound table for {name}",
                               phi_table={(points[i], points[j]): bound[n] for i, j, n in scored})
    if span >= over:
        return CorpusInstance(name, space, T, phi_w, None, None)
    worst = Fraction(span, over)
    alpha_w = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=worst,
                                 label=f"worst ratio {worst} for {name}")
    return CorpusInstance(name, space, T, phi_w, alpha_w, worst)


def build_instance(structure, points, table: dict, name: str) -> CorpusInstance | None:
    """Assemble an instance if the map admits a valid bound; None otherwise.

    A table that misses a point or names one outside ``points`` raises
    DomainError before any pair is scored.
    """
    values = tuple(sorted(Fraction(p) for p in points))
    table = {Fraction(k): tuple(Fraction(v) for v in vs) for k, vs in table.items()}
    space = ConeMetricSpace(name, structure, _q_dist, points=values)
    SetValuedMap.from_table(space, table)  # raises on a malformed table, naming the point
    den = math.lcm(*(p.denominator for p in values))
    return _admit(structure, den, [p.numerator * (den // p.denominator) for p in values],
                  [tuple(dict.fromkeys(space._index[v] for v in table[p])) for p in values], name)


def _special_instances(structure) -> list[CorpusInstance]:
    specials = []

    # no endpoint, yet a valid one-sided bound: both images are the whole space
    inst = build_instance(structure, [0, 1], {0: [0, 1], 1: [0, 1]}, "special/full-images")
    specials.append(inst)

    # a global instance with a genuinely multi-valued image
    inst = build_instance(structure, [0, Fraction(1, 4), 1],
                          {0: [0], Fraction(1, 4): [0], 1: [0, Fraction(1, 4)]},
                          "special/dilation")
    specials.append(inst)

    # single-valued contraction toward 0 over a spread-out carrier
    inst = build_instance(structure, [0, 1, 3],
                          {0: [0], 1: [0], 3: [1]}, "special/single-valued")
    specials.append(inst)

    # constant map: every image is the endpoint
    inst = build_instance(structure, [0, Fraction(1, 2), 2],
                          {0: [0], Fraction(1, 2): [0], 2: [0]}, "special/constant")
    specials.append(inst)

    missing = [i for i, s in enumerate(specials) if s is None]
    if missing:
        raise RuntimeError(f"special corpus instance {missing} failed to validate")
    return specials


def _sample(getrandbits, population, k: int) -> list:
    """``sorted(rng.sample(population, k))`` for at most 21 elements, drawn
    as CPython draws it: the pool-swap loop of ``_randbelow(n - i)``, each
    ``getrandbits`` of that width until the result is below it."""
    pool, out = list(population), []
    for m in range(len(pool), len(pool) - k, -1):
        w = m.bit_length()
        j = getrandbits(w)
        while j >= m:
            j = getrandbits(w)
        out.append(pool[j])
        pool[j] = pool[m - 1]
    return sorted(out)


def _random_attempt(rng: random.Random) -> tuple[list, list]:
    """One attempt's numerators, ``sorted(rng.sample(range(_POOL_SIZE), rng.randint(2, 5)))``,
    and per point a sorted ``rng.sample(near, rng.randint(1, min(3, len(near))))`` of
    positions, each drawn on ``getrandbits`` as ``random.Random`` draws it."""
    getrandbits = rng.getrandbits
    nums = _sample(getrandbits, range(_POOL_SIZE), _draw(rng, range(2, 6)))
    near = range(len(nums))
    # half the attempts cluster images near a hub point, which is what a
    # contraction looks like; the rest are fully random so the filter is
    # also exercised against unlikely passes
    if rng.random() < 0.5:
        hub = nums[_draw(rng, near)]
        near = sorted(near, key=lambda k: (abs(nums[k] - hub), k))[:2]
    counts = range(1, min(3, len(near)) + 1)
    return nums, [tuple(_sample(getrandbits, near, _draw(rng, counts))) for _ in nums]


def weak_contraction_corpus(seed: int = 20260809, count: int = 120) -> list[CorpusInstance]:
    """At least ``count`` instances passing the exhaustive one-sided check.

    Sizes cycle through 2..5 points drawn from a small rational pool; the
    generator is fully deterministic in the seed. Raises if the attempt
    budget ``_MAX_ATTEMPTS`` is exhausted, which would indicate a generator
    regression rather than bad luck.
    """
    structure = strict_order_structure(real_module())
    out = _special_instances(structure)
    rng = random.Random(seed)
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise RuntimeError("corpus generation budget exhausted")
        inst = _admit(structure, _POOL_DEN, *_random_attempt(rng), f"random/{attempts}")
        if inst is not None:
            out.append(inst)
    return out


def global_alpha_corpus(seed: int = 20260809, count: int = 120,
                        minimum: int = 20) -> list[CorpusInstance]:
    """The sub-corpus carrying a constant-ratio witness that passes the
    all-pairs check; used for solver agreement runs."""
    subset = [inst for inst in weak_contraction_corpus(seed, count)
              if inst.global_contraction]
    if len(subset) < minimum:
        raise RuntimeError(f"only {len(subset)} global instances; generator drifted")
    return subset
