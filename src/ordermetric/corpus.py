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
common denominator and each image is a tuple of positions among them. One
integer pass computes each pair's need and rejects the attempt at the
first pair whose need reaches its distance; only a kept one gets its spans
and is built into a space, a map (from the positions) and its witnesses,
the bound table one dense list over positions like the space's distance
table. Its points and bounds are read from one list of values, built once,
so building it hashes nothing but the map's point index. The generator
draws numerators from the pool directly, on ``getrandbits`` as
``random.Random`` draws them; ``build_instance`` brings its rationals to
their least common denominator first, so both take the same path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .order_core import _q_dist, real_module
from .topo import strict_order_structure
from .cone_metric import ConeMetricSpace
from .contraction import ContractionWitness, SetValuedMap, WitnessClass

_POOL_DEN, _POOL_SIZE = 4, 17  # the points 0, 1/4, ..., 4, as numerators over 4
# k / 4 for every numerator of the pool, which also covers every distance
# between two of them: the points and bounds of every generated instance
_POOL = [Fraction(k, _POOL_DEN) for k in range(_POOL_SIZE)]
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


def _admit(structure, over, nums, images, name: str) -> CorpusInstance | None:
    """The instance on the points ``over[k]`` for k in ``nums``, ascending,
    where point i maps to the positions ``images[i]`` (first positions, no
    repeats), if the map admits a valid bound; None otherwise. ``over[k]``
    is the Fraction ``k / den`` of one common denominator, for every
    numerator in ``nums`` and every distance between two of them.

    One integer pass decides the attempt: a pair's need is the max over x'
    in T(x) of the min over y' in T(y) of |x' - y'|, and the attempt fails
    at the first pair of distinct points whose need is at least their
    distance, at the first x' that far from every y'. A kept attempt's
    needs become its bound table, position by position; its span at a pair
    is the greatest distance between the two images' extremes, and its
    worst ratio is found by cross-multiplication before one Fraction is
    built for it.
    """
    imgs = [[nums[k] for k in img] for img in images]
    # per ordered pair of positions, row by row, None on equal points; sized
    # exactly, as a kept instance's bound table keeps it
    needs = [None] * (len(nums) * len(nums))
    at = -1
    for a, img_a in zip(nums, imgs):
        for b, img_b in zip(nums, imgs):
            at += 1
            d = a - b if a > b else b - a
            if not d:
                continue
            need = 0
            for p in img_a:
                near = d  # min(d, |p - q| over q), d when no q is nearer than d
                for q in img_b:
                    e = p - q if p > q else q - p
                    if e < near:
                        near = e
                if near == d:
                    return None
                if near > need:
                    need = near
            needs[at] = need
    lo, hi = [min(img) for img in imgs], [max(img) for img in imgs]
    span, per = 0, 1  # the worst ratio is span / per, 0 without pairs
    for i, a in enumerate(nums):
        for j, b in enumerate(nums):
            d = abs(a - b)
            if d:
                s = max(hi[i] - lo[j], hi[j] - lo[i])
                if s * per > span * d:
                    span, per = s, d
    for at, need in enumerate(needs):
        if need is not None:
            needs[at] = over[need]
    points = tuple([over[k] for k in nums])
    space = ConeMetricSpace(name, structure, _q_dist, points=points)
    T = SetValuedMap._from_positions(space, images, name=f"T[{name}]")
    phi_w = ContractionWitness(WitnessClass.PHI_TABLE, label=f"minimal bound table for {name}",
                               phi_table=needs)
    if span >= per:
        return CorpusInstance(name, space, T, phi_w, None, None)
    worst = Fraction(span, per)
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
    nums = [p.numerator * (den // p.denominator) for p in values]
    # the values of the numerators and of their distances: the points and bounds
    over = {k: Fraction(k, den) for k in {*nums, *(abs(a - b) for a in nums for b in nums)}}
    return _admit(structure, over, nums,
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
    out.sort()
    return out


def _random_attempt(rng: random.Random) -> tuple[list, list]:
    """One attempt's numerators, ``sorted(rng.sample(range(_POOL_SIZE), rng.randint(2, 5)))``,
    and per point a sorted ``rng.sample(near, rng.randint(1, min(3, len(near))))`` of
    positions, each drawn on ``getrandbits`` as ``random.Random`` draws it: an
    index below n is ``getrandbits(n.bit_length())`` until it is below n."""
    getrandbits = rng.getrandbits
    size = getrandbits(3)  # randint(2, 5) is 2 + an index below 4
    while size >= 4:
        size = getrandbits(3)
    nums = _sample(getrandbits, range(_POOL_SIZE), size + 2)
    n = len(nums)
    near = range(n)
    # half the attempts cluster images near a hub point, which is what a
    # contraction looks like; the rest are fully random so the filter is
    # also exercised against unlikely passes
    if rng.random() < 0.5:
        w = n.bit_length()
        h = getrandbits(w)
        while h >= n:
            h = getrandbits(w)
        # the two positions nearest the hub, ties to the lower: the hub, then
        # the closer of its neighbours (the numerators ascend)
        if h == 0 or h < n - 1 and nums[h + 1] - nums[h] < nums[h] - nums[h - 1]:
            near = [h, h + 1]
        else:
            near = [h, h - 1]
    m = min(3, len(near))
    w = m.bit_length()
    images = []
    for _ in range(n):
        k = getrandbits(w)
        while k >= m:
            k = getrandbits(w)
        images.append(tuple(_sample(getrandbits, near, k + 1)))
    return nums, images


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
        inst = _admit(structure, _POOL, *_random_attempt(rng), f"random/{attempts}")
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
