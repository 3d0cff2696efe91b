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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .order_core import real_module
from .topo import strict_order_structure
from .cone_metric import ConeMetricSpace
from .contraction import ContractionWitness, SetValuedMap, WitnessClass

_POINT_POOL = tuple(Fraction(k, 4) for k in range(0, 17))  # 0, 1/4, ..., 4
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


def directed_requirement(space: ConeMetricSpace, table: dict, x, y) -> Fraction:
    """Smallest bound value making the one-sided condition hold at (x, y)."""
    return max(min(space.distance(xp, yp) for yp in table[y]) for xp in table[x])


def pairwise_requirement(space: ConeMetricSpace, table: dict, x, y) -> Fraction:
    """Smallest bound value making the all-pairs condition hold at (x, y)."""
    return max(space.distance(xp, yp) for xp in table[x] for yp in table[y])


def _shared_structure():
    return strict_order_structure(real_module())


def finite_line_space(structure, points, name: str) -> ConeMetricSpace:
    pts = tuple(sorted(Fraction(p) for p in points))
    return ConeMetricSpace(name, structure, lambda x, y: abs(x - y), points=pts)


def build_instance(structure, points, table: dict, name: str) -> CorpusInstance | None:
    """Assemble an instance if the map admits a valid bound; None otherwise."""
    space = finite_line_space(structure, points, name)
    table = {Fraction(k): tuple(Fraction(v) for v in vs) for k, vs in table.items()}
    phi_table = {}
    ratios = []
    for x in space.points:
        for y in space.points:
            if x == y:
                continue
            d = space.distance(x, y)
            need = directed_requirement(space, table, x, y)
            if need >= d:
                return None
            phi_table[(x, y)] = need
            ratios.append(pairwise_requirement(space, table, x, y) / d)
    T = SetValuedMap.from_table(space, table, name=f"T[{name}]")
    phi_w = ContractionWitness(WitnessClass.PHI_TABLE, phi_table=phi_table,
                               label=f"minimal bound table for {name}")
    worst = max(ratios) if ratios else Fraction(0)
    alpha_w = None
    if worst < 1:
        alpha_w = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=worst,
                                     label=f"worst ratio {worst} for {name}")
    return CorpusInstance(name, space, T, phi_w, alpha_w,
                          worst if worst < 1 else None)


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


def _random_table(rng: random.Random, points: tuple) -> dict:
    # half the attempts cluster images near a hub point, which is what a
    # contraction looks like; the rest are fully random so the filter is
    # also exercised against unlikely passes
    if rng.random() < 0.5:
        hub = rng.choice(points)
        ranked = sorted(points, key=lambda p: (abs(p - hub), p))
        pool = ranked[:2]
        return {p: tuple(sorted(rng.sample(pool, rng.randint(1, len(pool)))))
                for p in points}
    table = {}
    for p in points:
        k = rng.randint(1, min(3, len(points)))
        table[p] = tuple(sorted(rng.sample(points, k)))
    return table


def weak_contraction_corpus(seed: int = 20260809, count: int = 120) -> list[CorpusInstance]:
    """At least ``count`` instances passing the exhaustive one-sided check.

    Sizes cycle through 2..5 points drawn from a small rational pool; the
    generator is fully deterministic in the seed. Raises if the attempt
    budget ``_MAX_ATTEMPTS`` is exhausted, which would indicate a generator
    regression rather than bad luck.
    """
    structure = _shared_structure()
    out = _special_instances(structure)
    rng = random.Random(seed)
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise RuntimeError("corpus generation budget exhausted")
        size = rng.randint(2, 5)
        points = tuple(sorted(rng.sample(_POINT_POOL, size)))
        inst = build_instance(structure, points, _random_table(rng, points),
                              f"random/{attempts}")
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
