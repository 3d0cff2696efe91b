#!/usr/bin/env python3
"""Endpoint solver walkthroughs on three contrasting instances.

1. A finite three-point instance with a genuinely multi-valued image and a
   verified constant-ratio bound: the walk collapses at the unique
   endpoint and agrees with the exhaustive scan.
2. Grid-rounded halving on a 65-point grid: rounding breaks the ratio on
   adjacent points, so hypotheses fail and the solver runs best-effort,
   yet still lands on the endpoint 0 in seven steps.
3. Exact halving on the rational unit interval: no exact endpoint is ever
   hit, so the run ends with an approximate-endpoint certificate, and the
   ratio iteration of the same single-valued map prints its a-priori error
   bounds.
"""

from fractions import Fraction

from ordermetric import (
    ConeMetricSpace,
    ContractionWitness,
    SetValuedMap,
    SolverConfig,
    WitnessClass,
    endpoints_bruteforce,
    iterate_endpoint,
    iterate_fixed_point,
    real_module,
    strict_order_structure,
)
from ordermetric.harness import builtin_bundles

HALF = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=Fraction(1, 2))


def banner(title):
    print("=" * 72)
    print(title)
    print("=" * 72)


def finite_demo():
    banner("finite three-point instance, verified hypotheses")
    bundle = builtin_bundles()["three-point"]
    print("brute-force endpoints:",
          [str(p) for p in endpoints_bruteforce(bundle.map_).members])
    cfg = SolverConfig(eps=Fraction(1, 16), seed_point=Fraction(1), max_iter=50)
    report = iterate_endpoint(bundle.map_, bundle.witness, cfg)
    print(report.render())
    print()


def grid_demo():
    banner("grid-rounded halving, best-effort mode")
    module = real_module()
    structure = strict_order_structure(module)
    pts = tuple(Fraction(k, 64) for k in range(65))
    space = ConeMetricSpace("grid64", structure, lambda x, y: abs(x - y), points=pts)

    def rule(x):
        return (Fraction(int(x * 64) // 2, 64),)

    T = SetValuedMap.from_rule(space, rule, name="floor-halving")
    cfg = SolverConfig(eps=Fraction(1, 1024), seed_point=Fraction(1), max_iter=50)
    report = iterate_endpoint(T, HALF, cfg)
    print(report.render())
    print()


def continuum_demo():
    banner("exact halving on the rational unit interval")
    bundle = builtin_bundles()["real-line"]
    cfg = SolverConfig(eps=Fraction(1, 2 ** 10), seed_point=Fraction(1), max_iter=64)
    report = iterate_endpoint(bundle.map_, bundle.witness, cfg)
    print(report.render())
    print()
    banner("ratio iteration with a-priori bounds")
    report = iterate_fixed_point(bundle.map_, bundle.witness, cfg)
    print(report.render())


if __name__ == "__main__":
    finite_demo()
    grid_demo()
    continuum_demo()
