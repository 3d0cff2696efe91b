#!/usr/bin/env python3
"""Survey the generated finite-instance corpus.

Reports how many instances pass the one-sided and all-pairs checks, the
endpoint count distribution, and spot-checks the endpoint / inf-sup
equivalence on every instance.
"""

import argparse
from collections import Counter
from fractions import Fraction

from ordermetric import (
    approximate_endpoint_property_finite,
    endpoints_bruteforce,
    weak_contraction_corpus,
)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=positive_int, default=120)
    parser.add_argument("--seed", type=int, default=20260809)
    args = parser.parse_args()

    insts = weak_contraction_corpus(seed=args.seed, count=args.count)
    sizes = Counter(len(i.space.points) for i in insts)
    end_counts = Counter(len(endpoints_bruteforce(i.map_)) for i in insts)
    n_global = sum(1 for i in insts if i.global_contraction)

    print(f"instances: {len(insts)}  (sizes {dict(sorted(sizes.items()))})")
    print(f"pass all-pairs check with a constant ratio: {n_global}")
    print(f"endpoint count distribution: {dict(sorted(end_counts.items()))}")

    mismatches = []
    for inst in insts:
        has_endpoint = len(endpoints_bruteforce(inst.map_)) == 1
        value = approximate_endpoint_property_finite(inst.map_)
        if has_endpoint != (value.value == Fraction(0)):
            mismatches.append(inst.name)
    print(f"endpoint <-> zero inf-sup mismatches: {len(mismatches)}")
    if mismatches:
        for name in mismatches:
            print(f"  DEFECT: {name}")
        raise SystemExit(1)

    ratios = sorted(i.worst_ratio for i in insts if i.worst_ratio is not None)
    if ratios:
        print(f"worst all-pairs ratios: min {ratios[0]}, max {ratios[-1]}")


if __name__ == "__main__":
    main()
