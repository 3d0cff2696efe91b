#!/usr/bin/env python3
"""Survey the generated finite-instance corpus.

Reports how many of the random instances are distinct: the generator
keeps whatever passes, so it can draw the same points and images again.
Runs the one-sided check with each instance's bound table and the walk
hypotheses (the all-pairs check among them) with its constant-ratio
witness, and reports how many pass; reports, for each witness, on how
many instances the gated endpoint theorem check (``endpoint_iff_report``)
runs, with its skip reasons counted; reports the endpoint count
distribution, and spot-checks the endpoint / inf-sup equivalence on every
instance. Exits 1 if an instance contradicts how it was built (a failed
one-sided check, or a ratio witness whose hypotheses fail) or if the
equivalence fails.
"""

import argparse
from collections import Counter

from ordermetric import (
    check_hypotheses,
    endpoint_census,
    endpoint_iff_report,
    endpoints_bruteforce,
    is_weak_contraction,
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
    weak = {i.name: is_weak_contraction(i.map_, i.phi_witness) for i in insts}
    verified = {i.name: check_hypotheses(i.map_, i.alpha_witness).verified
                for i in insts if i.global_contraction}

    print(f"instances: {len(insts)}  (sizes {dict(sorted(sizes.items()))})")
    drawn = [i for i in insts if i.name.startswith("random/")]
    distinct = {(i.space.points, tuple(map(i.map_.images_fn, i.space.points))) for i in drawn}
    print(f"distinct random instances: {len(distinct)} of {len(drawn)}")
    print(f"pass one-sided check with the bound table: "
          f"{sum(r.passed for r in weak.values())}")
    print(f"pass all-pairs check with a constant ratio: {sum(verified.values())}  "
          f"(built with one: {len(verified)})")
    for label, runs in (
            ("the bound table", [endpoint_iff_report(i.map_, i.phi_witness, weak=weak[i.name])
                                 for i in insts]),
            ("a constant ratio", [endpoint_iff_report(i.map_, i.alpha_witness)
                                  for i in insts if i.global_contraction])):
        # a skip reason is its kind, then a colon and the particulars
        skips = Counter(r.reason.split(":")[0] for r in runs if r.status == "skipped")
        print(f"endpoint theorem checked with {label}: "
              f"{len(runs) - skips.total()} of {len(runs)}"
              + "".join(f"  (skipped, {why}: {n})" for why, n in sorted(skips.items())))
    print(f"endpoint count distribution: {dict(sorted(end_counts.items()))}")

    # every instance is built to pass the one-sided check, and the walk
    # hypotheses exactly when it is built with a ratio witness
    contradictions = [name for name, r in weak.items() if not r.passed]
    contradictions += [name for name, ok in verified.items() if not ok]
    print(f"instances contradicting their construction: {len(contradictions)}")
    if contradictions:
        for name in contradictions:
            print(f"  DEFECT: {name}")
        raise SystemExit(1)

    mismatches = [inst.name for inst in insts if not endpoint_census(inst.map_).equivalent]
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
