#!/usr/bin/env python3
"""Run the full verification suite over the built-in instances.

Prints the traceability report (one row per check and instance) and exits
nonzero when any row fails, so it can serve as a CI gate:

    python scripts/run_suite.py --seed 0 --samples 1000 --n-max 200
"""

import argparse
import sys
import time

from ordermetric import Budgets, default_suite, run_suite
from ordermetric.harness import DEFAULT_INSTANCES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--n-max", type=int, default=200)
    parser.add_argument("--format", choices=("text", "machine-rows"), default="text")
    parser.add_argument("--instances", default="",
                        help="comma-separated instance names (default: all built-ins)")
    args = parser.parse_args()
    try:
        budgets = Budgets(samples=args.samples, n_max=args.n_max)
    except ValueError as exc:
        parser.error(str(exc))

    instances = [s.strip() for s in args.instances.split(",") if s.strip()] or None
    unknown = [s for s in instances or () if s not in DEFAULT_INSTANCES]
    if unknown:
        parser.error(f"unknown instance {', '.join(unknown)} "
                     f"(built-ins: {', '.join(DEFAULT_INSTANCES)})")
    spec = default_suite(instances=instances, sample_seed=args.seed, budgets=budgets)
    started = time.monotonic()
    report = run_suite(spec)
    sys.stdout.write(report.to_text(args.format))
    print(f"(completed in {time.monotonic() - started:.2f}s)", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
