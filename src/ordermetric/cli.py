"""Command-line entry point.

    ordermetric verify <instance> [--seed N] [--samples N] [--n-max N]
                                  [--checks LIST] [--format text|machine-rows]
    ordermetric solve <instance>  [--seed-point P] [--eps E] [--max-iter N]
                                  [--rule min-dist|lex]
    ordermetric hausdorff <instance> --set-a "p; q" --set-b "r; s"
    ordermetric export <instance> [--out FILE]

<instance> is a description file path or a built-in name (r1-banach,
three-point, cone2-shrink). Exit status contract: 0 all checks pass or the
solver certifies; 1 check failures or exhausted budgets; 2 violated
hypotheses or order errors; 3 parse errors, usage errors and bad argument
values (a budget below 1, a tolerance that does not strictly dominate the
identity).

The CLI builds an instance once per process. Each command reads its
instance text anew, then asks a single-slot memo keyed by ``(text, name)``
for the bundle, so repeated calls on unchanged text, as in a driver that
calls ``main`` many times, share one bundle: its distance table, its map's
image positions and its walk verdict. An edited file, another file stem
(the name seeds the ``hausdorff/*`` samples) or another built-in each build
anew, and a parse or build error is never kept, so every call on a bad
file reads it again and exits with its code. Bundles are frozen and cache
only what their text determines, so the output does not depend on the
memo. A one-shot call from a shell gains nothing.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .order_core import DomainError, IncomparableError, format_element
from .cone_metric import hausdorff
from .contraction import check_hypotheses
from .harness import ALL_CHECKS, Budgets, SuiteSpec, run_suite
from .instance_files import (
    InstanceBundle,
    InstanceFileError,
    build_bundle,
    export_instance_text,
    load_instance,
    parse_element,
    parse_element_list,
    parse_instance_text,
    read_instance,
)
from .solver import (
    SelectionRule,
    SolverConfig,
    SolverOutcome,
    iterate_endpoint,
    iterate_fixed_point,
    walk_tolerance,
)

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_HYPOTHESIS_VIOLATION = 2
EXIT_PARSE_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the parse-error code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE_ERROR, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: built on first use, and only read after."""
    parser = _Parser(
        prog="ordermetric",
        description="exact checks and solvers for ordered-group-valued metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the law suite on one instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=_positive_int, default=1000)
    p_verify.add_argument("--n-max", type=_positive_int, default=200)
    p_verify.add_argument("--checks", default="",
                          help="comma-separated check ids or prefixes (default: all)")
    p_verify.add_argument("--format", choices=("text", "machine-rows"), default="text")

    # no abbreviations, or verify's --seed would read as --seed-point here
    p_solve = sub.add_parser("solve", help="run the endpoint solver on one instance",
                             allow_abbrev=False)
    p_solve.add_argument("instance")
    p_solve.add_argument("--seed-point", default=None,
                         help="starting point, e.g. 1 or (1, 1)")
    p_solve.add_argument("--eps", default=None,
                         help="target scale, e.g. 1/1024 or (1/1024, 1/1024)")
    p_solve.add_argument("--max-iter", type=_positive_int, default=400)
    p_solve.add_argument("--rule", choices=("min-dist", "lex"), default="min-dist")

    p_h = sub.add_parser("hausdorff", help="exact set distance between finite subsets")
    p_h.add_argument("instance")
    p_h.add_argument("--set-a", required=True)
    p_h.add_argument("--set-b", required=True)

    p_export = sub.add_parser("export", help="canonical serialization of an instance")
    p_export.add_argument("instance")
    p_export.add_argument("--out", default=None)
    return parser


@functools.lru_cache(maxsize=1)
def _built(text: str, name: str) -> InstanceBundle:
    """The bundle of the last instance text and name built; a raise is not kept."""
    return build_bundle(parse_instance_text(text, name=name))


def _bundle(path_or_name: str) -> InstanceBundle:
    """The instance, read on every call and built once per unchanged text and name."""
    return _built(*read_instance(path_or_name))


def _select_checks(spec_text: str) -> tuple[str, ...]:
    if not spec_text.strip():
        return ALL_CHECKS
    wanted = [w.strip() for w in spec_text.split(",") if w.strip()]
    out = []
    for check in ALL_CHECKS:
        if any(check == w or check.startswith(w.rstrip("/") + "/") for w in wanted):
            out.append(check)
    if not out:
        raise InstanceFileError(f"no checks match {spec_text!r}")
    return tuple(out)


def cmd_verify(args) -> int:
    bundle = _bundle(args.instance)
    spec = SuiteSpec(
        instances=(bundle.name,),
        checks=_select_checks(args.checks),
        sample_seed=args.seed,
        budgets=Budgets(samples=args.samples, n_max=args.n_max),
    )
    report = run_suite(spec, {bundle.name: bundle})
    sys.stdout.write(report.to_text(args.format))
    return EXIT_OK if report.ok else EXIT_CHECK_FAILURES


def cmd_solve(args) -> int:
    bundle = _bundle(args.instance)
    if bundle.map_ is None or bundle.witness is None:
        print("instance has no [map] / [witness] section to solve", file=sys.stderr)
        return EXIT_PARSE_ERROR
    seed_point = bundle.solver_seed if args.seed_point is None \
        else parse_element(args.seed_point)
    # A tolerance outside the carrier is a domain error (exit 2); one inside
    # it that does not strictly dominate the identity is a bad value (exit 3).
    eps = bundle.space.group.coerce(
        bundle.solver_eps if args.eps is None else parse_element(args.eps))
    try:
        walk_tolerance(bundle.space, eps)
    except ValueError as exc:
        print(f"bad argument: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    bundle.space.require_member(seed_point)
    rule = SelectionRule.LEX_FIRST if args.rule == "lex" else SelectionRule.MIN_DISTANCE
    cfg = SolverConfig(eps=eps, seed_point=seed_point, max_iter=args.max_iter,
                       selection_rule=rule)

    T, w = bundle.map_, bundle.witness
    wit_report = check_hypotheses(T, w).witness_report
    if not wit_report.passed:
        bad = wit_report.failures()[0]
        print("hypothesis violated: the bound must sit strictly below the distance "
              "at every pair of distinct points", file=sys.stderr)
        print(f"witness: {bad.witness}", file=sys.stderr)
        return EXIT_HYPOTHESIS_VIOLATION

    single = T.function is not None and w.ratio is not None
    report = (iterate_fixed_point if single else iterate_endpoint)(T, w, cfg)
    sys.stdout.write(report.render() + "\n")
    if report.outcome in (SolverOutcome.ENDPOINT_FOUND,
                          SolverOutcome.APPROX_ENDPOINT_SEQUENCE):
        return EXIT_OK
    if report.outcome is SolverOutcome.HYPOTHESIS_VIOLATION:
        return EXIT_HYPOTHESIS_VIOLATION
    return EXIT_CHECK_FAILURES


def cmd_hausdorff(args) -> int:
    bundle = _bundle(args.instance)
    set_a = parse_element_list(args.set_a)
    set_b = parse_element_list(args.set_b)
    value = hausdorff(bundle.space, set_a, set_b)
    print(format_element(value))
    return EXIT_OK


def cmd_export(args) -> int:
    text = export_instance_text(load_instance(args.instance))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"bad argument: cannot write --out {args.out!r}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_PARSE_ERROR
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"verify": cmd_verify, "solve": cmd_solve,
                "hausdorff": cmd_hausdorff, "export": cmd_export}
    try:
        return handlers[args.command](args)
    except InstanceFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except IncomparableError as exc:
        print(f"order error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS_VIOLATION
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
