import collections
import contextlib
import io
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordermetric import (
    SetDistanceUndefined, build_bundle, cli, cone_metric, contraction, hausdorff)
from ordermetric.cli import main
from ordermetric.instance_files import BUILTIN_INSTANCE_TEXTS, parse_instance_text

INCOMPARABLE_FILE = """\
[group]
family = coord-cone
dimension = 2

[structure]
kind = interior-cone

[space]
points = (0, 0); (1, 0); (0, 1)
metric = table
row = (0, 0); (1, 2); (2, 1)
row = (1, 2); (0, 0); (2, 2)
row = (2, 1); (2, 2); (0, 0)
"""

# a swap of two points at distance -1: before parsing refused the negative
# cell, solve exited 0 with an approximate endpoint "within tolerance at 1"
NEGATIVE_TABLE_FILE = """\
[group]
family = real

[structure]
kind = strict-order

[space]
points = 0; 1
metric = table
row = 0; -1
row = -1; 0

[map]
image 0 = 1
image 1 = 0

[witness]
class = alpha-const
alpha = 1/2
"""

BROKEN_PHI_FILE = """\
[group]
family = real

[structure]
kind = strict-order

[space]
points = 0; 1
metric = abs

[map]
image 0 = 0
image 1 = 0

[witness]
class = phi-table
phi 0 | 1 = 1
phi 1 | 0 = 1/4
"""

GRID3_FILE = """\
[group]
family = coord-cone
dimension = 2

[structure]
kind = interior-cone

[space]
grid = (0, 0) .. (2, 2) step 1
metric = coordinatewise
"""

POINTS_FILE = """\
[group]
family = real

[structure]
kind = strict-order

[space]
points = 1; 2; 4; 5
metric = abs
"""


def test_verify_builtin_exits_zero(capsys):
    rc = main(["verify", "r1-banach", "--samples", "150", "--n-max", "150"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 fail" in out


def test_verify_restricted_to_metric_checks(capsys):
    rc = main(["verify", "three-point", "--checks", "metric",
               "--samples", "100", "--n-max", "60"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "metric/d1" in out and "group/assoc" not in out


@pytest.mark.parametrize("instance, n_max, row", [
    ("r1-banach", "3", "(2/3)^n*2: fake limit 1/2 unresolved for n <= 3"),
    ("cone2-shrink", "1", "(1, 1)/n: fake limit (1/2, 1/2) unresolved for n <= 1"),
])
def test_verify_unrefuted_fake_limit_in_a_short_window_skips(capsys, instance, n_max, row):
    # the window is too short to refute the fake limit, which is no failure
    rc = main(["verify", instance, "--checks", "seq/limit-uniqueness", "--n-max", n_max,
               "--format", "machine-rows"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (f"seq/limit-uniqueness\t{instance}\tskip\t{row} "
                   "(candidate not excluded within the window)\n")


def test_verify_without_map_skips_map_checks(tmp_path, capsys):
    path = tmp_path / "plain.ini"
    path.write_text(POINTS_FILE)
    rc = main(["verify", str(path), "--checks", "metric,map",
               "--samples", "100", "--n-max", "60"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "skip" in out and "no map" in out


def _scale_map_file(space: str, map_: str) -> str:
    return ("[group]\nfamily = real\n\n[structure]\nkind = strict-order\n\n"
            f"[space]\n{space}\nmetric = abs\n\n[map]\n{map_}\n\n"
            "[witness]\nclass = alpha-const\nalpha = 1/2\n")


ONE_POINT_FILE = _scale_map_file("points = 0", "image 0 = 0")
ONE_POINT_INTERVAL_FILE = _scale_map_file("interval = 1 .. 1", "rule = scale\nfactors = 1")
FLIP_FILE = _scale_map_file("interval = -1 .. 1", "rule = scale\nfactors = -1")
# one point has no pair to bound, so its empty phi table is complete
ONE_POINT_PHI_FILE = ONE_POINT_FILE.replace("class = alpha-const\nalpha = 1/2\n",
                                            "class = phi-table\n")

_NO_PAIRS = "skip\tno pair of distinct points to check"
_C_STATUS = ("pass\tholds-by-theorem: uniform ratio 1/2 < 1: the gap dominates "
             "(1 - 1/2) * d, and that factor is invertible and positive")
_ONE_POINT_ORACLE = "walk tolerance undefined: space has fewer than two distinct points"
_NOT_SINGLE_VALUED = "skip\tbundle has no single-valued contraction"


@pytest.mark.parametrize("text, c_status, oracle, banach", [
    (ONE_POINT_FILE, _C_STATUS, _ONE_POINT_ORACLE, _NOT_SINGLE_VALUED),
    (ONE_POINT_INTERVAL_FILE, _C_STATUS, "needs a finite mapped space", _NO_PAIRS),
    (ONE_POINT_PHI_FILE,
     "skip\tunknown: no registered criterion applies to this witness class",
     _ONE_POINT_ORACLE, _NOT_SINGLE_VALUED),
], ids=["one-point", "one-point-interval", "one-point-phi-table"])
def test_map_and_solver_rows_without_a_pair_skip(tmp_path, capsys, text, c_status, oracle,
                                                  banach):
    # no row passes after checking nothing: no pair of distinct points, and
    # a walk trace too short to compare a step with the one before it
    path = tmp_path / "one.ini"
    path.write_text(text)
    rc = main(["verify", str(path), "--checks", "map,solver", "--format", "machine-rows"])
    rows = [f"{check}\t{path.stem}\t{outcome}" for check, outcome in [
        ("map/phi-strictly-below", _NO_PAIRS),
        ("map/weak-contraction", _NO_PAIRS),
        ("map/global-contraction", _NO_PAIRS),
        ("map/global-implies-weak", _NO_PAIRS),
        ("map/c-status", c_status),
        ("solver/oracle-agreement", f"skip\t{oracle}"),
        ("solver/trace-monotone", "skip\tendpoint-found with a trace of 0 steps: "
                                  "fewer than two steps compare nothing"),
        ("solver/banach-rate", banach),
    ]]
    assert capsys.readouterr().out == "".join(row + "\n" for row in rows)
    assert rc == 0


def test_banach_rate_skips_a_scale_map_of_magnitude_one(tmp_path, capsys):
    # T(x) = -x breaks the ratio 1/2 of its witness: the row skips as the
    # walk rows do, and solve's ratio iteration names the failing pair
    path = tmp_path / "flip.ini"
    path.write_text(FLIP_FILE)
    rc = main(["verify", str(path), "--checks", "solver/banach-rate",
               "--format", "machine-rows"])
    assert capsys.readouterr().out == (f"solver/banach-rate\t{path.stem}\tskip\t"
                                       "all-pairs bound fails; walk not governed\n")
    assert rc == 0
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr() == (
        "outcome: hypothesis-violation (ratio 1/2)\nglobal bound check failed: "
        "x=-1/5, y=1, x'=1/5, y'=-1: d=6/5 exceeds 3/5\ntrace:\n", "")


def test_trace_monotone_skips_a_walk_no_bound_governs(tmp_path, capsys):
    # T(x) = -x fails the all-pairs bound, so its walk is not governed: the
    # map row reports the defect and the solver row skips, as
    # solver/oracle-agreement does; verify still exits 1
    path = tmp_path / "flip.ini"
    path.write_text(FLIP_FILE)
    rc = main(["verify", str(path), "--checks", "map/global-contraction,solver/trace-monotone",
               "--format", "machine-rows"])
    assert capsys.readouterr().out == (
        f"map/global-contraction\t{path.stem}\tfail\t"
        "x=1/2, y=-1/9, x'=-1/2, y'=1/9: d=11/18 exceeds 11/36\n"
        f"solver/trace-monotone\t{path.stem}\tskip\tall-pairs bound fails; walk not governed\n")
    assert rc == 1


def test_verify_machine_rows_deterministic(capsys):
    args = ["verify", "three-point", "--format", "machine-rows",
            "--samples", "120", "--n-max", "60", "--seed", "9"]
    rc1 = main(args)
    out1 = capsys.readouterr().out
    rc2 = main(args)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert all(len(line.split("\t")) == 4 for line in out1.strip().splitlines())


def test_solve_builtin_halving(capsys):
    rc = main(["solve", "r1-banach", "--seed-point", "1", "--eps", "1/1024"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "outcome:" in out
    trace_rows = [line for line in out.splitlines() if line.lstrip().startswith("n=")]
    assert len(trace_rows) <= 12


def test_solve_three_point_endpoint(capsys):
    rc = main(["solve", "three-point", "--seed-point", "1", "--eps", "1/16"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "endpoint: 0" in out


def test_solve_seed_at_endpoint_single_row(capsys):
    rc = main(["solve", "three-point", "--seed-point", "0", "--eps", "1/16"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "iteration 0" in out


def test_solve_lex_rule(capsys):
    rc = main(["solve", "three-point", "--seed-point", "1", "--rule", "lex",
               "--eps", "1/16"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "endpoint: 0" in out


def test_hausdorff_exact_output(tmp_path, capsys):
    path = tmp_path / "points.ini"
    path.write_text(POINTS_FILE)
    rc = main(["hausdorff", str(path), "--set-a", "1; 2", "--set-b", "4; 5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "3"


def test_hausdorff_identical_sets_prints_zero(tmp_path, capsys):
    path = tmp_path / "points.ini"
    path.write_text(POINTS_FILE)
    rc = main(["hausdorff", str(path), "--set-a", "1; 2", "--set-b", "1; 2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "0"


def test_hausdorff_of_a_set_with_no_chain_of_distances_with_itself(capsys):
    # (1, 0) and (0, 1) are incomparable, but each point's least distance to
    # the set is its distance to itself
    pts = "(0, 0); (1, 0); (0, 1)"
    rc = main(["hausdorff", "cone2-shrink", "--set-a", pts, "--set-b", pts])
    assert (rc, capsys.readouterr().out) == (0, "(0, 0)\n")


def test_hausdorff_incomparable_directed_values_exit_two():
    # each directed value exists, but (0, 1) and (1, 0) are incomparable; the
    # CLI exit 2 on the same sets is the EXIT_TWO row hausdorff-incomparable-directed-values
    space = build_bundle(parse_instance_text(GRID3_FILE)).space
    a = [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))]
    b = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]
    assert cone_metric._directed(space, a, b) == (0, 1)
    assert cone_metric._directed(space, b, a) == (1, 0)
    message = "set distance undefined for this order: incomparable pair (0, 1) , (1, 0)"
    with pytest.raises(SetDistanceUndefined) as exc:
        hausdorff(space, a, b)
    assert str(exc.value) == message and exc.value.pair == ((0, 1), (1, 0))


def test_export_round_trip(tmp_path, capsys):
    out_path = tmp_path / "exported.ini"
    rc = main(["export", "three-point", "--out", str(out_path)])
    assert rc == 0
    rc2 = main(["verify", str(out_path), "--checks", "metric",
                "--samples", "80", "--n-max", "40"])
    capsys.readouterr()
    assert rc2 == 0


def test_export_stdout(capsys):
    rc = main(["export", "cone2-shrink"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[group]" in out and "family = coord-cone" in out


def test_unknown_builtin_exits_three(capsys):
    rc = main(["verify", "definitely-not-here"])
    assert rc == 3


def test_solve_bad_tolerance_exits_three(capsys):
    rc = main(["solve", "three-point", "--eps", "0"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "bad argument: tolerance 0 does not strictly dominate the identity\n"


@pytest.mark.parametrize("argv, text, stderr", [
    (["verify", "three-point", "--checks", "nosuch"], None,
     "parse error: no checks match 'nosuch'\n"),
    (["solve", "{path}"], POINTS_FILE,
     "instance has no [map] / [witness] section to solve\n"),
    (["solve", "{path}"], NEGATIVE_TABLE_FILE,
     "parse error: line 10: table cell (0, 1) must be above 0, got -1\n"),
], ids=["verify-no-checks-match", "solve-without-map", "solve-negative-table-cell"])
def test_cli_error_exits_three(tmp_path, capsys, argv, text, stderr):
    if text is not None:
        path = tmp_path / "instance.ini"
        path.write_text(text)
        argv = [str(path) if arg == "{path}" else arg for arg in argv]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", stderr)


def _assert_one_line_exit_three(rc, capsys, expected):
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert expected in captured.err


def test_verify_directory_exits_three(tmp_path, capsys):
    rc = main(["verify", str(tmp_path)])
    _assert_one_line_exit_three(rc, capsys, "parse error: cannot read")


def test_verify_non_utf8_file_exits_three(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(BUILTIN_INSTANCE_TEXTS["three-point"].encode() + b"# caf\xe9\n")
    rc = main(["verify", str(path)])
    _assert_one_line_exit_three(rc, capsys, "parse error: cannot read")


def test_export_into_missing_directory_exits_three(tmp_path, capsys):
    rc = main(["export", "three-point", "--out", str(tmp_path / "no-such-dir" / "x.ini")])
    _assert_one_line_exit_three(rc, capsys, "bad argument: cannot write --out")


@pytest.mark.parametrize("argv", [
    ["verify", "three-point", "--samples", "0"],
    ["verify", "three-point", "--n-max", "0"],
    ["verify", "three-point", "--samples", "many"],
    ["solve", "three-point", "--max-iter", "0"],
    ["verify"],
    ["frobnicate"],
    # --seed seeds verify's samples; solve samples nothing
    ["solve", "three-point", "--seed", "0"],
])
def test_usage_errors_exit_three(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error:" in err


def test_the_parser_is_built_once_per_process(capsys):
    bad = ["verify", "three-point", "--samples", "0"]
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as first:
        main(bad)
    fresh = capsys.readouterr()
    cli._build_parser.cache_clear()
    assert main(["export", "three-point"]) == 0
    assert main(["verify", "three-point", "--checks", "metric"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as later:
        main(bad)
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert first.value.code == later.value.code == 3
    assert capsys.readouterr() == fresh


DATA = Path(__file__).parent / "data"
LADDER = DATA / "ladder-31.ini"
LADDER_TEXT = LADDER.read_text(encoding="utf-8")
LADDER_EPS = "1/576460752303423488"  # (1/4)^29 / 2, below the least distance
LADDER_VERIFY = ["--checks", "map,endpoint,solver", "--format", "machine-rows"]


def _ladder_solve(path, point, rule):
    return ["solve", str(path), "--seed-point", point, "--eps", LADDER_EPS, "--rule", rule]


@pytest.fixture
def builds(monkeypatch):
    """Count the bundles the CLI builds and the hypothesis passes they run."""
    counts = {"build_bundle": 0, "_hypothesis_pass": 0}
    for mod, name in ((cli, "build_bundle"), (contraction, "_hypothesis_pass")):
        def counted(*args, _name=name, _fn=getattr(mod, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(mod, name, counted)
    return counts


def test_calls_on_unchanged_text_share_one_bundle_and_verdict(builds, capsys):
    # verify's plan (seed 7, 1000 samples) is not solve's: a finite space's
    # verdict ignores it
    assert main(["verify", str(LADDER), *LADDER_VERIFY, "--seed", "7"]) == 0
    golden = (DATA / "verify-ladder-31-seed0.rows").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
    for point, tag, rule in (("1", "1", "min-dist"), ("1/1024", "1_1024", "lex")):
        assert main(_ladder_solve(LADDER, point, rule)) == 0
        golden = (DATA / f"solve-ladder-31-{tag}-{rule}.out").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden
    assert builds == {"build_bundle": 1, "_hypothesis_pass": 1}


def test_an_edited_file_builds_again(tmp_path, builds, capsys):
    path = tmp_path / "ladder-31.ini"
    path.write_text(LADDER_TEXT, encoding="utf-8")
    assert main(_ladder_solve(path, "1", "lex")) == 0
    first = capsys.readouterr()
    path.write_text(LADDER_TEXT.replace("alpha = 1/2", "alpha = 3/4"), encoding="utf-8")
    assert main(_ladder_solve(path, "1", "lex")) == 0
    edited = capsys.readouterr()
    assert builds["build_bundle"] == 2
    assert "bound=45/64" in edited.out and edited != first
    cli._built.cache_clear()
    assert main(_ladder_solve(path, "1", "lex")) == 0
    assert capsys.readouterr() == edited


def test_a_bad_file_is_read_again_on_every_call(tmp_path, builds, capsys):
    path = tmp_path / "ladder-31.ini"
    path.write_text(LADDER_TEXT.replace("alpha = 1/2", "alpha = 1/0"), encoding="utf-8")
    for _ in range(2):
        assert main(_ladder_solve(path, "1", "lex")) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("parse error: line ")
    assert builds["build_bundle"] == 0  # the parse fails first
    path.write_text(LADDER_TEXT, encoding="utf-8")
    assert main(_ladder_solve(path, "1", "lex")) == 0
    golden = (DATA / "solve-ladder-31-1-lex.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
    assert builds["build_bundle"] == 1


def test_the_same_text_under_two_stems_builds_two_bundles(tmp_path, builds, capsys):
    golden = (DATA / "verify-ladder-31-seed0.rows").read_text(encoding="utf-8")
    for stem in ("a", "b"):
        path = tmp_path / f"{stem}.ini"
        path.write_text(LADDER_TEXT, encoding="utf-8")
        assert main(["verify", str(path), *LADDER_VERIFY]) == 0
        assert capsys.readouterr().out == golden.replace("\tladder-31\t", f"\t{stem}\t")
    assert builds == {"build_bundle": 2, "_hypothesis_pass": 2}


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--samples" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit 2: violated hypotheses, order errors and domain errors, one row per
# case: an argv, the instance text that "{path}" in it names (or None), and
# the exact stderr, or the exact (stdout, stderr) where a solver report says it


def _scaling(factor, interval):
    """r1-banach with another scale factor, on a carrier that factor maps
    into itself, under the witness ratio 1/2."""
    return BUILTIN_INSTANCE_TEXTS["r1-banach"].replace(
        "factors = 1/2", f"factors = {factor}").replace(
        "interval = 0 .. 1", f"interval = {interval}")


EXIT_TWO = [
    ("broken-witness", ["solve", "{path}", "--seed-point", "1"], BROKEN_PHI_FILE,
     "hypothesis violated: the bound must sit strictly below the distance "
     "at every pair of distinct points\nwitness: x=0, y=1: bound 1 not strictly below 1\n"),
    ("hausdorff-incomparable-distances",
     ["hausdorff", "{path}", "--set-a", "(0, 0)", "--set-b", "(1, 0); (0, 1)"],
     INCOMPARABLE_FILE,
     "order error: set distance undefined for this order: incomparable pair (1, 2) , (2, 1)\n"),
    # each directed value exists, but (0, 1) and (1, 0) are incomparable
    ("hausdorff-incomparable-directed-values",
     ["hausdorff", "{path}", "--set-a", "(0, 0); (0, 1)", "--set-b", "(0, 0); (1, 0)"],
     GRID3_FILE,
     "order error: set distance undefined for this order: incomparable pair (0, 1) , (1, 0)\n"),
    ("hausdorff-undeclared-point", ["hausdorff", "{path}", "--set-a", "1; 3", "--set-b", "4"],
     POINTS_FILE, "domain error: point 3 is not in space 'instance'\n"),
    ("seed-outside-carrier", ["solve", "three-point", "--seed-point", "7"], None,
     "domain error: point 7 is not in space 'three-point'\n"),
    ("tolerance-outside-carrier", ["solve", "r1-banach", "--eps", "(1, 1)"], None,
     "domain error: (1, 1) is not in the carrier of 'real'\n"),
    ("tolerance-of-the-wrong-dimension", ["solve", "cone2-shrink", "--eps", "(1/8, 1/8, 1/8)"],
     None, "domain error: (1/8, 1/8, 1/8) is not in the carrier of 'cone-2'\n"),
    # the ratio iteration names the first pair where the global bound fails
    ("scale-ratio-1", ["solve", "{path}"], _scaling("1", "0 .. 1"),
     ("outcome: hypothesis-violation (ratio 1/2)\nglobal bound check failed: "
      "x=2/5, y=1, x'=2/5, y'=1: d=3/5 exceeds 3/10\ntrace:\n", "")),
    ("scale-ratio-minus-1", ["solve", "{path}"], _scaling("-1", "-1 .. 1"),
     ("outcome: hypothesis-violation (ratio 1/2)\nglobal bound check failed: "
      "x=-1/5, y=1, x'=1/5, y'=-1: d=6/5 exceeds 3/5\ntrace:\n", "")),
]


@pytest.mark.parametrize("argv, text, expected", [row[1:] for row in EXIT_TWO],
                         ids=[row[0] for row in EXIT_TWO])
def test_cli_error_exits_two(tmp_path, capsys, argv, text, expected):
    if text is not None:
        path = tmp_path / "instance.ini"
        path.write_text(text)
        argv = [str(path) if arg == "{path}" else arg for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == (expected if isinstance(expected, tuple) else ("", expected))


def test_solve_the_identity_on_one_point_is_an_exact_fixed_point(tmp_path, capsys):
    # scale by 2 maps the carrier 0 .. 0 onto itself: the identity on {0},
    # whose global bound holds on no pair, so the iteration stops at once
    path = tmp_path / "instance.ini"
    path.write_text(_scaling("2", "0 .. 0"))
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr() == (
        "outcome: endpoint-found (ratio 1/2)\nexact fixed point after 0 steps\n"
        "fixed point: 0\ntrace:\n  n=0  x=0  ->  0  d=0  apriori=0\n", "")


@pytest.mark.parametrize("group, grid, metric", [
    ("family = real", "0 .. 1000000000000 step 1", "abs"),
    ("family = coord-cone\ndimension = 2", "(0, 0) .. (1000000, 1000000) step 1",
     "coordinatewise"),
], ids=["1-d", "2-d"])
def test_oversized_grid_exits_three_before_building(tmp_path, capsys, group, grid, metric):
    # 10^12 points: counted per axis, never built
    path = tmp_path / "huge.ini"
    path.write_text(f"[group]\n{group}\n\n[structure]\nkind = strict-order\n\n"
                    f"[space]\ngrid = {grid}\nmetric = {metric}\n")
    start = time.process_time()
    rc = main(["verify", str(path)])
    assert time.process_time() - start < 1
    assert rc == 3
    assert "grid too large (over 10000 points)" in capsys.readouterr().err


# -- mutation fuzz -----------------------------------------------------------

# an inserted token is one of the built-in texts' own tokens; a replaced one
# after a line's "=" is a value, many of them bad, so that some mutants get
# past the parser and run
_FUZZ_TOKENS = sorted({tok for text in BUILTIN_INSTANCE_TEXTS.values() for tok in text.split()})
_FUZZ_VALUES = ("0", "1", "1/2", "3/4", "2", "(1/2)", "(1/2, 1/2)", "(0, 1)", "0;", "1/4;",
                "-1", "1/0", "x", "(1, 2, 3)", "..", ";", "|")


@st.composite
def _mutated_builtin(draw):
    """A built-in text after 1-6 mutations of its ``key = value`` lines, each
    dropping, inserting, swapping or replacing one whitespace-separated token."""
    lines = BUILTIN_INSTANCE_TEXTS[draw(st.sampled_from(sorted(BUILTIN_INSTANCE_TEXTS)))].splitlines()
    entries = [at for at, line in enumerate(lines) if " = " in line]
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.sampled_from(entries))
        tokens = lines[at].split()
        op = draw(st.sampled_from(("replace", "drop", "insert", "swap")))
        if op == "insert" or not tokens:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_FUZZ_TOKENS)))
        elif op == "replace" and "=" in tokens[:-1]:
            value = draw(st.integers(tokens.index("=") + 1, len(tokens) - 1))
            tokens[value] = draw(st.sampled_from(_FUZZ_VALUES))
        else:
            i, j = draw(st.integers(0, len(tokens) - 1)), draw(st.integers(0, len(tokens) - 1))
            if op == "swap":
                tokens[i], tokens[j] = tokens[j], tokens[i]
            else:
                del tokens[i]
        lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "mutated.ini")


def _run_mutant(fuzz_path, text) -> list:
    """``(command, exit code)`` of ``verify --checks map,endpoint`` and
    ``solve`` on ``text``, each checked to end without a traceback."""
    with open(fuzz_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    codes = []
    for argv in (["verify", fuzz_path, "--checks", "map,endpoint",
                  "--samples", "30", "--n-max", "30"],
                 ["solve", fuzz_path]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert "Traceback" not in out.getvalue() + err.getvalue(), (argv[0], text)
        codes.append((argv[0], rc))
    return codes


@given(text=_mutated_builtin())
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
def test_mutated_builtin_texts_exit_with_a_documented_code(fuzz_path, text):
    for command, rc in _run_mutant(fuzz_path, text):
        assert rc in (0, 1, 2, 3), (command, text, rc)


# whole values for the value fuzz: each replaces everything after a line's
# "=", so that ratios of 1 or 2 (``factors = 1``, ``alpha = 1``) reach the
# hypothesis checks and the checks themselves, not only the parser
_WHOLE_VALUES = ("0", "1", "2", "1/2", "3/4", "-1", "(1/2, 1/2)", "(1, 1)", "(0, 1)",
                 "0 .. 2", "0; 1", "1/0", "x")
# the keys that choose a family, a dimension, a structure, a metric or a
# witness class rather than a quantity; the token fuzz above covers them
_NAMING_KEYS = ("family", "dimension", "kind", "metric", "class")


def _value_mutants(seed: int, count: int):
    """``count`` built-in texts, each with the values of one or two of its
    quantity lines replaced whole, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    names = sorted(BUILTIN_INSTANCE_TEXTS)
    for _ in range(count):
        lines = BUILTIN_INSTANCE_TEXTS[rng.choice(names)].splitlines()
        entries = [at for at, line in enumerate(lines)
                   if " = " in line and line.split()[0] not in _NAMING_KEYS]
        for _ in range(rng.randint(1, 2)):
            at = rng.choice(entries)
            lines[at] = lines[at].split(" = ")[0] + " = " + rng.choice(_WHOLE_VALUES)
        yield "\n".join(lines) + "\n"


def test_value_mutants_reach_every_exit_code(fuzz_path):
    seen = collections.Counter()
    for text in _value_mutants(0, 300):
        seen.update(_run_mutant(fuzz_path, text))
    # verify reports a broken hypothesis as a failed row (1), solve as 2; a
    # scale map iterates under its witness's ratio, so a halving map declared
    # with ratio 0, or a 3/4 map with ratio 1/2, exits 2
    assert dict(seen) == {("verify", 0): 8, ("verify", 1): 24, ("verify", 3): 268,
                          ("solve", 0): 15, ("solve", 1): 2, ("solve", 2): 15,
                          ("solve", 3): 268}
