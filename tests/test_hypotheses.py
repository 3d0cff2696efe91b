"""Walk hypotheses are verified once, in one pass on a finite space, and
shared: call counts across the CLI, equality of walks with and without a
precomputed value, and the verify report against committed golden rows."""

import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from ordermetric import (
    ConeMetricSpace,
    ContractionWitness,
    SelectionRule,
    SetValuedMap,
    SolverConfig,
    WitnessClass,
    check_hypotheses,
    endpoint_iff_report,
    is_weak_contraction,
    iterate_endpoint,
)
from ordermetric import cli, contraction, harness, solver
from ordermetric.cli import main

DATA = Path(__file__).parent / "data"
HALF = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=Fraction(1, 2))
# the one-pass scan behind check_hypotheses, and the two checks it replaces
# on finite spaces
COUNTED = ("hypothesis_reports", "is_global_weak_contraction", "validate_witness")
ONE_PASS = {"hypothesis_reports": 1, "is_global_weak_contraction": 0, "validate_witness": 0}


@pytest.fixture
def calls(monkeypatch):
    """Count the hypothesis scans through every module that binds them."""
    counts = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        original = getattr(contraction, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (contraction, solver, harness, cli):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_verify_runs_each_hypothesis_check_once(calls, capsys):
    rc = main(["verify", "three-point", "--checks", "map,endpoint,solver"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "every seed and rule reaches 0" in out
    assert calls == ONE_PASS


def test_solve_validates_the_witness_once(calls, capsys):
    rc = main(["solve", "three-point", "--seed-point", "1", "--eps", "1/16"])
    assert rc == 0
    assert "endpoint: 0" in capsys.readouterr().out
    assert calls == ONE_PASS


@pytest.fixture
def dilation(rstruct):
    pts = (Fraction(0), Fraction(1, 4), Fraction(1))
    space = ConeMetricSpace("three-point", rstruct, lambda x, y: abs(x - y), points=pts)
    T = SetValuedMap.from_table(space, {
        Fraction(0): (Fraction(0),),
        Fraction(1, 4): (Fraction(0),),
        Fraction(1): (Fraction(0), Fraction(1, 4)),
    })
    return space, T


def _phi_table(space):
    return ContractionWitness(
        WitnessClass.PHI_TABLE,
        phi_table={(x, y): space.distance(x, y) / 2
                   for x in space.points for y in space.points if x != y})


@pytest.mark.parametrize("witness_kind", ["alpha-const", "phi-table"])
def test_precomputed_hypotheses_give_equal_reports(dilation, witness_kind):
    space, T = dilation
    w = HALF if witness_kind == "alpha-const" else _phi_table(space)
    hyps = check_hypotheses(T, w)
    # the phi table passes every check but its C-status stays unknown, so
    # the walk runs best effort and its notes are compared too
    assert hyps.verified is (witness_kind == "alpha-const")
    for seed in space.points:
        for rule in SelectionRule:
            cfg = SolverConfig(eps=Fraction(1, 16), seed_point=seed, max_iter=50,
                               selection_rule=rule)
            fresh = iterate_endpoint(T, w, cfg)
            shared = iterate_endpoint(T, w, cfg, hypotheses=hyps)
            assert shared == fresh
            assert fresh.notes == hyps.notes
            assert fresh.best_effort is not hyps.verified


def test_tolerance_is_checked_before_the_hypotheses(dilation):
    _, T = dilation
    broken = ContractionWitness(WitnessClass.PHI_TABLE, phi_table={})
    cfg = SolverConfig(eps=Fraction(0), seed_point=Fraction(1))
    with pytest.raises(ValueError, match="tolerance"):
        iterate_endpoint(T, broken, cfg)


def test_reports_use_a_precomputed_weak_report(dilation):
    _, T = dilation
    weak = is_weak_contraction(T, HALF)
    failed = dataclasses.replace(weak, passed=False, witness="given")
    assert endpoint_iff_report(T, HALF, weak=weak) == endpoint_iff_report(T, HALF)
    assert endpoint_iff_report(T, HALF, weak=failed).reason \
        == "one-sided bound check failed: given"


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("builtin", ["r1-banach", "three-point", "cone2-shrink"])
def test_verify_machine_rows_match_golden(builtin, seed, capsys):
    rc = main(["verify", builtin, "--checks", "map,endpoint,solver",
               "--format", "machine-rows", "--seed", str(seed)])
    assert rc == 0
    golden = (DATA / f"verify-{builtin}-seed{seed}.rows").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
