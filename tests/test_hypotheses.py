"""Walk hypotheses are verified once, in one pass over the space's one pair
list, and kept on the map: scan counts across the CLI and the walks of one map,
equality of walks on a memoized map and on a fresh copy, held errors that
keep their traceback, and the verify report against committed golden rows."""

import dataclasses
import traceback
from fractions import Fraction
from pathlib import Path

import pytest

from ordermetric import (
    Budgets,
    ConeMetricSpace,
    ContractionWitness,
    DomainError,
    SamplePlan,
    SelectionRule,
    SetValuedMap,
    SolverConfig,
    SuiteSpec,
    WitnessClass,
    bound_table,
    build_bundle,
    check_hypotheses,
    endpoint_iff_report,
    is_global_weak_contraction,
    is_weak_contraction,
    iterate_endpoint,
    iterate_fixed_point,
    load_instance,
    run_suite,
    validate_witness,
    weak_contraction_corpus,
)
from ordermetric import cli, contraction, harness, solver
from ordermetric.cli import main

DATA = Path(__file__).parent / "data"
HALF = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=Fraction(1, 2))
# the one-pass scan behind check_hypotheses (which runs it when the map holds
# no verdict for the witness and plan), and the two checks it replaces
COUNTED = ("_hypothesis_pass", "is_global_weak_contraction", "validate_witness")
ONE_PASS = {"_hypothesis_pass": 1, "is_global_weak_contraction": 0, "validate_witness": 0}


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


def test_verify_then_solve_on_one_bundle_make_one_pass(calls):
    # the verify's plan (seed 7) is not the walk's default plan, and a finite
    # space's verdict ignores the plan
    bundle = build_bundle(load_instance("three-point"))
    spec = SuiteSpec(instances=(bundle.name,), checks=("map/global-contraction",),
                     sample_seed=7, budgets=Budgets(samples=50, n_max=50))
    assert run_suite(spec, {bundle.name: bundle}).ok
    cfg = SolverConfig(eps=Fraction(1, 16), seed_point=Fraction(1), max_iter=50)
    assert iterate_endpoint(bundle.map_, bundle.witness, cfg).endpoint == 0
    assert calls == ONE_PASS


def test_a_ratio_iteration_solve_validates_the_witness_in_the_same_pass(calls, capsys):
    rc = main(["solve", "r1-banach"])
    assert rc == 0
    assert "final point: 1/4096" in capsys.readouterr().out
    assert calls == ONE_PASS


@pytest.mark.parametrize("builtin", ["r1-banach", "cone2-shrink"])
def test_a_ratio_iteration_solve_draws_one_pair_list(monkeypatch, calls, capsys, builtin):
    # the iteration reads the verdict the witness check kept: no pre-check
    # of its own scans the pairs again
    drawn, original = [], contraction._distinct_pairs

    def counted(*args):
        drawn.append(args)
        return original(*args)

    monkeypatch.setattr(contraction, "_distinct_pairs", counted)
    assert main(["solve", builtin]) == 0
    assert capsys.readouterr().out.startswith("outcome: approximate-endpoint-sequence (ratio 1/2)")
    assert len(drawn) == 1
    assert calls == ONE_PASS


@pytest.mark.parametrize("name", ["real-line", "cone-2"])
def test_a_sampled_space_has_one_pair_list_for_every_pair_check(monkeypatch, name):
    """The walk hypotheses and the one-sided bound of a sampled space read
    the same drawn pairs, and the hypotheses draw them once, so the global
    bound and the one-sided bound speak of the same samples; the ratio
    iteration reads the hypotheses' verdict and draws no list of its own."""
    b = harness.builtin_bundles()[name]
    T, w, plan = b.map_, b.witness, SamplePlan(seed=3, count=50)
    lists, original = [], contraction._distinct_pairs

    def recorded(*args):
        lists.append(original(*args))
        return lists[-1]

    monkeypatch.setattr(contraction, "_distinct_pairs", recorded)
    hyps = check_hypotheses(T, w, plan)
    assert len(lists) == 1
    is_weak_contraction(T, w, plan)
    cfg = SolverConfig(eps=b.solver_eps, seed_point=b.solver_seed, max_iter=1)
    iterate_fixed_point(T, w, cfg, plan)
    assert len(lists) == 2 and len(lists[0]) == 50
    assert lists[1] == lists[0]
    assert hyps.global_report == is_global_weak_contraction(T, w, plan)
    assert hyps.witness_report == validate_witness(T, w, plan)


def _outcome(get):
    """What ``get()`` gives, or the error it raises as its type and text."""
    try:
        return get()
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return type(exc), str(exc)


def _every_class(space):
    """A witness of each class on ``space``; a bound table on a sampled
    space raises when read, which every pair law holds."""
    half, module = Fraction(1, 2), space.structure.module
    return [
        HALF,
        ContractionWitness(WitnessClass.ALPHA_FUNCTION, alpha_fn=lambda x, y: half,
                           alpha_bound=Fraction(3, 4)),
        ContractionWitness(WitnessClass.PSI_ON_DISTANCE, psi=lambda d: module.scale(half, d)),
        ContractionWitness(WitnessClass.PHI_TABLE, phi_table=[]),
    ]


@pytest.mark.parametrize("name", ["real-line", "cone-2"])
def test_the_kept_one_sided_outcome_is_the_standalone_check_on_a_sampled_space(name):
    b = harness.builtin_bundles()[name]
    plan = SamplePlan(seed=3, count=50)
    for w in [b.witness] + _every_class(b.space):
        expected = _outcome(lambda: is_weak_contraction(b.map_, w, plan))
        # decided in the verdict's own pass, or added to a verdict kept without it
        together, added = dataclasses.replace(b.map_), dataclasses.replace(b.map_)
        check_hypotheses(added, w, plan)
        for T in (together, added):
            hyps = check_hypotheses(T, w, plan, one_sided=True)
            assert _outcome(lambda: hyps.one_sided_report) == expected
            assert _outcome(lambda: hyps.global_report) == \
                _outcome(lambda: is_global_weak_contraction(b.map_, w, plan))
            assert _outcome(lambda: hyps.witness_report) == \
                _outcome(lambda: validate_witness(b.map_, w, plan))


def test_a_kept_verdict_adds_the_one_sided_outcome_from_one_scan(dilation, monkeypatch):
    # the walk's pass decided the global law and the witness; asking for the
    # one-sided bound scans the pair list again for that law alone, and the
    # verdict keeps its outcomes, its walk steps and its identity
    _, T = dilation
    cfg = SolverConfig(eps=Fraction(1, 16), seed_point=Fraction(1), max_iter=50)
    walk = iterate_endpoint(T, HALF, cfg)
    hyps = check_hypotheses(T, HALF)
    kept = (hyps.global_outcome, hyps.witness_outcome, dict(hyps._steps_by_rule))
    assert hyps.one_sided_outcome is None and kept[2]
    laws, scan = [], contraction._scan

    def recorded(T, w, plan, scan_laws, *args):
        laws.append([law for law, _ in scan_laws])
        return scan(T, w, plan, scan_laws, *args)

    monkeypatch.setattr(contraction, "_scan", recorded)
    assert check_hypotheses(T, HALF, one_sided=True) is hyps
    assert hyps.one_sided_report == is_weak_contraction(T, HALF)
    assert laws[0] == ["weak"]
    assert (hyps.global_outcome, hyps.witness_outcome, hyps._steps_by_rule) == kept
    check_hypotheses(T, HALF, one_sided=True)
    check_hypotheses(T, HALF)
    assert len(laws) == 2  # the one-sided scan, then is_weak_contraction above
    assert iterate_endpoint(T, HALF, cfg) == walk


@pytest.mark.parametrize("fault", ["metric", "image"])
def test_a_held_error_is_held_for_each_pair_law(rstruct, fault):
    # the metric raises at one pair while the table fills, inside the pair
    # stream, so every law holds that error; an image outside the space is
    # read in each image law's first call, so each of the two holds its own,
    # and the witness laws, which read no image, decide their report
    pts = (Fraction(0), Fraction(1), Fraction(3))

    def metric(x, y):
        if fault == "metric" and (x, y) == (Fraction(1), Fraction(3)):
            raise ValueError("metric undefined at (1, 3)")
        return abs(x - y)

    space = ConeMetricSpace("flaky", rstruct, metric, points=pts)
    image = {Fraction(0): (Fraction(0),), Fraction(1): (Fraction(1, 2),),
             Fraction(3): (Fraction(0),)}
    T = (SetValuedMap.from_table(space, {p: (Fraction(0),) for p in pts}) if fault == "metric"
         else SetValuedMap.from_rule(space, image.__getitem__))
    hyps = check_hypotheses(T, HALF, one_sided=True)
    got = [_outcome(lambda: hyps.global_report), _outcome(lambda: hyps.one_sided_report),
           _outcome(lambda: hyps.witness_report)]
    fresh = dataclasses.replace(T)
    alone = [_outcome(lambda: is_global_weak_contraction(fresh, HALF)),
             _outcome(lambda: is_weak_contraction(fresh, HALF)),
             _outcome(lambda: validate_witness(fresh, HALF))]
    assert got == alone
    if fault == "metric":
        assert got == [(ValueError, "metric undefined at (1, 3)")] * 3
        assert hyps.global_outcome is hyps.one_sided_outcome is hyps.witness_outcome
    else:
        assert got[0] == got[1] == (DomainError, "map 'T' sends 1 to 1/2, which is not in "
                                                  "space 'flaky'")
        assert hyps.global_outcome is not hyps.one_sided_outcome
        assert hyps.witness_report.passed


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
        phi_table=bound_table(space, {(x, y): space.distance(x, y) / 2
                                      for x in space.points for y in space.points if x != y}))


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
            shared = iterate_endpoint(T, w, cfg)
            fresh = iterate_endpoint(dataclasses.replace(T), w, cfg)
            assert shared == fresh
            assert fresh.notes == hyps.notes
            assert fresh.best_effort is not hyps.verified


@pytest.fixture
def pair_lists(monkeypatch):
    """Count the pair lists the contraction scans build, at their binding."""
    listed = [0]
    original = contraction._distinct_pairs

    def counted(*args):
        listed[0] += 1
        return original(*args)

    monkeypatch.setattr(contraction, "_distinct_pairs", counted)
    return listed


def test_walks_of_one_map_scan_its_pairs_once(pair_lists):
    # the first generated instance with a ratio witness and a multi-valued image
    inst = next(i for i in weak_contraction_corpus(0, 60)
                if i.alpha_witness is not None and i.name.startswith("random/")
                and any(len(i.map_.images(x)) > 1 for x in i.space.points))
    T, w, pts = inst.map_, inst.alpha_witness, inst.space.points
    table = {x: T.images(x) for x in pts}
    eps = min(abs(x - y) for x in pts for y in pts if x != y) / 2
    walks = []
    for rule in SelectionRule:
        for seed in pts:
            cfg = SolverConfig(eps=eps, seed_point=seed, max_iter=500, selection_rule=rule)
            walks.append((cfg, iterate_endpoint(T, w, cfg)))
            assert pair_lists[0] == 1
    for cfg, rep in walks:
        fresh = SetValuedMap.from_table(inst.space, table, name=T.name)
        assert rep == iterate_endpoint(fresh, w, cfg)
        assert rep.endpoint is not None and not rep.best_effort
    assert pair_lists[0] == 1 + len(walks)


def test_a_new_witness_plan_or_map_copy_scans_again(dilation, real_line_space, pair_lists):
    _, T = dilation
    check_hypotheses(T, HALF)
    check_hypotheses(T, HALF, SamplePlan())  # None stands for SamplePlan()
    assert pair_lists[0] == 1
    twin = ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=Fraction(1, 2))
    check_hypotheses(T, twin)
    assert pair_lists[0] == 2
    # a finite space's pair list ignores the plan, and so does its verdict
    assert check_hypotheses(T, twin, SamplePlan(seed=1, count=5)) is check_hypotheses(T, twin)
    assert pair_lists[0] == 2
    copy = dataclasses.replace(T)
    check_hypotheses(copy, twin, SamplePlan(seed=1))
    assert pair_lists[0] == 3
    assert check_hypotheses(copy, twin, SamplePlan(seed=1)) \
        == check_hypotheses(T, twin, SamplePlan(seed=1))
    assert pair_lists[0] == 3
    # a sampled space draws its pairs from the plan: one verdict per plan
    S = SetValuedMap.from_rule(real_line_space, lambda x: (x / 2,))
    check_hypotheses(S, HALF, SamplePlan(seed=1, count=20))
    check_hypotheses(S, HALF, SamplePlan(seed=1, count=20))
    assert pair_lists[0] == 4
    check_hypotheses(S, HALF, SamplePlan(seed=2, count=20))
    assert pair_lists[0] == 5


@pytest.mark.parametrize("witness_kind", ["alpha-const", "phi-table"])
def test_walks_of_one_map_build_one_verdict(dilation, monkeypatch, witness_kind):
    space, T = dilation
    w = HALF if witness_kind == "alpha-const" else _phi_table(space)
    built = {"c_condition_status": 0, "Hypotheses": 0}
    for name in built:
        original = getattr(contraction, name)

        def counted(*args, _name=name, _fn=original):
            built[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(contraction, name, counted)
    cfg = SolverConfig(eps=Fraction(1, 16), seed_point=Fraction(1), max_iter=50)
    reports = []
    for walk in range(10):
        reports.append(iterate_endpoint(T, w, cfg))
        assert built == {"c_condition_status": 1, "Hypotheses": 1}, walk
    assert all(r.notes is check_hypotheses(T, w).notes for r in reports)
    fresh = iterate_endpoint(dataclasses.replace(T), w, cfg)
    assert built == {"c_condition_status": 2, "Hypotheses": 2}
    assert all(r == fresh for r in reports)
    # the phi table's C-status stays unknown, so its walks carry a note
    assert bool(fresh.notes) is (witness_kind == "phi-table")


def test_a_kept_error_keeps_its_traceback_across_raises(dilation):
    space, _ = dilation
    # 1/4 goes to 1/2, which is not a point of the space: the images are read
    # in the global law's first call, so the error is held for that law
    outside = {Fraction(0): [Fraction(0)], Fraction(1, 4): [Fraction(1, 2)],
               Fraction(1): [Fraction(0)]}
    T = SetValuedMap.from_rule(space, outside.__getitem__)
    cfg = SolverConfig(eps=Fraction(1, 16), seed_point=Fraction(1))
    seen, depths = [], set()
    for _ in range(50):
        with pytest.raises(DomainError, match="not in space") as info:
            iterate_endpoint(T, HALF, cfg)
        seen.append(info.value)
        frames = traceback.extract_tb(info.value.__traceback__)
        depths.add(len(frames))
        assert frames[-1].name == "_image_positions"
        assert frames[-1].line.startswith("raise DomainError(")
    assert all(err is seen[0] for err in seen)
    assert len(depths) == 1


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
