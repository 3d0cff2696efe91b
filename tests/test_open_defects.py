"""Open defects, each pinned as a strict expected failure.

Every test here asserts what the package should do and fails today for
the stated reason, on the stated exception. A change that mends a defect
makes its test pass, which fails the run until the marker goes, so the
fix lands with its proof; a change that moves a probe's premise is seen
the same way.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from ordermetric import (
    ALL_CHECKS,
    Budgets,
    PositiveSequence,
    SuiteSpec,
    build_bundle,
    builtin_bundles,
    coord_cone_module,
    endpoint_iff_report,
    fault_inject,
    geometric,
    harmonic,
    load_instance,
    run_suite,
    strict_order_structure,
    verify_convergence,
    weak_contraction_corpus,
)
from ordermetric.harness import FAULT_TARGETS

DATA = Path(__file__).parent / "data"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: a bare bound table never certifies the "
                          "convergence condition, so every gated theorem check skips")
def test_the_endpoint_theorem_runs_with_the_corpus_bound_table():
    reports = [endpoint_iff_report(inst.map_, inst.phi_witness)
               for inst in weak_contraction_corpus(0, 200)]
    assert any(r.status == "checked" for r in reports)


class _ProbedPastTheCap(Exception):
    """A sequence term was asked for past index 2^20."""


@pytest.mark.xfail(strict=True, raises=_ProbedPastTheCap,
                   reason="ROADMAP item 2: exact_threshold treats a sandwich that never "
                          "holds as one that holds past 2^40 and probes toward it")
def test_a_geometric_sandwich_that_never_holds_ends_like_the_harmonic_one(monkeypatch):
    # on the strict-order 2-cone, (1/2, 0) is a positive tolerance that no
    # term of c * r_n with both coordinates positive sits strictly below; the
    # geometric probe builds (1/2)^n exactly, so the unbounded call doubles
    # its time and memory with every probe: past 2^20 the term raises instead
    mod = coord_cone_module(2)
    t = strict_order_structure(mod)
    zero, eps = (Fraction(0), Fraction(0)), [(Fraction(1, 2), Fraction(0))]
    expected = verify_convergence(t, harmonic(mod, (1, 1)), zero, eps, 200)[0]
    assert expected.reason == "sandwich still failing at the end of the window"
    term = PositiveSequence.term

    def capped(self, n):
        if n > 1 << 20:
            raise _ProbedPastTheCap(n)
        return term(self, n)

    monkeypatch.setattr(PositiveSequence, "term", capped)
    probe = verify_convergence(t, geometric(mod, (1, 1), Fraction(1, 2)), zero, eps, 200)[0]
    assert probe.reason == expected.reason


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: a cone under the strict order gets the diagonal "
                          "tolerance family, which misses the tolerance (1, 0) at which "
                          "(1/n, 1/n) does not converge, so its convergence rows pass")
def test_no_convergence_row_passes_on_the_strict_order_cone():
    bundle = build_bundle(load_instance(str(DATA / "strict-cone2-probe.ini")))
    checks = tuple(c for c in ALL_CHECKS if c.startswith("seq/")) + (
        "metric/point-convergence", "metric/cauchy")
    report = run_suite(SuiteSpec((bundle.name,), checks), {bundle.name: bundle})
    assert len(report.rows) == 9
    passed = [r.check for r in report.rows if r.outcome == "pass"]
    assert not passed, passed


# checks that no registered fault can flip because they follow from other
# rows, each with its written argument; none is decided yet
THEOREM_ROWS: tuple = ()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: most checks have no registered fault that "
                          "flips them from pass to fail on any built-in")
def test_every_check_flips_under_some_registered_fault():
    budgets = Budgets(samples=300, n_max=100)
    bundles = builtin_bundles()
    spec = SuiteSpec(tuple(bundles), ALL_CHECKS, budgets=budgets)
    before = {(r.check, r.instance): r.outcome for r in run_suite(spec, bundles).rows}
    flipped = set()
    for fault in ("identity", *FAULT_TARGETS):
        for name, bundle in bundles.items():
            try:
                mutated = fault_inject(bundle, fault)
            except ValueError:  # the fault does not apply to this bundle
                continue
            one = SuiteSpec((name,), ALL_CHECKS, budgets=budgets)
            flipped.update(r.check for r in run_suite(one, {name: mutated}).rows
                           if before[r.check, name] == "pass" and r.outcome == "fail")
    never = [c for c in ALL_CHECKS if c not in flipped and c not in THEOREM_ROWS]
    assert not never, never
