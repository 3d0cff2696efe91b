"""The finite corpus: ``build_instance`` against the Fraction definitions of
the one-sided and all-pairs bounds, the generated corpora pinned to their
last attempt, global count and a full digest, malformed tables, the draws
against ``random.Random``'s own, maps built from positions against
``SetValuedMap.from_table``, and the survey script."""

import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordermetric import (
    ConeMetricSpace,
    DomainError,
    SetValuedMap,
    WitnessClass,
    bound_table,
    build_instance,
    is_weak_contraction,
    real_module,
    strict_order_structure,
    weak_contraction_corpus,
)
from ordermetric import corpus

ROOT = Path(__file__).resolve().parent.parent
STRUCTURE = strict_order_structure(real_module())


def _reference(points, table):
    """(phi table, worst ratio) by the Fraction definitions read through
    ``space.distance``, or None where some pair admits no bound."""
    space = ConeMetricSpace("ref", STRUCTURE, lambda x, y: abs(x - y),
                            points=tuple(sorted(points)))
    phi, ratios = {}, []
    for x in space.points:
        for y in space.points:
            if x == y:
                continue
            d = space.distance(x, y)
            need = max(min(space.distance(xp, yp) for yp in table[y]) for xp in table[x])
            if need >= d:
                return None
            phi[(x, y)] = need
            ratios.append(max(space.distance(xp, yp)
                              for xp in table[x] for yp in table[y]) / d)
    return phi, max(ratios, default=Fraction(0))


@st.composite
def _instances(draw):
    points = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                           min_size=1, max_size=5, unique=True))
    # images drawn from one or two hub points are often admissible, from all
    # points seldom; both kinds are drawn
    pool = draw(st.one_of(st.just(points),
                          st.lists(st.sampled_from(points), min_size=1, max_size=2)))
    table = {p: draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
             for p in points}
    return points, table


@settings(max_examples=400, deadline=None)
@given(_instances())
def test_build_instance_matches_the_fraction_definitions(case):
    points, table = case
    inst = build_instance(STRUCTURE, points, table, "case")
    expected = _reference(points, table)
    assert (inst is None) == (expected is None)
    if inst is None:
        return
    phi, worst = expected
    assert inst.space.points == tuple(sorted(points))
    assert inst.phi_witness.phi_table == bound_table(inst.space, phi)
    assert all(inst.map_.images_fn(p) == tuple(dict.fromkeys(table[p])) for p in points)
    if worst < 1:
        assert inst.worst_ratio == worst
        assert inst.alpha_witness.klass is WitnessClass.ALPHA_CONSTANT
        assert (inst.alpha_witness.alpha_const, inst.alpha_witness.label) == \
            (worst, f"worst ratio {worst} for case")
    else:
        assert inst.worst_ratio is None and inst.alpha_witness is None


def test_build_instance_rejects_a_table_missing_a_point():
    with pytest.raises(DomainError, match="map table misses point 1"):
        build_instance(STRUCTURE, [0, 1], {0: [0]}, "x")


def test_build_instance_rejects_an_image_outside_the_points():
    with pytest.raises(DomainError, match="point 2 is not in space 'x'"):
        build_instance(STRUCTURE, [0, 1], {0: [0], 1: [2]}, "x")


# ---------------------------------------------------------------------------
# draws and maps by position


def _stdlib_attempt(rng, seen):
    """One attempt drawn through ``random.Random``'s own ``randint``,
    ``sample`` and ``choice``; each row's (branch, size, count) goes to
    ``seen``."""
    size = rng.randint(2, 5)
    nums = sorted(rng.sample(range(17), size))
    at = range(len(nums))
    branch, pool = "random", at
    if rng.random() < 0.5:
        hub = nums[rng.choice(at)]
        branch, pool = "hub", sorted(at, key=lambda k: (abs(nums[k] - hub), k))[:2]
    rows = []
    for _ in at:
        k = rng.randint(1, min(3, len(pool)))
        seen.add((branch, size, k))
        rows.append(tuple(sorted(rng.sample(pool, k))))
    return nums, rows


def test_attempts_draw_what_the_stdlib_calls_draw():
    seen = set()
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert corpus._random_attempt(ours) == _stdlib_attempt(theirs, seen)
            assert ours.getstate() == theirs.getstate()
    # both branches, every size and every image count
    assert seen == {("hub", n, k) for n in range(2, 6) for k in (1, 2)} | \
        {("random", n, k) for n in range(2, 6) for k in range(1, min(3, n) + 1)}


@pytest.mark.parametrize("n", range(1, 22))
def test_sample_draws_what_random_sample_draws(n):
    for seed in range(40):
        for k in range(n + 1):
            ours, theirs = random.Random(seed), random.Random(seed)
            population = range(100, 100 + n)
            assert corpus._sample(ours.getrandbits, population, k) == \
                sorted(theirs.sample(population, k))
            assert ours.getstate() == theirs.getstate()


def _assert_same_map(T, space, table):
    ref = SetValuedMap.from_table(space, table)
    assert all(T.images_fn(x) == ref.images_fn(x) for x in space.points)
    assert T._image_positions == ref._image_positions


def test_generated_maps_equal_their_table_builds():
    rng, kept = random.Random(2027), 0
    while kept < 200:
        nums, images = corpus._random_attempt(rng)
        inst = corpus._admit(STRUCTURE, corpus._POOL, nums, images, "x")
        if inst is not None:
            kept += 1
            q = [Fraction(k, 4) for k in nums]
            _assert_same_map(inst.map_, inst.space,
                             {q[i]: [q[k] for k in img] for i, img in enumerate(images)})
    with pytest.raises(DomainError, match="^no image recorded for 7$"):
        inst.map_.images_fn(Fraction(7))


@settings(max_examples=200, deadline=None)
@given(_instances())
@example(([1, 0, 1], {1: [1, 0, 1], 0: [0, 1]}))  # a point listed twice
def test_built_maps_equal_their_table_builds(case):
    points, table = case
    inst = build_instance(STRUCTURE, points, table, "case")
    if inst is not None:
        _assert_same_map(inst.map_, inst.space, table)


def test_a_point_listed_twice_maps_to_its_first_position():
    inst = build_instance(STRUCTURE, [1, 0, 1], {1: [1, 0, 1], 0: [0, 1]}, "twice")
    assert inst.map_._image_positions == [(0, 1), (1, 0), (1, 0)]


def test_every_position_of_a_point_listed_twice_reads_its_bound():
    inst = build_instance(STRUCTURE, [3, 0, 1, 3], {0: [0], 1: [0], 3: [1]}, "twice")
    w, space = inst.phi_witness, inst.space
    assert w.phi_table == [None, 0, 1, 1,
                           0, None, 1, 1,
                           1, 1, None, None,
                           1, 1, None, None]
    assert w.phi(space, Fraction(0), Fraction(3), Fraction(3)) == 1
    assert w.phi(space, Fraction(1), Fraction(0), Fraction(1)) == 0
    # both positions of 3 against 0 and 1, both ways, and 0 against 1
    assert is_weak_contraction(inst.map_, w).checked == 10


# ---------------------------------------------------------------------------
# generated corpora


def _digest(insts, table=lambda space, table: tuple(table)) -> str:
    """Every instance's names, points, images, witnesses and worst ratio;
    ``table(space, phi_table)`` is what a bound table contributes."""
    h = hashlib.sha256()
    for inst in insts:
        T, phi, alpha = inst.map_, inst.phi_witness, inst.alpha_witness
        row = (inst.name, inst.space.name, inst.space.points, T.name,
               tuple((x, T.images_fn(x)) for x in inst.space.points),
               phi.klass.value, table(inst.space, phi.phi_table), phi.label,
               inst.worst_ratio,
               None if alpha is None else (alpha.klass.value, alpha.alpha_const, alpha.label))
        h.update(repr(row).encode())
    return h.hexdigest()


def _point_pair_items(space, table) -> tuple:
    """A bound table as the items of the point-keyed dict that held it
    before tables were laid out by position: ``((x, y), bound)`` for the
    pairs of distinct points, row by row."""
    pts, n = space.points, len(space.points)
    assert len(set(pts)) == n  # a generated instance lists each point once
    assert all((table[i * n + j] is None) == (i == j) for i in range(n) for j in range(n))
    return tuple(((x, y), table[i * n + j]) for i, x in enumerate(pts)
                 for j, y in enumerate(pts) if i != j)


@pytest.fixture(scope="module")
def corpus_0_3000():
    return weak_contraction_corpus(0, 3000)


@pytest.mark.parametrize("seed, count, last, n_global", [
    (20260809, 120, "random/590", 43),
    (0, 3000, "random/16079", 898),
    (1, 3000, "random/16107", 854),
])
def test_corpus_pins(seed, count, last, n_global, corpus_0_3000):
    insts = corpus_0_3000 if (seed, count) == (0, 3000) else weak_contraction_corpus(seed, count)
    assert len(insts) == count
    assert insts[-1].name == last
    assert sum(i.global_contraction for i in insts) == n_global


def test_corpus_tables_hold_the_point_keyed_bounds(corpus_0_3000):
    # the digest pinned while the tables were keyed by point pairs
    assert _digest(corpus_0_3000, _point_pair_items) == \
        "2c3cc4fabf0b5ad4cb6f964a23d5206bf911bbb2ec5151c6be7dc4c5fd1b8473"


def test_corpus_digest(corpus_0_3000):
    assert _digest(corpus_0_3000) == \
        "7118f4166ab3568263eea326816f3d21d842e5c9f55674a5c2773bc5d39478df"


# ---------------------------------------------------------------------------
# the survey script


def _survey(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "corpus_survey.py"), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_corpus_survey_script_runs_clean():
    proc = _survey("--count", "200")
    assert proc.returncode == 0, proc.stderr
    assert "instances: 200" in proc.stdout
    # the generator keeps a map it drew before as a new instance
    assert "\ndistinct random instances: 184 of 196\n" in proc.stdout
    assert "pass one-sided check with the bound table: 200" in proc.stdout
    verified, built = map(int, re.search(
        r"pass all-pairs check with a constant ratio: (\d+)  \(built with one: (\d+)\)",
        proc.stdout).groups())
    assert verified == built > 0
    # the gated theorem check: a bare bound table never certifies the
    # convergence condition, a constant ratio always does
    assert ("endpoint theorem checked with the bound table: 0 of 200  "
            "(skipped, convergence condition not certified: 200)\n") in proc.stdout
    assert "endpoint theorem checked with a constant ratio: 69 of 69\n" in proc.stdout
    assert "instances contradicting their construction: 0" in proc.stdout
    assert "endpoint <-> zero inf-sup mismatches: 0" in proc.stdout


@pytest.mark.parametrize("count", ["0", "-5"])
def test_corpus_survey_script_rejects_a_nonpositive_count(count):
    proc = _survey("--count", count)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage:") and "--count" in proc.stderr
