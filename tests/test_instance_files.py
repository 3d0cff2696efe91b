import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ordermetric import (
    BUILTIN_INSTANCE_TEXTS,
    CConditionStatus,
    CStatus,
    InstanceDescription,
    InstanceFileError,
    SuiteSpec,
    build_bundle,
    export_instance_text,
    harness,
    load_instance,
    parse_instance_text,
    run_suite,
)
from ordermetric.cli import main

TABLE_FILE = """\
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

PHI_FILE = """\
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
phi 0 | 1 = 1/4
phi 1 | 0 = 1/4
"""


@pytest.mark.parametrize("name", sorted(BUILTIN_INSTANCE_TEXTS))
def test_builtin_round_trip(name):
    desc = load_instance(name)
    again = parse_instance_text(export_instance_text(desc), name=name)
    assert desc == again
    assert build_bundle(desc) is not None


def test_round_trip_table_and_phi():
    for text in (TABLE_FILE, PHI_FILE):
        desc = parse_instance_text(text)
        assert parse_instance_text(export_instance_text(desc)) == desc


# random valid descriptions: small exact rationals, every carrier, both map
# kinds, every witness class and [sequences]
_Q = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_UNIT = st.builds(lambda n, d: Fraction(n, d + n), st.integers(0, 5), st.integers(1, 4))
_NONNEG_Q = st.builds(Fraction, st.integers(0, 6), st.integers(1, 4))


@st.composite
def _descriptions(draw, carrier):
    dim = draw(st.sampled_from((1, 2, 3)))
    element = _Q if dim == 1 else st.tuples(*[_Q] * dim)
    fields = {"family": "real" if dim == 1 else "coord-cone", "dimension": dim,
              "structure": draw(st.sampled_from(("strict-order", "interior-cone"))),
              "space_kind": "points" if carrier == "table" else carrier,
              "metric": "abs" if dim == 1 else "coordinatewise"}
    points = None
    if carrier in ("points", "table"):
        points = tuple(draw(st.lists(element, min_size=1, max_size=4, unique=True)))
    elif carrier == "grid":
        lo, step = draw(element), Fraction(1, draw(st.integers(1, 4)))
        counts = [draw(st.integers(0, 2)) for _ in range(dim)]
        axes = [[a + k * step for k in range(n + 1)]
                for a, n in zip(lo if dim > 1 else (lo,), counts)]
        hi, points = tuple(axis[-1] for axis in axes), tuple(itertools.product(*axes))
        if dim == 1:
            hi, points = hi[0], tuple(axes[0])
        fields["grid"] = (lo, hi, step)
    else:
        lo = draw(element)
        width = [draw(st.integers(0, 3)) for _ in range(dim)]
        hi = lo + width[0] if dim == 1 else tuple(a + w for a, w in zip(lo, width))
        fields["interval"] = (lo, hi)
    fields["points"] = points
    if carrier == "table":
        fields["metric"] = "table"
        n = len(points)
        # distinct points sit at a distance above zero: a scalar above 0, a
        # vector with no negative coordinate and not every coordinate 0
        distance = _NONNEG_Q.filter(bool) if dim == 1 else st.tuples(*[_NONNEG_Q] * dim).filter(any)
        cells = {(i, j): draw(distance) for i in range(n) for j in range(i + 1, n)}
        zero = Fraction(0) if dim == 1 else (Fraction(0),) * dim
        fields["metric_rows"] = tuple(
            tuple(zero if i == j else cells[min(i, j), max(i, j)] for j in range(n))
            for i in range(n))
    map_kinds = ["none", "rule"] + (["table"] if points else [])
    map_kind = draw(st.sampled_from(map_kinds))
    if map_kind == "table":
        fields["map_kind"] = "table"
        fields["map_table"] = tuple(
            (p, tuple(draw(st.lists(st.sampled_from(points), min_size=1, max_size=3))))
            for p in points)
    elif map_kind == "rule":
        fields["map_kind"] = "rule"
        factor = st.one_of(_Q, element) if dim > 1 else _Q
        fields["map_factors"] = tuple(draw(st.lists(factor, min_size=1, max_size=3)))
    classes = ["none", "alpha-const", "alpha-fn"] + (["phi-table"] if points else [])
    classes += ["psi"] if dim == 1 else []
    klass = draw(st.sampled_from(classes))
    if klass != "none":
        fields["witness_class"] = klass
    if klass == "alpha-const":
        fields["alpha"] = draw(_UNIT)
    elif klass == "alpha-fn":
        fields["alpha_bound"] = draw(_UNIT.filter(lambda b: b > 0))
    elif klass == "phi-table":
        fields["phi_entries"] = tuple(((x, y), draw(element))
                                      for x in points for y in points if x != y)
    elif klass == "psi":
        fields["psi_name"] = draw(st.sampled_from(("half", "damped")))
    atom = st.sampled_from(("constant", "harmonic", "inverse-square", "geometric")).flatmap(
        lambda kind: st.tuples(st.just(kind), element,
                               _UNIT if kind == "geometric" else st.none()))
    if draw(st.booleans()):
        fields["sequences"] = tuple(tuple(atoms) for atoms in draw(st.lists(
            st.lists(atom, min_size=1, max_size=3), min_size=1, max_size=3)))
    return InstanceDescription(**fields)


@pytest.mark.parametrize("carrier", ["points", "grid", "interval", "table"])
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_export_round_trips_any_valid_description(carrier, data):
    """Parsing the canonical export gives the description back, and
    exporting again gives the same text."""
    desc = data.draw(_descriptions(carrier))
    text = export_instance_text(desc)
    again = parse_instance_text(text)
    assert again == desc
    assert export_instance_text(again) == text


def test_grid_expansion():
    text = """\
[group]
family = real

[structure]
kind = strict-order

[space]
grid = 0 .. 1 step 1/4
metric = abs
"""
    desc = parse_instance_text(text)
    assert desc.points == tuple(Fraction(k, 4) for k in range(5))


def test_vector_grid_expansion():
    text = """\
[group]
family = coord-cone
dimension = 2

[structure]
kind = interior-cone

[space]
grid = (0, 0) .. (1, 1) step 1/2
metric = coordinatewise
"""
    desc = parse_instance_text(text)
    assert len(desc.points) == 9


def test_degenerate_interval_accepted():
    text = BUILTIN_INSTANCE_TEXTS["r1-banach"].replace("interval = 0 .. 1",
                                                       "interval = 1/2 .. 1/2")
    assert parse_instance_text(text).interval == (Fraction(1, 2), Fraction(1, 2))


def test_undeclared_image_point_rejected():
    bad = BUILTIN_INSTANCE_TEXTS["three-point"].replace("image 1 = 0; 1/4",
                                                        "image 1 = 0; 7/8")
    with pytest.raises(InstanceFileError) as exc:
        parse_instance_text(bad)
    assert "7/8" in str(exc.value)


def test_map_table_must_cover_every_point():
    bad = BUILTIN_INSTANCE_TEXTS["three-point"].replace("image 1/4 = 0\n", "")
    with pytest.raises(InstanceFileError) as exc:
        parse_instance_text(bad)
    assert "misses point" in str(exc.value)


def test_load_missing_path_lists_builtins():
    with pytest.raises(InstanceFileError) as exc:
        load_instance("/no/such/file.ini")
    assert "r1-banach" in str(exc.value)


def test_bundle_from_phi_file_has_table_witness():
    desc = parse_instance_text(PHI_FILE)
    bundle = build_bundle(desc)
    assert bundle.witness is not None
    d = bundle.space.distance(Fraction(0), Fraction(1))
    assert bundle.witness.phi(bundle.space, Fraction(0), Fraction(1), d) == Fraction(1, 4)


def _c_status_row(bundle):
    spec = SuiteSpec(instances=(bundle.name,), checks=("map/c-status",))
    (row,) = run_suite(spec, {bundle.name: bundle}).rows
    return row.outcome, row.witness


def test_c_status_row_skips_an_undecided_table_witness(monkeypatch):
    """No class-level criterion decides a phi table, so its row skips; a
    ratio class holds by theorem, and fails if it ever did not."""
    phi = build_bundle(parse_instance_text(PHI_FILE, name="phi"))
    assert _c_status_row(phi) == (
        "skip", "unknown: no registered criterion applies to this witness class")
    three = build_bundle(load_instance("three-point"))
    outcome, text = _c_status_row(three)
    assert (outcome, text.split(":")[0]) == ("pass", "holds-by-theorem")
    monkeypatch.setattr(harness, "c_condition_status",
                        lambda w: CConditionStatus(CStatus.UNKNOWN, "undecided"))
    assert _c_status_row(three) == ("fail", "unexpected verdict unknown")


def test_bundle_interval_sampler_stays_inside(rstruct):
    import random

    desc = load_instance("r1-banach")
    bundle = build_bundle(desc)
    rng = random.Random(3)
    for _ in range(50):
        p = bundle.space.sampler(rng)
        assert bundle.space.member(p)


def test_psi_witness_file():
    for name, psi in [("half", lambda d: d / 2), ("damped", lambda d: d / (1 + d))]:
        text = PHI_FILE.replace(
            "class = phi-table\nphi 0 | 1 = 1/4\nphi 1 | 0 = 1/4",
            f"class = psi\npsi = {name}")
        bundle = build_bundle(parse_instance_text(text))
        d = bundle.space.distance(Fraction(0), Fraction(1))
        assert bundle.witness.phi(bundle.space, Fraction(0), Fraction(1), d) == psi(d)


def test_alpha_fn_witness_file():
    text = PHI_FILE.replace(
        "class = phi-table\nphi 0 | 1 = 1/4\nphi 1 | 0 = 1/4",
        "class = alpha-fn\nname = capped-ratio\nbound = 9/10")
    desc = parse_instance_text(text)
    bundle = build_bundle(desc)
    a = bundle.witness.alpha(Fraction(0), Fraction(1))
    assert 0 <= a < Fraction(9, 10)


# a description built in code, not parsed, can name what no file can
@pytest.mark.parametrize("changes, message", [
    ({"witness_class": "alpha-table"}, "unknown witness class 'alpha-table'"),
], ids=["witness-class"])
def test_built_description_with_an_unknown_witness_is_rejected(changes, message):
    desc = dataclasses.replace(parse_instance_text(PHI_FILE), **changes)
    with pytest.raises(InstanceFileError) as exc:
        build_bundle(desc)
    assert str(exc.value) == message


SEQ_SECTION = """
[sequences]
seq = harmonic 1
seq = geometric 2 ratio 2/3
seq = harmonic 1 + inverse-square 1
seq = constant 1/2 + harmonic 1
"""


def test_sequences_section_round_trip_and_build():
    text = PHI_FILE + SEQ_SECTION
    desc = parse_instance_text(text)
    assert len(desc.sequences) == 4
    again = parse_instance_text(export_instance_text(desc))
    assert desc == again
    bundle = build_bundle(desc)
    assert len(bundle.sequences) == 4
    assert bundle.sequences[0].term(4) == Fraction(1, 4)
    assert bundle.sequences[1].term(2) == Fraction(8, 9)
    assert bundle.sequences[3].declared_limit == Fraction(1, 2)


def test_rule_map_escaping_a_finite_grid_rejected():
    text = """\
[group]
family = real

[structure]
kind = strict-order

[space]
grid = 0 .. 1 step 1/4
metric = abs

[map]
rule = scale
factors = 1/2
"""
    with pytest.raises(InstanceFileError) as exc:
        build_bundle(parse_instance_text(text))
    assert "not a declared point" in str(exc.value)


@pytest.mark.parametrize("builtin,factors,message", [
    ("r1-banach", "2; 1/2", "rule image 2 of point 1 is not inside the interval"),
    ("r1-banach", "-1/2", "rule image -1/2 of point 1 is not inside the interval"),
    ("cone2-shrink", "(1/2, 3/2)",
     "rule image (1/2, 3/2) of point (1, 1) is not inside the interval"),
], ids=["two-factors", "negative", "cone-2"])
def test_rule_map_escaping_an_interval_rejected(builtin, factors, message):
    text = BUILTIN_INSTANCE_TEXTS[builtin]
    start = text.index("factors = ")
    text = text[:start] + f"factors = {factors}" + text[text.index("\n", start):]
    with pytest.raises(InstanceFileError) as exc:
        build_bundle(parse_instance_text(text))
    assert str(exc.value) == message


@pytest.mark.parametrize("builtin", ["r1-banach", "cone2-shrink"])
def test_interval_builtins_keep_their_rule_images_inside(builtin):
    bundle = build_bundle(load_instance(builtin))
    assert bundle.space.member(bundle.solver_seed)
    for corner in load_instance(builtin).interval:
        assert all(bundle.space.member(q) for q in bundle.map_.images(corner))


def test_negative_sequence_coefficient_parses_and_fails_at_build():
    """The parser takes any coefficient of the right dimension; one below
    the identity is refused only when the bundle builds the sequence."""
    desc = parse_instance_text(PHI_FILE + "\n[sequences]\nseq = harmonic -1\n")
    assert desc.sequences == ((("harmonic", Fraction(-1), None),),)
    with pytest.raises(InstanceFileError) as exc:
        build_bundle(desc)
    assert str(exc.value) == ("sequence 'harmonic -1': atom coefficients must sit "
                              "above the identity")


_REAL = "family = real", "abs"
_CONE2 = "family = coord-cone\ndimension = 2", "coordinatewise"


@pytest.mark.parametrize("group, grid, size", [
    (_REAL, "0 .. 9999 step 1", 10000),
    (_REAL, "0 .. 10000 step 1", None),
    (_CONE2, "(0, 0) .. (99, 99) step 1", 10000),
    (_CONE2, "(0, 0) .. (99, 100) step 1", None),
], ids=["1-d-at-limit", "1-d-over", "2-d-at-limit", "2-d-over"])
def test_grid_size_limit(group, grid, size):
    family, metric = group
    text = (f"[group]\n{family}\n\n[structure]\nkind = strict-order\n\n"
            f"[space]\ngrid = {grid}\nmetric = {metric}\n")
    if size is None:
        with pytest.raises(InstanceFileError, match=r"grid too large \(over 10000 points\)"):
            parse_instance_text(text)
    else:
        assert len(parse_instance_text(text).points) == size


# ---------------------------------------------------------------------------
# bad instance files: one row per error the parser or the bundle builder
# raises, each a minimal file and its exact message, the same under verify
# and solve

_REAL = "[group]\nfamily = real\n\n[structure]\nkind = strict-order\n\n[space]\n"
_CONE = ("[group]\nfamily = coord-cone\ndimension = 2\n\n[structure]\nkind = interior-cone\n\n"
         "[space]\n")
_POINTS = _REAL + "points = 0; 1/4; 1\nmetric = abs\n"
_MAP = _POINTS + "\n[map]\n"
_WITNESS = _POINTS + "\n[witness]\n"
_SEQS = _POINTS + "\n[sequences]\n"

BAD_FILES = [
    # element syntax
    ("decimal", _REAL + "points = 0; 0.25\nmetric = abs\n",
     "line 8: rationals are written p/q, got '0.25'"),
    ("not-rational", _REAL + "points = 0; x\nmetric = abs\n",
     "line 8: not an exact rational: 'x'"),
    ("unbalanced-tuple", _CONE + "points = (0, 0); (1, 1\nmetric = coordinatewise\n",
     "line 9: unbalanced tuple: '(1, 1'"),
    ("empty-list", _REAL + "points = ;\nmetric = abs\n", "line 8: empty element list"),
    # sections and keys
    ("unknown-section", "[bogus]\nx = 1\n", "line 1: unknown section [bogus]"),
    ("before-header", "family = real\n", "line 1: content before any section header"),
    ("no-equals", "[group]\nfamily\n", "line 2: expected key = value, got 'family'"),
    ("missing-section", "[group]\nfamily = real\n", "missing required section [structure]"),
    ("duplicate-key", _POINTS.replace("family = real", "family = real\nfamily = real"),
     "line 3: duplicate key 'family' in [group]"),
    ("missing-key", _POINTS.replace("kind = strict-order", "style = strict"),
     "line 5: missing key 'kind' in [structure]"),
    # group, structure, metric
    ("unknown-family", _POINTS.replace("real", "complex"),
     "line 2: unknown group family 'complex'"),
    ("dimension-text", _POINTS.replace("family = real", "family = real\ndimension = one"),
     "line 3: dimension must be an integer, got 'one'"),
    ("real-dimension", _POINTS.replace("family = real", "family = real\ndimension = 2"),
     "line 3: the real family is one-dimensional"),
    ("cone-dimension", _CONE.replace("dimension = 2", "dimension = 1")
     + "points = 0\nmetric = abs\n", "line 3: coord-cone needs dimension at least 2"),
    ("unknown-structure", _POINTS.replace("strict-order", "lattice"),
     "line 5: unknown structure kind 'lattice'"),
    ("unknown-metric", _POINTS.replace("metric = abs", "metric = taxicab"),
     "line 9: unknown metric 'taxicab'"),
    ("abs-on-vectors", _CONE + "points = (0, 0)\nmetric = abs\n",
     "line 10: abs metric applies to the real family"),
    ("coordinatewise-on-scalars", _POINTS.replace("abs", "coordinatewise"),
     "line 9: coordinatewise metric needs a vector group"),
    ("table-on-grid", _REAL + "grid = 0 .. 1 step 1\nmetric = table\n",
     "line 9: table metrics need an explicit point list"),
    # carriers
    ("point-dimension", _REAL + "points = 0; (1, 1)\nmetric = abs\n",
     "line 8: point has dimension 2, expected 1"),
    ("no-carrier", _REAL + "metric = abs\n",
     "space needs exactly one of points / grid / interval"),
    ("two-carriers", _POINTS + "interval = 0 .. 1\n",
     "line 10: space needs exactly one of points / grid / interval"),
    ("duplicate-point", _POINTS.replace("0; 1/4; 1", "0; 0; 1"),
     "line 8: duplicate point in list"),
    ("grid-without-step", _REAL + "grid = 0 .. 1\nmetric = abs\n",
     "line 8: grid needs 'lo .. hi step s'"),
    ("grid-without-span", _REAL + "grid = 0 step 1\nmetric = abs\n",
     "line 8: grid needs 'lo .. hi step s'"),
    ("grid-step", _REAL + "grid = 0 .. 1 step 0\nmetric = abs\n",
     "line 8: grid step must be positive"),
    ("grid-reversed", _REAL + "grid = 1 .. 0 step 1\nmetric = abs\n",
     "line 8: grid corner order reversed"),
    ("grid-span", _REAL + "grid = 0 .. 1 step 2/3\nmetric = abs\n",
     "line 8: grid span is not a multiple of the step"),
    ("grid-size", _REAL + "grid = 0 .. 10000 step 1\nmetric = abs\n",
     "line 8: grid too large (over 10000 points)"),
    ("interval-span", _REAL + "interval = 0\nmetric = abs\n",
     "line 8: interval needs 'lo .. hi'"),
    ("interval-reversed", _REAL + "interval = 1 .. 0\nmetric = abs\n",
     "line 8: interval corner order reversed"),
    ("interval-reversed-cone", _CONE + "interval = (0, 1) .. (1, 0)\nmetric = coordinatewise\n",
     "line 9: interval corner order reversed"),
    ("interval-reversed-cone-corners",
     _CONE + "interval = (1, 1) .. (0, 0)\nmetric = coordinatewise\n",
     "line 9: interval corner order reversed"),
    # table metrics
    ("row-count", _REAL + "points = 0; 1\nmetric = table\nrow = 0; 1\n",
     "line 10: table metric needs 2 rows, found 1"),
    ("row-length", _REAL + "points = 0; 1\nmetric = table\nrow = 0; 1\nrow = 1\n",
     "line 11: row has 1 entries, expected 2"),
    ("diagonal", _REAL + "points = 0; 1\nmetric = table\nrow = 1; 1\nrow = 1; 0\n",
     "line 10: table diagonal cell (0, 0) must be 0"),
    ("asymmetric", _REAL + "points = 0; 1\nmetric = table\nrow = 0; 1\nrow = 2; 0\n",
     "line 11: table asymmetric at cell (0, 1): 1 vs 2"),
    ("vector-diagonal", _CONE + "points = (0, 0); (1, 0)\nmetric = table\n"
     "row = (1, 1); (1, 2)\nrow = (1, 2); (0, 0)\n",
     "line 11: table diagonal cell (0, 0) must be (0, 0)"),
    ("vector-asymmetric", _CONE + "points = (0, 0); (1, 0)\nmetric = table\n"
     "row = (0, 0); (1, 2)\nrow = (2, 1); (0, 0)\n",
     "line 12: table asymmetric at cell (0, 1): (1, 2) vs (2, 1)"),
    ("vector-asymmetric-far-cell", _CONE + "points = (0, 0); (1, 0); (0, 1)\nmetric = table\n"
     "row = (0, 0); (1, 2); (2, 1)\nrow = (1, 2); (0, 0); (2, 2)\nrow = (9, 9); (2, 2); (0, 0)\n",
     "line 13: table asymmetric at cell (0, 2): (2, 1) vs (9, 9)"),
    ("negative-cell", _REAL + "points = 0; 1\nmetric = table\nrow = 0; -1\nrow = -1; 0\n",
     "line 10: table cell (0, 1) must be above 0, got -1"),
    ("zero-cell", _REAL + "points = 0; 1\nmetric = table\nrow = 0; 0\nrow = 0; 0\n",
     "line 10: table cell (0, 1) must be above 0, got 0"),
    ("zero-cell-far", _REAL + "points = 0; 1; 2\nmetric = table\n"
     "row = 0; 1; 2\nrow = 1; 0; 0\nrow = 2; 0; 0\n",
     "line 11: table cell (1, 2) must be above 0, got 0"),
    ("vector-negative-coordinate", _CONE + "points = (0, 0); (1, 0)\nmetric = table\n"
     "row = (0, 0); (1, -1)\nrow = (1, -1); (0, 0)\n",
     "line 11: table cell (0, 1) must be above (0, 0), got (1, -1)"),
    ("vector-zero-cell", _CONE + "points = (0, 0); (1, 0)\nmetric = table\n"
     "row = (0, 0); (0, 0)\nrow = (0, 0); (0, 0)\n",
     "line 11: table cell (0, 1) must be above (0, 0), got (0, 0)"),
    # maps
    ("table-and-rule", _MAP + "image 0 = 0\nrule = scale\n",
     "line 13: map cannot mix an image table with a rule"),
    ("unknown-rule", _MAP + "rule = shift\n", "line 12: unknown map rule 'shift'"),
    ("factor-dimension", _CONE + "interval = (0, 0) .. (1, 1)\nmetric = coordinatewise\n"
     "\n[map]\nrule = scale\nfactors = (1/2, 1/2, 1/2)\n",
     "line 14: factor has dimension 3, expected 2"),
    ("no-images", _MAP + "factors = 1/2\n", "map section needs image entries or a rule"),
    ("images-on-interval", _REAL + "interval = 0 .. 1\nmetric = abs\n\n[map]\nimage 0 = 0\n",
     "line 12: image tables need a finite carrier"),
    ("undeclared-key", _MAP + "image 7 = 0\n", "line 12: image key 7 is not a declared point"),
    ("duplicate-image", _MAP + "image 0 = 0\nimage 0 = 0\n",
     "line 13: duplicate image entry for 0"),
    ("undeclared-image", _MAP + "image 0 = 7/8\n",
     "line 12: image point 7/8 is not a declared point"),
    ("missing-image", _MAP + "image 0 = 0\nimage 1 = 0\n", "map table misses point 1/4"),
    ("rule-escapes", _MAP + "rule = scale\nfactors = 2\n",
     "rule image 1/2 of point 1/4 is not a declared point"),
    ("rule-escapes-interval",
     _REAL + "interval = 0 .. 1\nmetric = abs\n\n[map]\nrule = scale\nfactors = 2; 1/2\n",
     "rule image 2 of point 1 is not inside the interval"),
    ("rule-escapes-interval-below",
     _REAL + "interval = 0 .. 1\nmetric = abs\n\n[map]\nrule = scale\nfactors = -1\n",
     "rule image -1 of point 1 is not inside the interval"),
    # sequences
    ("sequence-key", _SEQS + "sequence = harmonic 1\n",
     "line 12: unknown key 'sequence' in [sequences]"),
    ("sequence-atom", _SEQS + "seq = harmonic\n",
     "line 12: sequence atoms look like: <kind> <coefficient>"),
    ("sequence-kind", _SEQS + "seq = cubic 1\n", "line 12: unknown sequence kind 'cubic'"),
    ("sequence-ratio-kind", _SEQS + "seq = harmonic 1 ratio 1/2\n",
     "line 12: only the geometric kind takes a ratio"),
    ("sequence-ratio", _SEQS + "seq = geometric 1 ratio 1\n",
     "line 12: ratio must lie in [0, 1)"),
    ("sequence-ratio-missing", _SEQS + "seq = geometric 1\n",
     "line 12: the geometric kind needs a ratio"),
    ("sequence-coefficient", _SEQS + "seq = harmonic -1\n",
     "sequence 'harmonic -1': atom coefficients must sit above the identity"),
    # witnesses
    ("alpha-range", _WITNESS + "class = alpha-const\nalpha = 1\n",
     "line 13: alpha must lie in [0, 1)"),
    ("ratio-function", _WITNESS + "class = alpha-fn\nname = linear\n",
     "line 13: unknown ratio function 'linear'"),
    ("bound-range", _WITNESS + "class = alpha-fn\nname = capped-ratio\nbound = 0\n",
     "line 14: bound must lie in (0, 1)"),
    ("phi-on-interval",
     _REAL + "interval = 0 .. 1\nmetric = abs\n\n[witness]\nclass = phi-table\n",
     "line 12: phi tables need a finite carrier"),
    ("phi-entries", _WITNESS + "class = phi-table\n",
     "line 12: phi-table witness needs phi entries"),
    ("phi-key", _WITNESS + "class = phi-table\nphi 0 = 0\n",
     "line 13: phi entries look like: phi x | y = value"),
    ("phi-point", _WITNESS + "class = phi-table\nphi 0 | 7 = 0\n",
     "line 13: phi entry names an undeclared point"),
    ("phi-pair", _WITNESS + "class = phi-table\nphi 0 | 1 = 0\n",
     "phi table misses pair (0, 1/4)"),
    ("phi-duplicate", _WITNESS + "class = phi-table\nphi 0 | 1 = 1/4\nphi 0 | 1 = 1/2\n",
     "line 14: duplicate phi entry for (0, 1)"),
    ("phi-diagonal", _WITNESS + "class = phi-table\nphi 0 | 0 = 5\n",
     "line 13: phi entry pairs 0 with itself"),
    ("phi-dimension", _WITNESS + "class = phi-table\nphi 0 | 1 = (1/4, 1/4)\n",
     "line 13: phi value has dimension 2, expected 1"),
    ("psi-on-vectors",
     _CONE + "points = (0, 0)\nmetric = coordinatewise\n\n[witness]\nclass = psi\n",
     "line 13: scalar-function witnesses need the real family"),
    ("psi-name", _WITNESS + "class = psi\npsi = third\n", "line 13: unknown psi name 'third'"),
    ("witness-class", _WITNESS + "class = beta\n", "line 12: unknown witness class 'beta'"),
    # a one-coordinate tuple in each element slot of the real family
    ("real-tuple-point", _REAL + "points = (0); (1/2); (1)\nmetric = abs\n",
     "line 8: point (0) is a tuple; the real family takes scalars"),
    ("real-tuple-grid", _REAL + "grid = (0) .. 1 step 1/2\nmetric = abs\n",
     "line 8: grid corner (0) is a tuple; the real family takes scalars"),
    ("real-tuple-interval", _REAL + "interval = 0 .. (1)\nmetric = abs\n",
     "line 8: interval corner (1) is a tuple; the real family takes scalars"),
    ("real-tuple-table-entry", _REAL + "points = 0; 1\nmetric = table\nrow = 0; (1)\nrow = 1; 0\n",
     "line 10: table entry (1) is a tuple; the real family takes scalars"),
    ("real-tuple-factor", _MAP + "rule = scale\nfactors = 1/2; (1/2)\n",
     "line 13: factor (1/2) is a tuple; the real family takes scalars"),
    ("real-tuple-sequence", _SEQS + "seq = harmonic (1)\n",
     "line 12: sequence coefficient (1) is a tuple; the real family takes scalars"),
    ("real-tuple-phi", _WITNESS + "class = phi-table\nphi 0 | 1 = (1/4)\n",
     "line 13: phi value (1/4) is a tuple; the real family takes scalars"),
]


@pytest.mark.parametrize("text, message", [row[1:] for row in BAD_FILES],
                         ids=[row[0] for row in BAD_FILES])
def test_bad_instance_file_exits_three(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    for command in ("verify", "solve"):
        assert main([command, str(path)]) == 3, command
        assert capsys.readouterr() == ("", f"parse error: {message}\n"), command


_REAL_TUPLE_FILES = [row for row in BAD_FILES if row[0].startswith("real-tuple-")]


@pytest.mark.parametrize("text, message", [row[1:] for row in _REAL_TUPLE_FILES],
                         ids=[row[0] for row in _REAL_TUPLE_FILES])
def test_real_family_tuple_is_refused_by_export_too(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["export", str(path)]) == 3
    assert capsys.readouterr() == ("", f"parse error: {message}\n")
