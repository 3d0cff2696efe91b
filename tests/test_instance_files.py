import dataclasses
from fractions import Fraction

import pytest

from ordermetric import (
    BUILTIN_INSTANCE_TEXTS,
    InstanceFileError,
    build_bundle,
    export_instance_text,
    load_instance,
    parse_instance_text,
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


def test_asymmetric_table_names_cell_and_line():
    bad = TABLE_FILE.replace("row = (2, 1); (2, 2); (0, 0)",
                             "row = (9, 9); (2, 2); (0, 0)")
    with pytest.raises(InstanceFileError) as exc:
        parse_instance_text(bad)
    msg = str(exc.value)
    assert "asymmetric" in msg and "cell (0, 2)" in msg and "line" in msg


def test_nonzero_diagonal_rejected():
    bad = TABLE_FILE.replace("row = (0, 0); (1, 2); (2, 1)",
                             "row = (1, 1); (1, 2); (2, 1)")
    with pytest.raises(InstanceFileError) as exc:
        parse_instance_text(bad)
    assert "diagonal" in str(exc.value)


@pytest.mark.parametrize("builtin, interval", [
    ("r1-banach", "1 .. 0"),
    ("cone2-shrink", "(0, 1) .. (1, 0)"),
    ("cone2-shrink", "(1, 1) .. (0, 0)"),
])
def test_reversed_interval_rejected(builtin, interval):
    text = BUILTIN_INSTANCE_TEXTS[builtin]
    start = text.index("interval = ")
    end = text.index("\n", start)
    with pytest.raises(InstanceFileError) as exc:
        parse_instance_text(text[:start] + f"interval = {interval}" + text[end:])
    line = text[:start].count("\n") + 1
    assert str(exc.value) == f"line {line}: interval corner order reversed"


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


def test_bundle_interval_sampler_stays_inside(rstruct):
    import random

    desc = load_instance("r1-banach")
    bundle = build_bundle(desc)
    rng = random.Random(3)
    for _ in range(50):
        p = bundle.space.sampler(rng)
        assert bundle.space.member(p)


def test_psi_witness_file():
    text = PHI_FILE.replace(
        "class = phi-table\nphi 0 | 1 = 1/4\nphi 1 | 0 = 1/4",
        "class = psi\npsi = damped")
    desc = parse_instance_text(text)
    bundle = build_bundle(desc)
    d = bundle.space.distance(Fraction(0), Fraction(1))
    assert bundle.witness.phi(bundle.space, Fraction(0), Fraction(1), d) == d / (1 + d)


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
    ({"witness_class": "alpha-fn", "alpha_name": "doubled-ratio",
      "alpha_bound": Fraction(9, 10)}, "unknown ratio function 'doubled-ratio'"),
    ({"witness_class": "alpha-table"}, "unknown witness class 'alpha-table'"),
], ids=["ratio-function", "witness-class"])
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


def test_sequences_section_rejects_bad_atoms():
    with pytest.raises(InstanceFileError):
        parse_instance_text(PHI_FILE + "\n[sequences]\nseq = cubic 1\n")
    with pytest.raises(InstanceFileError):
        parse_instance_text(PHI_FILE + "\n[sequences]\nseq = harmonic 1 ratio 1/2\n")
    with pytest.raises(InstanceFileError):
        parse_instance_text(PHI_FILE + "\n[sequences]\nseq = geometric 1\n")
    # coefficients below the identity surface when the carrier is attached
    desc = parse_instance_text(PHI_FILE + "\n[sequences]\nseq = harmonic -1\n")
    with pytest.raises(InstanceFileError):
        build_bundle(desc)


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
    # maps
    ("table-and-rule", _MAP + "image 0 = 0\nrule = scale\n",
     "line 13: map cannot mix an image table with a rule"),
    ("unknown-rule", _MAP + "rule = shift\n", "line 12: unknown map rule 'shift'"),
    ("factor-dimension", _CONE + "interval = (0, 0) .. (1, 1)\nmetric = coordinatewise\n"
     "\n[map]\nrule = scale\nfactors = (1/2, 1/2, 1/2)\n",
     "line 14: tuple factor dimension mismatch"),
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
    ("psi-on-vectors",
     _CONE + "points = (0, 0)\nmetric = coordinatewise\n\n[witness]\nclass = psi\n",
     "line 13: scalar-function witnesses need the real family"),
    ("psi-name", _WITNESS + "class = psi\npsi = third\n", "line 13: unknown psi name 'third'"),
    ("witness-class", _WITNESS + "class = beta\n", "line 12: unknown witness class 'beta'"),
]


@pytest.mark.parametrize("text, message", [row[1:] for row in BAD_FILES],
                         ids=[row[0] for row in BAD_FILES])
def test_bad_instance_file_exits_three(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    for command in ("verify", "solve"):
        assert main([command, str(path)]) == 3, command
        assert capsys.readouterr() == ("", f"parse error: {message}\n"), command
