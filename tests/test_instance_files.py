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


def test_bad_rational_reports_line():
    bad = BUILTIN_INSTANCE_TEXTS["three-point"].replace("points = 0; 1/4; 1",
                                                        "points = 0; 0.25; 1")
    with pytest.raises(InstanceFileError) as exc:
        parse_instance_text(bad)
    assert "line" in str(exc.value)


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


def test_missing_section_rejected():
    with pytest.raises(InstanceFileError) as exc:
        parse_instance_text("[group]\nfamily = real\n")
    assert "[structure]" in str(exc.value)


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


def test_duplicate_point_rejected():
    bad = BUILTIN_INSTANCE_TEXTS["three-point"].replace("points = 0; 1/4; 1",
                                                        "points = 0; 0; 1")
    with pytest.raises(InstanceFileError):
        parse_instance_text(bad)


def test_unknown_section_rejected():
    with pytest.raises(InstanceFileError) as exc:
        parse_instance_text("[bogus]\nx = 1\n")
    assert "unknown section" in str(exc.value)


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
