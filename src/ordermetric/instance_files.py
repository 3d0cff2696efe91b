"""Instance description files: parsing, validation, canonical export.

The format is UTF-8 sectioned text. Rationals are written exactly as p/q
(never floats), vectors as (p/q, p/q). A minimal file:

    [group]
    family = real

    [structure]
    kind = strict-order

    [space]
    points = 0; 1/4; 1
    metric = abs

    [map]
    image 0 = 0
    image 1/4 = 0
    image 1 = 0; 1/4

    [witness]
    class = alpha-const
    alpha = 1/2

Finite carriers use ``points`` or ``grid = lo .. hi step s``; sampled
continuum boxes use ``interval = lo .. hi``. Table metrics add one
``row = ...`` per point, in point order; the matrix must be symmetric with
a zero diagonal and every violation is reported with its cell and line.
Rule maps use ``rule = scale`` with ``factors = f1; f2; ...`` where each
factor (a scalar or a per-coordinate tuple) contributes one image point,
so one factor makes a single-valued map (``SetValuedMap.from_function``);
every image must lie in the carrier (on an interval, the corners' images).

Parsing produces an InstanceDescription, a plain value that each section
fills directly: [group] the family and dimension, [structure] the kind,
[space] the carrier (points, grid or interval) and metric, [map] the
image table or the scale factors, [witness] the class and its one
parameter, [sequences] the atoms. A key, an image key or a phi pair given
twice is an error, and so is a phi entry on the diagonal or one whose value
has the wrong dimension. The canonical export of a description reparses to an
equal description, which is the round-trip contract the command-line
tool relies on.

``build_bundle`` turns a description into an InstanceBundle. It is the one
place that makes carriers, metrics, samplers, maps and witnesses: the
command-line tool and the suite's built-ins both build their instances
through it. It is also the one registry of built-in instances: the
command-line tool loads ``BUILTIN_INSTANCE_TEXTS`` by name, and
``builtin_bundles`` builds the suite's ``DEFAULT_INSTANCES`` from the same
texts, one template writing the coordinate cone of ``cone2-shrink`` and of
the suite's cones.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

from .order_core import (
    OrderedModuleInstance,
    _draw_entries,
    _draw_entry,
    _q_dist,
    _q_mul,
    coord_cone_module,
    format_element,
    real_module,
)
from .topo import (
    PositiveSequence,
    SeqAtom,
    TopoStructure,
    _ATOM_KINDS,
    default_sequences,
    interior_cone_structure,
    strict_order_structure,
)
from .cone_metric import ConeMetricSpace
from .contraction import (
    ContractionWitness,
    PsiProperties,
    SetValuedMap,
    WitnessClass,
    bound_table,
)


class InstanceFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# element syntax


def parse_scalar(text: str, line: int | None = None) -> Fraction:
    text = text.strip()
    # canonical exact form only: integers and p/q, never decimal points
    if any(ch in text for ch in ".eE"):
        raise InstanceFileError(f"rationals are written p/q, got {text!r}", line)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InstanceFileError(f"not an exact rational: {text!r}", line) from None


def parse_element(text: str, line: int | None = None):
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise InstanceFileError(f"unbalanced tuple: {text!r}", line)
        inner = text[1:-1]
        return tuple(parse_scalar(part, line) for part in inner.split(","))
    return parse_scalar(text, line)


def parse_element_list(text: str, line: int | None = None) -> tuple:
    parts = [p for p in text.split(";") if p.strip()]
    if not parts:
        raise InstanceFileError("empty element list", line)
    return tuple(parse_element(p, line) for p in parts)


def render_element_list(values) -> str:
    return "; ".join(format_element(v) for v in values)


# ---------------------------------------------------------------------------
# description


@dataclass(frozen=True)
class InstanceDescription:
    family: str  # real | coord-cone
    dimension: int
    structure: str  # strict-order | interior-cone
    space_kind: str  # points | grid | interval
    metric: str  # abs | coordinatewise | table
    points: tuple | None = None
    grid: tuple | None = None  # (lo, hi, step)
    interval: tuple | None = None  # (lo, hi)
    metric_rows: tuple | None = None
    map_kind: str | None = None  # table | rule (the scale rule)
    map_table: tuple | None = None  # ((point, (images...)), ...) in point order
    map_factors: tuple | None = None
    witness_class: str | None = None
    alpha: Fraction | None = None
    alpha_bound: Fraction | None = None  # of the capped-ratio function
    phi_entries: tuple | None = None  # (((x, y), value), ...)
    psi_name: str | None = None
    sequences: tuple | None = None  # (((kind, coefficient, ratio), ...), ...)
    name: str = field(default="instance", compare=False)


_SECTIONS = ("group", "structure", "space", "map", "witness", "sequences")


def parse_instance_text(text: str, name: str = "instance") -> InstanceDescription:
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise InstanceFileError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise InstanceFileError("content before any section header", lineno)
        if "=" not in line:
            raise InstanceFileError(f"expected key = value, got {line!r}", lineno)
        key, value = line.split("=", 1)
        sections[current].append((lineno, key.strip(), value.strip()))
    for required in ("group", "structure", "space"):
        if required not in sections:
            raise InstanceFileError(f"missing required section [{required}]")
    return _assemble(sections, name)


def _single(entries, key, required=False, section=""):
    hits = [(ln, v) for ln, k, v in entries if k == key]
    if len(hits) > 1:
        raise InstanceFileError(f"duplicate key {key!r} in [{section}]", hits[1][0])
    if not hits:
        if required:
            lineno = entries[0][0] if entries else None
            raise InstanceFileError(f"missing key {key!r} in [{section}]", lineno)
        return None, None
    return hits[0]


def _assemble(sections, name: str) -> InstanceDescription:
    ge = sections["group"]
    ln, family = _single(ge, "family", required=True, section="group")
    if family not in ("real", "coord-cone"):
        raise InstanceFileError(f"unknown group family {family!r}", ln)
    dim = 1
    ln_d, dim_text = _single(ge, "dimension", section="group")
    if dim_text is not None:
        try:
            dim = int(dim_text)
        except ValueError:
            raise InstanceFileError(f"dimension must be an integer, got {dim_text!r}", ln_d) from None
    if family == "real" and dim != 1:
        raise InstanceFileError("the real family is one-dimensional", ln_d)
    if family == "coord-cone" and dim < 2:
        raise InstanceFileError("coord-cone needs dimension at least 2", ln_d or ln)

    se = sections["structure"]
    ln, kind = _single(se, "kind", required=True, section="structure")
    if kind not in ("strict-order", "interior-cone"):
        raise InstanceFileError(f"unknown structure kind {kind!r}", ln)

    sp = sections["space"]
    ln_m, metric = _single(sp, "metric", required=True, section="space")
    fields = {"family": family, "dimension": dim, "structure": kind, "metric": metric,
              **_parse_space_carrier(sp, dim)}
    if metric not in ("abs", "coordinatewise", "table"):
        raise InstanceFileError(f"unknown metric {metric!r}", ln_m)
    if metric == "abs" and dim != 1:
        raise InstanceFileError("abs metric applies to the real family", ln_m)
    if metric == "coordinatewise" and dim < 2:
        raise InstanceFileError("coordinatewise metric needs a vector group", ln_m)
    points = fields.get("points")
    if metric == "table":
        if fields["space_kind"] != "points":
            raise InstanceFileError("table metrics need an explicit point list", ln_m)
        fields.update(_parse_metric_rows(sp, points, dim))

    # an optional section with no entries is absent
    if sections.get("map"):
        fields.update(_parse_map(sections["map"], fields["space_kind"], points, dim))
    if sections.get("witness"):
        fields.update(_parse_witness(sections["witness"], points, dim))
    if sections.get("sequences"):
        fields.update(_parse_sequences(sections["sequences"], dim))
    return InstanceDescription(**fields, name=name)


def _expect_dim(value, dim, lineno, what):
    """``value`` if it is a scalar on the real family (``dim`` 1) or a tuple
    of ``dim`` coordinates on a cone; else a parse error naming the line."""
    actual = len(value) if isinstance(value, tuple) else 1
    if actual != dim:
        raise InstanceFileError(f"{what} has dimension {actual}, expected {dim}", lineno)
    if dim == 1 and isinstance(value, tuple):
        raise InstanceFileError(
            f"{what} {format_element(value)} is a tuple; the real family takes scalars", lineno)
    return value


def _corners(text, dim, ln, what):
    """The corners of ``lo .. hi``, each of dimension ``dim``, with no
    coordinate of ``lo`` above that of ``hi``."""
    lo_t, hi_t = text.split("..", 1)
    lo = _expect_dim(parse_element(lo_t, ln), dim, ln, f"{what} corner")
    hi = _expect_dim(parse_element(hi_t, ln), dim, ln, f"{what} corner")
    axes = zip(lo, hi) if isinstance(lo, tuple) else [(lo, hi)]
    if any(b < a for a, b in axes):
        raise InstanceFileError(f"{what} corner order reversed", ln)
    return lo, hi


def _parse_space_carrier(entries, dim) -> dict:
    choices = [(k, _single(entries, k, section="space"))
               for k in ("points", "grid", "interval")]
    present = [(k, ln, v) for k, (ln, v) in choices if v is not None]
    if len(present) != 1:
        raise InstanceFileError("space needs exactly one of points / grid / interval",
                                present[1][1] if len(present) > 1 else None)
    kind, ln, value = present[0]
    if kind == "points":
        pts = parse_element_list(value, ln)
        for p in pts:
            _expect_dim(p, dim, ln, "point")
        if len(set(pts)) != len(pts):
            raise InstanceFileError("duplicate point in list", ln)
        return {"space_kind": "points", "points": pts}
    if kind == "grid":
        span, sep, step_text = value.rpartition("step")
        if not sep or ".." not in span:
            raise InstanceFileError("grid needs 'lo .. hi step s'", ln)
        lo, hi = _corners(span, dim, ln, "grid")
        step = parse_scalar(step_text, ln)
        if step <= 0:
            raise InstanceFileError("grid step must be positive", ln)
        return {"space_kind": "grid", "points": _expand_grid(lo, hi, step, ln),
                "grid": (lo, hi, step)}
    if ".." not in value:
        raise InstanceFileError("interval needs 'lo .. hi'", ln)
    return {"space_kind": "interval", "interval": _corners(value, dim, ln, "interval")}


def _expand_grid(lo, hi, step, ln) -> tuple:
    """Every grid point, or a parse error; the size is checked from the
    per-axis counts before any point is built."""
    def axis_count(a, b) -> int:
        count = (b - a) / step
        if count.denominator != 1:
            raise InstanceFileError("grid span is not a multiple of the step", ln)
        return int(count) + 1

    corners = list(zip(lo, hi)) if isinstance(lo, tuple) else [(lo, hi)]
    counts = [axis_count(a, b) for a, b in corners]
    if math.prod(counts) > 10000:
        raise InstanceFileError("grid too large (over 10000 points)", ln)
    axes = [[a + k * step for k in range(n)] for (a, _), n in zip(corners, counts)]
    if not isinstance(lo, tuple):
        return tuple(axes[0])
    return tuple(itertools.product(*axes))


def _parse_metric_rows(entries, points, dim) -> dict:
    rows = [(ln, v) for ln, k, v in entries if k == "row"]
    if len(rows) != len(points):
        raise InstanceFileError(
            f"table metric needs {len(points)} rows, found {len(rows)}",
            rows[0][0] if rows else None)
    zero = tuple(Fraction(0) for _ in range(dim)) if dim > 1 else Fraction(0)
    matrix = []
    for ln, v in rows:
        row = parse_element_list(v, ln)
        if len(row) != len(points):
            raise InstanceFileError(f"row has {len(row)} entries, expected {len(points)}", ln)
        for entry in row:
            _expect_dim(entry, dim, ln, "table entry")
        matrix.append((ln, row))
    for i, (ln_i, row_i) in enumerate(matrix):
        if row_i[i] != zero:
            raise InstanceFileError(
                f"table diagonal cell ({i}, {i}) must be {format_element(zero)}", ln_i)
        for j, (ln_j, row_j) in enumerate(matrix):
            if row_i[j] != row_j[i]:
                raise InstanceFileError(
                    f"table asymmetric at cell ({i}, {j}): {format_element(row_i[j])} "
                    f"vs {format_element(row_j[i])}", ln_j)
            # d1: distinct points sit at a distance above zero, in the cone's order
            cell = row_i[j] if dim > 1 else (row_i[j],)
            if i != j and (min(cell) < 0 or not any(cell)):
                raise InstanceFileError(
                    f"table cell ({i}, {j}) must be above {format_element(zero)}, "
                    f"got {format_element(row_i[j])}", ln_i)
    return {"metric_rows": tuple(row for _, row in matrix)}


def _parse_map(entries, space_kind, points, dim) -> dict:
    images = [(ln, k[len("image"):].strip(), v) for ln, k, v in entries
              if k.startswith("image")]
    ln_rule, rule = _single(entries, "rule", section="map")
    if images and rule:
        raise InstanceFileError("map cannot mix an image table with a rule", ln_rule)
    if rule:
        if rule != "scale":
            raise InstanceFileError(f"unknown map rule {rule!r}", ln_rule)
        ln_f, factors_text = _single(entries, "factors", required=True, section="map")
        factors = parse_element_list(factors_text, ln_f)
        for f in factors:  # a scalar factor scales every coordinate of a cone
            if isinstance(f, tuple):
                _expect_dim(f, dim, ln_f, "factor")
        return {"map_kind": "rule", "map_factors": factors}
    if not images:
        raise InstanceFileError("map section needs image entries or a rule")
    if space_kind == "interval":
        raise InstanceFileError("image tables need a finite carrier", images[0][0])
    table = {}
    declared = set(points)
    for ln, point_text, v in images:
        p = parse_element(point_text, ln)
        if p not in declared:
            raise InstanceFileError(f"image key {format_element(p)} is not a declared point", ln)
        if p in table:
            raise InstanceFileError(f"duplicate image entry for {format_element(p)}", ln)
        img = parse_element_list(v, ln)
        for q in img:
            if q not in declared:
                raise InstanceFileError(
                    f"image point {format_element(q)} is not a declared point", ln)
        table[p] = img
    missing = [p for p in points if p not in table]
    if missing:
        raise InstanceFileError(f"map table misses point {format_element(missing[0])}")
    return {"map_kind": "table", "map_table": tuple((p, table[p]) for p in points)}


def _parse_sequences(entries, dim) -> dict:
    """Each line is ``seq = <kind> <coefficient> [ratio q]`` with atoms
    joined by ' + ' for finite sums, e.g. ``seq = harmonic 1 + constant 1/2``."""
    out = []
    for ln, key, value in entries:
        if key != "seq":
            raise InstanceFileError(f"unknown key {key!r} in [sequences]", ln)
        atoms = []
        for part in value.split(" + "):
            part = part.strip()
            ratio = None
            if " ratio " in part:
                part, ratio_text = part.rsplit(" ratio ", 1)
                ratio = parse_scalar(ratio_text, ln)
            tokens = part.split(None, 1)
            if len(tokens) != 2:
                raise InstanceFileError(
                    "sequence atoms look like: <kind> <coefficient>", ln)
            kind, coeff_text = tokens
            if kind not in _ATOM_KINDS:
                raise InstanceFileError(f"unknown sequence kind {kind!r}", ln)
            coeff = _expect_dim(parse_element(coeff_text, ln), dim, ln,
                                "sequence coefficient")
            if kind != "geometric" and ratio is not None:
                raise InstanceFileError("only the geometric kind takes a ratio", ln)
            if kind == "geometric" and ratio is None:
                raise InstanceFileError("the geometric kind needs a ratio", ln)
            if ratio is not None and not 0 <= ratio < 1:
                raise InstanceFileError("ratio must lie in [0, 1)", ln)
            atoms.append((kind, coeff, ratio))
        out.append(tuple(atoms))
    return {"sequences": tuple(out)}


def _parse_witness(entries, points, dim) -> dict:
    ln, klass = _single(entries, "class", required=True, section="witness")
    if klass == "alpha-const":
        ln_a, a_text = _single(entries, "alpha", required=True, section="witness")
        alpha = parse_scalar(a_text, ln_a)
        if not 0 <= alpha < 1:
            raise InstanceFileError("alpha must lie in [0, 1)", ln_a)
        return {"witness_class": klass, "alpha": alpha}
    if klass == "alpha-fn":
        ln_n, fn_name = _single(entries, "name", required=True, section="witness")
        if fn_name != "capped-ratio":
            raise InstanceFileError(f"unknown ratio function {fn_name!r}", ln_n)
        ln_b, b_text = _single(entries, "bound", required=True, section="witness")
        bound = parse_scalar(b_text, ln_b)
        if not 0 < bound < 1:
            raise InstanceFileError("bound must lie in (0, 1)", ln_b)
        return {"witness_class": klass, "alpha_bound": bound}
    if klass == "phi-table":
        if points is None:
            raise InstanceFileError("phi tables need a finite carrier", ln)
        rows = [(l, k[len("phi"):].strip(), v) for l, k, v in entries if k.startswith("phi")]
        if not rows and len(points) > 1:  # one point has no pair to bound
            raise InstanceFileError("phi-table witness needs phi entries", ln)
        table = {}
        declared = set(points)
        for l, key_text, v in rows:
            if "|" not in key_text:
                raise InstanceFileError("phi entries look like: phi x | y = value", l)
            x_t, y_t = key_text.split("|", 1)
            x, y = parse_element(x_t, l), parse_element(y_t, l)
            if x not in declared or y not in declared:
                raise InstanceFileError("phi entry names an undeclared point", l)
            if x == y:
                raise InstanceFileError(f"phi entry pairs {format_element(x)} with itself", l)
            if (x, y) in table:
                raise InstanceFileError(
                    f"duplicate phi entry for ({format_element(x)}, {format_element(y)})", l)
            table[(x, y)] = _expect_dim(parse_element(v, l), dim, l, "phi value")
        for x in points:
            for y in points:
                if x != y and (x, y) not in table:
                    raise InstanceFileError(
                        f"phi table misses pair ({format_element(x)}, {format_element(y)})")
        return {"witness_class": klass, "phi_entries": tuple(
            ((x, y), table[(x, y)]) for x in points for y in points if x != y)}
    if klass == "psi":
        if dim != 1:
            raise InstanceFileError("scalar-function witnesses need the real family", ln)
        ln_p, psi_name = _single(entries, "psi", required=True, section="witness")
        if psi_name not in ("half", "damped"):
            raise InstanceFileError(f"unknown psi name {psi_name!r}", ln_p)
        return {"witness_class": klass, "psi_name": psi_name}
    raise InstanceFileError(f"unknown witness class {klass!r}", ln)


# ---------------------------------------------------------------------------
# canonical export


def _sequence_text(atoms) -> str:
    """A sequence's atoms as a ``seq =`` line writes them."""
    return " + ".join(f"{kind} {format_element(coeff)}"
                      + (f" ratio {ratio}" if ratio is not None else "")
                      for kind, coeff, ratio in atoms)


def export_instance_text(desc: InstanceDescription) -> str:
    lines = ["[group]", f"family = {desc.family}"]
    if desc.family == "coord-cone":
        lines.append(f"dimension = {desc.dimension}")
    lines += ["", "[structure]", f"kind = {desc.structure}", "", "[space]"]
    if desc.space_kind == "points":
        lines.append(f"points = {render_element_list(desc.points)}")
    elif desc.space_kind == "grid":
        lo, hi, step = desc.grid
        lines.append(f"grid = {format_element(lo)} .. {format_element(hi)} step {step}")
    else:
        lo, hi = desc.interval
        lines.append(f"interval = {format_element(lo)} .. {format_element(hi)}")
    lines.append(f"metric = {desc.metric}")
    if desc.metric_rows is not None:
        for row in desc.metric_rows:
            lines.append(f"row = {render_element_list(row)}")
    if desc.map_kind is not None:
        lines += ["", "[map]"]
        if desc.map_kind == "table":
            for p, img in desc.map_table:
                lines.append(f"image {format_element(p)} = {render_element_list(img)}")
        else:
            lines += ["rule = scale", f"factors = {render_element_list(desc.map_factors)}"]
    if desc.witness_class is not None:
        lines += ["", "[witness]", f"class = {desc.witness_class}"]
        if desc.witness_class == "alpha-const":
            lines.append(f"alpha = {desc.alpha}")
        elif desc.witness_class == "alpha-fn":
            lines += ["name = capped-ratio", f"bound = {desc.alpha_bound}"]
        elif desc.witness_class == "phi-table":
            for (x, y), v in desc.phi_entries:
                lines.append(f"phi {format_element(x)} | {format_element(y)} = {format_element(v)}")
        elif desc.witness_class == "psi":
            lines.append(f"psi = {desc.psi_name}")
    if desc.sequences is not None:
        lines += ["", "[sequences]"]
        lines += [f"seq = {_sequence_text(atoms)}" for atoms in desc.sequences]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bundle construction


@dataclass(frozen=True, eq=False)
class InstanceBundle:
    """Everything the suite needs about one instance. ``build_bundle`` makes
    every bundle; the suite's built-ins then ``replace`` the settings no
    instance file carries."""

    name: str
    module: OrderedModuleInstance
    structure: TopoStructure
    space: ConeMetricSpace
    map_: SetValuedMap | None = None
    witness: ContractionWitness | None = None
    sequences: tuple[PositiveSequence, ...] = ()
    eps_family: tuple = ()
    solver_seed: object = None
    solver_eps: object = None

    def replace(self, **kw) -> "InstanceBundle":
        return dataclasses.replace(self, **kw)

    @cached_property
    def strict_twin(self) -> TopoStructure:
        """The strict-order structure on ``module``, built once per bundle:
        the sequences memoize outcomes by structure identity, so reruns on
        the same bundle reuse them."""
        return strict_order_structure(self.module)


def _scale_by(x, f):
    """x scaled by f on the exact kernel, coordinate by coordinate when f is
    a tuple; every coordinate and factor is a Fraction."""
    if isinstance(f, tuple):
        return tuple(map(_q_mul, x, f))
    if isinstance(x, tuple):
        return tuple([_q_mul(c, f) for c in x])
    return _q_mul(x, f)


def _make_witness(desc: InstanceDescription, space: ConeMetricSpace) -> ContractionWitness | None:
    if desc.witness_class is None:
        return None
    if desc.witness_class == "alpha-const":
        return ContractionWitness(WitnessClass.ALPHA_CONSTANT, alpha_const=desc.alpha)
    if desc.witness_class == "alpha-fn":
        bound, coords = desc.alpha_bound, space.group.coords

        def alpha(x, y):
            s = max(coords(space.distance(x, y)))
            return bound * s / (1 + s)

        return ContractionWitness(WitnessClass.ALPHA_FUNCTION, alpha_fn=alpha,
                                  alpha_bound=bound,
                                  label=f"capped-ratio (bound {bound})")
    if desc.witness_class == "phi-table":
        return ContractionWitness(WitnessClass.PHI_TABLE,
                                  phi_table=bound_table(space, dict(desc.phi_entries)))
    if desc.witness_class == "psi":
        # upper semicontinuous: both are continuous
        # below the identity: t/2 < t and t/(1 + t) < t for every t > 0
        # positive tail gap: the gaps t/2 and t^2/(1 + t) grow without bound
        if desc.psi_name == "half":
            psi = lambda t: t / 2  # noqa: E731
        else:  # damped
            psi = lambda t: t / (1 + t)  # noqa: E731
        return ContractionWitness(WitnessClass.PSI_ON_DISTANCE, psi=psi,
                                  psi_properties=PsiProperties(
                                      upper_semicontinuous=True, below_identity=True,
                                      positive_tail_gap=True),
                                  label=f"psi {desc.psi_name}")
    raise InstanceFileError(f"unknown witness class {desc.witness_class!r}")


def _interval_carrier(lo, hi):
    """Membership in the box lo .. hi, and a sampler that draws lo + (hi - lo)
    * k/den per coordinate (den uniform in 1..16, then k in 0..den). Each axis
    tabulates its 152 values once, so a coordinate is two table draws."""
    scalar = not isinstance(lo, tuple)
    box = [(lo, hi)] if scalar else list(zip(lo, hi))
    axes = [[[a + (b - a) * Fraction(k, den) for k in range(den + 1)]
             for den in range(1, 17)] for a, b in box]

    def contains(p):
        coords = (p,) if scalar else p
        return (isinstance(coords, tuple) and len(coords) == len(box) and all(
            isinstance(c, Fraction) and a <= c <= b for (a, b), c in zip(box, coords)))

    def sampler(rng):
        return _draw_entry(rng, axes[0]) if scalar else _draw_entries(rng, axes)
    return contains, sampler


def build_bundle(desc: InstanceDescription) -> InstanceBundle:
    dim = desc.dimension
    module = real_module() if desc.family == "real" else coord_cone_module(dim)
    if desc.structure == "strict-order":
        structure = strict_order_structure(module)
    else:
        structure = interior_cone_structure(module)

    if desc.metric == "abs":
        metric = _q_dist
    elif desc.metric == "coordinatewise":
        metric = lambda x, y: tuple(map(_q_dist, x, y))  # noqa: E731
    else:
        index = {p: i for i, p in enumerate(desc.points)}
        rows = desc.metric_rows

        def metric(x, y, _index=index, _rows=rows):
            return _rows[_index[x]][_index[y]]

    if desc.space_kind == "interval":
        contains, sampler = _interval_carrier(*desc.interval)
        space = ConeMetricSpace(desc.name, structure, metric,
                                contains=contains, sampler=sampler)
        default_seed = desc.interval[1]
    else:
        space = ConeMetricSpace(desc.name, structure, metric, points=desc.points)
        default_seed = desc.points[-1]

    map_ = None
    if desc.map_kind == "table":
        map_ = SetValuedMap.from_table(space, dict(desc.map_table))
    elif desc.map_kind == "rule":
        factors = desc.map_factors
        if len(factors) == 1:
            map_ = SetValuedMap.from_function(space, partial(_scale_by, f=factors[0]),
                                              name="scale")
        else:
            map_ = SetValuedMap.from_rule(
                space, lambda x: tuple(_scale_by(x, f) for f in factors), name="scale")
        # rule images must stay inside the carrier; a scale map is monotone
        # in each coordinate, so on an interval the two corners decide it
        probes = space.points if space.finite else desc.interval
        where = "a declared point" if space.finite else "inside the interval"
        for p in probes:
            for q in map_.images(p):
                if not space.member(q):
                    raise InstanceFileError(
                        f"rule image {format_element(q)} of point "
                        f"{format_element(p)} is not {where}")

    witness = _make_witness(desc, space)

    sequences = default_sequences(module)
    fill = module.group.fill
    eps_family = tuple(fill(Fraction(1, k)) for k in ((2, 10, 100) if dim == 1 else (2, 10)))
    solver_eps = fill(Fraction(1, 1024))
    if desc.sequences is not None:
        built = []
        for atoms in desc.sequences:
            seq_atoms = tuple(SeqAtom(kind, module.group.coerce(coeff), ratio)
                              for kind, coeff, ratio in atoms)
            label = _sequence_text(atoms)
            try:
                built.append(PositiveSequence(module, label, atoms=seq_atoms))
            except ValueError as exc:
                raise InstanceFileError(f"sequence {label!r}: {exc}") from exc
        sequences = tuple(built)

    return InstanceBundle(
        name=desc.name,
        module=module,
        structure=structure,
        space=space,
        map_=map_,
        witness=witness,
        sequences=sequences,
        eps_family=eps_family,
        solver_seed=default_seed,
        solver_eps=solver_eps,
    )


# ---------------------------------------------------------------------------
# built-in instance files


def _coord_cone_text(dim: int, factors: str) -> str:
    """Huang & Zhang's coordinate cone on the unit box of dimension ``dim``,
    mapped by the scale rule with ``factors``."""
    zero, one = (f"({', '.join([v] * dim)})" for v in "01")
    return f"""\
[group]
family = coord-cone
dimension = {dim}

[structure]
kind = interior-cone

[space]
interval = {zero} .. {one}
metric = coordinatewise

[map]
rule = scale
factors = {factors}

[witness]
class = alpha-const
alpha = 1/2
"""


BUILTIN_INSTANCE_TEXTS = {
    "r1-banach": """\
[group]
family = real

[structure]
kind = strict-order

[space]
interval = 0 .. 1
metric = abs

[map]
rule = scale
factors = 1/2

[witness]
class = alpha-const
alpha = 1/2
""",
    "three-point": """\
[group]
family = real

[structure]
kind = strict-order

[space]
points = 0; 1/4; 1
metric = abs

[map]
image 0 = 0
image 1/4 = 0
image 1 = 0; 1/4

[witness]
class = alpha-const
alpha = 1/2
""",
    "cone2-shrink": _coord_cone_text(2, "(1/2, 1/3)"),
}


def builtin_bundles() -> dict[str, InstanceBundle]:
    """The suite's instances, each built from an instance text plus what no
    instance file carries: its solver scales and a skewed tolerance on
    cone-n. Each has the one map of its text: real-line and cone-n halve,
    a single-valued map, and three-point's table is set-valued."""
    def build(text, name):
        return build_bundle(parse_instance_text(text, name=name))

    bundles = [
        build(BUILTIN_INSTANCE_TEXTS["r1-banach"], "real-line").replace(solver_eps=Fraction(1, 100)),
        build(BUILTIN_INSTANCE_TEXTS["three-point"], "three-point").replace(solver_eps=Fraction(1, 8)),
    ]
    for dim in (2, 3):
        cone = build(_coord_cone_text(dim, "1/2"), f"cone-{dim}")
        skew = tuple(Fraction(1, 10) if i == 0 else Fraction(1, 2) for i in range(dim))
        bundles.append(cone.replace(
            eps_family=cone.eps_family + (skew,),
            solver_eps=cone.module.group.fill(Fraction(1, 100))))
    return {b.name: b for b in bundles}


DEFAULT_INSTANCES = ("real-line", "three-point", "cone-2", "cone-3")


def read_instance(path_or_name) -> tuple[str, str]:
    """``(text, name)`` of a file path, named by its stem, or else of a
    built-in instance name."""
    import os

    if os.path.exists(path_or_name):
        try:
            with open(path_or_name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
            raise InstanceFileError(f"cannot read {path_or_name!r}: {reason}") from None
        return text, os.path.splitext(os.path.basename(path_or_name))[0]
    if path_or_name in BUILTIN_INSTANCE_TEXTS:
        return BUILTIN_INSTANCE_TEXTS[path_or_name], path_or_name
    raise InstanceFileError(
        f"no such file or built-in instance: {path_or_name!r} "
        f"(built-ins: {', '.join(sorted(BUILTIN_INSTANCE_TEXTS))})")


def load_instance(path_or_name) -> InstanceDescription:
    """Parse a file path, or fall back to a built-in instance name."""
    text, name = read_instance(path_or_name)
    return parse_instance_text(text, name=name)
