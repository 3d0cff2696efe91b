"""The built-in samplers draw from precomputed tables with exactly the random
calls of their plain definitions, so every seeded sample, and so every
report row, stays what it was."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordermetric import (
    ALL_CHECKS,
    Budgets,
    SamplePlan,
    SuiteSpec,
    builtin_bundles,
    check_group_laws,
    check_metric_laws,
    check_module_laws,
    check_topo_laws,
    coord_cone_group,
    coord_cone_module,
    interior_cone_structure,
    rational_ring,
    real_group,
    real_module,
    run_suite,
)
from ordermetric import order_core
from ordermetric.instance_files import _interval_carrier

F = Fraction


# -- the plain definitions the tables replace -------------------------------


def plain_fraction(rng):
    return Fraction(rng.randint(-48, 48), rng.randint(1, 8))


def plain_positive(rng):
    return Fraction(rng.randint(1, 48), rng.randint(1, 8))


def plain_ring(rng):
    return Fraction(rng.randint(-16, 16), rng.randint(1, 8))


def plain_cone(dim):
    return lambda rng: tuple(plain_fraction(rng) for _ in range(dim))


def plain_cone_positive(dim):
    def sampler(rng):
        vec = [Fraction(rng.randint(0, 48), rng.randint(1, 8)) for _ in range(dim)]
        vec[rng.randrange(dim)] += Fraction(1, rng.randint(1, 8))
        return tuple(vec)
    return sampler


def plain_interior(dim):
    if dim is None:
        return lambda rng: Fraction(rng.randint(1, 48), rng.randint(1, 8))
    return lambda rng: tuple(Fraction(rng.randint(1, 48), rng.randint(1, 8))
                             for _ in range(dim))


def plain_interval(lo, hi):
    scalar = not isinstance(lo, tuple)
    box = [(lo, hi)] if scalar else list(zip(lo, hi))

    def sampler(rng):
        out = []
        for a, b in box:
            den = rng.randint(1, 16)
            out.append(a + (b - a) * Fraction(rng.randint(0, den), den))
        return out[0] if scalar else tuple(out)
    return sampler


BOXES = {
    "unit": (F(0), F(1)),
    "shifted": (F(-1, 2), F(7, 3)),
    "square": ((F(0), F(0)), (F(1), F(1))),
    "box-3": ((F(-1), F(1, 3), F(0)), (F(2), F(5, 7), F(1, 16))),
}


def _pairs():
    """(name, tabulated sampler, plain sampler) for every built-in sampler."""
    out = [("real", real_group().sampler, plain_fraction),
           ("real+", real_group().positive_sampler, plain_positive),
           ("ring", rational_ring().sampler, plain_ring),
           ("interior-real", interior_cone_structure(real_module()).interior_sampler,
            plain_interior(None))]
    for dim in (1, 2, 3, 4):
        g = coord_cone_group(dim)
        out += [(f"cone-{dim}", g.sampler, plain_cone(dim)),
                (f"cone-{dim}+", g.positive_sampler, plain_cone_positive(dim)),
                (f"interior-cone-{dim}",
                 interior_cone_structure(coord_cone_module(dim)).interior_sampler,
                 plain_interior(dim))]
    for name, (lo, hi) in BOXES.items():
        out.append((f"interval-{name}", _interval_carrier(lo, hi)[1], plain_interval(lo, hi)))
    return out


SAMPLERS = _pairs()


@pytest.mark.parametrize("name, tabulated, plain", SAMPLERS, ids=[p[0] for p in SAMPLERS])
@given(seed=st.integers(0, 2**64), draws=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_tabulated_sampler_draws_like_its_plain_definition(name, tabulated, plain, seed, draws):
    new, old = random.Random(seed), random.Random(seed)
    got = [tabulated(new) for _ in range(draws)]
    want = [plain(old) for _ in range(draws)]
    assert [repr(v) for v in got] == [repr(v) for v in want]
    assert new.getstate() == old.getstate()


# -- the draws themselves ----------------------------------------------------

_widths = st.sampled_from((1, 2, 4, 8, 16, 64, 97, 128))
# a rectangular table of any of those widths, or ragged rows of width 2..17
# like an interval carrier's
_rows = st.one_of(
    st.tuples(_widths, _widths).map(lambda shape: [shape[1]] * shape[0]),
    st.lists(st.integers(2, 17), min_size=1, max_size=40),
)


@given(seed=st.integers(0, 2**64), width=_widths, draws=st.integers(1, 30))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_draw_is_an_entry_at_randrange_of_the_width(seed, width, draws):
    table = tuple(range(width))
    new, old = random.Random(seed), random.Random(seed)
    got = [order_core._draw(new, table) for _ in range(draws)]
    want = [table[old.randrange(len(table))] for _ in range(draws)]
    assert got == want
    assert new.getstate() == old.getstate()


@given(seed=st.integers(0, 2**64), widths=_rows, draws=st.integers(1, 30))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_draw_entry_is_a_row_then_an_entry_at_randrange(seed, widths, draws):
    rows = [tuple((i, j) for j in range(w)) for i, w in enumerate(widths)]
    new, old = random.Random(seed), random.Random(seed)

    def plain():
        row = rows[old.randrange(len(rows))]
        return row[old.randrange(len(row))]

    got = [order_core._draw_entry(new, rows) for _ in range(draws)]
    assert got == [plain() for _ in range(draws)]
    assert new.getstate() == old.getstate()


@given(seed=st.integers(0, 2**64), axes=st.lists(_rows, min_size=1, max_size=4),
       draws=st.integers(1, 20))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_draw_entries_is_a_draw_entry_per_axis(seed, axes, draws):
    # every entry names its axis, so two axes drawn out of order show
    tables = [[tuple((a, i, j) for j in range(w)) for i, w in enumerate(widths)]
              for a, widths in enumerate(axes)]
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        got = order_core._draw_entries(new, tables)
        assert got == tuple(order_core._draw_entry(old, rows) for rows in tables)
        assert new.getstate() == old.getstate()


# -- the work the law rows do ------------------------------------------------

LAW_CHECKS = tuple(c for c in ALL_CHECKS
                   if c.split("/")[0] in ("group", "module", "topo", "metric"))
LAW_SPEC = SuiteSpec(instances=("real-line", "cone-2"), checks=LAW_CHECKS,
                     budgets=Budgets(samples=150, n_max=120))
# counted with the samplers that built a fresh Fraction per draw and with the
# Cauchy check that computed each distance once per tolerance; a construction
# is a call of Fraction.__new__ or of order_core._q
LAW_FRACTIONS_BEFORE_TABLES = 84_240
# the getrandbits calls of that spec, counted while each draw still went
# through Random._randbelow: inlining the draw must consume the same randomness
# (65,804 while g1 and order-transitive seeded a generator per item and the
# transitive law drew three elements per item and kept the first)
LAW_GETRANDBITS = 65_027
# the calls of the draw kernel (_draw, _draw_entry, _draw_entries) and of the
# public Fraction.__new__ in that spec, once a sampled point is drawn in one
# frame and the law streams build their values, |r| included, on the exact
# kernel, the halving factor is one constant, coerce keeps a tuple of
# Fractions and the geometric approach builds its terms on the kernel
# (20,199 and 5,353 before; 2,822 public while |r| was Fraction.__abs__,
# 1,322 while shrink and coerce built their Fractions, 538 while the
# geometric approach went through the public operators; 14,826 while the
# transitive law drew three elements per item and kept the first)
LAW_DRAW_CALLS = 14_663
LAW_PUBLIC_FRACTIONS = 26
# the public Fraction.__new__ calls of the point-convergence and Cauchy rows
# on the continua, once the geometric approach builds 1 - 1/2^n as one
# kernel Fraction (789 while it went through the public operators)
GEOMETRIC_SPEC = SuiteSpec(instances=("real-line", "cone-2", "cone-3"),
                           checks=("metric/point-convergence", "metric/cauchy"))
GEOMETRIC_PUBLIC_FRACTIONS = 21
# the two laws whose streams moved onto one generator per law: g1 drew each
# shift c from a generator seeded from its pair's text, order-transitive its
# p and q from two generators per item, and each took its first elements
# from a differently shaped stream
MOVED_LAWS = ("g1", "order-transitive")
# sha256 of the reprs of every item the law runner received in that spec, one
# a line, in order, for every law but the moved two, computed before they
# moved, so every other law receives what it did (the digest over every law,
# as the samplers drew them before a point was one frame, was
# 9570f51be3d9f4d31f27075c16eea096eeeeb6443c0437ac62704c743851e39c)
LAW_INPUTS_SHA256 = "3718b3a8d8f0a965b91eadda08b37985a46a264ba871af06c173ee18065ba868"
# the same for the items of the moved two, once each draws from one generator
MOVED_LAW_INPUTS_SHA256 = "df02686cc25e529f692c2307bad3448ffaa1bb07fd5eeef82bbdf5c016d0df74"


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name == "ordermetric" or name.startswith("ordermetric.")]


def test_law_rows_draw_the_same_and_construct_fewer_fractions(monkeypatch):
    bundles = builtin_bundles()
    fractions, public, draws, kernel = [0], [0], [0], [0]
    raw_new = Fraction.__dict__["__new__"].__func__
    raw_q = order_core._q
    raw_bits = random.Random.getrandbits

    def counting_new(cls, *args, **kwargs):
        fractions[0] += 1
        public[0] += 1
        return raw_new(cls, *args, **kwargs)

    def counting_q(n, d):
        fractions[0] += 1
        return raw_q(n, d)

    def counting_bits(self, k):
        draws[0] += 1
        return raw_bits(self, k)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for mod in _package_modules():
        if getattr(mod, "_q", None) is raw_q:
            monkeypatch.setattr(mod, "_q", counting_q)
    monkeypatch.setattr(random.Random, "getrandbits", counting_bits)
    for name in ("_draw", "_draw_entry", "_draw_entries"):
        raw = getattr(order_core, name)

        def counting_draw(*args, _raw=raw):
            kernel[0] += 1
            return _raw(*args)

        for mod in _package_modules():
            if getattr(mod, name, None) is raw:
                monkeypatch.setattr(mod, name, counting_draw)
    report = run_suite(LAW_SPEC, bundles)
    monkeypatch.undo()
    assert report.ok
    assert draws[0] == LAW_GETRANDBITS
    assert kernel[0] == LAW_DRAW_CALLS
    assert public[0] <= LAW_PUBLIC_FRACTIONS, public[0]
    assert fractions[0] <= 0.8 * LAW_FRACTIONS_BEFORE_TABLES, fractions[0]


def test_the_geometric_approach_builds_its_terms_on_the_kernel(monkeypatch):
    bundles = builtin_bundles()
    public, raw_new = [0], Fraction.__dict__["__new__"].__func__

    def counting_new(cls, *args, **kwargs):
        public[0] += 1
        return raw_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    report = run_suite(GEOMETRIC_SPEC, bundles)
    monkeypatch.undo()
    assert report.ok and len(report.rows) == 6
    assert public[0] <= GEOMETRIC_PUBLIC_FRACTIONS, public[0]


def test_law_rows_receive_the_same_inputs(monkeypatch):
    # the rows barely depend on the seed, so they would not show a draw
    # reordered inside a law stream; the items the laws receive do
    digests, runner = {True: hashlib.sha256(), False: hashlib.sha256()}, order_core._run_laws

    def recording(stream, laws):
        digest = digests[any(law in MOVED_LAWS for law, _ in laws)]

        def recorded():
            for item in stream:
                digest.update(repr(item).encode() + b"\n")
                yield item
        return runner(recorded(), laws)

    for mod in _package_modules():
        if getattr(mod, "_run_laws", None) is runner:
            monkeypatch.setattr(mod, "_run_laws", recording)
    assert run_suite(LAW_SPEC, builtin_bundles()).ok
    assert digests[False].hexdigest() == LAW_INPUTS_SHA256
    assert digests[True].hexdigest() == MOVED_LAW_INPUTS_SHA256


# the generators one law report seeds on cone-2 at SamplePlan(): one per
# stream (strict_pairs and the shifts they are zipped with, g1-prime, the
# metric's three point streams for d3, ...), none per item; the group
# report seeded 609 while g1 and order-transitive seeded one per item
REPORT_GENERATORS = {"group": 11, "module": 4, "topo": 6, "metric": 7}


def test_each_law_stream_seeds_one_generator(monkeypatch):
    b, plan = builtin_bundles()["cone-2"], SamplePlan()
    reports = {"group": lambda: check_group_laws(b.module.group, plan),
               "module": lambda: check_module_laws(b.module, plan),
               "topo": lambda: check_topo_laws(b.structure, plan),
               "metric": lambda: check_metric_laws(b.space, plan)}
    created, raw_init = [0], random.Random.__init__

    def counting_init(self, *args, **kwargs):
        created[0] += 1
        raw_init(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "__init__", counting_init)
    seeded = {}
    for name, report in reports.items():
        created[0] = 0
        assert report().passed, name
        seeded[name] = created[0]
    monkeypatch.undo()
    assert seeded == REPORT_GENERATORS
