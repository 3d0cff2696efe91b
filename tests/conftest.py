from fractions import Fraction

import pytest

from ordermetric import (
    ConeMetricSpace,
    SamplePlan,
    coord_cone_module,
    interior_cone_structure,
    real_module,
    strict_order_structure,
)
from ordermetric import cli


@pytest.fixture(autouse=True)
def _fresh_cli_memo():
    """Each test starts like a fresh process: the CLI keeps no bundle."""
    cli._built.cache_clear()


@pytest.fixture(scope="session")
def rmod():
    return real_module()


@pytest.fixture(scope="session")
def rstruct(rmod):
    return strict_order_structure(rmod)


@pytest.fixture(scope="session")
def cmod2():
    return coord_cone_module(2)


@pytest.fixture(scope="session")
def cstruct2(cmod2):
    return interior_cone_structure(cmod2)


@pytest.fixture(scope="session")
def cmod3():
    return coord_cone_module(3)


@pytest.fixture(scope="session")
def cstruct3(cmod3):
    return interior_cone_structure(cmod3)


@pytest.fixture(scope="session")
def plan():
    return SamplePlan(seed=7, count=400)


@pytest.fixture
def real_line_space(rstruct):
    """Sampled rational unit interval with the absolute-value distance."""
    def contains(p):
        return isinstance(p, Fraction) and 0 <= p <= 1

    def sampler(rng):
        den = rng.randint(1, 16)
        return Fraction(rng.randint(0, den), den)

    return ConeMetricSpace("unit-interval", rstruct, lambda x, y: abs(x - y),
                           contains=contains, sampler=sampler)


@pytest.fixture
def box2_space(cstruct2):
    def contains(p):
        return (isinstance(p, tuple) and len(p) == 2
                and all(isinstance(c, Fraction) and 0 <= c <= 1 for c in p))

    def sampler(rng):
        def coord():
            den = rng.randint(1, 16)
            return Fraction(rng.randint(0, den), den)
        return (coord(), coord())

    return ConeMetricSpace("unit-box-2", cstruct2,
                           lambda x, y: tuple(abs(a - b) for a, b in zip(x, y)),
                           contains=contains, sampler=sampler)
