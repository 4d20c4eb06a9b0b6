"""Shared fixtures: a zoo of small structures and the session census."""

import pytest

from skewlat.census import enumerate_skew_lattices
from skewlat.core import FiniteSkewLattice
from skewlat.models import boolean_lattice, build_pfn_algebra, chain_lattice, diamond_m3, om_window

CENSUS_MAX_ORDER = 4


@pytest.fixture(scope="session")
def census_by_order():
    return {n: tuple(enumerate_skew_lattices(n)) for n in range(1, CENSUS_MAX_ORDER + 1)}


@pytest.fixture(scope="session")
def census_order_five():
    return tuple(enumerate_skew_lattices(5, order_cap=5))


@pytest.fixture(scope="session")
def census_to_order_five(census_by_order, census_order_five):
    return {**census_by_order, 5: census_order_five}


@pytest.fixture(scope="session")
def census_all(census_by_order):
    return tuple(S for n in sorted(census_by_order) for S in census_by_order[n])


@pytest.fixture
def chain2():
    return chain_lattice(2)


@pytest.fixture
def flat_left():
    # two-element class, meet = left projection
    return FiniteSkewLattice(2, ((0, 0), (1, 1)), ((0, 1), (0, 1)))


@pytest.fixture
def flat_right():
    return FiniteSkewLattice(2, ((0, 1), (0, 1)), ((0, 0), (1, 1)))


@pytest.fixture(scope="session")
def p22():
    return build_pfn_algebra(2, 2)


@pytest.fixture(scope="session")
def window4():
    return om_window(4)


@pytest.fixture
def m3():
    return diamond_m3()


@pytest.fixture
def b2():
    return boolean_lattice(2)
