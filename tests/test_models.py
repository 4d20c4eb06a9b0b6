"""The three worked model families and the reference lattices."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewlat.core import (
    CapExceededError,
    PreconditionError,
    StructureError,
    check_identity,
    check_symmetric,
    detect_zero,
    is_commutative,
    quotient,
)
from skewlat import models
from skewlat.models import (
    FinCofinSet,
    FiniteImageFunction,
    INF_A,
    Inf,
    INF_B,
    PartialFunction,
    boolean_lattice,
    build_pfn_algebra,
    chain_lattice,
    diamond_m3,
    fi_join,
    fi_meet,
    fi_one_point_chain,
    is_boolean_lattice,
    om_join,
    om_leq,
    om_meet,
    om_verify_no_infimum_of_infs,
    om_verify_no_join_of_naturals,
    om_window,
    pfn_carrier,
    product,
)

# --- partial functions -------------------------------------------------------

def test_override_join_is_order_sensitive():
    # the motivating pair: restriction commutes only on common ground
    f = PartialFunction.of({0: 0})
    g = PartialFunction.of({0: 1, 1: 0})
    assert f.meet(g) == PartialFunction.of({0: 0})
    assert g.meet(f) == PartialFunction.of({0: 1})
    assert f.join(g) == g
    assert g.join(f) == PartialFunction.of({0: 0, 1: 0})


def test_graph_must_be_functional():
    with pytest.raises(StructureError):
        PartialFunction.of([(0, 1), (0, 2)])


def test_graph_points_and_values_are_never_truncated():
    assert PartialFunction.of({np.int64(0): np.uint8(1)}) == PartialFunction.of({0: 1})
    for mapping, message in (({0.7: 1.9}, "graph point is 0.7"), ({0: 1.9}, "graph value is 1.9")):
        with pytest.raises(StructureError, match=f"^{message}, not an integer$"):
            PartialFunction.of(mapping)


def test_carrier_enumeration_starts_empty():
    carrier = pfn_carrier(2, 2)
    assert len(carrier) == 9
    assert carrier[0] == PartialFunction.of({})
    assert len(set(carrier)) == 9


def test_carrier_sizes_are_read_and_capped_before_any_function_is_listed(monkeypatch):
    for args, message in (((True, 1), "domain_size True"), ((2, 1.5), "codomain_size 1.5")):
        with pytest.raises(PreconditionError, match=f"^pfn_carrier: {message} is not an integer$"):
            pfn_carrier(*args)
    assert len(pfn_carrier(0, 2)) == len(pfn_carrier(3, 0)) == 1  # only the empty function

    def unlisted(*_):
        raise AssertionError("a partial function was listed")

    monkeypatch.setattr(models, "PartialFunction", unlisted)
    want = r"^partial-function carrier would have size 3\*\*30 > cap 4096; set SKEWLAT_BUILD_CAP to override$"
    with pytest.raises(CapExceededError, match=want):
        pfn_carrier(30, 2)


@pytest.mark.parametrize("m,b,order", [(1, 1, 2), (1, 2, 3), (2, 2, 9), (2, 3, 16), (3, 2, 27)])
def test_algebra_order_is_options_to_the_points(m, b, order):
    S = build_pfn_algebra(m, b)
    assert S.order == order
    assert S.zero == 0 and S.labels[0] == "{}"


@pytest.mark.parametrize("m,b", [(2, 2), (3, 1), (4, 2), (5, 2), (3, 3)])
def test_algebra_tables_are_the_carrier_operations(m, b):
    # the digit-wise tables against PartialFunction's own meet and join
    carrier = pfn_carrier(m, b)
    index = {f: i for i, f in enumerate(carrier)}
    S = build_pfn_algebra(m, b)
    assert S.meet_table == tuple(tuple(index[f.meet(g)] for g in carrier) for f in carrier)
    assert S.join_table == tuple(tuple(index[f.join(g)] for g in carrier) for f in carrier)
    assert S.labels == tuple(f.label() for f in carrier)
    assert S.zero == index[PartialFunction.of({})]


def test_algebra_cap_and_override(monkeypatch):
    def unevaluated(*_):
        raise AssertionError("a table cell was evaluated")

    with pytest.raises(CapExceededError):
        build_pfn_algebra(7, 3)  # 4^7 > 4096
    with monkeypatch.context() as patch:  # every builder refuses before it evaluates a cell
        patch.setattr(models, "om_meet", unevaluated)
        want = r"^om_window\(5000\) would have order 5003 > cap 4096; set SKEWLAT_BUILD_CAP to override$"
        with pytest.raises(CapExceededError, match=want):
            om_window(5000)
        patch.setattr(models, "_product_table", unevaluated)
        with pytest.raises(CapExceededError, match=r"^product of orders 64 and 128 would have order 8192 > cap 4096; "):
            product(boolean_lattice(6), boolean_lattice(7))
    monkeypatch.setenv("SKEWLAT_BUILD_CAP", "10")
    assert build_pfn_algebra(2, 2).order == 9
    with pytest.raises(CapExceededError):
        build_pfn_algebra(2, 3)  # 16 > the tightened cap
    assert om_window(7).order == chain_lattice(10).order == 10 and boolean_lattice(3).order == 8
    for build, order in ((lambda: om_window(8), 11), (lambda: chain_lattice(11), 11), (lambda: boolean_lattice(4), 16)):
        with pytest.raises(CapExceededError, match=f" would have order {order} > cap 10; set SKEWLAT_BUILD_CAP to override$"):
            build()


def test_builders_check_the_cap_before_they_compute_the_order():
    tail = " > cap 4096; set SKEWLAT_BUILD_CAP to override"
    for build, order in (
        (lambda: boolean_lattice(20000), "boolean lattice on 20000 atoms would have order 2**20000"),
        (lambda: build_pfn_algebra(20000, 2), "partial-function algebra would have order 3**20000"),
        (lambda: build_pfn_algebra(2, 10**5000), "partial-function algebra would have order about 10**10000"),
        (lambda: om_window(10**5000), "om_window(about 10**5000) would have order about 10**5000"),
    ):
        with pytest.raises(CapExceededError) as err:
            build()
        assert str(err.value) == order + tail
    tracemalloc.start()
    try:
        want = r"^boolean lattice on 1000000000000 atoms would have order 2\*\*1000000000000 > cap 4096; "
        with pytest.raises(CapExceededError, match=want):
            boolean_lattice(10**12)  # 1 << m would take 125 GB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("m,b", [(2, 1), (3, 2), (2, 3)])
def test_algebra_is_the_power_of_its_one_point_factor(m, b):
    # the product numbers (a, b) as a·|B| + b, so the first point's digit leads
    S = build_pfn_algebra(m, b)
    P = functools.reduce(product, [build_pfn_algebra(1, b)] * m)
    assert (P.meet_table, P.join_table) == (S.meet_table, S.join_table)
    assert P.zero is None and P.labels is None


def test_single_valued_functions_commute():
    # one possible value makes override order irrelevant: a Boolean algebra
    S = build_pfn_algebra(2, 1)
    assert is_commutative(S)
    assert is_boolean_lattice(S)


def test_two_values_break_commutativity():
    S = build_pfn_algebra(1, 2)
    assert not is_commutative(S)
    assert S.meet(1, 2) == 1 and S.meet(2, 1) == 2


def test_algebra_is_left_handed_strongly_distributive(p22):
    assert p22.validity.ok
    assert check_identity(p22, "strongly_distributive").ok
    assert check_identity(p22, "left_handed").ok
    assert not check_identity(p22, "right_handed").ok
    assert check_symmetric(p22).ok
    assert detect_zero(p22) == 0


def test_quotient_collapses_to_domains(p22):
    q = quotient(p22).lattice
    assert q.order == 4
    assert is_boolean_lattice(q)


# --- the chain with two tops --------------------------------------------------

def test_top_pair_projections():
    with pytest.raises(StructureError, match=r"^Inf side must be 'a' or 'b', got 'c'$"):
        Inf("c")
    assert om_meet(INF_A, INF_B) == INF_A
    assert om_meet(INF_B, INF_A) == INF_B
    assert om_join(INF_A, INF_B) == INF_B
    assert om_join(INF_B, INF_A) == INF_A


def test_naturals_meet_like_a_chain():
    assert om_meet(3, 5) == 3
    assert om_join(3, 5) == 5
    assert om_meet(INF_A, 4) == 4 == om_meet(4, INF_B)
    # any natural that operator.index reads is an element
    assert om_meet(np.int64(3), 5) == 3 and om_join(np.uint8(3), 5) == 5
    assert om_meet(INF_A, np.uint8(4)) == 4 and om_leq(np.int64(2), INF_B)
    for bad, message in ((-1, "naturals only, got -1"), (np.int64(-1), "naturals only, got -1"),
                         ("x", "not an element of the two-top chain: 'x'"),
                         (True, "not an element of the two-top chain: True")):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            om_meet(bad, 0)
    assert om_join(4, INF_A) == INF_A


def test_order_places_tops_above_everything_but_each_other():
    assert om_leq(9, INF_A) and om_leq(9, INF_B)
    assert not om_leq(INF_A, INF_B) and not om_leq(INF_B, INF_A)
    assert om_leq(INF_A, INF_A)
    assert om_leq(2, 7) and not om_leq(7, 2)


_OM_ELEMENTS = st.one_of(
    st.integers(min_value=0, max_value=12), st.just(INF_A), st.just(INF_B)
)


@settings(max_examples=150, deadline=None)
@given(_OM_ELEMENTS, _OM_ELEMENTS, _OM_ELEMENTS)
def test_chain_with_two_tops_satisfies_the_axioms(x, y, z):
    assert om_meet(x, x) == x and om_join(x, x) == x
    assert om_meet(om_meet(x, y), z) == om_meet(x, om_meet(y, z))
    assert om_join(om_join(x, y), z) == om_join(x, om_join(y, z))
    assert om_meet(x, om_join(x, y)) == x
    assert om_join(x, om_meet(x, y)) == x
    assert om_meet(om_join(x, y), y) == y
    assert om_join(om_meet(x, y), y) == y


@settings(max_examples=100, deadline=None)
@given(_OM_ELEMENTS, _OM_ELEMENTS)
def test_order_definition_matches_the_operations(x, y):
    assert om_leq(x, y) == (om_meet(x, y) == om_meet(y, x) == x)


def test_window_agrees_with_the_infinite_model():
    k = 6
    W = om_window(k)
    elements = list(range(k + 1)) + [INF_A, INF_B]
    to_id = {e: i for i, e in enumerate(elements)}
    for x in elements:
        for y in elements:
            assert W.meet(to_id[x], to_id[y]) == to_id[om_meet(x, y)]
            assert W.join(to_id[x], to_id[y]) == to_id[om_join(x, y)]


@pytest.mark.parametrize("k", [1, 2, 5])
def test_window_shape_and_class(k):
    W = om_window(k)
    assert W.order == k + 3
    assert W.zero == 0
    assert W.labels[-2:] == ("inf_a", "inf_b")
    assert W.validity.ok
    assert check_identity(W, "left_handed").ok
    assert check_identity(W, "strongly_distributive").ok


def test_window_needs_positive_depth():
    with pytest.raises(PreconditionError):
        om_window(0)


def test_unbounded_chain_has_no_join_certificate():
    cert = om_verify_no_join_of_naturals(100)
    assert cert.ok
    clauses = dict(cert.witness)
    assert clauses["depth"] == 100
    assert all(v is True for name, v in cert.witness if name != "depth")


def test_top_pair_has_no_infimum_certificate():
    cert = om_verify_no_infimum_of_infs(50)
    assert cert.ok
    assert dict(cert.witness)["depth"] == 50


def test_certificates_reject_a_collapsed_order():
    # if the tops were comparable the case analysis must fail
    everything = lambda a, b: True
    assert not om_verify_no_join_of_naturals(10, leq=everything).ok
    assert not om_verify_no_infimum_of_infs(10, leq=everything).ok


# --- finite/cofinite sets -------------------------------------------------------

_UNIVERSE = range(50)
_POINTS = st.frozensets(st.integers(min_value=0, max_value=20), max_size=6)
_FCSETS = st.builds(
    lambda pts, cof: FinCofinSet.cofin(pts) if cof else FinCofinSet.fin(pts),
    _POINTS,
    st.booleans(),
)


def _materialize(s: FinCofinSet) -> set:
    return {x for x in _UNIVERSE if x in s}


@settings(max_examples=150, deadline=None)
@given(_FCSETS, _FCSETS)
def test_fincofin_ops_match_set_semantics(a, b):
    assert _materialize(a & b) == _materialize(a) & _materialize(b)
    assert _materialize(a | b) == _materialize(a) | _materialize(b)
    assert _materialize(a - b) == _materialize(a) - _materialize(b)
    assert _materialize(a.complement()) == set(_UNIVERSE) - _materialize(a)
    assert a.complement().complement() == a
    assert a.disjoint(b) == (a & b).is_empty


def test_fincofin_canonical_repr():
    assert repr(FinCofinSet.fin([3, 1])) == "{1,3}"
    assert repr(FinCofinSet.cofin([5])) == "N∖{5}"
    assert repr(FinCofinSet.fin([])) == "{}"
    assert repr(FinCofinSet.cofin([])) == "N"


def test_membership_beyond_any_finite_horizon():
    assert 10**9 in FinCofinSet.cofin([2])
    assert 10**9 not in FinCofinSet.fin([2])
    with pytest.raises(StructureError, match="^point sets live on the naturals$"):
        FinCofinSet.fin([-1])


def test_points_are_never_truncated():
    assert FinCofinSet.cofin([np.int64(2)]) == FinCofinSet.cofin([2])
    with pytest.raises(StructureError, match=r"^point is 1\.5, not an integer$"):
        FinCofinSet.fin([1.5])


def test_emptiness():
    assert FinCofinSet.fin([]).is_empty
    assert not FinCofinSet.cofin([]).is_empty
    assert (FinCofinSet.fin([1]) & FinCofinSet.fin([2])).is_empty


# --- finite-image functions ------------------------------------------------------

def test_fibers_must_be_disjoint():
    one = FinCofinSet.fin([1])
    for fibers, message in (
        (((0, FinCofinSet.fin([1, 2])), (1, FinCofinSet.fin([2, 3]))), "fibers of 0 and 1 overlap"),
        (((1, one), (0, FinCofinSet.fin([2]))), "fibers must be sorted by distinct values"),
        (((-1, one),), "values live on the naturals"),
        (((0, frozenset([1])),), "preimages must be FinCofinSet instances"),
        (((0, one), (1, FinCofinSet.fin())), "fiber of 1 is empty"),
    ):
        with pytest.raises(StructureError, match=f"^{message}$"):
            FiniteImageFunction(fibers)


def test_fiber_values_are_never_truncated():
    one = FinCofinSet.fin([1])
    assert FiniteImageFunction(((np.uint8(2), one),)).fibers == ((2, one),)
    with pytest.raises(StructureError, match=r"^fiber value is 2\.9, not an integer$"):
        FiniteImageFunction(((2.9, one),))


def _pairwise_overlap(fibers):
    # the rule the one-pass check must agree with: the first pair of fibers that meet, named
    for (v1, p1), (v2, p2) in itertools.combinations(fibers, 2):
        if not p1.disjoint(p2):
            return f"fibers of {v1} and {v2} overlap"
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.frozensets(st.integers(0, 6), max_size=4)).filter(lambda f: f[1] or not f[0]),
                max_size=5))
def test_one_pass_overlap_rule_matches_the_pairs(specs):
    fibers = tuple((v, FinCofinSet(finite, points)) for v, (finite, points) in enumerate(specs))
    message = _pairwise_overlap(fibers)
    if message is None:
        assert FiniteImageFunction(fibers).fibers == fibers
    else:
        with pytest.raises(StructureError, match=f"^{message}$"):
            FiniteImageFunction(fibers)


def _domain_fold(f):
    # the union of the fibers one at a time, the rule the one-pass domain must agree with
    out = FinCofinSet.fin()
    for _, p in f.fibers:
        out = out | p
    return out


@settings(max_examples=200, deadline=None)
@given(_FCSETS, st.lists(st.frozensets(st.integers(0, 20), min_size=1, max_size=3), max_size=5))
def test_domain_is_the_union_of_the_fibers(extra, finite):
    # disjoint finite fibers, and the extra set as one more fiber, cut to miss them, when it stays nonempty
    taken = set()
    fibers = []
    for points in finite:
        if points - taken:
            fibers.append(FinCofinSet.fin(points - taken))
            taken |= points
    last = extra - FinCofinSet.fin(taken)
    if not last.is_empty:
        fibers.append(last)
    f = FiniteImageFunction(tuple(enumerate(fibers)))
    assert f.domain() == _domain_fold(f)


def test_from_fibers_merges_and_drops_empty():
    f = FiniteImageFunction.from_fibers(
        [(1, FinCofinSet.fin([0])), (1, FinCofinSet.fin([4])), (2, FinCofinSet.fin([]))]
    )
    assert f == FiniteImageFunction.from_fibers([(1, FinCofinSet.fin([0, 4]))])
    assert f.image_size == 1


def test_pointwise_reading():
    f = FiniteImageFunction.from_fibers(
        [(0, FinCofinSet.cofin([0, 1])), (1, FinCofinSet.fin([0]))]
    )
    assert f.value_at(0) == 1
    assert f.value_at(1) is None
    assert f.value_at(10**6) == 0
    assert f.image_size == 2


@st.composite
def _finite_image_functions(draw):
    assignments = draw(
        st.dictionaries(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=3), max_size=5)
    )
    fibers = {}
    for x, v in assignments.items():
        fibers.setdefault(v, set()).add(x)
    pairs = [(v, FinCofinSet.fin(pts)) for v, pts in fibers.items()]
    if draw(st.booleans()):
        pairs.append((draw(st.integers(min_value=0, max_value=3)), FinCofinSet.cofin(assignments)))
    return FiniteImageFunction.from_fibers(pairs)


@settings(max_examples=120, deadline=None)
@given(_finite_image_functions(), _finite_image_functions())
def test_finite_image_absorption(f, g):
    assert fi_meet(f, f) == f and fi_join(f, f) == f
    assert fi_meet(f, fi_join(f, g)) == f
    assert fi_join(f, fi_meet(f, g)) == f
    assert fi_meet(fi_join(f, g), g) == g
    assert fi_join(fi_meet(f, g), g) == g


@settings(max_examples=80, deadline=None)
@given(_finite_image_functions(), _finite_image_functions(), _finite_image_functions())
def test_finite_image_associativity_and_distribution(f, g, h):
    assert fi_meet(fi_meet(f, g), h) == fi_meet(f, fi_meet(g, h))
    assert fi_join(fi_join(f, g), h) == fi_join(f, fi_join(g, h))
    # handedness and both strong distributive laws
    assert fi_meet(fi_meet(f, g), f) == fi_meet(f, g)
    assert fi_join(fi_join(f, g), f) == fi_join(g, f)
    assert fi_meet(fi_join(f, g), h) == fi_join(fi_meet(f, h), fi_meet(g, h))
    assert fi_meet(f, fi_join(g, h)) == fi_join(fi_meet(f, g), fi_meet(f, h))


def test_one_point_chain_grows_one_value_per_step():
    assert fi_one_point_chain(10) == [(i, i + 1) for i in range(10)]


def test_one_point_join_overrides_nothing():
    a = FiniteImageFunction.one_point(0)
    b = FiniteImageFunction.one_point(1)
    ab = fi_join(a, b)
    assert ab.value_at(0) == 0 and ab.value_at(1) == 1
    assert ab.image_size == 2


# --- reference lattices -------------------------------------------------------------

def test_chain_lattice_shape():
    C = chain_lattice(4)
    assert C.order == 4 and C.zero == 0
    assert is_commutative(C) and C.validity.ok
    assert C.meet(1, 3) == 1 and C.join(1, 3) == 3


def test_boolean_lattice_shape():
    B = boolean_lattice(3)
    assert B.order == 8
    assert B.labels[0] == "{}" and B.labels[7] == "{0,1,2}"
    assert B.meet(3, 5) == 1 and B.join(3, 5) == 7


def test_boolean_recognizer():
    assert is_boolean_lattice(boolean_lattice(0))
    assert is_boolean_lattice(chain_lattice(2))
    assert not is_boolean_lattice(chain_lattice(3))
    assert not is_boolean_lattice(diamond_m3())


def test_recognizer_rejects_noncommutative(flat_left):
    assert not is_boolean_lattice(flat_left)
