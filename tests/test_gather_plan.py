"""The gather plans against the per-law slab evaluator they replaced.

Below the row regime, an unrestricted law scan once evaluated one law at
a time over x-slabs of ``core._SLAB_CELLS`` cells, every subterm a flat
take ``T.ravel().take(a*n + b)`` over an open grid of x, y and z.  That
evaluator is kept in ``test_slab_scan`` (``slab_mask``), and its scan is
the oracle here: every
certificate of ``validate_skew_axioms``, ``check_identity`` and
``is_frame`` must equal the one its law-by-law scan gives, on the oracle
set of ``test_identity_lemmas``, on one-cell mutants of it, and at the
orders where a check's plans change shape: 15/16 (the eight axioms stop
fitting one plan), 20/21 (one law in x, y, z stops fitting), 32 and 64
(x-slabs of 8 and 2), 81 and 90/91 (one law in x and y per plan, then
x-slabs).  At orders 64 and 65 the checks run with their lemmas on, which
set up from 65 only.  The plan cache is bounded and holds read-only arrays.
"""

import random

import numpy as np

from skewlat import core
from skewlat.census import enumerate_skew_lattices
from skewlat.core import Certificate, FiniteSkewLattice, IDENTITY_NAMES, check_identity, is_commutative
from skewlat.frames import is_frame
from skewlat.models import boolean_lattice, build_pfn_algebra, chain_lattice, diamond_m3, product

from test_cli import NON_SYMMETRIC_ORDER_SEVEN
from test_identity_lemmas import _fresh, oracle_set  # noqa: F401  (oracle_set is a fixture)
from test_slab_scan import slab_mask

# --- the oracle: the slab evaluator, one law at a time ----------------------------------


def slab_scan(S, law):
    """The first violation of ``law`` in lexicographic order, an x-slab of the budget at a time."""
    n, ids = S.order, S._tables.ids
    step = max(1, core._SLAB_CELLS // n ** (law.arity - 1))
    for x0 in range(0, n, step):
        w = core._first_true(slab_mask(S, law, ids[x0 : x0 + step]))
        if w is not None:
            return (x0 + w[0], *w[1:])
    return None


def oracle_axioms(S):
    for law in core._AXIOM_LAWS:
        w = slab_scan(S, law)
        if w is not None:
            return Certificate(False, "skew lattice axioms", (law.name, w))
    if S.zero is not None:
        m, j, z, ids = S._m, S._j, S.zero, np.arange(S.order)
        bad = np.flatnonzero((m[:, z] != z) | (m[z] != z) | (j[:, z] != ids) | (j[z] != ids))
        if bad.size:
            return Certificate(False, "skew lattice axioms", ("zero laws x∧0=0=0∧x, x∨0=x=0∨x", (int(bad[0]),)))
    return Certificate(True, "skew lattice axioms")


def oracle_identity(S, name):
    for law in core._IDENTITY_LAWS[name]:
        w = slab_scan(S, law)
        if w is not None:
            return Certificate(False, name, (law.name, w))
    return Certificate(True, name)


def oracle_frame(L):
    w = slab_scan(L, core._FRAME_LAW)
    return Certificate(True, "frame") if w is None else Certificate(False, "frame", (w[2], (w[0], w[1])))


# --- inputs -----------------------------------------------------------------------------


def _one_cell(S, rng, diagonal=False):
    tables = [np.array(S._m), np.array(S._j)]
    which, a, b = rng.randrange(2), rng.randrange(S.order), rng.randrange(S.order)
    b = a if diagonal else b
    tables[which][a, b] = rng.choice([v for v in range(S.order) if v != tables[which][a, b]])
    return FiniteSkewLattice(S.order, *tables, zero=S.zero)


def _boundary_structures():
    # skew lattices at the orders where the plans change shape: products of small
    # non-commutative classes with chains fail the identities their factors fail
    X2 = FiniteSkewLattice(2, ((0, 0), (1, 1)), ((0, 1), (0, 1)))  # a left-zero band
    X3 = next(S for S in enumerate_skew_lattices(3) if not is_commutative(S) and not check_identity(S, "normal").ok)
    X7 = FiniteSkewLattice(7, *NON_SYMMETRIC_ORDER_SEVEN[0])
    M3 = diamond_m3()
    return [
        product(X3, chain_lattice(5)), product(M3, chain_lattice(3)), chain_lattice(15),  # 15
        product(X2, chain_lattice(8)), chain_lattice(16),  # 16
        product(X2, chain_lattice(10)), product(M3, chain_lattice(4)),  # 20
        product(X3, chain_lattice(7)), product(X7, chain_lattice(3)), chain_lattice(21),  # 21
        product(X2, chain_lattice(16)), boolean_lattice(5), product(M3, chain_lattice(7)),  # 32, 35
        product(X2, chain_lattice(32)), boolean_lattice(6),  # 64
        build_pfn_algebra(4, 2), product(X3, chain_lattice(27)),  # 81
        product(X3, chain_lattice(30)),  # 90
        product(X7, chain_lattice(13)),  # 91
    ]


def _check(S):
    """Each certificate of S against the oracle's; returns them."""
    S = _fresh(S)
    axioms = core.validate_skew_axioms(S)
    assert axioms == oracle_axioms(S), (S.meet_table, S.join_table)
    if not axioms.ok:
        # the plans run on any table: the unguarded identity scans too
        identities = [core._identity_scan(S, name) for name in IDENTITY_NAMES]
    else:
        identities = [check_identity(S, name) for name in IDENTITY_NAMES]
    assert identities == [oracle_identity(S, name) for name in IDENTITY_NAMES], (S.meet_table, S.join_table)
    if axioms.ok and is_commutative(S):
        assert is_frame(S) == oracle_frame(S), (S.meet_table, S.join_table)
    return axioms, identities


def _failing_laws(certs):
    return {cert.witness[0] for cert in certs if not cert.ok}


ALL_IDENTITY_LAWS = {law.name for laws in core._IDENTITY_LAWS.values() for law in laws}


# --- tests ------------------------------------------------------------------------------


def test_certificates_match_the_slab_oracle_on_the_oracle_set(oracle_set):  # noqa: F811
    frames = 0
    for S in oracle_set:
        axioms, _ = _check(S)
        assert axioms.ok
        frames += is_commutative(S)
    assert len(oracle_set) > 250 and frames > 20


def test_certificates_match_the_slab_oracle_on_one_cell_mutants(oracle_set):  # noqa: F811
    # three one-cell mutants of each structure, so that each axiom and each identity
    # law is the first failure somewhere
    rng = random.Random(2029)
    axioms_failing, identities_failing = set(), set()
    for S in oracle_set:
        for _ in range(3 if S.order > 1 else 0):
            axioms, identities = _check(_one_cell(S, rng))
            axioms_failing |= _failing_laws([axioms])
            identities_failing |= _failing_laws(identities)
    assert axioms_failing >= {law.name for law in core._AXIOM_LAWS}
    assert identities_failing == ALL_IDENTITY_LAWS


def test_certificates_match_the_slab_oracle_at_the_plan_bounds():
    rng = random.Random(1516)
    structures = _boundary_structures()
    assert sorted({S.order for S in structures}) == [15, 16, 20, 21, 32, 35, 64, 81, 90, 91]
    axioms_failing, identities_failing, frames = set(), set(), []
    for S in structures:
        axioms, identities = _check(S)
        assert axioms.ok
        identities_failing |= _failing_laws(identities)
        frames += [is_frame(S).ok] if is_commutative(S) else []
        for diagonal in (False, False, True):
            axioms, identities = _check(_one_cell(S, rng, diagonal))
            axioms_failing |= _failing_laws([axioms])
            identities_failing |= _failing_laws(identities)
    assert axioms_failing == {law.name for law in core._AXIOM_LAWS[:4]}
    assert len(identities_failing) >= 8 and True in frames and False in frames


def _lemma_memo(S):
    """The lemmas whose memo entries the checks leave on a fresh copy of S: "E" and
    "G" where Lemmas E and G proved their laws, "J" where Lemma J scanned one."""
    T = _fresh(S)
    if core.validate_skew_axioms(T).ok:
        for name in IDENTITY_NAMES:
            check_identity(T, name)
    proofs = {core._IDENTITY_LAWS["normal"][0].text: "E", core._IDENTITY_LAWS["distributive"][0].text: "G"}
    keys = [key for key in T._memo if isinstance(key, tuple)]
    found = {proofs[key[1]] for key in keys if key[0] == "lemma" and key[1] in proofs and T._memo[key]}
    return found | {"J" for key in keys if key[0] == "Lemma J"}


def test_the_lemmas_start_with_the_row_regime_at_order_65(census_by_order, census_order_five):
    # at order 64 every check runs gather plans; at 65 a law in x, y, z runs one x at a
    # time, and there the lemmas apply: E and G, which set up only there, and Lemma J,
    # which only the row steps ask.  On each side, a chain, a product that fails an
    # identity of Lemma J's laws and one-cell mutants of both give the oracle's
    # certificates, and the memo entries of the three lemmas appear at 65 only
    rng = random.Random(6465)
    X4 = next(X for X in census_by_order[4] if not check_identity(X, "strongly_distributive").ok)
    X5 = next(X for X in census_order_five if not check_identity(X, "distributive").ok)
    for n, mixed in ((64, product(X4, chain_lattice(16))), (65, product(X5, chain_lattice(13)))):
        assert _shape((core._FRAME_LAW,), n) == (["row"] if n == 65 else [(1, 2)])
        structures = [chain_lattice(n), mixed]
        structures += [_one_cell(S, rng, diagonal) for S in structures for diagonal in (False, False, True)]
        failing = set()
        for S in structures:
            axioms, identities = _check(S)
            failing |= _failing_laws([axioms, *identities])
        assert failing >= {"meet associativity", "join associativity", "x∧(y∨z)∧x = (x∧y∧x)∨(x∧z∧x)",
                           "(x∨y)∧z = (x∧z)∨(y∧z)"}, (n, failing)
        memo = [_lemma_memo(S) for S in structures]
        if n == 64:
            assert memo == [set()] * len(structures)
        else:
            assert memo[:2] == [{"E", "G", "J"}, {"E", "J"}] and "J" in set().union(*memo[2:]), memo


def _shape(laws, n):
    # each step of a check's schedule: the number of laws of a plan and its slab width, or "row"
    return [(len(step.laws), step.width) if isinstance(step, core._Plan) else "row"
            for step in core._schedule(laws, n, core._SLAB_CELLS)]


def test_the_bound_orders_straddle_each_change_of_shape():
    axioms, left = core._AXIOM_LAWS, core._IDENTITY_LAWS["left_handed"]
    assert _shape(axioms, 15) == [(8, 15)]
    assert _shape(axioms, 16) == [(3, 16), (5, 16)]
    assert _shape((core._FRAME_LAW,), 20) == [(1, 20)] and _shape((core._FRAME_LAW,), 21) == [(1, 18)]
    assert _shape((core._FRAME_LAW,), 32) == [(1, 8)] and _shape((core._FRAME_LAW,), 64) == [(1, 2)]
    assert _shape((core._FRAME_LAW,), 65) == ["row"]
    assert _shape(left, 64) == [(2, 64)] and _shape(left, 81) == [(1, 81), (1, 81)]
    assert _shape(left, 90) == [(1, 90), (1, 90)] and _shape(left, 91) == [(1, 90), (1, 90)]


def test_the_plan_cache_stays_bounded_and_read_only():
    core._schedule.cache_clear()
    for n in range(1, 101):
        S = chain_lattice(n)
        assert S.validity.ok and check_identity(S, "left_handed").ok and is_frame(S).ok
    info = core._schedule.cache_info()
    assert info.maxsize == core._PLAN_CACHE and info.currsize == core._PLAN_CACHE < info.misses
    for n in (5, 16, 32, 91):
        for step in core._schedule(core._AXIOM_LAWS, n, core._SLAB_CELLS):
            if isinstance(step, core._Plan):
                arrays = [a for together, _ in step.depths if together for a in together[3:] if a is not None]
                arrays += list(step.gathered[1:3])
                assert arrays and not any(a.flags.writeable for a in arrays), n
