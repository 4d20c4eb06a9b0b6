"""Frame checks, the noncommutative variant, and the equivalence verifier."""

import functools
import itertools

import pytest

from skewlat.census import canonicalize, enumerate_skew_lattices
from skewlat.completeness import enumerate_commuting_subsets, sup_natural
from skewlat.core import (
    Certificate,
    FiniteSkewLattice,
    Homomorphism,
    PreconditionError,
    check_identity,
    check_symmetric,
    detect_zero,
    green_d,
    is_homomorphism,
    lattice_from_order,
    natural_leq,
    quotient,
    subalgebra,
)
from skewlat.frames import check_theorem_ncframes, is_frame, is_ncframe
from skewlat.models import boolean_lattice, build_pfn_algebra, chain_lattice, diamond_m3, om_window, product


def _sd_with_zero(max_order=4):
    for n in range(1, max_order + 1):
        for S in enumerate_skew_lattices(n):
            if detect_zero(S) is not None and check_identity(S, "strongly_distributive").ok:
                yield S


# --- frames ----------------------------------------------------------------

def test_boolean_lattice_is_a_frame(b2):
    verdict = is_frame(b2)
    assert verdict.ok and bool(verdict)
    assert verdict.checked == "frame"
    assert verdict.witness is None


def test_chains_are_frames():
    assert is_frame(chain_lattice(3)).ok
    assert is_frame(chain_lattice(1)).ok


def test_diamond_fails_with_reusable_witness(m3):
    verdict = is_frame(m3)
    assert not verdict.ok
    x, ys = verdict.witness
    assert (x, ys) == (3, (1, 2))
    joined = 0
    for y in ys:
        joined = m3.join(joined, y)
    folded = 0
    for y in ys:
        folded = m3.join(folded, m3.meet(x, y))
    assert m3.meet(x, joined) != folded


def test_quotient_objects_are_accepted(p22):
    assert is_frame(quotient(p22)).ok


def test_noncommutative_input_is_rejected(flat_left):
    with pytest.raises(PreconditionError):
        is_frame(flat_left)


def test_invalid_input_is_rejected():
    proj = ((0, 0), (1, 1))
    with pytest.raises(PreconditionError):
        is_frame(FiniteSkewLattice(2, proj, proj))


def _exhaustive_frame_scan(L):
    # oracle: meet distributes over the join of every nonempty subset,
    # subsets by size then lexicographically, x innermost
    n = L.order
    mt, jt = L.meet_table, L.join_table
    for size in range(1, n + 1):
        for Y in itertools.combinations(range(n), size):
            join_y = functools.reduce(lambda a, b: jt[a][b], Y)
            for x in range(n):
                rhs = functools.reduce(lambda a, b: jt[a][b], [mt[x][y] for y in Y])
                if mt[x][join_y] != rhs:
                    return Certificate(False, "frame", (x, Y))
    return Certificate(True, "frame")


def _pairwise_frame_scan(L):
    # reference: pairs y < z in lexicographic order, every x for each
    n = L.order
    mt, jt = L.meet_table, L.join_table
    for y, z in itertools.combinations(range(n), 2):
        for x in range(n):
            if mt[x][jt[y][z]] != jt[mt[x][y]][mt[x][z]]:
                return Certificate(False, "frame", (x, (y, z)))
    return Certificate(True, "frame")


@pytest.mark.parametrize(
    "build, witness",
    [
        (lambda: product(diamond_m3(), chain_lattice(13)), (39, (13, 26))),
        (lambda: product(chain_lattice(13), diamond_m3()), (3, (1, 2))),
        (lambda: functools.reduce(product, (chain_lattice(2), diamond_m3(), chain_lattice(7))), (21, (7, 14))),
        (lambda: chain_lattice(70), None),
        (lambda: boolean_lattice(7), None),
    ],
    ids=["M3xC13", "C13xM3", "C2xM3xC7", "C70", "B7"],
)
def test_the_row_path_scan_matches_the_pairwise_loop(build, witness):
    # orders 65 to 128: the compiled scan takes one x at a time here
    L = build()
    assert L.order > 64
    verdict = is_frame(L)
    assert verdict == _pairwise_frame_scan(L)
    assert verdict.witness == witness


def _lattice(n, relations):
    # reflexive-transitive closure of the given a <= b pairs
    leq = [[a == b or (a, b) in relations for b in range(n)] for a in range(n)]
    for k, a, b in itertools.product(range(n), repeat=3):
        leq[a][b] = leq[a][b] or (leq[a][k] and leq[k][b])
    return lattice_from_order(leq)


ORDER_FIVE_LATTICES = (
    ((0, 1), (1, 2), (2, 3), (3, 4)),  # chain
    ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),  # M3
    ((0, 1), (1, 2), (2, 4), (0, 3), (3, 4)),  # N5
    ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4)),  # B2 over a new bottom
    ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4)),  # B2 under a new top
)


def test_exhaustive_and_pairwise_checks_agree(census_by_order, m3, b2):
    lattices = [quotient(S).lattice for n in census_by_order for S in census_by_order[n]]
    lattices += [_lattice(5, rel) for rel in ORDER_FIVE_LATTICES]
    lattices += [m3, b2, chain_lattice(4), chain_lattice(12), boolean_lattice(3)]
    non_frames = 0
    for L in lattices:
        verdict = is_frame(L)
        assert verdict == _exhaustive_frame_scan(L) == _pairwise_frame_scan(L)
        non_frames += not verdict
    assert non_frames == 3


# --- noncommutative frames ------------------------------------------------------

def test_partial_functions_and_windows_are_ncframes(p22, window4):
    assert is_ncframe(build_pfn_algebra(1, 2)).ok
    assert is_ncframe(p22).ok
    assert is_ncframe(om_window(3)).ok
    assert is_ncframe(window4).ok


def test_missing_zero_is_the_first_reason(flat_left):
    cert = is_ncframe(flat_left)
    assert not cert.ok
    assert cert.witness == ("no zero", None)


def test_weak_distributivity_is_reported(m3):
    cert = is_ncframe(m3)
    assert not cert.ok
    reason, detail = cert.witness
    assert "distributive" in reason


def test_strong_distributivity_implies_normal_and_symmetric(census_to_order_five, p22):
    # Leech 1992; is_ncframe relies on it and raises if it ever fails
    models = [p22, build_pfn_algebra(2, 3), boolean_lattice(3), chain_lattice(5), diamond_m3()]
    models += [om_window(k) for k in range(1, 10)]
    strong = 0
    for S in [*itertools.chain.from_iterable(census_to_order_five.values()), *models]:
        if check_identity(S, "strongly_distributive").ok:
            strong += 1
            assert check_identity(S, "normal").ok and check_symmetric(S).ok, S
    assert strong == 47  # 34 of the 85 census structures and 13 of the 14 models


def test_every_small_strongly_distributive_structure_with_zero_is_an_ncframe():
    checked = 0
    for S in _sd_with_zero(4):
        assert is_ncframe(S).ok
        checked += 1
    assert checked > 0


# --- proof-step invariants ---------------------------------------------------------

def test_translated_suprema_stay_below_the_meet(p22, window4):
    # sup of {x ∧ y : y in Y} never exceeds x ∧ sup Y
    for S in [*_sd_with_zero(3), p22, window4]:
        for c in enumerate_commuting_subsets(S):
            s = sup_natural(S, c)
            if s is None:
                continue
            for x in range(S.order):
                translated = {S.meet(x, y) for y in c}
                t = sup_natural(S, translated)
                assert t is not None
                assert natural_leq(S, t, S.meet(x, s))


def test_meet_is_monotone_on_strongly_distributive_structures(p22):
    for S in [*_sd_with_zero(3), p22]:
        for x in range(S.order):
            for y in range(S.order):
                for z in range(S.order):
                    if natural_leq(S, y, z):
                        assert natural_leq(S, S.meet(x, y), S.meet(x, z))


# --- the equivalence verifier ---------------------------------------------------------

def test_equivalence_holds_on_the_models(p22, window4):
    # P(5,2) has order 243, where a subset walk would visit about 10^11 subsets
    for S in (p22, window4, build_pfn_algebra(1, 2), chain_lattice(3), boolean_lattice(2), build_pfn_algebra(5, 2)):
        cert = check_theorem_ncframes(S)
        assert cert.ok
        evidence = dict(cert.witness)
        assert evidence["ncframe"] is True and evidence["shadow_is_frame"] is True


def test_trivial_structure_passes():
    one = FiniteSkewLattice(1, ((0,),), ((0,),), zero=0)
    assert check_theorem_ncframes(one).ok


def test_equivalence_across_the_census():
    checked = 0
    for S in _sd_with_zero(4):
        assert check_theorem_ncframes(S).ok
        checked += 1
    assert checked >= 10


def test_preconditions_are_enforced(m3, flat_left):
    with pytest.raises(PreconditionError):
        check_theorem_ncframes(m3)  # not strongly distributive
    with pytest.raises(PreconditionError):
        check_theorem_ncframes(flat_left)  # no zero
    proj = ((0, 0), (1, 1))
    with pytest.raises(PreconditionError):
        check_theorem_ncframes(FiniteSkewLattice(2, proj, proj))  # invalid


# --- the converse direction: top down-sets copy the quotient ---------------------------

def test_top_element_downsets_are_copies_of_the_quotient(p22, window4):
    for S in [*_sd_with_zero(4), p22, window4]:
        dp = green_d(S)
        q = quotient(S)
        for t in dp.classes[dp.top_class]:
            members = tuple(d for d in range(S.order) if natural_leq(S, d, t))
            sub = subalgebra(S, members)
            assert sub.order == q.lattice.order
            mapping = tuple(dp.class_of[m] for m in members)
            assert len(set(mapping)) == sub.order
            assert is_homomorphism(Homomorphism(sub, q.lattice, mapping)).ok
            assert canonicalize(sub) == canonicalize(q.lattice)
