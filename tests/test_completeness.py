"""Commuting subsets, suprema, sections and the completeness checks."""

import itertools
import time

import pytest

from skewlat import completeness
from skewlat.core import (
    CapExceededError,
    FiniteSkewLattice,
    InternalConsistencyError,
    PreconditionError,
    check_identity,
    green_d,
    is_commutative,
    subalgebra,
)
from skewlat.completeness import (
    check_bounded_above,
    check_implication_chain,
    check_join_complete,
    check_prop_joins,
    check_section_exists,
    check_section_extension,
    commutation_graph,
    commuting_subset,
    enumerate_commuting_subsets,
    inf_natural,
    join_fold,
    lattice_sections,
    meet_fold,
    sup_natural,
)
from skewlat.frames import is_ncframe
from skewlat.models import boolean_lattice, build_pfn_algebra, chain_lattice, om_window, product

NON_NORMAL_3 = FiniteSkewLattice(
    3, ((0, 0, 0), (0, 1, 2), (2, 2, 2)), ((0, 1, 2), (1, 1, 1), (0, 1, 2))
)


def _brute_commuting_subsets(S):
    rows = commutation_graph(S)
    out = []
    for size in range(1, S.order + 1):
        for members in itertools.combinations(range(S.order), size):
            if all(rows[a] >> b & 1 for a, b in itertools.combinations(members, 2)):
                out.append(members)
    return sorted(out)


def _missing_pairs(rows):
    return tuple((a, b) for a in range(len(rows)) for b in range(a + 1, len(rows)) if not rows[a] >> b & 1)


# --- the commutation graph ---------------------------------------------------

def test_graph_is_reflexive_and_symmetric(p22):
    rows = commutation_graph(p22)
    assert len(rows) == p22.order
    for a in range(p22.order):
        assert rows[a] >> a & 1
        assert rows[a] >> p22.order == 0
        for b in range(p22.order):
            assert rows[a] >> b & 1 == rows[b] >> a & 1
            commute = p22.meet(a, b) == p22.meet(b, a) and p22.join(a, b) == p22.join(b, a)
            assert bool(rows[a] >> b & 1) == commute


def test_window_graph_misses_exactly_the_top_pair():
    assert _missing_pairs(commutation_graph(om_window(5))) == ((6, 7),)


def test_lattice_graph_is_complete(b2):
    assert _missing_pairs(commutation_graph(b2)) == ()


def test_same_class_elements_do_not_commute(flat_left):
    assert _missing_pairs(commutation_graph(flat_left)) == ((0, 1),)


# --- commuting subsets ----------------------------------------------------------

def test_subset_factory_validates(p22):
    assert commuting_subset(p22, [3, 1, 0]) == (0, 1, 3)
    with pytest.raises(PreconditionError):
        commuting_subset(p22, [1, 2])  # same class, projections differ
    with pytest.raises(PreconditionError):
        commuting_subset(p22, [])


def test_enumeration_matches_brute_force(p22, window4):
    for S in (p22, window4):
        got = sorted(enumerate_commuting_subsets(S))
        assert got == _brute_commuting_subsets(S)


def test_enumeration_counts_frozen(p22):
    assert len(tuple(enumerate_commuting_subsets(p22))) == 49
    assert len(tuple(enumerate_commuting_subsets(om_window(1)))) == 11


def test_enumeration_respects_max_size(p22):
    pairs = tuple(enumerate_commuting_subsets(p22, max_size=2))
    assert all(len(c) <= 2 for c in pairs)
    brute = [m for m in _brute_commuting_subsets(p22) if len(m) <= 2]
    assert sorted(pairs) == brute


def test_enumeration_is_lexicographic_and_bounded(p22, window4):
    # the first failing subset a scan reports depends on this order
    for S in (p22, window4, om_window(9), boolean_lattice(3)):
        for max_size in (None, -1, 0, 1, 2, 3):
            got = list(enumerate_commuting_subsets(S, max_size=max_size))
            assert all(a < b for a, b in zip(got, got[1:])), (S, max_size)
            assert all(max_size is None or len(m) <= max_size for m in got)
            brute = _brute_commuting_subsets(S)
            assert set(got) == {m for m in brute if max_size is None or len(m) <= max_size}


def test_enumeration_rejects_a_fractional_max_size(p22):
    # a bool is refused too, as every size argument refuses it
    for bad in (1.5, True):
        with pytest.raises(PreconditionError, match=rf"^enumerate_commuting_subsets: max_size {bad} is not an integer$"):
            next(enumerate_commuting_subsets(p22, max_size=bad))


def test_enumeration_cap_without_size_bound():
    big = om_window(10)  # order 13
    with pytest.raises(CapExceededError, match=r"^subset enumeration at order 13 > cap 12; pass max_size to bound it$"):
        tuple(enumerate_commuting_subsets(big))
    assert tuple(enumerate_commuting_subsets(big, max_size=1))


def test_the_lemma_checks_answer_past_the_subset_cap():
    # decided by Lemmas A to D without a walk, from order 13 (k = 10) on; every
    # finite window is join complete, so the paper's counterexample needs the whole chain
    checks = (check_join_complete, check_bounded_above, is_ncframe, check_prop_joins, check_section_extension)
    for S in [om_window(k) for k in range(10, 31)] + [build_pfn_algebra(2, 3)]:
        assert S.order > 12
        assert all(check(S).ok for check in checks), S
        chain = check_implication_chain(S)
        assert chain.ok and all(verdict is True for _, verdict in chain.witness), S


# --- suprema and infima ------------------------------------------------------------

def test_sup_of_compatible_functions_is_their_union(p22):
    # {1:0} with {0:0} -> {0:0,1:0}
    assert sup_natural(p22, [1, 3]) == 4


def test_conflicting_functions_have_no_sup(p22):
    assert sup_natural(p22, [1, 2]) is None


def test_inf_is_the_common_restriction(p22):
    assert inf_natural(p22, [4, 8]) == 0
    assert inf_natural(p22, [4, 5]) == 3  # agree on 0 only


def test_top_pair_infimum_in_window():
    W = om_window(3)
    assert inf_natural(W, [4, 5]) == 3
    assert sup_natural(W, [0, 1, 2]) == 2


def test_sup_requires_members_in_range(chain2):
    with pytest.raises(PreconditionError):
        sup_natural(chain2, [0, 5])
    with pytest.raises(PreconditionError):
        sup_natural(chain2, [])


def test_folds_agree_with_order_suprema(p22, window4):
    for S in (p22, window4):
        for c in enumerate_commuting_subsets(S):
            assert join_fold(S, c) == sup_natural(S, c)
            assert meet_fold(S, c) == inf_natural(S, c)


def test_fold_accepts_raw_ids(chain2):
    assert join_fold(chain2, [0, 1]) == 1
    assert meet_fold(chain2, (1, 0)) == 0


@pytest.mark.parametrize("fold", [join_fold, meet_fold], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "ids, message",
    [
        ([], "commuting_subset needs a nonempty set of elements"),
        ([0, 9], "commuting_subset: id 9 out of range 0..8"),
        ((1, 2), "elements 1 and 2 do not commute"),  # same class, projections differ
    ],
)
def test_folds_reject_what_commuting_subset_rejects(p22, fold, ids, message):
    with pytest.raises(PreconditionError) as folded:
        fold(p22, ids)
    with pytest.raises(PreconditionError) as direct:
        commuting_subset(p22, ids)
    assert str(folded.value) == str(direct.value) == message


def test_fold_rejects_non_commuting(p22):
    with pytest.raises(PreconditionError):
        join_fold(p22, [1, 2])


# --- characterization of suprema ------------------------------------------------------

def test_sup_characterization_on_models(p22, window4, b2):
    for S in (p22, window4, b2, chain_lattice(5)):
        assert check_prop_joins(S).ok


def test_sup_characterization_needs_normal_symmetric():
    with pytest.raises(PreconditionError):
        check_prop_joins(NON_NORMAL_3)


# --- completeness properties -----------------------------------------------------------

def test_all_four_properties_on_finite_models(p22, window4):
    for S in (p22, window4):
        assert check_join_complete(S).ok
        assert check_bounded_above(S).ok
        assert check_section_extension(S).ok
        assert check_section_exists(S).ok


def test_implication_chain_reports_all_verdicts(p22):
    cert = check_implication_chain(p22)
    assert cert.ok
    assert dict(cert.witness) == {
        "join_complete": True,
        "bounded_above": True,
        "extends_to_sections": True,
        "section_exists": True,
    }


def test_chain_requires_normal_symmetric():
    with pytest.raises(PreconditionError):
        check_implication_chain(NON_NORMAL_3)


# --- lattice sections --------------------------------------------------------------------

def test_sections_of_partial_functions_are_the_total_function_downsets(p22):
    secs = lattice_sections(p22)
    assert secs == (
        (0, 1, 3, 4),
        (0, 1, 6, 7),
        (0, 2, 3, 5),
        (0, 2, 6, 8),
    )


def test_each_section_is_a_commutative_transversal(p22):
    dp = green_d(p22)
    for sec in lattice_sections(p22):
        sub = subalgebra(p22, sec)
        assert is_commutative(sub)
        per_class = [sum(1 for m in sec if dp.class_of[m] == c) for c in range(dp.class_count)]
        assert per_class == [1] * dp.class_count


def _brute_sections(S):
    dp = green_d(S)
    found = []
    for choice in itertools.product(*dp.classes):
        members = tuple(sorted(choice))
        try:
            sub = subalgebra(S, members)
        except PreconditionError:
            continue
        if is_commutative(sub):
            found.append(members)
    return sorted(found)


def test_fast_path_matches_transversal_scan(p22, window4):
    for S in (p22, window4):
        assert sorted(lattice_sections(S)) == _brute_sections(S)


def test_sections_without_normality_use_the_fallback():
    assert lattice_sections(NON_NORMAL_3) == ((0, 1), (1, 2))
    assert _brute_sections(NON_NORMAL_3) == [(0, 1), (1, 2)]


def test_the_fallback_walk_is_capped_at_two_to_the_subset_cap():
    # P(3,2) × NON_NORMAL_3 is symmetric and not normal, with 2**32 class transversals
    S = product(build_pfn_algebra(3, 2), NON_NORMAL_3)
    want = r"^lattice_sections: class transversals 4294967296 > cap 4096; a structure that is not normal has each one checked$"
    start = time.perf_counter()
    for _ in range(2):
        with pytest.raises(CapExceededError, match=want):
            lattice_sections(S)
    assert time.perf_counter() - start < 1
    assert "lattice_sections" not in S._memo
    # P(2,2) × NON_NORMAL_3 has 2**12 of them, which the walk still visits
    T = product(build_pfn_algebra(2, 2), NON_NORMAL_3)
    assert len(lattice_sections(T)) == len(lattice_sections(build_pfn_algebra(2, 2))) * 2


def test_window_has_one_section_per_top():
    W = om_window(3)
    assert lattice_sections(W) == ((0, 1, 2, 3, 4), (0, 1, 2, 3, 5))


def test_a_down_set_that_is_no_section_names_its_top_element():
    # a normal verdict remembered on a structure that is not normal: ↓1 = {0, 1, 2}
    # holds two elements of the class {0, 2}, so Lemma D's premise fails at 1
    S = FiniteSkewLattice(3, NON_NORMAL_3.meet_table, NON_NORMAL_3.join_table)
    S._memo["normal"] = check_identity(build_pfn_algebra(1, 1), "normal")
    with pytest.raises(InternalConsistencyError, match=r"^the down-set of top element 1 is not a lattice section$"):
        lattice_sections(S)


def test_sections_are_found_once_per_structure(monkeypatch):
    # the ladder asks for the sections twice and callers ask again
    calls = []
    find = completeness._find_sections
    monkeypatch.setattr(completeness, "_find_sections", lambda S: calls.append(S) or find(S))
    S = build_pfn_algebra(2, 2)
    assert check_implication_chain(S).ok
    assert lattice_sections(S) == lattice_sections(FiniteSkewLattice(S.order, S.meet_table, S.join_table))
    assert len(calls) == 2 and calls[0] is S
