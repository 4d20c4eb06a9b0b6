"""Enumeration counts, canonical forms, filters and counterexample search."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import census
from skewlat.census import (
    CanonicalForm,
    CensusFilter,
    canonicalize,
    enumerate_by_quotient_construction,
    enumerate_skew_lattices,
    search_counterexample,
)
from skewlat.cli import main
from skewlat.core import (
    CapExceededError,
    FiniteSkewLattice,
    PreconditionError,
    check_identity,
    detect_zero,
    is_commutative,
    validate_skew_axioms,
)
from skewlat.models import build_pfn_algebra, chain_lattice

FLAT_LEFT_TABLES = (((0, 0), (1, 1)), ((0, 1), (0, 1)))


def _relabeled_table(T, perm):
    # T^π as tuples, where T^π[π(i)][π(j)] = π(T[i][j])
    n = len(T)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[T[i][j]]
    return tuple(map(tuple, out))


def _relabeled(S, perm):
    return FiniteSkewLattice(S.order, _relabeled_table(S.meet_table, perm), _relabeled_table(S.join_table, perm))


def _mirrored(S):
    n = S.order
    meet = tuple(tuple(S.meet(j, i) for j in range(n)) for i in range(n))
    join = tuple(tuple(S.join(j, i) for j in range(n)) for i in range(n))
    return FiniteSkewLattice(n, meet, join)


FILTER_CASES = (
    CensusFilter(left_handed=True),
    CensusFilter(normal=True),
    CensusFilter(strongly_distributive=True, has_zero=True),
    CensusFilter(symmetric=True, commutative=False),
    CensusFilter(distributive=False),
    CensusFilter(join_complete=True),
    CensusFilter(left_handed=True, normal=True),  # both meet-search hooks at once
    CensusFilter(regular=False),  # every skew lattice is regular: matches nothing
)


# --- slow oracles for the fast paths --------------------------------------------

def _canonicalize_oracle(S):
    # least relabeling of both tables over all n! carrier permutations
    best = None
    for perm in itertools.permutations(range(S.order)):
        cand = (_relabeled_table(S.meet_table, perm), _relabeled_table(S.join_table, perm))
        if best is None or cand < best:
            best = cand
    return CanonicalForm(*best)


def _left_handed_rescan(T, p, q):
    # x∧y∧x = x∧y over the whole partial table, ignoring the cell just assigned
    n = len(T)
    for x in range(n):
        row = T[x]
        for y in range(n):
            v = row[y]
            if v < 0:
                continue
            w = T[v][x]
            if 0 <= w != v:
                return False
    return True


def _normal_rescan(T, p, q):
    # x∧y∧z∧x = x∧z∧y∧x over the whole partial table, ignoring the cell just assigned
    n = len(T)
    for x in range(n):
        row = T[x]
        for y in range(n):
            xy = row[y]
            if xy < 0:
                continue
            for z in range(n):
                xyz = T[xy][z]
                if xyz < 0:
                    continue
                left = T[xyz][x]
                if left < 0:
                    continue
                xz = row[z]
                if xz < 0:
                    continue
                xzy = T[xz][y]
                if xzy < 0:
                    continue
                right = T[xzy][x]
                if 0 <= right != left:
                    return False
    return True


RESCANS = {"left_handed": _left_handed_rescan, "normal": _normal_rescan}


def _rescan_hooks(filt):
    # the filter hooks of the oracles, sharing no pruning code with census._MEET_HOOKS
    return tuple(hook for key, hook in RESCANS.items() if filt._wants.get(key) is True)


def _reference_walks(n):
    # for each carrier permutation π but the identity: π and the off-diagonal
    # cells (a, b) in row-major order as (a, b, π⁻¹a, π⁻¹b)
    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    walks = []
    for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
        inv = sorted(range(n), key=perm.__getitem__)
        walks.append((perm, tuple((a, b, inv[a], inv[b]) for a, b in cells)))
    return walks


class _ReferenceLexLeaderHook:
    """The unwatched lex-leader hook: every node re-walks every open relabeling.

    The walks left open after cell k are kept for the children of that
    node, in a list copied at every node.
    """

    def __init__(self, n):
        self._n = n
        # _open[k + 1]: (π, walk, resume position) of every π still undecided after cell k
        self._open = {0: [(perm, walk, 0) for perm, walk in _reference_walks(n)]}

    def __call__(self, T, p, q):
        k = p * (self._n - 1) + (q if q < p else q - 1)
        still_open = []
        for perm, walk, start in self._open[k]:
            for pos in range(start, len(walk)):
                a, b, ia, ib = walk[pos]
                t, u = T[a][b], T[ia][ib]
                if t < 0 or u < 0:
                    still_open.append((perm, walk, pos))
                    break
                if perm[u] != t:
                    if perm[u] < t:
                        return False
                    break
        self._open[k + 1] = still_open
        return True


def _join_candidates(M):
    n = len(M)
    return [[tuple(v for v in range(n) if M[i][v] == i and M[v][j] == j) for j in range(n)] for i in range(n)]


def _joins_possible(cand):
    # the completed-table rule: no cand(i, j), i ≠ j, is empty
    n = len(cand)
    return all(cand[i][j] for i in range(n) for j in range(n) if i != j)


def _census_forms_oracle(order, filt):
    # every labeled meet table, then a join search and an n! canonicalization per structure
    n = order
    forms = set()
    for M in census._table_search(n, [], lambda i, j: tuple(range(n)), _rescan_hooks(filt)):
        cand = _join_candidates(M)
        if not _joins_possible(cand):
            continue
        pins = [pin for x in range(n) for y in range(n) for pin in ((x, M[x][y], x), (M[x][y], y, y))]
        for J in census._table_search(n, pins, lambda i, j: cand[i][j], ()):
            S = FiniteSkewLattice(n, M, J)
            if S.validity.ok and filt.matches(S):
                forms.add(_canonicalize_oracle(S))
    return forms


def _triple_ok(T, a, b, c):
    # associativity of one triple, tolerant of unassigned (-1) entries
    ab = T[a][b]
    if ab < 0:
        return True
    left = T[ab][c]
    if left < 0:
        return True
    bc = T[b][c]
    if bc < 0:
        return True
    right = T[a][bc]
    return right < 0 or left == right


def _triple_families(T, p, q, n):
    # the four families of triples whose evaluation reads cell (p, q), each as a verdict
    return (
        all(_triple_ok(T, p, q, c) for c in range(n)),
        all(_triple_ok(T, c, p, q) for c in range(n)),
        all(_triple_ok(T, a, b, q) for a in range(n) for b in range(n) if T[a][b] == p),
        all(_triple_ok(T, p, a, b) for a in range(n) for b in range(n) if T[a][b] == q),
    )


# --- counts and stream properties -------------------------------------------

def test_counts_up_to_order_four(census_by_order):
    assert [len(census_by_order[n]) for n in (1, 2, 3, 4)] == [1, 3, 7, 21]


def test_order_two_is_chain_and_both_flats(census_by_order):
    kinds = {
        (is_commutative(S), check_identity(S, "left_handed").ok, check_identity(S, "right_handed").ok)
        for S in census_by_order[2]
    }
    assert kinds == {(True, True, True), (False, True, False), (False, False, True)}


def test_every_census_structure_is_valid(census_all):
    assert all(validate_skew_axioms(S).ok for S in census_all)


def test_stream_is_sorted_and_duplicate_free(census_to_order_five):
    for n, block in census_to_order_five.items():
        forms = [canonicalize(S) for S in block]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)


def test_structures_arrive_in_their_own_canonical_form(census_to_order_five):
    for S in itertools.chain.from_iterable(census_to_order_five.values()):
        cf = canonicalize(S)
        assert (S.meet_table, S.join_table) == (cf.meet_table, cf.join_table)


def test_zero_is_attached_when_present(census_all):
    for S in census_all:
        assert S.zero == detect_zero(S)


def test_the_census_builds_each_class_once_with_its_zero(monkeypatch):
    # each class is built once in the whole run, on its canonical tables with its zero,
    # and the structure yielded is the one the validity net checked
    built = []
    init = FiniteSkewLattice.__init__
    monkeypatch.setattr(FiniteSkewLattice, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    classes = list(enumerate_skew_lattices(5, order_cap=5))
    assert sorted(map(id, built)) == sorted(map(id, classes))
    assert all("validity" in vars(S) and S.validity.ok for S in classes)
    assert all(S.zero == detect_zero(S) for S in classes)
    assert sum(S.zero is not None for S in classes) > 5


def test_census_is_closed_under_mirroring(census_to_order_five):
    for n, block in census_to_order_five.items():
        forms = {canonicalize(S) for S in block}
        assert {canonicalize(_mirrored(S)) for S in block} == forms


def test_commutative_census_matches_the_known_lattice_counts(census_by_order):
    # unlabeled lattices number 1, 1, 1, 2, 5, ... by order
    got = [sum(is_commutative(S) for S in census_by_order[n]) for n in (1, 2, 3, 4)]
    assert got == [1, 1, 1, 2]


def test_order_five_commutative_count_is_five(census_order_five):
    assert sum(is_commutative(S) for S in census_order_five) == 5


def test_order_five_has_fifty_three_classes(census_order_five):
    assert len(census_order_five) == 53


def test_handed_counts_balance_under_mirroring(census_to_order_five):
    for n, block in census_to_order_five.items():
        left = [S for S in block if check_identity(S, "left_handed").ok]
        right = {canonicalize(S) for S in block if check_identity(S, "right_handed").ok}
        assert len(left) == len(right)
        assert {canonicalize(_mirrored(S)) for S in left} == right


# --- the fast paths against their oracles ----------------------------------------

def _refuse(*args):
    raise AssertionError("the census path relabels a table n! times")


def test_census_matches_the_labeled_oracle(monkeypatch):
    # the census reads its canonical forms off the search, with no n! relabeling
    monkeypatch.setattr(census, "canonicalize", _refuse)
    monkeypatch.setattr(census, "_relabelings", _refuse)
    for filt in (CensusFilter(),) + FILTER_CASES:
        for n in (1, 2, 3, 4):
            assert census._census_forms(n, filt).keys() == _census_forms_oracle(n, filt), (filt, n)
    for filt in (CensusFilter(), CensusFilter(left_handed=True, normal=True)):
        assert census._census_forms(5, filt).keys() == _census_forms_oracle(5, filt), filt


def _least_relabeling(M):
    # the oracle compares meet tables first, so its meet table is the least relabeling of M
    return _canonicalize_oracle(FiniteSkewLattice(len(M), M, M)).meet_table


def _lex_leader_violations(n, hooks):
    # the pruned meet search against the labeled one under the same filter hooks
    full = tuple(range(n))
    pruned = list(census._table_search(n, [], lambda i, j: full, hooks + (census._LexLeaderHook(n),)))
    classes = {_least_relabeling(M) for M in census._table_search(n, [], lambda i, j: full, hooks)}
    problems = [f"not its least relabeling: {M}" for M in pruned if M != _least_relabeling(M)]
    if len(pruned) != len(classes):
        problems.append(f"{len(pruned)} meet tables for {len(classes)} meet classes")
    return problems


def test_the_lex_leader_search_yields_each_meet_class_once():
    hook_sets = {_rescan_hooks(filt) for filt in (CensusFilter(),) + FILTER_CASES}
    assert len(hook_sets) == 4  # none, either hook, both
    for hooks in hook_sets:
        for n in (1, 2, 3, 4):
            assert _lex_leader_violations(n, hooks) == [], (hooks, n)


FAST_HOOK_SETS = tuple(
    tuple(census._MEET_HOOKS[key] for key in keys)
    for keys in ((), ("left_handed",), ("normal",), ("left_handed", "normal"))
)


def test_the_watched_walks_prune_as_the_reference_walks_do():
    for hooks in FAST_HOOK_SETS:
        for n in (1, 2, 3, 4, 5):
            full = tuple(range(n))
            watched = census._table_search(n, [], lambda i, j: full, hooks + (census._LexLeaderHook(n),))
            reference = census._table_search(n, [], lambda i, j: full, hooks + (_ReferenceLexLeaderHook(n),))
            assert list(watched) == list(reference), (hooks, n)


def test_the_walks_record_exactly_the_automorphisms_of_each_meet_table():
    # the walks that end with no difference, and the candidate sets the masks give,
    # read when the census meet search yields M
    seen = 0
    for hooks in FAST_HOOK_SETS:
        for n in range(1, 7 if not hooks else 6):
            full = tuple(range(n))
            masks, lex = census._JoinCandidateMasks(n), census._LexLeaderHook(n)
            members = census._mask_members(n)
            for M in census._table_search(n, [], lambda i, j: full, hooks + (masks, lex)):
                brute = {perm for perm in itertools.islice(itertools.permutations(full), 1, None)
                         if _relabeled_table(M, perm) == M}
                assert sorted(lex.automorphisms) == sorted(brute), (M, lex.automorphisms)
                seen += bool(brute)
                cand = [[members[left & right] for right in masks.right] for left in masks.left]
                assert cand == _join_candidates(M), M
    assert seen > 100


def test_order_six_forms_are_their_own_canonical_forms():
    # from order 6 a meet table can take two join tables that one of its automorphisms
    # swaps, so the join must be minimised over Aut(M) for one form per class
    forms = census._census_forms(6, CensusFilter())
    assert len(forms) == 173
    assert all(canonicalize(FiniteSkewLattice(6, cf.meet_table, cf.join_table)) == cf for cf in forms)


def test_the_join_candidate_prune_keeps_exactly_the_tables_with_candidates():
    for n in (1, 2, 3, 4):
        full = tuple(range(n))
        pruned = list(census._table_search(n, [], lambda i, j: full, (census._JoinCandidateMasks(n),)))
        labeled = list(census._table_search(n, [], lambda i, j: full, ()))
        kept = [M for M in labeled if _joins_possible(_join_candidates(M))]
        assert pruned == kept, n
        assert n < 3 or len(kept) < len(labeled)


def _join_candidate_rescan(T, p, q):
    # no cand(i, j), i ≠ j, is empty over the whole partial table, an unassigned cell a wildcard
    n = len(T)
    return all(
        any(T[i][v] in (i, -1) and T[v][j] in (j, -1) for v in range(n))
        for i in range(n)
        for j in range(n)
        if i != j
    )


def test_the_candidate_masks_prune_as_the_rescan_does():
    for hooks in FAST_HOOK_SETS:
        for n in (1, 2, 3, 4, 5):
            full = tuple(range(n))
            masks = census._table_search(n, [], lambda i, j: full, hooks + (census._JoinCandidateMasks(n),))
            rescan = census._table_search(n, [], lambda i, j: full, hooks + (_join_candidate_rescan,))
            assert list(masks) == list(rescan), (hooks, n)


def _row_major_fills(rng, n, steps):
    # (T, p, q, rescan verdict) along row-major fills of an idempotent table, as a
    # search without pins assigns it: each cell takes random values until the rescan
    # accepts one, and a complete table or a cell no value fits backs up to a random
    # cell at or before it, unassigning the cells from there on
    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    T = [[a if a == b else -1 for b in range(n)] for a in range(n)]
    k = 0
    for _ in range(steps):
        p, q = cells[k]
        for v in rng.sample(range(n), n):
            T[p][q] = v
            verdict = _join_candidate_rescan(T, p, q)
            yield T, p, q, verdict
            if verdict:
                break
        if verdict and k + 1 < len(cells):
            k += 1
        else:
            k = rng.randrange(k + 1)
            for a, b in cells[k:]:
                T[a][b] = -1


def test_the_incremental_hooks_match_the_rescans():
    # on partial tables that passed the rescan before (p, q) was assigned
    rng = random.Random(15)
    pairs = {
        "left_handed": (census._left_handed_hook, _left_handed_rescan),
        "normal": (census._normal_hook, _normal_rescan),
    }
    verdicts = {key: set() for key in pairs}
    for n in range(2, 7):
        for _ in range(150):
            unassigned = rng.random()
            T = [[-1 if rng.random() < unassigned else rng.randrange(n) for _ in range(n)] for _ in range(n)]
            for p, q in itertools.product(range(n), repeat=2):
                if T[p][q] < 0:
                    continue
                before = [row[:] for row in T]
                before[p][q] = -1
                for key, (hook, rescan) in pairs.items():
                    if rescan(before, p, q):
                        verdict = rescan(T, p, q)
                        assert hook(T, p, q) == verdict, (key, T, p, q)
                        verdicts[key].add(verdict)
    # the stateful masks, driven along row-major fills
    verdicts["join_candidates"] = set()
    for n in range(2, 7):
        hook = census._JoinCandidateMasks(n)
        for T, p, q, verdict in _row_major_fills(rng, n, 600):
            assert hook(T, p, q) == verdict, (T, p, q)
            verdicts["join_candidates"].add(verdict)
    assert verdicts == {key: {False, True} for key in verdicts}


def test_canonicalize_matches_the_full_relabeling_oracle(census_to_order_five):
    rng = random.Random(6)
    for n, block in census_to_order_five.items():
        for S in block:
            perm = tuple(rng.sample(range(n), n))
            mirror_perm = tuple(rng.sample(range(n), n))
            for T in (S, _relabeled(S, perm), _relabeled(_mirrored(S), mirror_perm)):
                assert canonicalize(T) == _canonicalize_oracle(T)


def test_assoc_check_matches_the_triple_oracle():
    rng = random.Random(6)
    lone_failures = [0, 0, 0, 0]
    for n in range(2, 7):
        for _ in range(60):
            unassigned = rng.random()
            T = [[-1 if rng.random() < unassigned else rng.randrange(n) for _ in range(n)] for _ in range(n)]
            where = [[(a, b) for a in range(n) for b in range(n) if T[a][b] == v] for v in range(n)]
            for p, q in itertools.product(range(n), repeat=2):
                if T[p][q] < 0:
                    continue
                families = _triple_families(T, p, q, n)
                assert census._assoc_ok_after(T, p, q, where) == all(families), (T, p, q)
                if families.count(False) == 1:
                    lone_failures[families.index(False)] += 1
    assert all(lone_failures), lone_failures  # each family alone decides some case


# --- the independent construction --------------------------------------------

def test_both_strategies_agree_up_to_order_three(census_by_order):
    for n in (1, 2, 3):
        fast = {canonicalize(S) for S in census_by_order[n]}
        assert enumerate_by_quotient_construction(n) == fast


def test_cross_check_is_capped():
    with pytest.raises(CapExceededError):
        enumerate_by_quotient_construction(4)
    with pytest.raises(PreconditionError):
        enumerate_by_quotient_construction(0)


# --- canonical forms ------------------------------------------------------------

@st.composite
def _structure_and_permutation(draw):
    order = draw(st.integers(min_value=1, max_value=4))
    pool = list(enumerate_skew_lattices(order))
    S = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
    perm = tuple(draw(st.permutations(range(order))))
    return S, perm


@settings(max_examples=60, deadline=None)
@given(_structure_and_permutation())
def test_canonical_form_is_orbit_invariant(case):
    S, perm = case
    assert canonicalize(_relabeled(S, perm)) == canonicalize(S)


def test_canonical_forms_order_by_table_pairs():
    a = CanonicalForm(((0,),), ((0,),))
    assert a.order == 1
    assert a == CanonicalForm(((0,),), ((0,),))


def test_handedness_separates_canonical_forms(flat_left, flat_right, chain2):
    forms = {canonicalize(flat_left), canonicalize(flat_right), canonicalize(chain2)}
    assert len(forms) == 3


def test_canonical_equality_is_exactly_isomorphism(census_by_order):
    # explicit permutation search as the ground truth
    for n, block in census_by_order.items():
        perms = list(itertools.permutations(range(n)))
        for S, T in itertools.combinations(block, 2):
            iso = any(
                (_relabeled(S, p).meet_table, _relabeled(S, p).join_table)
                == (T.meet_table, T.join_table)
                for p in perms
            )
            assert iso == (canonicalize(S) == canonicalize(T))
            assert not iso  # census emits one representative per class


# --- filters -----------------------------------------------------------------------

def test_the_flat_left_structure_is_the_unique_match(monkeypatch):
    # identity filters look check_identity up in the census module at call time
    calls = []
    monkeypatch.setattr(census, "check_identity", lambda S, name: calls.append(name) or check_identity(S, name))
    found = list(enumerate_skew_lattices(2, CensusFilter(left_handed=True, commutative=False)))
    assert len(found) == 1
    assert calls and set(calls) == {"left_handed"}
    assert (found[0].meet_table, found[0].join_table) == FLAT_LEFT_TABLES


def test_zero_filter_keeps_the_chain_only(census_by_order):
    found = list(enumerate_skew_lattices(2, CensusFilter(has_zero=True)))
    assert len(found) == 1 and is_commutative(found[0])


def test_filtered_census_equals_filtering_the_census(census_by_order):
    for filt in FILTER_CASES:
        for n in (2, 3, 4):
            direct = {canonicalize(S) for S in enumerate_skew_lattices(n, filt)}
            sieved = {canonicalize(S) for S in census_by_order[n] if filt.matches(S)}
            assert direct == sieved, (filt, n)


def test_inactive_filter_changes_nothing(census_by_order):
    got = list(enumerate_skew_lattices(3, CensusFilter()))
    assert len(got) == len(census_by_order[3])


# --- caps ---------------------------------------------------------------------------

def test_default_caps_guard_the_search(monkeypatch):
    with pytest.raises(CapExceededError):
        next(iter(enumerate_skew_lattices(6)))
    with pytest.raises(CapExceededError):
        next(iter(enumerate_skew_lattices(6, CensusFilter(left_handed=True))))
    monkeypatch.setenv("SKEWLAT_CENSUS_CAP", "3")
    with pytest.raises(CapExceededError):
        next(iter(enumerate_skew_lattices(4)))


def test_the_counterexample_search_checks_its_cap_before_any_census_work(monkeypatch):
    def forms(order, filt):
        raise AssertionError(f"order {order} searched")

    want = r"^census order 6 > cap 5; set SKEWLAT_CENSUS_CAP to override$"
    with monkeypatch.context() as m:
        m.setattr(census, "_census_forms", forms)
        with pytest.raises(CapExceededError, match=want):
            search_counterexample(6, "normal", "commutative")
        with pytest.raises(CapExceededError, match=want):
            search_counterexample(6, "strongly_distributive", "symmetric & distributive & normal")
        m.setenv("SKEWLAT_CENSUS_CAP", "4")
        with pytest.raises(CapExceededError, match=r"^census order 5 > cap 4; "):
            search_counterexample(5, "normal", "commutative")
    assert search_counterexample(6, "normal", "commutative", order_cap=6).order == 2
    monkeypatch.setenv("SKEWLAT_CENSUS_CAP", "6")
    assert search_counterexample(6, "normal", "commutative").order == 2


def test_census_and_build_caps_are_independent(monkeypatch):
    monkeypatch.setenv("SKEWLAT_CENSUS_CAP", "2")
    with pytest.raises(CapExceededError):
        next(iter(enumerate_skew_lattices(3)))
    assert build_pfn_algebra(2, 2).order == 9
    monkeypatch.delenv("SKEWLAT_CENSUS_CAP")
    monkeypatch.setenv("SKEWLAT_BUILD_CAP", "8")
    with pytest.raises(CapExceededError):
        build_pfn_algebra(2, 2)
    assert len(list(enumerate_skew_lattices(3))) == 7


def test_canonicalize_refuses_an_order_past_eight_before_its_relabelings():
    held = census._relabelings.cache_info().currsize
    want = r"^canonicalize order 9 > cap 8; its n! relabelings are all kept in memory$"
    with pytest.raises(CapExceededError, match=want):
        canonicalize(chain_lattice(9))
    assert census._relabelings.cache_info().currsize == held


def test_order_must_be_positive():
    with pytest.raises(PreconditionError):
        next(iter(enumerate_skew_lattices(0)))


# --- counterexample search ------------------------------------------------------------

def test_normality_does_not_force_commutativity():
    S = search_counterexample(2, "normal", "commutative")
    assert S is not None and S.order == 2
    assert (S.meet_table, S.join_table) == FLAT_LEFT_TABLES


def test_minimal_counterexample_comes_first():
    S = search_counterexample(4, "normal", "commutative")
    assert S.order == 2


def test_strong_distributivity_decomposition_has_no_counterexample():
    assert search_counterexample(3, "strongly_distributive", "symmetric & distributive & normal") is None
    assert search_counterexample(3, "symmetric & distributive & normal", "strongly_distributive") is None


def test_regularity_is_universal():
    assert search_counterexample(3, "validated", "regular") is None
    assert search_counterexample(3, "validated", "lemma_reg") is None


def test_a_failed_precondition_is_neither_yes_nor_no(capsys):
    # the ladder checks need normality, so on the two non-normal order-3
    # structures join completeness is undecided, not false
    assert search_counterexample(3, "distributive", "join_complete") is None
    assert search_counterexample(2, "validated", "theorem_ncframes") is None  # no zero: skipped
    assert main(["census", "--order", "3", "--filter", "join-complete=no", "--count-only"]) == 0
    assert capsys.readouterr().out == "0\n"
    non_normal = [S for S in enumerate_skew_lattices(3) if not check_identity(S, "normal").ok]
    assert len(non_normal) == 2
    for S in non_normal:
        assert not CensusFilter(extends_to_sections=True).matches(S)
        assert not CensusFilter(extends_to_sections=False).matches(S)


def test_unknown_predicate_is_reported():
    with pytest.raises(ValueError, match="unknown predicate"):
        search_counterexample(2, "validated", "frobnicates")
    with pytest.raises(ValueError, match="unknown filter 'frobnicates'; known: .*join_complete"):
        CensusFilter(frobnicates=True)


def test_census_filter_wants_true_false_or_none():
    with pytest.raises(ValueError, match=r"^filter 'normal' wants 'yes'; use True, False or None$"):
        CensusFilter(normal="yes")
    with pytest.raises(ValueError, match=r"^filter 'normal' wants 1; use True, False or None$"):
        CensusFilter(left_handed=True, normal=1)
    assert repr(CensusFilter(normal=True, left_handed=None)) == "CensusFilter(**{'normal': True})"
