"""The bitmask sup/inf kernel and the subset checks against list-based oracles.

``sup_natural``/``inf_natural`` and the checks built on suprema
(``is_ncframe`` and the completeness ladder) read the natural order as
bitmask upsets and downsets.  The list-based subset walks they had
before are kept here as oracles, and every result element and every
``Certificate`` (verdict and witness) must match them on genuine
structures, where all the checks hold.  A second pass replaces the
cached natural order by a randomly perturbed relation: suprema then go
missing, move or stop being unique.  There ``sup_natural`` and
``inf_natural`` must still match their list scans, while the five
checks decided by Lemmas A to D (``check_join_complete``,
``check_bounded_above``, ``is_ncframe``, ``check_prop_joins``,
``check_section_extension``) must either have sound premises or raise
``InternalConsistencyError``.
"""

import functools
import itertools
import random
import re

import numpy as np
import pytest

from skewlat.completeness import (
    _joins_are_suprema,
    check_bounded_above,
    check_join_complete,
    check_prop_joins,
    check_section_exists,
    check_section_extension,
    enumerate_commuting_subsets,
    inf_natural,
    join_fold,
    lattice_sections,
    sup_natural,
)
from skewlat.core import (
    Certificate,
    FiniteSkewLattice,
    InternalConsistencyError,
    _require_valid,
    check_identity,
    check_symmetric,
    detect_zero,
    green_d,
    quotient,
)
from skewlat.frames import is_ncframe
from skewlat.models import boolean_lattice, build_pfn_algebra, chain_lattice, om_window

# --- oracles: the list-based scans as they were ------------------------------


def _sup_oracle(S, ids):
    members = tuple(sorted(set(ids)))
    leq = S._leq
    ubs = [s for s in range(S.order) if all(leq[c, s] for c in members)]
    least = [s for s in ubs if all(leq[s, u] for u in ubs)]
    return least[0] if least else None


def _inf_oracle(S, ids):
    members = tuple(sorted(set(ids)))
    leq = S._leq
    lbs = [s for s in range(S.order) if all(leq[s, c] for c in members)]
    greatest = [s for s in lbs if all(leq[u, s] for u in lbs)]
    return greatest[0] if greatest else None


def _is_ncframe_oracle(S):
    _require_valid(S, "is_ncframe")
    if detect_zero(S) is None:
        return Certificate(False, "noncommutative frame", ("no zero", None))
    sd = check_identity(S, "strongly_distributive")
    if not sd.ok:
        return Certificate(False, "noncommutative frame", ("not strongly distributive", sd.witness))
    mt = S.meet_table
    for C in enumerate_commuting_subsets(S):
        sup_c = _sup_oracle(S, C)
        if sup_c is None:
            return Certificate(False, "noncommutative frame", ("commuting subset with no supremum", C))
        for y in range(S.order):
            for law, lhs, family in (
                ("(⋁xᵢ)∧y = ⋁(xᵢ∧y)", mt[sup_c][y], [mt[c][y] for c in C]),
                ("y∧(⋁xᵢ) = ⋁(y∧xᵢ)", mt[y][sup_c], [mt[y][c] for c in C]),
            ):
                rhs = _sup_oracle(S, family)
                if rhs != lhs:
                    return Certificate(
                        False,
                        "noncommutative frame",
                        (law, (("subset", C), ("y", y), ("lhs", lhs), ("rhs", rhs))),
                    )
    return Certificate(True, "noncommutative frame")


def _prop_joins_oracle(S):
    _require_valid(S, "check_prop_joins", "normal", "symmetric")
    dp = green_d(S)
    qj = quotient(S).lattice.join_table
    leq = S._leq
    for C in enumerate_commuting_subsets(S):
        s = _sup_oracle(S, C)
        class_join = functools.reduce(lambda a, b: qj[a][b], [dp.class_of[c] for c in C])
        dominating = [a for a in dp.classes[class_join] if all(leq[c, a] for c in C)]
        ok = (s is not None) == (len(dominating) == 1)
        if ok and s is not None:
            ok = dominating[0] == s and dp.class_of[s] == class_join
        if not ok:
            return Certificate(
                False,
                "join exists iff one element dominates over the class join",
                (
                    ("subset", C),
                    ("sup", s),
                    ("class_join", class_join),
                    ("dominating", tuple(dominating)),
                ),
            )
    return Certificate(True, "join exists iff one element dominates over the class join")


def _join_complete_oracle(S):
    _require_valid(S, "check_join_complete", "normal", "symmetric")
    for C in enumerate_commuting_subsets(S):
        if _sup_oracle(S, C) is None:
            return Certificate(False, "join complete", ("subset with no supremum", C))
    return Certificate(True, "join complete")


def _bounded_above_oracle(S):
    _require_valid(S, "check_bounded_above", "normal", "symmetric")
    leq = S._leq
    for C in enumerate_commuting_subsets(S):
        if not any(all(leq[c, s] for c in C) for s in range(S.order)):
            return Certificate(False, "bounded from above", ("subset with no upper bound", C))
    return Certificate(True, "bounded from above")


def _section_extension_oracle(S):
    _require_valid(S, "check_section_extension", "normal", "symmetric")
    sections = [set(sec) for sec in lattice_sections(S)]
    for C in enumerate_commuting_subsets(S):
        if not any(set(C) <= sec for sec in sections):
            return Certificate(
                False, "commuting subsets extend to sections", ("subset inside no section", C)
            )
    return Certificate(True, "commuting subsets extend to sections")


# decided by a lemma whose premise is checked: equal to the walk on genuine structures only
LEMMA_CHECKS = (
    (is_ncframe, _is_ncframe_oracle),
    (check_join_complete, _join_complete_oracle),
    (check_bounded_above, _bounded_above_oracle),
    (check_prop_joins, _prop_joins_oracle),
    (check_section_extension, _section_extension_oracle),
)

# --- inputs -------------------------------------------------------------------


@pytest.fixture(scope="module")
def zoo(census_all, p22):
    models = [om_window(k) for k in range(4, 10)] + [boolean_lattice(3), chain_lattice(12), p22]
    return list(census_all) + models


def _outcome(fn, S):
    try:
        return fn(S)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _id_sets(S, rng):
    """Every commuting subset, every pair, and 20 random sets of 3 to 5 ids."""
    sets = list(enumerate_commuting_subsets(S))
    sets += list(itertools.combinations(range(S.order), 2))
    for _ in range(20):
        sets.append(tuple(rng.sample(range(S.order), min(S.order, rng.randint(3, 5)))))
    return sets


def _with_order(S, leq):
    """A copy of S whose cached natural order is ``leq`` instead of the tables' own."""
    T = FiniteSkewLattice(S.order, S.meet_table, S.join_table, zero=S.zero)
    leq = np.array(leq, dtype=bool)
    leq.flags.writeable = False
    T.__dict__["_leq"] = leq
    return T


def _perturbed(S, rng, flip=0.2):
    # flip each off-diagonal cell of the order with probability ``flip``
    leq = S._leq.copy()
    for a, b in itertools.permutations(range(S.order), 2):
        if rng.random() < flip:
            leq[a, b] = not leq[a, b]
    return _with_order(S, leq)


# --- tests --------------------------------------------------------------------


def test_masks_are_the_natural_order(zoo):
    for S in zoo:
        n = S.order
        assert len(S._up) == len(S._down) == n
        for a in range(n):
            for s in range(n):
                assert bool(S._up[a] >> s & 1) == bool(S._leq[a, s])
                assert bool(S._down[a] >> s & 1) == bool(S._leq[s, a])
            assert S._up[a] < 1 << n and S._down[a] < 1 << n


def test_sup_and_inf_match_the_list_scans(zoo):
    rng = random.Random(4)
    missing_sup = missing_inf = 0
    for S in zoo:
        for ids in _id_sets(S, rng):
            want_sup, want_inf = _sup_oracle(S, ids), _inf_oracle(S, ids)
            assert sup_natural(S, ids) == want_sup, (S, ids)
            assert inf_natural(S, ids) == want_inf, (S, ids)
            missing_sup += want_sup is None
            missing_inf += want_inf is None
    assert missing_sup > 0 and missing_inf > 0


def test_checks_match_the_list_scans(zoo):
    for S in zoo:
        for fn, oracle in LEMMA_CHECKS:
            assert _outcome(fn, S) == _outcome(oracle, S), (fn.__name__, S)


def test_sup_and_inf_match_the_list_scans_on_a_perturbed_order(census_all, p22):
    rng = random.Random(7)
    for S in list(census_all) + [om_window(4), boolean_lattice(3), chain_lattice(6), p22]:
        for _ in range(3):
            T = _perturbed(S, rng)
            for ids in _id_sets(T, rng):
                assert sup_natural(T, ids) == _sup_oracle(T, ids), (S, ids)
                assert inf_natural(T, ids) == _inf_oracle(T, ids), (S, ids)


def _guarded(S):
    return check_identity(S, "normal").ok and check_symmetric(S).ok


def _extended(S, x, y):
    """A copy of S whose cached order is the natural one plus x ≤ y, closed under transitivity."""
    leq = S._leq.copy()
    leq[x, y] = True
    for k in range(S.order):
        leq |= leq[:, k : k + 1] & leq[k : k + 1, :]
    return _with_order(S, leq)


def test_the_lemma_premise_is_sound_on_perturbed_orders(zoo):
    # a passing premise makes every commuting subset's join fold its supremum,
    # and prop_joins and section extension hold as their walks decide them;
    # a failing one makes the lemma checks raise instead of answering
    rng = random.Random(12)
    passed = failed = 0
    outcomes = set()
    guarded = list(filter(_guarded, zoo))
    perturbed = [_perturbed(S, rng, flip) for flip in (0.02, 0.05, 0.2) for S in guarded]
    # one added pair at a time on the small structures, where Lemma B's premise can survive it
    perturbed += [
        _extended(S, x, y)
        for S in guarded
        if S.order <= 4
        for x, y in itertools.permutations(range(S.order), 2)
        if not S._leq[x, y]
    ]
    for T in perturbed:
        S = FiniteSkewLattice(T.order, T.meet_table, T.join_table, zero=T.zero)
        changed = not np.array_equal(T._leq, S._leq)
        try:
            _joins_are_suprema(T)
        except InternalConsistencyError:
            failed += 1
            for fn in (check_join_complete, check_bounded_above, check_prop_joins, check_section_extension):
                with pytest.raises(InternalConsistencyError):
                    fn(T)
            if detect_zero(T) is not None and check_identity(T, "strongly_distributive").ok:
                with pytest.raises(InternalConsistencyError):
                    is_ncframe(T)
            else:
                assert is_ncframe(T) == is_ncframe(S)
            continue
        passed += changed  # a pass on a changed order
        assert _join_complete_oracle(T).ok, S
        for C in enumerate_commuting_subsets(T):
            assert _sup_oracle(T, C) == join_fold(T, C), (S, C)
        for fn, oracle in ((check_prop_joins, _prop_joins_oracle), (check_section_extension, _section_extension_oracle)):
            got = _outcome(fn, T)
            if isinstance(got, Certificate):
                assert got.ok and got == oracle(T), (fn.__name__, S)
                outcomes.add((fn.__name__, "held", changed))
            else:
                assert got[0] is InternalConsistencyError, (fn.__name__, S, got)
                outcomes.add((fn.__name__, "raised", changed))
    assert passed > 0 and failed > 0
    # Lemma B's premise holds on some changed orders and fails on others
    assert {("check_prop_joins", "held", True), ("check_prop_joins", "raised", True)} <= outcomes
    # Lemma D's holds only on the natural order itself: passing Lemma A's premise makes
    # the cached order contain the natural one, so an added x < y joins two elements
    # that do not commute, and then ↓y, holding both, lies in no (commutative) section
    assert ("check_section_extension", "held", False) in outcomes
    assert ("check_section_extension", "held", True) not in outcomes
    assert ("check_section_extension", "raised", True) in outcomes


def test_sections_come_from_the_tables_on_perturbed_orders(census_to_order_five, p22):
    # each ↓t is read from the meet table, so a changed cached order changes neither
    # the sections nor the verdict that one exists
    rng = random.Random(660)
    structures = [S for n in sorted(census_to_order_five) for S in census_to_order_five[n] if _guarded(S)]
    structures += [om_window(k) for k in range(1, 6)] + [p22, chain_lattice(5), boolean_lattice(3)]
    for S in structures:
        want = lattice_sections(S), check_section_exists(S)
        assert want[1].ok
        for flip in (0.05, 0.2, 0.5) * 5:
            T = _perturbed(S, rng, flip)
            assert (lattice_sections(T), check_section_exists(T)) == want, (S, flip)


# a two-element left-zero class above a copy of itself, 0 < 1 and 2 < 3
_FLAT_OVER_FLAT = FiniteSkewLattice(
    4,
    ((0, 0, 0, 0), (0, 1, 0, 1), (2, 2, 2, 2), (2, 3, 2, 3)),
    ((0, 1, 2, 3), (1, 1, 3, 3), (0, 1, 2, 3), (1, 1, 3, 3)),
)


@pytest.mark.parametrize(
    "check, S, cell, message",
    [
        (_joins_are_suprema, chain_lattice(2), (1, 0), "natural order is not a partial order at 0"),
        # 1 and 2 do not commute, so no pair test reads the added 1 ≤ 2
        (_joins_are_suprema, build_pfn_algebra(2, 2), (1, 2), "natural order is not a partial order at 1"),
        # 2 becomes an upper bound of 1 and 2 below their join 3
        (_joins_are_suprema, boolean_lattice(2), (1, 2), "join 3 of the commuting pair 1, 2 is not their supremum"),
        # 3 and 4 form a D-class; Lemma A's premise survives the added 3 ≤ 4
        (check_prop_joins, om_window(2), (3, 4), "element 3 lies below another element of its D-class"),
        (check_section_extension, om_window(2), (3, 4), "the down-set of 4 lies in no lattice section"),
        # 0 ≤ 3 spans two classes, so Lemma B's premise holds, but ↓3 = {0, 2, 3} lies in no section
        (check_section_extension, _FLAT_OVER_FLAT, (0, 3), "the down-set of 3 lies in no lattice section"),
    ],
    ids=["antisymmetry", "transitivity", "least upper bound", "lemma B", "lemma D", "lemma D across classes"],
)
def test_the_premise_names_each_kind_of_fault(check, S, cell, message):
    leq = S._leq.copy()
    leq[cell] = not leq[cell]
    T = _with_order(S, leq)
    if check is not _joins_are_suprema:
        _joins_are_suprema(T)  # Lemma A's premise holds
    if S is _FLAT_OVER_FLAT:
        assert check_prop_joins(T).ok
    with pytest.raises(InternalConsistencyError, match=rf"^{re.escape(message)}$"):
        check(T)
