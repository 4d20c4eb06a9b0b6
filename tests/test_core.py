"""Axioms, identities, class structure and quotients on known structures."""

import dataclasses
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewlat import core
from skewlat.core import (
    CapExceededError,
    FiniteSkewLattice,
    Homomorphism,
    InternalConsistencyError,
    PreconditionError,
    StructureError,
    IDENTITY_NAMES,
    check_identity,
    check_lemma_reg,
    check_symmetric,
    detect_zero,
    down_set,
    green_d,
    is_commutative,
    is_homomorphism,
    lattice_from_order,
    natural_leq,
    quotient,
    restriction,
    subalgebra,
    validate_skew_axioms,
)
from skewlat.census import (
    canonicalize,
    enumerate_by_quotient_construction,
    enumerate_skew_lattices,
    search_counterexample,
)
from skewlat.completeness import check_implication_chain, commuting_subset, join_fold, meet_fold, sup_natural
from skewlat.frames import check_theorem_ncframes
from skewlat.models import (
    boolean_lattice,
    build_pfn_algebra,
    chain_lattice,
    diamond_m3,
    fi_one_point_chain,
    om_verify_no_infimum_of_infs,
    om_verify_no_join_of_naturals,
    om_window,
)

# the least non-normal structure: a two-element class under a top element
NON_NORMAL_3 = FiniteSkewLattice(
    3, ((0, 0, 0), (0, 1, 2), (2, 2, 2)), ((0, 1, 2), (1, 1, 1), (0, 1, 2))
)


def _all_census(max_order=4):
    for n in range(1, max_order + 1):
        yield from enumerate_skew_lattices(n)


# --- construction and validation ------------------------------------------

def test_rejects_nonsquare_table():
    J = ((0, 1), (0, 1))
    cases = [
        (((0, 0), (1,)), r"meet table row 1 has 1 entries, expected 2"),  # ragged: the row is named
        (((0, 0),), r"meet table has 1 rows, expected 2"),
        (np.zeros((2, 3), dtype=int), r"meet table row 0 has 3 entries, expected 2"),
        # a table or a row that cannot be iterated is named, not a bare TypeError
        ([3, 3], r"meet table row 0 is 3, not a sequence of entries"),
        ([(0, 0), 5], r"meet table row 1 is 5, not a sequence of entries"),
        (5, r"meet table is 5, not a sequence of rows"),
        (None, r"meet table is None, not a sequence of rows"),
    ]
    for meet, message in cases:
        with pytest.raises(StructureError, match=f"^{message}$"):
            FiniteSkewLattice(2, meet, J)


def test_rejects_out_of_range_entry():
    with pytest.raises(StructureError, match=r"^meet table entry 2 at row 0 is out of range 0\.\.1$"):
        FiniteSkewLattice(2, ((0, 2), (1, 1)), ((0, 1), (0, 1)))
    # the first bad entry in row-major order is named, whichever side of the range it is on
    with pytest.raises(StructureError, match=r"^join table entry -1 at row 1 is out of range 0\.\.2$"):
        FiniteSkewLattice(3, ((0, 0, 0), (0, 1, 1), (0, 1, 2)), ((0, 1, 2), (1, -1, 7), (2, 9, 2)))
    # an entry is an integer when operator.index takes it, or a cell of an integer or bool array;
    # anything else is named as given, never truncated or parsed
    J = ((0, 1), (1, 1))
    cases = [
        (((0, 2**70), (0, 1)), r"meet table entry 1180591620717411303424 at row 0 is out of range 0\.\.1"),
        (((0, 2**63), (0, 1)), r"meet table entry 9223372036854775808 at row 0 is out of range 0\.\.1"),
        (np.array([[0, 0], [200, 1]], dtype=np.uint8), r"meet table entry 200 at row 1 is out of range 0\.\.1"),
        (np.array([[0, 2**64 - 1], [0, 1]], dtype=np.uint64),
         r"meet table entry 18446744073709551615 at row 0 is out of range 0\.\.1"),
        (np.array([[0, 0], [0, -1]]), r"meet table entry -1 at row 1 is out of range 0\.\.1"),
        (((0, 0.7), (0, 1)), r"meet table entry at row 0 is 0\.7, not an integer"),
        (((0, 0), ("1", 1)), r"meet table entry at row 1 is '1', not an integer"),
        (((0, None), (0, 1)), r"meet table entry at row 0 is None, not an integer"),
        (((0, (1, 2)), (0, 1)), r"meet table entry at row 0 is \(1, 2\), not an integer"),
        (((0, [1]), (0, [1])), r"meet table entry at row 0 is \[1\], not an integer"),
        (np.array([[0.0, 0.0], [0.0, 1.0]]), r"meet table entry at row 0 is np\.float64\(0\.0\), not an integer"),
    ]
    for meet, message in cases:
        with pytest.raises(StructureError, match=f"^{message}$"):
            FiniteSkewLattice(2, meet, J)


def test_rejects_zero_out_of_range():
    with pytest.raises(StructureError):
        FiniteSkewLattice(2, ((0, 0), (0, 1)), ((0, 1), (1, 1)), zero=5)
    for zero in (0.7, "0"):
        with pytest.raises(StructureError, match=f"^zero id is {zero!r}, not an integer$"):
            FiniteSkewLattice(2, ((0, 0), (0, 1)), ((0, 1), (1, 1)), zero=zero)


def test_rejects_wrong_label_count():
    with pytest.raises(StructureError):
        FiniteSkewLattice(2, ((0, 0), (0, 1)), ((0, 1), (1, 1)), labels=("only one",))


def test_label_checks_its_id():
    for S, names in ((chain_lattice(3), ["0", "1", "2"]), (boolean_lattice(2), ["{}", "{0}", "{1}", "{0,1}"])):
        assert [S.label(i) for i in range(S.order)] == names
        for bad in (-1, S.order):
            with pytest.raises(PreconditionError, match=rf"^label: id {bad} out of range 0\.\.{S.order - 1}$"):
                S.label(bad)


def test_order_is_a_positive_integer_and_not_a_bool():
    for order in (0, -1, 2.0, "2", True, None):
        M = ((0,),) if order is True else ((0, 0), (0, 1))
        with pytest.raises(StructureError, match=r"^order must be a positive integer, got "):
            FiniteSkewLattice(order, M, M)
    S = FiniteSkewLattice(np.int64(2), ((0, 0), (0, 1)), ((0, 1), (1, 1)), zero=np.int64(0))
    assert type(S.order) is int and type(S.zero) is int and repr(S) == "FiniteSkewLattice(order=2, zero=0)"


def test_tables_are_frozen_tuples(chain2):
    M, J = chain2.meet_table, chain2.join_table
    kinds = {
        "tuple rows": lambda T: T,
        "list rows": lambda T: [list(row) for row in T],
        "generator of rows": lambda T: (iter(row) for row in T),
        "int64 array": lambda T: np.array(T, dtype=np.int64),
        "uint8 array": lambda T: np.array(T, dtype=np.uint8),
        "intp array": lambda T: np.array(T, dtype=np.intp),
    }
    for kind, make in kinds.items():
        meet, join = make(M), make(J)
        S = FiniteSkewLattice(chain2.order, meet, join, zero=chain2.zero)
        assert S == chain2 and hash(S) == hash(chain2), kind
        assert isinstance(S.meet_table, tuple), kind
        assert all(isinstance(row, tuple) and all(type(v) is int for v in row) for row in S.meet_table), kind
        assert S.meet_table == tuple(map(tuple, S._m.tolist())), kind
        assert S.join_table == tuple(map(tuple, S._j.tolist())), kind
        assert not S._m.flags.writeable and not S._j.flags.writeable and S._m.dtype == np.intp, kind
        if isinstance(meet, np.ndarray):  # the caller's array is copied, not frozen or shared
            assert meet.flags.writeable and not np.shares_memory(meet, S._m), kind
        for k, table in enumerate((S._m, S._j)):  # the scans' index arrays are the tables' writeable bases
            base = S._tables.tables[k]
            assert np.shares_memory(base, table) and base.flags.writeable and not table.flags.writeable, kind
    for name in ("order", "zero", "labels", "meet_table"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(chain2, name, getattr(chain2, name))
    for other in (
        FiniteSkewLattice(chain2.order, M, J),
        FiniteSkewLattice(chain2.order, M, J, zero=chain2.zero, labels=("0", "1")),
        FiniteSkewLattice(chain2.order, M, J, zero=chain2.zero, labels=("a", "b")),
    ):
        assert other != chain2 and other == FiniteSkewLattice(other.order, M, J, zero=other.zero, labels=other.labels)
    assert (chain2 == object()) is False and chain2 != object()


def test_large_tuple_tables_read_as_numpy_reads_them():
    # from core._BYTES_FROM_ORDER up, tuple and list rows go through one bytes join;
    # every other kind of input, and every fault, takes the np.array path as below it
    for n in (core._BYTES_FROM_ORDER, 97, 256):
        rng = random.Random(n)
        T = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        kinds = {
            "tuple rows": tuple(map(tuple, T)),
            "list rows": T,
            "generator of rows": (iter(row) for row in T),
            "np.int64 entries": [[np.int64(v) for v in row] for row in T],
            "bool entries": [[bool(v & 1) for v in row] for row in T],
            "np.bool_ entries": [[np.bool_(v & 1) for v in row] for row in T],
        }
        for kind, rows in kinds.items():
            want = np.array(T) & 1 if "bool" in kind else np.array(T)
            got = core._table_array(rows, n, "meet")
            assert got.dtype == np.intp and not got.flags.writeable and np.array_equal(got, want), (n, kind)
            assert got.base.flags.writeable, (n, kind)
    n = 256
    bad = np.zeros((n, n), dtype=np.int8)
    bad[3, 5] = -1  # its raw byte reads 255, which is in range at order 256
    for rows in (bad, list(bad), tuple(bad)):
        with pytest.raises(StructureError, match=r"^meet table entry -1 at row 3 is out of range 0\.\.255$"):
            core._table_array(rows, n, "meet")
    T = [[0] * n for _ in range(n)]
    for cell, message in (
        (256, r"meet table entry 256 at row 7 is out of range 0\.\.255"),
        (-1, r"meet table entry -1 at row 7 is out of range 0\.\.255"),
        (1.0, r"meet table entry at row 7 is 1\.0, not an integer"),
        ((1,), r"meet table entry at row 7 is \(1,\), not an integer"),
    ):
        rows = [row[:] for row in T]
        rows[7][9] = cell
        with pytest.raises(StructureError, match=f"^{message}$"):
            core._table_array(rows, n, "meet")
    with pytest.raises(StructureError, match=r"^meet table row 8 has 255 entries, expected 256$"):
        core._table_array([row[:255] if i == 8 else row for i, row in enumerate(T)], n, "meet")
    with pytest.raises((StructureError, TypeError)):  # bytes(256) would be 256 zero bytes
        core._table_array([256] * n, n, "meet")


def test_meet_and_join_check_their_ids():
    S = chain_lattice(3)
    assert S.meet(2, 1) == 1 and S.join(2, 1) == 2
    for a, b in ((-1, 0), (0, -1), (S.order, 0), (0, S.order)):
        bad = b if 0 <= a < S.order else a
        for op in ("meet", "join"):
            with pytest.raises(PreconditionError, match=rf"^{op}: id {bad} out of range 0\.\.2$"):
                getattr(S, op)(a, b)


# each entry point that takes element ids, with the id under test in one place, and the start of its error
_ID_TAKERS = {
    "meet": (lambda S, v: S.meet(v, 0), "meet: id"),
    "join": (lambda S, v: S.join(0, v), "join: id"),
    "label": (lambda S, v: S.label(v), "label: id"),
    "natural_leq": (lambda S, v: natural_leq(S, 0, v), "natural_leq: id"),
    "down_set": (lambda S, v: down_set(S, v), "down_set: id"),
    "restriction": (lambda S, v: restriction(S, v, 0), "restriction: id"),
    "restriction class": (lambda S, v: restriction(S, 2, v), "restriction: class id"),
    "subalgebra": (lambda S, v: subalgebra(S, [0, v]), "subalgebra: id"),
    "sup_natural": (lambda S, v: sup_natural(S, [v, 1]), "sup_natural: id"),
    "commuting_subset": (lambda S, v: commuting_subset(S, [v]), "commuting_subset: id"),
    "join_fold": (lambda S, v: join_fold(S, [0, v]), "commuting_subset: id"),
}


@pytest.mark.parametrize("bad", [1.5, "1", None, True])
@pytest.mark.parametrize("call, prefix", _ID_TAKERS.values(), ids=_ID_TAKERS.keys())
def test_ids_are_integers_never_truncated(call, prefix, bad):
    S = chain_lattice(3)
    with pytest.raises(PreconditionError, match=f"^{re.escape(f'{prefix} {bad!r}')} is not an integer$"):
        call(S, bad)
    assert call(S, np.int64(1)) == call(S, 1)


# each size and cap argument, as a call that passes it the value under test, the start of its error and its least value
_SIZE_TAKERS = {
    "census order": (lambda v: next(enumerate_skew_lattices(v)), "enumerate_skew_lattices: order", 1),
    "census order_cap": (lambda v: next(enumerate_skew_lattices(1, order_cap=v)), "enumerate_skew_lattices: order_cap", 1),
    "order_max": (lambda v: search_counterexample(v, "validated", "commutative"), "search_counterexample: order_max", 1),
    "cross-check order": (enumerate_by_quotient_construction, "enumerate_by_quotient_construction: order", 1),
    "domain_size": (lambda v: build_pfn_algebra(v, 1), "build_pfn_algebra: domain_size", 1),
    "codomain_size": (lambda v: build_pfn_algebra(1, v), "build_pfn_algebra: codomain_size", 1),
    "build order_cap": (lambda v: build_pfn_algebra(1, 1, order_cap=v), "build_pfn_algebra: order_cap", 1),
    "om_window": (om_window, "om_window: k", 1),
    "no join": (om_verify_no_join_of_naturals, "om_verify_no_join_of_naturals: k", 1),
    "no infimum": (om_verify_no_infimum_of_infs, "om_verify_no_infimum_of_infs: k", 1),
    "chain_lattice": (chain_lattice, "chain_lattice: length", 1),
    "boolean_lattice": (boolean_lattice, "boolean_lattice: m", 0),
    "fi_one_point_chain": (fi_one_point_chain, "fi_one_point_chain: k", 1),
    "SKEWLAT_CENSUS_CAP": (lambda v: next(enumerate_skew_lattices(v)), "enumerate_skew_lattices: SKEWLAT_CENSUS_CAP", 1),
    "SKEWLAT_BUILD_CAP": (chain_lattice, "chain_lattice: SKEWLAT_BUILD_CAP", 1),
}


@pytest.mark.parametrize("bad", [True, 2.0, "2", "below"])
@pytest.mark.parametrize("name", _SIZE_TAKERS)
def test_sizes_and_caps_are_integers_never_truncated(monkeypatch, name, bad):
    call, prefix, lo = _SIZE_TAKERS[name]
    v = lo - 1 if bad == "below" else bad
    if name.startswith("SKEWLAT_"):  # the variable holds the value's text, and the call passes a valid size
        monkeypatch.setenv(name, repr(v))
        v = 1
    tail = f"out of range {lo}.." if bad == "below" else "is not an integer"
    with pytest.raises(PreconditionError, match=rf"^{re.escape(prefix)} .+ {re.escape(tail)}$") as err:
        call(v)
    assert type(err.value) is PreconditionError


@pytest.mark.parametrize("name", ["SKEWLAT_CENSUS_CAP", "SKEWLAT_BUILD_CAP"])
def test_a_cap_variable_holds_ascii_decimal_text(monkeypatch, name):
    # the variable is read as a structure file's numbers are: ASCII digits after an optional "-"
    call, prefix, _ = _SIZE_TAKERS[name]
    for text in ("\u0666", "\uff16", "+6", "6_0", "0x6", "6.0", "", " "):  # Arabic-Indic and full-width sixes first
        monkeypatch.setenv(name, text)
        with pytest.raises(PreconditionError, match=f"^{re.escape(f'{prefix} {text!r} is not an integer')}$"):
            call(1)
    monkeypatch.setenv(name, " -6 ")
    with pytest.raises(PreconditionError, match=f"^{re.escape(prefix)} -6 out of range 1\\.\\.$"):
        call(1)
    monkeypatch.setenv(name, "\t2\n")  # blanks around the digits are allowed in a variable
    assert call(2) is not None
    with pytest.raises(CapExceededError, match=f"> cap 2; set {name} to override$"):
        call(3)


def test_no_scan_reads_the_tuple_tables(monkeypatch):
    # every scan reads the arrays; the tuple tables are rendered only for a caller that reads them
    def unread(S):
        raise AssertionError("a tuple table was read")

    monkeypatch.setattr(FiniteSkewLattice, "meet_table", property(unread))
    monkeypatch.setattr(FiniteSkewLattice, "join_table", property(unread))
    for S in (build_pfn_algebra(3, 2), om_window(6)):
        assert validate_skew_axioms(S).ok
        assert [check_identity(S, name).ok for name in IDENTITY_NAMES] == [True] * 5 + [False]  # left-handed
        assert quotient(S).lattice.order < S.order
        assert down_set(S, S.order - 1).order > 1 and subalgebra(S, (0, 1)).order == 2
        assert check_theorem_ncframes(S).ok and check_implication_chain(S).ok
        assert (S.meet(0, 1), S.join(0, 1), meet_fold(S, (0, 1)), join_fold(S, (0, 1))) == (0, 1, 0, 1)
    assert canonicalize(chain_lattice(3)).meet_table == ((0, 0, 0), (0, 1, 1), (0, 1, 2))


# --- axiom scan ------------------------------------------------------------

def test_chain_and_flats_are_valid(chain2, flat_left, flat_right):
    for S in (chain2, flat_left, flat_right):
        assert validate_skew_axioms(S).ok


def test_double_projection_fails_absorption_with_least_witness():
    # both operations = left projection: idempotent, associative, no absorption
    proj = ((0, 0), (1, 1))
    cert = validate_skew_axioms(FiniteSkewLattice(2, proj, proj))
    assert not cert.ok
    assert cert.witness == ("absorption (x∨y)∧y=y", (0, 1))


def test_nonassociative_meet_is_caught():
    meet = ((0, 0, 0), (0, 1, 1), (0, 2, 2))  # zero under a flat pair
    join = ((0, 1, 2), (1, 1, 2), (2, 1, 2))
    bad = ((0, 0, 0), (0, 1, 0), (0, 1, 2))  # (1∧2)∧1 = 0 but 1∧(2∧1) = 1
    cert = validate_skew_axioms(FiniteSkewLattice(3, bad, join))
    assert not cert.ok
    law, (a, b, c) = cert.witness
    assert "associativ" in law
    t = bad
    assert t[t[a][b]][c] != t[a][t[b][c]]
    assert validate_skew_axioms(FiniteSkewLattice(3, meet, join)).ok


def test_declared_zero_is_checked():
    cert = validate_skew_axioms(FiniteSkewLattice(2, ((0, 0), (0, 1)), ((0, 1), (1, 1)), zero=1))
    assert not cert.ok
    assert "zero" in cert.witness[0]


def test_idempotency_witness():
    cert = validate_skew_axioms(FiniteSkewLattice(2, ((1, 0), (1, 1)), ((0, 1), (1, 1))))
    assert not cert.ok
    assert "idempoten" in cert.witness[0]
    assert cert.witness[1] == (0,)


# --- natural order ----------------------------------------------------------

def test_natural_order_on_chain(chain2):
    assert natural_leq(chain2, 0, 1)
    assert not natural_leq(chain2, 1, 0)
    assert natural_leq(chain2, 1, 1)


def test_flat_elements_are_incomparable(flat_left):
    assert not natural_leq(flat_left, 0, 1)
    assert not natural_leq(flat_left, 1, 0)


def test_natural_order_meet_and_join_forms_agree():
    # a∧b = b∧a = a is the definition; b∨a = b = a∨b must be equivalent
    for S in _all_census(4):
        for a in range(S.order):
            for b in range(S.order):
                join_form = S.join(b, a) == b == S.join(a, b)
                assert natural_leq(S, a, b) == join_form


def test_natural_leq_range_checked(chain2):
    with pytest.raises(PreconditionError):
        natural_leq(chain2, 0, 2)


# --- identities --------------------------------------------------------------

def test_flat_handedness_and_witness(flat_left, flat_right):
    assert check_identity(flat_left, "left_handed").ok
    assert not check_identity(flat_left, "right_handed").ok
    assert check_identity(flat_right, "right_handed").ok
    lh = check_identity(flat_right, "left_handed")
    assert not lh.ok
    assert lh.witness == ("x∧y∧x = x∧y", (0, 1))


def test_failed_identity_certificate_is_falsy(flat_right):
    # regression: `or`-style defaulting once swallowed failing certificates
    cert = check_identity(flat_right, "left_handed")
    assert cert.ok is False and not cert


def test_identity_verdicts_cached(p22):
    assert check_identity(p22, "normal") is check_identity(p22, "normal")


def test_unknown_identity_name(chain2):
    with pytest.raises(ValueError):
        check_identity(chain2, "modular")


def test_identity_requires_valid_structure():
    proj = ((0, 0), (1, 1))
    broken = FiniteSkewLattice(2, proj, proj)
    with pytest.raises(PreconditionError):
        check_identity(broken, "normal")


def test_non_normal_witness_resubstitutes():
    cert = check_identity(NON_NORMAL_3, "normal")
    assert not cert.ok
    x, y, z = cert.witness[1]
    m = NON_NORMAL_3.meet
    assert m(m(m(x, y), z), x) != m(m(m(x, z), y), x)


def test_lattices_satisfy_everything_commutative():
    for L in (chain_lattice(4), boolean_lattice(2)):
        assert is_commutative(L)
        for name in ("regular", "normal", "distributive", "strongly_distributive",
                     "left_handed", "right_handed"):
            assert check_identity(L, name).ok, name
        assert check_symmetric(L).ok


def test_m3_is_not_distributive(m3):
    assert not check_identity(m3, "distributive").ok
    assert not check_identity(m3, "strongly_distributive").ok
    assert check_identity(m3, "normal").ok


def test_small_structures_are_all_symmetric():
    # asymmetry needs more room than four elements give
    assert all(check_symmetric(S).ok for S in _all_census(4))


def test_commutativity_is_two_sided(chain2, flat_left):
    assert is_commutative(chain2)
    assert not is_commutative(flat_left)


# --- Green's relation and quotient -------------------------------------------

def test_class_partition_of_partial_functions(p22):
    dp = green_d(p22)
    assert sorted(len(c) for c in dp.classes) == [1, 2, 2, 4]
    assert dp.classes[dp.bottom_class] == (0,)
    assert len(dp.classes[dp.top_class]) == 4
    # same domain <=> same class: {1:0} with {1:1}, but not with {0:0}
    assert dp.same_class(1, 2)
    assert not dp.same_class(1, 3)


def test_class_order_tracks_domain_inclusion(p22):
    dp = green_d(p22)
    assert dp.leq(dp.class_of[1], dp.class_of[4])
    assert not dp.leq(dp.class_of[1], dp.class_of[3])


def test_commutative_structure_has_singleton_classes(b2):
    dp = green_d(b2)
    assert dp.class_count == b2.order
    assert all(len(c) == 1 for c in dp.classes)


def test_quotient_is_commutative_and_projection_is_morphism():
    for S in _all_census(4):
        q = quotient(S)
        assert is_commutative(q.lattice)
        assert is_homomorphism(q.as_homomorphism(S)).ok


def test_quotient_of_partial_functions_is_boolean_of_order_4(p22):
    q = quotient(p22)
    assert q.lattice.order == 4
    assert q.lattice.zero is not None
    # class labels collect the member labels
    assert q.lattice.labels[0] == "{{}}"
    assert q.lattice.labels[1] == "{{1:0},{1:1}}"


def test_quotient_of_lattice_is_the_lattice(b2):
    assert quotient(b2).lattice.order == b2.order


def test_quotient_is_idempotent(p22):
    once = quotient(p22).lattice
    assert quotient(once).lattice.order == once.order


def test_class_meets_are_well_defined_proof_by_running():
    # green_d + quotient raise InternalConsistencyError if D ever fails
    for S in _all_census(4):
        green_d(S)
        quotient(S)


@pytest.mark.parametrize("meet", [
    ((0, 0, 0), (0, 1, 1), (2, 2, 2)),  # 0 D 2 and 2 D 1, but not 0 D 1
    ((1, 1, 1), (1, 1, 1), (1, 1, 1)),  # 0 is not D-related to itself
], ids=["not transitive", "not reflexive"])
def test_a_d_relation_that_is_not_an_equivalence_is_an_internal_error(meet):
    # no skew lattice has such a relation, so green_d refuses these tables first; the partition itself still checks
    S = FiniteSkewLattice(3, meet, ((0, 1, 2), (1, 1, 2), (2, 2, 2)))
    assert not S.validity.ok
    with pytest.raises(InternalConsistencyError, match=r"^D-relation is not an equivalence; structure is not a valid skew lattice$"):
        S._dpart


def _set_partitions(items):
    # every partition of a list into blocks, blocks in order of their least member
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [(head,)] + part
        for i, block in enumerate(part):
            yield part[:i] + [(head,) + block] + part[i + 1:]


def _well_definedness_failure(S, classes):
    # the first class pair, row-major, that meet (then join) sends to two classes
    class_of = {x: k for k, block in enumerate(classes) for x in block}
    for a, A in enumerate(classes):
        for b, B in enumerate(classes):
            for opname, op in (("meet", S.meet), ("join", S.join)):
                got = sorted({class_of[op(x, y)] for x in A for y in B})
                if len(got) > 1:
                    return f"quotient {opname} not well defined on classes {a},{b}: got classes {got}"
    return None


def _with_partition(S, classes):
    # a fresh copy of S whose cached D-partition is replaced by the given blocks
    T = FiniteSkewLattice(S.order, S.meet_table, S.join_table, zero=S.zero, labels=S.labels)
    class_of = tuple(k for x in range(S.order) for k, block in enumerate(classes) if x in block)
    T.__dict__["_dpart"] = dataclasses.replace(green_d(T), class_of=class_of, classes=tuple(classes))
    return T


def test_quotient_reports_the_first_class_pair_that_is_not_well_defined():
    chain = _with_partition(chain_lattice(3), [(0, 2), (1,)])
    with pytest.raises(InternalConsistencyError, match=r"^quotient meet not well defined on classes 0,1: got classes \[0, 1\]$"):
        quotient(chain)
    cases = 0
    for S in (chain_lattice(4), diamond_m3(), boolean_lattice(2), NON_NORMAL_3, build_pfn_algebra(1, 2)):
        for part in _set_partitions(list(range(S.order))):
            classes = sorted(tuple(sorted(block)) for block in part)
            want = _well_definedness_failure(S, classes)
            if want is None:
                continue
            cases += 1
            with pytest.raises(InternalConsistencyError) as err:
                quotient(_with_partition(S, classes))
            assert str(err.value) == want
    assert cases > 50


# --- the regularity consequence ------------------------------------------------

def test_middle_elements_drop_out_on_models(p22, window4):
    assert check_lemma_reg(p22).ok
    assert check_lemma_reg(window4).ok


def test_middle_element_dropping_witness_shape(flat_left):
    assert check_lemma_reg(flat_left).ok


# --- substructures ---------------------------------------------------------------

def test_down_set_is_commutative_in_normal_structure(p22):
    d = down_set(p22, 4)
    assert d.order == 4
    assert is_commutative(d)


def test_down_set_of_non_normal_top_is_not_commutative():
    d = down_set(NON_NORMAL_3, 1)
    assert d.order == 3
    assert not is_commutative(d)


def test_subalgebra_requires_closure(p22):
    with pytest.raises(PreconditionError):
        subalgebra(p22, [1, 3])  # {1:0} ∧ {0:0} = {} falls outside the pair


def test_subalgebra_keeps_labels(p22):
    sub = subalgebra(p22, [0, 1])
    assert sub.labels == ("{}", "{1:0}")


def _subalgebra_by_loop(S, members):
    """The cell-by-cell reference: the first cell that leaves the subset raises,
    ids in order and the meet before the join."""
    ids = sorted(set(members))
    index = {v: i for i, v in enumerate(ids)}
    k = len(ids)
    meet_rows = [[0] * k for _ in range(k)]
    join_rows = [[0] * k for _ in range(k)]
    for a in ids:
        for b in ids:
            for rows, table, opname in ((meet_rows, S.meet_table, "meet"), (join_rows, S.join_table, "join")):
                v = table[a][b]
                if v not in index:
                    return f"subset not closed: {opname} of {a},{b} is {v}"
                rows[index[a]][index[b]] = index[v]
    zero = index[S.zero] if S.zero is not None and S.zero in index else None
    labels = tuple(S.label(v) for v in ids) if S.labels is not None else None
    return FiniteSkewLattice(k, meet_rows, join_rows, zero=zero, labels=labels)


def _subalgebra_or_error(S, members):
    try:
        return subalgebra(S, members)
    except PreconditionError as exc:
        return str(exc)


def test_subalgebra_matches_the_loop(p22):
    rng = random.Random(17)
    cases = [(p22, rng.sample(range(p22.order), rng.randint(1, p22.order))) for _ in range(300)]
    cases += [(S, rng.sample(range(S.order), rng.randint(1, S.order))) for S in _all_census() for _ in range(3)]
    p42 = build_pfn_algebra(4, 2)
    cases += [(p42, np.flatnonzero(p42._leq[:, a])) for a in range(p42.order)]
    closed = 0
    for S, members in cases:
        got = _subalgebra_or_error(S, members)
        assert got == _subalgebra_by_loop(S, members), (S, sorted(members))
        closed += not isinstance(got, str)
    # both outcomes are exercised
    assert 100 < closed < len(cases) - 100, closed


def test_restriction_picks_the_unique_lower_witness(p22):
    dp = green_d(p22)
    u = dp.class_of[3]  # class of functions with domain {0}
    r = restriction(p22, 4, u)  # {0:0,1:0} cut down to domain {0}
    assert r == 3  # {0:0}
    assert natural_leq(p22, r, 4)


def test_restriction_needs_normality():
    with pytest.raises(PreconditionError):
        restriction(NON_NORMAL_3, 1, 0)


def test_restriction_needs_comparable_classes(p22):
    dp = green_d(p22)
    with pytest.raises(PreconditionError):
        restriction(p22, 1, dp.class_of[3])


# --- homomorphisms -----------------------------------------------------------------

def test_homomorphism_mapping_is_range_checked(chain2, b2):
    with pytest.raises(StructureError):
        Homomorphism(chain2, b2, (0, 9))
    with pytest.raises(StructureError, match=r"^mapping has 1 entries for source order 2$"):
        Homomorphism(chain2, b2, (0,))
    with pytest.raises(StructureError, match=r"^mapping image of 1 is 0\.5, not an integer$"):
        Homomorphism(chain2, b2, (0, 0.5))
    assert Homomorphism(chain2, b2, np.array([0, 3])).mapping == (0, 3)


def test_broken_map_is_rejected(chain2):
    h = Homomorphism(chain2, chain2, (1, 0))  # swaps the chain, breaks meet
    cert = is_homomorphism(h)
    assert not cert.ok
    law, (a, b) = cert.witness
    assert law == "h(x∧y) = h(x)∧h(y)" and (a, b) == (0, 1)


def test_identity_is_homomorphism(p22):
    assert is_homomorphism(Homomorphism(p22, p22, tuple(range(p22.order)))).ok


# --- lattices from posets ------------------------------------------------------------

def test_diamond_tables_from_order(m3):
    assert m3.meet(1, 2) == 0
    assert m3.join(1, 2) == 4
    assert m3.zero == 0
    assert is_commutative(m3)


def test_antichain_without_top_is_not_a_lattice():
    leq = ((True, False), (False, True))
    with pytest.raises(PreconditionError):
        lattice_from_order(leq)


def test_cyclic_relation_is_not_a_poset():
    for leq, message in (
        (((True, True), (True, True)), "order not antisymmetric at 0,1"),
        (((True, False),), "order matrix must be square and nonempty"),
        (((True, False), (False, False)), "order not reflexive at 1"),
        (((1, 1, 0), (0, 1, 1), (0, 0, 1)), "order not transitive at 0,1,2"),
        ((("False", 1), (0, "x")), "order entry 'False' at row 0, column 0 is not a bool, 0 or 1"),
        (((1, 0.5), (0, 1)), "order entry 0.5 at row 0, column 1 is not a bool, 0 or 1"),
        (((1, 0), (None, 1)), "order entry None at row 1, column 0 is not a bool, 0 or 1"),
        (((1, 1), (0, 2)), "order entry 2 at row 1, column 1 is not a bool, 0 or 1"),
        (["ab", "cd"], "order entry 'a' at row 0, column 0 is not a bool, 0 or 1"),
    ):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            lattice_from_order(leq)
    # bools, numpy's too, and the integers 0 and 1 are the entries an order matrix holds
    two_chain = ((np.True_, True), (np.int64(0), np.uint8(1)))
    assert lattice_from_order(two_chain).meet_table == lattice_from_order(((1, 1), (0, 1))).meet_table == ((0, 0), (0, 1))


# --- isomorphism invariance ------------------------------------------------------------

@st.composite
def _census_structure_and_permutation(draw):
    order = draw(st.integers(min_value=1, max_value=4))
    pool = list(enumerate_skew_lattices(order))
    S = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
    perm = draw(st.permutations(range(order)))
    return S, tuple(perm)


def _relabeled(S, perm):
    n = S.order
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            meet[perm[i]][perm[j]] = perm[S.meet(i, j)]
            join[perm[i]][perm[j]] = perm[S.join(i, j)]
    return FiniteSkewLattice(n, meet, join)


@settings(max_examples=60, deadline=None)
@given(_census_structure_and_permutation())
def test_identity_verdicts_are_isomorphism_invariant(case):
    S, perm = case
    T = _relabeled(S, perm)
    assert T.validity.ok
    for name in IDENTITY_NAMES:
        assert check_identity(T, name).ok == check_identity(S, name).ok
    assert is_commutative(T) == is_commutative(S)
    assert (detect_zero(T) is None) == (detect_zero(S) is None)


@settings(max_examples=60, deadline=None)
@given(_census_structure_and_permutation())
def test_quotient_order_is_isomorphism_invariant(case):
    S, perm = case
    assert quotient(_relabeled(S, perm)).lattice.order == quotient(S).lattice.order


def _zero_law_failures(S, z):
    # oracle: the elements x at which z breaks x∧z = z = z∧x or x∨z = x = z∨x
    return [
        x for x in range(S.order) if not (S.meet(x, z) == z == S.meet(z, x) and S.join(x, z) == x == S.join(z, x))
    ]


def test_the_zero_of_raw_tables_is_the_one_a_loop_finds():
    # _zero_of reads no axiom: on arbitrary tables, with some of the four zero laws
    # planted for one element, it finds exactly the element where all four hold
    rng = np.random.default_rng(29)
    found = 0
    for n in range(1, 8):
        for _ in range(60):
            m, j = rng.integers(0, n, (2, n, n))
            z, ids = int(rng.integers(n)), np.arange(n)
            plant = rng.random(4) < 0.8
            for laws, (table, value) in zip(plant, ((m[z], z), (m[:, z], z), (j[z], ids), (j[:, z], ids))):
                if laws:
                    table[:] = value
            zeros = [u for u in range(n) if all(m[x, u] == u == m[u, x] and j[x, u] == x == j[u, x] for x in range(n))]
            assert core._zero_of(m, j) == (zeros[0] if zeros else None), (m, j)
            found += bool(zeros)
    assert 100 < found < 7 * 60


def test_zero_laws_match_the_per_candidate_loop(census_to_order_five):
    structures = [S for n in sorted(census_to_order_five) for S in census_to_order_five[n]]
    for S in (om_window(9), build_pfn_algebra(2, 2), boolean_lattice(3), chain_lattice(7), diamond_m3()):
        n = S.order
        structures += [S, _relabeled(S, [n - 1 - i for i in range(n)])]
        structures += [_relabeled(S, [(i + 1) % n for i in range(n)])]
    for S in structures:
        zeros = [z for z in range(S.order) if not _zero_law_failures(S, z)]
        assert detect_zero(S) == (zeros[0] if zeros else None)
        for z in {0, S.order - 1, S.order // 2}:
            cert = validate_skew_axioms(FiniteSkewLattice(S.order, S.meet_table, S.join_table, zero=z))
            bad = _zero_law_failures(S, z)
            assert cert.witness == (("zero laws x∧0=0=0∧x, x∨0=x=0∨x", (bad[0],)) if bad else None)
