"""Lemmas E to J against the law scans they skip.

Each law of ``core._IDENTITY_LAWS`` may carry a lemma; ``check_identity``
skips a law when its lemma proves that it holds, and scans the rest in
the catalog's order.  The plain
scan of every law, ``core._identity_scan`` without lemmas, is the
oracle: on every structure below the certificates (verdict, law and
witness) must be identical, whichever identity is asked first.  Then
the caches a lemma could read are corrupted: the natural order, which
no lemma reads, and the D-partition, whose representatives Lemma G
checks on the tables.  Each verdict must then equal a fresh
structure's or raise ``InternalConsistencyError``.

Lemma J scans a law with one variable drawn from a generating set.  The
generating set is checked on its own, on valid and on non-associative
tables; the closure the lemma's proof claims is brute-forced on the
whole cube; and the restricted scan, called directly, must agree with
the full one on every structure of the set.  At order 81 and above,
where ``check_identity`` and the axiom scan use it, their certificates
must be the plain scans', and a law that fails at x = 0 is decided there,
before Lemma J is asked.

The D-partition, computed in one vectorised pass, must equal the
class-by-class loop it replaced on the whole set, and on the perturbed
tables wherever that loop can tell an equivalence from the rest.
"""

import random

import numpy as np
import pytest

from skewlat import core
from skewlat.census import enumerate_skew_lattices
from skewlat.core import (
    Certificate,
    FiniteSkewLattice,
    IDENTITY_NAMES,
    InternalConsistencyError,
    check_identity,
    green_d,
    validate_skew_axioms,
)
from skewlat.models import boolean_lattice, build_pfn_algebra, chain_lattice, diamond_m3, om_window, product

from test_bitset_order import _perturbed
from test_cli import NON_SYMMETRIC_ORDER_SEVEN
from test_core import _set_partitions, _with_partition
from test_slab_scan import slab_mask

LEMMA_LAWS = [law for laws in core._IDENTITY_LAWS.values() for law in laws if law.lemma is not None]
G_LAW = core._IDENTITY_LAWS["distributive"][0].text
# the laws of Lemmas E, G and H, which prove nothing below the row regime (Lemma H
# rests on Lemma G)
ROW_REGIME_LAWS = {core._IDENTITY_LAWS["normal"][0].text, G_LAW,
                   *(law.text for law in core._IDENTITY_LAWS["strongly_distributive"])}


@pytest.fixture(scope="module")
def oracle_set(census_to_order_five):
    structures = [S for n in sorted(census_to_order_five) for S in census_to_order_five[n]]
    structures += enumerate_skew_lattices(6, order_cap=6)
    structures += [FiniteSkewLattice(7, m, j) for m, j in NON_SYMMETRIC_ORDER_SEVEN]
    pairs = [(m, b) for m in range(1, 5) for b in (1, 2)] + [(3, 3)]
    structures += [build_pfn_algebra(m, b) for m, b in pairs]
    structures += [om_window(k) for k in range(1, 8)]
    structures += [diamond_m3(), boolean_lattice(3), chain_lattice(5)]
    return tuple(structures)


def _fresh(S):
    return FiniteSkewLattice(S.order, S.meet_table, S.join_table, zero=S.zero)


def _verdicts(S, names=IDENTITY_NAMES):
    out = {}
    for name in names:
        try:
            out[name] = check_identity(S, name)
        except InternalConsistencyError as exc:
            out[name] = str(exc)
    return [out[name] for name in IDENTITY_NAMES]


def _proved(S, text):
    return S._memo.get(("lemma", text)) is True


def _lemma_name(lemma):
    # "Lemma E" from the docstring, then the arguments a partial binds
    f = getattr(lemma, "func", lemma)
    return " ".join([f.__doc__.partition(":")[0], *getattr(lemma, "args", ())])


def test_each_lemma_is_carried_by_its_law():
    assert {law.text: _lemma_name(law.lemma) for law in LEMMA_LAWS} == {
        "x∧y∧x∧z∧x = x∧y∧z∧x": "Lemma F",
        "x∧y∧z∧x = x∧z∧y∧x": "Lemma E",
        "x∧(y∨z)∧x = (x∧y∧x)∨(x∧z∧x)": "Lemma G",
        "(x∨y)∧z = (x∧z)∨(y∧z)": "Lemma H right_handed",
        "x∧(y∨z) = (x∧y)∨(x∧z)": "Lemma H left_handed",
        "x∨y∨x∨z∨x = x∨y∨z∨x": "Lemma I",
    }
    assert all(law.lemma is None for law in core._AXIOM_LAWS + (core._FRAME_LAW,))


def test_lemma_verdicts_match_the_scans(oracle_set, monkeypatch):
    # at the default slab size, then with one-cell slabs, so that every scan is a
    # row scan and Lemmas E, G, H and J, which run only there, run on every structure
    for slab in (core._SLAB_CELLS, 1):
        monkeypatch.setattr(core, "_SLAB_CELLS", slab)
        fired = {law.text: 0 for law in LEMMA_LAWS}
        for S in oracle_set:
            want = [core._identity_scan(_fresh(S), name) for name in IDENTITY_NAMES]
            # catalog order, then the reverse, where strongly_distributive is asked first
            for names in (IDENTITY_NAMES, IDENTITY_NAMES[::-1]):
                T = _fresh(S)
                assert _verdicts(T, names) == want, (S.meet_table, S.join_table)
            for text in fired:
                fired[text] += _proved(T, text)
            # in the row regime Lemma E is an equivalence: it proves the law exactly when
            # the law holds; below it, it proves nothing
            normal = core._IDENTITY_LAWS["normal"][0]
            assert _proved(T, normal.text) == (want[IDENTITY_NAMES.index("normal")].ok and core._row_regime(T, normal))
            if not core._row_regime(T, normal):
                assert not any(_proved(T, text) for text in ROW_REGIME_LAWS), (S.meet_table, S.join_table)
        # each lemma proves its law on many structures of the set; Lemmas E, G and H only
        # on the few from order 65 at the default slab size
        assert min(count for text, count in fired.items() if slab == 1 or text not in ROW_REGIME_LAWS) > 40, fired
    assert len(oracle_set) > 250


def test_the_lemmas_leave_only_the_join_laws_and_one_strong_law_to_the_cube(monkeypatch):
    # P(3,2) is normal, left-handed, distributive and strongly distributive; at
    # order 27 Lemmas E, G, H and J do not run, so only the laws of regular are
    # left out of the cube scans: Lemmas F and I prove them.  The laws that reach
    # a scan are the ones ``_first_failure`` schedules
    S = build_pfn_algebra(3, 2)
    assert S.validity.ok
    cube = []
    schedule = core._schedule

    def traced(laws, n, budget):
        cube.extend(law.text for law in laws)
        return schedule(laws, n, budget)

    monkeypatch.setattr(core, "_schedule", traced)
    assert all(check_identity(S, name).ok for name in ("regular", "normal", "distributive", "strongly_distributive"))
    assert cube == [
        "x∧y∧z∧x = x∧z∧y∧x",  # normal, asked by Lemma F for the meet law of regular
        "x∧y∧x = x∧y",  # left_handed, asked by Lemma I for the join law of regular
        "x∨y∨x = y∨x",
        "x∧(y∨z)∧x = (x∧y∧x)∨(x∧z∧x)",
        "x∨(y∧z)∨x = (x∨y∨x)∧(x∨z∨x)",
        "(x∨y)∧z = (x∧z)∨(y∧z)",
        "x∧(y∨z) = (x∧y)∨(x∧z)",
    ]


# --- corrupted caches ---------------------------------------------------------


@pytest.fixture(scope="module")
def small_zoo(census_to_order_five):
    structures = [S for n in sorted(census_to_order_five) for S in census_to_order_five[n]]
    return structures + [diamond_m3(), boolean_lattice(2), chain_lattice(4), om_window(2), om_window(3),
                         build_pfn_algebra(1, 2), build_pfn_algebra(2, 1)]


def test_a_corrupted_order_changes_no_verdict(small_zoo):
    rng = random.Random(16)
    for S in small_zoo + [build_pfn_algebra(2, 2), om_window(6)]:
        want = _verdicts(_fresh(S))
        for flip in (0.05, 0.3):
            assert _verdicts(_perturbed(S, rng, flip)) == want, S


def test_a_corrupted_partition_gives_the_fresh_verdict_or_raises(small_zoo, monkeypatch):
    # one-cell slabs put every scan in the row regime, where Lemma G reads the partition
    monkeypatch.setattr(core, "_SLAB_CELLS", 1)
    rng = random.Random(61)
    held = raised = 0
    for S in small_zoo:
        true_classes = sorted(green_d(S).classes)
        want = _verdicts(_fresh(S))
        parts = list(_set_partitions(list(range(S.order))))
        if len(parts) > 60:
            parts = rng.sample(parts, 60)
        for part in parts:
            classes = sorted(part)  # blocks are sorted tuples
            T = _with_partition(S, classes)
            got = _verdicts(T)
            for name, g, w in zip(IDENTITY_NAMES, got, want):
                if isinstance(g, str):
                    assert g.startswith("element "), (S, part, name, g)
                    raised += 1
                else:
                    assert g == w, (S.meet_table, S.join_table, part, name)
            held += classes != true_classes and _proved(T, G_LAW)
    # the check both passes on changed partitions (finer ones) and catches coarser ones
    assert held > 20 and raised > 20, (held, raised)


def test_the_representative_check_names_the_element(monkeypatch):
    # M3 is normal; one block holding all five elements makes 0 every element's representative.
    # One-cell slabs put the scans in the row regime, where Lemma G runs
    monkeypatch.setattr(core, "_SLAB_CELLS", 1)
    T = _with_partition(diamond_m3(), [tuple(range(5))])
    with pytest.raises(InternalConsistencyError, match=r"^element 1 is not D-related to its class representative 0$"):
        check_identity(T, "distributive")


# --- Lemma J: one variable over a generating set -----------------------------------

GEN_LAWS = [law for law in core._AXIOM_LAWS + tuple(law for laws in core._IDENTITY_LAWS.values() for law in laws)
            if law.gen is not None]


def _gen_text(law):
    var, op = law.gen
    return "xyz"[var] + "∧∨"[op]


def _closure(T, gens):
    # the least set holding ``gens`` and closed under the table ``T``
    inside = set(gens)
    while True:
        new = {T[a][b] for a in inside for b in inside} - inside
        if not new:
            return inside
        inside |= new


def _restricted(S, law):
    ids = [None] * law.arity
    ids[law.gen[0]] = core._generators(S, law.gen[1])
    return tuple(ids)


def _cube(S, law):
    # the violation mask of ``law`` over the whole n³ cube, from the slab evaluator
    return slab_mask(S, law)


def _with_cells_changed(S, rng, cells):
    tables = [[list(row) for row in S.meet_table], [list(row) for row in S.join_table]]
    for _ in range(cells):
        w, a, b = rng.randrange(2), rng.randrange(S.order), rng.randrange(S.order)
        tables[w][a][b] = rng.randrange(S.order)
    return FiniteSkewLattice(S.order, *tables)


@pytest.fixture(scope="module")
def perturbed_set(oracle_set):
    # tables with a few cells changed: mostly neither associative nor a skew lattice
    rng = random.Random(19)
    return tuple(_with_cells_changed(S, rng, k) for S in oracle_set if 1 < S.order <= 27 for k in (1, 3))


def test_the_laws_that_name_a_variable_and_an_operation():
    assert {law.text: _gen_text(law) for law in GEN_LAWS} == {
        "(x∧y)∧z = x∧(y∧z)": "y∧",
        "(x∨y)∨z = x∨(y∨z)": "y∨",
        "x∧(y∨z)∧x = (x∧y∧x)∨(x∧z∧x)": "z∨",
        "x∨(y∧z)∨x = (x∨y∨x)∧(x∨z∨x)": "z∧",
        "(x∨y)∧z = (x∧z)∨(y∧z)": "x∨",
        "x∧(y∨z) = (x∧y)∨(x∧z)": "z∨",
    }
    assert core._FRAME_LAW.gen is None


def test_the_generating_set_generates_and_holds_every_irreducible(oracle_set, perturbed_set):
    sizes = []
    for S in oracle_set + perturbed_set:
        for op, T in enumerate((S._m, S._j)):
            G = core._generators(S, op)
            assert G.tolist() == sorted(set(G.tolist())) and G.dtype == np.intp
            rows = T.tolist()
            assert _closure(rows, G.tolist()) == set(range(S.order)), (S.meet_table, S.join_table, op)
            # an element that is no product a∘b with a, b ≠ it cannot be generated
            for c in range(S.order):
                others = np.delete(np.delete(T, c, axis=0), c, axis=1)
                assert (others == c).any() or c in G, (S.meet_table, S.join_table, op, c)
            sizes.append(len(G) / S.order)
    assert min(sizes) < 0.2  # the greedy order finds small sets on the large structures


def test_the_generating_set_is_memoised_per_operation(p22):
    S = FiniteSkewLattice(p22.order, p22.meet_table, p22.join_table)
    meet, join = core._generators(S, 0), core._generators(S, 1)
    assert core._generators(S, 0) is meet and core._generators(S, 1) is join
    assert meet.tolist() != join.tolist()
    for G in (meet, join):  # every later Lemma J scan on S reads the remembered vector
        with pytest.raises(ValueError):
            G[0] = 1


def test_where_each_law_holds_is_closed_under_its_operation(oracle_set, perturbed_set):
    # the closure step of each proof: the values of the law's variable at which
    # it holds for all values of the others are closed under its operation; on
    # valid structures for every law, on any table for the two associativity laws
    proper = {law.text: 0 for law in GEN_LAWS}
    for S in oracle_set + perturbed_set:
        valid = S.validity.ok
        for law in GEN_LAWS:
            if not valid and law not in core._AXIOM_LAWS:
                continue
            var, op = law.gen
            bad = _cube(S, law).any(axis=tuple(a for a in range(3) if a != var))
            holds = np.flatnonzero(~bad)
            T = (S._m, S._j)[op]
            assert not bad[T[np.ix_(holds, holds)]].any(), (law.text, S.meet_table, S.join_table)
            proper[law.text] += 0 < holds.size < S.order
    # each law holds on a proper, nonempty subset of the carrier often enough
    assert all(count > 5 for count in proper.values()), proper


def test_the_restricted_scan_agrees_with_the_full_scan(oracle_set, perturbed_set):
    failed = {law.text: 0 for law in GEN_LAWS}
    for S in oracle_set + perturbed_set:
        valid = S.validity.ok
        for law in GEN_LAWS:
            if not valid and law not in core._AXIOM_LAWS:
                continue
            full = core._scan(S, law)
            w = core._scan(S, law, _restricted(S, law))
            assert (w is None) == (full is None), (law.text, S.meet_table, S.join_table)
            if w is not None:
                assert _cube(S, law)[w], (law.text, w)  # the restricted witness is a violation
                failed[law.text] += 1
    assert all(count > 5 for count in failed.values()), failed


def _plain_axioms(S):
    for law in core._AXIOM_LAWS:
        w = core._scan(S, law)
        if w is not None:
            return Certificate(False, "skew lattice axioms", (law.name, w))
    return Certificate(True, "skew lattice axioms")


LEFT_STRONG_LAW = "x∧(y∨z) = (x∧y)∨(x∧z)"


def _swapped(X, a, b):
    # X with the elements a and b exchanged
    p = np.arange(X.order)
    p[[a, b]] = p[[b, a]]
    return FiniteSkewLattice(X.order, p[X._m[np.ix_(p, p)]], p[X._j[np.ix_(p, p)]])


def _left_strong_failure(census_by_order):
    # the order-3 class whose first strongly distributive failure is x∧(y∨z) = (x∧y)∨(x∧z)
    return next(X for X in census_by_order[3]
                if check_identity(X, "strongly_distributive").witness == (LEFT_STRONG_LAW, (0, 2, 1)))


@pytest.fixture(scope="module")
def row_regime_set(census_by_order):
    # P(4,2) (order 81), twelve copies with one cell changed, and P(3,2) times
    # each skew lattice of order 3 and M3 (orders 81 and 135), some of which
    # fail the laws of Lemma J.  Each product fails x∧(y∨z) = (x∧y)∨(x∧z) first
    # at x = 0, where it is scanned before Lemma J, so one more has 0 and 1 of its
    # order-3 factor exchanged: it fails first at x = 1, and Lemma J refutes it
    P = build_pfn_algebra(4, 2)
    rng = random.Random(81)
    mutants = [_with_cells_changed(P, rng, 1) for _ in range(12)]
    P32 = build_pfn_algebra(3, 2)
    products = [product(P32, X) for X in census_by_order[3] + (diamond_m3(),)]
    products += [product(X, P32) for X in census_by_order[3]]
    products.append(product(P32, _swapped(_left_strong_failure(census_by_order), 0, 1)))
    return (P, *mutants, *products)


def test_row_regime_certificates_are_the_plain_scans(row_regime_set, monkeypatch):
    decided = []
    lemma_j = core._generator_violation

    def traced(S, law):
        violation = lemma_j(S, law)
        decided.append((law.text, violation is None))
        return violation

    monkeypatch.setattr(core, "_generator_violation", traced)
    failing = set()
    for S in row_regime_set:
        assert core._SLAB_CELLS // S.order ** 2 <= 1  # the row regime, where Lemma J runs
        T = _fresh(S)
        assert validate_skew_axioms(T) == _plain_axioms(_fresh(S))
        if not T.validity.ok:
            failing.add(T.validity.witness[0])
            continue
        got = [check_identity(T, name) for name in IDENTITY_NAMES]
        assert got == [core._identity_scan(_fresh(S), name) for name in IDENTITY_NAMES]
        failing |= {cert.witness[0] for cert in got if not cert.ok}
        # called directly, the lemma proves exactly the laws that hold
        for law in GEN_LAWS:
            assert (lemma_j(T, law) is None) == (core._scan(T, law) is None), law.text
    assert {"meet associativity", "join associativity"} <= failing
    assert {"x∧(y∨z)∧x = (x∧y∧x)∨(x∧z∧x)", "(x∨y)∧z = (x∧z)∨(y∧z)", LEFT_STRONG_LAW} <= failing
    # inside the axiom scan and check_identity, every law of Lemma J was both proved
    # and refuted by it, apart from the distributive join law, which only runs once
    # the meet law holds and then holds too
    assert {text for text, proved in decided if proved} == {law.text for law in GEN_LAWS}
    assert {text for text, proved in decided if not proved} == {law.text for law in GEN_LAWS} - {
        "x∨(y∧z)∨x = (x∨y∨x)∧(x∨z∨x)"}


def test_an_associativity_failure_is_scanned_once_from_x_zero(monkeypatch):
    # P(4,2) with one cell changed: where an associativity law fails at x = 0, the scan
    # of x = 0 alone finds the full scan's witness and Lemma J does not run; where it
    # fails later, Lemma J runs and then the rows from x = 1 up to the x of its
    # violation, x_J, give the witness
    P = build_pfn_algebra(4, 2)
    lemma_j, scan, calls = core._generator_violation, core._scan, []

    def traced_lemma_j(S, law):
        calls.append((law.name, "Lemma J"))
        return lemma_j(S, law)

    def traced_scan(S, law, ids=None):
        rows = "all" if ids is None else "G" if ids[0] is None else f"x from {ids[0][0]} to {ids[0][-1]}"
        calls.append((law.name, rows))
        return scan(S, law, ids)

    monkeypatch.setattr(core, "_generator_violation", traced_lemma_j)
    monkeypatch.setattr(core, "_scan", traced_scan)
    for (op, a, b), x, steps in (
        ((0, 0, 1), 0, ["x from 0 to 0"]),
        ((0, 0, 40), 0, ["x from 0 to 0"]),
        ((1, 0, 2), 0, ["x from 0 to 0"]),
        ((1, 2, 1), 2, ["x from 0 to 0", "Lemma J", "G", "x from 1 to 2"]),
    ):
        tables = [[list(row) for row in P.meet_table], [list(row) for row in P.join_table]]
        tables[op][a][b] = (tables[op][a][b] + 1) % P.order
        S = FiniteSkewLattice(P.order, *tables)
        calls.clear()
        cert = validate_skew_axioms(S)
        law = cert.witness[0]
        assert [step for name, step in calls if name == law] == steps, calls
        assert cert == _plain_axioms(_fresh(S)) and cert.witness[1][0] == x, cert


def test_an_identity_law_of_lemma_j_is_scanned_at_x_zero_first(census_by_order, monkeypatch):
    # P(3,2) times the order-3 class that fails x∧(y∨z) = (x∧y)∨(x∧z) at (0, 2, 1): at
    # order 81 the law is scanned at x = 0 before Lemma J, as the axioms are, and that
    # row holds the plain scan's witness, so Lemma J does not run for the law
    S = product(build_pfn_algebra(3, 2), _left_strong_failure(census_by_order))
    assert S.validity.ok
    lemma_j, asked = core._generator_violation, []

    def traced(S, law):
        asked.append(law.text)
        return lemma_j(S, law)

    monkeypatch.setattr(core, "_generator_violation", traced)
    cert = check_identity(S, "strongly_distributive")
    assert cert == core._identity_scan(_fresh(S), "strongly_distributive")
    assert cert.witness == (LEFT_STRONG_LAW, (0, 2, 1))
    assert asked == ["(x∨y)∧z = (x∧z)∨(y∧z)"]  # the first law holds past x = 0: Lemma J proves it


def _mutated_pfn_5_2(seed):
    """P(5,2) relabeled and with one meet cell m[x][x∨y] changed, as the benchmark's
    ``pfn_verify`` workload draws its invalid copy from ``seed``."""
    P = build_pfn_algebra(5, 2)
    rng = random.Random(seed)
    perm = list(range(P.order))
    rng.shuffle(perm)
    rng.shuffle(list(range(81)))  # the workload draws P(4,2)'s relabeling next
    p, inverse = np.array(perm), np.argsort(perm)
    meet, join = (p[t[np.ix_(inverse, inverse)]] for t in (P._m, P._j))
    x, y = rng.choice([(x, y) for x in range(P.order) for y in range(P.order) if join[x][y] != x])
    meet[x, join[x, y]] = rng.choice([v for v in range(P.order) if v != x])
    return FiniteSkewLattice(P.order, meet, join, zero=perm[P.zero])


def test_a_refuted_lemma_j_bounds_the_rows_of_the_witness_scan(row_regime_set, monkeypatch):
    # the violation of Lemma J's restricted scan is one of the full scan's, so the
    # scan for the witness reads the rows only up to its x, x_J: on one-cell mutants
    # of P(4,2), the products of the row-regime set and the mutated P(5,2) of seed 29,
    # whose meet associativity first fails at x = 1, the certificates are the plain
    # scans' and no row past x_J is read
    rng = random.Random(29)
    P = build_pfn_algebra(4, 2)
    structures = [*row_regime_set, *(_with_cells_changed(P, rng, 1) for _ in range(12)), _mutated_pfn_5_2(29)]
    scan, rows = core._scan, []

    def traced(S, law, ids=None):
        if ids is not None and ids[0] is not None and ids[0].tolist() == list(range(ids[0][0], ids[0][-1] + 1)):
            rows.append((S, law.text, int(ids[0][0]), int(ids[0][-1])))  # consecutive rows: x = 0, or to the witness
        return scan(S, law, ids)

    monkeypatch.setattr(core, "_scan", traced)
    bounded = []
    for S in structures:
        T = _fresh(S)
        cert = validate_skew_axioms(T)
        assert cert == _plain_axioms(_fresh(S))
        if cert.ok:
            assert [check_identity(T, name) for name in IDENTITY_NAMES] == [
                core._identity_scan(_fresh(S), name) for name in IDENTITY_NAMES]
        for U, text, first, last in rows:
            if U is T and (first, last) != (0, 0):
                x_j = T._memo[("Lemma J", text)][0]
                assert last == x_j, (text, first, last)
                bounded.append((T.order, text, first, last))
        rows.clear()
    assert (243, "(x∧y)∧z = x∧(y∧z)", 1, 1) in bounded
    assert {text for _, text, _, _ in bounded} >= {
        "(x∧y)∧z = x∧(y∧z)", "(x∨y)∨z = x∨(y∨z)", "(x∨y)∧z = (x∧z)∨(y∧z)", "x∧(y∨z)∧x = (x∧y∧x)∨(x∧z∧x)"}
    assert any(last < order - 1 for order, _, _, last in bounded), bounded


# --- the D-partition against the loop it replaced ---------------------------------------

def _d_partition_loop(S):
    """The D-partition built one class at a time, as ``core._compute_d_partition`` once did."""
    n, m = S.order, S._m
    X, Y = np.indices((n, n))
    aba = m[m, X]
    rel = (aba == X) & (aba.T == Y)
    class_of = [-1] * n
    classes = []
    for a in range(n):
        if class_of[a] >= 0:
            continue
        members = tuple(int(b) for b in np.flatnonzero(rel[a]))
        for b in members:
            if not np.array_equal(rel[b], rel[a]):
                raise InternalConsistencyError("D-relation is not an equivalence; structure is not a valid skew lattice")
            class_of[b] = len(classes)
        classes.append(members)
    reps = [c[0] for c in classes]
    q = len(classes)
    leq = tuple(tuple(class_of[int(m[reps[a], reps[b]])] == a for b in range(q)) for a in range(q))
    top = [a for a in range(q) if all(leq[b][a] for b in range(q))]
    bottom = [a for a in range(q) if all(leq[a][b] for b in range(q))]
    return core.DPartition(tuple(class_of), tuple(classes), leq, top[0] if top else None, bottom[0] if bottom else None)


def _partition_or_error(fn, S):
    try:
        return fn(S)
    except InternalConsistencyError as exc:
        return str(exc)


def test_the_d_partition_matches_its_loop(oracle_set, perturbed_set):
    for S in oracle_set:
        assert core._compute_d_partition(S) == _d_partition_loop(S)
    # on a reflexive relation the loop raises exactly when it is not an equivalence; on any
    # other it returns a partition with an empty class or an unclassed element, and the
    # vectorised check raises
    seen = set()
    for S in perturbed_set:
        got = _partition_or_error(core._compute_d_partition, S)
        reflexive = all(S._m[S._m[a, a], a] == a for a in range(S.order))
        if reflexive:
            assert got == _partition_or_error(_d_partition_loop, S)
        else:
            assert got == "D-relation is not an equivalence; structure is not a valid skew lattice"
        seen.add((reflexive, isinstance(got, str)))
    assert seen == {(True, False), (True, True), (False, True)}
