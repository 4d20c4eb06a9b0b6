"""Lemmas E to H against the law scans they skip.

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
"""

import random

import pytest

from skewlat import core
from skewlat.census import enumerate_skew_lattices
from skewlat.core import FiniteSkewLattice, IDENTITY_NAMES, InternalConsistencyError, check_identity, green_d
from skewlat.models import boolean_lattice, build_pfn_algebra, chain_lattice, diamond_m3, om_window

from test_bitset_order import _perturbed
from test_cli import NON_SYMMETRIC_ORDER_SEVEN
from test_core import _set_partitions, _with_partition

LEMMA_LAWS = [law for laws in core._IDENTITY_LAWS.values() for law in laws if law.lemma is not None]
G_LAW = core._IDENTITY_LAWS["distributive"][0].text


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
    }
    assert all(law.lemma is None for law in core._AXIOM_LAWS + (core._FRAME_LAW,))


def test_lemma_verdicts_match_the_scans(oracle_set):
    fired = {law.text: 0 for law in LEMMA_LAWS}
    for S in oracle_set:
        want = [core._identity_scan(_fresh(S), name) for name in IDENTITY_NAMES]
        # catalog order, then the reverse, where strongly_distributive is asked first
        for names in (IDENTITY_NAMES, IDENTITY_NAMES[::-1]):
            T = _fresh(S)
            assert _verdicts(T, names) == want, (S.meet_table, S.join_table)
        for text in fired:
            fired[text] += _proved(T, text)
        # Lemma E is an equivalence: it proves the law exactly when the law holds
        assert _proved(T, "x∧y∧z∧x = x∧z∧y∧x") == want[IDENTITY_NAMES.index("normal")].ok
    assert len(oracle_set) > 250
    # each lemma proves its law on many structures of the set
    assert min(fired.values()) > 40, fired


def test_the_lemmas_leave_only_the_join_laws_and_one_strong_law_to_the_cube(monkeypatch):
    # P(3,2) is normal, left-handed, distributive and strongly distributive
    S = build_pfn_algebra(3, 2)
    assert S.validity.ok
    cube = []
    scan = core._scan

    def traced(S, law, ids=None):
        if ids is None:
            cube.append(law.text)
        return scan(S, law, ids)

    monkeypatch.setattr(core, "_scan", traced)
    assert all(check_identity(S, name).ok for name in ("regular", "normal", "distributive", "strongly_distributive"))
    assert cube == [
        "x∨y∨x∨z∨x = x∨y∨z∨x",
        "x∨(y∧z)∨x = (x∨y∨x)∧(x∨z∨x)",
        "x∧y∧x = y∧x",  # right_handed, asked by Lemma H for the first strong law
        "(x∨y)∧z = (x∧z)∨(y∧z)",
        "x∧y∧x = x∧y",
        "x∨y∨x = y∨x",
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


def test_a_corrupted_partition_gives_the_fresh_verdict_or_raises(small_zoo):
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


def test_the_representative_check_names_the_element():
    # M3 is normal; one block holding all five elements makes 0 every element's representative
    T = _with_partition(diamond_m3(), [tuple(range(5))])
    with pytest.raises(InternalConsistencyError, match=r"^element 1 is not D-related to its class representative 0$"):
        check_identity(T, "distributive")
