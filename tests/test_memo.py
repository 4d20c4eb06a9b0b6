"""Facts remembered on a structure.

``core._once`` keeps each derived fact of an immutable structure in its
``_memo``: identity and symmetry certificates, lemma verdicts, generating
sets, the zero, the quotient, the commutation graph, Lemma A's checked
premise and the lattice sections.  A second call returns the remembered
object; each entry point's guard runs before the lookup, so an invalid
structure meets the same error on every call; a raise is never
remembered; and no verdict depends on which facts were asked before it.
"""

import pytest

from skewlat import core
from skewlat.completeness import (
    check_implication_chain,
    check_join_complete,
    check_prop_joins,
    check_section_exists,
    commutation_graph,
    join_fold,
    lattice_sections,
)
from skewlat.core import (
    FiniteSkewLattice,
    InternalConsistencyError,
    PreconditionError,
    SkewLatticeError,
    check_identity,
    check_symmetric,
    detect_zero,
    quotient,
)
from skewlat.frames import check_theorem_ncframes, is_ncframe
from skewlat.models import boolean_lattice, build_pfn_algebra, chain_lattice, om_window

from test_core import _with_partition
from test_identity_lemmas import oracle_set  # noqa: F401  (a fixture)

# entry point, its memo key, and how to ask it
MEMOISED = (
    ("check_identity", "normal", lambda S: check_identity(S, "normal")),
    ("check_symmetric", "symmetric", check_symmetric),
    ("detect_zero", "zero", detect_zero),
    ("quotient", "quotient", quotient),
    ("commutation_graph", "commutation_graph", commutation_graph),
    ("lattice_sections", "lattice_sections", lattice_sections),
)

# the frames workload's four questions
VERDICTS = (
    ("theorem", check_theorem_ncframes),
    ("ladder", check_implication_chain),
    ("prop_joins", check_prop_joins),
    ("sections", lattice_sections),
)


def _fresh(S):
    return FiniteSkewLattice(S.order, S._m, S._j, zero=S.zero, labels=S.labels)


def _verdict(ask, S):
    try:
        return ask(S)
    except SkewLatticeError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("op, key, ask", MEMOISED, ids=[m[0] for m in MEMOISED])
def test_a_second_call_returns_the_remembered_object(op, key, ask):
    for S in (build_pfn_algebra(2, 2), om_window(4), chain_lattice(3)):
        first = ask(S)
        assert ask(S) is first and S._memo[key] is first, (op, S)


def test_the_lemma_facts_are_remembered():
    S = build_pfn_algebra(4, 2)  # order 81: Lemma E and the generating sets are read
    law = core._IDENTITY_LAWS["normal"][0]
    assert check_identity(S, "normal").ok
    assert core._proved(S, law) is S._memo[("lemma", law.text)] is True
    for op in (0, 1):
        assert core._generators(S, op) is core._generators(S, op) is S._memo[("generators", op)]
    assert check_join_complete(S).ok and S._memo["joins_are_suprema"] is True


def test_an_invalid_structure_meets_each_guard_on_every_call():
    S = FiniteSkewLattice(2, ((0, 0), (0, 0)), ((0, 1), (1, 1)))  # 1∧1 = 0
    law, where = S.validity.witness
    asks = [(op, ask) for op, _, ask in MEMOISED if op != "detect_zero"]
    asks += [("check_prop_joins", check_prop_joins), ("check_implication_chain", check_implication_chain),
             ("check_section_exists", check_section_exists), ("is_ncframe", is_ncframe),
             ("check_theorem_ncframes", check_theorem_ncframes), ("join_fold", lambda S: join_fold(S, (0,)))]
    for op, ask in asks:
        for _ in range(2):
            with pytest.raises(PreconditionError) as err:
                ask(S)
            assert str(err.value) == f"{op} needs a valid skew lattice; {law} fails at {where}"
    assert S._memo == {}


def test_a_failure_is_not_remembered():
    S = _with_partition(chain_lattice(3), [(0, 2), (1,)])
    want = r"^quotient meet not well defined on classes 0,1: got classes \[0, 1\]$"
    for ask in (quotient, quotient, check_prop_joins):
        with pytest.raises(InternalConsistencyError, match=want):
            ask(S)
    assert "quotient" not in S._memo
    assert S._memo["joins_are_suprema"] is True  # check_prop_joins passed Lemma A first


def test_the_quotient_is_built_once_per_structure(monkeypatch):
    # the theorem and check_prop_joins both ask for it, and callers ask again
    calls = []
    build = core._quotient
    monkeypatch.setattr(core, "_quotient", lambda S: calls.append(S) or build(S))
    S = build_pfn_algebra(2, 2)
    assert check_theorem_ncframes(S).ok and check_prop_joins(S).ok
    assert quotient(S) == quotient(_fresh(S))
    assert len(calls) == 2 and calls[0] is S


@pytest.fixture(scope="module")
def frames_kinds(census_to_order_five):
    # the frames workload's kinds of structure, with the census classes to order 5
    out = [om_window(k) for k in range(4, 10)] + [chain_lattice(12), boolean_lattice(3), build_pfn_algebra(2, 2)]
    for n in sorted(census_to_order_five):
        for S in map(_fresh, census_to_order_five[n]):
            if detect_zero(S) is not None and check_identity(S, "strongly_distributive").ok:
                out.append(S)
    return out


def _normal_symmetric(structures):
    out = []
    for S in map(_fresh, structures):
        if S.validity.ok and check_identity(S, "normal").ok and check_symmetric(S).ok:
            out.append(S)
    return out


def test_verdicts_do_not_depend_on_what_was_asked_first(frames_kinds, oracle_set):
    structures = frames_kinds + _normal_symmetric(oracle_set)
    assert len(frames_kinds) > 20 and len(structures) > 120
    theorems = 0
    for S in structures:
        want = {name: _verdict(ask, _fresh(S)) for name, ask in VERDICTS}
        theorems += not isinstance(want["theorem"], str)
        for order in (VERDICTS, VERDICTS[::-1]):
            shared = _fresh(S)
            assert {name: _verdict(ask, shared) for name, ask in order} == want, (S, [name for name, _ in order])
    assert theorems >= len(frames_kinds)
