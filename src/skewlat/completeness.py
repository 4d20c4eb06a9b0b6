"""Completeness properties of finite skew lattices.

A subset commutes when every pair in it commutes under both operations,
which makes commuting subsets exactly the cliques of the commutation
graph.  For normal symmetric structures four properties are decided
here, each implying the next (``check_implication_chain``): every
commuting subset has a supremum in the natural order (join
completeness), has an upper bound, and lies in a lattice section (a
commutative transversal subalgebra, one element per D-class); and a
lattice section exists.  All four hold on finite structures; the
infinite models in :mod:`skewlat.models` are where they come apart.

No verdict walks the commuting subsets.  Join completeness and
boundedness follow from Lemma A (``_joins_are_suprema``),
``check_prop_joins`` (a commuting subset has a supremum exactly when
one element of its class join lies above it) from Lemmas A and B, and
section extension from Lemmas A and D.  Each premise is checked on the
structure's own natural order in at most O(n²) mask tests, Lemma A's
once per structure.  ``enumerate_commuting_subsets`` walks the cliques
depth first in lexicographic order, for callers that want them.  Its
cap, and that of the sections fallback, is checked by
``core._check_cap``, the package's one cap check.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator

import numpy as np

from .core import (
    Certificate,
    FiniteSkewLattice,
    InternalConsistencyError,
    PreconditionError,
    _check_cap,
    _element_ids,
    _once,
    _read_int,
    _require_valid,
    _row_masks,
    check_identity,
    green_d,
    is_commutative,
    quotient,
    subalgebra,
)

__all__ = [
    "commutation_graph",
    "commuting_subset",
    "enumerate_commuting_subsets",
    "sup_natural",
    "inf_natural",
    "join_fold",
    "meet_fold",
    "check_prop_joins",
    "check_join_complete",
    "check_bounded_above",
    "check_section_extension",
    "check_section_exists",
    "lattice_sections",
    "check_implication_chain",
]

SUBSET_ORDER_CAP = 12


def commutation_graph(S: FiniteSkewLattice) -> tuple[int, ...]:
    """The pairs commuting under meet and join, as one bitmask row per element.

    Bit b of row a is set iff a and b commute; the relation is symmetric,
    and every element commutes with itself (idempotency).  Remembered on S.
    """
    _require_valid(S, "commutation_graph")
    return _once(S, "commutation_graph", lambda: _row_masks((S._m == S._m.T) & (S._j == S._j.T)))


def commuting_subset(S: FiniteSkewLattice, members: Iterable[int]) -> tuple[int, ...]:
    """Validate a set of ids as a commuting subset; return them sorted."""
    ids = _element_ids(S, members, "commuting_subset")
    rows = commutation_graph(S)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if not rows[a] >> b & 1:
                raise PreconditionError(f"elements {a} and {b} do not commute")
    return ids


def enumerate_commuting_subsets(S: FiniteSkewLattice, max_size: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every nonempty commuting subset exactly once, as a sorted tuple.

    Subsets are the cliques of the commutation graph, in lexicographic
    order; extending a clique by a larger common neighbour costs one
    ``&`` with that neighbour's row.  Only subsets of at most
    ``max_size`` elements are yielded, none when it is below 1.  Above
    order 12 an explicit ``max_size`` is required, since the count can
    explode.
    """
    _require_valid(S, "enumerate_commuting_subsets")
    if max_size is None:
        _check_cap(S.order, "subset enumeration at order", cap=SUBSET_ORDER_CAP, todo="pass max_size to bound it")
    adj = commutation_graph(S)
    limit = S.order if max_size is None else _read_int(max_size, "enumerate_commuting_subsets", "max_size", -math.inf)
    if limit < 1:
        return
    # a frame: a clique and the ids that may still extend it (never none);
    # the remainder goes back below the child, so children come first
    stack = [((), (1 << S.order) - 1)]
    while stack:
        members, cand = stack.pop()
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        if cand:
            stack.append((members, cand))
        grown = members + (v,)
        yield grown
        cand &= adj[v]
        if cand and len(grown) < limit:
            stack.append((grown, cand))


def sup_natural(S: FiniteSkewLattice, ids: Iterable[int]) -> int | None:
    """Least upper bound of a nonempty set in the natural order, if any."""
    _require_valid(S, "sup_natural")
    return _extremum(S._up, _bounds(S._up, _element_ids(S, ids, "sup_natural")))


def inf_natural(S: FiniteSkewLattice, ids: Iterable[int]) -> int | None:
    """Greatest lower bound of a nonempty set in the natural order, if any."""
    _require_valid(S, "inf_natural")
    return _extremum(S._down, _bounds(S._down, _element_ids(S, ids, "inf_natural")))


def _bounds(masks: tuple[int, ...], members: Iterable[int]) -> int:
    # common bounds of a nonempty set as a bitmask: upper with S._up, lower with S._down
    return functools.reduce(operator.and_, [masks[c] for c in members])


def _ids(mask: int) -> Iterator[int]:
    """The ids whose bits are set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _extremum(masks: tuple[int, ...], bounds: int) -> int | None:
    """The id in ``bounds`` whose own mask holds all of ``bounds``.

    With ``S._up`` and a set's common upper bounds this is the
    supremum, with ``S._down`` and its lower bounds the infimum;
    antisymmetry makes it unique, and the least such id wins otherwise.
    """
    rest = bounds
    while rest:
        low = rest & -rest
        s = low.bit_length() - 1
        if masks[s] & bounds == bounds:
            return s
        rest ^= low
    return None


def join_fold(S: FiniteSkewLattice, C) -> int:
    """Left fold of the join over a commuting subset in ascending id order.

    For symmetric structures this is a second, independent route to the
    supremum; agreement with :func:`sup_natural` is a tested fact, not a
    definition.
    """
    _require_valid(S, "join_fold", "symmetric")
    members = commuting_subset(S, C)
    return functools.reduce(lambda a, b: S._j.item(a, b), members)


def meet_fold(S: FiniteSkewLattice, C) -> int:
    """Left fold of the meet over a commuting subset in ascending id order."""
    _require_valid(S, "meet_fold", "symmetric")
    members = commuting_subset(S, C)
    return functools.reduce(lambda a, b: S._m.item(a, b), members)


def check_prop_joins(S: FiniteSkewLattice) -> Certificate:
    """Joins exist exactly where a unique element dominates the class join.

    For each commuting subset C: the supremum of C exists iff, in the
    class of the quotient-join of C's classes, there is exactly one
    element lying above all of C; and when it exists it is that element
    and projects onto the class join.

    On finite input this holds outright, by Lemmas A and B.  Proof: by
    Lemma A, ⋁C exists and is the join fold of C, so it lies in the
    class join, as ``quotient`` verifies that the class map is a join
    homomorphism.  Lemma B: no element lies below another of its own
    D-class, since x ≤ y and x D y give y = y∧x∧y = x∧y = x (Leech 1989,
    Algebra Universalis 26: D-classes are rectangular).  So an element
    of the class join above C, being above ⋁C, is ⋁C.  Lemma B's premise
    is one mask test per element on the cached order; a miss raises
    ``InternalConsistencyError`` naming the element.
    """
    _require_valid(S, "check_prop_joins", "normal", "symmetric")
    _joins_are_suprema(S)
    quotient(S)  # raises unless the class map is a join homomorphism
    dp = green_d(S)
    class_masks = [sum(1 << a for a in members) for members in dp.classes]
    for a, c in enumerate(dp.class_of):
        if S._up[a] & class_masks[c] != 1 << a:
            raise InternalConsistencyError(f"element {a} lies below another element of its D-class")
    return Certificate(True, "join exists iff one element dominates over the class join")


def _joins_are_suprema(S: FiniteSkewLattice) -> None:
    """Check the premise of Lemma A: the join of two commuting elements is their supremum.

    Proof: a ≤ a∨b, as a∨(a∨b) = a∨b = b∨a = (a∨b)∨a, and so is b; if
    a, b ≤ z then (a∨b)∨z = a∨(b∨z) = z and z∨(a∨b) = (z∨a)∨b = z.  If c
    commutes with a and b, it commutes with a∨b, by associativity for the
    join and by symmetry for the meet.  So along the join fold of a
    commuting subset each partial join commutes with the next member, and
    by induction the fold is the supremum of the members so far.

    The lemma is not assumed of the cached order: ``_up``/``_down`` must
    be a partial order (one mask test per element and per element of its
    upset) and each commuting pair's join its least upper bound there.
    Validation guarantees both, so a miss raises
    ``InternalConsistencyError`` naming the element or the pair.  A
    passing check is remembered on the structure, like an identity.
    """
    def check() -> bool:
        up, down, jt = S._up, S._down, S._j
        for a, row in enumerate(commutation_graph(S)):
            if up[a] & down[a] != 1 << a or any(up[s] & ~up[a] for s in _ids(up[a])):
                raise InternalConsistencyError(f"natural order is not a partial order at {a}")
            for b in _ids(row >> a << a):
                bounds, s = up[a] & up[b], jt.item(a, b)
                if not bounds >> s & 1 or up[s] & bounds != bounds:
                    raise InternalConsistencyError(f"join {s} of the commuting pair {a}, {b} is not their supremum")
        return True

    _once(S, "joins_are_suprema", check)


def check_join_complete(S: FiniteSkewLattice) -> Certificate:
    """Every commuting subset has a supremum in the natural order (Lemma A)."""
    _require_valid(S, "check_join_complete", "normal", "symmetric")
    _joins_are_suprema(S)
    return Certificate(True, "join complete")


def check_bounded_above(S: FiniteSkewLattice) -> Certificate:
    """Every commuting subset has an upper bound, its supremum by Lemma A."""
    _require_valid(S, "check_bounded_above", "normal", "symmetric")
    _joins_are_suprema(S)
    return Certificate(True, "bounded from above")


def check_section_extension(S: FiniteSkewLattice) -> Certificate:
    """Every commuting subset extends to (sits inside) a lattice section.

    On finite input this holds outright, by Lemmas A and D.  Proof:
    ``lattice_sections`` returns the down-sets ↓t of the top elements t,
    each a section (Lemma D's premise, checked there).  Lemma D: each ↓s
    lies in one, since for t in the top class s ≤ s∨t∨s (the two
    commute, and by Lemma A their join bounds them) and s∨t∨s is in the
    top class.  By Lemma A a commuting subset C lies in ↓⋁C, so in a
    section.  Each ↓s is read from the cached order, where Lemma A's
    premise was checked; one in no section raises
    ``InternalConsistencyError`` naming s.
    """
    _require_valid(S, "check_section_extension", "normal", "symmetric")
    _joins_are_suprema(S)
    masks = [sum(1 << a for a in section) for section in lattice_sections(S)]
    for s, below in enumerate(S._down):
        if all(below & ~mask for mask in masks):
            raise InternalConsistencyError(f"the down-set of {s} lies in no lattice section")
    return Certificate(True, "commuting subsets extend to sections")


def check_section_exists(S: FiniteSkewLattice) -> Certificate:
    """At least one lattice section exists; the witness is the first one."""
    _require_valid(S, "check_section_exists", "normal", "symmetric")
    sections = lattice_sections(S)
    if not sections:
        return Certificate(False, "a lattice section exists")
    return Certificate(True, "a lattice section exists", ("section", sections[0]))


def _is_section(S: FiniteSkewLattice, members: tuple[int, ...]) -> bool:
    dp = green_d(S)
    if sorted(dp.class_of[x] for x in members) != list(range(dp.class_count)):
        return False
    try:
        return is_commutative(subalgebra(S, members))
    except PreconditionError:  # not closed under both operations
        return False


def lattice_sections(S: FiniteSkewLattice) -> tuple[tuple[int, ...], ...]:
    """All lattice sections as sorted member tuples, in sorted order.

    For a normal structure the sections are exactly the down-sets ↓t of
    the top class's elements, read from the meet table; one that is no
    section raises ``InternalConsistencyError`` naming t.  Without
    normality the search falls back to checking every class transversal,
    and raises ``CapExceededError`` first when there are more than
    2**SUBSET_ORDER_CAP of them.  Tests hold the fast path against the
    brute-force one.  The answer is remembered on the structure, which
    the ladder and ``classify`` ask more than once.
    """
    _require_valid(S, "lattice_sections", "symmetric")
    return _once(S, "lattice_sections", lambda: _find_sections(S))


def _find_sections(S: FiniteSkewLattice) -> tuple[tuple[int, ...], ...]:
    dp = green_d(S)
    if check_identity(S, "normal").ok and dp.top_class is not None:
        m, ids, sections = S._m, np.arange(S.order), []
        for t in dp.classes[dp.top_class]:
            below = tuple(np.flatnonzero((m[:, t] == ids) & (m[t] == ids)).tolist())  # s ≤ t: s∧t = t∧s = s
            if not _is_section(S, below):
                raise InternalConsistencyError(f"the down-set of top element {t} is not a lattice section")
            sections.append(below)
        return tuple(sorted(sections))
    _check_cap(math.prod(map(len, dp.classes)), "lattice_sections: class transversals", cap=2**SUBSET_ORDER_CAP,
               todo="a structure that is not normal has each one checked")
    candidates = (tuple(sorted(combo)) for combo in itertools.product(*dp.classes))
    return tuple(sorted(c for c in candidates if _is_section(S, c)))


def check_implication_chain(S: FiniteSkewLattice) -> Certificate:
    """Verify join-complete ⇒ bounded ⇒ extends-to-sections ⇒ section-exists.

    The witness records all four verdicts.  On finite input the chain
    holds by Lemmas A–D, or the call raises where a premise fails.
    """
    _require_valid(S, "check_implication_chain", "normal", "symmetric")
    results = (
        ("join_complete", check_join_complete(S).ok),
        ("bounded_above", check_bounded_above(S).ok),
        ("extends_to_sections", check_section_extension(S).ok),
        ("section_exists", check_section_exists(S).ok),
    )
    return Certificate(True, "completeness implication chain", results)
