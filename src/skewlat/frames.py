"""Frames and their noncommutative counterparts.

A frame is a complete lattice in which finite meets distribute over
arbitrary joins.  The noncommutative analogue asks a skew lattice to be
strongly distributive with a zero, join complete over commuting
subsets, and to satisfy both infinite distributive laws

    (⋁ xᵢ) ∧ y = ⋁ (xᵢ ∧ y)        y ∧ (⋁ xᵢ) = ⋁ (y ∧ xᵢ)

over every commuting subset.  ``check_theorem_ncframes`` decides the
equivalence that justifies the name: such a structure is a
noncommutative frame exactly when its maximal commutative image is a
frame.  On finite input the noncommutative side needs no subset walk
(Lemma C, in ``is_ncframe``), and the commutative side scans the
quotient for the binary distributive law, compiled like every law in
``core``; neither side is inferred from the other.
"""

from __future__ import annotations

from .core import (
    Certificate,
    FiniteSkewLattice,
    InternalConsistencyError,
    PreconditionError,
    QuotientLattice,
    _FRAME_LAW,
    _first_failure,
    _require_valid,
    check_identity,
    check_symmetric,
    detect_zero,
    is_commutative,
    quotient,
)
from .completeness import check_join_complete
# re-exported, unused here: the traced benchmark wraps frames.sup_natural and frames.enumerate_commuting_subsets
from .completeness import enumerate_commuting_subsets as enumerate_commuting_subsets, sup_natural as sup_natural

__all__ = ["is_frame", "is_ncframe", "check_theorem_ncframes"]


def is_frame(L) -> Certificate:
    """Decide whether a finite lattice is a frame.

    A finite lattice is complete outright, so the content is meet
    distributivity over joins of subsets, which on finite lattices is
    equivalent to pairwise distributivity.  A false certificate's
    witness is ``(x, (y, z))`` with ``y < z`` and
    ``x ∧ (y ∨ z) ≠ (x ∧ y) ∨ (x ∧ z)``, the first such failure with
    ``(y, z, x)`` in lexicographic order; it is the one an exhaustive
    scan of all subsets by size would report, since one-element subsets
    never fail.

    The compiled scan of ``z∧(x∨y) = (z∧x)∨(z∧y)`` reports the first
    violation ``(a, b, c)`` in lexicographic order, and ``(c, (a, b))``
    is that witness.  Proof: on a commutative table the law is symmetric
    in the joined variables x and y, and it holds when they are equal
    (both sides are z∧x, by idempotency).  So if ``(a, b, c)`` fails,
    ``a ≠ b`` and ``(b, a, c)`` fails too, and the first failure has
    ``a < b``: it is the least failing ``(y, z, x)`` with ``y < z``.
    """
    lat = L.lattice if isinstance(L, QuotientLattice) else L
    _require_valid(lat, "is_frame")
    if not is_commutative(lat):
        raise PreconditionError("is_frame is defined for commutative structures (lattices) only")
    hit = _first_failure(lat, (_FRAME_LAW,))
    if hit is None:
        return Certificate(True, "frame")
    a, b, c = hit[1]
    return Certificate(False, "frame", (c, (a, b)))


def is_ncframe(S: FiniteSkewLattice) -> Certificate:
    """Decide whether a finite skew lattice is a noncommutative frame.

    It is one exactly when it has a zero and is strongly distributive,
    by Lemma C, given the premise of Lemma A that ``check_join_complete``
    checks.  Proof: strong distributivity implies normal and symmetric
    (Leech 1992, Semigroup Forum 44; a miss raises
    ``InternalConsistencyError``).  A normal band has axyb = ayxb, so if
    c₁ and c₂ commute, (c₁∧y)∧(c₂∧y) = c₁∧c₂∧y = (c₂∧y)∧(c₁∧y), and
    likewise for y∧c₁ and y∧c₂.  Folding (x∨z)∧y = (x∧y)∨(z∧y) and its
    mirror over a commuting subset C gives (⋁C)∧y = ⋁(c∧y) and
    y∧(⋁C) = ⋁(y∧c) as join folds of commuting families, and by Lemma A
    each fold is a supremum.
    """
    _require_valid(S, "is_ncframe")
    if detect_zero(S) is None:
        return Certificate(False, "noncommutative frame", ("no zero", None))
    sd = check_identity(S, "strongly_distributive")
    if not sd.ok:
        return Certificate(False, "noncommutative frame", ("not strongly distributive", sd.witness))
    if not (check_identity(S, "normal").ok and check_symmetric(S).ok):
        raise InternalConsistencyError("strongly distributive but not normal and symmetric")
    check_join_complete(S)
    return Certificate(True, "noncommutative frame")


def check_theorem_ncframes(S: FiniteSkewLattice) -> Certificate:
    """Noncommutative frame ⇔ the maximal commutative image is a frame.

    Preconditions mirror the hypotheses: a valid, strongly distributive
    structure with a zero (finite, hence join complete — the ncframe
    side re-checks Lemma A's premise).  Both sides are computed
    independently and compared; the witness records the two verdicts
    and their evidence.
    """
    _require_valid(S, "check_theorem_ncframes")
    if detect_zero(S) is None:
        raise PreconditionError("check_theorem_ncframes needs a zero element")
    sd = check_identity(S, "strongly_distributive")
    if not sd.ok:
        raise PreconditionError(f"check_theorem_ncframes needs strong distributivity; witness {sd.witness}")
    ncf = is_ncframe(S)
    shadow = is_frame(quotient(S))
    return Certificate(
        ok=ncf.ok == shadow.ok,
        checked="noncommutative frame iff commutative image is a frame",
        witness=(
            ("ncframe", ncf.ok),
            ("ncframe_evidence", ncf.witness),
            ("shadow_is_frame", shadow.ok),
            ("shadow_evidence", shadow.witness),
        ),
    )
