"""Frames and their noncommutative counterparts.

A frame is a complete lattice in which finite meets distribute over
arbitrary joins.  The noncommutative analogue asks a skew lattice to be
strongly distributive with a zero, join complete over commuting
subsets, and to satisfy both infinite distributive laws

    (⋁ xᵢ) ∧ y = ⋁ (xᵢ ∧ y)        y ∧ (⋁ xᵢ) = ⋁ (y ∧ xᵢ)

over every commuting subset.  ``check_theorem_ncframes`` decides the
equivalence that justifies the name: such a structure is a
noncommutative frame exactly when its maximal commutative image is a
frame.  On finite input everything is decidable by exhaustive scans,
and both sides of the equivalence are computed honestly rather than one
being inferred from the other.
"""

from __future__ import annotations

import itertools

from .core import (
    Certificate,
    FiniteSkewLattice,
    PreconditionError,
    QuotientLattice,
    _require_valid,
    check_identity,
    detect_zero,
    is_commutative,
    quotient,
)
from .completeness import _cliques, _extremum, _require_subset_cap
# re-exported, unused here: the traced benchmark wraps frames.sup_natural and frames.enumerate_commuting_subsets
from .completeness import enumerate_commuting_subsets as enumerate_commuting_subsets, sup_natural as sup_natural

__all__ = ["is_frame", "is_ncframe", "check_theorem_ncframes"]


def is_frame(L) -> Certificate:
    """Decide whether a finite lattice is a frame.

    A finite lattice is complete outright, so the content is meet
    distributivity over joins of subsets, which on finite lattices is
    equivalent to pairwise distributivity.  The scan visits pairs
    ``(y, z)`` with ``y < z`` in lexicographic order and, for each, every
    ``x``; the first failure is the one an exhaustive scan of all
    subsets by size would report, since one-element subsets never fail.
    A false certificate's witness is that failure, ``(x, (y, z))`` with
    ``x ∧ (y ∨ z) ≠ (x ∧ y) ∨ (x ∧ z)``.
    """
    lat = L.lattice if isinstance(L, QuotientLattice) else L
    _require_valid(lat, "is_frame")
    if not is_commutative(lat):
        raise PreconditionError("is_frame is defined for commutative structures (lattices) only")
    n = lat.order
    mt, jt = lat.meet_table, lat.join_table
    for y, z in itertools.combinations(range(n), 2):
        yz = jt[y][z]
        for x in range(n):
            if mt[x][yz] != jt[mt[x][y]][mt[x][z]]:
                return Certificate(False, "frame", (x, (y, z)))
    return Certificate(True, "frame")


def is_ncframe(S: FiniteSkewLattice) -> Certificate:
    """Decide whether a finite skew lattice is a noncommutative frame.

    Checks, in order: a zero element exists; the structure is strongly
    distributive; every commuting subset has a supremum (automatic on
    finite input, still verified); and both infinite distributive laws
    hold over every commuting subset.  The right-hand sides are suprema
    of the translated families, so a missing supremum there also fails
    the law.

    One walk over the commuting subsets ANDs a packed mask per member,
    which carries the common upper bounds of C and of every translated
    family at once; masks precomputed per ``s = ⋁C`` then certify both
    laws for all y in one test.  A subset that screen cannot certify
    goes through the per-y scan, which builds the witness.
    """
    _require_valid(S, "is_ncframe")
    if detect_zero(S) is None:
        return Certificate(False, "noncommutative frame", ("no zero", None))
    sd = check_identity(S, "strongly_distributive")
    if not sd.ok:
        return Certificate(False, "noncommutative frame", ("not strongly distributive", sd.witness))
    _require_subset_cap(S)
    n, mt, up, down = S.order, S.meet_table, S._up, S._down
    field = (1 << n) - 1
    # block k (bits k*n ..) of packed[c] is _up[ids[c][k]]: of c, then of c∧y for each y, then of y∧c
    ids = [[c] + [mt[c][y] for y in range(n)] + [mt[y][c] for y in range(n)] for c in range(n)]
    packed = [sum(up[t] << k * n for k, t in enumerate(row)) for row in ids]
    # bounds B have the supremum t (least-id rule, any relation) if t is in B, B ⊆ _up[t]
    # and no id below t tied with it is in B; s = ⋁C passes if every block of ids[s] does
    avoid = [field & ~up[t] | up[t] & down[t] & (1 << t) - 1 for t in range(n)]
    need_s = [sum(1 << k * n + t for k, t in enumerate(row)) for row in ids]
    avoid_s = [sum(avoid[t] << k * n for k, t in enumerate(row)) for row in ids]
    for members, acc in _cliques(S, packed):
        s = _extremum(up, acc & field)
        if s is None:
            return Certificate(False, "noncommutative frame", ("commuting subset with no supremum", members))
        if acc & need_s[s] == need_s[s] and not acc & avoid_s[s]:
            continue
        for y in range(n):
            for law, k in (("(⋁xᵢ)∧y = ⋁(xᵢ∧y)", 1 + y), ("y∧(⋁xᵢ) = ⋁(y∧xᵢ)", 1 + n + y)):
                rhs = _extremum(up, acc >> k * n & field)
                if rhs != ids[s][k]:
                    return Certificate(
                        False,
                        "noncommutative frame",
                        (law, (("subset", members), ("y", y), ("lhs", ids[s][k]), ("rhs", rhs))),
                    )
    return Certificate(True, "noncommutative frame")


def check_theorem_ncframes(S: FiniteSkewLattice) -> Certificate:
    """Noncommutative frame ⇔ the maximal commutative image is a frame.

    Preconditions mirror the hypotheses: a valid, strongly distributive
    structure with a zero (finite, hence join complete — the ncframe
    side re-verifies that).  Both sides are computed independently and
    compared; the witness records the two verdicts and their evidence.
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
