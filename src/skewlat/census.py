"""Census of small skew lattices, one representative per isomorphism class.

The main enumeration (:func:`enumerate_skew_lattices`) searches meet
tables first: a depth-first fill of the off-diagonal cells with
idempotent diagonal and incremental associativity checking, so that a
cell assignment is rejected the moment it completes a bad triple.  The
absorption laws confine each join ``x∨y`` to ``cand(x, y)``, the ``v``
with ``x∧v = x`` and ``v∧y = y``, so a partial meet table is also
rejected once some ``cand(x, y)`` is empty with its unassigned cells
read as wildcards: no completion of it can take a join.  The sets are
kept as bitmasks, one per row for ``x∧v = x`` and one per column for
``v∧y = y``, so an assignment updates two masks and checks n ANDs for
each.  A lex-leader rule keeps one meet table per isomorphism class,
its least relabeling in row-major order: a partial table is rejected
as soon as some relabeling of it is provably smaller.  Its relabeling
walks are watched: each waits on one cell and is advanced only when
that cell is assigned.  After associativity, the checks of a cell run
in this order: a filter's own (handedness, normality), the candidate
masks, then the walks, the dearest, on the nodes the others keep; the
masks and the walks key their state by depth and undo it as the
search backs up (see :func:`_table_search`).  The other tables of the
class need no search, since their joins are the relabeled joins of
this one and every filter is isomorphism-invariant.  The join table is
then searched the same way, each cell ``x∨y`` ranging over
``cand(x, y)``, read off the masks of the completed meet table, with
the absorption laws ``x∨(x∧y) = x`` and ``(x∧y)∨y = y`` pinned up
front.  The canonical form of each structure found comes from the
search itself: the relabelings whose walks end with no difference at
the last cell are the automorphisms of the meet table M, and since M
is its own least relabeling, the form is M with the least image of the
join table under those automorphisms and the identity, as
:func:`canonicalize` would give without trying all n! relabelings.

Counts produced this way have no external reference to compare against,
so a second, deliberately different strategy exists for small orders:
:func:`enumerate_by_quotient_construction` builds candidate tables from
a labeled quotient lattice and a block partition of the carrier and
then filters by the axioms.  Agreement of the two canonical-form sets
is part of the acceptance suite.

Sizes are read by ``core._read_int`` and every cap (the census order,
5 unless ``order_cap`` or SKEWLAT_CENSUS_CAP says otherwise, the
cross-check's 3 and ``canonicalize``'s 8) is checked by
``core._check_cap`` before the work it bounds begins.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import (
    CENSUS_CAP_ENV,
    FiniteSkewLattice,
    IDENTITY_NAMES,
    PreconditionError,
    Table,
    _check_cap,
    _read_int,
    _zero_of,
    check_identity,
    check_lemma_reg,
    check_symmetric,
    detect_zero,
    is_commutative,
    lattice_from_order,
)
from .completeness import (
    check_bounded_above,
    check_implication_chain,
    check_join_complete,
    check_prop_joins,
    check_section_exists,
    check_section_extension,
)
from .frames import check_theorem_ncframes, is_ncframe

__all__ = [
    "CensusFilter",
    "CanonicalForm",
    "canonicalize",
    "enumerate_skew_lattices",
    "enumerate_by_quotient_construction",
    "search_counterexample",
    "PREDICATES",
]

CROSS_CHECK_CAP = 3
CANONICALIZE_CAP = 8  # n! relabelings, all kept: 43 MB at order 8, about (n+1)-fold more per order


# --- property registry ---------------------------------------------------

# Each checker returns a Certificate or a bool and may raise
# PreconditionError.  Identity entries bind their name through a default
# argument so that ``check_identity`` is looked up here at call time.
PREDICATES: dict[str, Callable[[FiniteSkewLattice], object]] = {
    "validated": lambda S: S.validity,
    **{name: (lambda S, name=name: check_identity(S, name)) for name in IDENTITY_NAMES},
    "symmetric": check_symmetric,
    "commutative": is_commutative,
    "has_zero": lambda S: detect_zero(S) is not None,
    "lemma_reg": check_lemma_reg,
    "join_complete": check_join_complete,
    "bounded_above": check_bounded_above,
    "extends_to_sections": check_section_extension,
    "section_exists": check_section_exists,
    "prop_joins": check_prop_joins,
    "implication_chain": check_implication_chain,
    "ncframe": is_ncframe,
    "theorem_ncframes": check_theorem_ncframes,
}


def _holds(name: str, S: FiniteSkewLattice) -> bool | None:
    # None when a precondition fails: the property does not apply
    try:
        return bool(PREDICATES[name](S))
    except PreconditionError:
        return None


class CensusFilter:
    """Tri-state filters over :data:`PREDICATES`: True requires, False forbids, None ignores.

    Wants are checked in the order they were given, stopping at the
    first mismatch; a check whose precondition fails matches no want.
    """

    def __init__(self, **wants: bool | None) -> None:
        unknown = [key for key in wants if key not in PREDICATES]
        if unknown:
            raise ValueError(f"unknown filter {unknown[0]!r}; known: {', '.join(sorted(PREDICATES))}")
        for key, want in wants.items():
            if not (want is None or isinstance(want, bool)):
                raise ValueError(f"filter {key!r} wants {want!r}; use True, False or None")
        self._wants = {key: want for key, want in wants.items() if want is not None}

    def __repr__(self) -> str:
        return f"CensusFilter(**{self._wants!r})"

    def matches(self, S: FiniteSkewLattice) -> bool:
        return all(_holds(key, S) == want for key, want in self._wants.items())


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Lexicographically least relabeling of the table pair.

    Two structures are isomorphic exactly when their canonical forms are
    equal; the zero element plays no role because it is determined by
    the tables.
    """

    meet_table: Table
    join_table: Table

    @property
    def order(self) -> int:
        return len(self.meet_table)


@functools.cache
def _relabelings(n: int) -> tuple[Callable[[bytes], bytes], ...]:
    # one move per carrier permutation π, in itertools order, taking a flat
    # row-major table T to T^π, where T^π[π(i)][π(j)] = π(T[i][j])
    moves = []
    for perm in itertools.permutations(range(n)):
        inv = sorted(range(n), key=perm.__getitem__)
        cells = [inv[a] * n + inv[b] for a in range(n) for b in range(n)]
        take = operator.itemgetter(*cells) if n > 1 else operator.itemgetter(slice(None))
        values = bytes(perm).ljust(256, b"\0")
        moves.append(lambda flat, take=take, values=values: bytes(take(flat)).translate(values))
    return tuple(moves)


def canonicalize(S: FiniteSkewLattice) -> CanonicalForm:
    """Least (meet, join) table pair over all carrier relabelings.

    The meet table is compared first, so the least pair carries the least
    relabeled meet table; the relabelings reaching it form one coset of
    the meet table's automorphism group, and only those relabel the join
    table.  So when the meet table is already its least relabeling, the
    coset is that group, and the least join is the least of its images
    under the automorphisms: the census reads its forms that way, off the
    lex-leader search, and this function stays for arbitrary input and as
    the tests' reference.  Flat row-major bytes compare as the tables do.
    """
    _check_cap(S.order, "canonicalize order", cap=CANONICALIZE_CAP, todo="its n! relabelings are all kept in memory")
    n, moves = S.order, _relabelings(S.order)
    meet, join = S._m.astype("uint8").tobytes(), S._j.astype("uint8").tobytes()
    meets = [move(meet) for move in moves]
    least = min(meets)
    best = min(move(join) for move, m in zip(moves, meets) if m == least)
    return CanonicalForm(*(tuple(tuple(t[i : i + n]) for i in range(0, n * n, n)) for t in (least, best)))


# --- incremental table search -------------------------------------------

def _assoc_ok_after(T: list[list[int]], p: int, q: int, where: list[list[tuple[int, int]]]) -> bool:
    # (x∧y)∧z = x∧(y∧z) on the triples whose evaluation reads the assigned
    # cell (p, q); a triple with an unassigned (-1) product stays open.
    # where[v] lists the assigned cells (a, b) with a∧b = v
    Tp = T[p]
    pq = Tp[q]
    Tpq, Tq = T[pq], T[q]
    for c, Tc in enumerate(T):
        qc, cp = Tq[c], Tc[p]
        if qc >= 0 and 0 <= Tpq[c] != Tp[qc] >= 0:  # x, y, z = p, q, c
            return False
        if cp >= 0 and 0 <= T[cp][q] != Tc[pq] >= 0:  # x, y, z = c, p, q
            return False
    for a, b in where[p]:  # x, y, z = a, b, q: the left side is p∧q
        bq = T[b][q]
        if bq >= 0 and pq != T[a][bq] >= 0:
            return False
    for a, b in where[q]:  # x, y, z = p, a, b: the right side is p∧q
        pa = Tp[a]
        if pa >= 0 and 0 <= T[pa][b] != pq:
            return False
    return True


Hook = Callable[[list[list[int]], int, int], bool]


def _left_handed_hook(T: list[list[int]], p: int, q: int) -> bool:
    # x∧y∧x = x∧y on the pairs whose evaluation reads the assigned cell
    # (p, q): (x, y) = (p, q), or (x∧y, x) = (p, q)
    w = T[p][q]
    if 0 <= T[w][p] != w:
        return False
    return w == p or p not in T[q]


def _normal_ok(T: list[list[int]], x: int, y: int, z: int) -> bool:
    # x∧y∧z∧x = x∧z∧y∧x, open while a product is unassigned (-1)
    Tx = T[x]
    xy, xz = Tx[y], Tx[z]
    if xy < 0 or xz < 0:
        return True
    xyz, xzy = T[xy][z], T[xz][y]
    if xyz < 0 or xzy < 0:
        return True
    left, right = T[xyz][x], T[xzy][x]
    return left < 0 or right < 0 or left == right


def _normal_hook(T: list[list[int]], p: int, q: int) -> bool:
    # x∧y∧z∧x = x∧z∧y∧x on the triples whose left side reads the assigned
    # cell (p, q): (x, y), (x∧y, z) or (x∧y∧z, x) is (p, q).  The law is
    # symmetric in y and z, so these also cover every read of the right side
    rows = range(len(T))
    Tq = T[q]
    return (
        all(_normal_ok(T, p, q, z) for z in rows)
        and all(_normal_ok(T, x, y, q) for x in rows for y in rows if T[x][y] == p)
        and all(_normal_ok(T, q, y, z) for y in rows if Tq[y] >= 0 for z in rows if T[Tq[y]][z] == p)
    )


class _JoinCandidateMasks:
    """Reject a partial meet table once some ``cand(x, y)``, x ≠ y, is empty.

    Every join ``x∨y`` needs a value in ``cand(x, y) = {v : x∧v = x,
    v∧y = y}``, an unassigned cell read as a wildcard, so the sets only
    shrink down the search.  They are kept as bitmasks (Python ints):
    ``left[x]`` has bit v when ``T[x][v]`` is x or unassigned, ``right[y]``
    bit v when ``T[v][y]`` is y or unassigned, and ``cand(x, y)`` is
    ``left[x] & right[y]``.  Setting ``T[p][q] = w`` clears bit q of
    ``left[p]`` unless w = p and bit p of ``right[q]`` unless w = q, so
    only the sets ``cand(p, ·)`` and ``cand(·, q)`` can empty: n ANDs
    each.  ``cand(x, x)`` always holds x, the diagonal being idempotent.

    Like :class:`_LexLeaderHook` the hook is for a search without pins,
    whose k-th assignment is the k-th off-diagonal cell in row-major
    order; each node logs the two masks it replaced, and a call at depth
    k first restores the logs of depth k and deeper.  So when the search
    yields a table, the masks are exact for it and give its candidate
    sets.
    """

    def __init__(self, n: int) -> None:
        self._n = n
        self.left = [(1 << n) - 1] * n
        self.right = [(1 << n) - 1] * n
        # (k, p, left[p], q, right[q]) before node k, cell (p, q), was assigned
        self._log: list[tuple[int, int, int, int, int]] = []

    def __call__(self, T: list[list[int]], p: int, q: int) -> bool:
        k = p * (self._n - 1) + (q if q < p else q - 1)
        left, right, log = self.left, self.right, self._log
        while log and log[-1][0] >= k:
            _, a, left[a], b, right[b] = log.pop()
        w, lp, rq = T[p][q], left[p], right[q]
        log.append((k, p, lp, q, rq))
        if w != p:
            lp = left[p] = lp & ~(1 << q)
            if not all(map(lp.__and__, right)):
                return False
        if w != q:
            rq = right[q] = rq & ~(1 << p)
            if not all(map(rq.__and__, left)):
                return False
        return True


@functools.cache
def _mask_members(n: int) -> tuple[tuple[int, ...], ...]:
    # the set bits of each mask below 2ⁿ, in increasing order
    return tuple(tuple(v for v in range(n) if mask >> v & 1) for mask in range(1 << n))


_MEET_HOOKS: dict[str, Hook] = {"left_handed": _left_handed_hook, "normal": _normal_hook}


@functools.cache
def _lex_walks(n: int) -> tuple[tuple, ...]:
    # the first leg of the walk of each carrier permutation π but the
    # identity.  The walk compares T[a][b] with T^π[a][b] = π(T[π⁻¹a][π⁻¹b])
    # over the off-diagonal cells (a, b) in row-major order (the diagonal is
    # fixed by every π), and each comparison waits on the later of the two
    # cells it reads.  The walk is cut into legs (cell, π, comparisons
    # (a, b, π⁻¹a, π⁻¹b), next leg or None): a leg starts wherever the wait
    # exceeds every earlier one and holds the comparisons that become
    # decidable once its cell is assigned.
    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    index = {cell: k for k, cell in enumerate(cells)}
    firsts = []
    for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
        inv = sorted(range(n), key=perm.__getitem__)
        legs: list[tuple[int, list]] = []
        for pos, (a, b) in enumerate(cells):
            wait = max(pos, index[inv[a], inv[b]])
            if not legs or wait > legs[-1][0]:
                legs.append((wait, []))
            legs[-1][1].append((a, b, inv[a], inv[b]))
        leg = None
        for wait, steps in reversed(legs):
            leg = (wait, perm, tuple(steps), leg)
        firsts.append(leg)
    return tuple(firsts)


class _LexLeaderHook:
    """Reject a partial table once some relabeling of it is provably row-major smaller.

    For each π the walk compares ``T[a][b]`` with ``T^π[a][b]`` cell by
    cell and stops at the first comparison that reads an unassigned cell
    (no verdict yet) or finds the two differ: a smaller ``T^π`` prunes, a
    larger one stays larger in the whole subtree, so π is dropped there.
    A complete table survives exactly when it is the least of its
    relabelings.

    The walks are watched, as a SAT solver watches clauses: an open walk
    waits on one cell, the later of the two its next comparison reads,
    and node k advances only the walks waiting on cell k, each to the
    next cell it waits on.  The hook is for a search without pins, whose
    k-th assignment is the k-th off-diagonal cell in row-major order, so
    k is worked out from (p, q).  Each node logs the walks it moved; a
    call at depth k first undoes the logs of depth k and deeper, which
    belong to a sibling or to a subtree the search has left.

    Every walk's last leg waits on the last cell, so the walks that end
    there with no difference are exactly the automorphisms of the
    completed table; the call records them in ``automorphisms``.
    """

    def __init__(self, n: int) -> None:
        self._n = n
        # _waiting[k]: the legs of the walks that wait on cell k
        self._waiting: list[list[tuple]] = [[] for _ in range(n * (n - 1))]
        for leg in _lex_walks(n):
            self._waiting[leg[0]].append(leg)
        # (k, cells): node k appended one leg to _waiting[cell] for each cell
        self._log: list[tuple[int, list[int]]] = []
        # the π ≠ id with T^π = T for the table completed by the last call
        self.automorphisms: list[tuple[int, ...]] = []

    def __call__(self, T: list[list[int]], p: int, q: int) -> bool:
        k = p * (self._n - 1) + (q if q < p else q - 1)
        waiting, log = self._waiting, self._log
        while log and log[-1][0] >= k:
            for cell in log.pop()[1]:
                waiting[cell].pop()
        moved: list[int] = []
        log.append((k, moved))
        equal: list[tuple[int, ...]] = []
        for _, perm, steps, after in waiting[k]:
            for a, b, ia, ib in steps:
                t, u = T[a][b], perm[T[ia][ib]]
                if u != t:
                    if u < t:
                        return False
                    break
            else:
                if after is None:  # the complete table equals its relabeling
                    equal.append(perm)
                else:
                    waiting[after[0]].append(after)
                    moved.append(after[0])
        self.automorphisms = equal
        return True


def _table_search(
    n: int,
    preset: list[tuple[int, int, int]],
    cand: Callable[[int, int], tuple[int, ...]],
    hooks: tuple[Hook, ...],
) -> Iterator[Table]:
    """DFS over off-diagonal cells of an idempotent table.

    ``preset`` assignments (pins) are applied first with the same
    incremental checks; conflicting pins abort the search.  Free cells
    range over ``cand(i, j)`` in row-major cell order.  Each value is
    checked for associativity, then by the hooks in the order given,
    stopping at the first that rejects it, so a later hook is not called
    at every node: a stateful hook cannot rely on seeing each assignment
    or its undoing.  The census's hooks (:class:`_JoinCandidateMasks`,
    :class:`_LexLeaderHook`) key their state by depth instead: a call for
    the k-th cell first undoes what their calls at depth k or deeper
    did, which belongs to a sibling value or to a subtree the search
    has left, and when a table is yielded every hook has just been
    called at the last cell, so its state is that of the table.
    """
    T = [[i if i == j else -1 for j in range(n)] for i in range(n)]
    # where[v]: the assigned cells (a, b) with T[a][b] = v, in assignment order,
    # so an unassignment pops the cell it added
    where: list[list[tuple[int, int]]] = [[(v, v)] for v in range(n)]
    for i, j, v in preset:
        if T[i][j] < 0:
            T[i][j] = v
            where[v].append((i, j))
            if not _assoc_ok_after(T, i, j, where) or not all(h(T, i, j) for h in hooks):
                return
        elif T[i][j] != v:
            return
    free = [(i, j) for i in range(n) for j in range(n) if T[i][j] < 0]

    def rec(k: int) -> Iterator[Table]:
        if k == len(free):
            yield tuple(tuple(row) for row in T)
            return
        i, j = free[k]
        for v in cand(i, j):
            T[i][j] = v
            cells = where[v]
            cells.append((i, j))
            if _assoc_ok_after(T, i, j, where):
                for hook in hooks:
                    if not hook(T, i, j):
                        break
                else:
                    yield from rec(k + 1)
            cells.pop()
        T[i][j] = -1

    try:
        yield from rec(0)
    finally:
        del rec  # rec refers to itself through its closure: break the cycle


def _relabeled(T: Table, perm: tuple[int, ...]) -> Table:
    # T^π, where T^π[π(i)][π(j)] = π(T[i][j])
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    return tuple(tuple(perm[T[a][b]] for b in inv) for a in inv)


def _census_forms(order: int, filt: CensusFilter) -> dict[CanonicalForm, FiniteSkewLattice]:
    """Each class that ``filt`` keeps, as its canonical form and the structure
    built on the form's tables with its zero, the one the filter checked."""
    n = order
    filter_hooks = tuple(hook for key, hook in _MEET_HOOKS.items() if filt._wants.get(key) is True)
    full_range = tuple(range(n))
    forms: dict[CanonicalForm, FiniteSkewLattice] = {}
    # one meet table per meet class, its least relabeling: the others' joins
    # are relabeled joins of this one, and every filter is isomorphism-invariant;
    # a meet table reaches the join search only when no cand(i, j) is empty;
    # the masks run before the walks, which then see fewer nodes, and hold the
    # cand of each table yielded
    masks, lex = _JoinCandidateMasks(n), _LexLeaderHook(n)
    members = _mask_members(n)
    for M in _table_search(n, [], lambda i, j: full_range, filter_hooks + (masks, lex)):
        # M is its own least relabeling, so canonicalize's coset is {id} ∪ Aut(M)
        automorphisms = lex.automorphisms
        cand = [[members[left & right] for right in masks.right] for left in masks.left]
        # absorption pins x∨(x∧y) = x and (x∧y)∨y = y
        pins = [pin for x in range(n) for y in range(n) for pin in ((x, M[x][y], x), (M[x][y], y, y))]
        joins = list(_table_search(n, pins, lambda i, j: cand[i][j], ()))
        # Aut(M) permutes the joins found, as the search is isomorphism-invariant,
        # so a lone join is its own least image; each class is built once, its
        # tables converted once for the zero and the structure
        m = np.array(M, np.intp)
        for J in joins if len(joins) == 1 else {min([J] + [_relabeled(J, p) for p in automorphisms]) for J in joins}:
            j = np.array(J, np.intp)
            S = FiniteSkewLattice(n, m, j, zero=_zero_of(m, j))
            if S.validity.ok and filt.matches(S):  # the search guarantees validity; keep the net
                forms[CanonicalForm(M, J)] = S
    return forms


def enumerate_skew_lattices(
    order: int, filt: CensusFilter | None = None, order_cap: int | None = None
) -> Iterator[FiniteSkewLattice]:
    """Yield one representative per isomorphism class, in canonical order.

    Every yielded structure is valid, carries its zero when one exists,
    and is the realization of its own canonical form, so runs are
    reproducible; it is the structure the validity net and the filter
    checked.  The default order cap is 5; raise it with ``order_cap`` or
    the SKEWLAT_CENSUS_CAP environment variable if you mean it.
    """
    order = _read_int(order, "enumerate_skew_lattices", "order", 1)
    filt = filt or CensusFilter()
    _check_cap(order, "census order", op="enumerate_skew_lattices", env=CENSUS_CAP_ENV, explicit=order_cap)
    forms = _census_forms(order, filt)
    for cf in sorted(forms):
        yield forms[cf]


# --- independent cross-check construction --------------------------------

def _labeled_lattices(q: int) -> list[tuple[Table, Table]]:
    out: list[tuple[Table, Table]] = []
    pairs = [(i, j) for i in range(q) for j in range(q) if i != j]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        leq = [[i == j for j in range(q)] for i in range(q)]
        for (i, j), b in zip(pairs, bits):
            if b:
                leq[i][j] = True
        try:
            lat = lattice_from_order(leq)
        except PreconditionError:
            continue
        out.append((lat.meet_table, lat.join_table))
    return out


def _compositions(n: int, q: int) -> Iterator[tuple[int, ...]]:
    if q == 1:
        yield (n,)
        return
    for first in range(1, n - q + 2):
        for rest in _compositions(n - first, q - 1):
            yield (first,) + rest


def _assoc_plain(T: Table) -> bool:
    n = len(T)
    return all(
        T[T[a][b]][c] == T[a][T[b][c]] for a in range(n) for b in range(n) for c in range(n)
    )


def _block_tables(n: int, cls: list[int], blocks: list[tuple[int, ...]], qtable: Table) -> list[Table]:
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    allowed = [blocks[qtable[cls[i]][cls[j]]] for i, j in cells]
    out = []
    for choice in itertools.product(*allowed):
        T = [[i if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(cells, choice):
            T[i][j] = v
        table = tuple(tuple(r) for r in T)
        if _assoc_plain(table):
            out.append(table)
    return out


def enumerate_by_quotient_construction(order: int) -> set[CanonicalForm]:
    """Slow, independent enumeration used to cross-check census counts.

    Every skew lattice projects onto a lattice of D-classes, so every
    isomorphism class arises from some labeled lattice on q points, a
    composition of the order into q block sizes, and tables confined to
    the blocks dictated by the class products.  This generates exactly
    those candidates and keeps the ones satisfying all axioms; no
    pruning tricks are shared with the main search.  Exponential, hence
    capped at order 3.
    """
    n = _read_int(order, "enumerate_by_quotient_construction", "order", 1)
    _check_cap(n, "cross-check order", cap=CROSS_CHECK_CAP, todo="its candidate tables grow as n**(n*n)")
    forms: set[CanonicalForm] = set()
    for q in range(1, n + 1):
        for qmeet, qjoin in _labeled_lattices(q):
            for sizes in _compositions(n, q):
                starts = [sum(sizes[:i]) for i in range(q)]
                blocks = [tuple(range(s, s + w)) for s, w in zip(starts, sizes)]
                cls = [c for c, block in enumerate(blocks) for _ in block]
                for M in _block_tables(n, cls, blocks, qmeet):
                    for J in _block_tables(n, cls, blocks, qjoin):
                        S = FiniteSkewLattice(n, M, J)
                        if S.validity.ok:
                            forms.add(canonicalize(S))
    return forms


# --- counterexample search -----------------------------------------------

def _predicate(expr: str) -> Callable[[FiniteSkewLattice], bool | None]:
    names = [part.strip() for part in expr.split("&")]
    for name in names:
        if name not in PREDICATES:
            raise ValueError(f"unknown predicate {name!r}; known: {', '.join(sorted(PREDICATES))}")

    def value(S: FiniteSkewLattice) -> bool | None:  # None when a conjunct does not apply
        values = [_holds(name, S) for name in names]
        return None if None in values else all(values)

    return value


def search_counterexample(
    order_max: int, hypothesis: str, conclusion: str, order_cap: int | None = None
) -> FiniteSkewLattice | None:
    """First census structure satisfying the hypothesis but not the conclusion.

    Predicates come from :data:`PREDICATES` and combine with ``&``; a
    structure where one's precondition fails is skipped.  Orders are
    scanned from 1 to ``order_max`` in canonical enumeration order, so
    the returned counterexample is minimal and stable.  Returns ``None``
    when the implication survives the whole range.
    """
    order_max = _read_int(order_max, "search_counterexample", "order_max", 1)
    _check_cap(order_max, "census order", op="search_counterexample", env=CENSUS_CAP_ENV, explicit=order_cap)
    hyp = _predicate(hypothesis)
    concl = _predicate(conclusion)
    for order in range(1, order_max + 1):
        for S in enumerate_skew_lattices(order, order_cap=order_cap):
            if hyp(S) is True and concl(S) is False:
                return S
    return None
