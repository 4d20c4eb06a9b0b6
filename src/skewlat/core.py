"""Finite skew lattices as operation tables.

A skew lattice is a set with two idempotent, associative operations
(``meet`` and ``join``) tied together by four absorption identities.
Neither operation is assumed commutative; a commutative skew lattice is
exactly a lattice.  This module holds the finite table representation
and the structural toolkit on top of it: axiom validation with concrete
witnesses, the catalogue of extra identities (regularity, normality,
distributivity, handedness), the D-equivalence whose quotient is the
maximal commutative image, the natural partial order, down-sets,
restrictions and homomorphisms.

Elements are the positions ``0 .. order-1``; optional labels are for
display only and never affect computation.  Every function of the
package reads each element id, size and cap argument with
``_read_int``, so one that is not an integer in range, or is a bool, is
refused, never truncated, and each such error reads the same way; decimal
text, in a file or a cap variable, is read by ``_decimal``.  Every
cap is checked by ``_check_cap``, the only code that raises
``CapExceededError``, before the work it bounds is allocated.
Construction only checks, in one vectorised pass, that the raw tables
are well formed, and keeps each as the one array every scan reads
(tuples on demand).  Whether the
tables satisfy the skew lattice axioms is a separate question answered
by :func:`validate_skew_axioms`; operations that need a valid
structure check that verdict (cached on the instance) before working.

Each axiom and identity, and the frame law that ``frames.is_frame``
scans, is written once, as equation text such as
``"x∧y∧z∧x = x∧z∧y∧x"``, and compiled at import into a scan that fixes
x and sweeps y and z: a table row or column serves each subterm that
depends on x alone, so most gathers are 1-D takes, and a subterm that
does not read x is evaluated once per scan.  Smaller tables are checked
by gather plans, compiled on first use for the laws of one check at one
order: each subterm is evaluated once, and the small ones of one depth,
across every law, together, so a census-sized table costs a few numpy
calls per depth rather than a few per subterm.  One function,
``_first_failure``, scans the laws of every check in both regimes, and
applies the lemmas that prove a law without its scan.  The text is the
law a false verdict's witness cites.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import os
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

__all__ = [
    "SkewLatticeError",
    "StructureError",
    "PreconditionError",
    "InternalConsistencyError",
    "CapExceededError",
    "Certificate",
    "FiniteSkewLattice",
    "DPartition",
    "QuotientLattice",
    "Homomorphism",
    "IDENTITY_NAMES",
    "validate_skew_axioms",
    "check_identity",
    "check_symmetric",
    "green_d",
    "natural_leq",
    "quotient",
    "check_lemma_reg",
    "is_homomorphism",
    "down_set",
    "restriction",
    "subalgebra",
    "is_commutative",
    "detect_zero",
    "lattice_from_order",
]


class SkewLatticeError(Exception):
    """Base class for every error raised by this package."""


class StructureError(SkewLatticeError):
    """Malformed raw data: non-square tables, out-of-range ids, bad labels."""


class PreconditionError(SkewLatticeError):
    """An operation was called on input that violates its stated contract."""


class InternalConsistencyError(SkewLatticeError):
    """A derived object failed an invariant that validation should guarantee.

    Seeing this means the input was not what it claimed to be (for
    example a "normal" structure that is not), or there is a bug.
    """


class CapExceededError(PreconditionError):
    """A configured size cap would be exceeded; raised only by ``_check_cap``."""


# the caps an environment variable raises, with their defaults: the census order and a built or loaded order
CENSUS_CAP_ENV, BUILD_CAP_ENV = "SKEWLAT_CENSUS_CAP", "SKEWLAT_BUILD_CAP"
_ENV_CAPS = {CENSUS_CAP_ENV: 5, BUILD_CAP_ENV: 4096}


def _read_int(v: Any, op: str, what: str = "id", lo: int = 0, hi: int | None = None) -> int:
    """``v`` read with ``operator.index``, a bool refused; raises unless ``lo <= v``, and ``v <= hi`` when given."""
    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise PreconditionError(f"{op}: {what} {v!r} is not an integer")
    i = operator.index(v)
    if not lo <= i <= (i if hi is None else hi):
        raise PreconditionError(f"{op}: {what} {_num(i)} out of range {lo}..{'' if hi is None else hi}")
    return i


def _decimal(text: str) -> int | None:
    """``text`` as an int if it is ASCII digits after an optional ``-``, else None: no ``+``, ``_`` or other digits."""
    digits = text.removeprefix("-")  # int() reads no more than 4300 digits
    return int(text) if digits.isascii() and digits.isdigit() and len(digits) <= 4300 else None


def _num(v: int) -> str:
    # past 20 digits by its magnitude, as str() refuses an int of more than 4300
    return str(v) if v < 10**20 else f"about 10**{round(math.log10(v))}"


def _check_cap(n: int | tuple[int, int], what: str, *about: int, cap: int = 0, todo: str = "",
               op: str = "", env: str | None = None, explicit: Any = None) -> None:
    """The one raise of ``CapExceededError``, ``<what> <n> > cap <cap>; <todo>``, ``what`` formatted with ``about``.

    ``n`` is a count or a power ``(base, exponent)``, not computed past the cap.  The cap is ``cap``; or, for the
    variable ``env``, ``explicit``, else the variable, else its default, read by ``_read_int`` for ``op`` (>= 1)."""
    if env is not None:
        cap, todo, text = _ENV_CAPS[env], f"set {env} to override", os.environ.get(env)
        if explicit is not None:
            cap = _read_int(explicit, op, "order_cap", 1)
        elif text is not None:  # decimal text, blanks around it allowed, as its int; other text is refused
            cap = _read_int(text if (v := _decimal(text.strip())) is None else v, op, env, 1)
    base, exp = n if isinstance(n, tuple) else (n, 1)
    value = base ** min(exp, cap.bit_length())  # exact up to the cap; past it, any base of 2 or more exceeds it
    if value > cap:
        shown = _num(value) if exp <= cap.bit_length() else f"{_num(base)}**{_num(exp)}"
        raise CapExceededError(f"{what.format(*map(_num, about))} {shown} > cap {cap}; {todo}")


@dataclass(frozen=True)
class Certificate:
    """A verdict plus a machine-checkable witness.

    ``checked`` names the property that was decided.  For a false
    verdict the witness pins down a concrete violation, usually a pair
    ``(law, element_tuple)`` that can be re-substituted into the cited
    law.  Checks that produce evidence on success (a supremum, a
    section, a case analysis) put that payload in ``witness`` instead.
    """

    ok: bool
    checked: str
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok


Table = tuple[tuple[int, ...], ...]


def _as_int(v: Any, what: str) -> int:
    """``v`` as an ``int`` when ``operator.index`` accepts it; ``what`` names it in the error."""
    try:
        return operator.index(v)
    except TypeError:
        raise StructureError(f"{what} is {v!r}, not an integer") from None


def _sequence(v: Any, what: str, of: str) -> list:
    """``v`` as a list; ``what`` names it in the error when it cannot be iterated."""
    try:
        return list(v)
    except TypeError:
        raise StructureError(f"{what} is {v!r}, not a sequence of {of}") from None


# From this order up, tuple or list rows are read through one bytes join.  Timed per
# call on random tables (2-vCPU VM), the join took 0.8 of np.array's time at order 10
# and a quarter at order 243, about as long at orders 7-8, and 1.0-1.4 times as long
# at orders 2-6, the census's and most of the frame checks' sizes
_BYTES_FROM_ORDER = 10


def _table_array(rows: Any, order: int, which: str) -> np.ndarray:
    """``rows`` as a read-only view of a new order×order intp array; errors name the first bad row or entry."""
    arr = None
    # only tuples and lists: bytes() reads an ndarray row's raw buffer (int8 -1 as 255)
    # and an int row as that many zero bytes, and a generator must not be consumed here
    if (
        _BYTES_FROM_ORDER <= order <= 256
        and type(rows) in (tuple, list)
        and len(rows) == order
        and all(type(row) in (tuple, list) and len(row) == order for row in rows)
    ):
        try:
            arr = np.frombuffer(b"".join(map(bytes, rows)), np.uint8).reshape(order, order)
        except (TypeError, ValueError):  # an entry that is not an integer in 0..255
            pass
    if arr is None:
        try:
            arr = np.array(rows)
        except ValueError:  # ragged rows, or a nested entry
            arr = np.empty(0)
    if arr.shape == (order, order) and arr.dtype.kind in "biu":
        table = arr.astype(np.intp, copy=False)
        if table.view(np.uintp).max() < order:  # a negative entry wraps to a huge one
            view = table.view()
            view.flags.writeable = False
            return view
    # anything else is read cell by cell, to name the first fault
    table = [
        [_as_int(v, f"{which} table entry at row {i}") for v in _sequence(row, f"{which} table row {i}", "entries")]
        for i, row in enumerate(_sequence(rows, f"{which} table", "rows"))
    ]
    if len(table) != order:
        raise StructureError(f"{which} table has {len(table)} rows, expected {order}")
    for i, row in enumerate(table):
        if len(row) != order:
            raise StructureError(f"{which} table row {i} has {len(row)} entries, expected {order}")
        if min(row) < 0 or max(row) >= order:
            v = next(v for v in row if not 0 <= v < order)
            raise StructureError(f"{which} table entry {v} at row {i} is out of range 0..{order - 1}")
    return _table_array(table, order, which)


def _row_masks(rel: np.ndarray) -> tuple[int, ...]:
    # row a of a boolean matrix as an int whose bit s is rel[a, s]
    return tuple(int.from_bytes(row.tobytes(), "little") for row in np.packbits(rel, axis=1, bitorder="little"))


class FiniteSkewLattice:
    """Two total operation tables over the carrier ``0 .. order-1``.

    A table is an iterable of rows of integers, or an integer or bool
    ndarray; an entry counts as an integer when ``operator.index``
    accepts it, so a float or a string is an error, not truncated.  The
    constructor converts and checks each table once, into the read-only
    intp array ``_m`` or ``_j`` that every scan reads and the only copy
    kept; ``meet_table``/``join_table`` render it as tuples of ``int``
    on first read.  An instance is immutable; two of one class are equal
    when order, tables, zero and labels are.

    ``zero`` optionally names an element expected to absorb meets and be
    neutral for joins; the claim is verified during validation, not at
    construction.  The rest of the derived data is computed on first use
    and cached: the validation verdict, the D-partition, the natural
    order, and through ``_once`` the identity and symmetry certificates,
    lemma verdicts, generating sets, Lemma J's restricted violations,
    zero, quotient, commutation graph, Lemma A's checked premise and the
    lattice sections.
    """

    def __init__(
        self, order: int, meet_table: Any, join_table: Any, zero: int | None = None, labels: Iterable[str] | None = None
    ) -> None:
        try:
            n = operator.index(order)
        except TypeError:
            n = 0
        if n < 1 or isinstance(order, bool):
            raise StructureError(f"order must be a positive integer, got {order!r}")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "_m", _table_array(meet_table, n, "meet"))
        object.__setattr__(self, "_j", _table_array(join_table, n, "join"))
        if zero is not None:
            zero = _as_int(zero, "zero id")
            if not 0 <= zero < n:
                raise StructureError(f"zero id {zero} is out of range 0..{n - 1}")
        object.__setattr__(self, "zero", zero)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise StructureError(f"{len(labels)} labels for order {n}")
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name: str, *_: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.order, self._m.tobytes(), self._j.tobytes(), self.zero, self.labels

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order}, zero={self.zero})"

    meet_table = cached_property(lambda self: tuple(map(tuple, self._m.tolist())))
    join_table = cached_property(lambda self: tuple(map(tuple, self._j.tolist())))

    def meet(self, a: int, b: int) -> int:
        return int(self._m[_read_int(a, "meet", hi=self.order - 1), _read_int(b, "meet", hi=self.order - 1)])

    def join(self, a: int, b: int) -> int:
        return int(self._j[_read_int(a, "join", hi=self.order - 1), _read_int(b, "join", hi=self.order - 1)])

    def label(self, i: int) -> str:
        i = _read_int(i, "label", hi=self.order - 1)
        return self.labels[i] if self.labels is not None else str(i)

    @cached_property
    def _tables(self) -> "_Tables":
        # the writeable bases of _m and _j: numpy's take is several times slower
        # when its index array is read-only, and a table is an index of the next take
        m, j = self._m.base, self._j.base
        ids = np.arange(self.order)
        columns = (np.ascontiguousarray(m.T), np.ascontiguousarray(j.T))
        return _Tables(self.order, (m, j), columns, (m.ravel(), j.ravel()), ids, ids[:, None])

    @cached_property
    def validity(self) -> Certificate:
        return _axiom_scan(self)

    @cached_property
    def _leq(self) -> np.ndarray:
        # natural partial order, meet form: a <= b iff a^b == b^a == a
        m = self._m
        ids = np.arange(self.order)[:, None]
        arr = (m == ids) & (m.T == ids)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _up(self) -> tuple[int, ...]:
        # bit s of _up[a] is set iff a <= s
        return _row_masks(self._leq)

    @cached_property
    def _down(self) -> tuple[int, ...]:
        # bit s of _down[a] is set iff s <= a
        return _row_masks(self._leq.T)

    @cached_property
    def _dpart(self) -> "DPartition":
        return _compute_d_partition(self)

    @cached_property
    def _memo(self) -> dict:
        # _once's keys: an identity's name, ("lemma", law text), ("generators", op), ("Lemma J", law text),
        # "symmetric", "zero", "quotient", "commutation_graph", "joins_are_suprema" (Lemma A's premise),
        # "lattice_sections"
        return {}


@dataclass(frozen=True)
class DPartition:
    """The D-equivalence of a skew lattice, plus the induced class order.

    ``class_of[i]`` is the class id of element ``i``; classes are listed
    as sorted tuples, numbered by their least member.  ``class_leq`` is
    the natural order of the quotient.  ``top_class``/``bottom_class``
    hold the greatest/least class when one exists (always, for a valid
    finite structure) and ``None`` otherwise.
    """

    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_leq: tuple[tuple[bool, ...], ...]
    top_class: int | None
    bottom_class: int | None

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def leq(self, a: int, b: int) -> bool:
        return self.class_leq[a][b]

    def same_class(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]


@dataclass(frozen=True)
class QuotientLattice:
    """The maximal commutative image of a skew lattice.

    ``lattice`` is a commutative :class:`FiniteSkewLattice` on the class
    ids of the D-partition, and ``projection`` maps each element to its
    class.  The projection is a surjective homomorphism; both facts are
    verified when the quotient is built.
    """

    lattice: FiniteSkewLattice
    projection: tuple[int, ...]

    def as_homomorphism(self, source: FiniteSkewLattice) -> "Homomorphism":
        return Homomorphism(source=source, target=self.lattice, mapping=self.projection)


@dataclass(frozen=True)
class Homomorphism:
    """A map between carriers, to be checked for preserving both operations."""

    source: FiniteSkewLattice
    target: FiniteSkewLattice
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(_as_int(v, f"mapping image of {i}") for i, v in enumerate(self.mapping))
        if len(mapping) != self.source.order:
            raise StructureError(f"mapping has {len(mapping)} entries for source order {self.source.order}")
        for i, v in enumerate(mapping):
            if not 0 <= v < self.target.order:
                raise StructureError(f"mapping sends {i} to {v}, outside the target carrier")
        object.__setattr__(self, "mapping", mapping)

    def __repr__(self) -> str:
        return f"Homomorphism({self.source.order} -> {self.target.order})"


# Cells per evaluation of an unrestricted law scan.  A check's laws are
# evaluated together while their cubes fit; a law whose cube does not is
# evaluated a slab of x values at a time, so the working set stays O(n²)
# rather than the whole n³ cube.  Once a slab would hold a single x (from
# order 65 for a law in x, y, z), the scan runs one x at a time over the
# y, z plane.
_SLAB_CELLS = 1 << 13

# Compiled gather plans kept at once, least recently used dropped first.
_PLAN_CACHE = 64


def _first_true(mask: np.ndarray) -> tuple[int, ...] | None:
    """First True position in row-major (lexicographic) scan order."""
    flat = mask.ravel()
    i = int(flat.argmax())
    if not flat[i]:
        return None
    return tuple(int(v) for v in np.unravel_index(i, mask.shape))


# --- laws as equations ---------------------------------------------------------------
#
# A law is an equation over x, y, z, ∧ and ∨ (equally tight, associating
# to the left) and parentheses, parsed once into a term: a variable index
# or ``(op, left, right)``, op 0 for ∧ and 1 for ∨.  Each side compiles
# to evaluators over the tables ``c`` of a structure, or into a plan:
#
#   row   ``f(c, x, p)``: x is one element, and y and z sweep the plane of
#         their index vectors ``p.y`` and ``p.z`` (all of the carrier, or a
#         sorted subset).  A subterm that reads neither y nor z is a scalar
#         lookup; a scalar operand picks a row (left) or a contiguous column
#         (right) and the other operand is a 1-D take from it; a y-only
#         operand against a z-only one is a row gather and a column take,
#         the one along a variable that sweeps the carrier second, and
#         skipped when that operand is the bare variable, or one flat take
#         when y and z are both restricted; anything else is a flat take.
#         A subterm that does not read x is evaluated once per scan, by the
#         law's ``fixed``, and read from ``p.fixed`` for every x.  A subterm
#         spanning the plane is written into its own buffer ``p.out[k]``,
#         which saves an allocation, and its page faults, per x.
#   plan  the unrestricted scans below the row regime: a check, the laws
#         that one certificate decides, is compiled on first use into gather
#         plans (``_plan``), each for the laws whose cubes fit ``_SLAB_CELLS``
#         together, or for x-slabs of one law whose cube does not.  Every
#         distinct subterm is a node, stored flat at the size of the
#         variables it reads (x∧y has n² cells in a law of x, y, z).  The
#         small nodes of one depth, across every law, are evaluated by one
#         take per operation, their operands gathered by index vectors of
#         the plan; at depth 1 the indices are constants.  A large node is
#         one take over broadcast views of its operands.  One comparison of
#         the sides, in law order, gives the first failing law and its
#         first tuple in lexicographic order.

_VARS = "xyz"
_OPS = "∧∨"
_Y, _Z = 2, 4  # bits of y and z in a subterm's dependence; x is bit 1
_YZ = _Y | _Z


class _Tables(NamedTuple):
    """What the compiled evaluators read; the pairs are indexed by op."""

    n: int
    tables: tuple[np.ndarray, np.ndarray]
    columns: tuple[np.ndarray, np.ndarray]  # contiguous transposes
    flat: tuple[np.ndarray, np.ndarray]  # the tables as vectors: cell a*n + b holds a∘b
    ids: np.ndarray  # the carrier
    col: np.ndarray  # the carrier as a column


class _Plane(NamedTuple):
    """What the row evaluators of one scan read besides the tables."""

    y: np.ndarray  # y's sorted index vector, as a column in a law of x, y, z
    z: np.ndarray  # z's sorted index vector
    full: int  # the bits of the variables whose vector is the carrier
    out: list  # plane buffers, each |y| × |z|, allocated on first use
    fixed: list  # the values of the subterms that do not read x

    def buffer(self, k: int) -> np.ndarray:
        if self.out[k] is None:
            self.out[k] = np.empty((len(self.y), len(self.z)), dtype=np.intp)
        return self.out[k]


def _parse_equation(text: str):
    toks = [ch for ch in text if not ch.isspace()] + ["end"]
    pos = 0

    def expect(tok: str) -> None:
        nonlocal pos
        if toks[pos] != tok:
            raise ValueError(f"law {text!r}: expected {tok!r}, got {toks[pos]!r}")
        pos += 1

    def atom():
        nonlocal pos
        if toks[pos] in _VARS:
            pos += 1
            return _VARS.index(toks[pos - 1])
        expect("(")
        inner = term()
        expect(")")
        return inner

    def term():
        nonlocal pos
        left = atom()
        while toks[pos] in _OPS:
            pos += 1
            left = (_OPS.index(toks[pos - 1]), left, atom())
        return left

    lhs = term()
    expect("=")
    rhs = term()
    expect("end")
    return lhs, rhs


def _variables(term) -> set[int]:
    return {term} if isinstance(term, int) else _variables(term[1]) | _variables(term[2])


def _row_eval(term, planes: list, fixed: list | None):
    """``(deps, f, unary)`` for ``term`` at one x.

    ``deps`` holds the variables the term reads, as bits, and ``f`` is its
    evaluator.  When the term is a lookup ``g[w]`` of a scalar operand's
    row or column, ``unary`` is ``(g, w)``, so that an enclosing lookup
    composes the two rows first and takes over the plane once.  Each plane
    buffer an evaluator writes into is appended to ``planes``.  A compound
    term that does not read x is compiled whole and appended to ``fixed``,
    and ``f`` reads its value from ``p.fixed``; inside it, ``fixed`` is None.
    """
    if isinstance(term, int):
        return 1 << term, (lambda c, x, p: x, lambda c, x, p: p.y, lambda c, x, p: p.z)[term], None
    if fixed is not None and 0 not in _variables(term):
        deps, f, _ = _row_eval(term, planes, None)
        k = len(fixed)
        fixed.append(f)
        return deps, lambda c, x, p: p.fixed[k], None
    t, (dl, fl, ul), (dr, fr, ur) = term[0], _row_eval(term[1], planes, fixed), _row_eval(term[2], planes, fixed)
    yl, yr = dl & _YZ, dr & _YZ

    def buffer():
        if yl | yr != _YZ:
            return lambda p: None  # a scalar or a vector: cheap to allocate
        k = len(planes)
        planes.append(None)
        return lambda p: p.buffer(k)

    if not yl and not yr:
        return dl | dr, lambda c, x, p: c.tables[t][fl(c, x, p), fr(c, x, p)], None
    if not yl or not yr:
        # a scalar operand picks a row (left) or a contiguous column (right)
        if not yl:
            line, fw, inner = (lambda c, x, p: c.tables[t][fl(c, x, p)]), fr, ur
        else:
            line, fw, inner = (lambda c, x, p: c.columns[t][fr(c, x, p)]), fl, ul
        g = line
        if inner is not None:
            g_in, fw = inner
            g = lambda c, x, p: line(c, x, p).take(g_in(c, x, p))
        into = buffer()
        return dl | dr, lambda c, x, p: g(c, x, p).take(fw(c, x, p), out=into(p), mode="clip"), (g, fw)
    if {yl, yr} != {_Y, _Z}:
        index, into = buffer(), buffer()

        def flat(c, x, p):
            i = np.multiply(fl(c, x, p), c.n, out=index(p))
            return c.tables[t].ravel().take(np.add(i, fr(c, x, p), out=i), out=into(p), mode="clip")

        return dl | dr, flat, None
    # result[y, z] is T[l(y), r(z)], or T'[r(y), l(z)] when l reads z
    sides = ((fl, term[1]), (fr, term[2]))
    (fy, ty), (fz, tz) = sides if yl == _Y else sides[::-1]
    pick = "tables" if yl == _Y else "columns"
    bare = (_Y if ty == 1 else 0) | (_Z if tz == 2 else 0)
    first, into = buffer(), buffer()

    def cross(c, x, p):
        T, skip = getattr(c, pick)[t], bare & p.full  # a bare variable over the carrier indexes T as it is
        if skip & _Y:
            return T if skip & _Z else T.take(fz(c, x, p), axis=1, out=into(p), mode="clip")
        # two gathers, the one along the carrier's axis second, so that each result is the plane
        if p.full & _Z:
            rows = T.take(fy(c, x, p).ravel(), axis=0, out=first(p), mode="clip")
            return rows if skip else rows.take(fz(c, x, p), axis=1, out=into(p), mode="clip")
        if p.full & _Y:
            columns = T.take(fz(c, x, p), axis=1, out=first(p), mode="clip")
            return columns.take(fy(c, x, p).ravel(), axis=0, out=into(p), mode="clip")
        index = np.add(fy(c, x, p) * c.n, fz(c, x, p), out=first(p))  # or one flat take
        return T.ravel().take(index, out=into(p), mode="clip")

    return dl | dr, cross, None


class _Law(NamedTuple):
    """One equation: the label a witness cites, its text, its terms, its
    compiled row scan and the lemma, if any, that can prove it holds
    without a scan."""

    name: str
    text: str
    arity: int
    sides: tuple  # the terms of lhs and rhs, which ``_plan`` compiles
    row: Callable  # row(c, a, p): mask of violations over the y, z plane at x = a
    fixed: Callable  # fixed(c, p): the subterms that do not read x, into p.fixed, once per scan
    planes: int  # plane buffers that ``row`` and ``fixed`` may write into
    lemma: Callable | None = None  # lemma(S, law): True only once proved; see ``_proved``
    gen: tuple[int, int] | None = None  # (variable, op) of Lemma J; see ``_generator_violation``

    def __hash__(self) -> int:  # the plan cache hashes its laws on every lookup: the text is enough
        return hash(self.text)


def _law(text: str, name: str | None = None, lemma: Callable | None = None, gen: str | None = None) -> _Law:
    """Compile ``lhs = rhs``; its variables must be x, or x and y, or x, y and z.

    ``gen``, such as ``"y∧"``, names the variable and the operation under
    which the set where the law holds is closed (Lemma J).
    """
    lhs, rhs = _parse_equation(text)
    used = _variables(lhs) | _variables(rhs)
    if used != set(range(len(used))):
        raise ValueError(f"law {text!r} must use the variables {_VARS[:len(used)]}")
    planes: list = []
    fixed: list = []
    (_, rl, _), (_, rr, _) = _row_eval(lhs, planes, fixed), _row_eval(rhs, planes, fixed)
    return _Law(
        text if name is None else name,
        text,
        len(used),
        (lhs, rhs),
        lambda c, x, p: np.not_equal(rl(c, x, p), rr(c, x, p)),
        lambda c, p: p.fixed.extend(f(c, None, p) for f in fixed),
        len(planes),
        lemma,
        None if gen is None else (_VARS.index(gen[0]), _OPS.index(gen[1])),
    )


class _Plan(NamedTuple):
    """Laws compiled at one order for x over slabs of ``width`` elements
    (``_plan``).  Its arrays are read-only views; a run takes with their
    writeable bases, as numpy copies a read-only index on every take."""

    laws: tuple[_Law, ...]
    width: int  # the order, or the width of an x-slab
    starts: range  # the first x of each slab
    size: int  # cells of the value buffer
    views: tuple  # (first, stop, shape): the buffer views that large nodes and laws read
    depths: tuple  # (gathered, broadcast) per depth of nodes
    gathered: tuple  # (law indices, left, right, ends): the sides compared in one gather
    broadcast: tuple  # (law index, left, right) for each law compared from broadcast operands


def _frozen(a: np.ndarray) -> np.ndarray:
    view = np.array(a, dtype=np.intp).view()
    view.flags.writeable = False
    return view


def _plan(laws: tuple[_Law, ...], n: int, width: int, gather: int) -> _Plan:
    """Compile ``laws`` at order n, x over slabs of ``width`` elements.

    Every distinct subterm is a node, stored at the size of the variables
    it reads: one cell per point of them, row-major in x, y, z, with x
    local to the slab.  The nodes of one depth with at most ``gather``
    cells each are evaluated together into the value buffer, ∧ nodes into
    cells [lo, mid) and ∨ nodes into [mid, hi) (``gathered``: (lo, mid,
    hi, left, right)): one take per operation at the indices
    v[left]·n + v[right] of the buffer v, or, at depth 1 over the whole
    carrier, where both operands are variables, at the constant indices
    ``left`` (``right`` is None).  The buffer starts with the carrier
    0..n-1 and, on slabs narrower than the carrier, the slab's x values.

    A larger node would copy more cells through those gathers than it
    saves in calls, so it is one take over broadcast operands of shape
    (x, y, z), 1 along a variable they do not read (``broadcast``: (op,
    left, right), slots of a run: the ``views`` of the buffer, then the
    larger nodes in order).  No gathered node reads one, as a node has at
    least the cells of its operands.  The sides of the laws are compared
    the same two ways.
    """
    info: dict = {}  # term -> (the variables it reads, its depth)

    def visit(t):
        if isinstance(t, int):
            return (t,), 0
        if t not in info:
            (vl, dl), (vr, dr) = visit(t[1]), visit(t[2])
            info[t] = tuple(sorted(set(vl + vr))), 1 + max(dl, dr)
        return info[t]

    for law in laws:
        for side in law.sides:
            visit(side)

    def shape(vs):
        return tuple((width if v == 0 else n) if v in vs else 1 for v in range(3))

    def gathered(vs):
        return math.prod(shape(vs)) <= gather

    def points(vs):  # each variable's coordinate at every point of vs, row-major (0 for the others)
        return np.indices(shape(vs), dtype=np.intp).reshape(3, -1)

    xo = n if width < n else 0  # where x's values start in the buffer
    nodes = sorted(info, key=lambda t: (info[t][1], t[0]))  # by depth, ∧ before ∨
    start, size = {}, n + (width if xo else 0)
    for t in nodes:
        if gathered(info[t][0]):
            start[t], size = size, size + math.prod(shape(info[t][0]))

    def cells(t, at):  # the buffer cells holding t's value at the points ``at``
        if isinstance(t, int):
            return at[t] + (xo if t == 0 else 0)
        pos, stride = start[t], 1
        for v in info[t][0][::-1]:  # x, the only variable over a slab, comes first
            pos, stride = pos + at[v] * stride, stride * n
        return pos

    def view(t):  # (first, stop, shape) of t's value in the buffer
        first, dims = (xo if t == 0 else 0, shape((t,))) if isinstance(t, int) else (start[t], shape(info[t][0]))
        return first, first + math.prod(dims), dims

    large = [t for t in nodes if t not in start]
    alone = [k for k, law in enumerate(laws) if not gathered(range(law.arity))]
    slot: dict = {}  # an operand of a large node or law -> its slot in a run
    for t in [u for t in large for u in t[1:]] + [side for k in alone for side in laws[k].sides]:
        if t not in slot and (isinstance(t, int) or t in start):
            slot[t] = len(slot)
    views = tuple(map(view, slot))
    for t in large:
        slot[t] = len(slot)
    depths = []
    for depth in range(1, max((d for _, d in info.values()), default=0) + 1):
        group = [t for t in nodes if info[t][1] == depth and t in start]
        together = None
        if group:
            ats = [points(info[t][0]) for t in group]
            lo = start[group[0]]
            hi = lo + sum(at.shape[1] for at in ats)
            mid = next((start[t] for t in group if t[0] == 1), hi)
            if depth == 1 and not xo:
                left, right = _frozen(np.concatenate([at[t[1]] * n + at[t[2]] for t, at in zip(group, ats)])), None
            else:
                left, right = (_frozen(np.concatenate([cells(t[k], at) for t, at in zip(group, ats)])) for k in (1, 2))
            together = lo, mid, hi, left, right
        depths.append((together, tuple((t[0], slot[t[1]], slot[t[2]]) for t in large if info[t][1] == depth)))
    group = [k for k in range(len(laws)) if k not in alone]
    ats = [points(range(laws[k].arity)) for k in group]
    sides = (_frozen(np.concatenate([cells(laws[k].sides[i], at) for k, at in zip(group, ats)] or [[]]))
             for i in (0, 1))
    return _Plan(
        laws,
        width,
        range(0, n, width),
        size,
        views,
        tuple(depths),
        (tuple(group), *sides, tuple(np.cumsum([at.shape[1] for at in ats], dtype=int).tolist())),
        tuple((k, slot[laws[k].sides[0]], slot[laws[k].sides[1]]) for k in alone),
    )


def _run(plan: _Plan, c: _Tables) -> tuple[_Law, tuple[int, ...]] | None:
    """The first law of ``plan`` that fails on the tables ``c``, with its first
    violation; the plan runs on each slab of x values in turn."""
    n, width = c.n, plan.width
    vals = np.empty(plan.size, dtype=np.intp)
    vals[:n] = c.ids
    tables = c.flat
    views = [vals[a:b].reshape(dims) for a, b, dims in plan.views]  # x along their first axis
    laws, left, right, ends = plan.gathered
    for x0 in plan.starts:
        xs = min(width, n - x0)
        if xs < width:  # a short last slab: the views keep its x values, and the gathers read earlier ones
            views = [v[:xs] for v in views]
        if width < n:
            vals[n : n + xs] = c.ids[x0 : x0 + xs]
            vals[n + xs : n + width] = c.ids[: width - xs]  # x values of the first slab hold no violation
        slots = list(views)
        for together, alone in plan.depths:
            if together is not None:
                lo, mid, hi, ls, rs = together
                if rs is None:
                    index = ls.base
                else:
                    index = vals.take(ls.base)
                    index *= n
                    index += vals.take(rs.base)
                if lo < mid:
                    tables[0].take(index[: mid - lo], out=vals[lo:mid], mode="wrap")
                if mid < hi:
                    tables[1].take(index[mid - lo :], out=vals[mid:hi], mode="wrap")
            for op, a, b in alone:
                slots.append(tables[op].take(slots[a] * n + slots[b]))
        hit = None
        if laws:
            bad = vals.take(left.base) != vals.take(right.base)
            i = int(bad.argmax())
            if bad[i]:
                k = bisect.bisect_right(ends, i)
                point = i - (ends[k - 1] if k else 0)
                hit = laws[k], np.unravel_index(point, (width, n, n)[: plan.laws[laws[k]].arity])
        for k, a, b in plan.broadcast:  # a law compared alone fails first when it comes before the gathered one
            if hit is not None and hit[0] < k:
                break
            w = _first_true(slots[a] != slots[b])
            if w is not None:
                hit = k, w
                break
        if hit is not None:
            law = plan.laws[hit[0]]
            return law, (x0 + int(hit[1][0]), *(int(v) for v in hit[1][1 : law.arity]))
    return None


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _schedule(laws: tuple[_Law, ...], n: int, budget: int) -> tuple:
    """How ``_first_failure`` scans ``laws`` at order n, in their order: a plan for
    each run of laws whose cubes fit ``budget`` cells together, a plan over
    x-slabs for a law whose cube does not, and the law itself where a slab
    would hold one x (the row regime).  A plan gathers the nodes of at most
    an eighth of the budget: larger ones copy more through the gathers than
    the saved calls are worth (on the benchmark, ``pfn_verify`` passes were
    fastest at that bound, and ``census`` and ``frames`` moved by under 5%
    from a thirty-second to the whole budget), and the index vectors stay
    small."""
    steps: list = []
    group: list = []
    for law in laws:
        per_x = n ** (law.arity - 1)
        width = budget // per_x  # x values per slab
        if group and (width < n or n * per_x + sum(n**g.arity for g in group) > budget):
            steps.append(_plan(tuple(group), n, n, budget // 8))
            group = []
        if width <= 1:
            steps.append(law)
        elif width < n:
            steps.append(_plan((law,), n, width, budget // 8))
        else:
            group.append(law)
    if group:
        steps.append(_plan(tuple(group), n, n, budget // 8))
    return tuple(steps)


def _first_failure(
    S: FiniteSkewLattice, laws: tuple[_Law, ...], lemmas: bool = False
) -> tuple[_Law, tuple[int, ...]] | None:
    """The first of ``laws`` that fails on S, with its first violation in
    lexicographic order, or None: the one scan of every check's laws.

    With ``lemmas``, each law that its lemma proves (``_proved``) is left
    out first.  The rest run as ``_schedule`` plans them: gather plans
    below the row regime, one x at a time (``_scan``) in it.  There, with
    ``lemmas``, a law of Lemma J is scanned at x = 0 first, as a violation
    there is the full scan's first, found without Lemma J's set-up; past
    it, Lemma J proves the law, or its violation bounds the rows that hold
    the witness (``_generator_violation``).
    """
    if lemmas:
        laws = tuple(law for law in laws if not _proved(S, law))
    for step in _schedule(laws, S.order, _SLAB_CELLS):
        if isinstance(step, _Plan):
            hit = _run(step, S._tables)
            if hit is not None:
                return hit
            continue
        if not lemmas or step.gen is None:
            w = _scan(S, step)
        else:  # x = 0, then Lemma J, then the rows up to the x of its violation
            xs = S._tables.ids
            w = _scan(S, step, (xs[:1],))
            if w is None and (v := _generator_violation(S, step)) is not None:
                w = _scan(S, step, (xs[1 : v[0] + 1],))
        if w is not None:
            return step, w
    return None


def _scan(S: FiniteSkewLattice, law: _Law, ids: tuple[np.ndarray | None, ...] | None = None) -> tuple[int, ...] | None:
    """First violation of ``law`` in lexicographic order, or None, one x at a time.

    ``ids``, sorted index vectors for x, y and z in turn (None, or a
    vector left off, for the carrier), restricts each variable to those
    elements.  The subterms that do not read x are evaluated once; then
    each x is scanned over the plane of y's and z's vectors, the scan
    stops at the first x that holds a violation, and a witness is mapped
    back through the vectors.  The row steps of ``_first_failure``,
    Lemma J and Lemma G scan with it.
    """
    c, n = S._tables, S.order
    xs, vy, vz = (tuple(ids or ()) + (None,) * 3)[:3]
    full = (_Y if vy is None else 0) | (_Z if vz is None else 0)
    vy, vz = (c.ids if v is None else v for v in (vy, vz))
    p = _Plane(vy[:, None] if law.arity == 3 else vy, vz, full, [None] * law.planes, [])
    law.fixed(c, p)
    for a in range(n) if xs is None else xs.tolist():
        w = _first_true(law.row(c, a, p))
        if w is not None:
            return (a, *(int(v[i]) for v, i in zip((vy, vz), w)))
    return None


# each with the variable and operation of Lemma J, where it has one
_AXIOM_LAWS = tuple(_law(text, name, gen=gen) for name, text, gen in (
    ("meet idempotency x∧x=x", "x∧x = x", None),
    ("join idempotency x∨x=x", "x∨x = x", None),
    ("meet associativity", "(x∧y)∧z = x∧(y∧z)", "y∧"),
    ("join associativity", "(x∨y)∨z = x∨(y∨z)", "y∨"),
    ("absorption x∧(x∨y)=x", "x∧(x∨y) = x", None),
    ("absorption x∨(x∧y)=x", "x∨(x∧y) = x", None),
    ("absorption (x∨y)∧y=y", "(x∨y)∧y = y", None),
    ("absorption (x∧y)∨y=y", "(x∧y)∨y = y", None),
))


def _zero_laws(m: np.ndarray, j: np.ndarray, z: int) -> np.ndarray:
    """``ok[x]``: the zero laws x∧z = z = z∧x and x∨z = x = z∨x for z at x, on the tables ``m``, ``j``."""
    ids = np.arange(len(m))
    return (m[z] == z) & (m[:, z] == z) & (j[z] == ids) & (j[:, z] == ids)


def _zero_of(m: Any, j: Any) -> int | None:
    """The element satisfying the zero laws on the tables ``m``, ``j`` (arrays or rows), if any.

    It is unique, and it is the meet of the carrier taken left to right:
    once a zero z enters that product it absorbs every later factor, and
    it enters as the meet of the product so far with z, which is z.  None
    of this needs associativity, so it holds on any tables.
    """
    m, j = np.asarray(m), np.asarray(j)
    z = int(functools.reduce(lambda a, b: m[a, b], range(len(m))))
    return z if _zero_laws(m, j, z).all() else None


def _axiom_scan(S: FiniteSkewLattice) -> Certificate:
    hit = _first_failure(S, _AXIOM_LAWS, lemmas=True)
    if hit is not None:
        return Certificate(False, "skew lattice axioms", (hit[0].name, hit[1]))
    if S.zero is not None:
        bad = np.flatnonzero(~_zero_laws(S._m, S._j, S.zero))
        if bad.size:
            return Certificate(
                False, "skew lattice axioms", ("zero laws x∧0=0=0∧x, x∨0=x=0∨x", (int(bad[0]),))
            )
    return Certificate(True, "skew lattice axioms")


def validate_skew_axioms(S: FiniteSkewLattice) -> Certificate:
    """Decide whether the tables satisfy the skew lattice axioms.

    Checks, in a fixed order: idempotency and associativity of both
    operations, the four absorption laws, and (when a zero is declared)
    the zero laws.  The witness of a false verdict is ``(law, tuple)``
    for the first violation in lexicographic scan order.  The eight laws
    are one check, scanned by ``_first_failure``: together while their
    cubes fit ``_SLAB_CELLS``, one x at a time from order 65.  There each
    associativity law is scanned at x = 0, then with y over a generating
    set (Light's test, Lemma J); only if that finds a violation are the
    rows from x = 1 scanned, up to its x, which bounds the witness's.
    """
    return S.validity


def _require_valid(S: FiniteSkewLattice, op: str, *properties: str) -> None:
    """Raise unless S is a valid skew lattice with each of ``properties``, "normal" or "symmetric", in that order."""
    cert = S.validity
    if not cert.ok:
        law, where = cert.witness
        raise PreconditionError(f"{op} needs a valid skew lattice; {law} fails at {where}")
    for prop in properties:
        if not (check_symmetric(S) if prop == "symmetric" else check_identity(S, prop)).ok:
            raise PreconditionError(f"{op} is defined for {prop} structures only")


def _element_ids(S: FiniteSkewLattice, members: Iterable[int], op: str) -> tuple[int, ...]:
    """``members`` as sorted unique ids; raises unless nonempty and each an id of S (``_read_int``)."""
    ids = tuple(sorted({_read_int(v, op, hi=S.order - 1) for v in members}))
    if not ids:
        raise PreconditionError(f"{op} needs a nonempty set of elements")
    return ids


def _once(S: FiniteSkewLattice, key: Any, compute: Callable[[], Any]) -> Any:
    """``compute()``, remembered in ``S._memo`` under ``key``; a raise is not remembered."""
    if key not in S._memo:
        S._memo[key] = compute()
    return S._memo[key]


# --- lemmas that prove a law holds without its n³ scan --------------------------------
#
# Each lemma takes a structure S and a law, and returns True only when it
# has proved that the law holds on S; False means only that its premise
# fails, and the law is scanned, so a failure's witness is always the
# scan's.  Lemmas E to I are carried by laws of ``_IDENTITY_LAWS``
# (``_Law.lemma``) and take a valid S; their proofs use Leech's first
# decomposition theorem (Leech 1989, Algebra Universalis 26): D is a
# congruence and S/D is a lattice.  Below, a ≤ b is the natural order,
# a = a∧b = b∧a, and x∧w∧x ≤ x for all x and w.  Lemma J serves every
# law that names a variable and an operation (``_Law.gen``), the two
# associativity axioms included; its proofs use only associativity.


def _generators(S: FiniteSkewLattice, op: int) -> np.ndarray:
    """A sorted index vector G whose closure under the operation ``op`` is the carrier.

    Greedy: of the elements not yet generated, the one with the fewest b
    such that a∘b∘a = a (for ∧ the fewest above it in the D-preorder, for
    ∨ the fewest below it) joins G, and the closure grows by the products
    of its new elements with everything it holds, in both orders, until
    none is new.  The closure is computed exactly on the table,
    associative or not, so G generates S whatever the order; the order
    only keeps G small.  Memoised per op.
    """
    def greedy() -> np.ndarray:
        n, T = S.order, S._tables.tables[op]
        ids = np.arange(n)
        fixed = np.count_nonzero(T[T, ids[:, None]] == ids[:, None], axis=1)  # b with a∘b∘a = a
        inside = np.zeros(n, dtype=bool)
        closure = np.empty(n, dtype=np.intp)  # the generated elements, in order of arrival
        size, gens = 0, []
        for g in np.argsort(fixed, kind="stable").tolist():
            if inside[g]:
                continue
            gens.append(g)
            new = np.array([g])
            while new.size:
                inside[new] = True
                closure[size : size + new.size] = new
                size += new.size
                have = closure[:size]
                hit = np.zeros(n, dtype=bool)
                hit[T[new[:, None], have]] = True
                hit[T[have[:, None], new]] = True
                new = np.flatnonzero(hit & ~inside)
        found = np.array(sorted(gens), dtype=np.intp)
        found.flags.writeable = False  # every later Lemma J scan on S reads it
        return found

    return _once(S, ("generators", op), greedy)


def _row_regime(S: FiniteSkewLattice, law: _Law) -> bool:
    """Whether a full scan of ``law`` on S runs one x at a time, as from order 65
    for a law in x, y, z; Lemmas E and G pay for their set-up only there."""
    return _SLAB_CELLS // S.order ** (law.arity - 1) <= 1


def _generator_violation(S: FiniteSkewLattice, law: _Law) -> tuple[int, ...] | None:
    """Lemma J: let the values of one variable at which ``law`` holds, for all
    values of the others, be closed under an operation ∘.  Then the law holds
    iff it holds with that variable drawn from a generating set G of (S, ∘).

    Proof.  That set contains G and is closed under ∘, so it contains the
    closure of G, which is S.  For each law that names its variable and ∘
    (``law.gen``), let the law hold at a and at b; the chain shows that it
    holds at a∘b.  Each step applies the law at a or at b, with other
    values put in for the remaining variables, or, where marked (A), the
    associativity of ∘, which also lets a product under ∘ drop its
    parentheses.

    - ``(x∧y)∧z = x∧(y∧z)``, y over ∧ (Light's test): (x∧(a∧b))∧z =
      ((x∧a)∧b)∧z = (x∧a)∧(b∧z) = x∧(a∧(b∧z)) = x∧((a∧b)∧z).  No (A):
      the axiom scan may use it before associativity is known.  The same
      chain with ∨ proves ``(x∨y)∨z = x∨(y∨z)``, y over ∨.
    - ``(x∨y)∧z = (x∧z)∨(y∧z)``, x over ∨: ((a∨b)∨y)∧z =(A) (a∨(b∨y))∧z =
      (a∧z)∨((b∨y)∧z) = (a∧z)∨(b∧z)∨(y∧z) = ((a∨b)∧z)∨(y∧z).
    - ``x∧(y∨z) = (x∧y)∨(x∧z)``, z over ∨: x∧(y∨(a∨b)) =(A) x∧((y∨a)∨b) =
      (x∧(y∨a))∨(x∧b) = (x∧y)∨(x∧a)∨(x∧b) = (x∧y)∨(x∧(a∨b)).
    - ``x∨(y∧z)∨x = (x∨y∨x)∧(x∨z∨x)``, z over ∧: x∨(y∧(a∧b))∨x =(A)
      x∨((y∧a)∧b)∨x = (x∨(y∧a)∨x)∧(x∨b∨x) = (x∨y∨x)∧(x∨a∨x)∧(x∨b∨x) =
      (x∨y∨x)∧(x∨(a∧b)∨x).  The same chain with ∧ and ∨ swapped proves
      ``x∧(y∨z)∧x = (x∧y∧x)∨(x∧z∧x)``, z over ∨.

    Regular's join law has no such variable; Lemma I proves it instead.
    The restricted scan runs one x at a time, as a full row scan does, over
    a plane of |G|·n cells, and evaluates each subterm that does not read
    x, such as the plane y∧z, once per scan: n²·|G| cells instead of n³.
    The generating set costs O(n²) once per operation, so only the row
    steps of ``_first_failure`` ask for Lemma J (from order 65 for a law in
    x, y, z).  The first violation of the restricted scan, or None, is
    returned and remembered; when the law fails, it is one of the full
    scan's, so it bounds the x of the full scan's first.
    """

    def restricted() -> tuple[int, ...] | None:
        var, op = law.gen
        ids: list = [None] * law.arity
        ids[var] = _generators(S, op)
        return _scan(S, law, tuple(ids))

    return _once(S, ("Lemma J", law.text), restricted)


def _down_sets_commute(S: FiniteSkewLattice, law: _Law) -> bool:
    """Lemma E: S is normal iff any two elements with a common upper bound commute under ∧.

    Proof.  ⇒: if x, y ≤ a, then x∧y = a∧x∧y∧a = a∧y∧x∧a = y∧x.  ⇐: u =
    x∧y∧z∧x and v = x∧z∧y∧x lie below x, and in one D-class, as S/D is
    commutative.  So u∧v = v∧u, and u = u∧v∧u = u∧v = v∧u∧v = v.  Every
    element lies below a maximal one, so it is enough that each ↓t with t
    maximal commutes: Σ|↓t|·n cells read instead of n³.  The order is
    read from the meet table, not from the cached ``_leq``, so no cache
    can make this verdict.

    It runs only in the row regime, as Lemma J does.  On smaller tables
    the scan of the cube costs less than the down-sets, and on a table that is
    not normal it runs anyway for the witness: on the order-5 classes
    ``check_identity(S, "normal")`` took 24–28 µs with the scan alone,
    against 57–86 µs with this lemma first (2-vCPU VM).
    """
    if not _row_regime(S, law):
        return False
    m = S._m
    ids = np.arange(S.order)[:, None]
    leq = (m == ids) & (m.T == ids)  # leq[a, b]: a ≤ b
    noncommuting = m != m.T
    # one row per maximal element t, the mask of ↓t
    for below in leq.T[np.count_nonzero(leq, axis=1) == 1]:
        if noncommuting[below][:, below].any():
            return False
    return True


def _normal_gives_meet_regularity(S: FiniteSkewLattice, law: _Law) -> bool:
    """Lemma F: a normal S satisfies x∧y∧x∧z∧x = x∧y∧z∧x.

    Proof: the normal law at (x, y∧x, z), then at (x, z, y), gives
    x∧(y∧x)∧z∧x = x∧z∧(y∧x)∧x = x∧z∧y∧x = x∧y∧z∧x.
    """
    return check_identity(S, "normal").ok


def _distributive_meet_by_classes(S: FiniteSkewLattice, law: _Law) -> bool:
    """Lemma G: if S is normal, x∧(y∨z)∧x = (x∧y∧x)∨(x∧z∧x) holds at (x, y, z)
    iff it holds at the D-class representatives of x, y and z.

    Proof.  Both sides lie in ↓x: the left one is x∧w∧x, and if p, q ≤ x
    then x∨(p∨q) = (x∨p)∨q = x = p∨(q∨x) = (p∨q)∨x.  ↓x meets each
    D-class at most once: two D-related p, q ≤ x commute by Lemma E, so
    p = p∧q∧p = p∧q = q∧p∧q = q.  As D is a congruence, the class of each
    side depends only on [x], [y] and [z], so the sides are equal exactly
    when their classes are, at (x, y, z) and at the representatives
    alike.  The law is then scanned over R³, R one representative per
    class, instead of the n³ cube.

    The proof needs only that each element is D-related to its
    representative, not that the cached partition is the D-partition.
    That is checked on the tables, x∧r∧x = x and r∧x∧r = r for each x
    and its representative r; a miss raises ``InternalConsistencyError``
    naming the element.

    It runs only in the row regime, as Lemmas E and J do.  Below it, its
    one x per representative costs more than the scan of the cube:
    139 µs against 40 µs on the 10-element chain (2-vCPU VM).
    """
    if not _row_regime(S, law) or not check_identity(S, "normal").ok:
        return False
    m, dp = S._m, S._dpart
    firsts = np.array([members[0] for members in dp.classes], dtype=np.intp)
    reps = firsts[np.asarray(dp.class_of, dtype=np.intp)]
    x = np.arange(S.order)
    bad = np.flatnonzero((m[m[x, reps], x] != x) | (m[m[reps, x], reps] != reps))
    if bad.size:
        a = int(bad[0])
        raise InternalConsistencyError(f"element {a} is not D-related to its class representative {int(reps[a])}")
    return _scan(S, law, (firsts,) * law.arity) is None  # sorted: classes are numbered by their least member


def _handed_distributivity(handedness: str, S: FiniteSkewLattice, law: _Law) -> bool:
    """Lemma H: with one handedness, one strong distributive law is Lemma G's law.

    Proof.  If S is left-handed, x∧w∧x = x∧w, so x∧(y∨z) = x∧(y∨z)∧x and
    (x∧y)∨(x∧z) = (x∧y∧x)∨(x∧z∧x): the law x∧(y∨z) = (x∧y)∨(x∧z) is
    Lemma G's law cell by cell.  If S is right-handed, x∧w∧x = w∧x, so
    (x∨y)∧z = (x∧z)∨(y∧z) at (x, y, z) is Lemma G's law at (z, x, y).
    So the law holds when S has ``handedness`` and Lemma G has proved
    its own law.  Lemma G is asked first: below the row regime it proves
    nothing, and the handedness scan would be wasted.
    """
    return _proved(S, _IDENTITY_LAWS["distributive"][0]) and check_identity(S, handedness).ok


def _handed_join_regularity(S: FiniteSkewLattice, law: _Law) -> bool:
    """Lemma I: a left- or right-handed S satisfies x∨y∨x∨z∨x = x∨y∨z∨x.

    Proof.  If S is left-handed, x∨w∨x = w∨x, so the left side is
    (x∨y∨x)∨z∨x = y∨(x∨z∨x) = y∨z∨x and the right side (y∨z)∨x.  If S is
    right-handed, x∨w∨x = x∨w, so the left side is (x∨y)∨z∨x, the right
    side itself.
    """
    return check_identity(S, "left_handed").ok or check_identity(S, "right_handed").ok


# name -> laws, each with the lemma that can prove it and the variable and operation of
# Lemma J; a named identity holds when all of its laws do
_IDENTITY_LAWS = {
    name: tuple(_law(text, lemma=lemma, gen=gen) for text, lemma, gen in laws)
    for name, laws in (
        ("regular", (
            ("x∧y∧x∧z∧x = x∧y∧z∧x", _normal_gives_meet_regularity, None),
            ("x∨y∨x∨z∨x = x∨y∨z∨x", _handed_join_regularity, None),
        )),
        ("normal", (("x∧y∧z∧x = x∧z∧y∧x", _down_sets_commute, None),)),
        ("distributive", (
            ("x∧(y∨z)∧x = (x∧y∧x)∨(x∧z∧x)", _distributive_meet_by_classes, "z∨"),
            ("x∨(y∧z)∨x = (x∨y∨x)∧(x∨z∨x)", None, "z∧"),
        )),
        ("strongly_distributive", (
            ("(x∨y)∧z = (x∧z)∨(y∧z)", functools.partial(_handed_distributivity, "right_handed"), "x∨"),
            ("x∧(y∨z) = (x∧y)∨(x∧z)", functools.partial(_handed_distributivity, "left_handed"), "z∨"),
        )),
        ("left_handed", (("x∧y∧x = x∧y", None, None), ("x∨y∨x = y∨x", None, None))),
        ("right_handed", (("x∧y∧x = y∧x", None, None), ("x∨y∨x = x∨y", None, None))),
    )
}

IDENTITY_NAMES = tuple(_IDENTITY_LAWS)

# meet distributes over binary joins; ``frames.is_frame`` scans it on lattices
_FRAME_LAW = _law("z∧(x∨y) = (z∧x)∨(z∧y)")


def _proved(S: FiniteSkewLattice, law: _Law) -> bool:
    """Whether ``law.lemma`` proves that ``law`` holds on S; the verdict is memoised."""
    if law.lemma is None:
        return False
    return _once(S, ("lemma", law.text), lambda: law.lemma(S, law))


def _identity_scan(S: FiniteSkewLattice, name: str, lemmas: bool = False) -> Certificate:
    """The certificate of ``name``: its first failing law and the witness, from
    one ``_first_failure`` over its laws, with the lemmas when ``lemmas``."""
    hit = _first_failure(S, _IDENTITY_LAWS[name], lemmas)
    return Certificate(True, name) if hit is None else Certificate(False, name, (hit[0].name, hit[1]))


def check_identity(S: FiniteSkewLattice, name: str) -> Certificate:
    """Decide one of the named extra identities.

    ``regular``, ``distributive`` and ``strongly_distributive`` name a
    pair of dual laws and hold only when both do; ``normal`` is the
    single meet-side law; ``left_handed``/``right_handed`` pair the meet
    and join handedness laws.  The witness cites the violated law of the
    pair together with the first bad tuple.

    The laws are scanned in that order, except that a law is skipped
    when a lemma proves it holds, so the certificate is the scan's.
    Lemma E, from order 65, decides ``normal`` from the down-sets of the
    maximal elements; the scan runs only for a failure's witness.  Lemma F:
    normal implies the meet law of ``regular``.  Lemma G, from order 65:
    if S is normal, the meet law of ``distributive`` is decided on one
    representative per D-class.  Lemma H: on a left- or right-handed S,
    one law of ``strongly_distributive`` is Lemma G's law, relabeled.
    Lemma I: a left- or right-handed S satisfies the join law of
    ``regular``.  Lemma J, from order 65: each law of ``distributive``
    and ``strongly_distributive`` holds iff it holds with one variable
    drawn from a generating set.  Such a law is scanned at x = 0 first;
    past it, one that holds costs n²·|G| cells instead of n³, and one
    that fails is scanned from x = 1 up to the x of Lemma J's violation,
    which bounds the witness's.  Every law is scanned by one
    ``_first_failure`` over the laws no lemma proves.
    """
    if name not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}")
    _require_valid(S, "check_identity")
    return _once(S, name, lambda: _identity_scan(S, name, lemmas=True))


def check_symmetric(S: FiniteSkewLattice) -> Certificate:
    """Check that meets commute exactly where joins do.

    The witness is the first pair on which one operation commutes and
    the other does not.
    """
    _require_valid(S, "check_symmetric")
    return _once(S, "symmetric", lambda: _symmetry(S))


def _symmetry(S: FiniteSkewLattice) -> Certificate:
    meet_comm = S._m == S._m.T
    w = _first_true(meet_comm != (S._j == S._j.T))
    if w is None:
        return Certificate(True, "symmetric")
    law = "x∧y=y∧x but x∨y≠y∨x" if meet_comm[w] else "x∨y=y∨x but x∧y≠y∧x"
    return Certificate(False, "symmetric", (law, w))


def is_commutative(S: FiniteSkewLattice) -> bool:
    """True when both tables are symmetric, i.e. the structure is a lattice."""
    m, j = S._m, S._j
    return bool((m == m.T).all() and (j == j.T).all())


def detect_zero(S: FiniteSkewLattice) -> int | None:
    """Find the element satisfying the zero laws, if any (it is unique)."""
    return _once(S, "zero", lambda: _zero_of(S._m, S._j))


def _compute_d_partition(S: FiniteSkewLattice) -> DPartition:
    t, m = S._tables, S._m
    # (a^b)^a = m[m[a, b], a], read from row a of the transposed meet table at flat index a*n + m[a, b]
    aba = t.columns[0].take(t.tables[0] + t.col * t.n)
    rel = (aba == t.col) & (aba.T == t.ids)
    least = rel.argmax(axis=1)  # each element's least D-related element, 0 for an empty row
    # rel is an equivalence exactly when it relates two elements iff their least related elements agree
    if not (rel == (least[:, None] == least)).all():
        raise InternalConsistencyError("D-relation is not an equivalence; structure is not a valid skew lattice")
    reps, class_of = np.unique(least, return_inverse=True)  # classes numbered by least member
    q = len(reps)
    leq = class_of[m[np.ix_(reps, reps)]] == np.arange(q)[:, None]
    top = np.flatnonzero(leq.all(axis=0))
    bottom = np.flatnonzero(leq.all(axis=1))
    return DPartition(
        class_of=tuple(class_of.tolist()),
        classes=tuple(tuple(np.flatnonzero(rel[r]).tolist()) for r in reps),
        class_leq=tuple(map(tuple, leq.tolist())),
        top_class=int(top[0]) if top.size else None,
        bottom_class=int(bottom[0]) if bottom.size else None,
    )


def green_d(S: FiniteSkewLattice) -> DPartition:
    """Partition the carrier by the D-equivalence a∧b∧a=a, b∧a∧b=b.

    The same classes arise from the join form a∨b∨a=a, b∨a∨b=b; tests
    hold the two characterisations against each other.  The relation is
    a congruence, so it also carries the natural order of the quotient.
    """
    _require_valid(S, "green_d")
    return S._dpart


def natural_leq(S: FiniteSkewLattice, a: int, b: int) -> bool:
    """The natural partial order: a ≤ b iff a∧b = b∧a = a.

    Equivalently a∨b = b = b∨a; the equivalence of the two forms is a
    tested invariant rather than an assumption.
    """
    _require_valid(S, "natural_leq")
    return bool(S._leq[_read_int(a, "natural_leq", hi=S.order - 1), _read_int(b, "natural_leq", hi=S.order - 1)])


def quotient(S: FiniteSkewLattice) -> QuotientLattice:
    """Collapse each D-class to a point, giving the maximal lattice image.

    Well-definedness of the induced tables is verified over every pair
    of representatives, and the result must be commutative and valid;
    any failure is an internal-consistency error, since a valid skew
    lattice guarantees both.  The quotient is remembered on S.
    """
    _require_valid(S, "quotient")
    return _once(S, "quotient", lambda: _quotient(S))


def _quotient(S: FiniteSkewLattice) -> QuotientLattice:
    dp = S._dpart
    q = dp.class_count
    c = np.asarray(dp.class_of, dtype=np.intp)
    reps = np.array([A[0] for A in dp.classes], dtype=np.intp)
    first = reps[c]  # the first member of each element's class
    images = (c[S._m], c[S._j])
    # bad[a, b, k]: the meet (k = 0) or join (k = 1) takes some pair of classes
    # a, b to more than one class; each cell is compared with the first cell of
    # its class-pair block
    bad = np.zeros((q, q, 2), dtype=bool)
    for k, img in enumerate(images):
        rows, cols = np.nonzero(img != img[first[:, None], first[None, :]])
        bad[c[rows], c[cols], k] = True
    if bad.any():
        a, b, k = np.argwhere(bad)[0].tolist()  # row-major class pair, meet before join
        vals = np.unique(images[k][np.ix_(dp.classes[a], dp.classes[b])])
        raise InternalConsistencyError(
            f"quotient {('meet', 'join')[k]} not well defined on classes {a},{b}: got classes {vals.tolist()}"
        )
    meet_rows, join_rows = (img[np.ix_(reps, reps)] for img in images)
    lat = FiniteSkewLattice(
        order=q,
        meet_table=meet_rows,
        join_table=join_rows,
        zero=dp.class_of[S.zero] if S.zero is not None else None,
        labels=tuple("{" + ",".join(S.label(i) for i in A) + "}" for A in dp.classes),
    )
    if not lat.validity.ok:
        law, where = lat.validity.witness
        raise InternalConsistencyError(f"quotient is not a valid structure: {law} fails at {where}")
    if not is_commutative(lat):
        raise InternalConsistencyError("quotient is not commutative")
    return QuotientLattice(lattice=lat, projection=dp.class_of)


def _lemma_violation(m: np.ndarray, j: np.ndarray, c: np.ndarray, cleq: np.ndarray):
    """First ``(law, (a, b, u, v))`` breaking the sandwich collapse, or None.

    ``m``/``j`` are the tables, ``c`` the class of each element and
    ``cleq`` the class order.  Per ``a`` both laws factor into n×n
    masks: the side conditions split into lo(b, u) = [u]≤[a],[b] and
    hi(b, v) = [a],[b]≤[v], the meet law depends on (b, v) and the join
    law on (b, u).  So the first bad b, then the first bad (u, v) in it,
    is the lexicographic first quadruple, in O(n³) time overall.
    """
    ids = np.arange(len(c))
    C = cleq[c[:, None], c[None, :]]  # C[p, q]: [p] ≤ [q]
    for a in ids.tolist():
        lo, hi = C.T & C[:, a], C & C[a]
        meet_bad = hi & (m[m[a][None, :], ids[:, None]] != m[a][:, None])
        join_bad = lo & (j[j[a][None, :], ids[:, None]] != j[a][:, None])
        w = _first_true((lo.any(1) & meet_bad.any(1)) | (join_bad.any(1) & hi.any(1)))
        if w is None:
            continue
        b = w[0]
        meet_uv = lo[b][:, None] & meet_bad[b][None, :]
        u, v = _first_true(meet_uv | (join_bad[b][:, None] & hi[b][None, :]))
        law = "a∧v∧b = a∧b" if meet_uv[u, v] else "a∨u∨b = a∨b"
        return law, (a, b, u, v)
    return None


def check_lemma_reg(S: FiniteSkewLattice) -> Certificate:
    """Check the sandwich collapse around comparable classes.

    For every (a, b, u, v) with [u] ≤ [a], [u] ≤ [b], [a] ≤ [v] and
    [b] ≤ [v] in the class order, regularity forces a∧v∧b = a∧b and
    a∨u∨b = a∨b.  The witness is the first violating quadruple in
    lexicographic (a, b, u, v) order, tagged with the failing equation.

    Lemma K: a regular S satisfies both equations, so only a non-regular
    S runs the O(n³) kernel ``_lemma_violation``.  Proof.  [a] ≤ [v]
    means a∧v∧a = a, and [u] ≤ [a] means a∨u∨a = a.  If [a], [b] ≤ [v],
    then a∧b = (a∧v∧a)∧(b∧v∧b) = a∧(v∧a∧b∧v)∧b, and the meet law of
    ``regular`` at (v, a, b), v∧a∧v∧b∧v = v∧a∧b∧v, turns this into
    a∧v∧a∧v∧b∧v∧b = (a∧v∧a)∧v∧(b∧v∧b) = a∧v∧b.  Dually, if [u] ≤ [a], [b],
    then a∨b = a∨(u∨a∨b∨u)∨b, and the join law at (u, a, b) turns it into
    (a∨u∨a)∨u∨(b∨u∨b) = a∨u∨b.
    """
    _require_valid(S, "check_lemma_reg")
    if check_identity(S, "regular").ok:
        return Certificate(True, "sandwich collapse over comparable classes", None)
    dp = S._dpart
    c = np.asarray(dp.class_of, dtype=np.intp)
    w = _lemma_violation(S._m, S._j, c, np.asarray(dp.class_leq, dtype=bool))
    return Certificate(w is None, "sandwich collapse over comparable classes", w)


def is_homomorphism(h: Homomorphism) -> Certificate:
    """Check that the mapping preserves both operations pointwise."""
    _require_valid(h.source, "is_homomorphism")
    _require_valid(h.target, "is_homomorphism")
    hm = np.asarray(h.mapping, dtype=np.intp)
    sm, sj = h.source._m, h.source._j
    tm, tj = h.target._m, h.target._j
    for law, mask in (
        ("h(x∧y) = h(x)∧h(y)", hm[sm] != tm[hm[:, None], hm[None, :]]),
        ("h(x∨y) = h(x)∨h(y)", hm[sj] != tj[hm[:, None], hm[None, :]]),
    ):
        w = _first_true(mask)
        if w is not None:
            return Certificate(False, "homomorphism", (law, w))
    return Certificate(True, "homomorphism")


def subalgebra(S: FiniteSkewLattice, members: Iterable[int]) -> FiniteSkewLattice:
    """Induce the structure on a subset, re-indexed to 0..k-1 in id order.

    The subset must be closed under both operations.  A declared zero is
    carried over when it belongs to the subset; labels follow the parent.
    """
    ids = _element_ids(S, members, "subalgebra")
    index = np.full(S.order, -1, dtype=np.intp)  # position in the subset, -1 outside it
    index[list(ids)] = np.arange(len(ids))
    cells = np.ix_(ids, ids)
    tables = [index[S._m[cells]], index[S._j[cells]]]
    # first cell outside the subset, with ids in order and the meet before the join
    w = _first_true(np.stack(tables, axis=-1) < 0)
    if w is not None:
        a, b, k = ids[w[0]], ids[w[1]], w[2]
        raise PreconditionError(f"subset not closed: {('meet', 'join')[k]} of {a},{b} is {(S._m, S._j)[k][a, b]}")
    return FiniteSkewLattice(
        order=len(ids),
        meet_table=tables[0],
        join_table=tables[1],
        zero=int(index[S.zero]) if S.zero is not None and index[S.zero] >= 0 else None,
        labels=tuple(S.label(v) for v in ids) if S.labels is not None else None,
    )


def down_set(S: FiniteSkewLattice, a: int) -> FiniteSkewLattice:
    """The induced structure on { u : u ≤ a } in the natural order.

    Down-sets of a valid skew lattice are always closed under both
    operations; a closure failure therefore raises an
    internal-consistency error rather than returning a verdict.
    """
    _require_valid(S, "down_set")
    a = _read_int(a, "down_set", hi=S.order - 1)
    ids = [int(u) for u in np.flatnonzero(S._leq[:, a])]
    try:
        return subalgebra(S, ids)
    except PreconditionError as exc:
        raise InternalConsistencyError(f"down-set of {a} is not closed: {exc}") from exc


def restriction(S: FiniteSkewLattice, a: int, u: int) -> int:
    """The unique element of class ``u`` lying below ``a``.

    Defined for normal structures and classes ``u ≤ [a]``; existence and
    uniqueness of the witness is exactly what normality buys, so a miss
    is an internal-consistency error.
    """
    _require_valid(S, "restriction", "normal")
    a = _read_int(a, "restriction", hi=S.order - 1)
    dp = S._dpart
    u = _read_int(u, "restriction", "class id", hi=dp.class_count - 1)
    if not dp.leq(u, dp.class_of[a]):
        raise PreconditionError(f"restriction: class {u} is not below the class of {a}")
    found = [d for d in dp.classes[u] if S._leq[d, a]]
    if len(found) != 1:
        raise InternalConsistencyError(
            f"restriction of {a} to class {u} has {len(found)} witnesses; structure is not normal"
        )
    return found[0]


def _order_bit(v: Any, a: int, b: int) -> bool:
    """Entry (a, b) of an order matrix: a bool, numpy's too, or the integer 0 or 1; anything else is refused."""
    if isinstance(v, np.bool_) or (hasattr(type(v), "__index__") and operator.index(v) in (0, 1)):
        return bool(v)
    raise PreconditionError(f"order entry {v!r} at row {a}, column {b} is not a bool, 0 or 1")


def lattice_from_order(leq_rows: Iterable[Iterable[bool]]) -> FiniteSkewLattice:
    """Build the (commutative) structure of a finite lattice from its order.

    The input is the full relation matrix of a partial order in which
    every pair has a greatest lower bound and a least upper bound.
    Anything else is rejected.  The bottom element is recorded as zero.
    """
    leq = [[_order_bit(v, a, b) for b, v in enumerate(row)] for a, row in enumerate(leq_rows)]
    n = len(leq)
    if n == 0 or any(len(row) != n for row in leq):
        raise PreconditionError("order matrix must be square and nonempty")
    for a in range(n):
        if not leq[a][a]:
            raise PreconditionError(f"order not reflexive at {a}")
        for b in range(n):
            if leq[a][b] and leq[b][a] and a != b:
                raise PreconditionError(f"order not antisymmetric at {a},{b}")
            for c in range(n):
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    raise PreconditionError(f"order not transitive at {a},{b},{c}")
    meet_rows = [[0] * n for _ in range(n)]
    join_rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lower = [w for w in range(n) if leq[w][a] and leq[w][b]]
            glb = [w for w in lower if all(leq[x][w] for x in lower)]
            upper = [w for w in range(n) if leq[a][w] and leq[b][w]]
            lub = [w for w in upper if all(leq[w][x] for x in upper)]
            if len(glb) != 1 or len(lub) != 1:
                raise PreconditionError(f"not a lattice: pair {a},{b} lacks a unique bound")
            meet_rows[a][b] = glb[0]
            join_rows[a][b] = lub[0]
    bottom = functools.reduce(lambda x, y: meet_rows[x][y], range(n))
    return FiniteSkewLattice(order=n, meet_table=meet_rows, join_table=join_rows, zero=bottom)
