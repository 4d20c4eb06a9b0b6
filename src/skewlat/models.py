"""Concrete skew lattices: partial functions and a chain with two tops.

Three families live here.

* ``build_pfn_algebra`` materialises the algebra of all partial
  functions from a finite domain to a finite codomain, with
  ``f ∧ g = f`` restricted to the common domain and ``f ∨ g`` equal to
  ``g`` overridden onto the part of ``f`` outside ``dom g``.  It is
  left-handed, strongly distributive, has the empty function as zero,
  and its maximal commutative image is the Boolean algebra of domains.

* The ``om_*`` functions describe the ω-chain of naturals completed by
  two incomparable tops (``INF_A``, ``INF_B``).  The infinite structure
  is bounded from above, yet the chain of naturals has no join and the
  two tops have no infimum; ``om_verify_*`` certify the order facts
  behind both failures for an arbitrarily large prefix, and
  ``om_window`` cuts a finite sub-skew-lattice for table-level checks.

* ``FiniteImageFunction`` models partial self-maps of the naturals with
  finite image, fibers stored as finite or cofinite point sets.  Joins
  of the one-point maps ``n ↦ n`` grow the image without bound, which
  is how this algebra gets a lattice section while some commuting
  subsets extend to none; ``fi_one_point_chain`` walks that growth.

A fourth variant (partial maps on an uncountable domain with finite
fibers) has no lattice section at all, but the argument is a
counting/uncountability one with no finite content to compute, so it is
documented here and in the README rather than modelled.

Every size argument here is read by ``core._read_int``.  Every table
builder (``build_pfn_algebra``, ``product``, ``om_window``,
``chain_lattice``, ``boolean_lattice``), and ``pfn_carrier`` for its
carrier, refuses an order above the build cap, 4096 unless
SKEWLAT_BUILD_CAP says otherwise, through ``core._check_cap`` before it
computes anything that grows with its arguments.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .core import (
    BUILD_CAP_ENV,
    Certificate,
    FiniteSkewLattice,
    PreconditionError,
    StructureError,
    _as_int,
    _check_cap,
    _read_int,
    check_identity,
    green_d,
    is_commutative,
    lattice_from_order,
)

__all__ = [
    "PartialFunction",
    "pfn_carrier",
    "build_pfn_algebra",
    "product",
    "Inf",
    "INF_A",
    "INF_B",
    "OmegaElement",
    "om_meet",
    "om_join",
    "om_leq",
    "om_window",
    "om_verify_no_join_of_naturals",
    "om_verify_no_infimum_of_infs",
    "FinCofinSet",
    "FiniteImageFunction",
    "fi_meet",
    "fi_join",
    "fi_one_point_chain",
    "chain_lattice",
    "boolean_lattice",
    "is_boolean_lattice",
    "diamond_m3",
]


def product(A: FiniteSkewLattice, B: FiniteSkewLattice) -> FiniteSkewLattice:
    """The direct product A × B, (a, b) numbered a·|B| + b; not validated, with no zero or labels."""
    _check_cap(A.order * B.order, "product of orders {} and {} would have order", A.order, B.order,
               op="product", env=BUILD_CAP_ENV)
    return FiniteSkewLattice(A.order * B.order, _product_table(A._m, B._m), _product_table(A._j, B._j))


def _product_table(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    # cell ((a, b), (c, d)) is t[a, c]·|u| + u[b, d], in one broadcast
    return (t[:, None, :, None] * len(u) + u[None, :, None, :]).reshape(len(t) * len(u), -1)


@dataclass(frozen=True)
class PartialFunction:
    """A finite partial function, held as its graph."""

    graph: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        graph = frozenset((_as_int(x, "graph point"), _as_int(y, "graph value")) for x, y in self.graph)
        if len({x for x, _ in graph}) != len(graph):
            raise StructureError(f"graph is not functional: {sorted(graph)}")
        object.__setattr__(self, "graph", graph)

    @classmethod
    def of(cls, mapping: dict[int, int] | Iterable[tuple[int, int]]) -> "PartialFunction":
        pairs = mapping.items() if isinstance(mapping, dict) else mapping
        return cls(frozenset(pairs))

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.graph)

    def meet(self, other: "PartialFunction") -> "PartialFunction":
        dom = other.domain
        return PartialFunction(frozenset(p for p in self.graph if p[0] in dom))

    def join(self, other: "PartialFunction") -> "PartialFunction":
        dom = other.domain
        return PartialFunction(other.graph | frozenset(p for p in self.graph if p[0] not in dom))

    def label(self) -> str:
        return "{" + ",".join(f"{x}:{y}" for x, y in sorted(self.graph)) + "}"


def pfn_carrier(domain_size: int, codomain_size: int) -> tuple[PartialFunction, ...]:
    """All partial functions domain -> codomain, in a fixed enumeration.

    Per-point options are ordered "undefined first", so the empty
    function sits at index 0 and total functions at the end.  There are
    (codomain_size + 1) ** domain_size of them, held to the build cap
    before any is listed.
    """
    m = _read_int(domain_size, "pfn_carrier", "domain_size")
    b = _read_int(codomain_size, "pfn_carrier", "codomain_size")
    _check_cap((b + 1, m), "partial-function carrier would have size", op="pfn_carrier", env=BUILD_CAP_ENV)
    options: tuple[int | None, ...] = (None,) + tuple(range(b))
    out = []
    for choice in itertools.product(options, repeat=m):
        out.append(PartialFunction(frozenset((x, y) for x, y in enumerate(choice) if y is not None)))
    return tuple(out)


def build_pfn_algebra(
    domain_size: int, codomain_size: int, order_cap: int | None = None
) -> FiniteSkewLattice:
    """Tabulate the partial-function skew lattice on a finite rectangle.

    It is P(1,b)^m, of order (b+1)**m, m the domain and b the codomain
    size; builds beyond the cap (default 4096, overridable by the
    argument or the SKEWLAT_BUILD_CAP environment variable) are refused.
    """
    domain_size = _read_int(domain_size, "build_pfn_algebra", "domain_size", 1)
    base = _read_int(codomain_size, "build_pfn_algebra", "codomain_size", 1) + 1
    _check_cap((base, domain_size), "partial-function algebra would have order",
               op="build_pfn_algebra", env=BUILD_CAP_ENV, explicit=order_cap)
    order = base**domain_size
    # in P(1,b), 0 is "undefined" and y+1 the value y: f∧g is f where g is defined, else 0, and f∨g is g
    # where g is defined, else f; element i of the power has one base-(b+1) digit per point, the first point's leading
    f, g = np.arange(base)[:, None], np.arange(base)[None, :]
    meet = functools.reduce(_product_table, [np.where(g != 0, f, 0)] * domain_size)
    join = functools.reduce(_product_table, [np.where(g != 0, g, f)] * domain_size)
    digits = np.arange(order)[:, None] // base ** np.arange(domain_size - 1, -1, -1) % base
    labels = tuple(
        "{" + ",".join(f"{x}:{v - 1}" for x, v in enumerate(row) if v) + "}" for row in digits.tolist()
    )
    return FiniteSkewLattice(order=order, meet_table=meet, join_table=join, zero=0, labels=labels)


@dataclass(frozen=True)
class Inf:
    """One of the two incomparable elements sitting above every natural."""

    side: str

    def __post_init__(self) -> None:
        if self.side not in ("a", "b"):
            raise StructureError(f"Inf side must be 'a' or 'b', got {self.side!r}")

    def __repr__(self) -> str:
        return f"inf_{self.side}"


INF_A = Inf("a")
INF_B = Inf("b")

OmegaElement = Union[int, Inf]


def _om_check(x: OmegaElement) -> OmegaElement:
    """``x`` as an element: a top as it is, a natural read with ``operator.index``, a bool refused."""
    if isinstance(x, Inf):
        return x
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise PreconditionError(f"not an element of the two-top chain: {x!r}")
    if (n := operator.index(x)) < 0:
        raise PreconditionError(f"naturals only, got {n}")
    return n


def _om_rank(x: OmegaElement) -> float:
    """A natural's rank is itself and a top's is infinite, so the order reads ranks and the two tops tie."""
    return math.inf if isinstance(x, Inf) else x


def om_meet(x: OmegaElement, y: OmegaElement) -> OmegaElement:
    """Meet: the argument of lower rank, the left one on a tie (so the left projection on two tops)."""
    x, y = _om_check(x), _om_check(y)
    return x if _om_rank(x) <= _om_rank(y) else y


def om_join(x: OmegaElement, y: OmegaElement) -> OmegaElement:
    """Join: the argument of higher rank, the right one on a tie (so the right projection on two tops)."""
    x, y = _om_check(x), _om_check(y)
    return y if _om_rank(x) <= _om_rank(y) else x


def om_leq(x: OmegaElement, y: OmegaElement) -> bool:
    """Natural order of the two-top chain, derived from the meet."""
    return om_meet(x, y) == x and om_meet(y, x) == x


def om_window(k: int) -> FiniteSkewLattice:
    """The finite sub-skew-lattice on {0..k, inf_a, inf_b}.

    Ids follow the element list: naturals first, then the two tops.
    Windows embed into each other by the evident inclusion, which tests
    use to relate finite verdicts to the infinite model.
    """
    k = _read_int(k, "om_window", "k", 1)
    _check_cap(k + 3, "om_window({}) would have order", k, op="om_window", env=BUILD_CAP_ENV)
    elements: list[OmegaElement] = list(range(k + 1)) + [INF_A, INF_B]
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    meet_rows = [[index[om_meet(a, b)] for b in elements] for a in elements]
    join_rows = [[index[om_join(a, b)] for b in elements] for a in elements]
    return FiniteSkewLattice(
        order=n,
        meet_table=meet_rows,
        join_table=join_rows,
        zero=0,
        labels=tuple(repr(e) if isinstance(e, Inf) else str(e) for e in elements),
    )


def _om_certificate(k: int, leq, op: str, checked: str, clauses: tuple[str, str, str]) -> Certificate:
    """Up to depth k, under the caller's ``clauses``: 0..k lie below both tops, keep increasing, tops incomparable."""
    k = _read_int(k, op, "k", 1)
    facts = (
        all(leq(n, INF_A) and leq(n, INF_B) for n in range(k + 1)),
        all(leq(n, n + 1) and not leq(n + 1, n) for n in range(k)),
        not leq(INF_A, INF_B) and not leq(INF_B, INF_A),
    )
    return Certificate(ok=all(facts), checked=checked, witness=(("depth", k),) + tuple(zip(clauses, facts)))


def om_verify_no_join_of_naturals(k: int, leq=om_leq) -> Certificate:
    """Certify, up to depth k, why the chain of naturals has no join.

    Any upper bound of all naturals must be one of the two tops (clauses
    one and two rule out a greatest natural), and neither top lies below
    the other, so no least upper bound can exist.  The witness records
    the case analysis; ``leq`` is injectable so tests can break a clause
    and watch the verdict flip.
    """
    return _om_certificate(k, leq, "om_verify_no_join_of_naturals", "the chain of naturals has no least upper bound",
                           ("naturals 0..k all lie below both tops", "the naturals keep strictly increasing",
                            "the two tops are incomparable"))


def om_verify_no_infimum_of_infs(k: int, leq=om_leq) -> Certificate:
    """Certify, up to depth k, why {inf_a, inf_b} has no infimum.

    Every natural is a lower bound of the pair and they keep strictly
    increasing, so no natural is greatest among lower bounds; and since
    the tops are incomparable, neither top is a lower bound of the pair.
    """
    return _om_certificate(k, leq, "om_verify_no_infimum_of_infs", "the two tops have no greatest lower bound",
                           ("naturals 0..k are all lower bounds of the pair", "lower bounds keep strictly increasing",
                            "neither top is a lower bound of the pair"))


@dataclass(frozen=True)
class FinCofinSet:
    """A finite or cofinite set of naturals.

    ``points`` lists the members when ``finite`` and the non-members
    otherwise, which keeps every representable set canonical: equal sets
    have equal representations.
    """

    finite: bool
    points: frozenset[int]

    def __post_init__(self) -> None:
        pts = frozenset(_as_int(p, "point") for p in self.points)
        if any(p < 0 for p in pts):
            raise StructureError("point sets live on the naturals")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "finite", bool(self.finite))

    @classmethod
    def fin(cls, points: Iterable[int] = ()) -> "FinCofinSet":
        return cls(True, frozenset(points))

    @classmethod
    def cofin(cls, excluded: Iterable[int] = ()) -> "FinCofinSet":
        return cls(False, frozenset(excluded))

    def __repr__(self) -> str:
        inner = ",".join(str(p) for p in sorted(self.points))
        if self.finite:
            return "{" + inner + "}"
        return "N∖{" + inner + "}" if self.points else "N"

    def __contains__(self, p: int) -> bool:
        return (p in self.points) == self.finite

    @property
    def is_empty(self) -> bool:
        return self.finite and not self.points

    def complement(self) -> "FinCofinSet":
        return FinCofinSet(not self.finite, self.points)

    def __and__(self, other: "FinCofinSet") -> "FinCofinSet":
        if self.finite and other.finite:
            return FinCofinSet.fin(self.points & other.points)
        if self.finite:
            return FinCofinSet.fin(self.points - other.points)
        if other.finite:
            return FinCofinSet.fin(other.points - self.points)
        return FinCofinSet.cofin(self.points | other.points)

    def __or__(self, other: "FinCofinSet") -> "FinCofinSet":
        return (self.complement() & other.complement()).complement()

    def __sub__(self, other: "FinCofinSet") -> "FinCofinSet":
        return self & other.complement()

    def disjoint(self, other: "FinCofinSet") -> bool:
        return (self & other).is_empty


@dataclass(frozen=True)
class FiniteImageFunction:
    """A partial map of the naturals whose image is finite.

    Stored one fiber per value: ``fibers`` is a tuple of
    ``(value, preimage)`` pairs sorted by value, with nonempty, pairwise
    disjoint preimages.  At most one preimage can be cofinite.
    """

    fibers: tuple[tuple[int, FinCofinSet], ...]

    def __post_init__(self) -> None:
        fibers = tuple((_as_int(v, "fiber value"), p) for v, p in self.fibers)
        values = [v for v, _ in fibers]
        if values != sorted(set(values)):
            raise StructureError("fibers must be sorted by distinct values")
        for v, p in fibers:
            if v < 0:
                raise StructureError("values live on the naturals")
            if not isinstance(p, FinCofinSet):
                raise StructureError("preimages must be FinCofinSet instances")
            if p.is_empty:
                raise StructureError(f"fiber of {v} is empty")
        # disjoint iff at most one fiber is cofinite, no point lies in two finite ones, and the cofinite one
        # excludes every finite one's points; only a failure pays for the pairs, to name the first that overlap
        finite = [p.points for _, p in fibers if p.finite]
        cofinite = [p.points for _, p in fibers if not p.finite]
        points = frozenset().union(*finite)
        if len(cofinite) > 1 or len(points) < sum(map(len, finite)) or cofinite and not points <= cofinite[0]:
            for (v1, p1), (v2, p2) in itertools.combinations(fibers, 2):
                if not p1.disjoint(p2):
                    raise StructureError(f"fibers of {v1} and {v2} overlap")
        object.__setattr__(self, "fibers", fibers)

    @classmethod
    def from_fibers(cls, pairs: Iterable[tuple[int, FinCofinSet]]) -> "FiniteImageFunction":
        merged: dict[int, FinCofinSet] = {}
        for v, p in pairs:
            merged[v] = merged[v] | p if v in merged else p
        return cls(tuple((v, p) for v, p in sorted(merged.items()) if not p.is_empty))

    @classmethod
    def one_point(cls, n: int) -> "FiniteImageFunction":
        return cls(((n, FinCofinSet.fin([n])),))

    @classmethod
    def empty(cls) -> "FiniteImageFunction":
        return cls(())

    def __repr__(self) -> str:
        return "FiniteImageFunction(" + ", ".join(f"{v} on {p!r}" for v, p in self.fibers) + ")"

    def domain(self) -> FinCofinSet:
        # the fibers are disjoint: the finite ones' points, or the one cofinite fiber with those points added
        points = frozenset().union(*(p.points for _, p in self.fibers if p.finite))
        cofinite = [p.points for _, p in self.fibers if not p.finite]
        return FinCofinSet.cofin(cofinite[0] - points) if cofinite else FinCofinSet.fin(points)

    @property
    def image_size(self) -> int:
        return len(self.fibers)

    def value_at(self, x: int) -> int | None:
        for v, p in self.fibers:
            if x in p:
                return v
        return None

    def restrict(self, s: FinCofinSet) -> "FiniteImageFunction":
        return FiniteImageFunction.from_fibers((v, p & s) for v, p in self.fibers)


def fi_meet(f: FiniteImageFunction, g: FiniteImageFunction) -> FiniteImageFunction:
    """``f`` restricted to the common domain (values taken from ``f``)."""
    return f.restrict(g.domain())


def fi_join(f: FiniteImageFunction, g: FiniteImageFunction) -> FiniteImageFunction:
    """``g`` together with ``f`` outside the domain of ``g``."""
    gd = g.domain()
    return FiniteImageFunction.from_fibers(
        tuple(g.fibers) + tuple((v, p - gd) for v, p in f.fibers)
    )


def fi_one_point_chain(k: int) -> list[tuple[int, int]]:
    """Fold the one-point maps 0↦0, 1↦1, ... and report image growth.

    Step ``i`` joins in the map ``i ↦ i``; the running join must equal
    the identity on {0..i}, so its image size is ``i+1`` and grows
    without bound.  That growth is the obstruction to extending the
    (commuting) family of one-point maps inside any lattice section.
    Returns ``[(step, image_size)]`` for k steps.
    """
    k = _read_int(k, "fi_one_point_chain", "k", 1)
    acc = FiniteImageFunction.one_point(0)
    out = [(0, acc.image_size)]
    for i in range(1, k):
        acc = fi_join(acc, FiniteImageFunction.one_point(i))
        expected = FiniteImageFunction(tuple((n, FinCofinSet.fin([n])) for n in range(i + 1)))
        if acc != expected:
            raise PreconditionError(f"fold at step {i} is not the identity on 0..{i}: {acc!r}")
        out.append((i, acc.image_size))
    return out


def chain_lattice(length: int) -> FiniteSkewLattice:
    """The commutative chain 0 < 1 < ... < length-1 (min/max tables).

    Finite windows of the naturals: every completeness property holds on
    a window, while the infinite chain is commutative, extends every
    commuting subset to a section (itself), and still has unbounded
    subsets — boundedness genuinely fails only at infinity, which is a
    documented fact rather than a computation.
    """
    length = _read_int(length, "chain_lattice", "length", 1)
    _check_cap(length, "chain of length {} would have order", length, op="chain_lattice", env=BUILD_CAP_ENV)
    rng = range(length)
    return FiniteSkewLattice(
        order=length,
        meet_table=[[min(a, b) for b in rng] for a in rng],
        join_table=[[max(a, b) for b in rng] for a in rng],
        zero=0,
    )


def boolean_lattice(m: int) -> FiniteSkewLattice:
    """The Boolean algebra of subsets of an m-point set, as bitmasks."""
    m = _read_int(m, "boolean_lattice", "m", 0)
    _check_cap((2, m), "boolean lattice on {} atoms would have order", m, op="boolean_lattice", env=BUILD_CAP_ENV)
    n = 1 << m
    rng = range(n)
    labels = tuple("{" + ",".join(str(i) for i in range(m) if s >> i & 1) + "}" for s in rng)
    return FiniteSkewLattice(
        order=n,
        meet_table=[[a & b for b in rng] for a in rng],
        join_table=[[a | b for b in rng] for a in rng],
        zero=0,
        labels=labels,
    )


def is_boolean_lattice(S: FiniteSkewLattice) -> bool:
    """True for a complemented distributive lattice (with bounds).

    Commutativity is part of the test, so any skew lattice may be
    passed; quotients of partial-function algebras land here.
    """
    if not S.validity.ok or not is_commutative(S):
        return False
    # a lattice's D-classes are singletons, and a finite one has a top and a bottom class
    dp = green_d(S)
    (bottom,), (top,) = dp.classes[dp.bottom_class], dp.classes[dp.top_class]
    # on a commutative structure both laws of the pair are x∧(y∨z) = (x∧y)∨(x∧z)
    if not check_identity(S, "strongly_distributive").ok:
        return False
    # every x has a complement y: x∧y = bottom and x∨y = top
    return bool(((S._m == bottom) & (S._j == top)).any(axis=1).all())


def diamond_m3() -> FiniteSkewLattice:
    """The five-element modular, non-distributive lattice (three atoms)."""
    n = 5
    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        leq[i][i] = True
        leq[0][i] = True
        leq[i][4] = True
    return lattice_from_order(leq)
