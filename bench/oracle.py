"""Independent oracle for the skewlat benchmark.

Nothing here imports skewlat.  Verdicts the package returns are checked
against known counts and tables, and witnesses against plain table
lookups: a law is parsed from its printed text and evaluated term by
term, so a witness is confirmed without the package's numpy scans.
"""

from __future__ import annotations

import itertools
import re

Table = tuple[tuple[int, ...], ...]

# Unfiltered census counts for orders 1..5.  The commutative column is
# the number of lattices (OEIS A006966); left- and right-handed counts
# are equal because mirroring swaps the two.
CENSUS_COUNTS = (1, 3, 7, 21, 53)
COMMUTATIVE_COUNTS = (1, 1, 1, 2, 5)
LEFT_HANDED_COUNTS = (1, 2, 4, 10, 23)

# Axiom labels the package cites that are not themselves equations,
# mapped to the equations they name.  ``0`` is the declared zero.
_NAMED_LAWS = {
    "meet idempotency x∧x=x": ("x∧x = x",),
    "join idempotency x∨x=x": ("x∨x = x",),
    "meet associativity": ("(x∧y)∧z = x∧(y∧z)",),
    "join associativity": ("(x∨y)∨z = x∨(y∨z)",),
    "zero laws x∧0=0=0∧x, x∨0=x=0∨x": ("x∧0 = 0", "0∧x = 0", "x∨0 = x", "0∨x = x"),
}

_TOKEN = re.compile(r"\s*([a-z0]|[∧∨()=])")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read law {text!r} at {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _parse_term(toks: list[str], i: int):
    """Left-associative term over ∧ and ∨; returns (tree, next index)."""
    left, i = _parse_atom(toks, i)
    while i < len(toks) and toks[i] in "∧∨":
        op = toks[i]
        right, i = _parse_atom(toks, i + 1)
        left = (op, left, right)
    return left, i


def _parse_atom(toks: list[str], i: int):
    if toks[i] == "(":
        tree, i = _parse_term(toks, i + 1)
        if toks[i] != ")":
            raise ValueError("unbalanced parentheses")
        return tree, i + 1
    return toks[i], i + 1


def parse_equation(text: str):
    """Parse ``lhs = rhs`` into two term trees and the sorted variables."""
    toks = _tokens(text)
    lhs, i = _parse_term(toks, 0)
    if toks[i] != "=":
        raise ValueError(f"law {text!r} has no '='")
    rhs, i = _parse_term(toks, i + 1)
    if i != len(toks):
        raise ValueError(f"trailing tokens in law {text!r}")
    names = sorted({t for t in toks if t.isalpha()})
    return lhs, rhs, names


def _eval(tree, env: dict, meet: Table, join: Table) -> int:
    if isinstance(tree, str):
        return env[tree]
    op, a, b = tree
    x, y = _eval(a, env, meet, join), _eval(b, env, meet, join)
    return meet[x][y] if op == "∧" else join[x][y]


def _equations(law: str) -> tuple[str, ...]:
    return _NAMED_LAWS.get(law, (law,))


def witness_rechecks(meet: Table, join: Table, law: str, point, zero: int | None = None) -> bool:
    """True when ``law`` really fails at ``point`` in these tables.

    Variables bind to the witness tuple in alphabetical order, which is
    how the package lays out its scans (x, y, z).  An unknown law, a
    tuple of the wrong length or an out-of-range id does not re-check.
    """
    equations = _equations(law)
    if zero is None and any("0" in eq for eq in equations):
        return False
    try:
        parsed = [parse_equation(eq) for eq in equations]
    except (ValueError, IndexError):
        return False
    point = tuple(point)
    n = len(meet)
    if not all(isinstance(v, int) and 0 <= v < n for v in point):
        return False
    for lhs, rhs, names in parsed:
        if len(names) != len(point):
            return False
        env = {"0": zero, **dict(zip(names, point))}
        if _eval(lhs, env, meet, join) != _eval(rhs, env, meet, join):
            return True
    return False


def law_holds(meet: Table, join: Table, law: str) -> bool:
    """Exhaustively evaluate an equation over every tuple (small tables only)."""
    lhs, rhs, names = parse_equation(law)
    for point in itertools.product(range(len(meet)), repeat=len(names)):
        env = dict(zip(names, point))
        if _eval(lhs, env, meet, join) != _eval(rhs, env, meet, join):
            return False
    return True


AXIOMS = (
    "x∧x = x", "x∨x = x",
    "(x∧y)∧z = x∧(y∧z)", "(x∨y)∨z = x∨(y∨z)",
    "x∧(x∨y) = x", "x∨(x∧y) = x", "(x∨y)∧y = y", "(x∧y)∨y = y",
)
LEFT_HANDED = ("x∧y∧x = x∧y", "x∨y∨x = y∨x")
RIGHT_HANDED = ("x∧y∧x = y∧x", "x∨y∨x = x∨y")
COMMUTATIVE = ("x∧y = y∧x", "x∨y = y∨x")


def satisfies(meet: Table, join: Table, laws) -> bool:
    return all(law_holds(meet, join, law) for law in laws)


def relabel(table: Table, perm) -> Table:
    """The table of the isomorphic copy in which element i is named perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row = table[a]
        for b in range(n):
            out[perm[a]][perm[b]] = perm[row[b]]
    return tuple(tuple(r) for r in out)


def least_relabeling(meet: Table, join: Table) -> tuple[Table, Table]:
    """The lexicographically least (meet, join) pair over all relabelings."""
    return min(
        (relabel(meet, p), relabel(join, p)) for p in itertools.permutations(range(len(meet)))
    )


def find_zero(meet: Table, join: Table) -> int | None:
    """The element with z∧x = z = x∧z and z∨x = x = x∨z for all x, if any."""
    n = len(meet)
    for z in range(n):
        if all(meet[z][x] == z == meet[x][z] and join[z][x] == x == join[x][z] for x in range(n)):
            return z
    return None


def top_class_size(meet: Table, join: Table) -> int:
    """Size of the top D-class: the class of the join of all elements."""
    top = 0
    for a in range(len(join)):
        top = join[top][a]
    return sum(1 for b in range(len(meet)) if meet[meet[top][b]][top] == top and meet[meet[b][top]][b] == b)


# Canonical tables of the order-4 and order-5 classes that are both
# left-handed and normal, and of the 11 classes of order <= 4 with a zero
# that are strongly distributive.  bench/tests/test_bench.py re-derives
# both from the census.
FILTERED_FORMS = {
    4: (
        (((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)), ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))),
        (((0, 0, 0, 0), (0, 1, 0, 1), (2, 2, 2, 2), (2, 3, 2, 3)), ((0, 1, 2, 3), (1, 1, 3, 3), (0, 1, 2, 3), (1, 1, 3, 3))),
        (((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 2), (0, 1, 2, 3)), ((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 2, 3), (3, 3, 3, 3))),
        (((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 2), (0, 1, 3, 3)), ((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 2, 3), (3, 3, 2, 3))),
        (((0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2), (0, 3, 3, 3)), ((0, 1, 2, 3), (1, 1, 2, 3), (2, 1, 2, 3), (3, 1, 2, 3))),
        (((0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)), ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3))),
    ),
    5: (
        (((0, 0, 0, 0, 0), (0, 1, 0, 0, 1), (0, 0, 2, 0, 2), (0, 0, 0, 3, 3), (0, 1, 2, 3, 4)), ((0, 1, 2, 3, 4), (1, 1, 4, 4, 4), (2, 4, 2, 4, 4), (3, 4, 4, 3, 4), (4, 4, 4, 4, 4))),
        (((0, 0, 0, 0, 0), (0, 1, 0, 0, 1), (0, 0, 2, 2, 2), (0, 0, 2, 3, 3), (0, 1, 2, 3, 4)), ((0, 1, 2, 3, 4), (1, 1, 4, 4, 4), (2, 4, 2, 3, 4), (3, 4, 3, 3, 4), (4, 4, 4, 4, 4))),
        (((0, 0, 0, 0, 0), (0, 1, 0, 1, 1), (0, 0, 2, 2, 2), (0, 1, 2, 3, 3), (0, 1, 2, 3, 4)), ((0, 1, 2, 3, 4), (1, 1, 3, 3, 4), (2, 3, 2, 3, 4), (3, 3, 3, 3, 4), (4, 4, 4, 4, 4))),
        (((0, 0, 0, 0, 0), (0, 1, 1, 1, 1), (0, 1, 2, 1, 2), (0, 1, 1, 3, 3), (0, 1, 2, 3, 4)), ((0, 1, 2, 3, 4), (1, 1, 2, 3, 4), (2, 2, 2, 4, 4), (3, 3, 4, 3, 4), (4, 4, 4, 4, 4))),
        (((0, 0, 0, 0, 0), (0, 1, 1, 1, 1), (0, 1, 2, 1, 2), (0, 3, 3, 3, 3), (0, 3, 4, 3, 4)), ((0, 1, 2, 3, 4), (1, 1, 2, 3, 4), (2, 2, 2, 4, 4), (3, 1, 2, 3, 4), (4, 2, 2, 4, 4))),
        (((0, 0, 0, 0, 0), (0, 1, 1, 1, 1), (0, 1, 2, 2, 2), (0, 1, 2, 3, 3), (0, 1, 2, 3, 4)), ((0, 1, 2, 3, 4), (1, 1, 2, 3, 4), (2, 2, 2, 3, 4), (3, 3, 3, 3, 4), (4, 4, 4, 4, 4))),
        (((0, 0, 0, 0, 0), (0, 1, 1, 1, 1), (0, 1, 2, 2, 2), (0, 1, 2, 3, 3), (0, 1, 2, 4, 4)), ((0, 1, 2, 3, 4), (1, 1, 2, 3, 4), (2, 2, 2, 3, 4), (3, 3, 3, 3, 4), (4, 4, 4, 3, 4))),
        (((0, 0, 0, 0, 0), (0, 1, 1, 1, 1), (0, 1, 2, 2, 2), (0, 1, 3, 3, 3), (0, 1, 4, 4, 4)), ((0, 1, 2, 3, 4), (1, 1, 2, 3, 4), (2, 2, 2, 3, 4), (3, 3, 2, 3, 4), (4, 4, 2, 3, 4))),
        (((0, 0, 0, 0, 0), (0, 1, 1, 1, 1), (0, 2, 2, 2, 2), (0, 3, 3, 3, 3), (0, 4, 4, 4, 4)), ((0, 1, 2, 3, 4), (1, 1, 2, 3, 4), (2, 1, 2, 3, 4), (3, 1, 2, 3, 4), (4, 1, 2, 3, 4))),
        (((0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (2, 2, 2, 2, 2), (3, 3, 3, 3, 3), (4, 4, 4, 4, 4)), ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))),
    ),
}
FRAME_CENSUS_TABLES = (
    (((0,),), ((0,),)),
    (((0, 0), (0, 1)), ((0, 1), (1, 1))),
    (((0, 0, 0), (0, 1, 1), (0, 1, 2)), ((0, 1, 2), (1, 1, 2), (2, 2, 2))),
    (((0, 0, 0), (0, 1, 1), (0, 2, 2)), ((0, 1, 2), (1, 1, 2), (2, 1, 2))),
    (((0, 0, 0), (0, 1, 2), (0, 1, 2)), ((0, 1, 2), (1, 1, 1), (2, 2, 2))),
    (((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)), ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))),
    (((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 2), (0, 1, 2, 3)), ((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 2, 3), (3, 3, 3, 3))),
    (((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 2), (0, 1, 3, 3)), ((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 2, 3), (3, 3, 2, 3))),
    (((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 3), (0, 1, 2, 3)), ((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 2, 2), (3, 3, 3, 3))),
    (((0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2), (0, 3, 3, 3)), ((0, 1, 2, 3), (1, 1, 2, 3), (2, 1, 2, 3), (3, 1, 2, 3))),
    (((0, 0, 0, 0), (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3)), ((0, 1, 2, 3), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3))),
)
