"""Print every certificate skewlat gives on a fixed set of structures, one line each.

    PYTHONPATH=src python3 scripts/dump_certificates.py > certificates.txt

Run it on two trees and compare the outputs byte for byte (``cmp``): a
change that keeps every verdict, law and witness prints the same lines.
The structures are

- the 281 of the oracle set of ``tests/test_identity_lemmas.py``: the
  census to order 6, the four non-symmetric classes of order 7, P(m,b)
  for m ≤ 4, b ≤ 2 and P(3,3), the windows ``om_window(1..7)``, M3, the
  Boolean lattice on 3 atoms and the chain of 5;
- P(4,2) (order 81, scanned one x at a time) and a sample of its one-cell
  mutants;
- the direct products of P(3,2) with each skew lattice of order 3 and
  with M3, in both orders (orders 81 and 135): valid structures that fail
  some of the laws Lemma J scans over a generating set;
- P(5,2) (order 243) under a random relabeling at a few seeds, like the
  input of the benchmark's ``pfn_verify``, each with a copy that breaks an
  absorption law, as that workload's mutated copy does, and a copy with
  one random cell changed;
- structures at the orders where a check's gather plans change shape
  (15, 16, 20, 21, 32, 35, 64, 81, 90 and 91), as in
  ``tests/test_gather_plan.py``: chains, Boolean lattices, and products of
  small non-commutative classes and M3 with chains, each with two one-cell
  mutants and one whose meet table changes on the diagonal.

For each structure it prints the axiom certificate, the six identities,
``is_frame``, ``check_symmetric``, ``check_lemma_reg``, the D-classes, the quotient's
tables and projection, whether ``parse(emit(S))`` gives back the
tables, zero and labels, and the SHA-256 of ``emit(S)``, which pins the
writer's exact output.  Then, on the same structure, so that the facts
remembered by the first checks are read back, it prints ``detect_zero``,
``commutation_graph``, ``is_ncframe``, ``check_theorem_ncframes``,
``check_implication_chain``, ``check_prop_joins`` and
``check_section_exists``.  A check that refuses its input prints its
error.

After the structures it prints the ω-chain with two tops, each line
labeled ``ω-model``: both ``om_verify_*`` certificates at depths 1..8,
under ``om_leq`` and under three orders that each break one of their
clauses, and ``om_meet`` and ``om_join`` on every pair of 0..11, the
two tops and two numpy naturals, with the type of each result.  The
whole dump takes a few seconds.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from skewlat import (  # noqa: E402
    FiniteSkewLattice,
    IDENTITY_NAMES,
    SkewLatticeError,
    check_identity,
    check_implication_chain,
    check_lemma_reg,
    check_prop_joins,
    check_section_exists,
    check_symmetric,
    check_theorem_ncframes,
    commutation_graph,
    detect_zero,
    emit,
    green_d,
    is_frame,
    is_ncframe,
    parse,
    quotient,
    validate_skew_axioms,
)
from skewlat.census import enumerate_skew_lattices  # noqa: E402
from skewlat.models import (  # noqa: E402
    INF_A,
    INF_B,
    boolean_lattice,
    build_pfn_algebra,
    chain_lattice,
    diamond_m3,
    om_join,
    om_leq,
    om_meet,
    om_verify_no_infimum_of_infs,
    om_verify_no_join_of_naturals,
    om_window,
    product,
)
from test_cli import NON_SYMMETRIC_ORDER_SEVEN  # noqa: E402

SEEDS = (1, 11, 53)
P42_MUTANTS = 150


def oracle_set():
    out = [(f"census {n}.{i}", S) for n in range(1, 7) for i, S in enumerate(enumerate_skew_lattices(n, order_cap=6))]
    out += [(f"non-symmetric 7.{i}", FiniteSkewLattice(7, m, j)) for i, (m, j) in enumerate(NON_SYMMETRIC_ORDER_SEVEN)]
    out += [(f"P({m},{b})", build_pfn_algebra(m, b)) for m, b in [(m, b) for m in range(1, 5) for b in (1, 2)] + [(3, 3)]]
    out += [(f"om_window({k})", om_window(k)) for k in range(1, 8)]
    out += [("M3", diamond_m3()), ("B3", boolean_lattice(3)), ("chain 5", chain_lattice(5))]
    return out


def with_cell(S, which, a, b, value):
    tables = [np.array(S._m), np.array(S._j)]
    tables[which][a, b] = value
    return FiniteSkewLattice(S.order, *tables, zero=S.zero)


def relabeled(S, rng):
    """S with element i renamed perm[i], perm a shuffle drawn from ``rng``."""
    perm = list(range(S.order))
    rng.shuffle(perm)
    p, inverse = np.array(perm), np.argsort(perm)
    return FiniteSkewLattice(S.order, p[S._m[np.ix_(inverse, inverse)]], p[S._j[np.ix_(inverse, inverse)]], zero=perm[S.zero])


def broken_absorption(S, rng):
    """S with m[x][x∨y] set to something other than x, so x∧(x∨y)=x fails at (x, y)."""
    x, y = rng.choice(np.argwhere(S._j != np.arange(S.order)[:, None]).tolist())
    return with_cell(S, 0, x, int(S._j[x, y]), rng.choice([v for v in range(S.order) if v != x]))


def one_cell(S, rng):
    which, a, b = rng.randrange(2), rng.randrange(S.order), rng.randrange(S.order)
    old = int((S._m, S._j)[which][a, b])
    return with_cell(S, which, a, b, rng.choice([v for v in range(S.order) if v != old]))


def structures():
    yield from oracle_set()
    P = build_pfn_algebra(4, 2)
    rng = random.Random(42)
    yield "P(4,2)", P
    for i in range(P42_MUTANTS):
        yield f"P(4,2) mutant {i}", one_cell(P, rng)
    P = build_pfn_algebra(3, 2)
    factors = [(f"order 3.{i}", X) for i, X in enumerate(enumerate_skew_lattices(3))] + [("M3", diamond_m3())]
    for name, X in factors:
        yield f"P(3,2) x {name}", product(P, X)
        yield f"{name} x P(3,2)", product(X, P)
    P = build_pfn_algebra(5, 2)
    for seed in SEEDS:
        rng = random.Random(seed)
        S = relabeled(P, rng)
        yield f"P(5,2) seed {seed}", S
        yield f"P(5,2) seed {seed} broken absorption", broken_absorption(S, rng)
        yield f"P(5,2) seed {seed} one cell", one_cell(S, rng)
    rng = random.Random(1516)
    for name, S in bounds():
        yield name, S
        yield f"{name} one cell", one_cell(S, rng)
        yield f"{name} another cell", one_cell(S, rng)
        a = rng.randrange(S.order)
        yield f"{name} diagonal cell", with_cell(S, 0, a, a, (a + 1) % S.order)


def bounds():
    """Structures at the orders where a check's gather plans change shape."""
    X2 = FiniteSkewLattice(2, ((0, 0), (1, 1)), ((0, 1), (0, 1)))  # a left-zero band
    X3 = next(S for S in enumerate_skew_lattices(3) if not check_symmetric(S).ok or not check_identity(S, "normal").ok)
    X7 = FiniteSkewLattice(7, *NON_SYMMETRIC_ORDER_SEVEN[0])
    M3 = diamond_m3()
    for k in (15, 16, 21):
        yield f"chain {k}", chain_lattice(k)
    for m in (5, 6):
        yield f"B{m}", boolean_lattice(m)
    for (name, X), k in [(("X2", X2), k) for k in (8, 10, 16, 32)] + [(("X3", X3), k) for k in (5, 7, 27, 30)] + [
        (("X7", X7), k) for k in (3, 13)] + [(("M3", M3), k) for k in (3, 4, 7)]:
        yield f"{name} x chain {k}", product(X, chain_lattice(k))


def certificates(S):
    yield "axioms", lambda: validate_skew_axioms(S)
    for name in IDENTITY_NAMES:
        yield name, lambda name=name: check_identity(S, name)
    yield "is_frame", lambda: is_frame(S)
    yield "symmetric", lambda: check_symmetric(S)
    yield "lemma_reg", lambda: check_lemma_reg(S)
    yield "D-classes", lambda: green_d(S).classes
    yield "quotient", lambda: quotient_tables(S)
    yield "round trip", lambda: round_trip(S)
    yield "emit sha256", lambda: hashlib.sha256(emit(S).encode()).hexdigest()
    for check in (detect_zero, commutation_graph, is_ncframe, check_theorem_ncframes, check_implication_chain,
                  check_prop_joins, check_section_exists):
        yield check.__name__, lambda check=check: check(S)


def quotient_tables(S):
    q = quotient(S)
    return q.lattice.meet_table, q.lattice.join_table, q.projection


def round_trip(S):
    sf = parse(emit(S))
    return (sf.meet_table, sf.join_table, sf.zero, sf.labels) == (S.meet_table, S.join_table, S.zero, S.labels)


# the order of the ω-model, and three orders that each break one clause of its certificates
OMEGA_ORDERS = {
    "om_leq": om_leq,
    "0 not below inf_b": lambda x, y: om_leq(x, y) and (x, y) != (0, INF_B),
    "1 below 0": lambda x, y: om_leq(x, y) or (x, y) == (1, 0),
    "inf_a below inf_b": lambda x, y: om_leq(x, y) or (x, y) == (INF_A, INF_B),
}


def omega_model():
    for k in range(1, 9):
        for name, leq in OMEGA_ORDERS.items():
            for verify in (om_verify_no_join_of_naturals, om_verify_no_infimum_of_infs):
                yield f"ω-model k={k} {name}", verify.__name__, verify(k, leq)
    elements = [*range(12), INF_A, INF_B, np.int64(3), np.uint8(5)]
    for x in elements:
        for y in elements:
            for op in (om_meet, om_join):
                value = op(x, y)
                yield f"ω-model {x!r} {y!r}", op.__name__, (value, type(value).__name__)


def main() -> None:
    for label, S in structures():
        for check, run in certificates(S):
            try:
                result = run()
            except SkewLatticeError as exc:
                result = f"{type(exc).__name__}: {exc}"
            print(f"{label}\t{check}\t{result!r}")
    for label, check, result in omega_model():
        print(f"{label}\t{check}\t{result!r}")


if __name__ == "__main__":
    main()
