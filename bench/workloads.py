"""The benchmark's four workloads, run against skewlat's public API.

Each workload provides

  setup(seed, smoke, tr, workdir)
                                build and emit the inputs (files go to
                                workdir); the seed picks only relabeling
                                permutations and the mutated cell, so the
                                program sees only tables and text
  run(inp, tr)                  one timed pass: every structure is built
                                fresh, so per-instance caches start cold
  check(inp, out)               the oracle, outside the timed region:
                                one (operation, problem or None) for
                                each operation of the pass
  layers(setup_view, view, out) per-layer metrics of one traced pass

``smoke`` selects a reduced size that the benchmark's tests run.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import skewlat
from skewlat import census as sk_census
from skewlat import completeness as sk_completeness
from skewlat import frames as sk_frames

import oracle

# Caps passed explicitly, so that no environment variable can change them.
CENSUS_ORDER_CAP = 5
BUILD_CAP = 4096


class Raised:
    """An operation that raised instead of returning a verdict."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"raised {self.exc!r}"


def attempt(out: dict, op: str, fn) -> None:
    try:
        out[op] = fn()
    except Exception as exc:  # a raising operation is a failed one; check() reports it
        out[op] = Raised(exc)


def judge(out: dict, op: str, problem) -> tuple[str, str | None]:
    """(op, None) when the result agrees with the oracle, else (op, what is wrong).

    ``problem(result)`` returns None or a description; a result of the
    wrong shape, which makes it raise, is a failed operation too.
    """
    res = out[op]
    if isinstance(res, Raised):
        return op, repr(res)
    try:
        return op, problem(res)
    except Exception as exc:  # malformed result: report it, keep checking the rest
        return op, f"unexpected result {exc!r}"


def first(*conditions: tuple[bool, str]) -> str | None:
    return next((what for ok, what in conditions if not ok), None)


def _seeded_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _relabeled(S, perm):
    """Tables, zero and labels of S with element i renamed perm[i]."""
    labels = None
    if S.labels is not None:
        slots = [""] * S.order
        for a, lab in enumerate(S.labels):
            slots[perm[a]] = lab
        labels = tuple(slots)
    return (
        oracle.relabel(S.meet_table, perm),
        oracle.relabel(S.join_table, perm),
        None if S.zero is None else perm[S.zero],
        labels,
    )


def traced_patches(tr):
    """Module attributes the traced run wraps; each is a cross-module call,
    except is_ncframe and is_frame, which check_theorem_ncframes calls."""
    leaf, gen, span = tr.leaf_call, tr.leaf_generator, tr.span_call
    sup = leaf("completeness.sup_natural", sk_completeness.sup_natural)
    subsets = gen("completeness.enumerate_commuting_subsets", sk_completeness.enumerate_commuting_subsets)
    return [
        (sk_census, "canonicalize", leaf("census.canonicalize", sk_census.canonicalize)),
        (sk_census, "check_identity", leaf("census.check_identity", sk_census.check_identity)),
        (sk_completeness, "sup_natural", sup),
        (sk_frames, "sup_natural", sup),
        (sk_completeness, "enumerate_commuting_subsets", subsets),
        (sk_frames, "enumerate_commuting_subsets", subsets),
        (sk_frames, "is_ncframe", span("frames.is_ncframe", sk_frames.is_ncframe)),
        (sk_frames, "is_frame", span("frames.is_frame", sk_frames.is_frame)),
    ]


# --- census -----------------------------------------------------------------


class Census:
    """Unfiltered census, orders 1..5.

    The DFS table search and canonicalize (n! relabelings per labeled
    structure) do almost all the work; core only sees 5x5 tables, so a
    change to the large-table law scans should read no change here.
    """

    name = "census"

    @dataclass
    class Inputs:
        orders: tuple[int, ...]

    def setup(self, seed, smoke, tr, workdir):
        return self.Inputs(orders=(1, 2, 3) if smoke else (1, 2, 3, 4, 5))

    def run(self, inp, tr):
        out = {}
        for n in inp.orders:
            with tr.span(f"census.order{n}"):
                attempt(out, f"order{n}", lambda: list(skewlat.enumerate_skew_lattices(n, order_cap=CENSUS_ORDER_CAP)))
        return out

    def check(self, inp, out):
        return [judge(out, f"order{n}", lambda res, n=n: self._problem(n, res)) for n in inp.orders]

    @staticmethod
    def _problem(n, res):
        pairs = [(S.meet_table, S.join_table) for S in res]

        def count(laws):
            return sum(oracle.satisfies(m, j, laws) for m, j in pairs)

        return first(
            (len(pairs) == oracle.CENSUS_COUNTS[n - 1], f"{len(pairs)} classes, expected {oracle.CENSUS_COUNTS[n - 1]}"),
            (len(set(pairs)) == len(pairs), "a class is listed twice"),
            (all(oracle.satisfies(m, j, oracle.AXIOMS) for m, j in pairs), "a result is not a skew lattice"),
            (count(oracle.COMMUTATIVE) == oracle.COMMUTATIVE_COUNTS[n - 1], "commutative count differs from A006966"),
            (count(oracle.LEFT_HANDED) == oracle.LEFT_HANDED_COUNTS[n - 1], "left-handed count is wrong"),
            (count(oracle.RIGHT_HANDED) == oracle.LEFT_HANDED_COUNTS[n - 1], "right-handed count is wrong"),
            (all(oracle.least_relabeling(m, j) == (m, j) for m, j in pairs), "a result is not its own canonical form"),
        )

    def layers(self, setup_view, v, out):
        calls = v.leaf_calls("census.canonicalize")
        classes = sum(len(r) for r in out.values() if isinstance(r, list))
        return {
            "census.canonicalize_calls": (calls, "count"),
            "census.canonicalize_s": (v.leaf_s("census.canonicalize"), "s"),
            "census.search_self_s": (sum(v.self_s(f"census.{op}") for op in out), "s"),
            "census.classes": (classes, "count"),
            "census.dedup_ratio": (classes / calls if calls else 0.0, "ratio"),
            "census.order5_s": (v.total_s("census.order5"), "s"),
        }


class CensusFiltered:
    """Order-5 census of the left-handed normal classes.

    Same layer as census, used differently: the handedness and normality
    hooks prune inside the meet search, and CensusFilter.matches calls
    check_identity on every labeled candidate, so core's per-call
    overhead on tiny tables counts.
    """

    name = "census_filtered"

    @dataclass
    class Inputs:
        order: int

    def setup(self, seed, smoke, tr, workdir):
        return self.Inputs(order=4 if smoke else 5)

    def run(self, inp, tr):
        out = {}
        filt = skewlat.CensusFilter(left_handed=True, normal=True)
        with tr.span("census.filtered"):
            attempt(out, "filtered", lambda: list(skewlat.enumerate_skew_lattices(inp.order, filt, order_cap=CENSUS_ORDER_CAP)))
        return out

    def check(self, inp, out):
        want = oracle.FILTERED_FORMS[inp.order]
        return [judge(out, "filtered", lambda res: first(
            (tuple((S.meet_table, S.join_table) for S in res) == want, "classes differ from the filtered census")))]

    def layers(self, setup_view, v, out):
        calls = v.leaf_calls("census.canonicalize")
        res = out["filtered"]
        return {
            "census.filter_check_calls": (v.leaf_calls("census.check_identity"), "count"),
            "census.filter_check_s": (v.leaf_s("census.check_identity"), "s"),
            "census.filtered.canonicalize_calls": (calls, "count"),
            "census.filtered.canonicalize_s": (v.leaf_s("census.canonicalize"), "s"),
            "census.filtered.search_self_s": (v.self_s("census.filtered"), "s"),
            "census.filtered.classes": (len(res) if isinstance(res, list) else 0, "count"),
        }


# --- pfn_verify -------------------------------------------------------------


IDENTITY_EXPECTED = {
    "regular": True,
    "normal": True,
    "distributive": True,
    "strongly_distributive": True,
    "left_handed": True,
    "right_handed": False,
}

class PfnVerify:
    """Full verification of P(5,2) (order 243) read from its emitted file,
    a mutated copy that breaks an absorption law, and the O(n^4) lemma on
    P(4,2).

    This is the large-table path: numpy n^3 law scans, the lemma and
    parse.  Neither census nor completeness runs here.
    """

    name = "pfn_verify"

    @dataclass
    class Inputs:
        path: str
        order: int
        meet: tuple
        join: tuple
        zero: int
        classes: int
        bad_meet: tuple
        lemma: tuple

    def setup(self, seed, smoke, tr, workdir):
        m, lemma_m = (2, 2) if smoke else (5, 4)
        rng = random.Random(seed)
        with tr.span("models.build_pfn"):
            S = skewlat.build_pfn_algebra(m, 2, order_cap=BUILD_CAP)
        meet, join, zero, labels = _relabeled(S, _seeded_perm(rng, S.order))
        with tr.span("cli.emit"):
            text = skewlat.emit(skewlat.StructureFile(S.order, meet, join, zero=zero, labels=labels))
        path = os.path.join(workdir, f"pfn-{m}-2.sl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with tr.span("models.build_pfn"):
            L = skewlat.build_pfn_algebra(lemma_m, 2, order_cap=BUILD_CAP)
        lemma = _relabeled(L, _seeded_perm(rng, L.order))[:3]
        return self.Inputs(
            path=path,
            order=S.order,
            meet=meet,
            join=join,
            zero=zero,
            classes=2**m,
            bad_meet=self._break_absorption(rng, meet, join),
            lemma=lemma,
        )

    @staticmethod
    def _break_absorption(rng, meet, join):
        """Set m[x][x∨y] to something other than x, so x∧(x∨y)=x fails at (x, y)."""
        n = len(meet)
        pairs = [(x, y) for x in range(n) for y in range(n) if join[x][y] != x]
        x, y = rng.choice(pairs)
        w = join[x][y]
        rows = [list(r) for r in meet]
        rows[x][w] = rng.choice([v for v in range(n) if v != x])
        return tuple(tuple(r) for r in rows)

    def run(self, inp, tr):
        out = {}
        with tr.span("cli.parse"):
            with open(inp.path, encoding="utf-8") as fh:
                attempt(out, "parse", lambda: skewlat.parse(fh.read()).to_structure())
        S = out["parse"]
        calls = [("validate", lambda: skewlat.validate_skew_axioms(S))]
        calls += [(f"identity.{name}", lambda name=name: skewlat.check_identity(S, name)) for name in IDENTITY_EXPECTED]
        calls += [
            ("symmetric", lambda: skewlat.check_symmetric(S)),
            ("green_d", lambda: skewlat.green_d(S)),
            ("quotient", lambda: skewlat.quotient(S)),
        ]
        for op, fn in calls:
            with tr.span(f"core.{op}", memory=True):
                attempt(out, op, fn)
        with tr.span("models.is_boolean_lattice"):
            attempt(out, "is_boolean", lambda: skewlat.is_boolean_lattice(out["quotient"].lattice))
        with tr.span("core.validate_invalid", memory=True):
            attempt(out, "validate_invalid", lambda: skewlat.validate_skew_axioms(
                skewlat.FiniteSkewLattice(inp.order, inp.bad_meet, inp.join, zero=inp.zero)))
        with tr.span("core.lemma_reg", memory=True):
            attempt(out, "lemma_reg", lambda: skewlat.check_lemma_reg(
                skewlat.FiniteSkewLattice(len(inp.lemma[0]), inp.lemma[0], inp.lemma[1], zero=inp.lemma[2])))
        return out

    def check(self, inp, out):
        def identity(name, want):
            def problem(cert):
                return first(
                    (cert.ok is want, f"{name} should be {want}"),
                    (want or _rechecks(cert, inp.meet, inp.join, inp.zero), "witness does not re-check"),
                )
            return judge(out, f"identity.{name}", problem)

        def holds(what):
            return lambda cert: first((cert.ok is True, f"{what} should hold"))

        return [
            judge(out, "parse", lambda S: first((
                (S.order, S.meet_table, S.join_table, S.zero) == (inp.order, inp.meet, inp.join, inp.zero),
                "parsed tables differ from the emitted ones"))),
            judge(out, "validate", holds("the axioms")),
            *(identity(name, want) for name, want in IDENTITY_EXPECTED.items()),
            judge(out, "symmetric", holds("symmetry")),
            judge(out, "green_d", lambda dp: first((dp.class_count == inp.classes, f"expected {inp.classes} D-classes"))),
            judge(out, "quotient", lambda q: first((q.lattice.order == inp.classes, f"quotient should have order {inp.classes}"))),
            judge(out, "is_boolean", lambda b: first((b is True, "quotient should be Boolean"))),
            judge(out, "validate_invalid", lambda cert: first(
                (cert.ok is False, "mutated copy reported valid"),
                (_rechecks(cert, inp.bad_meet, inp.join, inp.zero), "witness does not re-check"))),
            judge(out, "lemma_reg", holds("the lemma")),
        ]

    def layers(self, setup_view, v, out):
        metrics = {
            "models.build_pfn_s": (setup_view.total_s("models.build_pfn"), "s"),
            "cli.emit_s": (setup_view.total_s("cli.emit"), "s"),
            "cli.parse_s": (v.total_s("cli.parse"), "s"),
            "models.is_boolean_lattice_s": (v.total_s("models.is_boolean_lattice"), "s"),
        }
        for name in dict.fromkeys(s["name"] for s in v.spans if s["name"].startswith("core.")):
            metrics[f"{name}_s"] = (v.total_s(name), "s")
        peak = max((s.get("peak_bytes", 0) for s in v.spans), default=0)
        metrics["core.scan_peak_mb"] = (peak / 2**20, "MB")
        return metrics


def _rechecks(cert, meet, join, zero) -> bool:
    w = getattr(cert, "witness", None)
    if not (isinstance(w, tuple) and len(w) == 2 and isinstance(w[0], str)):
        return False
    return oracle.witness_rechecks(meet, join, w[0], w[1], zero)


# --- frames -----------------------------------------------------------------


class Frames:
    """The ncframe theorem, the completeness ladder, prop_joins and sections
    on om_window(4..9), the 12-chain, B3, P(2,2) and the 11 census classes
    of order <= 4 that have a zero and are strongly distributive.

    The commuting-subset scans and sup_natural dominate; core sees only
    tables of 12 elements or fewer.  All inputs stay within the order-12
    subset cap.
    """

    name = "frames"
    OPS = (
        ("theorem", "frames.check_theorem_ncframes", skewlat.check_theorem_ncframes),
        ("ladder", "completeness.check_implication_chain", skewlat.check_implication_chain),
        ("prop_joins", "completeness.check_prop_joins", skewlat.check_prop_joins),
        ("sections", "completeness.lattice_sections", skewlat.lattice_sections),
    )

    @dataclass
    class Inputs:
        structures: list  # (name, order, meet, join, zero, expected section count)

    def setup(self, seed, smoke, tr, workdir):
        rng = random.Random(seed)
        if smoke:
            models = [("om_window(4)", skewlat.om_window(4)), ("chain(3)", skewlat.chain_lattice(3)),
                      ("B2", skewlat.boolean_lattice(2))]
            tables = oracle.FRAME_CENSUS_TABLES[:3]
        else:
            models = [(f"om_window({k})", skewlat.om_window(k)) for k in range(4, 10)]
            models += [("chain(12)", skewlat.chain_lattice(12)), ("B3", skewlat.boolean_lattice(3)),
                       ("P(2,2)", skewlat.build_pfn_algebra(2, 2, order_cap=BUILD_CAP))]
            tables = oracle.FRAME_CENSUS_TABLES
        structures = []
        for name, S in models:
            meet, join, zero, _ = _relabeled(S, _seeded_perm(rng, S.order))
            structures.append((name, S.order, meet, join, zero))
        for i, (m, j) in enumerate(tables):
            perm = _seeded_perm(rng, len(m))
            meet, join = oracle.relabel(m, perm), oracle.relabel(j, perm)
            structures.append((f"census#{i}", len(m), meet, join, oracle.find_zero(meet, join)))
        return self.Inputs([s + (oracle.top_class_size(s[2], s[3]),) for s in structures])

    def run(self, inp, tr):
        out = {}
        for name, n, meet, join, zero, _ in inp.structures:
            S = skewlat.FiniteSkewLattice(n, meet, join, zero=zero)
            for op, span, fn in self.OPS:
                with tr.span(span):
                    attempt(out, f"{name}.{op}", lambda: fn(S))
        return out

    def check(self, inp, out):
        ops = []
        for name, *_, sections in inp.structures:
            ops += [
                judge(out, f"{name}.theorem", lambda c: first(
                    (c.ok and dict(c.witness)["ncframe"] is True and dict(c.witness)["shadow_is_frame"] is True,
                     "theorem should hold with both sides true"))),
                judge(out, f"{name}.ladder", lambda c: first(
                    (c.ok and all(v is True for _, v in c.witness), "all four ladder verdicts should be true"))),
                judge(out, f"{name}.prop_joins", lambda c: first((c.ok is True, "prop_joins should hold"))),
                judge(out, f"{name}.sections", lambda secs, want=sections: first(
                    (len(secs) == want, f"expected {want} sections"))),
            ]
        return ops

    def layers(self, setup_view, v, out):
        return {
            "completeness.subsets": (v.leaf_calls("completeness.enumerate_commuting_subsets"), "count"),
            "completeness.sup_natural_calls": (v.leaf_calls("completeness.sup_natural"), "count"),
            "completeness.sup_natural_s": (v.leaf_s("completeness.sup_natural"), "s"),
            "completeness.ladder_s": (v.total_s("completeness.check_implication_chain"), "s"),
            "completeness.prop_joins_s": (v.total_s("completeness.check_prop_joins"), "s"),
            "completeness.sections_s": (v.total_s("completeness.lattice_sections"), "s"),
            "frames.is_ncframe_s": (v.total_s("frames.is_ncframe"), "s"),
            "frames.is_frame_s": (v.total_s("frames.is_frame"), "s"),
            "frames.theorem_self_s": (v.self_s("frames.check_theorem_ncframes"), "s"),
        }


WORKLOADS = {w.name: w for w in (Census(), CensusFiltered(), PfnVerify(), Frames())}
