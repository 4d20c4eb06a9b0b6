"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line before asserting, so a plain run
reads as a checklist of the guarantees the package makes: the worked
model families behave, the identity catalog is internally consistent
across the full small census, the completeness checks and the frame
equivalence hold everywhere they claim to, and the command line keeps
its exit-code contract.
"""

import time

from skewlat.census import canonicalize, enumerate_by_quotient_construction, enumerate_skew_lattices
from skewlat.cli import StructureFile, emit, main, parse
from skewlat.completeness import (
    check_implication_chain,
    check_prop_joins,
    commutation_graph,
    enumerate_commuting_subsets,
    inf_natural,
    join_fold,
    meet_fold,
    sup_natural,
)
from skewlat.core import (
    check_identity,
    check_lemma_reg,
    check_symmetric,
    detect_zero,
    down_set,
    is_commutative,
    quotient,
    validate_skew_axioms,
)
from skewlat.frames import check_theorem_ncframes
from skewlat.models import (
    build_pfn_algebra,
    fi_join,
    fi_one_point_chain,
    FiniteImageFunction,
    is_boolean_lattice,
    om_verify_no_infimum_of_infs,
    om_verify_no_join_of_naturals,
    om_window,
)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _guarded(S):
    return check_identity(S, "normal").ok and check_symmetric(S).ok


def test_criterion_01_partial_function_algebras_behave(census_all):
    failures = []
    for m in (1, 2, 3):
        for b in (1, 2, 3):
            S = build_pfn_algebra(m, b)
            shadow = quotient(S).lattice
            checks = (
                validate_skew_axioms(S).ok,
                check_identity(S, "strongly_distributive").ok,
                check_identity(S, "left_handed").ok,
                detect_zero(S) is not None,
                is_boolean_lattice(shadow) and shadow.order == 2**m,
            )
            if not all(checks):
                failures.append((m, b, checks))
    assert _report(1, not failures, f"partial-function algebras m,b <= 3 ({failures or 'all checks hold'})")


def test_criterion_02_strong_distributivity_decomposes(census_all):
    mismatches = [
        S
        for S in census_all
        if check_identity(S, "strongly_distributive").ok
        != (
            check_symmetric(S).ok
            and check_identity(S, "distributive").ok
            and check_identity(S, "normal").ok
        )
    ]
    assert _report(2, not mismatches, f"strongly-distributive decomposition, {len(census_all)} structures, {len(mismatches)} mismatches")


def test_criterion_03_regularity_is_universal(census_all):
    bad = [S for S in census_all if not (check_identity(S, "regular").ok and check_lemma_reg(S).ok)]
    assert _report(3, not bad, f"regularity and its two-variable consequence on {len(census_all)} structures")


def test_criterion_04_normality_matches_commutative_down_sets(census_all):
    mismatches = [
        S
        for S in census_all
        if check_identity(S, "normal").ok
        != all(is_commutative(down_set(S, a)) for a in range(S.order))
    ]
    assert _report(4, not mismatches, f"normal iff every principal down-set commutes ({len(mismatches)} mismatches)")


def test_criterion_05_commuting_subsets_have_folded_joins(census_all, p22, window4):
    pool = [S for S in census_all if _guarded(S)] + [p22, window4]
    bad = [S for S in pool if not check_prop_joins(S).ok]
    assert _report(5, not bad, f"folded joins are suprema on {len(pool)} normal symmetric structures")


def test_criterion_06_frame_equivalence_holds_everywhere(census_all, p22, window4):
    start = time.monotonic()
    pool = [
        S
        for S in census_all
        if check_identity(S, "strongly_distributive").ok and detect_zero(S) is not None
    ] + [p22, window4, build_pfn_algebra(2, 3), build_pfn_algebra(4, 2), build_pfn_algebra(5, 2), om_window(20)]
    bad = [S for S in pool if not check_theorem_ncframes(S).ok]
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    assert _report(6, ok, f"frame equivalence on {len(pool)} structures in {elapsed:.2f}s")


def test_criterion_07_infinite_chain_witnesses():
    W = om_window(5)
    rows = commutation_graph(W)
    checks = (
        om_verify_no_join_of_naturals(100).ok,
        om_verify_no_infimum_of_infs(50).ok,
        check_identity(W, "left_handed").ok,
        check_identity(W, "strongly_distributive").ok,
        detect_zero(W) is not None,
        [(a, b) for a in range(W.order) for b in range(a + 1, W.order) if not rows[a] >> b & 1]
        == [(W.order - 2, W.order - 1)],
    )
    assert _report(7, all(checks), f"chain with two tops: unbounded below the tops, window classified {checks}")


def test_criterion_08_one_point_joins_grow_the_image():
    steps = fi_one_point_chain(50)
    acc = FiniteImageFunction.one_point(0)
    partials_ok = True
    for i in range(1, 50):
        acc = fi_join(acc, FiniteImageFunction.one_point(i))
        partials_ok = partials_ok and isinstance(acc, FiniteImageFunction) and acc.image_size == i + 1
    ok = steps == [(i, i + 1) for i in range(50)] and partials_ok
    assert _report(8, ok, "image size k+1 at step k for 50 one-point joins, all partials well formed")


def test_criterion_09_completeness_properties_chain(census_all):
    pool = [S for S in census_all if _guarded(S)] + [om_window(k) for k in range(1, 7)]
    bad = [S for S in pool if not check_implication_chain(S).ok]
    assert _report(9, not bad, f"join-complete => bounded => extends => section on {len(pool)} structures")


def test_criterion_10_census_is_self_consistent(census_by_order):
    counts_ok = len(census_by_order[2]) == 3
    cross_ok = all(
        {canonicalize(S) for S in census_by_order[n]} == enumerate_by_quotient_construction(n)
        for n in (1, 2, 3)
    )
    assert _report(10, counts_ok and cross_ok, "order-2 count is 3; both enumeration strategies agree through order 3")


def test_criterion_11_folds_agree_with_the_natural_order(census_all):
    mismatches = 0
    subsets = 0
    for S in (T for T in census_all if _guarded(T)):
        with_zero = detect_zero(S) is not None
        for C in enumerate_commuting_subsets(S):
            subsets += 1
            if join_fold(S, C) != sup_natural(S, C):
                mismatches += 1
            if with_zero and meet_fold(S, C) != inf_natural(S, C):
                mismatches += 1
    assert _report(11, mismatches == 0, f"folds equal order-theoretic bounds over {subsets} commuting subsets")


def test_criterion_12_cli_round_trip_and_exit_codes(tmp_path, capsys):
    round_trip = all(
        parse(emit(S)) == StructureFile.from_structure(S)
        for n in (1, 2, 3)
        for S in enumerate_skew_lattices(n)
    )

    valid = tmp_path / "valid.skl"
    valid.write_text("skewlat 1\nn 2\nzero 0\nmeet\n0 0\n0 1\njoin\n0 1\n1 1\n")
    broken = tmp_path / "broken.skl"
    broken.write_text("skewlat 1\nn 2\nmeet\n0 0\n0 1\njoin\n0 0\n0 1\n")
    garbled = tmp_path / "garbled.skl"
    garbled.write_text("skewlat 1\nn 2\nmeet\n0 0\n0 9\njoin\n0 1\n1 1\n")
    window = tmp_path / "window.skl"
    window.write_text(emit(om_window(1)))

    fixtures = (
        (["check", str(valid)], 0),
        (["classify", str(valid)], 0),
        (["check", str(broken)], 1),
        (["sup", str(window), "--elements", "2,3"], 1),
        (["check", str(garbled)], 2),
        (["check", str(tmp_path / "absent.skl")], 2),
        (["census", "--order", "2", "--filter", "left-handed=maybe"], 2),
        (["census", "--order", "2", "--count-only"], 0),
    )
    got = [(argv, main(argv)) for argv, _ in fixtures]
    capsys.readouterr()
    codes_ok = got == [(argv, want) for argv, want in fixtures]
    assert _report(12, round_trip and codes_ok, f"file format round-trips; {len(fixtures)} exit-code fixtures honored")
