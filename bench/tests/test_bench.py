"""Tests of the benchmark itself: its oracle, its constants and its runs.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import oracle  # noqa: E402
import skewlat  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _pfn(tmp_path, seed=5):
    wl = workloads.WORKLOADS["pfn_verify"]
    inp = wl.setup(seed, True, spans.NULL, str(tmp_path))
    return wl, inp, wl.run(inp, spans.NULL)


def _failed(ops):
    return {op for op, problem in ops if problem is not None}


def test_oracle_flags_a_wrong_verdict(tmp_path):
    wl, inp, out = _pfn(tmp_path)
    out["identity.normal"] = skewlat.Certificate(False, "normal", ("x∧y∧z∧x = x∧z∧y∧x", (0, 0, 0)))
    out["green_d"] = skewlat.green_d(skewlat.chain_lattice(2))
    out["lemma_reg"] = workloads.Raised(skewlat.PreconditionError("capped"))
    assert _failed(wl.check(inp, out)) == {"identity.normal", "green_d", "lemma_reg"}


def test_oracle_flags_a_wrong_expected_verdict(tmp_path, monkeypatch):
    wl, inp, out = _pfn(tmp_path)
    monkeypatch.setitem(workloads.IDENTITY_EXPECTED, "left_handed", False)
    assert _failed(wl.check(inp, out)) == {"identity.left_handed"}


def test_oracle_flags_a_witness_that_does_not_recheck(tmp_path):
    wl, inp, out = _pfn(tmp_path)
    law, point = out["validate_invalid"].witness
    assert oracle.witness_rechecks(inp.bad_meet, inp.join, law, point, inp.zero)
    holds_here = next(
        (x, y) for x in range(inp.order) for y in range(inp.order)
        if not oracle.witness_rechecks(inp.bad_meet, inp.join, "absorption x∧(x∨y)=x", (x, y), inp.zero)
    )
    out["validate_invalid"] = skewlat.Certificate(False, "skew lattice axioms", ("absorption x∧(x∨y)=x", holds_here))
    rh = out["identity.right_handed"]
    out["identity.right_handed"] = skewlat.Certificate(False, rh.checked, (rh.witness[0], (0, 0)))
    assert _failed(wl.check(inp, out)) == {"validate_invalid", "identity.right_handed"}


@pytest.mark.parametrize(
    "law, point, zero",
    [
        ("no such law", (0, 1), None),
        ("x∧y∧x = y∧x", (0,), None),
        ("x∧y∧x = y∧x", (0, 99), None),
        ("zero laws x∧0=0=0∧x, x∨0=x=0∨x", (1,), None),
    ],
)
def test_malformed_witnesses_do_not_recheck(law, point, zero):
    chain = skewlat.chain_lattice(3)
    assert not oracle.witness_rechecks(chain.meet_table, chain.join_table, law, point, zero)


def test_law_evaluation_matches_the_package_on_the_census():
    for n in (2, 3):
        for S in skewlat.enumerate_skew_lattices(n):
            for name, laws in (("left_handed", oracle.LEFT_HANDED), ("right_handed", oracle.RIGHT_HANDED)):
                assert oracle.satisfies(S.meet_table, S.join_table, laws) == skewlat.check_identity(S, name).ok
            assert oracle.satisfies(S.meet_table, S.join_table, oracle.COMMUTATIVE) == skewlat.is_commutative(S)


def test_constants_equal_the_filtered_census():
    # FILTERED_FORMS is what census_filtered is held to; it must be exactly
    # the census result filtered by both predicates.
    for order in (4, 5):
        census = list(skewlat.enumerate_skew_lattices(order, order_cap=5))
        filtered = tuple(
            (S.meet_table, S.join_table)
            for S in census
            if skewlat.check_identity(S, "left_handed").ok and skewlat.check_identity(S, "normal").ok
        )
        assert filtered == oracle.FILTERED_FORMS[order]
    frames = tuple(
        (S.meet_table, S.join_table)
        for n in range(1, 5)
        for S in skewlat.enumerate_skew_lattices(n)
        if skewlat.detect_zero(S) is not None and skewlat.check_identity(S, "strongly_distributive").ok
    )
    assert frames == oracle.FRAME_CENSUS_TABLES and len(frames) == 11


def test_named_frame_inputs_have_the_expected_section_counts():
    for S, want in (
        (skewlat.om_window(4), 2),
        (skewlat.om_window(9), 2),
        (skewlat.build_pfn_algebra(2, 2), 4),
        (skewlat.chain_lattice(12), 1),
        (skewlat.boolean_lattice(3), 1),
    ):
        assert oracle.top_class_size(S.meet_table, S.join_table) == want


def test_seed_fixes_the_inputs(tmp_path):
    wl = workloads.WORKLOADS["pfn_verify"]
    a = wl.setup(1, True, spans.NULL, str(tmp_path))
    b = wl.setup(1, True, spans.NULL, str(tmp_path))
    c = wl.setup(2, True, spans.NULL, str(tmp_path))
    assert (a.meet, a.bad_meet, a.lemma) == (b.meet, b.bad_meet, b.lemma)
    assert (a.meet, a.bad_meet) != (c.meet, c.bad_meet)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_completes_at_smoke_size(workload):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_traced_smoke_run_reports_every_layer_metric():
    proc = _bench("--workload", "census", "--seed", "7", "--seconds", "0.2", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_exact_counts_repeat_between_traced_runs():
    counts = []
    for seed in ("1", "2"):
        proc = _bench("--workload", "frames", "--seed", seed, "--seconds", "0.2", "--trace", "1", "--smoke")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
