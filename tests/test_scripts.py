"""Smoke tests of the measurement and comparison scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_large_orders_runs_every_step_at_m_two():
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "large_orders.py"), "2"], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    lines = [line.split("\t") for line in out.stdout.splitlines()]
    assert [fields[:2] for fields in lines] == [["P(2,2)", step] for step in ("build", "validate", "emit", "parse", "theorem")]
    for _, _, seconds, mb, code in lines:
        assert seconds.endswith(" s") and float(seconds[:-2]) >= 0
        assert mb.endswith(" MB") and float(mb[:-3]) > 0
        assert code == "exit 0"


def test_census_digest_prints_one_line_per_order_and_filter():
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "census_digest.py"), "3"], capture_output=True, text=True, timeout=120, env=env
    )
    assert out.returncode == 0, out.stderr
    lines = [line.split("\t") for line in out.stdout.splitlines()]
    assert [fields[:3] for fields in lines] == [
        [f"order {n}", name, f"{count} classes"]
        for n, counts in ((1, (1, 1, 1, 1)), (2, (3, 2, 3, 2)), (3, (7, 4, 5, 3)))
        for name, count in zip(("none", "left_handed", "normal", "left_handed+normal"), counts)
    ]
    assert all(len(fields[3]) == len("sha256 ") + 64 for fields in lines)


def test_dump_certificates_prints_every_check_for_every_structure():
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "dump_certificates.py")], capture_output=True, text=True, timeout=300, env=env
    )
    assert out.returncode == 0, out.stderr
    lines = [line.split("\t") for line in out.stdout.splitlines()]
    omega = [fields for fields in lines if fields[0].startswith("ω-model")]
    lines = lines[: len(lines) - len(omega)]  # the ω-model's lines come last
    assert len(omega) == 8 * 4 * 2 + 16 * 16 * 2
    assert sum("ok=False" in result for _, _, result in omega) == 8 * 3 * 2  # each broken order fails both certificates
    assert omega[-2:] == [["ω-model np.uint8(5) np.uint8(5)", op, "(5, 'int')"] for op in ("om_meet", "om_join")]
    checks = [check for _, check, _ in lines[:21]]
    assert checks[:2] == ["axioms", "regular"] and checks[-3:] == [
        "check_implication_chain", "check_prop_joins", "check_section_exists"]
    structures = [name for name, _, _ in lines[::21]]
    assert len(structures) == 529 and {"P(3,2) x M3", "M3 x P(3,2)", "X2 x chain 32"} <= set(structures)
    assert [fields[:2] for fields in lines] == [[name, check] for name in structures for check in checks]
    assert not any("InternalConsistencyError" in result for _, _, result in lines)
