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
    assert [fields[:2] for fields in lines] == [["P(2,2)", step] for step in ("build", "validate", "identities", "emit", "parse", "theorem")]
    for _, _, seconds, mb, code in lines:
        assert seconds.endswith(" s") and float(seconds[:-2]) >= 0
        assert mb.endswith(" MB") and float(mb[:-3]) > 0
        assert code == "exit 0"


# the census to order 5, pinned: any change to a class, its tables or zero, or the
# order the census yields them in changes a SHA-256
CENSUS_DIGEST_5 = (
    "order 1\tnone\t1 classes\tsha256 0dd58fd377cbfb0430920ec88cd53bd9fa72d7fb5913114b15719c3cc89ce6f4\n"
    "order 1\tleft_handed\t1 classes\tsha256 0dd58fd377cbfb0430920ec88cd53bd9fa72d7fb5913114b15719c3cc89ce6f4\n"
    "order 1\tnormal\t1 classes\tsha256 0dd58fd377cbfb0430920ec88cd53bd9fa72d7fb5913114b15719c3cc89ce6f4\n"
    "order 1\tleft_handed+normal\t1 classes\tsha256 0dd58fd377cbfb0430920ec88cd53bd9fa72d7fb5913114b15719c3cc89ce6f4\n"
    "order 2\tnone\t3 classes\tsha256 2ef60e6b66ba5d2ff469e017ff2904b51708385c53c4124cad769620c6b7e5f9\n"
    "order 2\tleft_handed\t2 classes\tsha256 79372ae2b9773013e23988f11764c08ebbf39d4c1717a1e726aa8dfc28432900\n"
    "order 2\tnormal\t3 classes\tsha256 2ef60e6b66ba5d2ff469e017ff2904b51708385c53c4124cad769620c6b7e5f9\n"
    "order 2\tleft_handed+normal\t2 classes\tsha256 79372ae2b9773013e23988f11764c08ebbf39d4c1717a1e726aa8dfc28432900\n"
    "order 3\tnone\t7 classes\tsha256 e454e1895bdf8780f08f3e293e892ca6b85ac28abb40ae98f8aec8c615cbced3\n"
    "order 3\tleft_handed\t4 classes\tsha256 e82b57e259ae26e6edaaf03089ed462d8baad2f354e844c5f77bc69625217526\n"
    "order 3\tnormal\t5 classes\tsha256 70bbca546c7f24f721fb5f3c73569a95199df5e569d70817cd050bf79f7dfb32\n"
    "order 3\tleft_handed+normal\t3 classes\tsha256 3ecf8eed6bb3bfdb92168993ef5181a51986353482288bd00d57f1328e1b946f\n"
    "order 4\tnone\t21 classes\tsha256 d3426d9aa9e2b61180e45c535b316e9caea2618813f5da4e3837c2ae63637de6\n"
    "order 4\tleft_handed\t10 classes\tsha256 b5ce1dd894269e69ec0b9a25511ad0e243c7953003c399db2246b5a2fdd8453a\n"
    "order 4\tnormal\t11 classes\tsha256 3a5cb07ce2752bf519e5a54d6fd0bd348cecdc59c260bd0736553fb8faa19460\n"
    "order 4\tleft_handed+normal\t6 classes\tsha256 5e21360c11124af94d879d37e2c5d3ba102309ddeb19d2679b32b648990f1513\n"
    "order 5\tnone\t53 classes\tsha256 b6d7825b59b422423ef36dea3351ed276357573e6890829cf5068575a74f8547\n"
    "order 5\tleft_handed\t23 classes\tsha256 2d161385ab93dc4cd3b90863d383006aeb7471662329f005bbf3976991573b79\n"
    "order 5\tnormal\t16 classes\tsha256 0c8cb939738047eaa3b4a5dde594c241f0b86841fb1dddd6f729bc53e5edcb99\n"
    "order 5\tleft_handed+normal\t10 classes\tsha256 e328acf1ccbc2669ece041cded154e7f4aa2192aae9ce7f16e44ae6136d9a79c\n"
)


def test_census_digest_prints_one_line_per_order_and_filter():
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "census_digest.py"), "5"], capture_output=True, text=True, timeout=120, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == CENSUS_DIGEST_5


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
