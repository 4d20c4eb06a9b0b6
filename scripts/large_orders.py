"""Time and size the steps of ``skewlat theorem`` on P(m,2), each in its own process.

    python3 scripts/large_orders.py 6 7

For each m on the command line it runs five steps on the partial-function
algebra P(m,2) (order 3**m), each in a fresh Python process that imports
the package from this checkout's ``src``:

- ``build``: ``build_pfn_algebra(m, 2)``;
- ``validate``: the build, then the axiom scan (``S.validity``);
- ``emit``: ``skewlat paper pfn --sizes m,2``, written to a temporary file;
- ``parse``: reading that file and ``parse``, as ``skewlat theorem`` does;
- ``theorem``: ``skewlat theorem`` on that file (parse, validation and the
  frame theorem).

Each line gives the step's own wall time, measured inside its process
around the step alone (so the build is not counted in ``validate``), and
the peak resident set size of that whole process (``ru_maxrss``), which
includes the interpreter, numpy and any setup.  Run it on two trees to
compare them; the build cap (4096) allows m ≤ 7.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

STEP = """
import contextlib, os, resource, sys, time
sys.path.insert(0, sys.argv[1])
from skewlat.cli import main, parse
from skewlat.models import build_pfn_algebra

step, m, path = sys.argv[2], int(sys.argv[3]), sys.argv[4]
if step == "validate":
    S = build_pfn_algebra(m, 2)
start = time.perf_counter()
code = 0
if step == "build":
    build_pfn_algebra(m, 2)
elif step == "validate":
    code = 0 if S.validity.ok else 1
elif step == "parse":
    with open(path, encoding="utf-8") as fh:
        parse(fh.read())
else:
    args = ["paper", "pfn", "--sizes", f"{m},2"] if step == "emit" else ["theorem", path]
    with open(path if step == "emit" else os.devnull, "w") as out, contextlib.redirect_stdout(out):
        code = main(args)
seconds = time.perf_counter() - start
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, code)
"""

STEPS = ("build", "validate", "emit", "parse", "theorem")


def run_step(step: str, m: int, path: str) -> tuple[float, float, int]:
    """(seconds, peak RSS in MB, exit code of the step) for one step in a fresh process."""
    out = subprocess.run([sys.executable, "-c", STEP, SRC, step, str(m), path], capture_output=True, text=True, check=True)
    seconds, kb, code = out.stdout.split()
    return float(seconds), int(kb) / 1024, int(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("m", type=int, nargs="+", help="domain size of P(m,2)")
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for m in parser.parse_args().m:
            path = str(Path(tmp) / f"pfn-{m}-2.sl")
            for step in STEPS:
                seconds, mb, code = run_step(step, m, path)
                failures += code != 0
                print(f"P({m},2)\t{step}\t{seconds:.3f} s\t{mb:.0f} MB\texit {code}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
