"""Run one workload in this process and print one JSON line.

bench/run.py starts this script once per set-up sample and once per
measured run, so that each process runs a single workload and its peak
RSS is that workload's alone.

    python3 bench/worker.py --workload NAME --seed N --seconds S
        [--setup-only] [--trace] [--smoke]

The skewlat package is imported from src/ of the checkout this script
sits in; an installed copy is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from spans import NULL, SpanView, Tracer, patched

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".bench_runs")


def _import_workloads():
    """Import skewlat from src/ and then the workloads, which use it."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import skewlat

    want = os.path.join(ROOT, "src", "skewlat")
    got = os.path.dirname(os.path.abspath(skewlat.__file__))
    if got != want:
        raise SystemExit(f"skewlat was imported from {got}, expected {want}")
    import workloads

    return workloads


def measure(wl, inp, seconds: float) -> dict:
    """Untraced passes until ``seconds`` have elapsed (at least one)."""
    passes, ops = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        out = wl.run(inp, NULL)
        passes.append(time.perf_counter() - t)
        ops += wl.check(inp, out)
    return {"passes": passes, "ops": ops}


def measure_traced(wl, inp, tr, patches, seconds: float, spans_path: str) -> dict:
    """Pairs of one untraced and one traced pass until ``seconds`` have elapsed.

    Per-layer metrics are the median over the traced passes; the
    tracing overhead is the median traced pass minus the median
    untraced one.  All spans, set-up included, go to ``spans_path``.
    """
    untraced, traced, ops, samples = [], [], [], []
    setup_view = SpanView(tr.of_pass(None))
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        out = wl.run(inp, NULL)
        untraced.append(time.perf_counter() - t)
        ops += wl.check(inp, out)

        tr.pass_id = len(traced)
        with patched(patches):
            t = time.perf_counter()
            with tr.span("bench.pass"):
                out = wl.run(inp, tr)
            traced.append(time.perf_counter() - t)
        ops += wl.check(inp, out)
        samples.append(wl.layers(setup_view, SpanView(tr.of_pass(tr.pass_id)), out))
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tr.dump(), fh)
    layers = {
        name: [statistics.median(s[name][0] for s in samples), unit]
        for name, (_, unit) in samples[0].items()
    }
    layers[f"trace.{wl.name}.overhead_s"] = [statistics.median(traced) - statistics.median(untraced), "s"]
    return {"passes": untraced, "traced_passes": traced, "ops": ops, "layers": layers, "spans": spans_path}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    workloads = _import_workloads()
    import numpy

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=RUN_DIR)
    try:
        tr = Tracer() if args.trace else NULL
        inp = wl.setup(args.seed, args.smoke, tr, workdir)
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            if args.trace:
                spans_path = os.path.join(RUN_DIR, f"spans-{wl.name}-seed{args.seed}.json")
                patches = workloads.traced_patches(tr)
                result.update(measure_traced(wl, inp, tr, patches, args.seconds, spans_path))
            else:
                result.update(measure(wl, inp, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result.pop("ops", [])
    result.update(
        attempted=len(ops),
        failed=sum(problem is not None for _, problem in ops),
        problems=[f"{op}: {problem}" for op, problem in ops if problem is not None][:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
