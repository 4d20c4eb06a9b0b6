"""The skewlat benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads (bench/workloads.py says why each was chosen):

  census           enumerate_skew_lattices(n, order_cap=5), n = 1..5
  census_filtered  the order-5 census of left-handed normal classes
  pfn_verify       parse and fully verify P(5,2), a mutated copy and the
                   lemma on P(4,2)
  frames           frame theorem, completeness ladder, prop_joins and
                   sections on 20 structures of order <= 12

Each pass is closed-loop, single-process and single-threaded: it runs
the workload's whole job, waits for it, then the next pass starts.
Every result is checked by an oracle that does not use the package
(bench/oracle.py); a disagreeing or raising operation counts as failed.

--trace 0 measures the named workload untraced and prints the
end-to-end metrics:

  setup_s      process start to the first timed pass (import, build and
               emit the inputs); median of SETUP_SAMPLES processes
  pass_s       median wall-clock seconds of one pass
  peak_rss_mb  ru_maxrss of the process that ran the passes

--trace 1 gives the per-layer metrics.  Each layer is measured on the
workload that exercises it, so a traced run runs every workload, each in
its own process, sharing the --seconds budget between them, and reports
each workload's tracing overhead (traced minus untraced pass_s).

Children run with one thread for OpenMP/BLAS, a fixed hash seed, and
without SKEWLAT_ORDER_CAP, which would also cap the P(m,b) build; caps
are passed as arguments instead.  A record line with the seed, git SHA,
versions, nproc, passes and pass quartiles precedes the result, which is
the last line of standard output:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--smoke runs every workload at a reduced size (for the benchmark's tests).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("census", "census_filtered", "pfn_verify", "frames")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170  # every worker of one invocation must finish within this


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SKEWLAT_ORDER_CAP", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run the worker to completion; returns its JSON line and the start time.

    Both ends read time.monotonic(), which on Linux is one clock for
    every process, so the worker's ready time minus the start time is
    the set-up time including interpreter start.
    """
    t0 = time.monotonic()
    timeout = max(deadline - t0, 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {args} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1]), t0


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def summary(times: list[float]) -> dict:
    """Median, quartiles and sample count; plus the highest percentile
    with at least ten samples beyond it, when that is p50 or above."""
    xs = sorted(times)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = xs[n - 11]
    return out


def run_untraced(a, base: list[str], deadline: float) -> tuple[dict, dict]:
    common = [*base, "--seconds", str(a.seconds)]
    ready = []
    for _ in range(SETUP_SAMPLES - 1):
        res, t0 = spawn(["--workload", a.workload, *common, "--setup-only"], deadline)
        ready.append(res["ready"] - t0)
    res, t0 = spawn(["--workload", a.workload, *common], deadline)
    ready.append(res["ready"] - t0)
    metrics = {
        "setup_s": {"value": statistics.median(ready), "unit": "s"},
        "pass_s": {"value": statistics.median(res["passes"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    record = {
        "setup_samples_s": ready,
        "pass_s": summary(res["passes"]),
        "passes_s": res["passes"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {a.workload: res}, {"metrics": metrics, "record": record}


def run_traced(a, base: list[str], deadline: float) -> tuple[dict, dict]:
    children, metrics, record = {}, {}, {}
    share = str(a.seconds / len(WORKLOADS))
    for name in WORKLOADS:
        res, _ = spawn(["--workload", name, *base, "--seconds", share, "--trace"], deadline)
        children[name] = res
        for metric, (value, unit) in res["layers"].items():
            metrics[metric] = {"value": value, "unit": unit}
        record[name] = {
            "untraced_pass_s": summary(res["passes"]),
            "traced_pass_s": summary(res["traced_passes"]),
            "spans": os.path.relpath(res["spans"], ROOT),
        }
    return children, {"metrics": metrics, "record": record}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "skewlat", "__init__.py")):
        print(f"bench: no skewlat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    base = ["--seed", str(a.seed)] + (["--smoke"] if a.smoke else [])
    try:
        children, out = (run_traced if a.trace else run_untraced)(a, base, deadline)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children.values())
    failed = sum(c["failed"] for c in children.values())
    any_child = next(iter(children.values()))
    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "smoke": a.smoke,
        "git_sha": git_sha(),
        "python": any_child["python"],
        "numpy": any_child["numpy"],
        "nproc": os.cpu_count(),
        "passes_per_run": {name: len(c["passes"]) for name, c in children.items()},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else None,
        "problems": [f"{name}: {msg}" for name, c in children.items() for msg in c["problems"]],
        **out["record"],
    }
    for msg in record["problems"]:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
