"""The repository benchmark: four CLI workloads, end-to-end and per-layer.

    python3 bench/run.py --workload projector --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  Each pass runs every job of the
workload's pool once, in an order fixed by the seed and the pass number,
in a fresh interpreter (``worker.py``) with a fixed PYTHONHASHSEED, one
job at a time (closed loop, one client, default ``--threads 1``).
Passes repeat until ``--seconds`` have gone; the first ``MIN_PASSES`` run
whole, later ones start no job after the deadline.  Every job's exit
code and stdout digest are checked against the golden in its pool.
Times are scaled to a reference machine speed (``harness.REFERENCE_S``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (not printed for ``--workload all``).  The
exit code is 0 when the benchmark ran, whether or not every output was
correct, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import harness
import tracing

# Whole passes per run.  Together with the pool size they fix the
# percentile reported as job_ms.tail (see tail_rank).
MIN_PASSES = {"projector": 2, "expand": 2, "enumerate": 5, "oracle-check": 2}

# Set-up-only interpreters started before the passes, so that setup_s is
# a median over several set-ups even when only two passes fit.
SETUP_PROBES = 8

# Every run ends well within this many seconds.
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker(workload: str, seed: int, pass_no: int, *, trace=False, deadline=0.0,
           setup_only=False, stop_at: float) -> dict:
    """Run worker.py once and return its report, with ``setup_s`` scaled
    by reference slices timed just before the spawn and just after set-up."""
    cmd = [sys.executable, os.path.join(harness.BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--pass", str(pass_no)]
    if trace:
        cmd.append("--trace")
    if deadline:
        cmd += ["--deadline", repr(deadline)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=harness.HASH_SEED)
    slice_before = harness.reference_slice()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=harness.ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, stop_at - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {pass_no} of {workload} ran past the {HARD_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = (report["ready"] - spawned) * harness.REFERENCE_S / (
        (slice_before + report["first_slice_s"]) / 2)
    return report


# -- statistics -------------------------------------------------------------------


def tail_rank(n_jobs: int, min_passes: int) -> int:
    """Rank k (1-based, by latency) of the job that gives job_ms.tail.

    Latencies are compared per job, as each job's median over the run,
    which damps the noise of single samples.  k is the largest rank whose
    slower jobs leave at least ten samples beyond it after MIN_PASSES
    whole passes; it reads as percentile (k - 1/2) / n_jobs.
    """
    return max(1, n_jobs - math.ceil(10 / min_passes))


def end_to_end(workload: str, pool: dict, passes: list, setups: list) -> tuple:
    n_jobs = len(pool["jobs"])
    per_job = {}
    for p in passes:
        for job in p["jobs"]:
            per_job.setdefault(job["id"], []).append(job["latency_s"] * job["scale"])
    missing = n_jobs - len(per_job)
    if missing:
        raise BenchError(f"{missing} jobs of {workload} never ran")
    medians = sorted(statistics.median(v) for v in per_job.values())
    n_samples = sum(len(v) for v in per_job.values())
    k = tail_rank(n_jobs, MIN_PASSES[workload])
    tail = medians[k - 1]
    beyond = sum(1 for v in per_job.values() for x in v if x > tail)
    complete = [p for p in passes if p["complete"]]
    metrics = {
        "wall_s": {"value": sum(medians), "unit": "s"},
        "job_ms.p50": {"value": 1000 * statistics.median(medians), "unit": "ms"},
        "job_ms.tail": {"value": 1000 * tail, "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(p["maxrss_kb"] / 1024 for p in complete),
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    pass_walls = ", ".join(f"{p['wall_s']:.2f}" for p in complete)
    notes = {
        "wall_s": f"sum over {n_jobs} jobs of each job's median; "
                  f"unscaled whole-pass walls {pass_walls} s",
        "job_ms.p50": f"median job of {n_jobs}, {n_samples} samples",
        "job_ms.tail": f"p{100 * (k - 0.5) / n_jobs:.1f}: job ranked {k} of {n_jobs}, "
                       f"{beyond} of {n_samples} samples beyond it",
        "peak_rss_mb": f"median ru_maxrss of {len(complete)} whole-pass interpreters",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    return metrics, notes


# -- runs -------------------------------------------------------------------------


def tally(passes: list) -> tuple:
    """(jobs attempted, jobs whose output differs from the golden)."""
    attempted = sum(len(p["jobs"]) for p in passes)
    return attempted, sum(1 for p in passes for j in p["jobs"] if not j["ok"])


def untraced_run(workload: str, seed: int, seconds: int, stop_at: float) -> dict:
    pool = harness.load_pool(workload)
    setups = [worker(workload, seed, -1 - k, setup_only=True, stop_at=stop_at)["setup_s"]
              for k in range(SETUP_PROBES)]
    start = time.monotonic()
    end = start + seconds
    passes = []
    while len(passes) < MIN_PASSES[workload] or time.monotonic() < end:
        partial = len(passes) >= MIN_PASSES[workload]
        p = worker(workload, seed, len(passes), deadline=end if partial else 0.0,
                   stop_at=stop_at)
        setups.append(p["setup_s"])
        if p["jobs"]:
            passes.append(p)
    metrics, notes = end_to_end(workload, pool, passes, setups)
    attempted, failed = tally(passes)
    notes["fail_ratio"] = f"{failed} of {attempted} jobs differ from the golden"
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "passes": len(passes),
        "fail_ratio": failed / attempted,
    }


def traced_run(workload: str, seed: int, seconds: int, stop_at: float) -> dict:
    """Alternate untraced and traced whole passes; at least one of each."""
    start = time.monotonic()
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        plain.append(worker(workload, seed, len(plain), stop_at=stop_at))
        traced.append(worker(workload, seed, len(traced), trace=True, stop_at=stop_at))
        if time.monotonic() + (time.monotonic() - t0) > start + seconds:
            break
    layers = [p["layers"] for p in traced]
    names = tracing.metric_names()
    counts_agree = all(
        all(l[k] == layers[0][k] for l in layers)
        for k in names if not k.endswith("self_s") and k != "trace.overhead_ratio"
    )
    metrics = {}
    for k in names:
        if k == "trace.overhead_ratio":
            value = (statistics.median(p["ref_wall_s"] for p in traced)
                     / statistics.median(p["ref_wall_s"] for p in plain))
            metrics[k] = {"value": value, "unit": "1"}
        elif k.endswith("self_s"):
            metrics[k] = {"value": statistics.median(l[k] for l in layers), "unit": "s"}
        else:
            metrics[k] = {"value": layers[0][k], "unit": "count"}
    attempted, failed = tally(plain + traced)
    return {
        "correct": failed == 0 and counts_agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": {"trace.overhead_ratio": f"{len(traced)} traced and {len(plain)} untraced passes",
                  "counts": "equal in every traced pass" if counts_agree else "DIFFER between passes"},
        "passes": len(plain) + len(traced),
        "fail_ratio": failed / attempted,
    }


def print_summary(workload: str, result: dict):
    print(f"{workload}: {result['passes']} passes, correct={result['correct']}")
    for name, m in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} {note}")
    print(f"  {'fail_ratio':<48} {result['fail_ratio']:>14.6g} {'1':<6} "
          f"{result['notes'].get('fail_ratio', '')}")
    if "counts" in result["notes"]:
        print(f"  counts: {result['notes']['counts']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(harness.SRC_DIR, "gradedtensor", "cli.py")):
        print(f"error: no package source under {harness.SRC_DIR}", file=sys.stderr)
        return 2
    measure = traced_run if args.trace else untraced_run
    workloads = harness.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args.seed, args.seconds, time.monotonic() + HARD_LIMIT_S)
                   for w in workloads}
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for w, result in results.items():
        print_summary(w, result)
    if args.workload != "all":
        result = results[args.workload]
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
