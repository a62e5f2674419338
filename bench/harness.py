"""Shared pieces of the benchmark: pools, input files, job order and job runs.

A pool file (``bench/pools/<workload>.json``) holds the input files the
jobs read, the jobs themselves (a CLI argv) and, per job, the golden exit
code and SHA-256 of stdout recorded when the pool was made.  In an argv,
``@name`` stands for the path of input file ``name`` once written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import signal
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
POOL_DIR = os.path.join(BENCH_DIR, "pools")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("projector", "expand", "enumerate", "oracle-check")

# Worker processes get a fixed hash seed so that every pass of every run
# iterates sets and dicts of strings in the same order.
HASH_SEED = "0"


def pool_path(workload: str) -> str:
    return os.path.join(POOL_DIR, f"{workload}.json")


def load_pool(workload: str) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    with open(pool_path(workload), "r", encoding="utf-8") as fh:
        return json.load(fh)


def job_order(pool: dict, seed: int, pass_no: int) -> list:
    """The jobs of one pass: every pool job once, in an order fixed by
    (workload, seed, pass number)."""
    jobs = list(pool["jobs"])
    random.Random(f"{pool['workload']}:{seed}:{pass_no}").shuffle(jobs)
    return jobs


def write_inputs(pool: dict, directory: str) -> dict:
    """Write the pool's input files; return a map from name to path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, content in sorted(pool.get("files", {}).items()):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh, sort_keys=True)
        paths[name] = path
    return paths


def resolve_argv(argv: list, paths: dict) -> list:
    return [paths[a[1:]] if a.startswith("@") else a for a in argv]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(run, argv: list):
    """Call ``cli.run(argv)`` with stdout and stderr captured.

    Returns (exit code, stdout).  An exception escaping the CLI becomes
    the exit code ``"raised <type>"``, which matches no golden.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:  # a crash is a wrong answer, not a benchmark error
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue()


# -- machine speed ----------------------------------------------------------------
#
# The speed of a shared VM drifts by up to a factor of two within seconds
# (neighbours on the same cores; no steal time, CPU time equals wall
# time).  Workers therefore time a fixed reference unit of work, which
# never imports the package, before the first job, after every job and,
# through SpeedProbe, every PROBE_INTERVAL_S during a job.  A job's
# latency is multiplied by REFERENCE_S over the mean duration of those
# units: times are reported in seconds at the speed at which one unit
# takes REFERENCE_S, which cancels the drift the program shares with the
# reference.

REFERENCE_S = 0.00015  # a typical unit on the 2-core VM the pools were sized on
PROBE_INTERVAL_S = 0.01


def reference_unit() -> float:
    """Seconds for one unit of exact rational sums and tuple-keyed dict
    updates, what the package spends its time on."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(1, i)
    counts = {}
    for p in itertools.permutations(range(5)):
        counts[p] = counts.get(p[::-1], 0) + 1
    return time.perf_counter() - t0


def reference_slice() -> float:
    """The median of five units, timed between jobs."""
    return sorted(reference_unit() for _ in range(5))[2]


class SpeedProbe:
    """Times one reference unit every PROBE_INTERVAL_S while running.

    The units run in a SIGALRM handler on the main thread; ``stolen`` is
    the time they took, which the caller subtracts from the job."""

    def __init__(self):
        self.units = []
        self.stolen = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.units.append(reference_unit())
        self.stolen += time.perf_counter() - t0

    def start(self):
        self.units, self.stolen = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
