"""Self-tests of the benchmark.

    python3 -m pytest -q bench/tests

The traced passes run in worker interpreters, as in a benchmark run, so
the wrappers never touch the package in this process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 7


def traced_pass(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--pass", "0", "--trace"],
        cwd=harness.ROOT, env=dict(os.environ, PYTHONHASHSEED=harness.HASH_SEED),
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=harness.WORKLOADS)
def traced(request):
    return request.param, traced_pass(request.param)


def layer_calls(report: dict, layer: str) -> int:
    return sum(
        v for k, v in report["layers"].items()
        if k.startswith(layer + ".") and k.endswith(".calls")
    )


def test_traced_outputs_match_goldens(traced):
    workload, report = traced
    assert len(report["jobs"]) == len(harness.load_pool(workload)["jobs"])
    wrong = [j["id"] for j in report["jobs"] if not j["ok"]]
    assert wrong == []


def test_self_times_add_up_to_job_wall(traced):
    _, report = traced
    for job in report["jobs"]:
        # the job wall also covers capturing stdout around cli.run
        assert job["self_s"] <= job["latency_s"]
        assert job["latency_s"] - job["self_s"] < 0.002 + 0.02 * job["latency_s"], job["id"]


def test_spans_file_matches_counts(traced):
    workload, report = traced
    spans = tracing.read_spans(os.path.join(harness.OUT_DIR, f"spans-{workload}-pass0.bin"))
    assert spans["names"] == tracing.span_names()
    root = spans["names"].index(tracing.ROOT_SPAN)
    assert sum(1 for nid in spans["name_id"] if nid == root) == len(report["jobs"])
    for i, p in enumerate(spans["parent"]):
        assert p < i
        if p >= 0:
            assert spans["start"][p] <= spans["start"][i] <= spans["end"][i] <= spans["end"][p]
            assert spans["job"][p] == spans["job"][i]
        else:
            assert spans["name_id"][i] == root


def test_layers_isolated_as_the_workloads_claim(traced):
    workload, report = traced
    layers = report["layers"]
    assert set(layers) == set(tracing.metric_names()) - {"trace.overhead_ratio"}
    if workload in ("expand", "enumerate"):
        assert layer_calls(report, "representation") == 0
    if workload != "oracle-check":
        assert layer_calls(report, "oracle") == 0
    if workload in ("projector", "enumerate"):
        assert layers["model.wick_expand.graphs"] == 0
    if workload == "enumerate":
        assert layer_calls(report, "polynomial") == 0


def test_copied_bindings_are_traced(traced):
    """Calls made through a `from x import y` copy are counted too."""
    workload, report = traced
    layers = report["layers"]
    if workload == "projector":
        # representation calls its own copies of these names
        assert layers["young.young_symmetrizer.calls"] > 0
        assert layers["brauer.multiply.calls"] > 0
        assert layers["representation.irreducible_projector.calls"] == 150
    if workload == "expand":
        assert layers["combinatorics.face_decomposition.calls"] == layers["model.wick_expand.graphs"]
    if workload == "oracle-check":
        assert layers["combinatorics.pairing_sign.calls"] > 0
        assert layers["combinatorics.all_pairings.items"] > 0


def test_same_seed_same_job_list():
    for workload in harness.WORKLOADS:
        pool = harness.load_pool(workload)
        ids = sorted(j["id"] for j in pool["jobs"])
        first = [j["id"] for j in harness.job_order(pool, SEED, 0)]
        assert first == [j["id"] for j in harness.job_order(pool, SEED, 0)]
        assert sorted(first) == ids  # every job once per pass
        others = {tuple(j["id"] for j in harness.job_order(pool, s, 0)) for s in range(5)}
        assert len(others) > 1 or len(ids) < 3


def test_tail_leaves_ten_samples_beyond():
    for workload, passes in run.MIN_PASSES.items():
        n = len(harness.load_pool(workload)["jobs"])
        k = run.tail_rank(n, passes)
        assert (n - k) * passes >= 10
        assert (n - k - 1) * passes < 10


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enumerate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
