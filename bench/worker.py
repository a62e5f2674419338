"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py --workload W --seed S --pass P [--trace] [--deadline T]
                            [--setup-only]

Imports the package from ``src/``, loads the pool and writes its input
files (the set-up), then runs the pass's jobs one at a time through
``gradedtensor.cli.run`` and prints one JSON line: the set-up end on
the monotonic clock, per job the latency, its speed scale (see
``harness.REFERENCE_S``), exit code and whether stdout matched the
golden, the pass wall time and ``ru_maxrss``.  With ``--deadline``
(monotonic seconds) no job starts after the deadline.  With ``--trace``
the package is wrapped first (see ``tracing.py``), the spans are written
to ``bench/out/`` and the per-layer sums are added to the line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_no", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--deadline", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, harness.SRC_DIR)
    import gradedtensor.cli as cli

    if not os.path.abspath(cli.__file__).startswith(harness.SRC_DIR + os.sep):
        raise SystemExit(f"gradedtensor imported from {cli.__file__}, not from {harness.SRC_DIR}")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    pool = harness.load_pool(args.workload)
    input_dir = os.path.join(harness.OUT_DIR, f"inputs-{os.getpid()}")
    try:
        paths = harness.write_inputs(pool, input_dir)
        ready = time.monotonic()
        report = {"ready": ready, "first_slice_s": harness.reference_slice(), "jobs": []}
        if not args.setup_only:
            report.update(run_pass(cli, pool, paths, args, tracer, report["first_slice_s"]))
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        summary = tracer.summary({job["index"]: job["scale"] for job in report["jobs"]})
        report["layers"] = summary["metrics"]
        for job in report["jobs"]:
            job["self_s"] = summary["job_self_s"].get(job["index"], 0.0)
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(harness.OUT_DIR, f"spans-{args.workload}-pass{args.pass_no}.bin"))
    print(json.dumps(report))
    return 0


def run_pass(cli, pool, paths, args, tracer, slice_before) -> dict:
    # Probing inside a job would land in the open spans of a traced pass.
    probe = None if tracer is not None else harness.SpeedProbe()
    jobs = []
    complete = True
    wall = 0.0
    for index, job in enumerate(harness.job_order(pool, args.seed, args.pass_no)):
        if args.deadline and time.monotonic() >= args.deadline:
            complete = False
            break
        argv = harness.resolve_argv(job["argv"], paths)
        if tracer is not None:
            tracer.current_job = index
        if probe is not None:
            probe.start()
        t0 = time.perf_counter()
        code, out = harness.run_cli(cli.run, argv)
        latency = time.perf_counter() - t0
        units = []
        if probe is not None:
            probe.stop()
            latency -= probe.stolen
            units = probe.units
        wall += latency
        if tracer is not None:
            tracer.current_job = -1
        slice_after = harness.reference_slice()
        units = units + [slice_before, slice_after]
        scale = harness.REFERENCE_S / (sum(units) / len(units))
        slice_before = slice_after
        ok = code == job["exit"] and harness.digest(out) == job["sha256"]
        jobs.append({"index": index, "id": job["id"], "latency_s": latency, "scale": scale,
                     "exit": code, "ok": ok})
    return {
        "jobs": jobs,
        "complete": complete,
        "wall_s": wall,
        "ref_wall_s": sum(j["latency_s"] * j["scale"] for j in jobs),
    }


if __name__ == "__main__":
    sys.exit(main())
