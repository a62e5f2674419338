"""Generate the benchmark's job pools and record their goldens.

    python3 bench/make_pools.py

Writes ``bench/pools/<workload>.json``.  Random graphs and tables come
from POOL_SEED alone, so a rerun at the same commit writes the same
files.  The goldens (exit code and stdout digest per job) are the
outputs of the CLI at the commit that runs this script: rerun it only in
a change that deliberately redefines the benchmark.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import sys
from fractions import Fraction

import harness

sys.path.insert(0, harness.SRC_DIR)

from gradedtensor.cli import run  # noqa: E402
from gradedtensor.combinatorics import all_pairings  # noqa: E402
from gradedtensor.model import StrandedGraph  # noqa: E402
from gradedtensor.young import partitions  # noqa: E402

POOL_SEED = 20230704

WHY = {
    "projector": (
        "Irreducible projectors for |lambda| <= 3 at N = 2..6 and |lambda| = 4 at N = 2, "
        "both gradings, with and without --decompose. Time goes to representation "
        "(N^D matrices, the Krylov minimal polynomial, dense rank, idempotence) and "
        "brauer.multiply; no Wick or enumeration work runs. The closed-form spectrum "
        "must show here."
    ),
    "expand": (
        "amplitude at b = 0 and 1, duality-check and expand --order 2 on term-table "
        "propagators: the decomposed (2), (1,1) tables at D = 2, the (3), (2,1) tables "
        "at D = 3 and tables with z-polynomial weights. Connected graphs with D = 2, "
        "v = 4, 6, 8 and D = 3, v = 2, 4, 6, so (2p-1)!! T^p ranges from tens of Wick "
        "graphs to 5e4. Time goes to model, polynomial and combinatorics; "
        "representation does no work. The merged-state Wick fold and peak memory "
        "must show here."
    ),
    "enumerate": (
        "enumerate --json for (D, v) in (2,4), (2,5), (3,2), (3,4), (4,2), (4,3), (5,2), "
        "(6,2), and with --slot-symmetries for (2,4), (3,2), (4,2). Time goes to the "
        "relabeling search in model and to combinatorics.all_pairings; (6,2) prints "
        "5,243 classes, which also loads cli. Canonical refinement must show here."
    ),
    "oracle-check": (
        "oracle-check on connected graphs with D = 2, 3, 4, v = 2, 4, N = 2, 3 (b = 1 "
        "only at N = 2) with the identity and full-symmetrizer tables. D = 3, b = 1 runs "
        "the fermionic Berezin path, the rest is bosonic. Without this pool the oracle "
        "goes unmeasured; merging its elimination routines must cost nothing here."
    ),
}

EXCLUDED = {
    "projector": [
        "lambda of size 4 at N >= 3: 1.2-10 s per job, up to 85 s at N = 6",
        "D = 5 at N = 4, whose arc-sum spectrum alone takes 80 s",
    ],
    "expand": [
        "the two-tetrahedron Wick case (D = 3, v = 8, T = 15: 105 * 15^4 = 5.3M graphs)",
        "duality-check and expand on {\"projector\": ...} models, whose output a planned "
        "fix changes on purpose",
    ],
    "enumerate": [
        "(2, 5) with --slot-symmetries: 9.7 s",
        "(2, 6): 19 s",
        "(4, 4): does not finish in about 5 minutes",
    ],
    "oracle-check": [],
}


def lam_arg(lam):
    return ",".join(str(r) for r in lam)


def random_connected_graph(rng, D, v):
    nodes = list(range(1, D * v + 1))
    while True:
        rng.shuffle(nodes)
        strands = tuple(zip(nodes[0::2], nodes[1::2]))
        g = StrandedGraph(D, v, strands)
        if g.is_connected():
            return g


def distinct_graphs(rng, D, v, count):
    out, seen = [], set()
    while len(out) < count:
        g = random_connected_graph(rng, D, v)
        if g.strands not in seen:
            seen.add(g.strands)
            out.append(g)
    return out


def decomposed_table(lam, N):
    """A projector's diagram-basis table, read as a term-table propagator."""
    code, out = harness.run_cli(
        run, ["projector", lam_arg(lam), "--N", str(N), "--decompose", "--json"]
    )
    assert code == 0, (lam, N, code)
    terms = json.loads(out)["decomposition"]["terms"]
    return {
        "terms": [
            {"pairs": t["diagram"]["pairs"], "gamma": t["coeff"][0]}
            for t in terms
        ]
    }


def zpoly_table(rng, D, count):
    """A README-style table: z-polynomial weights on random pairings.

    The identity pairing is always present, so the weights never all
    vanish at a grading."""
    ident = tuple((c, D + c) for c in range(1, D + 1))
    others = [p for p in all_pairings(2 * D) if p != ident]
    chosen = [ident] + rng.sample(others, count - 1)

    def coeff():
        return str(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4])))

    terms = []
    for pairs in chosen:
        gamma = {str(k): coeff() for k in range(rng.choice([1, 2]))}
        terms.append({"pairs": [list(p) for p in pairs], "gamma": gamma})
    return {"terms": terms}


def symmetrizer_table(D):
    """(1/D!) times the sum over slot permutations: the full symmetrizer."""
    w = str(Fraction(1, math.factorial(D)))
    return {
        "terms": [
            {"pairs": [[c, D + 1 + p[c - 1]] for c in range(1, D + 1)], "gamma": w}
            for p in itertools.permutations(range(D))
        ]
    }


def identity_table(D):
    return {"terms": [{"pairs": [[c, D + c] for c in range(1, D + 1)], "gamma": "1"}]}


# -- pools -----------------------------------------------------------------------


def projector_jobs():
    jobs = []
    cases = [(lam, N) for d in (2, 3) for lam in partitions(d) for N in range(2, 7)]
    cases += [(lam, 2) for lam in partitions(4)]
    for lam, N in cases:
        for b in (0, 1):
            if b == 1 and N % 2:
                continue
            for decompose in (False, True):
                argv = ["projector", lam_arg(lam), "--N", str(N), "--b", str(b), "--json"]
                if decompose:
                    argv.append("--decompose")
                jobs.append(argv)
    return {}, jobs


def expand_jobs(rng):
    files = {
        "d2_sym.json": decomposed_table((2,), 3),
        "d2_anti.json": decomposed_table((1, 1), 3),
        "d2_z.json": zpoly_table(rng, 2, 3),
        "d3_sym.json": decomposed_table((3,), 3),
        "d3_mixed.json": decomposed_table((2, 1), 3),
        "d3_z.json": zpoly_table(rng, 3, 6),
    }
    jobs = []

    def graph_file(g, tag):
        name = f"g_{tag}.json"
        files[name] = g.to_json()
        return name

    # amplitude: (D, v, graphs, tables) chosen so each size class appears
    # with every table that keeps the job under about a second, plus the
    # one 5e4-graph case.
    amplitude_cases = [
        (2, 4, 2, ["d2_sym", "d2_anti", "d2_z"]),
        (2, 6, 2, ["d2_sym", "d2_anti", "d2_z"]),
        (2, 8, 1, ["d2_sym", "d2_anti"]),
        (3, 2, 2, ["d3_sym", "d3_mixed", "d3_z"]),
        (3, 4, 2, ["d3_sym", "d3_mixed", "d3_z"]),
        (3, 6, 1, ["d3_z"]),
    ]
    for D, v, count, tabs in amplitude_cases:
        for k, g in enumerate(distinct_graphs(rng, D, v, count)):
            gname = graph_file(g, f"d{D}_v{v}_{k}")
            for t in tabs:
                for b in (0, 1):
                    jobs.append(
                        ["amplitude", "--graph", f"@{gname}", "--propagator",
                         f"@{t}.json", "--b", str(b), "--json"]
                    )
    # The 6-vertex graph of the ROADMAP baseline with the 15-term table:
    # 15 * 15^3 = 50,625 Wick graphs, the largest job and the peak memory.
    six = StrandedGraph(3, 6, ((1, 4), (2, 7), (3, 10), (5, 13), (6, 16), (8, 11),
                               (9, 14), (12, 17), (15, 18)))
    gname = graph_file(six, "d3_v6_roadmap")
    jobs.append(["amplitude", "--graph", f"@{gname}", "--propagator", "@d3_sym.json",
                 "--b", "0", "--json"])

    def model(D, b, table, graphs):
        return {
            "D": D,
            "b": b,
            "propagator": files[f"{table}.json"],
            "interactions": [
                {"name": f"g{k}", "graph": g.to_json()} for k, g in enumerate(graphs)
            ],
        }

    # duality-check: one or two interactions per model
    duality_cases = [
        (2, [4], "d2_sym"), (2, [4, 6], "d2_z"), (2, [6], "d2_anti"),
        (3, [2], "d3_sym"), (3, [2, 4], "d3_mixed"), (3, [4], "d3_z"),
    ]
    for k, (D, vs, table) in enumerate(duality_cases):
        graphs = [distinct_graphs(rng, D, v, 1)[0] for v in vs]
        name = f"dual_{k}.json"
        files[name] = model(D, 0, table, graphs)
        jobs.append(["duality-check", "--model", f"@{name}", "--json"])

    # expand --order 2: squares of small interactions
    expand_cases = [
        (2, 0, [4], "d2_sym"), (2, 1, [4], "d2_anti"), (2, 1, [4], "d2_z"),
        (3, 0, [2], "d3_sym"), (3, 1, [2, 2], "d3_mixed"), (3, 0, [2], "d3_z"),
    ]
    for k, (D, b, vs, table) in enumerate(expand_cases):
        graphs = [distinct_graphs(rng, D, v, 1)[0] for v in vs]
        name = f"expand_{k}.json"
        files[name] = model(D, b, table, graphs)
        jobs.append(["expand", "--model", f"@{name}", "--order", "2", "--json"])
    return files, jobs


def enumerate_jobs():
    plain = [(2, 4), (2, 5), (3, 2), (3, 4), (4, 2), (4, 3), (5, 2), (6, 2)]
    sym = [(2, 4), (3, 2), (4, 2)]
    jobs = [["enumerate", "--D", str(D), "--vertices", str(v), "--json"] for D, v in plain]
    jobs += [
        ["enumerate", "--D", str(D), "--vertices", str(v), "--slot-symmetries", "--json"]
        for D, v in sym
    ]
    return {}, jobs


def oracle_jobs(rng):
    files = {}
    jobs = []
    for D in (2, 3, 4):
        files[f"id_d{D}.json"] = identity_table(D)
        files[f"sym_d{D}.json"] = symmetrizer_table(D)
        for v in (2, 4):
            for k, g in enumerate(distinct_graphs(rng, D, v, 2)):
                gname = f"g_d{D}_v{v}_{k}.json"
                files[gname] = g.to_json()
                table = "id" if k == 0 else "sym"
                for N, b in ((2, 0), (3, 0), (2, 1)):
                    jobs.append(
                        ["oracle-check", "--graph", f"@{gname}", "--propagator",
                         f"@{table}_d{D}.json", "--N", str(N), "--b", str(b), "--json"]
                    )
    return files, jobs


def job_id(argv):
    return " ".join(a[1:] if a.startswith("@") else a for a in argv)


def build(workload, files, argvs, scratch):
    paths = harness.write_inputs({"files": files}, scratch)
    jobs = []
    for argv in argvs:
        code, out = harness.run_cli(run, harness.resolve_argv(argv, paths))
        jobs.append(
            {"id": job_id(argv), "argv": argv, "exit": code, "sha256": harness.digest(out)}
        )
    ids = [j["id"] for j in jobs]
    assert len(set(ids)) == len(ids), f"duplicate job in {workload}"
    return {
        "workload": workload,
        "pool_seed": POOL_SEED,
        "why": WHY[workload],
        "excluded_as_too_slow_or_changing": EXCLUDED[workload],
        "files": files,
        "jobs": jobs,
    }


def main():
    rng = random.Random(POOL_SEED)
    makers = {
        "projector": projector_jobs,
        "expand": lambda: expand_jobs(rng),
        "enumerate": enumerate_jobs,
        "oracle-check": lambda: oracle_jobs(rng),
    }
    scratch = os.path.join(harness.OUT_DIR, "make_pools")
    try:
        for workload in harness.WORKLOADS:
            files, argvs = makers[workload]()
            pool = build(workload, files, argvs, os.path.join(scratch, workload))
            with open(harness.pool_path(workload), "w", encoding="utf-8") as fh:
                json.dump(pool, fh, indent=1, sort_keys=True)
                fh.write("\n")
            codes = sorted({str(j["exit"]) for j in pool["jobs"]})
            print(f"{workload}: {len(pool['jobs'])} jobs, exit codes {', '.join(codes)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
