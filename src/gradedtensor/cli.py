"""Command-line surface.

Subcommands: dim, projector, amplitude, duality-check, enumerate,
expand, oracle-check.  Output is deterministic for fixed input; --json
switches to machine-readable reports.  Exit codes: 0 success or
verdict-true, 1 verdict-false, 2 usage error, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import signal
import sys
from fractions import Fraction
from typing import Optional

from . import oracle as oracle_mod
from . import representation as rep_mod
from .errors import CapExceededError
from .model import (
    Interaction,
    ModelSpec,
    Propagator,
    StrandedGraph,
    _field,
    _integer,
    _size,
    duality_check,
    enumerate_invariants,
    gaussian_expectation,
    perturbative_expansion,
)
from .representation import GradedForm, grading_bit
from .young import YoungDiagram, gl_dimension_poly, transpose

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAP = 3

CLASS_CHUNK = 1024  # enumerate class lines per write to stdout


def _parse_partition(text: str) -> YoungDiagram:
    try:
        rows = tuple(int(x) for x in text.split(","))
        return YoungDiagram(rows)
    except ValueError as exc:
        raise ValueError(f"invalid partition {text!r}: {exc}") from exc


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _read(path: str, parse):
    """`parse` applied to a JSON file; its errors name the file and any missing field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except KeyError as exc:
        raise ValueError(f"{path}: missing field '{exc.args[0]}'") from exc
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _propagator_from_spec(spec: dict, D: int, b: int, N: Optional[int]) -> Propagator:
    """Build a propagator from a model file's propagator block.

    Either a diagram-basis table {"terms": [...]} or a named projector
    {"projector": {"lambda": [...], "scale": "p/q"}}; the projector form
    needs a concrete N to extract the spectrum.  Every field is checked
    before the projector is built.
    """
    if "terms" in spec:
        return Propagator.from_json({"D": D, "terms": spec["terms"]})
    if "projector" in spec:
        proj = spec["projector"]
        lam = _field(proj, "lambda", lambda rows: YoungDiagram(tuple(map(_integer, rows))))
        scale = _field(proj, "scale", lambda x: Fraction(str(x))) if "scale" in proj else None
        if lam.size != D:
            raise ValueError(f"field 'lambda': a partition of {lam.size} does not match D = {D}")
        if N is None:
            raise ValueError("projector propagators need a concrete \"N\" in the model file")
        element = rep_mod.decompose_projector_as_propagator(lam, GradedForm(N, b))
        if scale is not None:
            element = element.scaled(scale)
        return Propagator.from_brauer_element(element)
    raise ValueError("propagator block needs either \"terms\" or \"projector\"")


def _dimension(data: dict, b: int, given: Optional[int] = None) -> Optional[int]:
    """A JSON file's own "N", checked against the form of grading b.

    A null or missing "N" falls back to `given` (the --N option, if any);
    one that differs from it is an error, not a second dimension.
    """
    if data.get("N") is None:
        return given

    def parse(value) -> int:
        n = GradedForm(_integer(value), b).N
        if given is not None and n != given:
            raise ValueError(f"{n} differs from --N {given}")
        return n

    return _field(data, "N", parse)


def _read_propagator(path: str, D: int, b: int, N: Optional[int]) -> Propagator:
    """A propagator file, with its own "N" (see `_dimension`)."""
    return _read(path, lambda data: _propagator_from_spec(data, D, b, _dimension(data, b, N)))


def _model_from_json(data: dict) -> ModelSpec:
    def interactions(items) -> tuple:
        return tuple(Interaction(it["name"], StrandedGraph.from_json(it["graph"])) for it in items)

    D = _field(data, "D", _size)
    b = _field(data, "b", lambda value: grading_bit(_integer(value))) if "b" in data else 0
    N = _dimension(data, b)
    prop = _field(data, "propagator", lambda spec: _propagator_from_spec(spec, D, b, N))
    found = _field(data, "interactions", interactions) if "interactions" in data else ()
    return ModelSpec(D, b, prop, found)


# -- subcommands ----------------------------------------------------------------


def _emit(args, data, lines) -> None:
    """A subcommand's report: `data` as one sorted-key JSON line under
    --json, else each text line of `lines()`, which runs only then."""
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        for line in lines():
            print(line)


def _cmd_dim(args) -> int:
    lam = _parse_partition(args.partition)
    dual = transpose(lam)
    poly, dual_poly = gl_dimension_poly(lam), gl_dimension_poly(dual)
    data = {
        "partition": list(lam.rows),
        "dimension": poly.to_coeff_map(),
        "transpose": list(dual.rows),
        "transpose_dimension": dual_poly.to_coeff_map(),
    }
    _emit(args, data, lambda: [f"dim({lam}) = {poly.format('N')}", f"dim({dual}) = {dual_poly.format('N')}"])
    return EXIT_OK


def _cmd_projector(args) -> int:
    lam = _parse_partition(args.partition)
    form = GradedForm(args.N, args.b)
    if args.decompose:
        rep_mod.check_table_cap(lam.size)
    report = rep_mod.irreducible_projector(lam, form)
    data = {
        "partition": list(lam.rows),
        "N": args.N,
        "b": args.b,
        "trace": str(report.trace),
        "rank": report.rank,
        "idempotent": report.idempotent,
    }
    if args.decompose:
        data["decomposition"] = report.element.to_json()
    _emit(
        args,
        data,
        lambda: [
            f"projector lambda={lam} N={args.N} b={args.b}",
            f"trace = {report.trace}",
            f"rank = {report.rank}",
            f"idempotent = {report.idempotent}",
        ]
        + ([json.dumps(data["decomposition"], sort_keys=True)] if args.decompose else []),
    )
    return EXIT_OK


def _cmd_amplitude(args) -> int:
    graph = _read(args.graph, StrandedGraph.from_json)
    prop = _read_propagator(args.propagator, graph.D, args.b, None)
    amp = gaussian_expectation(graph, prop, args.b)
    _emit(args, {"b": args.b, "amplitude": amp.to_coeff_map()}, lambda: [amp.format("N")])
    return EXIT_OK


def _cmd_duality_check(args) -> int:
    spec = _read(args.model, _model_from_json)
    reports = [(it.name, duality_check(it.graph, spec.propagator)) for it in spec.interactions]
    verdict = all(rep.equal for _, rep in reports)
    rows = [
        {
            "name": name,
            "equal": rep.equal,
            "orthogonal": rep.orthogonal.to_coeff_map(),
            "symplectic": rep.symplectic.to_coeff_map(),
        }
        for name, rep in reports
    ]
    _emit(
        args,
        {"verdict": verdict, "interactions": rows},
        lambda: [
            f"{name}: b=0 -> {rep.orthogonal.format('N')}; b=1 -> {rep.symplectic.format('N')}; "
            f"{'dual' if rep.equal else 'NOT dual'}"
            for name, rep in reports
        ]
        + [f"verdict: {'dual' if verdict else 'NOT dual'}"],
    )
    return EXIT_OK if verdict else EXIT_FALSE


def _class_lines(graphs, D: int, vertices: int):
    """Yield each graph as `json.dumps(g.to_json(), sort_keys=True)`, byte for byte.

    The text of every strand (a, b), a < b, of the D*vertices nodes is
    built once, so a line is one join of its strands' texts.  No table is
    built when there are no graphs, so runs with no class, such as D = 1
    with many vertices, cost nothing.
    """
    if not graphs:
        return
    n = D * vertices
    ends = [f"[{v}, {c}]" for v in range(1, vertices + 1) for c in range(1, D + 1)]  # node a+1 at a
    texts = {(a + 1, b + 1): f"[{ends[a]}, {ends[b]}]" for a in range(n) for b in range(a + 1, n)}
    head, tail = f'{{"D": {D}, "strands": [', f'], "vertices": {vertices}}}'
    for g in graphs:
        yield head + ", ".join(map(texts.__getitem__, g.strands)) + tail


def _chunks(lines):
    """Lists of at most CLASS_CHUNK consecutive lines."""
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, CLASS_CHUNK)):
        yield chunk


def _cmd_enumerate(args) -> int:
    """The classes are written CLASS_CHUNK lines at a time, so the output
    never holds more than one chunk of text."""
    graphs = enumerate_invariants(args.D, args.vertices, slot_symmetry=args.slot_symmetries)
    chunks = _chunks(_class_lines(graphs, args.D, args.vertices))
    out = sys.stdout
    if args.json:
        out.write("[")
        for k, chunk in enumerate(chunks):
            out.write((", " if k else "") + ", ".join(chunk))
        out.write("]\n")
    else:
        out.write(f"{len(graphs)} connected invariant(s) for D={args.D}, vertices={args.vertices}\n")
        for chunk in chunks:
            out.write("\n".join(chunk) + "\n")
    return EXIT_OK


def _cmd_expand(args) -> int:
    spec = _read(args.model, _model_from_json)
    terms = perturbative_expansion(spec, args.order)
    rows = [
        {
            "couplings": " ".join(f"{name}^{p}" if p > 1 else name for name, p in term.couplings) or "1",
            "coefficient": str(term.coefficient),
            "amplitude": term.amplitude.to_coeff_map(),
        }
        for term in terms
    ]
    _emit(
        args,
        rows,
        lambda: [
            f"{row['couplings']}: {row['coefficient']} * ({term.amplitude.format('N')})"
            for row, term in zip(rows, terms)
        ],
    )
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    GradedForm(args.N, args.b)  # the oracle's form: a bad --N fails before any file is read
    graph = _read(args.graph, StrandedGraph.from_json)
    prop = _read_propagator(args.propagator, graph.D, args.b, args.N)
    # the oracle first: its work cap fails before the pipeline runs
    numeric = oracle_mod.numeric_invariant_expectation(graph, prop, args.N, args.b)
    pipeline = gaussian_expectation(graph, prop, args.b)(Fraction(args.N))
    agree = pipeline == numeric
    _emit(
        args,
        {"N": args.N, "b": args.b, "pipeline": str(pipeline), "oracle": str(numeric), "agree": agree},
        lambda: [
            f"pipeline = {pipeline}",
            f"oracle   = {numeric}",
            f"verdict: {'agree' if agree else 'DISAGREE'}",
        ],
    )
    return EXIT_OK if agree else EXIT_FALSE


# -- parser -----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Building it costs about a millisecond, more than many commands take,
    and `run` may be called many times in one process.  Parsing leaves the
    parser unchanged, and it looks up sys.stdout and sys.stderr only when
    it writes, so redirected output, usage errors and --help behave as
    with a fresh parser.
    """
    parser = argparse.ArgumentParser(
        prog="gradedtensor",
        description="Exact combinatorics of graded orthogonal/symplectic tensor models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="GL(N) dimension polynomial of a partition")
    p.add_argument("partition", help="comma-separated row lengths, e.g. 2,1,1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("projector", help="irreducible-symmetry projector report")
    p.add_argument("partition", help="comma-separated row lengths")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--b", type=int, choices=(0, 1), default=0)
    p.add_argument("--decompose", action="store_true", help="emit the diagram-basis table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_projector)

    p = sub.add_parser("amplitude", help="Gaussian expectation of a stranded graph")
    p.add_argument("--graph", required=True, help="stranded-graph JSON file")
    p.add_argument("--propagator", required=True, help="propagator JSON file")
    p.add_argument("--b", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_amplitude)

    p = sub.add_parser("duality-check", help="check N -> -N duality for a model's interactions")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_duality_check)

    p = sub.add_parser("enumerate", help="connected invariants up to isomorphism")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument(
        "--slot-symmetries",
        action="store_true",
        help="also identify graphs that differ by permuting each vertex's slots, for a fully "
        "symmetric propagator: one class per connected D-regular multigraph with loops",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("expand", help="perturbative expansion of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("oracle-check", help="pipeline vs brute-force expectation")
    p.add_argument("--graph", required=True)
    p.add_argument("--propagator", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--b", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, TypeError, AttributeError, OSError, KeyError) as exc:
        return _usage_error(str(exc))


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a reader that closes stdout early (`| head`) ends the process as it
        # ends coreutils, not as the usage error `run` makes of an OSError
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
