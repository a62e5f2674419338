"""Command-line surface.

Subcommands: dim, projector, amplitude, duality-check, enumerate,
expand, oracle-check.  Output is deterministic for fixed input; --json
switches to machine-readable reports.  Exit codes: 0 success or
verdict-true, 1 verdict-false, 2 usage error, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
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
    duality_check,
    enumerate_invariants,
    gaussian_expectation,
    perturbative_expansion,
)
from .representation import GradedForm
from .young import YoungDiagram, gl_dimension_poly, transpose

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


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
    needs a concrete N to extract the spectrum.
    """
    if "terms" in spec:
        return Propagator.from_json({"D": D, "terms": spec["terms"]})
    if "projector" in spec:
        proj = spec["projector"]
        if N is None:
            raise ValueError("projector propagators need a concrete \"N\" in the model file")
        lam = _field(proj, "lambda", lambda rows: YoungDiagram(tuple(int(r) for r in rows)))
        element = rep_mod.decompose_projector_as_propagator(lam, GradedForm(N, b))
        if "scale" in proj:
            element = element.scaled(_field(proj, "scale", lambda x: Fraction(str(x))))
        return Propagator.from_brauer_element(element)
    raise ValueError("propagator block needs either \"terms\" or \"projector\"")


def _read_propagator(path: str, D: int, b: int, N: Optional[int]) -> Propagator:
    """A propagator file; its own "N", when present and not null, replaces `N`."""

    def parse(data: dict) -> Propagator:
        own = _field(data, "N", int) if data.get("N") is not None else N
        return _propagator_from_spec(data, D, b, own)

    return _read(path, parse)


def _model_from_json(data: dict) -> ModelSpec:
    def interactions(items) -> tuple:
        return tuple(Interaction(it["name"], StrandedGraph.from_json(it["graph"])) for it in items)

    D = _field(data, "D", int)
    b = _field(data, "b", int) if "b" in data else 0
    N = _field(data, "N", int) if data.get("N") is not None else None
    prop = _field(data, "propagator", lambda spec: _propagator_from_spec(spec, D, b, N))
    found = _field(data, "interactions", interactions) if "interactions" in data else ()
    return ModelSpec(D, b, prop, found)


# -- subcommands ----------------------------------------------------------------


def _cmd_dim(args) -> int:
    lam = _parse_partition(args.partition)
    poly = gl_dimension_poly(lam)
    dual = gl_dimension_poly(transpose(lam))
    if args.json:
        print(
            json.dumps(
                {
                    "partition": list(lam.rows),
                    "dimension": poly.to_coeff_map(),
                    "transpose": list(transpose(lam).rows),
                    "transpose_dimension": dual.to_coeff_map(),
                },
                sort_keys=True,
            )
        )
    else:
        print(f"dim({lam}) = {poly.format('N')}")
        print(f"dim({transpose(lam)}) = {dual.format('N')}")
    return EXIT_OK


def _cmd_projector(args) -> int:
    lam = _parse_partition(args.partition)
    form = GradedForm(args.N, args.b)
    if args.decompose:
        rep_mod.check_table_cap(lam.size)
    report = rep_mod.irreducible_projector(lam, form, size_cap=args.size_cap)
    decomposition = None
    if args.decompose:
        decomposition = rep_mod.propagator_table(report.element, form).to_json()
    if args.json:
        out = {
            "partition": list(lam.rows),
            "N": args.N,
            "b": args.b,
            "trace": str(report.trace),
            "rank": report.rank,
            "idempotent": report.idempotent,
        }
        if decomposition is not None:
            out["decomposition"] = decomposition
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"projector lambda={lam} N={args.N} b={args.b}")
        print(f"trace = {report.trace}")
        print(f"rank = {report.rank}")
        print(f"idempotent = {report.idempotent}")
        if decomposition is not None:
            print(json.dumps(decomposition, sort_keys=True))
    return EXIT_OK


def _cmd_amplitude(args) -> int:
    graph = _read(args.graph, StrandedGraph.from_json)
    prop = _read_propagator(args.propagator, graph.D, args.b, None)
    amp = gaussian_expectation(graph, prop, args.b, workers=args.threads)
    if args.json:
        print(json.dumps({"b": args.b, "amplitude": amp.poly.to_coeff_map()}, sort_keys=True))
    else:
        print(amp.poly.format("N"))
    return EXIT_OK


def _cmd_duality_check(args) -> int:
    spec = _read(args.model, _model_from_json)
    verdict = True
    reports = []
    for it in spec.interactions:
        rep = duality_check(it.graph, spec.propagator)
        reports.append((it.name, rep))
        verdict = verdict and rep.equal
    if args.json:
        print(
            json.dumps(
                {
                    "verdict": verdict,
                    "interactions": [
                        {
                            "name": name,
                            "equal": rep.equal,
                            "orthogonal": rep.orthogonal.to_coeff_map(),
                            "symplectic": rep.symplectic.to_coeff_map(),
                        }
                        for name, rep in reports
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        for name, rep in reports:
            print(
                f"{name}: b=0 -> {rep.orthogonal.format('N')}; "
                f"b=1 -> {rep.symplectic.format('N')}; "
                f"{'dual' if rep.equal else 'NOT dual'}"
            )
        print(f"verdict: {'dual' if verdict else 'NOT dual'}")
    return EXIT_OK if verdict else EXIT_FALSE


def _cmd_enumerate(args) -> int:
    graphs = enumerate_invariants(args.D, args.vertices, slot_symmetry=args.slot_symmetries)
    if args.json:
        print(json.dumps([g.to_json() for g in graphs], sort_keys=True))
    else:
        print(f"{len(graphs)} connected invariant(s) for D={args.D}, vertices={args.vertices}")
        for g in graphs:
            print(json.dumps(g.to_json(), sort_keys=True))
    return EXIT_OK


def _cmd_expand(args) -> int:
    spec = _read(args.model, _model_from_json)
    terms = perturbative_expansion(spec, args.order, workers=args.threads)
    rows = []
    for term in terms:
        label = (
            " ".join(f"{name}^{p}" if p > 1 else name for name, p in term.couplings)
            or "1"
        )
        rows.append(
            {
                "couplings": label,
                "coefficient": str(term.coefficient),
                "amplitude": term.amplitude.poly.to_coeff_map(),
            }
        )
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        for row, term in zip(rows, terms):
            print(
                f"{row['couplings']}: {row['coefficient']} * ({term.amplitude.poly.format('N')})"
            )
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    graph = _read(args.graph, StrandedGraph.from_json)
    prop = _read_propagator(args.propagator, graph.D, args.b, args.N)
    pipeline = gaussian_expectation(graph, prop, args.b).poly(Fraction(args.N))
    numeric = oracle_mod.numeric_invariant_expectation(graph, prop, args.N, args.b)
    agree = pipeline == numeric
    if args.json:
        print(
            json.dumps(
                {
                    "N": args.N,
                    "b": args.b,
                    "pipeline": str(pipeline),
                    "oracle": str(numeric),
                    "agree": agree,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"pipeline = {pipeline}")
        print(f"oracle   = {numeric}")
        print(f"verdict: {'agree' if agree else 'DISAGREE'}")
    return EXIT_OK if agree else EXIT_FALSE


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--size-cap", type=int, default=rep_mod.DEFAULT_SIZE_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_projector)

    p = sub.add_parser("amplitude", help="Gaussian expectation of a stranded graph")
    p.add_argument("--graph", required=True, help="stranded-graph JSON file")
    p.add_argument("--propagator", required=True, help="propagator JSON file")
    p.add_argument("--b", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_amplitude)

    p = sub.add_parser("duality-check", help="check N -> -N duality for a model's interactions")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_duality_check)

    p = sub.add_parser("enumerate", help="connected invariants up to isomorphism")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--slot-symmetries", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("expand", help="perturbative expansion of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
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
    sys.exit(run())


if __name__ == "__main__":
    main()
