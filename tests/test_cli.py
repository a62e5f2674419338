import hashlib
import io
import json
import pathlib
import signal
import sys

import pytest

from gradedtensor.cli import run
from gradedtensor.errors import CapExceededError
from gradedtensor.model import StrandedGraph, enumerate_invariants


QUARTIC_D2 = {
    "D": 2,
    "b": 0,
    "N": 3,
    "propagator": {"projector": {"lambda": [2]}},
    "interactions": [
        {
            "name": "g4",
            "graph": {
                "D": 2,
                "vertices": 4,
                "strands": [
                    [[1, 1], [2, 1]],
                    [[1, 2], [3, 1]],
                    [[2, 2], [4, 1]],
                    [[3, 2], [4, 2]],
                ],
            },
        }
    ],
}


@pytest.fixture
def quartic_model(tmp_path):
    path = tmp_path / "quartic_d2.json"
    path.write_text(json.dumps(QUARTIC_D2))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_prints_expanded_polynomials(capsys):
    code, out, _ = invoke(capsys, "dim", "2,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dim((2,1,1)) = 1/8 N^4 - 1/4 N^3 - 1/8 N^2 + 1/4 N"
    assert lines[1] == "dim((3,1)) = 1/8 N^4 + 1/4 N^3 - 1/8 N^2 - 1/4 N"


def test_dim_json(capsys):
    code, out, _ = invoke(capsys, "dim", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == {"1": "1"}


def test_dim_bad_partition(capsys):
    code, _, err = invoke(capsys, "dim", "1,3")
    assert code == 2
    assert "error" in err


def test_projector_report(capsys):
    code, out, _ = invoke(capsys, "projector", "2", "--N", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["trace"] == "5"  # dim of traceless Sym^2 R^3
    assert data["rank"] == 5
    assert data["idempotent"] is True


def test_projector_decomposition(capsys):
    code, out, _ = invoke(capsys, "projector", "2", "--N", "3", "--json", "--decompose")
    assert code == 0
    data = json.loads(out)
    terms = {
        tuple(tuple(p) for p in t["diagram"]["pairs"]): t["coeff"]
        for t in data["decomposition"]["terms"]
    }
    assert terms[((1, 2), (3, 4))] == ["-1/3"]


def test_projector_cap_exit_code(capsys):
    # N^D = 40000 is above representation.SIZE_CAP
    code, out, err = invoke(capsys, "projector", "2", "--N", "200")
    assert code == 3
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize(
    "argv,named",
    [
        # v! is multiplied only until it passes the cap: 9! = 362880 is named
        (("enumerate", "--D", "2", "--vertices", "2000000"), "362880"),
        # N^D has 6,021 digits, more than an int may print
        (("projector", "20000", "--N", "2"), "N^D = 2^20000"),
        # the form's 2N entries are filled only when read, after the cap
        (("projector", "2", "--N", "1000000000000"), "N^D = 1000000000000^2"),
    ],
)
def test_caps_refuse_huge_inputs_at_once(capsys, argv, named):
    code, out, err = invoke(capsys, *argv)
    assert code == 3
    assert out == ""
    assert named in err and "cap" in err


def test_projector_zero_component_past_the_map_work_cap_prints_rank_0(capsys):
    # (6) at Sp(4) does not occur (2 * 6 > 4), so P = 0 is read off the
    # occurrence rule; the map of e * A that would certify it in B_D, 9,675
    # terms of 4096 entries, is past MAP_WORK_CAP and is not built
    code, out, err = invoke(capsys, "projector", "6", "--N", "4", "--b", "1", "--json")
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert (data["trace"], data["rank"], data["idempotent"]) == ("0", 0, True)


@pytest.mark.parametrize(
    "argv",
    [
        ["4,3", "--N", "3"],
        ["6,1", "--N", "2"],
        ["7", "--N", "2", "--b", "1"],
        ["8", "--N", "2", "--b", "1"],
    ],
)
def test_projector_zero_components_print_rank_0(capsys, argv):
    # read off the occurrence rule with no B_D build: (4,3) at O(3) took
    # 20 s in B_D, (6,1) at O(2) and (7) at Sp(2) exited 3 past
    # MAP_WORK_CAP, and B_8 is past the diagram cap
    code, out, _ = invoke(capsys, "projector", *argv, "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["trace"], data["rank"], data["idempotent"]) == ("0", 0, True)


def test_projector_past_the_diagram_cap_exit_code(capsys):
    # (8) occurs at O(2), and B_8 has 15!! = 2,027,025 diagrams, past the
    # 135,135 of B_7
    code, out, err = invoke(capsys, "projector", "8", "--N", "2")
    assert code == 3
    assert out == ""
    assert "2027025 diagrams" in err


def test_projector_size_cap_is_not_an_option(capsys):
    code, out, _ = invoke(capsys, "projector", "2", "--N", "3", "--size-cap", "100")
    assert code == 2
    assert out == ""


def test_projector_decomposition_cap_exit_code(capsys):
    code, out, err = invoke(capsys, "projector", "5", "--N", "2", "--decompose", "--json")
    assert code == 3
    assert out == ""
    assert "|lambda| <= 4" in err


def test_amplitude_command(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(
        json.dumps(
            {
                "D": 2,
                "vertices": 2,
                "strands": [[[1, 1], [2, 1]], [[1, 2], [2, 2]]],
            }
        )
    )
    prop = tmp_path / "prop.json"
    prop.write_text(
        json.dumps(
            {
                "terms": [
                    {"pairs": [[1, 3], [2, 4]], "gamma": "1"},
                    {"pairs": [[1, 4], [2, 3]], "gamma": "1"},
                ]
            }
        )
    )
    code, out, _ = invoke(capsys, "amplitude", "--graph", str(graph), "--propagator", str(prop))
    assert code == 0
    assert out.strip() == "N^2 + N"
    code, out, _ = invoke(
        capsys, "amplitude", "--graph", str(graph), "--propagator", str(prop), "--b", "1"
    )
    assert out.strip() == "N^2 - N"


def test_duality_check_exit_zero(quartic_model, capsys):
    code, out, _ = invoke(capsys, "duality-check", "--model", quartic_model)
    assert code == 0
    assert "verdict: dual" in out


def test_enumerate_single_invariant(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--D", "1", "--vertices", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert StrandedGraph.from_json(data[0]).strands == ((1, 2),)


@pytest.mark.parametrize("D", ["0", "-2"])
def test_enumerate_names_d_in_its_error(capsys, D):
    code, out, err = invoke(capsys, "enumerate", "--D", D, "--vertices", "2")
    assert code == 2
    assert out == ""
    assert f"D must be at least 1, got {D}" in err


def test_enumerate_cap_exit_code(capsys):
    code, out, err = invoke(capsys, "enumerate", "--D", "2", "--vertices", "9")
    assert code == 3
    assert out == ""
    assert "362880" in err and "cap" in err


@pytest.mark.parametrize("D,vertices", [("6", "4"), ("100000", "2")])
def test_enumerate_class_cap_exit_code(monkeypatch, capsys, D, vertices):
    # both pass the v! cap, but reach at least (Dv - 1)!!/v! orbit-least
    # matchings: exit 3 before the relabeling table is built, and at once
    # where (Dv - 1)!! has more digits than an int may print
    from gradedtensor import model

    def no_search(*args):
        raise AssertionError("enumerate started above the class cap")

    monkeypatch.setattr(model, "_relabelings", no_search)
    code, out, err = invoke(capsys, "enumerate", "--D", D, "--vertices", vertices)
    assert code == 3
    assert out == ""
    assert "orbit-least matchings" in err and str(model.ENUMERATE_CLASS_CAP) in err


@pytest.mark.parametrize("vertices,classes", [(10, 0), (2, 1)])
def test_enumerate_d1_needs_no_relabeling_table(capsys, vertices, classes):
    # with D = 1 only the dipole is connected, so v = 10 is answered at once
    code, out, _ = invoke(capsys, "enumerate", "--D", "1", "--vertices", str(vertices))
    assert code == 0
    assert out.splitlines()[0] == f"{classes} connected invariant(s) for D=1, vertices={vertices}"


# -- enumerate prints each class from a strand-text table ---------------------------

# every (D, v) with D*v even and at most 12, which includes D=2 v=1, D=1
# v=2 and the zero-class D=1 v=4, and the zero-class odd D=3 v=3
ENUMERATE_SIZES = [
    (D, v) for D in range(1, 13) for v in range(1, 13) if D * v <= 12 and D * v % 2 == 0
] + [(3, 3)]

ENUMERATE_POOL = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "bench" / "pools" / "enumerate.json").read_text()
)


@pytest.mark.parametrize("slot_symmetry", [False, True])
@pytest.mark.parametrize("D,vertices", ENUMERATE_SIZES)
def test_enumerate_output_is_each_class_json_dumps(monkeypatch, capsys, D, vertices, slot_symmetry):
    # the reference is the per-graph json.dumps(g.to_json(), sort_keys=True)
    from gradedtensor import cli

    flags = ["--slot-symmetries"] if slot_symmetry else []
    argv = ["enumerate", "--D", str(D), "--vertices", str(vertices), *flags]
    try:
        graphs = enumerate_invariants(D, vertices, slot_symmetry)
    except CapExceededError:
        assert invoke(capsys, *argv)[:2] == (3, "")
        return
    # the search ran above; both modes print its result
    monkeypatch.setattr(cli, "enumerate_invariants", lambda *args, **kwargs: graphs)
    header = f"{len(graphs)} connected invariant(s) for D={D}, vertices={vertices}\n"
    text = header + "".join(json.dumps(g.to_json(), sort_keys=True) + "\n" for g in graphs)
    whole = json.dumps([g.to_json() for g in graphs], sort_keys=True) + "\n"
    assert invoke(capsys, *argv) == (0, text, "")
    assert invoke(capsys, *argv, "--json") == (0, whole, "")


@pytest.mark.parametrize("job", ENUMERATE_POOL["jobs"], ids=lambda job: job["id"])
def test_enumerate_matches_the_pool_golden(capsys, job):
    code, out, _ = invoke(capsys, *job["argv"])
    assert code == job["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == job["sha256"]


@pytest.mark.parametrize("flags", [[], ["--json"], ["--slot-symmetries", "--json"]])
def test_enumerate_searches_once_through_the_cli_binding_without_to_json(
    monkeypatch, capsys, flags
):
    from gradedtensor import cli

    calls = []
    search = cli.enumerate_invariants

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return search(*args, **kwargs)

    def no_to_json(self):
        raise AssertionError("enumerate called StrandedGraph.to_json")

    monkeypatch.setattr(cli, "enumerate_invariants", counted)
    monkeypatch.setattr(StrandedGraph, "to_json", no_to_json)
    code, out, err = invoke(capsys, "enumerate", "--D", "4", "--vertices", "2", *flags)
    assert (code, err) == (0, "") and out
    assert calls == [((4, 2), {"slot_symmetry": "--slot-symmetries" in flags})]


class RecordedWrites(io.StringIO):
    """A text stream that keeps every string written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_enumerate_writes_its_classes_in_bounded_chunks(monkeypatch, flags):
    # (6,2) has 5,243 classes, more than one chunk: no write holds more
    # than CLASS_CHUNK class lines, and the writes join to the whole output
    from gradedtensor import cli

    graphs = enumerate_invariants(6, 2)
    assert len(graphs) > cli.CLASS_CHUNK
    if flags:
        expected = json.dumps([g.to_json() for g in graphs], sort_keys=True) + "\n"
    else:
        header = f"{len(graphs)} connected invariant(s) for D=6, vertices=2\n"
        expected = header + "".join(json.dumps(g.to_json(), sort_keys=True) + "\n" for g in graphs)
    out = RecordedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert run(["enumerate", "--D", "6", "--vertices", "2", *flags]) == 0
    assert out.getvalue() == expected
    per_write = [text.count('{"D": ') for text in out.writes]
    assert max(per_write) <= cli.CLASS_CHUNK
    assert sum(per_write) == len(graphs)


def test_expand_table(quartic_model, capsys):
    code, out, _ = invoke(
        capsys, "expand", "--model", quartic_model, "--order", "1", "--json"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["couplings"] == "1"
    assert rows[1]["couplings"] == "g4"
    assert rows[1]["coefficient"] == "1/4"


EXPAND_POOL_FILES = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "bench" / "pools" / "expand.json").read_text()
)["files"]

# `expand --order 4 --json` on README's g4 under the expand pool's d2_sym
# table, as printed by the fold that grouped its states by unpaired vertices
G4_D2_SYM_ORDER_4 = (
    '[{"amplitude": {"0": "1"}, "coefficient": "1", "couplings": "1"}, '
    '{"amplitude": {"1": "7/12", "2": "1/4", "3": "1/2"}, "coefficient": "1/4", '
    '"couplings": "g4"}, '
    '{"amplitude": {"1": "19/9", "2": "6203/432", "3": "-27/8", "4": "343/48", "5": "1/4", '
    '"6": "1/4"}, "coefficient": "1/32", "couplings": "g4^2"}, '
    '{"amplitude": {"1": "1238/3", "2": "-5609/12", "3": "1813663/1728", "4": "-211349/576", '
    '"5": "162589/576", "6": "-523/64", "7": "329/32", "8": "3/16", "9": "1/8"}, '
    '"coefficient": "1/384", "couplings": "g4^3"}, '
    '{"amplitude": {"1": "-105832/3", "10": "973/96", "11": "1/8", "12": "1/16", '
    '"2": "1443505/9", "3": "-35040517/216", "4": "2954224049/20736", "5": "-79660769/1728", '
    '"6": "72496117/3456", "7": "-1067125/576", "8": "1640905/2304", "9": "-361/32"}, '
    '"coefficient": "1/6144", "couplings": "g4^4"}]\n'
)


def test_expand_order_4_matches_the_recorded_bytes(tmp_path, capsys):
    # g4^4 is a 16-vertex fold over 15!! * 3^8 Wick graphs
    model = {
        "D": 2,
        "b": 0,
        "propagator": EXPAND_POOL_FILES["d2_sym.json"],
        "interactions": QUARTIC_D2["interactions"],
    }
    path = tmp_path / "g4_d2_sym.json"
    path.write_text(json.dumps(model))
    assert invoke(capsys, "expand", "--model", str(path), "--order", "4", "--json") == (
        0, G4_D2_SYM_ORDER_4, ""
    )
    assert hashlib.sha256(G4_D2_SYM_ORDER_4.encode()).hexdigest() == (
        "9d23b956e27d341575b6375e2b4ab832d5fca95c491c58956696899e5521f974"
    )


@pytest.mark.parametrize("argv", [["expand", "--order", "2"], ["duality-check"]])
def test_duplicate_interaction_names_are_rejected(tmp_path, capsys, argv):
    # two connected D = 2 v = 2 interactions, both named g: their rows would
    # print under one label with different amplitudes
    twisted = [[[1, 1], [2, 2]], [[1, 2], [2, 1]]]
    straight = [[[1, 1], [2, 1]], [[1, 2], [2, 2]]]
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps(
            {
                "D": 2,
                "propagator": {"terms": [{"pairs": [[1, 3], [2, 4]], "gamma": "1"}]},
                "interactions": [
                    {"name": "g", "graph": {"D": 2, "vertices": 2, "strands": strands}}
                    for strands in (straight, twisted)
                ],
            }
        )
    )
    code, out, err = invoke(capsys, argv[0], "--model", str(model), *argv[1:])
    assert code == 2
    assert out == ""
    assert str(model) in err
    assert "duplicate interaction name 'g'" in err


def test_oracle_check_agrees(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(
        json.dumps(
            {"D": 2, "vertices": 2, "strands": [[[1, 1], [2, 1]], [[1, 2], [2, 2]]]}
        )
    )
    prop = tmp_path / "prop.json"
    prop.write_text(
        json.dumps(
            {
                "terms": [
                    {"pairs": [[1, 3], [2, 4]], "gamma": "1"},
                    {"pairs": [[1, 4], [2, 3]], "gamma": "1"},
                ]
            }
        )
    )
    code, out, _ = invoke(
        capsys,
        "oracle-check",
        "--graph",
        str(graph),
        "--propagator",
        str(prop),
        "--N",
        "3",
        "--b",
        "0",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["pipeline"] == "12"  # N^2 + N at N=3


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, "duality-check", "--model", "/nonexistent.json")
    assert code == 2


GOOD_GRAPH = {"D": 2, "vertices": 2, "strands": [[[1, 1], [2, 1]], [[1, 2], [2, 2]]]}
GOOD_PROP = {"terms": [{"pairs": [[1, 3], [2, 4]], "gamma": "1"}]}


@pytest.mark.parametrize(
    "graph,prop",
    [
        ([1, 2], GOOD_PROP),
        (dict(GOOD_GRAPH, strands=5), GOOD_PROP),
        (dict(GOOD_GRAPH, D=None), GOOD_PROP),
        (GOOD_GRAPH, [1, 2]),
    ],
)
def test_wrongly_typed_json_is_usage_error(tmp_path, capsys, graph, prop):
    gpath, ppath = tmp_path / "graph.json", tmp_path / "prop.json"
    gpath.write_text(json.dumps(graph))
    ppath.write_text(json.dumps(prop))
    code, out, err = invoke(capsys, "amplitude", "--graph", str(gpath), "--propagator", str(ppath))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize(
    "bad,contents,named",
    [
        ("graph", [1, 2], None),
        ("propagator", {"terms": [{"pairs": [[1, 3], [2, 4]]}]}, "missing field 'gamma'"),
        ("model", {k: v for k, v in QUARTIC_D2.items() if k != "D"}, "missing field 'D'"),
        ("graph", dict(GOOD_GRAPH, strands=5), "field 'strands': "),
        ("graph", dict(GOOD_GRAPH, D="x"), "field 'D': "),
        ("propagator", dict(GOOD_PROP, terms=5), "field 'terms': "),
        ("model", dict(QUARTIC_D2, b="x"), "field 'b': "),
        ("model", dict(QUARTIC_D2, interactions=5), "field 'interactions': "),
        ("model", dict(QUARTIC_D2, propagator=5), "field 'propagator': "),
        ("propagator", {"N": "x", "projector": {"lambda": [2]}}, "field 'N': "),
        ("propagator", {"N": 3, "projector": {"lambda": 5}}, "field 'lambda': "),
        ("propagator", {"N": 3, "projector": {"lambda": [2], "scale": "x"}}, "field 'scale': "),
        ("propagator", {"terms": [dict(GOOD_PROP["terms"][0], gamma="1/0")]}, "field 'gamma': "),
        ("propagator", {"N": 3, "projector": {"lambda": [2], "scale": "1/0"}}, "field 'scale': "),
        ("propagator", {"terms": [dict(GOOD_PROP["terms"][0], gamma={"0": "1/0"})]}, "field 'gamma': "),
        ("propagator", {"N": 3, "projector": {"lambda": [3]}}, "field 'lambda': "),
        ("propagator", {"N": 0, "projector": {"lambda": [2]}}, "field 'N': "),
        ("model", dict(QUARTIC_D2, b=1), "field 'N': "),
        (
            "model",
            {"D": 2, "b": 1, "N": 3, "propagator": {"projector": {"lambda": [2]}}},
            "model.json: field 'N': symplectic form requires even N",
        ),
        ("model", dict(QUARTIC_D2, b=5, propagator=GOOD_PROP), "field 'b': grading bit must be 0 or 1"),
        ("model", dict(QUARTIC_D2, b=5, N=2), "field 'b': grading bit must be 0 or 1"),
        ("propagator", {"terms": [{"pairs": [[1, 2], [1, 2]], "gamma": "1"}]}, "field 'terms': "),
        ("propagator", {"terms": [{"pairs": [[1, 3], [5, 4]], "gamma": "1"}]}, "field 'terms': "),
        (
            "graph",
            dict(GOOD_GRAPH, strands=[[[1, 1], [1, 2]], [[1, 3], [1, 4]]]),
            "field 'strands': ",
        ),
        ("graph", dict(GOOD_GRAPH, strands=[[[1, 1], [2, 0]], [[1, 2], [2, 2]]]), "field 'strands': "),
        ("graph", dict(GOOD_GRAPH, strands=[[[1, 1], [3, 1]], [[1, 2], [2, 2]]]), "field 'strands': "),
        ("graph", {"D": 2, "vertices": -1, "strands": []}, "field 'vertices': must not be"),
        # the pair count is checked before the 2 * 10^9 nodes are listed
        ("graph", {"D": 2, "vertices": 10**9, "strands": []}, "strands must form a perfect matching"),
        ("graph", {"D": -2, "vertices": 1, "strands": []}, "field 'D': must not be negative"),
        ("model", dict(QUARTIC_D2, D=-2), "field 'D': must not be negative"),
        (
            "propagator",
            {"terms": [{"pairs": [[1, 4], [2, 5], [3, 6]], "gamma": "1"}]},
            "field 'terms': propagator term has wrong slot count",
        ),
        ("propagator", {"terms": [dict(GOOD_PROP["terms"][0], gamma={"0": "1", "-1": "5"})]}, "field 'gamma': "),
        ("propagator", {"terms": [dict(GOOD_PROP["terms"][0], gamma={"-1": "5"})]}, "field 'gamma': "),
        ("graph", dict(GOOD_GRAPH, vertices=2.9), "field 'vertices': "),
        ("graph", dict(GOOD_GRAPH, strands=[[[1, 1], [2.7, 1]], [[1, 2], [2, 2]]]), "field 'strands': "),
        ("graph", dict(GOOD_GRAPH, D=True), "field 'D': "),
        ("propagator", {"terms": [dict(GOOD_PROP["terms"][0], pairs=[[1, 3.5], [2, 4]])]}, "field 'terms': "),
        ("propagator", {"N": 2.5, "projector": {"lambda": [2]}}, "field 'N': "),
        ("propagator", {"N": 3, "projector": {"lambda": [1.5, 0.5]}}, "field 'lambda': "),
        ("model", dict(QUARTIC_D2, b=False), "field 'b': "),
        ("model", dict(QUARTIC_D2, D=2.5), "field 'D': "),
    ],
    ids=[
        "graph",
        "propagator",
        "model",
        "graph-strands",
        "graph-D",
        "propagator-terms",
        "model-b",
        "model-interactions",
        "model-propagator",
        "prop-N",
        "prop-lambda",
        "prop-scale",
        "zero-gamma",
        "zero-scale",
        "zero-coeff-map",
        "prop-lambda-size",
        "prop-N-zero",
        "model-N-odd-at-b1",
        "model-N-top-level",
        "model-b-terms",
        "model-b-projector",
        "terms-repeated-pair",
        "terms-slot-out-of-range",
        "strands-slot-above-D",
        "strands-slot-zero",
        "strands-vertex-above-vertices",
        "graph-vertices-negative",
        "graph-vertices-huge",
        "graph-D-negative",
        "model-D-negative",
        "terms-slot-count",
        "gamma-negative-exponent",
        "gamma-negative-exponent-only",
        "graph-vertices-fractional",
        "strands-endpoint-fractional",
        "graph-D-boolean",
        "terms-pair-fractional",
        "prop-N-fractional",
        "prop-lambda-fractional",
        "model-b-boolean",
        "model-D-fractional",
    ],
)
def test_malformed_json_error_names_file_and_field(tmp_path, capsys, bad, contents, named):
    files = {"graph": GOOD_GRAPH, "propagator": GOOD_PROP, "model": QUARTIC_D2, bad: contents}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    if bad == "model":
        argv = ["duality-check", "--model", paths["model"]]
    else:
        argv = ["amplitude", "--graph", paths["graph"], "--propagator", paths["propagator"]]
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {paths[bad]}: ")
    if named is not None:
        assert named in err


@pytest.mark.parametrize(
    "graph,prop,printed",
    [
        ({"D": 2, "vertices": 0, "strands": []}, GOOD_PROP, "1\n"),
        ({"D": 0, "vertices": 0, "strands": []}, {"terms": []}, "1\n"),
    ],
    ids=["no-vertices", "no-slots"],
)
def test_zero_sizes_stay_valid(tmp_path, capsys, graph, prop, printed):
    gpath, ppath = tmp_path / "graph.json", tmp_path / "prop.json"
    gpath.write_text(json.dumps(graph))
    ppath.write_text(json.dumps(prop))
    code, out, _ = invoke(capsys, "amplitude", "--graph", str(gpath), "--propagator", str(ppath))
    assert (code, out) == (0, printed)


def test_oracle_check_rejects_negative_vertices(tmp_path, capsys):
    gpath, ppath = tmp_path / "graph.json", tmp_path / "prop.json"
    gpath.write_text(json.dumps({"D": 2, "vertices": -1, "strands": []}))
    ppath.write_text(json.dumps(GOOD_PROP))
    code, out, err = invoke(
        capsys, "oracle-check", "--N", "2", "--graph", str(gpath), "--propagator", str(ppath)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {gpath}: field 'vertices': ")


@pytest.mark.parametrize(
    "projector",
    [{"lambda": [3]}, {"lambda": [2], "scale": "x"}, {"lambda": [2], "scale": "1/0"}],
    ids=["lambda-size", "scale", "zero-scale"],
)
def test_projector_block_is_checked_before_it_is_built(tmp_path, capsys, monkeypatch, projector):
    from gradedtensor import representation

    calls = []
    monkeypatch.setattr(
        representation, "decompose_projector_as_propagator", lambda *args: calls.append(args)
    )
    graph, prop = tmp_path / "graph.json", tmp_path / "prop.json"
    graph.write_text(json.dumps(GOOD_GRAPH))
    prop.write_text(json.dumps({"N": 3, "projector": projector}))
    code, out, err = invoke(capsys, "amplitude", "--graph", str(graph), "--propagator", str(prop))
    assert code == 2
    assert err.startswith(f"error: {prop}: field ")
    assert calls == []


def test_oracle_check_bad_dimension_names_no_file(tmp_path, capsys):
    # --N is an option, not a field of the propagator file
    graph, prop = tmp_path / "graph.json", tmp_path / "prop.json"
    graph.write_text(json.dumps(GOOD_GRAPH))
    prop.write_text(json.dumps({"projector": {"lambda": [2]}}))
    argv = ["oracle-check", "--graph", str(graph), "--propagator", str(prop), "--N", "3", "--b", "1"]
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", "error: symplectic form requires even N\n")


@pytest.mark.parametrize("own", [3, None, "missing"])
def test_oracle_check_evaluates_one_dimension(tmp_path, capsys, own):
    # the propagator file's table and both sides of the check are read at one N
    graph, prop = tmp_path / "graph.json", tmp_path / "prop.json"
    graph.write_text(json.dumps(GOOD_GRAPH))
    spec = {"projector": {"lambda": [2]}}
    prop.write_text(json.dumps(spec if own == "missing" else dict(spec, N=own)))
    argv = ["oracle-check", "--graph", str(graph), "--propagator", str(prop), "--N", "2", "--json"]
    code, out, err = invoke(capsys, *argv)
    if own == 3:
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {prop}: field 'N': ")
    else:
        assert code == 0
        assert json.loads(out)["pipeline"] == "2"


@pytest.mark.parametrize("command", ["oracle-check", "duality-check"])
def test_division_by_zero_is_usage_error_not_false_verdict(tmp_path, capsys, command):
    # exit 1 means "verdict false" for these commands, so a bad rational must exit 2
    zero = {"terms": [{"pairs": [[1, 3], [2, 4]], "gamma": "1/0"}]}
    graph, prop, model = tmp_path / "graph.json", tmp_path / "prop.json", tmp_path / "model.json"
    graph.write_text(json.dumps(GOOD_GRAPH))
    prop.write_text(json.dumps(zero))
    model.write_text(json.dumps(dict(QUARTIC_D2, propagator=zero)))
    if command == "oracle-check":
        argv = [command, "--graph", str(graph), "--propagator", str(prop), "--N", "2"]
        path = str(prop)
    else:
        argv = [command, "--model", str(model)]
        path = str(model)
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ")
    assert "field 'gamma': " in err


def test_byte_identical_reruns(quartic_model, capsys):
    _, first, _ = invoke(capsys, "duality-check", "--model", quartic_model, "--json")
    _, second, _ = invoke(capsys, "duality-check", "--model", quartic_model, "--json")
    assert first == second
    _, enum1, _ = invoke(capsys, "enumerate", "--D", "2", "--vertices", "4", "--json")
    _, enum2, _ = invoke(capsys, "enumerate", "--D", "2", "--vertices", "4", "--json")
    assert enum1 == enum2


def test_byte_identical_across_hash_seeds(quartic_model, tmp_path):
    # no nondeterministic iteration order may leak into output
    import os
    import subprocess
    import sys

    outputs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "gradedtensor.cli",
                "duality-check",
                "--model",
                quartic_model,
                "--json",
            ],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# -- one parser per process ---------------------------------------------------------


def test_every_subcommand_in_one_process_matches_a_fresh_interpreter(
    quartic_model, tmp_path, capsys
):
    import subprocess
    import sys

    graph, prop = tmp_path / "graph.json", tmp_path / "prop.json"
    graph.write_text(json.dumps(GOOD_GRAPH))
    prop.write_text(json.dumps(GOOD_PROP))
    files = ["--graph", str(graph), "--propagator", str(prop)]
    argvs = [
        ["dim", "2,1"],
        ["projector", "2,1", "--N", "3", "--decompose", "--json"],
        ["amplitude", *files, "--b", "1"],
        ["duality-check", "--model", quartic_model, "--json"],
        ["enumerate", "--D", "2", "--vertices", "4"],
        ["expand", "--model", quartic_model, "--order", "2"],
        ["oracle-check", *files, "--N", "2", "--json"],
    ]
    for argv in argvs:
        code, out, _ = invoke(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "gradedtensor.cli", *argv], capture_output=True
        )
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout), argv[0]
        assert code == 0 and out, argv[0]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_closed_stdout_is_not_a_usage_error():
    # one line is read and the pipe closed, as `| head -n 1` does; the
    # 760 kB of (6,2) classes do not fit in the pipe, so a write meets it closed
    import subprocess
    import sys

    argv = ["enumerate", "--D", "6", "--vertices", "2"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gradedtensor.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read()
    proc.stderr.close()
    assert first == b"5243 connected invariant(s) for D=6, vertices=2\n"
    assert err == b""
    assert code != 2


def test_usage_error_after_a_successful_call(capsys):
    code, first, _ = invoke(capsys, "projector", "2", "--N", "3")
    assert code == 0
    code, out, err = invoke(capsys, "projector", "2")
    assert (code, out) == (2, "")
    assert "the following arguments are required: --N" in err
    assert invoke(capsys, "projector", "2", "--N", "3") == (0, first, "")


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: gradedtensor")
    code, out, _ = invoke(capsys, "projector", "--help")
    assert code == 0
    assert "--decompose" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--model", "model.json", "--order", "2", "--threads", "2"],
        ["amplitude", "--graph", "g.json", "--propagator", "p.json", "--threads", "2"],
    ],
)
def test_threads_stays_a_usage_error(capsys, argv):
    assert invoke(capsys, "dim", "2")[0] == 0
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    import argparse

    from gradedtensor import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert invoke(capsys, "dim", "2")[0] == 0
    assert invoke(capsys, "projector", "2")[0] == 2
    assert invoke(capsys, "projector", "2", "--N", "3")[0] == 0
    # the top-level parser once, and one subparser per subcommand with it
    assert built.count("gradedtensor") == 1
    assert len(built) == 8
