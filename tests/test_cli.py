import json

import pytest

from gradedtensor.cli import run
from gradedtensor.model import StrandedGraph


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
    code, _, err = invoke(capsys, "projector", "2", "--N", "200", "--size-cap", "100")
    assert code == 3
    assert "cap" in err


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


def test_threads_flag(tmp_path, capsys):
    graph = tmp_path / "g4.json"
    graph.write_text(json.dumps(QUARTIC_D2["interactions"][0]["graph"]))
    prop = tmp_path / "prop.json"
    prop.write_text(
        json.dumps({"terms": [{"pairs": [[1, 3], [2, 4]], "gamma": "1"}]})
    )
    base = invoke(capsys, "amplitude", "--graph", str(graph), "--propagator", str(prop))
    threaded = invoke(
        capsys,
        "amplitude",
        "--graph",
        str(graph),
        "--propagator",
        str(prop),
        "--threads",
        "2",
    )
    assert base[0] == threaded[0] == 0
    assert base[1] == threaded[1]
