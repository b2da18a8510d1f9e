import ast
import json
from pathlib import Path

import pytest

import clumplab
from clumplab import core
from clumplab.cli import main
from clumplab.constructions import counterexample_graph, eppt_odd
from clumplab.serialize import (
    SchemaError,
    dual_weights_to_json,
    dump_clump_json,
    format_rational,
    parse_clump_json,
    parse_dual_weights,
    parse_rational,
)

from fractions import Fraction


def test_graph_round_trip():
    g = counterexample_graph(2, 6, 1)
    assert parse_clump_json(dump_clump_json(g)) == g
    g = eppt_odd(2, 5, 4)
    assert parse_clump_json(dump_clump_json(g)) == g


def test_missing_field_names_the_field():
    payload = {"k": 3, "layers": [[{"color": 0}]]}
    with pytest.raises(SchemaError, match="weight"):
        parse_clump_json(json.dumps(payload))


def test_small_k_rejected():
    payload = {"k": 1, "layers": [[{"color": 0, "weight": 1}]]}
    with pytest.raises(SchemaError, match="k"):
        parse_clump_json(json.dumps(payload))


@pytest.mark.parametrize("field", ["k", "color", "weight"])
def test_boolean_is_not_an_integer(field):
    layers = [[{"color": 0, "weight": 1}], [{"color": 1, "weight": 2}]]
    payload = {"k": 3, "layers": layers}
    if field == "k":
        payload["k"] = True
    else:
        layers[1][0][field] = True
    with pytest.raises(SchemaError, match=f"{field}.* must be an integer.*got True"):
        parse_clump_json(json.dumps(payload))


def test_rational_round_trip():
    for value in (Fraction(5, 2), Fraction(-3, 7), Fraction(4)):
        assert parse_rational(format_rational(value)) == value
    with pytest.raises(SchemaError):
        parse_rational("5/0")


def test_dual_weights_round_trip():
    u = {(0, 0): Fraction(1, 5), (1, 2): Fraction(3, 10)}
    assert parse_dual_weights(dual_weights_to_json(u)) == u


def _write_graph(tmp_path, graph, name="g.json"):
    path = tmp_path / name
    path.write_text(dump_clump_json(graph))
    return str(path)


def test_generate_is_deterministic(tmp_path, capsys):
    args = ["generate", "counterexample", "--s", "1", "--delta", "4", "--p", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert parse_clump_json(first) == counterexample_graph(1, 4, 2)


def test_generate_edge_export(tmp_path):
    edges = tmp_path / "g.edges"
    args = [
        "generate", "counterexample", "--s", "1", "--delta", "4", "--p", "1",
        "--out", str(tmp_path / "g.json"), "--export-edges", str(edges),
    ]
    assert main(args) == 0
    header = edges.read_text().splitlines()[0]
    assert header.split()[0] == "15"


def test_oversized_edge_export_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(core, "MAX_BLOW_UP_EDGES", 10)
    out, edges = tmp_path / "g.json", tmp_path / "g.edges"
    args = [
        "generate", "counterexample", "--s", "1", "--delta", "4", "--p", "1",
        "--out", str(out), "--export-edges", str(edges),
    ]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: blow-up has 34 edges, above the limit of 10\n"
    )
    assert not out.exists() and not edges.exists()


def test_verify_pass_and_fail(tmp_path, capsys):
    path = _write_graph(tmp_path, counterexample_graph(1, 4, 1))
    assert main(["verify", "--in", path, "--delta", "4"]) == 0
    out = capsys.readouterr().out
    assert "n 15" in out and "blow-up-diameter 6" in out
    assert main(["verify", "--in", path, "--delta", "5"]) == 1


def test_canonicalize_command(tmp_path):
    from clumplab.core import WeightedClumpGraph

    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 2)], [(2, 2)], [(0, 2)], [(1, 2)]])
    path = _write_graph(tmp_path, g)
    out_path = str(tmp_path / "canon.json")
    log_path = str(tmp_path / "log.json")
    code = main([
        "canonicalize", "--in", path, "--delta", "2",
        "--out", out_path, "--log", log_path,
    ])
    assert code == 0
    from clumplab.canonical import check_canonical

    result = parse_clump_json(Path(out_path).read_text())
    assert check_canonical(result).passes
    assert json.loads(Path(log_path).read_text())


def test_certify_command(tmp_path, capsys):
    path = _write_graph(tmp_path, counterexample_graph(1, 4, 2))
    dump = str(tmp_path / "u.json")
    assert main(["certify", "--in", path, "--delta", "4", "--dump", dump]) == 0
    out = capsys.readouterr().out
    assert "feasible yes" in out and "u-tilde 2/5" in out
    assert main(["certify", "--in", path, "--weights", dump]) == 0
    out = capsys.readouterr().out
    assert "feasible yes" in out


@pytest.mark.parametrize("field, value", [("layer", [0]), ("layer", "0"), ("color", True)])
def test_dual_weight_keys_must_be_integers(tmp_path, capsys, field, value):
    path = _write_graph(tmp_path, counterexample_graph(1, 4, 2))
    entry = {"layer": 0, "color": 0, "value": "1/5"}
    entry[field] = value
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"u": [entry]}))
    assert main(["certify", "--in", path, "--weights", str(weights)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: u[0].{field} must be an integer, got {value!r}\n"


def test_dual_weight_on_unknown_clump_exits_2(tmp_path, capsys):
    path = _write_graph(tmp_path, counterexample_graph(1, 4, 2))
    weights = tmp_path / "u.json"
    assert main(["certify", "--in", path, "--dump", str(weights)]) == 0
    payload = json.loads(weights.read_text())
    payload["u"].append({"layer": 99, "color": 0, "value": "100"})
    weights.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["certify", "--in", path, "--weights", str(weights)]) == 2
    assert capsys.readouterr().err == (
        "error: dual weight for clump (99, 0), which is not in the graph\n"
    )


def test_sieve_command(tmp_path, capsys):
    path = _write_graph(tmp_path, counterexample_graph(1, 4, 2))
    report = str(tmp_path / "report.json")
    assert main(["sieve", "--in", path, "--delta", "4", "--report", report]) == 0
    assert capsys.readouterr().out == (
        "windows 39/39 pass\n"
        "constraint mass pass\n"
        "constraint psi pass\n"
        "constraint pair pass\n"
        "constraint triple pass\n"
        "constraint partition pass\n"
        "mu 1/2\n"
        "alpha1 1/2\n"
        "alpha2 0\n"
        "psi 4/7\n"
        "phi 13/7\n"
    )
    payload = json.loads(Path(report).read_text())
    assert list(payload) == ["windows", "constraints"]
    assert len(payload["windows"]) == 39 and all(w["pass"] for w in payload["windows"])
    assert payload["constraints"] == dict.fromkeys(
        ("mass", "psi", "pair", "triple", "partition"), True
    )


def test_lp_commands(tmp_path, capsys):
    assert main(["lp", "epsz"]) == 0
    assert capsys.readouterr().out == (
        "optimum 57/23\n"
        "vertex 57/23 0 13/23 17/23 6/23\n"
        "dual 3/23 0 3/46 3/46 1/46\n"
    )
    path = _write_graph(tmp_path, counterexample_graph(1, 4, 1))
    assert main(["lp", "min-order", "--in", path, "--delta", "4"]) == 0
    out = capsys.readouterr().out
    assert "int-value 15" in out


def test_search_command(capsys):
    assert main(["search", "--delta", "2", "--dmax", "2", "--budget", "12"]) == 0
    out = capsys.readouterr().out
    assert "D 1 min-n 3" in out and "D 2 min-n 4" in out
    assert main(["search", "--delta", "2", "--dmax", "4"]) == 0
    assert capsys.readouterr().out == (
        "D 1 min-n 3\n"
        "D 2 min-n 4\n"
        "D 3 min-n 6\n"
        "D 4 min-n 7\n"
        "best-phi 8/7\n"
        "complete yes\n"
    )


def test_suite_command(tmp_path, capsys):
    csv_path = str(tmp_path / "suite.csv")
    code = main([
        "suite", "--s-values", "1", "--delta-span", "1",
        "--p-values", "1,2", "--csv", csv_path,
    ])
    assert code == 0
    rows = Path(csv_path).read_text().splitlines()
    assert rows[0].startswith("instance,")
    assert len(rows) == 5  # header + 2 deltas x 2 p values
    assert all(row.endswith("pass") for row in rows[1:])


def test_slack_env_is_ignored(monkeypatch, tmp_path, capsys, psi_graph):
    path = _write_graph(tmp_path, psi_graph)
    assert main(["sieve", "--in", path, "--delta", "3", "--slack", "0"]) == 1
    assert "constraint psi fail" in capsys.readouterr().out
    monkeypatch.setenv("CLUMPLAB_SLACK", "0")
    assert main(["sieve", "--in", path, "--delta", "3"]) == 0
    assert "constraint psi pass" in capsys.readouterr().out


def test_source_reads_no_environment():
    # every setting is a command-line option; nothing ambient changes a result
    src = Path(clumplab.__file__).parent
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        or isinstance(node, ast.alias) and node.name in ("environ", "getenv")
    ]
    assert reads == []


@pytest.mark.parametrize("args", [
    ["verify", "--in", "{tmp}/missing.json", "--delta", "2"],
    ["generate", "counterexample", "--s", "1", "--delta", "5", "--p", "2",
     "--out", "{tmp}/missing-dir/g.json"],
])
def test_unreadable_or_unwritable_file_exits_2(tmp_path, capsys, args):
    assert main([a.format(tmp=tmp_path) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err


@pytest.mark.parametrize("args", [
    ["sieve", "--in", "{graph}", "--delta", "0"],
    ["sieve", "--in", "{graph}", "--delta", "-2"],
    ["certify", "--in", "{graph}", "--delta", "0"],
    ["search", "--delta", "0", "--dmax", "2"],
    ["search", "--delta", "2", "--dmax", "0"],
    ["verify", "--in", "{graph}", "--delta", "0"],
    ["canonicalize", "--in", "{graph}", "--delta", "-3",
     "--out", "{tmp}/canon.json", "--log", "{tmp}/log.json"],
])
def test_nonpositive_delta_or_dmax_exits_2(tmp_path, capsys, args):
    graph = _write_graph(tmp_path, counterexample_graph(1, 4, 2))
    assert main([a.format(graph=graph, tmp=tmp_path) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["verify", "--in", str(bad), "--delta", "2"]) == 2
    assert "error:" in capsys.readouterr().err
