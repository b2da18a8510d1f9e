import ast
import hashlib
import importlib.util
import json
import os
import random
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clumplab
from clumplab import canonical, certify, core
from clumplab.canonical import check_canonical
from clumplab.certify import dual_certificate
from clumplab.cli import main
from clumplab.constructions import counterexample_graph, eppt_even, eppt_odd
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

from conftest import random_layers


def test_graph_round_trip():
    g = counterexample_graph(2, 6, 1)
    assert parse_clump_json(dump_clump_json(g)) == g
    g = eppt_odd(2, 5, 4)
    assert parse_clump_json(dump_clump_json(g)) == g


def _graph_dict_json(graph):
    """dump_clump_json's oracle: the graph's dict through json.dumps."""
    layers = [[{"color": c, "weight": w} for c, w in row.items()] for row in graph.rows]
    return json.dumps({"k": graph.k, "layers": layers}, indent=2, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 8), depth=st.integers(0, 60), max_weight=st.integers(1, 10**30),
    seed=st.integers(0, 10**9),
)
def test_graph_writer_matches_json_dumps(k, depth, max_weight, seed):
    layers = random_layers(random.Random(seed), k, max_depth=depth, max_weight=max_weight)
    graph = core.WeightedClumpGraph(k, layers)
    text = dump_clump_json(graph)
    expected = _graph_dict_json(graph)
    # not `assert text == expected`: pytest's diff of two long texts takes
    # seconds, and a shrinking Hypothesis run makes one per failing example
    if text != expected:
        lines, want = text.splitlines(True), expected.splitlines(True)
        i = next(i for i, pair in enumerate(zip(lines + [""], want + [""])) if len(set(pair)) > 1)
        raise AssertionError(f"line {i + 1}: {lines[i:i + 1]} != {want[i:i + 1]}")
    assert parse_clump_json(text) == graph


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


def _log_json(log):
    """The --log writer's oracle: the entries through json.dumps."""
    entries = [{"rule": e.rule, "layer": e.layer} for e in log.entries]
    return json.dumps(entries, indent=2) + "\n"


def _canonicalize_log(tmp_path, graph, delta):
    """The --log text of clumplab canonicalize on graph."""
    path = _write_graph(tmp_path, graph)
    log = tmp_path / "log.json"
    argv = ["canonicalize", "--in", path, "--delta", str(delta), "--out", "-", "--log", str(log)]
    assert main(argv) == 0
    return log.read_text(encoding="utf-8")


def test_rewrite_log_matches_json_dumps(tmp_path):
    rng = random.Random(20261022)
    rewrites = 0
    for _ in range(40):
        graph = core.WeightedClumpGraph(3, random_layers(rng, 3, max_depth=60))
        delta = core.min_weighted_degree(graph)
        if delta < 1:
            continue
        canon, log = canonical.canonicalize(graph, delta)
        assert _canonicalize_log(tmp_path, graph, delta) == _log_json(log)
        rewrites += len(log)
        # a canonical graph takes no rewrite: the empty log
        assert _canonicalize_log(tmp_path, canon, delta) == "[]\n" == _log_json(
            canonical.TransformLog()
        )
    assert rewrites > 100


def test_rewrite_log_escapes_rule_text_as_json_dumps(tmp_path, monkeypatch):
    graph = counterexample_graph(1, 4, 1)
    log = canonical.TransformLog([
        canonical.RewriteEntry('quote " and backslash \\ in a rule', 0),
        canonical.RewriteEntry("d\u00e9j\u00e0 vu \u2713 \U0001d4b3 \t\n", 12),
    ])
    monkeypatch.setattr(canonical, "canonicalize", lambda graph, delta: (graph, log))
    assert _canonicalize_log(tmp_path, graph, 4) == _log_json(log)


def test_certify_command(tmp_path, capsys):
    path = _write_graph(tmp_path, counterexample_graph(1, 4, 2))
    dump = str(tmp_path / "u.json")
    assert main(["certify", "--in", path, "--delta", "4", "--dump", dump]) == 0
    out = capsys.readouterr().out
    assert "feasible yes" in out and "u-tilde 2/5" in out
    assert main(["certify", "--in", path, "--weights", dump]) == 0
    out = capsys.readouterr().out
    assert "feasible yes" in out


def test_certify_non_canonical_graph_prints_its_bound(tmp_path, capsys):
    # 259 single heavy clumps each break (iv); the certificate needs no
    # canonical form, and each of the 260 layers totals 2/5
    graph = core.WeightedClumpGraph(3, [[(0, 1)], *([(i % 3, 2)] for i in range(1, 260))])
    path = _write_graph(tmp_path, graph)
    assert main(["certify", "--in", path, "--delta", "2"]) == 0
    assert capsys.readouterr() == (
        "feasible yes\nu-tilde 2/5\nobjective 104\ndiameter-bound 2599/4\n", ""
    )
    graph = core.WeightedClumpGraph(3, [[(0, 1)], [(1, 1), (2, 1)], [(1, 1)]])
    assert check_canonical(graph).violations == [(1, "ii")]
    path = _write_graph(tmp_path, graph)
    assert main(["certify", "--in", path]) == 0
    assert capsys.readouterr() == ("feasible yes\nu-tilde 2/5\nobjective 6/5\n", "")


def test_certify_graph_that_canonicalize_refuses(tmp_path, capsys):
    # L_0 = {0}, L_1 = {1, 2, 3}, L_2 full, L_3 = {0}: the (iii) repair
    # needs k = 3, but the certificate holds at k = 4
    graph = core.WeightedClumpGraph(
        4, [[(0, 1)], [(1, 1), (2, 1), (3, 1)], [(0, 1), (1, 1), (2, 1), (3, 1)], [(0, 1)]]
    )
    path = _write_graph(tmp_path, graph)
    assert main(["canonicalize", "--in", path, "--delta", "3"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: full-palette layer 2 followed by a single needs the three-color "
        "weight redistribution, but k=4\n",
    )
    dump = str(tmp_path / "u.json")
    assert main(["certify", "--in", path, "--delta", "3", "--dump", dump]) == 0
    assert capsys.readouterr() == (
        "feasible yes\nu-tilde 3/8\nobjective 3/2\ndiameter-bound 9\n", ""
    )
    assert main(["certify", "--in", path, "--weights", dump]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "feasible yes"


def test_certify_two_colored_graph(tmp_path, capsys):
    # at k = 2 every layer is a single, weighing u_tilde = 1/2: the bound
    # reads 2n/delta + 1
    path = _write_graph(tmp_path, core.WeightedClumpGraph(2, [[(0, 1)], [(1, 2)]]))
    dump = str(tmp_path / "u.json")
    assert main(["certify", "--in", path, "--delta", "1", "--dump", dump]) == 0
    assert capsys.readouterr() == (
        "feasible yes\nu-tilde 1/2\nobjective 1\ndiameter-bound 7\n", ""
    )
    assert main(["certify", "--in", path, "--weights", dump]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "feasible yes"


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


@pytest.mark.parametrize("value", ["1_000", "  3 ", "\u0663", "1/-2", "+1", "5/0"])
def test_dual_weight_value_must_be_a_plain_rational(tmp_path, capsys, value):
    # int() alone takes the first four (the third is an Arabic-Indic 3)
    path = _write_graph(tmp_path, counterexample_graph(1, 4, 2))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"u": [{"layer": 0, "color": 0, "value": value}]}))
    assert main(["certify", "--in", path, "--weights", str(weights)]) == 2
    assert capsys.readouterr() == (
        "", f"error: bad rational {value!r}: expected an integer or p/q with q != 0\n"
    )


@pytest.mark.parametrize("value", [3, 1.5, True, None, [1]], ids=repr)
def test_dual_weight_value_must_be_a_json_string(tmp_path, capsys, value):
    # rationals travel as "p/q" strings: a JSON number is not read through str()
    path = _write_graph(tmp_path, counterexample_graph(1, 4, 2))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"u": [{"layer": 0, "color": 0, "value": value}]}))
    assert main(["certify", "--in", path, "--weights", str(weights)]) == 2
    assert capsys.readouterr() == (
        "", f'error: u[0].value must be a "p/q" string, got {value!r}\n'
    )


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


def test_sieve_on_a_two_colored_path(tmp_path, capsys):
    # every layer pair has the shape (1, 1, 0), which the three-color
    # grammar takes, so the sieve reads the graph as a 3-colored one
    graph = core.WeightedClumpGraph(2, [[(0, 1)], [(1, 3)], [(0, 2)], [(1, 3)], [(0, 2)]])
    path = _write_graph(tmp_path, graph)
    assert main(["sieve", "--in", path, "--delta", "3"]) == 0
    assert capsys.readouterr() == (
        "windows 12/12 pass\n"
        "constraint mass pass\n"
        "constraint psi pass\n"
        "constraint pair pass\n"
        "constraint triple pass\n"
        "constraint partition pass\n"
        "mu 1\n"
        "alpha1 0\n"
        "alpha2 0\n"
        "psi 0\n"
        "phi 12/11\n",
        "",
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
    assert capsys.readouterr() == ("lp-value 15\nint-value 15\n", "")


def _alternating_path(layers: int) -> core.WeightedClumpGraph:
    return core.WeightedClumpGraph(3, [[(i % 2, 1)] for i in range(layers)])


@pytest.mark.parametrize("graph, delta, expected", [
    # the cap is 40 clumps; above it the answer is an integer when
    # rounding the LP vertex up already meets the rounded-up LP value,
    # and unknown only when branch and bound would branch
    (_alternating_path(40), 1, (40, 40)),
    (_alternating_path(41), 1, (41, 41)),
    (eppt_odd(2, 5, 20), 5, (46, 46)),  # 41 clumps
    (eppt_even(2, 8, 30), 8, (112, 112)),  # 46 clumps
    (counterexample_graph(1, 4, 5), 4, (67, 67)),  # 45 clumps
    (eppt_even(2, 8, 28), 7, (92, "unknown")),  # 43 clumps
])
def test_lp_min_order_around_the_clump_cap(tmp_path, capsys, graph, delta, expected):
    path = _write_graph(tmp_path, graph)
    assert main(["lp", "min-order", "--in", path, "--delta", str(delta)]) == 0
    assert capsys.readouterr() == ("lp-value %s\nint-value %s\n" % expected, "")


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
    # header + 2 deltas x 2 p values, pinning the certificate bound and
    # the sieve's window counts as well as the verdict
    assert Path(csv_path).read_text() == (
        "instance,n,D,min_degree,phi,cert_bound,sieve_pass,sieve_total,status\n"
        '"H(1,2,1)",9,6,2,4/3,49/4,18,18,pass\n'
        '"H(1,2,2)",16,13,2,13/8,21,39,39,pass\n'
        '"H(1,3,1)",12,6,3,3/2,11,18,18,pass\n'
        '"H(1,3,2)",22,13,3,39/22,58/3,39,39,pass\n'
    )


def test_suite_derives_each_graph_fact_once(tmp_path, monkeypatch, capsys):
    # the suite reads each graph's minimum degree twice (itself and in
    # canonicalize), and the graph computes it once; canonicalize is the
    # one reader of the canonical violations, and scans each graph once
    target = core.weight_rows(counterexample_graph(1, 5, 2))
    sums_of: list = []
    scans_of: list = []

    def spy_sums(rows, *layer_range):
        # canonicalize re-checks the degrees of each rewrite's layers with
        # a range: only the passes over whole graphs count
        if not layer_range:
            sums_of.append([dict(row) for row in rows])
        return neighbor_sum_range(rows, *layer_range)

    def spy_violations(k, rows, *layer_range):
        # canonicalize re-checks each rewrite's layers with a range: only
        # the scans of whole graphs count
        if not layer_range:
            scans_of.append([dict(row) for row in rows])
        return violations(k, rows, *layer_range)

    neighbor_sum_range, violations = core.neighbor_sum_range, canonical._violations
    for module in (core, canonical, certify):
        monkeypatch.setattr(module, "neighbor_sum_range", spy_sums)
    monkeypatch.setattr(canonical, "_violations", spy_violations)
    code = main([
        "suite", "--s-values", "1", "--delta-span", "3", "--p-values", "2",
        "--csv", str(tmp_path / "suite.csv"),
    ])
    assert code == 0
    assert sums_of.count(target) == 1
    assert scans_of.count(target) == 1
    # the four graphs are scanned whole once each, and so is the result of
    # H(1,2,2)'s two rewrites, when canonicalize checks it; the graph
    # between the two rewrites is re-checked on its changed layers only
    assert len(scans_of) == 5
    assert all(scans_of.count(rows) == 1 for rows in scans_of)
    # and each of these five graphs gets one degree pass
    assert all(sums_of.count(rows) == 1 for rows in scans_of)


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
    ["sieve", "--in", "{graph}", "--delta", "4", "--report", "{tmp}/missing/r.json"],
    ["certify", "--in", "{graph}", "--delta", "4", "--dump", "{tmp}/missing/u.json"],
    ["canonicalize", "--in", "{graph}", "--delta", "4",
     "--out", "-", "--log", "{tmp}/missing/log.json"],
    ["generate", "counterexample", "--s", "1", "--delta", "4", "--p", "2",
     "--out", "-", "--export-edges", "{tmp}/missing/g.edges"],
    # a real path paired with an unwritable one: neither is written
    pytest.param(["generate", "counterexample", "--s", "1", "--delta", "4", "--p", "2",
                  "--out", "{tmp}/h.json", "--export-edges", "{tmp}/missing/h.edges"],
                 id="generate-out-file"),
    pytest.param(["canonicalize", "--in", "{graph}", "--delta", "4",
                  "--out", "{tmp}/canon.json", "--log", "{tmp}/missing/log.json"],
                 id="canonicalize-out-file"),
    # nor is the input, named as the output
    pytest.param(["canonicalize", "--in", "{graph}", "--delta", "4",
                  "--out", "{graph}", "--log", "{tmp}/missing/log.json"],
                 id="canonicalize-in-place"),
], ids=lambda args: args[0])
def test_unwritable_output_leaves_stdout_empty(tmp_path, capsys, args):
    # main stages every file before it replaces any target or writes
    # stdout, so a failed write leaves the directory and stdout as they were
    graph_json = json.loads(dump_clump_json(counterexample_graph(1, 4, 2)))
    (tmp_path / "g.json").write_text(json.dumps(graph_json))  # not as canonicalize writes it
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    graph = str(tmp_path / "g.json")
    assert main([a.format(graph=graph, tmp=tmp_path) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory: ")
    assert captured.err.endswith("missing/" + args[-1].split("/")[-1] + "'\n")
    assert captured.err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_output_naming_a_directory_writes_no_target(tmp_path, capsys):
    # os.replace refuses a directory target, so main checks for one before
    # it replaces any target
    (tmp_path / "d").mkdir()
    args = ["generate", "counterexample", "--s", "1", "--delta", "4", "--p", "2",
            "--out", str(tmp_path / "g.json"), "--export-edges", str(tmp_path / "d")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path / 'd'}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert list((tmp_path / "d").iterdir()) == []


_GENERATE = ["generate", "counterexample", "--s", "1", "--delta", "4", "--p", "2"]


@pytest.mark.parametrize("args, named", [
    (["canonicalize", "--in", "{graph}", "--delta", "4",
      "--out", "{tmp}/x.json", "--log", "{tmp}/x.json"], "{tmp}/x.json"),
    ([*_GENERATE, "--out", "{tmp}/e.txt", "--export-edges", "{tmp}/./e.txt"], "{tmp}/./e.txt"),
    # a symlink and its target are one file
    (["canonicalize", "--in", "{graph}", "--delta", "4",
      "--out", "{tmp}/link.json", "--log", "{tmp}/real.json"], "{tmp}/real.json"),
    # the input may be an output, but only once
    (["canonicalize", "--in", "{graph}", "--delta", "4",
      "--out", "{graph}", "--log", "{graph}"], "{graph}"),
], ids=["canonicalize", "generate", "symlink", "input"])
def test_two_outputs_naming_one_file_write_nothing(tmp_path, capsys, args, named):
    # one file would keep only the text written last, so main refuses the
    # pair before it writes any target
    graph = _write_graph(tmp_path, counterexample_graph(1, 4, 2))
    (tmp_path / "real.json").write_text("old")
    (tmp_path / "link.json").symlink_to("real.json")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([a.format(graph=graph, tmp=tmp_path) for a in args]) == 2
    target = named.format(graph=graph, tmp=tmp_path)
    assert capsys.readouterr() == ("", f"error: two outputs name the same file: {target}\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_two_outputs_may_both_go_to_stdout(tmp_path, capsys):
    graph = _write_graph(tmp_path, core.WeightedClumpGraph(3, [[(0, 1)], [(1, 2)], [(2, 2)]]))
    assert main(["canonicalize", "--in", graph, "--delta", "2", "--out", "-", "--log", "-"]) == 0
    out, err = capsys.readouterr()
    result, log = canonical.canonicalize(parse_clump_json(Path(graph).read_text()), 2)
    entries = [{"rule": e.rule, "layer": e.layer} for e in log.entries]
    assert log and out == dump_clump_json(result) + json.dumps(entries, indent=2) + "\n"
    assert err == f"rewrites {len(log)}\n"


def test_device_target_is_written_as_it_is(tmp_path, capsys):
    # only new or regular files are staged, so /dev/null stays a device
    assert main([*_GENERATE, "--out", str(tmp_path / "g.json"),
                 "--export-edges", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


def test_symlink_target_is_written_through_and_modes_are_kept(tmp_path, capsys):
    (tmp_path / "real.json").write_text("old")
    (tmp_path / "real.json").chmod(0o600)
    (tmp_path / "link.json").symlink_to("real.json")
    (tmp_path / "e.edges").write_text("old")
    (tmp_path / "e.edges").chmod(0o640)
    assert main([*_GENERATE, "--out", str(tmp_path / "link.json"),
                 "--export-edges", str(tmp_path / "e.edges")]) == 0
    assert (tmp_path / "link.json").is_symlink()
    assert json.loads((tmp_path / "real.json").read_text())["k"] == 3
    assert stat.S_IMODE((tmp_path / "real.json").stat().st_mode) == 0o600
    assert stat.S_IMODE((tmp_path / "e.edges").stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.edges", "link.json", "real.json"]


@pytest.mark.parametrize("may_write", [True, False], ids=["root", "user"])
def test_read_only_target_is_refused_as_open_would(tmp_path, capsys, monkeypatch, may_write):
    # a read-only file is refused up front, before any target is replaced,
    # unless the user may write it anyway (root); then its mode is kept
    (tmp_path / "ro.edges").write_text("old")
    (tmp_path / "ro.edges").chmod(0o444)
    monkeypatch.setattr(os, "access", lambda path, mode: may_write)
    code = main([*_GENERATE, "--out", str(tmp_path / "g.json"),
                 "--export-edges", str(tmp_path / "ro.edges")])
    captured = capsys.readouterr()
    assert stat.S_IMODE((tmp_path / "ro.edges").stat().st_mode) == 0o444
    if may_write:
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "ro.edges"]
        assert (tmp_path / "ro.edges").read_text() != "old"
    else:
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: [Errno 13] Permission denied: '{tmp_path / 'ro.edges'}'\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["ro.edges"]
        assert (tmp_path / "ro.edges").read_text() == "old"


@pytest.mark.parametrize("args", [
    ["sieve", "--in", "{graph}", "--delta", "0"],
    ["sieve", "--in", "{graph}", "--delta", "-2"],
    ["certify", "--in", "{graph}", "--delta", "0"],
    ["search", "--delta", "0", "--dmax", "2"],
    ["search", "--delta", "2", "--dmax", "0"],
    ["verify", "--in", "{graph}", "--delta", "0"],
    ["canonicalize", "--in", "{graph}", "--delta", "-3",
     "--out", "{tmp}/canon.json", "--log", "{tmp}/log.json"],
    *(
        ["generate", family, "--r", "2", "--delta", delta, "--diam", "4",
         "--out", "{tmp}/e.json"]
        for family in ("eppt-odd", "eppt-even")
        for delta in ("0", "-1")
    ),
])
def test_nonpositive_delta_or_dmax_exits_2(tmp_path, capsys, args):
    graph = _write_graph(tmp_path, counterexample_graph(1, 4, 2))
    assert main([a.format(graph=graph, tmp=tmp_path) for a in args]) == 2
    captured = capsys.readouterr()
    bad = "d_max" if args[-2:] == ["--dmax", "0"] else "delta"
    assert captured.err.startswith(f"error: {bad}=")
    assert captured.err.endswith(" must be positive\n")
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


@pytest.mark.parametrize("args", [
    ["search", "--delta", "2", "--dmax", "2", "--budget", "0"],
    ["sieve", "--in", "{graph}", "--delta", "4", "--slack", "-1",
     "--report", "{tmp}/report.json"],
    ["suite", "--s-values", "1", "--delta-span", "1", "--p-values", "1",
     "--slack", "-1", "--csv", "{tmp}/suite.csv"],
    # k = 5, where the suite never runs the sieve
    ["suite", "--s-values", "2", "--delta-span", "0", "--p-values", "1",
     "--slack", "-1", "--csv", "{tmp}/suite.csv"],
    ["suite", "--s-values", "1", "--delta-span", "-1", "--csv", "{tmp}/suite.csv"],
    ["certify", "--in", "{graph}", "--weights", "{weights}", "--delta", "0"],
    ["certify", "--in", "{graph}", "--weights", "{weights}", "--dump", "{tmp}/u.json"],
    ["certify", "--in", "{graph}", "--weights", "{weights}", "--delta", "4"],
    # the bound needs every clump at weighted degree >= delta, and the
    # graph, H(1,4,2), has minimum degree 4
    ["certify", "--in", "{graph}", "--delta", "5"],
    ["certify", "--in", "{graph}", "--delta", "100", "--dump", "{tmp}/u.json"],
    *(
        ["suite", option, bad, "--csv", "{tmp}/suite.csv"]
        for option in ("--s-values", "--p-values")
        for bad in (",", "x", "1,", "1,x")
    ),
])
def test_rejected_option_exits_2_and_writes_nothing(tmp_path, capsys, args):
    graph_obj = counterexample_graph(1, 4, 2)
    graph = _write_graph(tmp_path, graph_obj)
    weights = tmp_path / "w.json"
    weights.write_text(dual_weights_to_json(dual_certificate(graph_obj).u))
    argv = [a.format(graph=graph, weights=weights, tmp=tmp_path) for a in args]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "w.json"]


@pytest.mark.parametrize("option", ["--s-values", "--p-values"])
def test_bad_integer_list_names_the_option_and_item(capsys, option):
    assert main(["suite", option, "1,x,2", "--csv", "-"]) == 2
    assert capsys.readouterr() == ("", f"error: {option} item 'x' is not an integer\n")


@pytest.mark.parametrize("family", [
    # (generate arguments, the first layer pair outside the grammar, its shape)
    (["counterexample", "--s", "2", "--delta", "5", "--p", "1"], (0, 1), (1, 4, 0)),  # k = 5
    (["eppt-odd", "--r", "2", "--delta", "5", "--diam", "4"], (1, 2), (2, 2, 0)),  # k = 4
])
def test_sieve_rejects_graph_not_3_colored(tmp_path, capsys, family):
    # the sieve takes any k, and its pair grammar refuses these graphs
    args, pair, shape = family
    path = str(tmp_path / "g.json")
    assert main(["generate", *args, "--out", path]) == 0
    report = tmp_path / "report.json"
    assert main(["sieve", "--in", path, "--delta", "4", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: layer pair {pair} has color shape {shape}, which no canonical "
        "3-colored profile produces\n"
    )
    assert captured.out == ""
    assert not report.exists()


def _readme_cli_lines() -> list[str]:
    """The clumplab commands of the fenced sh block under ## CLI."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("clumplab ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


# runs main() on each argv of the JSON list argv[1], in the working
# directory, and prints the -O level and [exit code, stdout, stderr] per
# run as JSON
_RUN_MAIN = """
import contextlib, io, json, sys
from clumplab.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps([sys.flags.optimize, runs]))
"""


def _run_cli_subprocess(argvs, cwd, optimize, timeout=120):
    src = Path(clumplab.__file__).parents[1]
    flags = ["-O"] if optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _RUN_MAIN, json.dumps(argvs)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=timeout, check=True,
    )
    level, runs = json.loads(proc.stdout)
    assert level == len(flags)
    return [tuple(run) for run in runs]


def test_cli_under_python_O_matches_in_process(tmp_path, monkeypatch, capsys):
    # pytest itself cannot run under -O here (its -O warning is an error),
    # so the README block and three exit-2 checks run in a subprocess
    readme = [shlex.split(line)[1:] for line in _readme_cli_lines()]
    argvs = readme + [
        ["verify", "--in", "g.json", "--delta", "0"],
        ["generate", "counterexample", "--s", "2", "--delta", "5", "--p", "1",
         "--out", "k5.json"],
        ["sieve", "--in", "k5.json", "--delta", "4"],
        ["search", "--delta", "2", "--dmax", "2", "--budget", "0"],
    ]
    (tmp_path / "optimized").mkdir()
    optimized = _run_cli_subprocess(argvs, tmp_path / "optimized", optimize=True)
    (tmp_path / "in-process").mkdir()
    monkeypatch.chdir(tmp_path / "in-process")
    expected = []
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        expected.append((code, captured.out, captured.err))
    assert optimized == expected
    assert [code for code, _, _ in expected] == [0] * len(readme) + [2, 0, 2, 2]
    files = {
        p.name: p.read_bytes() for p in sorted((tmp_path / "in-process").iterdir())
    }
    assert files == {
        p.name: p.read_bytes() for p in sorted((tmp_path / "optimized").iterdir())
    }


def test_canonicalize_with_huge_palette_is_fast(tmp_path):
    # the repairs look for the smallest free color, which takes a few
    # steps however many colors the graph declares
    graph = core.WeightedClumpGraph(10**8, [[(0, 1)], [(1, 2), (2, 2)], [(1, 2), (0, 2)]])
    _write_graph(tmp_path, graph)
    argv = ["canonicalize", "--in", "g.json", "--delta", "2", "--out", "canon.json"]
    [(code, _, err)] = _run_cli_subprocess([argv], tmp_path, optimize=False)
    assert code == 0 and err.startswith("rewrites ")
    out = parse_clump_json((tmp_path / "canon.json").read_text())
    assert out.total_weight == graph.total_weight
    assert out.diameter_index == graph.diameter_index
    assert core.min_weighted_degree(out) == core.min_weighted_degree(graph)
    assert check_canonical(out).passes


def test_certify_with_huge_palette_is_fast(tmp_path):
    # the certificate's scale comes from the layer sizes present, not from
    # every denominator up to k, so a palette of 10**8 colors costs nothing
    graph = core.WeightedClumpGraph(10**8, [[(0, 1)], [(1, 3), (2, 3)], [(0, 3)]])
    _write_graph(tmp_path, graph)
    argvs = [
        ["canonicalize", "--in", "g.json", "--delta", "3", "--out", "canon.json"],
        ["certify", "--in", "canon.json", "--delta", "3"],
    ]
    runs = _run_cli_subprocess(argvs, tmp_path, optimize=False, timeout=10)
    assert runs[0][0] == 0
    assert runs[1] == (
        0,
        "feasible yes\n"
        "u-tilde 99999999/299999996\n"
        "objective 299999997/299999996\n"
        "diameter-bound 3299999957/299999997\n",
        "",
    )


@pytest.mark.parametrize("args", [
    ["verify", "--in", "{bad}", "--delta", "2"],
    ["certify", "--in", "{graph}", "--weights", "{bad}"],
])
def test_deeply_nested_json_exits_2(tmp_path, capsys, args):
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 100_000)
    graph = _write_graph(tmp_path, counterexample_graph(1, 4, 1))
    assert main([a.format(bad=bad, graph=graph) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid JSON: ")
    assert captured.out == ""


def test_huge_or_deep_value_gives_a_short_error(tmp_path):
    # a subprocess, so the 950-deep list parses on a fresh stack
    entry = '{"k": 3, "layers": [[{"color": %s, "weight": 1}]]}'
    (tmp_path / "huge.json").write_text(entry % json.dumps("x" * 1_000_000))
    (tmp_path / "deep.json").write_text(entry % ("[" * 950 + "]" * 950))
    argvs = [["verify", "--in", name, "--delta", "2"] for name in ("huge.json", "deep.json")]
    for code, out, err in _run_cli_subprocess(argvs, tmp_path, optimize=False):
        assert (code, out) == (2, "")
        assert err.startswith("error: layers[0][0].color must be an integer, got ")
        assert err.endswith("…\n") and len(err.encode()) < 200


@pytest.mark.parametrize("value", [
    "x" * 38, [1, [2.5, None]], {"b": [], "a": "q'\""}, -7.0, None, [], {},
])
def test_short_value_is_echoed_whole(value):
    entry = {"color": value, "weight": 1}
    with pytest.raises(SchemaError) as exc:
        parse_clump_json(json.dumps({"k": 3, "layers": [[entry]]}))
    assert str(exc.value) == f"layers[0][0].color must be an integer, got {value!r}"
    with pytest.raises(SchemaError) as exc:
        parse_clump_json(json.dumps({"k": value, "layers": []}))
    assert str(exc.value) == f'field "k" must be an integer >= 2, got {value!r}'


def test_long_value_is_cut_at_40_characters():
    with pytest.raises(SchemaError) as exc:
        parse_clump_json(json.dumps({"k": "x" * 39, "layers": []}))
    assert str(exc.value) == 'field "k" must be an integer >= 2, got ' + repr("x" * 39)[:40] + "…"
    with pytest.raises(SchemaError) as exc:
        parse_rational("7" * 30 + "/" + "x" * 9999)
    message = str(exc.value)
    assert message.startswith("bad rational '" + "7" * 30 + "/" + "x" * 8 + "…: ")
    assert len(f"error: {message}\n".encode()) < 120


@pytest.mark.parametrize("parse", [parse_clump_json, parse_dual_weights])
def test_oversized_integer_is_a_schema_error(parse):
    # past the interpreter's int-to-string digit limit (4300 by default)
    with pytest.raises(SchemaError) as exc:
        parse('{"k": %s, "layers": [], "u": []}' % ("1" * 5000))
    assert str(exc.value) == "invalid JSON: an integer has more than 4300 digits"


def test_oversized_integer_exits_2(tmp_path, capsys):
    bad = tmp_path / "big.json"
    bad.write_text('{"k": %s, "layers": []}' % ("1" * 5000))
    assert main(["verify", "--in", str(bad), "--delta", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: invalid JSON: an integer has more than 4300 digits\n"
    assert captured.out == ""


@pytest.mark.parametrize("parse", [parse_clump_json, parse_dual_weights])
def test_invalid_utf8_is_a_schema_error(parse):
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse(b'{"k": 3, "layers": "\xff"}')


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["verify", "--in", str(bad), "--delta", "2"]) == 2
    assert "error:" in capsys.readouterr().err


_ROOT = {"color": 0, "weight": 1}
_U = {"layer": 0, "color": 0, "value": "1/5"}


@pytest.mark.parametrize("args, bad, message", [
    # parse_clump_json's shape checks
    (["verify", "--in", "{bad}", "--delta", "2"], [], "top level must be an object"),
    (["verify", "--in", "{bad}", "--delta", "2"], {"k": 3, "layers": {}},
     'field "layers" must be a list'),
    (["verify", "--in", "{bad}", "--delta", "2"], {"k": 3, "layers": [_ROOT]},
     "layers[0] must be a list"),
    (["verify", "--in", "{bad}", "--delta", "2"], {"k": 3, "layers": [[1]]},
     "layers[0][0] must be an object"),
    # structural errors of WeightedClumpGraph, passed on as SchemaError
    (["verify", "--in", "{bad}", "--delta", "2"],
     {"k": 3, "layers": [[_ROOT], [{"color": 1, "weight": 0}]]}, "layer 1: weight 0 < 1"),
    (["verify", "--in", "{bad}", "--delta", "2"], {"k": 3, "layers": [[_ROOT], []]},
     "layer 1 is empty"),
    (["verify", "--in", "{bad}", "--delta", "2"],
     {"k": 3, "layers": [[_ROOT], [{"color": 1, "weight": 1}] * 2]},
     "layer 1: duplicate color 1"),
    # parse_dual_weights
    (["certify", "--in", "{graph}", "--weights", "{bad}"], {"u": {}},
     'expected an object with a list field "u"'),
    (["certify", "--in", "{graph}", "--weights", "{bad}"], {"w": []},
     'expected an object with a list field "u"'),
    (["certify", "--in", "{graph}", "--weights", "{bad}"], {"u": [_U, _U]},
     "u[1] duplicates clump (0, 0)"),
    (["lp", "min-order", "--in", "{graph}", "--delta", "0"], None, "delta=0 must be positive"),
    # the sieve's pair grammar, at any k: a single then three clumps
    (["sieve", "--in", "{bad}", "--delta", "2"],
     {"k": 4, "layers": [[_ROOT], [{"color": c, "weight": 1} for c in (1, 2, 3)]]},
     "layer pair (0, 1) has color shape (1, 3, 0), which no canonical 3-colored "
     "profile produces"),
    # the graph's minimum weighted degree is 4
    (["sieve", "--in", "{graph}", "--delta", "5"], None, "min weighted degree 4 is below delta=5"),
    (["certify", "--in", "{graph}", "--delta", "5"], None, "min weighted degree 4 is below delta=5"),
])
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, args, bad, message):
    graph = _write_graph(tmp_path, counterexample_graph(1, 4, 2))
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    assert main([a.format(graph=graph, bad=tmp_path / "bad.json") for a in args]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# (k, seed) of random_layers(random.Random(seed), k, max_depth=260) graphs
# with 198 to 238 layers, canonicalized at their minimum degree; each
# digest covers the exit code, stdout, stderr and the --out and --log
# files, so any change to the rewrite loop's output shows here
_PINNED_CANONICALIZE = {
    (3, 0): "13dbadec967ebae89eb8447d67bb83133b8108d1654e86720528ff9d0432d596",
    (3, 9): "1cc23c026ad3e326cc775927a8f2c95dc6554ec7d172a50632456ef6bd63140b",
    (3, 11): "0cb33368dc66eebd934bd80523c0f97aee671d46ecc7376da937f94f79b0bec8",
    (4, 9): "64da092ae7869b0c5dd2aac593bea93933c04a5a66850333751977021a8e108e",
    (4, 11): "729f66645e77cf87310a000a31e156d0e09dca105dbdaaefb7c8a07073f94079",
    (5, 0): "680679a3a6619c897a24a265a490a6780d273128a2f4ea27e81e605a8720f0e6",
}


@pytest.mark.parametrize("k, seed", list(_PINNED_CANONICALIZE))
def test_canonicalize_output_is_pinned(tmp_path, capsys, k, seed):
    graph = core.WeightedClumpGraph(k, random_layers(random.Random(seed), k, max_depth=260))
    path = _write_graph(tmp_path, graph)
    delta = str(core.min_weighted_degree(graph))
    code = main([
        "canonicalize", "--in", path, "--delta", delta,
        "--out", str(tmp_path / "canon.json"), "--log", str(tmp_path / "log.json"),
    ])
    out, err = capsys.readouterr()
    digest = hashlib.sha256()
    for part in (str(code), out, err):
        digest.update(part.encode() + b"\0")
    for name in ("canon.json", "log.json"):
        digest.update((tmp_path / name).read_bytes() + b"\0")
    assert digest.hexdigest() == _PINNED_CANONICALIZE[k, seed]


def _bench_generators():
    """bench/generators.py, loaded by path: it needs only json and random."""
    path = Path(__file__).parents[1] / "bench" / "generators.py"
    spec = importlib.util.spec_from_file_location("bench_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rewrite_workload_output_is_pinned(tmp_path, capsys):
    # the 48 graphs of the bench's rewrite pool at seed 1, each through
    # clumplab canonicalize --out/--log; the digest covers the exit code,
    # stdout, stderr and both files of every graph, in pool order
    generators = _bench_generators()
    digest = hashlib.sha256()
    pool = generators.rewrite_inputs(1)
    for j, item in enumerate(pool):
        graph = tmp_path / f"g{j}.json"
        graph.write_text(generators.graph_json(item["layers"]))
        out, log = tmp_path / f"canon{j}.json", tmp_path / f"log{j}.json"
        code = main([
            "canonicalize", "--in", str(graph), "--delta", str(item["delta"]),
            "--out", str(out), "--log", str(log),
        ])
        for part in (str(code), *capsys.readouterr()):
            digest.update(part.encode() + b"\0")
        for path in (out, log):
            digest.update((path.read_bytes() if path.exists() else b"missing") + b"\0")
    assert len(pool) == 48
    assert digest.hexdigest() == (
        "43cf3f75c40ea12ee6b30e2a0ca9260b280cda8bb684966808d152911b5e9c2e"
    )


# clumplab search stdout at points beside the bench's golden ones: deeper
# walks at delta 2 and 3, larger delta at depth 4, and a budget small
# enough to drop sequences and leave the result incomplete
_PINNED_SEARCH = {
    ("2", "7", "60"): (
        "D 1 min-n 3\nD 2 min-n 4\nD 3 min-n 6\nD 4 min-n 7\nD 5 min-n 8\n"
        "D 6 min-n 9\nD 7 min-n 10\nbest-phi 7/5\ncomplete yes\n"
    ),
    ("3", "6", "60"): (
        "D 2 min-n 5\nD 3 min-n 8\nD 4 min-n 9\nD 5 min-n 10\nD 6 min-n 12\n"
        "best-phi 3/2\ncomplete yes\n"
    ),
    ("9", "4", "60"): "D 2 min-n 14\nD 3 min-n 20\nD 4 min-n 24\nbest-phi 3/2\ncomplete yes\n",
    ("10", "4", "60"): "D 2 min-n 15\nD 3 min-n 22\nD 4 min-n 26\nbest-phi 20/13\ncomplete yes\n",
    ("5", "3", "12"): "D 2 min-n 8\nD 3 min-n 12\nbest-phi 5/4\ncomplete no\n",
}


@pytest.mark.parametrize("delta, dmax, budget", list(_PINNED_SEARCH))
def test_search_output_is_pinned(capsys, delta, dmax, budget):
    assert main(["search", "--delta", delta, "--dmax", dmax, "--budget", budget]) == 0
    assert capsys.readouterr() == (_PINNED_SEARCH[delta, dmax, budget], "")


# the usage: line of every command and subcommand at COLUMNS=200, so a
# change to how the parser is built cannot move an option
_USAGE = {
    "": "usage: clumplab [-h] {generate,verify,canonicalize,certify,sieve,lp,search,suite} ...",
    "generate": "usage: clumplab generate [-h] {counterexample,eppt-odd,eppt-even} ...",
    "generate counterexample": (
        "usage: clumplab generate counterexample [-h] --s S --delta DELTA --p P [--out OUT] "
        "[--export-edges EXPORT_EDGES]"
    ),
    "generate eppt-odd": (
        "usage: clumplab generate eppt-odd [-h] --r R --delta DELTA --diam DIAM [--out OUT] "
        "[--export-edges EXPORT_EDGES]"
    ),
    "generate eppt-even": (
        "usage: clumplab generate eppt-even [-h] --r R --delta DELTA --diam DIAM [--out OUT] "
        "[--export-edges EXPORT_EDGES]"
    ),
    "verify": "usage: clumplab verify [-h] --in INFILE --delta DELTA",
    "canonicalize": (
        "usage: clumplab canonicalize [-h] --in INFILE --delta DELTA [--out OUT] [--log LOG]"
    ),
    "certify": (
        "usage: clumplab certify [-h] --in INFILE [--delta DELTA] [--weights WEIGHTS] "
        "[--dump DUMP]"
    ),
    "sieve": (
        "usage: clumplab sieve [-h] --in INFILE --delta DELTA [--slack SLACK] [--report REPORT]"
    ),
    "lp": "usage: clumplab lp [-h] {epsz,min-order} ...",
    "lp epsz": "usage: clumplab lp epsz [-h]",
    "lp min-order": "usage: clumplab lp min-order [-h] --in INFILE --delta DELTA",
    "search": "usage: clumplab search [-h] --delta DELTA --dmax DMAX [--budget BUDGET]",
    "suite": (
        "usage: clumplab suite [-h] [--s-values S_VALUES] [--delta-span DELTA_SPAN] "
        "[--p-values P_VALUES] [--slack SLACK] [--csv CSV]"
    ),
}


def test_usage_lines_are_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    for command, usage in _USAGE.items():
        with pytest.raises(SystemExit) as exit_info:
            main([*command.split(), "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.splitlines()[0] == usage, command
