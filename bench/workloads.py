"""The three workloads: what one op does, what it outputs and how that
output is checked.

Each op goes through the clumplab modules passed in as `m`, attribute by
attribute, so that a tracer installed on those modules sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import generators

SLACK = 12
GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[SimpleNamespace, list, Path], list]  # set-up: inputs -> items
    run: Callable[[SimpleNamespace, Any], Any]  # the timed op
    observe: Callable[[Any, Any], Any]  # item, run's result -> comparable output
    check: Callable[[SimpleNamespace, Any, Any], list[str]]  # problems found


# -- search: lp.extremal_search on one menu point ------------------------


def _search_run(m: SimpleNamespace, point: tuple[int, int]) -> dict:
    delta, dmax = point
    result = m.lp.extremal_search(delta, dmax, generators.SEARCH_BUDGET)
    return {
        "frontier": {str(d): n for d, n in sorted(result.frontier.items())},
        "best_phi": str(result.best_phi),
        "complete": result.complete,
    }


def _search_check(m: SimpleNamespace, point: tuple[int, int], out: dict) -> list[str]:
    want = GOLDEN["search"][f"{point[0]},{point[1]}"]
    return [] if out == want else [f"search {point}: got {out}, want {want}"]


# -- family: the suite's certification pipeline on H(s, delta, p) --------


def _family_run(m: SimpleNamespace, inst: tuple[int, int, int]) -> dict:
    s, delta, p = inst
    graph = m.constructions.counterexample_graph(s, delta, p)
    profile = m.core.layer_profile(graph)
    degree = m.core.min_weighted_degree(graph)
    diam = m.core.blow_up_diameter(graph)
    canon, log = m.canonical.canonicalize(graph, delta)
    cert = m.certify.dual_certificate(canon)
    bound = m.certify.bound_from_certificate(cert, profile.n, delta)
    sieve_ok = None
    if graph.k == 3:
        canon_profile = m.core.layer_profile(canon)
        report = m.sieve.window_inequalities(canon_profile, delta, SLACK)
        stats = m.sieve.global_stats(canon_profile, delta)
        aggregates = m.sieve.check_aggregates(stats, SLACK)
        sieve_ok = report.passes and all(aggregates.values())
    return {
        "n": profile.n,
        "diameter": diam,
        "min_degree": degree,
        "rewrites": len(log),
        "feasible": cert.feasible,
        "bound": str(bound),
        "sieve": sieve_ok,
    }


def _family_check(m: SimpleNamespace, inst: tuple[int, int, int], out: dict) -> list[str]:
    s, delta, p = inst
    problems = []
    if out["n"] != p * ((2 * s + 1) * delta + 2 * s - 1) + 2:
        problems.append("order differs from p((2s+1)delta+2s-1)+2")
    if out["diameter"] != p * (6 * s + 1) - 1:
        problems.append("diameter differs from p(6s+1)-1")
    if out["min_degree"] < delta:
        problems.append("minimum degree below delta")
    if not out["feasible"] or out["diameter"] > Fraction(out["bound"]):
        problems.append("certificate infeasible or bound below the diameter")
    if out["sieve"] is not (True if s == 1 else None):
        problems.append("sieve did not pass at k = 3")
    return [f"family H{inst}: {msg}: {out}" for msg in problems]


# -- rewrite: canonicalize --log, certify, sieve through cli.main --------


def _rewrite_prepare(m: SimpleNamespace, inputs: list[dict], workdir: Path) -> list[dict]:
    items = []
    for i, inp in enumerate(inputs):
        paths = {name: str(workdir / f"{i}-{name}.json") for name in ("in", "canon", "log")}
        Path(paths["in"]).write_text(generators.graph_json(inp["layers"]))
        delta = str(inp["delta"])
        items.append(
            {
                **paths,
                "delta": inp["delta"],
                "n": sum(w for layer in inp["layers"] for _, w in layer),
                "D": len(inp["layers"]) - 1,
                "argv": [
                    ["canonicalize", "--in", paths["in"], "--delta", delta,
                     "--out", paths["canon"], "--log", paths["log"]],
                    ["certify", "--in", paths["canon"], "--delta", delta],
                    ["sieve", "--in", paths["canon"], "--delta", delta, "--slack", str(SLACK)],
                ],
            }
        )
    return items


def _rewrite_run(m: SimpleNamespace, item: dict) -> list[tuple[int, str, str]]:
    results = []
    for argv in item["argv"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = m.cli.main(argv)
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def _rewrite_observe(item: dict, results: list) -> dict:
    return {
        "commands": [list(r) for r in results],
        "canon": Path(item["canon"]).read_text(),
        "log": Path(item["log"]).read_text(),
    }


def _rewrite_check(m: SimpleNamespace, item: dict, out: dict) -> list[str]:
    codes = [code for code, _, _ in out["commands"]]
    if codes != [0, 0, 0]:
        return [f"rewrite {item['in']}: exit codes {codes}: {out['commands']}"]
    data = json.loads(out["canon"])
    layers = [[(c["color"], c["weight"]) for c in layer] for layer in data["layers"]]
    problems = []
    if sum(w for layer in layers for _, w in layer) != item["n"]:
        problems.append("order changed")
    if len(layers) - 1 != item["D"]:
        problems.append("layer count changed")
    if generators.min_weighted_degree(layers) < item["delta"]:
        problems.append("minimum degree dropped below delta")
    if not m.canonical.check_canonical(m.serialize.parse_clump_json(out["canon"])).passes:
        problems.append("output is not canonical")
    certify = dict(line.split(" ", 1) for line in out["commands"][1][1].splitlines())
    if certify.get("feasible") != "yes":
        problems.append("certificate infeasible")
    elif Fraction(certify["diameter-bound"]) < item["D"]:
        problems.append("diameter bound below the layer count")
    return [f"rewrite {item['in']}: {p}" for p in problems]


def _identity_prepare(m: SimpleNamespace, inputs: list, workdir: Path) -> list:
    return inputs


def _identity_observe(item: Any, result: Any) -> Any:
    return result


WORKLOADS = {
    "search": Workload(_identity_prepare, _search_run, _identity_observe, _search_check),
    "family": Workload(_identity_prepare, _family_run, _identity_observe, _family_check),
    "rewrite": Workload(_rewrite_prepare, _rewrite_run, _rewrite_observe, _rewrite_check),
}
