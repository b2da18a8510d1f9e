"""Command-line front end: construction generators, graph verification,
canonicalization, certificates, the sieve, LPs, the pattern search, and
a CSV suite runner.

Every subcommand is deterministic and exits 0 exactly when all requested
checks pass.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import canonical, certify, constructions, lp, serialize, sieve
from .core import (
    WeightedClumpGraph,
    blow_up,
    blow_up_diameter,
    export_edge_list,
    layer_profile,
    min_weighted_degree,
)


def _read_graph(path: str) -> WeightedClumpGraph:
    with open(path, "rb") as fh:
        return serialize.parse_clump_json(fh.read())


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _require_positive_delta(delta: int) -> None:
    # called before a command prints or writes anything
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "counterexample":
        graph = constructions.counterexample_graph(args.s, args.delta, args.p)
    elif args.family == "eppt-odd":
        graph = constructions.eppt_odd(args.r, args.delta, args.diam)
    else:
        graph = constructions.eppt_even(args.r, args.delta, args.diam)
    # blown up first, so an oversized blow-up writes neither file
    edges = export_edge_list(blow_up(graph)) if args.export_edges else None
    _write_text(args.out, serialize.dump_clump_json(graph))
    if edges is not None:
        _write_text(args.export_edges, edges)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    graph = _read_graph(args.infile)
    _require_positive_delta(args.delta)
    profile = layer_profile(graph)
    degree = min_weighted_degree(graph)
    report = canonical.check_canonical(graph)
    print(f"n {profile.n}")
    print(f"D {profile.diameter_index}")
    print(f"min-weighted-degree {degree}")
    print(f"blow-up-diameter {blow_up_diameter(graph)}")
    print(f"canonical {'yes' if report.passes else 'no'}")
    ok = degree >= args.delta
    print(f"degree-check {'pass' if ok else 'fail'} (delta {args.delta})")
    return 0 if ok else 1


def _cmd_canonicalize(args: argparse.Namespace) -> int:
    graph = _read_graph(args.infile)
    _require_positive_delta(args.delta)
    result, log = canonical.canonicalize(graph, args.delta)
    _write_text(args.out, serialize.dump_clump_json(result))
    if args.log:
        entries = [
            {"rule": e.rule, "layer": e.layer} for e in log.entries
        ]
        _write_text(args.log, json.dumps(entries, indent=2) + "\n")
    print(f"rewrites {len(log)}", file=sys.stderr)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    graph = _read_graph(args.infile)
    if args.weights:
        with open(args.weights, "rb") as fh:
            u = serialize.parse_dual_weights(fh.read())
        report = certify.verify_packing(graph, u)
        print(f"feasible {'yes' if report.feasible else 'no'}")
        print(f"objective {serialize.format_rational(report.objective)}")
        print(f"worst-slack {serialize.format_rational(report.worst_slack)}")
        return 0 if report.feasible else 1
    if args.delta is not None:
        _require_positive_delta(args.delta)
    cert = certify.dual_certificate(graph)
    print(f"feasible {'yes' if cert.feasible else 'no'}")
    print(f"u-tilde {serialize.format_rational(cert.u_tilde)}")
    print(f"objective {serialize.format_rational(cert.objective)}")
    if args.delta is not None:
        n = graph.total_weight
        bound = certify.bound_from_certificate(cert, n, args.delta)
        print(f"diameter-bound {serialize.format_rational(bound)}")
    if args.dump:
        _write_text(args.dump, serialize.dual_weights_to_json(cert.u))
    return 0 if cert.feasible else 1


def _cmd_sieve(args: argparse.Namespace) -> int:
    graph = _read_graph(args.infile)
    report = sieve.window_inequalities(layer_profile(graph), args.delta, args.slack)
    stats = report.stats
    windows_pass = sum(1 for w in report.windows if w.passes)
    print(f"windows {windows_pass}/{len(report.windows)} pass")
    for name, ok in report.rows.items():
        print(f"constraint {name} {'pass' if ok else 'fail'}")
    for label, value in (
        ("mu", stats.mu),
        ("alpha1", stats.alpha1),
        ("alpha2", stats.alpha2),
        ("psi", stats.psi),
        ("phi", stats.phi),
    ):
        print(f"{label} {serialize.format_rational(value)}")
    if args.report:
        payload = {
            "windows": [
                {
                    "kind": w.kind,
                    "index": w.index,
                    "case": w.case,
                    "lhs": serialize.format_rational(w.lhs),
                    "rhs": serialize.format_rational(w.rhs),
                    "pass": w.passes,
                }
                for w in report.windows
            ],
            "constraints": report.rows,
        }
        _write_text(args.report, json.dumps(payload, indent=2) + "\n")
    return 0 if report.passes else 1


def _cmd_lp(args: argparse.Namespace) -> int:
    if args.program == "epsz":
        solution = lp.simplex_solve(lp.build_epsz_lp())
        assert solution.value is not None and solution.x is not None
        print(f"optimum {serialize.format_rational(solution.value)}")
        print("vertex", " ".join(serialize.format_rational(v) for v in solution.x))
        assert solution.y is not None
        print("dual", " ".join(serialize.format_rational(v) for v in solution.y))
        return 0
    graph = _read_graph(args.infile)
    result = lp.min_order_lp(graph, args.delta)
    print(f"lp-value {serialize.format_rational(result.lp_value)}")
    print(f"int-value {result.int_value if result.int_value is not None else 'unknown'}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    result = lp.extremal_search(args.delta, args.dmax, args.budget)
    for depth in sorted(result.frontier):
        print(f"D {depth} min-n {result.frontier[depth]}")
    print(f"best-phi {serialize.format_rational(result.best_phi)}")
    print(f"complete {'yes' if result.complete else 'no'}")
    return 0


def _suite_rows(args: argparse.Namespace) -> tuple[list[dict[str, str]], bool]:
    rows: list[dict[str, str]] = []
    all_ok = True
    s_values = [int(v) for v in args.s_values.split(",")]
    p_values = [int(v) for v in args.p_values.split(",")]
    for s in s_values:
        for delta in range(2 * s, 2 * s + args.delta_span + 1):
            for p in p_values:
                graph = constructions.counterexample_graph(s, delta, p)
                profile = layer_profile(graph)
                degree = min_weighted_degree(graph)
                diam = blow_up_diameter(graph)
                ok = (
                    degree >= delta
                    and profile.n == constructions.counterexample_order(s, delta, p)
                    and diam == p * (6 * s + 1) - 1
                )
                canon, _ = canonical.canonicalize(graph, delta)
                cert = certify.dual_certificate(canon)
                bound = certify.bound_from_certificate(cert, profile.n, delta)
                ok = ok and cert.feasible and diam <= bound
                windows_pass = windows_total = 0
                if graph.k == 3:
                    report = sieve.window_inequalities(
                        layer_profile(canon), delta, args.slack
                    )
                    windows_total = len(report.windows)
                    windows_pass = sum(1 for w in report.windows if w.passes)
                    ok = ok and report.passes
                all_ok = all_ok and ok
                rows.append(
                    {
                        "instance": f"H({s},{delta},{p})",
                        "n": str(profile.n),
                        "D": str(diam),
                        "min_degree": str(degree),
                        "phi": serialize.format_rational(
                            Fraction(diam * delta, profile.n)
                        ),
                        "cert_bound": serialize.format_rational(bound),
                        "sieve_pass": str(windows_pass),
                        "sieve_total": str(windows_total),
                        "status": "pass" if ok else "fail",
                    }
                )
    return rows, all_ok


def _cmd_suite(args: argparse.Namespace) -> int:
    rows, all_ok = _suite_rows(args)
    fieldnames = [
        "instance",
        "n",
        "D",
        "min_degree",
        "phi",
        "cert_bound",
        "sieve_pass",
        "sieve_total",
        "status",
    ]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_text(args.csv, out.getvalue())
    # the conjectured-coefficient sign change for the r = 2 family
    for r in (2,):
        threshold = constructions.coefficient_threshold(r)
        gap_at = constructions.coefficient_gap(r, threshold)
        gap_after = constructions.coefficient_gap(r, threshold + 1)
        print(
            f"gap r={r}: zero at delta={threshold} "
            f"({serialize.format_rational(gap_at)}), positive at "
            f"{threshold + 1} ({serialize.format_rational(gap_after)})",
            file=sys.stderr,
        )
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clumplab",
        description="weighted clump graphs: constructions, canonical forms, "
        "certificates, sieve inequalities and exact LPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a construction as JSON")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    g_ce = gen_sub.add_parser("counterexample")
    g_ce.add_argument("--s", type=int, required=True)
    g_ce.add_argument("--delta", type=int, required=True)
    g_ce.add_argument("--p", type=int, required=True)
    g_odd = gen_sub.add_parser("eppt-odd")
    g_even = gen_sub.add_parser("eppt-even")
    for g in (g_odd, g_even):
        g.add_argument("--r", type=int, required=True)
        g.add_argument("--delta", type=int, required=True)
        g.add_argument("--diam", type=int, required=True)
    for g in (g_ce, g_odd, g_even):
        g.add_argument("--out", default="-")
        g.add_argument("--export-edges", default=None)
        g.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="validate a graph and its degree bound")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--delta", type=int, required=True)
    ver.set_defaults(func=_cmd_verify)

    can = sub.add_parser("canonicalize", help="rewrite into canonical form")
    can.add_argument("--in", dest="infile", required=True)
    can.add_argument("--delta", type=int, required=True)
    can.add_argument("--out", default="-")
    can.add_argument("--log", default=None)
    can.set_defaults(func=_cmd_canonicalize)

    cer = sub.add_parser("certify", help="build or verify a packing certificate")
    cer.add_argument("--in", dest="infile", required=True)
    cer.add_argument("--delta", type=int, default=None)
    cer.add_argument("--weights", default=None)
    cer.add_argument("--dump", default=None)
    cer.set_defaults(func=_cmd_certify)

    sie = sub.add_parser("sieve", help="run the 3-color window inequalities")
    sie.add_argument("--in", dest="infile", required=True)
    sie.add_argument("--delta", type=int, required=True)
    sie.add_argument("--slack", type=int, default=sieve.DEFAULT_SLACK)
    sie.add_argument("--report", default=None)
    sie.set_defaults(func=_cmd_sieve)

    lpp = sub.add_parser("lp", help="solve one of the linear programs")
    lp_sub = lpp.add_subparsers(dest="program", required=True)
    lp_epsz = lp_sub.add_parser("epsz")
    lp_epsz.set_defaults(func=_cmd_lp)
    lp_min = lp_sub.add_parser("min-order")
    lp_min.add_argument("--in", dest="infile", required=True)
    lp_min.add_argument("--delta", type=int, required=True)
    lp_min.set_defaults(func=_cmd_lp)

    sea = sub.add_parser("search", help="minimum orders over canonical patterns")
    sea.add_argument("--delta", type=int, required=True)
    sea.add_argument("--dmax", type=int, required=True)
    sea.add_argument("--budget", type=int, default=60)
    sea.set_defaults(func=_cmd_search)

    sui = sub.add_parser("suite", help="run the construction grid and emit CSV")
    sui.add_argument("--s-values", default="1,2")
    sui.add_argument("--delta-span", type=int, default=4)
    sui.add_argument("--p-values", default="1,2,3")
    sui.add_argument("--slack", type=int, default=sieve.DEFAULT_SLACK)
    sui.add_argument("--csv", default="-")
    sui.set_defaults(func=_cmd_suite)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, canonical.CanonicalizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
