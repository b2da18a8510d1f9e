"""Command-line front end: construction generators, graph verification,
canonicalization, certificates, the sieve, LPs, the pattern search, and
a CSV suite runner.

Every subcommand is deterministic and exits 0 exactly when all requested
checks pass.  A command only computes: it returns an Output, and main
writes it in one order: the output files, then the stdout lines, then
the texts sent to stdout by a `-` path, then the stderr note.  An
output file that is new, or a regular file, is written beside its real
path first, keeping an existing file's mode, and those targets are
replaced only once all are written; any other target (a device, a pipe)
is then written as it is.  Bad input, an option the command rejects,
two output targets with one real path (`-` aside) or a file that cannot
be read or written exits 2 with one `error:` line on stderr and nothing
on stdout.  A missing directory, a directory target or a read-only
file leaves every target unchanged.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import stat
import sys
from dataclasses import dataclass, field
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


@dataclass
class Output:
    """What one command produces; main writes it."""
    code: int = 0
    lines: list[str] = field(default_factory=list)  # stdout, one line each
    texts: list[tuple[str, str]] = field(default_factory=list)  # (path, text); "-" is stdout
    note: str = ""  # one stderr line


def _read_graph(path: str) -> WeightedClumpGraph:
    with open(path, "rb") as fh:
        return serialize.parse_clump_json(fh.read())


def _require_positive_delta(delta: int) -> None:
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")


def _require_min_degree(graph: WeightedClumpGraph, delta: int) -> None:
    # certify's bound and the sieve's windows hold only when every clump
    # has weighted degree >= delta
    degree = min_weighted_degree(graph)
    if degree < delta:
        raise ValueError(f"min weighted degree {degree} is below delta={delta}")


def _require_nonnegative(name: str, value: int) -> None:
    # suite runs the sieve only at k = 3, so its options are checked up front
    if value < 0:
        raise ValueError(f"{name}={value} must be nonnegative")


def _int_list(option: str, text: str) -> list[int]:
    values: list[int] = []
    for item in text.split(","):
        try:
            values.append(int(item))
        except ValueError:
            raise ValueError(f"{option} item {item!r} is not an integer") from None
    return values


def _cmd_generate(args: argparse.Namespace) -> Output:
    if args.family == "counterexample":
        graph = constructions.counterexample_graph(args.s, args.delta, args.p)
    elif args.family == "eppt-odd":
        graph = constructions.eppt_odd(args.r, args.delta, args.diam)
    else:
        graph = constructions.eppt_even(args.r, args.delta, args.diam)
    texts = [(args.out, serialize.dump_clump_json(graph))]
    if args.export_edges:
        texts.append((args.export_edges, export_edge_list(blow_up(graph))))
    return Output(texts=texts)


def _cmd_verify(args: argparse.Namespace) -> Output:
    graph = _read_graph(args.infile)
    _require_positive_delta(args.delta)
    profile = layer_profile(graph)
    degree = min_weighted_degree(graph)
    report = canonical.check_canonical(graph)
    ok = degree >= args.delta
    return Output(0 if ok else 1, [
        f"n {profile.n}",
        f"D {profile.diameter_index}",
        f"min-weighted-degree {degree}",
        f"blow-up-diameter {blow_up_diameter(graph)}",
        f"canonical {'yes' if report.passes else 'no'}",
        f"degree-check {'pass' if ok else 'fail'} (delta {args.delta})",
    ])


def _cmd_canonicalize(args: argparse.Namespace) -> Output:
    graph = _read_graph(args.infile)
    _require_positive_delta(args.delta)
    result, log = canonical.canonicalize(graph, args.delta)
    texts = [(args.out, serialize.dump_clump_json(result))]
    if args.log:
        # json.dumps([{"rule": rule, "layer": layer}, ...], indent=2) + "\n",
        # byte for byte, without its pure-Python indent encoder
        entries = ",\n".join(
            f'  {{\n    "rule": {json.dumps(e.rule)},\n    "layer": {e.layer}\n  }}'
            for e in log.entries
        )
        texts.append((args.log, f"[\n{entries}\n]\n" if entries else "[]\n"))
    return Output(texts=texts, note=f"rewrites {len(log)}")


def _cmd_certify(args: argparse.Namespace) -> Output:
    if args.weights and args.dump:
        raise ValueError("--dump writes a built certificate, so it cannot go with --weights")
    if args.weights and args.delta is not None:
        raise ValueError("--delta bounds the built certificate, so it cannot go with --weights")
    graph = _read_graph(args.infile)
    if args.delta is not None:
        _require_positive_delta(args.delta)
        _require_min_degree(graph, args.delta)
    if args.weights:
        with open(args.weights, "rb") as fh:
            u = serialize.parse_dual_weights(fh.read())
        report = certify.verify_packing(graph, u)
        return Output(0 if report.feasible else 1, [
            f"feasible {'yes' if report.feasible else 'no'}",
            f"objective {serialize.format_rational(report.objective)}",
            f"worst-slack {serialize.format_rational(report.worst_slack)}",
        ])
    cert = certify.dual_certificate(graph)
    lines = [
        f"feasible {'yes' if cert.feasible else 'no'}",
        f"u-tilde {serialize.format_rational(cert.u_tilde)}",
        f"objective {serialize.format_rational(cert.objective)}",
    ]
    if args.delta is not None:
        bound = certify.bound_from_certificate(cert, graph.total_weight, args.delta)
        lines.append(f"diameter-bound {serialize.format_rational(bound)}")
    texts = [(args.dump, serialize.dual_weights_to_json(cert.u))] if args.dump else []
    return Output(0 if cert.feasible else 1, lines, texts)


def _cmd_sieve(args: argparse.Namespace) -> Output:
    """The window inequalities on a graph of any k whose layer pairs fit
    the three-color pair grammar, which window_inequalities checks: such
    a graph has an isomorphic 3-coloring (sieve module docstring), so it
    reads exactly as that one."""
    graph = _read_graph(args.infile)
    _require_min_degree(graph, args.delta)
    report = sieve.window_inequalities(layer_profile(graph), args.delta, args.slack)
    lines = [f"windows {report.windows_passing}/{len(report.lhs_scaled)} pass"]
    lines += [f"constraint {name} {'pass' if ok else 'fail'}" for name, ok in report.rows.items()]
    for name in ("mu", "alpha1", "alpha2", "psi", "phi"):
        lines.append(f"{name} {serialize.format_rational(getattr(report.stats, name))}")
    texts: list[tuple[str, str]] = []
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
        texts.append((args.report, json.dumps(payload, indent=2) + "\n"))
    return Output(0 if report.passes else 1, lines, texts)


def _cmd_lp(args: argparse.Namespace) -> Output:
    if args.program == "epsz":
        solution = lp.simplex_solve(lp.build_epsz_lp())
        assert solution is not None
        return Output(lines=[
            f"optimum {serialize.format_rational(solution.value)}",
            f"vertex {' '.join(serialize.format_rational(v) for v in solution.x)}",
            f"dual {' '.join(serialize.format_rational(v) for v in solution.y)}",
        ])
    graph = _read_graph(args.infile)
    result = lp.min_order_lp(graph, args.delta)
    return Output(lines=[
        f"lp-value {serialize.format_rational(result.lp_value)}",
        f"int-value {result.int_value if result.int_value is not None else 'unknown'}",
    ])


def _cmd_search(args: argparse.Namespace) -> Output:
    result = lp.extremal_search(args.delta, args.dmax, args.budget)
    lines = [f"D {depth} min-n {result.frontier[depth]}" for depth in sorted(result.frontier)]
    lines.append(f"best-phi {serialize.format_rational(result.best_phi)}")
    lines.append(f"complete {'yes' if result.complete else 'no'}")
    return Output(lines=lines)


def _cmd_suite(args: argparse.Namespace) -> Output:
    _require_nonnegative("slack", args.slack)
    _require_nonnegative("delta_span", args.delta_span)
    s_values = _int_list("--s-values", args.s_values)
    p_values = _int_list("--p-values", args.p_values)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow("instance n D min_degree phi cert_bound sieve_pass sieve_total status".split())
    all_ok = True
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
                cert = certify.dual_certificate(graph)
                bound = certify.bound_from_certificate(cert, profile.n, delta)
                ok = ok and cert.feasible and diam <= bound
                windows_pass = windows_total = 0
                # the sieve reads a canonical graph; at s >= 2 (k = 2s + 1)
                # a canonical layer pair falls outside its three-color grammar
                if graph.k == 3:
                    canon, _ = canonical.canonicalize(graph, delta)
                    report = sieve.window_inequalities(layer_profile(canon), delta, args.slack)
                    windows_total = len(report.lhs_scaled)
                    windows_pass = report.windows_passing
                    ok = ok and report.passes
                all_ok = all_ok and ok
                phi = Fraction(diam * delta, profile.n)
                writer.writerow([
                    f"H({s},{delta},{p})", profile.n, diam, degree,
                    serialize.format_rational(phi), serialize.format_rational(bound),
                    windows_pass, windows_total, "pass" if ok else "fail",
                ])
    # the conjectured-coefficient sign change for the r = 2 family
    threshold = constructions.coefficient_threshold(2)
    gap_at, gap_after = (
        serialize.format_rational(constructions.coefficient_gap(2, d))
        for d in (threshold, threshold + 1)
    )
    note = (
        f"gap r=2: zero at delta={threshold} ({gap_at}), "
        f"positive at {threshold + 1} ({gap_after})"
    )
    return Output(0 if all_ok else 1, texts=[(args.csv, out.getvalue())], note=note)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clumplab",
        description="weighted clump graphs: constructions, canonical forms, "
        "certificates, sieve inequalities and exact LPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options several commands share; a command takes them first, after
    # -h, in the order it names them
    shared = {
        "--in": {"dest": "infile", "required": True},
        "--delta": {"type": int, "required": True},
        "--out": {"default": "-"},
        "--slack": {"type": int, "default": sieve.DEFAULT_SLACK},
    }

    def command(parent, name: str, flags: tuple[str, ...], **kwargs) -> argparse.ArgumentParser:
        cmd = parent.add_parser(name, **kwargs)
        for flag in flags:
            cmd.add_argument(flag, **shared[flag])
        return cmd

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
        # after the family's own options, so not through command
        g.add_argument("--out", default="-")
        g.add_argument("--export-edges", default=None)
        g.set_defaults(func=_cmd_generate)

    ver = command(sub, "verify", ("--in", "--delta"), help="validate a graph and its degree bound")
    ver.set_defaults(func=_cmd_verify)

    can = command(
        sub, "canonicalize", ("--in", "--delta", "--out"), help="rewrite into canonical form",
        description="rewrite into canonical form; only k = 3 repairs the (iii) shape L_{i-2} = "
        "{x}, L_{i-1} = every color but x, L_i full, L_{i+1} = {x}, and k >= 4 exits 2 on it",
    )
    can.add_argument("--log", default=None)
    can.set_defaults(func=_cmd_canonicalize)

    cer = command(sub, "certify", ("--in",), help="build or verify a packing certificate")
    cer.add_argument("--delta", type=int, default=None)
    cer.add_argument("--weights", default=None)
    cer.add_argument("--dump", default=None)
    cer.set_defaults(func=_cmd_certify)

    sie = command(
        sub, "sieve", ("--in", "--delta", "--slack"),
        help="run the window inequalities on any graph whose layer pairs fit the 3-color grammar",
    )
    sie.add_argument("--report", default=None)
    sie.set_defaults(func=_cmd_sieve)

    lpp = sub.add_parser("lp", help="solve one of the linear programs")
    lp_sub = lpp.add_subparsers(dest="program", required=True)
    lp_sub.add_parser("epsz").set_defaults(func=_cmd_lp)
    command(lp_sub, "min-order", ("--in", "--delta")).set_defaults(func=_cmd_lp)

    sea = command(sub, "search", ("--delta",), help="minimum orders over canonical patterns")
    sea.add_argument("--dmax", type=int, required=True)
    sea.add_argument("--budget", type=int, default=60)
    sea.set_defaults(func=_cmd_search)

    sui = sub.add_parser("suite", help="run the construction grid and emit CSV")
    sui.add_argument("--s-values", default="1,2")
    sui.add_argument("--delta-span", type=int, default=4)
    sui.add_argument("--p-values", default="1,2,3")
    # after the grid options, so not through command
    sui.add_argument("--slack", type=int, default=sieve.DEFAULT_SLACK)
    sui.add_argument("--csv", default="-")
    sui.set_defaults(func=_cmd_suite)

    return parser


def _replace_plan(target: str) -> tuple[str, int | None] | None:
    """How main writes the file target: (the path it replaces, the mode
    its new file takes, None for a new path), or None when the target is
    opened and written as it is: a device, a pipe or a hard-linked file."""
    try:
        old = os.stat(target)
    except FileNotFoundError:
        return os.path.realpath(target), None
    if stat.S_ISDIR(old.st_mode):
        # os.replace would refuse it only once other targets are replaced
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    real = os.path.realpath(target)
    if not (
        stat.S_ISREG(old.st_mode) and old.st_nlink == 1
        and os.path.exists(real) and os.path.samestat(old, os.stat(real))
    ):
        return None
    if not os.access(real, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    return real, stat.S_IMODE(old.st_mode)


def main(argv: Sequence[str] | None = None) -> int:
    staged: list[tuple[str, str, str]] = []  # (temporary file, path it replaces, target)
    try:
        args = build_parser().parse_args(argv)
        output = args.func(args)
        # one file takes one text: two targets with one real path would
        # keep only the text written last; "-" may take several
        reals: set[str] = set()
        for target, _ in output.texts:
            if target == "-":
                continue
            real = os.path.realpath(target)
            if real in reals:
                raise ValueError(f"two outputs name the same file: {target}")
            reals.add(real)
        # a new or plain file goes to a new file beside it first, and those
        # targets are replaced only once every one of them is written; any
        # other target is written as it is, last
        target = ""
        in_place = []
        try:
            for target, text in output.texts:
                if target == "-":
                    continue
                plan = _replace_plan(target)
                if plan is None:
                    in_place.append((target, text))
                    continue
                real, mode = plan
                head, tail = os.path.split(real)
                tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
                with open(tmp, "x", encoding="utf-8") as fh:
                    staged.append((tmp, real, target))
                    fh.write(text)
                if mode is not None:
                    os.chmod(tmp, mode)
            while staged:
                tmp, real, target = staged[0]
                os.replace(tmp, real)
                del staged[0]
            for target, text in in_place:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(text)
        except OSError as exc:
            # the error names the target, as the user gave it
            raise OSError(exc.errno, exc.strerror, target) from None
        sys.stdout.write("".join(f"{line}\n" for line in output.lines))
        sys.stdout.write("".join(text for path, text in output.texts if path == "-"))
        if output.note:
            print(output.note, file=sys.stderr)
        return output.code
    except (ValueError, OSError, canonical.CanonicalizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # only staged files that were never moved are left
        for tmp, _, _ in staged:
            os.remove(tmp)


if __name__ == "__main__":
    sys.exit(main())
