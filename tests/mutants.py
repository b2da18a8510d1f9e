"""Mutation checks of clumplab's exact checks: each mutant replaces one
exact source snippet of a module, and that module's test file must fail
on it.

Run from anywhere as `python tests/mutants.py`; it needs only the
standard library and the test dependencies of the project.  For each
mutant it copies src/, tests/ and pyproject.toml to a temporary
directory, with bench/ read-only beside them (the lp tests read its
golden values and generators), applies the one replacement there and
runs `python -m pytest -x -q <test file>` in that directory, so the copy
is what the tests import and Hypothesis keeps its database there too.
Each test file first runs on the unchanged copy and must pass.  A
snippet that no longer occurs exactly once is reported as stale, so a
change to a module has to update this table on purpose.  Exits 1 on a
survivor, a stale snippet or a failing unchanged copy, and 0 when every
mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CANONICAL = ("canonical", "tests/test_canonical.py")
CERTIFY = ("certify", "tests/test_certify.py")
SIEVE = ("sieve", "tests/test_sieve.py")
CORE = ("core", "tests/test_core.py")
LP = ("lp", "tests/test_lp.py")

# ((module, test file), snippet, replacement, what the tests must catch)
MUTANTS = [
    (
        CANONICAL,
        "0 <= a <= b < len(rows) and 0 <= x < k",
        "0 <= x < k",
        "no bounds check: a run past the last layer swaps rows that do not exist",
    ),
    (
        CANONICAL,
        "b < len(rows) and 0 <= x < k and 0 <= y < k for",
        "b < len(rows) for",
        "no palette check: a run into a color outside range(k) swaps a row unvalidated",
    ),
    (
        CANONICAL,
        "rows = weight_rows(graph)",
        "rows = list(graph.rows)",
        "aliased rows: the loop's swaps change the input graph's own rows",
    ),
    (
        CANONICAL,
        "_swap(rows, x, y, a, b)",
        "_switch_colors(rows, x, y, a, b)",
        "the loop swaps through _switch_colors, so a patched one changes rows and layers alike",
    ),
    (
        CANONICAL,
        "_swap(rows, x, y, a, b)",
        "rows[a:b + 1] = [dict(layers[j]) for j in range(a, b + 1)]",
        "rows taken from the layers of a run: a layer a rule also edited goes unchecked",
    ),
    (
        CANONICAL,
        "for j in (a, b)]",
        "for j in (b,)]",
        "the run's first layer is not dirty: the pair above a switch is not checked",
    ),
    (
        CANONICAL,
        "for span in _spans(dirty, 0, 1, last):",
        "for span in _spans(dirty, 0, 0, last):",
        "rooting without the layer after each dirty one",
    ),
    (
        CANONICAL,
        "neighbor_sum_range(rows, span.start, span.stop)[0] for span in near",
        "neighbor_sum_range(rows, span.start, span.stop)[0] for span in _spans(dirty, 0, 0, last)",
        "degrees read only at the dirty layers, not the layers beside them",
    ),
    (
        CANONICAL,
        "    if not report.passes:\n",
        "    if False:\n",
        "no final check_canonical of the result",
    ),
    (
        CANONICAL,
        "if len(layers) != len(rows):",
        "if False:",
        "a rewrite that adds a layer goes on to the next step",
    ),
    (
        CANONICAL,
        "if after.total_weight != before.total_weight:",
        "if False:",
        "the audit takes a rewrite that changed the total weight",
    ),
    (
        CANONICAL,
        "if after.diameter_index != before.diameter_index:",
        "if False:",
        "the audit takes a rewrite that changed the layer count",
    ),
    (
        CANONICAL,
        "if min_weighted_degree(after) < delta:",
        "if False:",
        "the audit takes a rewrite that dropped the minimum weighted degree below delta",
    ),
    (
        CERTIFY,
        "return worst <= scale, worst",
        "return True, worst",
        "every packing is feasible, whatever its largest neighbor sum",
    ),
    (
        CERTIFY,
        "return worst <= scale, worst",
        "return worst <= scale + 1, worst",
        "a neighbor sum one step over 1 still passes",
    ),
    (
        CERTIFY,
        "    if not cert.feasible:\n        raise ValueError(\"certificate is infeasible\")\n",
        "",
        "a bound from an infeasible certificate",
    ),
    (
        CERTIFY,
        "if q * min(cert.totals) < p * cert.scale:",
        "if False:",
        "a bound from a certificate with a layer total short of u_tilde",
    ),
    (
        CERTIFY,
        "            x_colors -= layers[i + 1].keys()",
        "            pass",
        "X built without the layer after: a color the next layer holds weighs 1/(3k-4)",
    ),
    (
        CERTIFY,
        "light = unit - unit // d",
        "light = unit - unit // (d + 1)",
        "a full layer's light weight too large, so its total exceeds u_tilde",
    ),
    (
        CERTIFY,
        "(k - 1) * (unit // d)",
        "k * (unit // d)",
        "a short layer shares 1/(3k-4) more than u_tilde",
    ),
    (
        CERTIFY,
        "scale = (3 * k - 4) * unit",
        "scale = (3 * k - 3) * unit",
        "every weight read over the scale of 1/(3k-3)",
    ),
    (
        SIEVE,
        "if not is_canonical_pair(3, a, b):",
        "if False:",
        "no pair grammar: a profile of any shape, a layer of four clumps too, gets windows",
    ),
    (
        SIEVE,
        "(True, False, True): (48, 12, 24, 12),",
        "(True, False, True): (48, 12, 24, 6),",
        "a three-layer window between two singles subtracts half its next layer",
    ),
    (
        SIEVE,
        '(True, False): ("first-single", 6, 9),',
        '(True, False): ("first-single", 6, 8),',
        "a two-layer window after a single weighs its second layer 4/3, not 3/2",
    ),
    (
        SIEVE,
        "<= rhs + eps",
        "< rhs + eps",
        "a GLOBAL_PROGRAM row met with equality fails",
    ),
    (
        SIEVE,
        "(i + 1 in singles)] += profile.ell[i]",
        "(i in singles)] += profile.ell[i]",
        "alpha1 and alpha2 count only the single above a 2-clump layer",
    ),
    (
        SIEVE,
        "(12 if single[i + 1] else 6) * e[i + 1]",
        "(6 if single[i + 1] else 12) * e[i + 1]",
        "the one-layer rhs weighs a single's layer as a double's and back",
    ),
    (
        CORE,
        "if k < 2:",
        "if k < 1:",
        "a one-color palette is taken",
    ),
    (
        CORE,
        "if color in row:",
        "if False:",
        "a duplicate color overwrites the first clump of its layer",
    ),
    (
        CORE,
        "if weight < 1:",
        "if weight < 0:",
        "a weight-0 clump is taken",
    ),
    (
        CORE,
        "next(iter(rows[0].values())) != 1",
        "next(iter(rows[0].values())) < 1",
        "a root of weight 2 is taken",
    ),
    (
        CORE,
        "if color in prev:",
        "if False:",
        "a clump may share the color of the single above it",
    ),
    (
        CORE,
        "neighbor_sum_range(rows)[0]",
        "neighbor_sum_range(rows)[1]",
        "a graph's minimum weighted degree is its largest neighbor sum",
    ),
    (
        CORE,
        " - below.get(c, 0)",
        "",
        "a neighbor sum counts the clump of its own color in the layer below",
    ),
    (
        CORE,
        "2 if heavy else 0",
        "1 if heavy else 0",
        "two copies of a heavy clump are 1 apart in the closed-form diameter",
    ),
    (
        LP,
        "if any(v < 0 for v in x):",
        "if False:",
        "an optimal x with a negative entry passes",
    ),
    (
        LP,
        "if any(sum(map(mul, a, x)) > b * d for a, b in rows):",
        "if False:",
        "an optimal x that breaks a row passes",
    ),
    (
        LP,
        "if any(v < 0 for v in y):",
        "if False:",
        "an optimal y with a negative entry passes",
    ),
    (
        LP,
        "if any(s < c * d for s, c in zip(dual, costs)):",
        "if False:",
        "an optimal y below a cost passes",
    ),
    (
        LP,
        "if sum(map(mul, costs, x)) != value or",
        "if False and",
        "x and y of different values pass as optimal",
    ),
    (
        LP,
        "if not used & free:",
        "if True:",
        "the lower order bound adds the needs of rows that share a free variable",
    ),
    (
        LP,
        "(depth > 1 or not total)",
        "(depth > 1 or total > 0)",
        "the frontier takes a depth-1 sequence only when it needs free weight",
    ),
]


def _run_tests(module: str, tests: str, source: str) -> bool:
    """Whether the test file `tests` passes on a copy of the project
    whose clumplab/<module>.py reads `source`."""
    path = Path(f"src/clumplab/{module}.py")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        for file in (work / "bench").rglob("*"):
            if file.is_file():
                file.chmod(0o444)
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / path).write_text(source)
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        imported = subprocess.run(
            [sys.executable, "-c", f"import clumplab.{module} as m; print(m.__file__)"],
            cwd=work, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if Path(imported).resolve() != (work / path).resolve():
            raise SystemExit(f"the tests would import {imported}, not the copy")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests],
            cwd=work, env=env, capture_output=True, text=True,
        )
        return proc.returncode == 0


def main() -> int:
    sources = {}
    for module, tests in dict.fromkeys(target for target, *_ in MUTANTS):
        sources[module] = (ROOT / f"src/clumplab/{module}.py").read_text()
        if not _run_tests(module, tests, sources[module]):
            print(f"FAIL unchanged: {tests} fails on the unchanged source")
            return 1
    bad = 0
    for (module, tests), snippet, replacement, why in MUTANTS:
        source = sources[module]
        if source.count(snippet) != 1:
            print(f"STALE {module} {snippet!r}: found {source.count(snippet)} times")
            bad += 1
        elif _run_tests(module, tests, source.replace(snippet, replacement)):
            print(f"SURVIVED {module}: {why}")
            bad += 1
        else:
            print(f"killed {module}: {why}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
