"""Mutation checks of clumplab's exact checks: each mutant replaces one
exact source snippet of a module, and that module's test file must fail
on it.

Run from anywhere as `python tests/mutants.py`; it needs only the
standard library and the test dependencies of the project.  For each
mutant it copies src/, tests/ and pyproject.toml to a temporary
directory, applies the one replacement there and runs
`python -m pytest -x -q <test file>` in that directory, so the copy is
what the tests import and Hypothesis keeps its database there too.
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
]


def _run_tests(module: str, tests: str, source: str) -> bool:
    """Whether the test file `tests` passes on a copy of the project
    whose clumplab/<module>.py reads `source`."""
    path = Path(f"src/clumplab/{module}.py")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
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
