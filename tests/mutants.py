"""Mutation checks of clumplab/canonical.py: each mutant replaces one
exact source snippet, and tests/test_canonical.py must fail on it.

Run from anywhere as `python tests/mutants.py`; it needs only the
standard library and the test dependencies of the project.  For each
mutant it copies src/, tests/ and pyproject.toml to a temporary
directory, applies the one replacement there and runs
`python -m pytest -x -q tests/test_canonical.py` in that directory, so
the copy is what the tests import and Hypothesis keeps its database
there too.  The unchanged copy runs first and must pass.  A snippet that
no longer occurs exactly once is reported as stale, so a change to the
module has to update this table on purpose.  Exits 1 on a survivor, a
stale snippet or a failing unchanged copy, and 0 when every mutant is
killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULE = Path("src/clumplab/canonical.py")
TESTS = "tests/test_canonical.py"

# (snippet, replacement, what the tests must catch)
MUTANTS = [
    (
        "0 <= a <= b < len(rows) and 0 <= x < k",
        "0 <= x < k",
        "no bounds check: a run past the last layer swaps rows that do not exist",
    ),
    (
        "b < len(rows) and 0 <= x < k and 0 <= y < k for",
        "b < len(rows) for",
        "no palette check: a run into a color outside range(k) swaps a row unvalidated",
    ),
    (
        "rows = weight_rows(graph)",
        "rows = list(graph.rows)",
        "aliased rows: the loop's swaps change the input graph's own rows",
    ),
    (
        "_swap(rows, x, y, a, b)",
        "_switch_colors(rows, x, y, a, b)",
        "the loop swaps through _switch_colors, so a patched one changes rows and layers alike",
    ),
    (
        "_swap(rows, x, y, a, b)",
        "rows[a:b + 1] = [dict(layers[j]) for j in range(a, b + 1)]",
        "rows taken from the layers of a run: a layer a rule also edited goes unchecked",
    ),
    (
        "for j in (a, b)]",
        "for j in (b,)]",
        "the run's first layer is not dirty: the pair above a switch is not checked",
    ),
    (
        "for span in _spans(dirty, 0, 1, last):",
        "for span in _spans(dirty, 0, 0, last):",
        "rooting without the layer after each dirty one",
    ),
    (
        "neighbor_sum_range(rows, span.start, span.stop)[0] for span in near",
        "neighbor_sum_range(rows, span.start, span.stop)[0] for span in _spans(dirty, 0, 0, last)",
        "degrees read only at the dirty layers, not the layers beside them",
    ),
    (
        "    if not report.passes:\n",
        "    if False:\n",
        "no final check_canonical of the result",
    ),
]


def _run_tests(source: str) -> bool:
    """Whether tests/test_canonical.py passes on a copy of the project
    whose canonical.py reads `source`."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / MODULE).write_text(source)
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        imported = subprocess.run(
            [sys.executable, "-c", "import clumplab.canonical as m; print(m.__file__)"],
            cwd=work, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if Path(imported).resolve() != (work / MODULE).resolve():
            raise SystemExit(f"the tests would import {imported}, not the copy")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", TESTS],
            cwd=work, env=env, capture_output=True, text=True,
        )
        return proc.returncode == 0


def main() -> int:
    source = (ROOT / MODULE).read_text()
    if not _run_tests(source):
        print(f"FAIL unchanged: {TESTS} fails on the unchanged source")
        return 1
    bad = 0
    for snippet, replacement, why in MUTANTS:
        if source.count(snippet) != 1:
            print(f"STALE {snippet!r}: found {source.count(snippet)} times")
            bad += 1
        elif _run_tests(source.replace(snippet, replacement)):
            print(f"SURVIVED {why}")
            bad += 1
        else:
            print(f"killed {why}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
