import ast
import sys
from pathlib import Path

import clumplab


def _imported_roots(tree: ast.Module) -> set[str]:
    """The top-level package of every import in tree; a relative import
    is clumplab's own."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("clumplab" if node.level else node.module.split(".")[0])
    return roots


def test_src_imports_only_the_standard_library():
    # pyproject declares no dependencies, and no committed result may
    # rest on a third-party solver such as scipy
    src = Path(clumplab.__file__).parent
    foreign = {
        path.name: sorted(_imported_roots(ast.parse(path.read_text())) - sys.stdlib_module_names - {"clumplab"})
        for path in sorted(src.glob("*.py"))
    }
    assert "lp.py" in foreign
    assert {name: roots for name, roots in foreign.items() if roots} == {}
