import ast
import importlib
import sys
from collections import Counter
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


# the os calls that write, move, remove or chmod a file, and the tempfile
# constructors, which create one
_WRITING_NAMES = {
    "os": {
        "replace", "rename", "renames", "fdopen", "write", "remove", "unlink", "chmod",
    },
    "tempfile": {
        "mkstemp", "mkdtemp", "mktemp", "NamedTemporaryFile", "TemporaryFile",
        "SpooledTemporaryFile", "TemporaryDirectory",
    },
}


def _writes_output(node: ast.AST) -> bool:
    """A print call, any use of stdout or stderr, a Path write, an open
    call whose mode is not a constant read mode, or any use of a writing
    name of os or tempfile (_WRITING_NAMES), as module.name or imported
    from the module."""
    if isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"):
        return True
    if isinstance(node, ast.alias) and node.name in ("stdout", "stderr"):
        return True
    if (
        isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.attr in _WRITING_NAMES.get(node.value.id, ())
    ):
        return True
    if isinstance(node, ast.ImportFrom) and node.module in _WRITING_NAMES:
        return any(alias.name in _WRITING_NAMES[node.module] for alias in node.names)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("write_text", "write_bytes")
    if not isinstance(func, ast.Name):
        return False
    if func.id != "open":
        return func.id == "print"
    modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
             and set(mode.value) <= set("rbt"))
        for mode in modes
    )


def test_only_cli_main_writes_output():
    # commands return their output and main writes it, so a command that
    # fails has written nothing
    src = Path(clumplab.__file__).parent
    sites = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "cli.py":
            main = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main"
            )
            allowed = {id(node) for node in ast.walk(main)}
        sites.update(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in allowed and _writes_output(node)
        )
    assert sorted(sites) == []


def test_source_lines_fit_in_99_columns():
    # line counts compare between versions only when no code is packed
    # into long lines
    src = Path(clumplab.__file__).parent
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 99
    ]
    assert long_lines == []


def _fraction_callers(tree: ast.Module) -> set[str]:
    """The qualified name (Class.method or function) of every top-level
    function or method in tree whose body calls Fraction(...)."""
    callers = set()
    for node in tree.body:
        scopes = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            scopes = [
                (f"{node.name}.{item.name}", item)
                for item in node.body if isinstance(item, ast.FunctionDef)
            ]
        callers.update(
            name
            for name, scope in scopes
            for call in ast.walk(scope)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "Fraction"
        )
    return callers


def test_lp_makes_fractions_only_at_the_api_edge():
    # the simplex, the covering path and the search loop work on integer
    # numerators over one denominator; only the public results are Fractions
    tree = ast.parse((Path(clumplab.__file__).parent / "lp.py").read_text())
    assert _fraction_callers(tree) == {
        "LPSolution.value", "LPSolution.x", "LPSolution.y", "extremal_search",
    }


def _referenced_names(tree: ast.AST, attributes_only: bool = False) -> Counter:
    """How often each name is referenced in tree: as an attribute, and
    unless attributes_only, as a Name or an imported alias too."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
    return refs


# src definitions that nothing in src references, each with its reason
_UNCALLED_IN_SRC = {
    "bfs_relayer": "ROADMAP item 13's bridge from a plain graph to a clump graph",
    "counterexample_block": "named by ROADMAP item 13's fallback",
    "diameter": "brute-force oracle that the tests compare blow_up_diameter against",
    "weighted_degree": "brute-force per-clump oracle that the tests check weightings with",
}


def test_every_src_definition_has_a_src_caller_or_a_reason():
    # code that only tests use is debt unless a pinned reason keeps it;
    # dunder methods are called by Python itself, and any other method
    # only through an attribute, so a local of its name does not count
    refs = {False: Counter(), True: Counter()}  # by attributes_only
    defs: list[tuple[str, ast.AST, bool]] = []  # name, node, is a method
    for path in sorted(Path(clumplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        refs[False] += _referenced_names(tree)
        refs[True] += _referenced_names(tree, attributes_only=True)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef | ast.ClassDef):
                defs.append((node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [(item.name, item, True) for item in node.body if isinstance(item, ast.FunctionDef)]
    unreferenced = {
        name for name, node, method in defs
        if not name.startswith("__") and not (refs[method] - _referenced_names(node, method))[name]
    }
    assert unreferenced == _UNCALLED_IN_SRC.keys()


# TARGETS entries that name something src no longer has, so their
# per-layer metrics read 0 until the bench's next change drops them
_STALE_TRACER_TARGETS = {("core", "_clump_bfs")}


def _tracer_targets() -> list[tuple[str, str]]:
    """The (module, path) pairs of bench/tracing.py's TARGETS, read from
    its source, as the tracer's imports need the bench directory."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracing.py").read_text())
    assigned = {
        target.id: node.value
        for node in tree.body if isinstance(node, ast.AnnAssign | ast.Assign)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    return [(entry.elts[0].value, entry.elts[1].value) for entry in assigned["TARGETS"].elts]


def test_tracer_targets_resolve_in_src():
    # the tracer skips a name it cannot find, so a rename in src would
    # silently zero its metrics
    missing = set()
    targets = _tracer_targets()
    for module, path in targets:
        owner = importlib.import_module(f"clumplab.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add((module, path))
    assert len(targets) > 20
    assert missing == _STALE_TRACER_TARGETS
