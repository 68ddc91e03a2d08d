"""Every def and class in src/ is named somewhere in src/ or bench/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Reached from tests only, and kept on purpose.
ALLOWED = {}


def test_src_defines_nothing_that_only_tests_reach():
    named, defined = set(), {}
    for path in sorted(ROOT.glob("src/detline/*.py")) + sorted(ROOT.glob("bench/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.parent.name == "detline":
                defined.setdefault(node.name, path.name)
    unused = {
        name: where
        for name, where in defined.items()
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    }
    assert sorted(unused) == sorted(ALLOWED), sorted(unused.items())


def _memo_sets(node, where=None):
    """The innermost enclosing function (None at module level) of each `MEMO.set`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and ast.unparse(child).endswith("MEMO.set"):
            yield where
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _memo_sets(child, child.name if inner else where)


def test_src_has_one_memo_mechanism():
    # a table activates only through `_linalg.memo_table`, and no function
    # takes a table of its own
    sets, params = [], []
    for path in sorted(ROOT.glob("src/detline/*.py")):
        tree = ast.parse(path.read_text())
        sets += [f"{path.stem}.{where}" for where in _memo_sets(tree)]
        params += [
            f"{path.stem}.{fn.name}({a.arg})"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            if a.arg in ("memo", "local")
        ]
    assert sets == ["_linalg.memo_table"], sets
    assert params == [], params


def test_src_has_one_grid_mechanism():
    # cells of Z^d are indexed by bisecting per-axis cuts in `_intervals` only
    importers = []
    for path in sorted(ROOT.glob("src/detline/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(n.partition(".")[0] == "bisect" for n in names):
                importers.append(path.stem)
    assert importers == ["_intervals"], importers


# Module-level containers shared by every caller in the process, kept on purpose.
STATE_ALLOWED = {
    "__init__.__all__": "the package's public module list, read by `import *` and never mutated",
    "verify.SUITES": "the suite table that `run_suite` and the CLI's --suite choices dispatch on, never mutated",
}
_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict"}
_CACHES = {"cache", "lru_cache"}


def _name(node):
    """The called or decorating name: `f`, `mod.f` and `f(...)` all give "f"."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_src_keeps_no_module_level_state():
    # a per-process cache or registry in src/ outlives the call that filled it
    found = set()
    for path in sorted(ROOT.glob("src/detline/*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                value = node.value
                if isinstance(value, _CONTAINERS) or (
                    isinstance(value, ast.Call) and _name(value) in _CONTAINER_CALLS
                ):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found.update(f"{path.stem}.{ast.unparse(t)}" for t in targets)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_name(d) in _CACHES for d in node.decorator_list):
                    found.add(f"{path.stem}.{node.name} (cached)")
    assert sorted(found) == sorted(STATE_ALLOWED), sorted(found)
