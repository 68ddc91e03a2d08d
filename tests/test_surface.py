"""Every def and class in src/ is named somewhere in src/ or bench/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Reached from tests only, and kept on purpose.
ALLOWED = {
    "m_uni": "the window cocycle's determinant formula; the winding-zero fix decides its fate",
    "base_change_cochain": "the only check that the circle class does not depend on the base object",
}


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
