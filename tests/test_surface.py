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
