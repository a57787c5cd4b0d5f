"""Every function, method and class that ``src/strcat`` defines is used there.

A name that only tests call belongs in ``tests/``; a name that nothing
calls belongs nowhere.  ``__init__.py`` only re-exports, so its imports do
not count as uses.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "strcat"


def test_every_defined_name_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    defined = {}
    used = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{module}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name not in used)
    assert not unused, "defined in src/strcat but never used there: " + ", ".join(unused)
