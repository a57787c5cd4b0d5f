"""Every function, method and class that ``src/strcat`` defines is used
there, and so is every name it imports; and no answer can depend on a
random draw, because nothing there touches a random number generator.

A name that only tests call belongs in ``tests/``; a name that nothing
calls belongs nowhere.  Omega of a string is decided in one place: one
function calls ``strings.syzygy_word``.  ``cli.py`` is the one module that writes text:
no other module prints, writes to ``sys.stdout`` or ``sys.stderr``,
imports ``csv`` or serializes with ``json.dump``/``json.dumps`` (reading
a spec with ``json.load``/``json.loads`` is fine).  Only ``homology.py``
builds a ``CanonicalHom``, since only it reads the windows of a word.
``__init__.py`` only re-exports, so its imports do not count as uses and
are not checked.  An import kept on purpose carries
``# noqa: F401`` on its line.
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


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line
                   for line in lines[node.lineno - 1: node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{name} ({path.name}:{node.lineno})")
    assert not unused, "imported in src/strcat but never used: " + ", ".join(unused)


def test_no_random_number_generator():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}"
                                               for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            for name in names:
                if (name.split(".")[0] == "random" or name == "default_rng"
                        or name.startswith("numpy.random")):
                    found.append(f"{name} ({path.name}:{node.lineno})")
    assert not found, "random number generation in src/strcat: " + ", ".join(found)


def test_only_the_enumeration_takes_a_length_cap():
    # string finiteness is decided exactly, so no function takes a cap; the
    # enumeration keeps an ignored one because perfbench's spans bind it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                names = [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]
                where = f"{path.stem}.{getattr(node, 'name', '<lambda>')}"
                if "length_cap" in names and where != "strings.enumerate_strings":
                    found.append(f"{where} ({path.name}:{node.lineno})")
    assert not found, "functions taking a length cap: " + ", ".join(found)


def test_one_function_reads_omega_off_a_word():
    # arquiver.omega_word decides Omega of a string, and every route to it
    # (the AR quiver, the orbits, classify and syzygy --n) goes through it
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and "syzygy_word" in (
                            getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                        callers.add(f"{path.stem}.{node.name}")
    assert callers == {"arquiver.omega_word"}, sorted(callers)


# what writes output; only cli.py may name these
OUTPUT = {"print", "csv", "sys.stdout", "sys.stderr", "json.dump", "json.dumps"}


def test_only_the_command_line_writes_output():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}"
                                               for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found += [f"{name} ({path.name}:{node.lineno})"
                      for name in names if name in OUTPUT]
    assert not found, "output written outside cli.py: " + ", ".join(found)


def test_only_homology_makes_canonical_homomorphisms():
    # which windows of a word may carry a cut is decided in homology alone,
    # so no other module builds a CanonicalHom record of its own
    makers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "CanonicalHom" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                makers.add(path.stem)
    assert makers == {"homology"}, sorted(makers)
