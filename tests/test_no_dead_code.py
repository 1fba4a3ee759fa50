"""Every function and method in src/pvext is used by the program, and
every name a src/pvext module imports is used in that module.

A definition counts as used when its name is referred to somewhere outside
its own body, in src/pvext, demos or perfbench: as a name, as an attribute,
in an import, or as a string that is exactly the name (perfbench/spans.py
patches layer boundaries by their names).  Tests do not count, so a helper
only tests call belongs in tests/.  Dunder methods are exempt; Python calls
them.

The match is by name only, so the check is approximate: a dead function
passes when any other definition or attribute shares its name, and a use
through a computed name would not be seen.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pvext"
USERS = (SRC, ROOT / "demos", ROOT / "perfbench")
_IDENT = re.compile(r"[A-Za-z_]\w*\Z")


def _references(tree):
    """Counter of the names a syntax tree refers to."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENT.match(node.value):
                names[node.value] += 1
    return names


def _trees(folder):
    for path in sorted(folder.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_function_is_named_outside_its_own_definition():
    used = Counter()
    for folder in USERS:
        for _, tree in _trees(folder):
            used.update(_references(tree))
    unused = []
    for path, tree in _trees(SRC):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] - _references(node)[name] <= 0:
                unused.append("%s:%d %s" % (path.name, node.lineno, name))
    assert unused == []


def _imported_names(tree):
    """(line, name) of each name a module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".", 1)[0]


def test_every_imported_name_is_used_in_its_module():
    # __init__.py imports the submodules to export them
    unused = []
    for path, tree in _trees(SRC):
        if path.name == "__init__.py":
            continue
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for line, name in _imported_names(tree) if name not in names]
    assert unused == []
