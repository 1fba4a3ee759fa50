"""The imports between src/pvext's modules are exactly the edges listed here.

A module of src/pvext imports another of the package by `from . import x`
or `from .x import name` (an absolute `pvext.x` import counts the same).
EDGES names, for each module, the package modules it imports, and the test
fails on an edge the table does not name and on a named edge that is gone,
so a layer that starts to reach into another shows in the diff of this
table.  gauge, for one, composes A_G(f) through chevalley and does not
import construct.

A name that starts with an underscore is private to its module.  PRIVATE
lists the private names one module imports from another: the one is
diffpoly's accumulator `_Sum`, which linalg's gauge_defect sums each entry
in.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pvext"

EDGES = {
    "__init__": {
        "bruhat", "chevalley", "construct", "diffpoly", "gauge", "liouville_expr", "linalg",
        "rootsys", "symgroup",
    },
    "bruhat": {"chevalley", "errors", "linalg"},
    "chevalley": {"errors", "linalg", "rootsys"},
    "cli": {
        "bruhat", "chevalley", "construct", "diffpoly", "errors", "gauge", "liouville_expr",
        "rootsys",
    },
    "construct": {"chevalley", "diffpoly", "errors", "linalg", "liouville_expr", "rootsys"},
    "diffpoly": {"errors"},
    "errors": set(),
    "gauge": {"chevalley", "diffpoly", "errors", "linalg"},
    "linalg": {"diffpoly", "errors"},
    "liouville_expr": {"diffpoly"},
    "rootsys": {"errors"},
    "symgroup": {"errors", "linalg"},
}

PRIVATE = {("linalg", "diffpoly", "_Sum")}


def _imports(tree):
    """(imported package module, name or None) of each package import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "pvext":
                module = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                yield (alias.name, None) if module is None else (module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, module = alias.name.partition(".")
                if head == "pvext" and module:
                    yield module, None


def _package_imports():
    for path in sorted(SRC.glob("*.py")):
        for module, name in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.stem, module, name


def test_the_package_imports_are_the_listed_edges():
    edges = {path.stem: set() for path in SRC.glob("*.py")}
    for importer, module, _ in _package_imports():
        edges[importer].add(module)
    assert edges == EDGES


def test_the_private_names_imported_across_modules_are_listed():
    private = {
        (importer, module, name)
        for importer, module, name in _package_imports()
        if name is not None and name.startswith("_")
    }
    assert private == PRIVATE
