"""pvext writes JSON text in one place, liouville_expr.json_chunks: no
module of src/pvext calls json.dumps or json.dump, or imports them, except
cli.cmd_verify, which renders a fixture to compare the derived report with.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pvext"
ALLOWED = {("cli.py", "cmd_verify")}
WRITERS = ("dump", "dumps")


def _json_writes(node, where):
    """(where, line) of each json.dump(s) call or import under `node`,
    `where` being the name of the enclosing top-level function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and where is None:
        where = node.name
    found = []
    if isinstance(node, ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in WRITERS
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            found.append((where, node.lineno))
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("json"):
        if any(alias.name in WRITERS for alias in node.names):
            found.append((where, node.lineno))
    for child in ast.iter_child_nodes(node):
        found += _json_writes(child, where)
    return found


def test_json_text_is_written_only_by_json_chunks():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for where, line in _json_writes(tree, None):
            if (path.name, where) not in ALLOWED:
                offenders.append("%s:%d in %s" % (path.name, line, where))
    assert offenders == []


def test_the_check_sees_json_dumps_in_a_function_and_at_module_level():
    source = "import json\nfrom json import dumps\nx = json.dumps(1)\ndef f():\n    json.dump(2, None)\n"
    assert _json_writes(ast.parse(source), None) == [(None, 2), (None, 3), ("f", 5)]
