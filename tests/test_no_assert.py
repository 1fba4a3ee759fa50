"""Validation must survive `python -O`, which strips assert statements."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pvext"


def _raises_assertion_error(node):
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_or_assertion_errors():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None
                and _raises_assertion_error(node)
            ):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []
