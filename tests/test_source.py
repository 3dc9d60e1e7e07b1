"""Rules the package source keeps."""

import ast
from pathlib import Path

import unkloc

SOURCE = Path(unkloc.__file__).resolve().parent


def test_the_package_checks_with_raises_not_asserts():
    # python -O strips assert statements, and with them any check they make
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {found}"
