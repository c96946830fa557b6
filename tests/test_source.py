"""Checks on the library's source text."""

import ast
import pathlib

import heckelab


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no guard may be one
    modules = sorted(pathlib.Path(heckelab.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
