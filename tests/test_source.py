"""Checks on the library's source text."""

import ast
import pathlib

import heckelab


def _library_nodes():
    modules = sorted(pathlib.Path(heckelab.__file__).parent.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no guard may be one
    found = [f"{path.name}:{node.lineno}" for path, node in _library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_raises_no_assertion_error():
    # a failed guard raises a typed HeckelabError (InvariantViolated for a
    # defect), never the AssertionError a bare assert would have raised
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _library_nodes()
        if isinstance(node, ast.Raise) and node.exc is not None
        and "AssertionError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert found == []
