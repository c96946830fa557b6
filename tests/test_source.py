"""Checks on the library's source text."""

import ast
import os
import pathlib
import subprocess
import sys

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


def _modules_after(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``, with
    the package on its path as the CLI finds it."""
    src = str(pathlib.Path(heckelab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_loads_no_code_generation_machinery():
    # every heckelab process imports the CLI before any work: none of the
    # modules behind generated methods may come with it
    added = _modules_after("import heckelab.cli") - _modules_after("pass")
    assert "heckelab.cli" in added
    assert added & {"dataclasses", "inspect", "ast", "dis"} == set()


def test_library_generates_no_code():
    # no dataclasses import and no exec or eval call anywhere in the package
    found = []
    for path, node in _library_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names = [node.func.id]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.split(".")[0] in ("dataclasses", "exec", "eval")]
    assert found == []
