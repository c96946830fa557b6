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


def test_hecke_and_kazhdan_reach_class_groups_by_method():
    # the codes, ring tables, moves and words of K/K_m and the Cartan replay
    # of its witnesses belong to matgrp.ClassGroup: hecke and kazhdan name
    # none of them, and import neither _replay nor the elimination's op kinds
    owned = {"tables", "codes", "index", "words", "table", "moves", "move_inverse"}
    replay = {"_replay", "_SWAP", "_ADD", "_SCALE"}
    found = []
    for path, node in _library_nodes():
        if path.name not in ("hecke.py", "kazhdan.py"):
            continue
        if isinstance(node, ast.Attribute) and node.attr in owned:
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{path.name}:{node.lineno} import {alias.name}"
                      for alias in node.names if alias.name in replay]
        elif isinstance(node, ast.Name) and node.id in replay:
            found.append(f"{path.name}:{node.lineno} {node.id}")
    assert found == []


def test_hecke_and_kazhdan_run_no_exact_elimination():
    # only cartan eliminates over o: classify, the m = 0 coset filter and
    # transport_element eliminate mod a power of pi, so hecke and kazhdan
    # neither import nor name matgrp._eliminate
    found = []
    for path, node in _library_nodes():
        if path.name not in ("hecke.py", "kazhdan.py"):
            continue
        if isinstance(node, ast.ImportFrom):
            found += [f"{path.name}:{node.lineno} import {alias.name}"
                      for alias in node.names if alias.name == "_eliminate"]
        elif isinstance(node, ast.Name) and node.id == "_eliminate":
            found.append(f"{path.name}:{node.lineno} {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr == "_eliminate":
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []


def test_coordinate_kernels_have_one_owner():
    # o/pi^N arithmetic belongs to localfield.ResidueRing: matgrp, hecke
    # and kazhdan import none of localfield's coordinate kernels, and
    # reach them only through a ring's bound kernels
    kernels = {"_mixed_product", "_series_inverse", "_vp_int"}
    found = []
    for path, node in _library_nodes():
        if path.name not in ("matgrp.py", "hecke.py", "kazhdan.py"):
            continue
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("localfield"):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name in kernels or name.startswith("poly_")]
    assert found == []


# Defined in src/heckelab but referenced nowhere else in it, each with the
# reason it stays: API (in heckelab.__all__, which needs no entry, or
# README), a CLI entry point, or a name that benchmark/tracer.py or
# benchmark/workloads.py patches or reads.
UNREFERENCED_ALLOWED = {
    "gamma": "README API: OrbitTable's Gamma_tau as residue-matrix pairs",
    "scaled": "README API: a HeckeElement times a scalar",
    "representative": "README API: the canonical element of a label",
    "transport_hecke": "README API: transport of Hecke elements",
    "transport_module": "README API: transport of windowed modules",
    "in_km": "benchmark/tracer.py patches GroupElement.in_km",
    "apply_inverse": "benchmark/tracer.py patches ClosePair.apply_inverse",
    "iter_kernel": "benchmark/tracer.py patches matgrp.iter_kernel",
}


def _unreferenced_definitions():
    """(module, name) of every function, method and class whose name is
    used nowhere in the package outside its own definition; an import
    alone is no use, and dunder methods are called by the language."""
    defs, uses = [], {}
    for path, node in _library_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((path.name, node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            uses.setdefault(name, []).append((path.name, node.lineno))
    return sorted({
        (module, name) for module, name, first, last in defs
        if not (name.startswith("__") and name.endswith("__"))
        and all(where == module and first <= line <= last for where, line in uses.get(name, ()))
    })


def test_every_definition_is_used_or_allowed():
    # no alias or test-only helper lives in the library unannounced
    found = [f"{module}:{name}" for module, name in _unreferenced_definitions()
             if name not in UNREFERENCED_ALLOWED and name not in heckelab.__all__]
    assert found == []


def test_unreferenced_allowlist_is_current():
    # each allowed name is still defined and still unreferenced
    names = {name for _, name in _unreferenced_definitions()}
    assert sorted(set(UNREFERENCED_ALLOWED) - names) == []
