"""Package structure: every public export resolves, no module imports a
name it does not use, and one place asks for Brownian increments."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hjblab

MODULES = sorted(m.name for m in pkgutil.iter_modules(hjblab.__path__))
SOURCES = {name: Path(hjblab.__path__[0], f"{name}.py") for name in MODULES}


def _tree(name):
    return ast.parse(SOURCES[name].read_text(), filename=str(SOURCES[name]))


def test_package_imports():
    assert importlib.import_module("hjblab") is hjblab


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"hjblab.{name}")
    # a module without __all__ (the CLI) exports nothing to check
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"hjblab.{name}.__all__ names missing objects: {missing}"


def test_package_all_names_resolve():
    missing = [n for n in hjblab.__all__ if not hasattr(hjblab, n)]
    assert not missing


def _unused_imports(tree):
    """Top-level imported names that no expression in the module reads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


# pkgutil does not list __init__, whose imports are re-exports
@pytest.mark.parametrize("name", MODULES)
def test_no_unused_top_level_imports(name):
    unused = _unused_imports(_tree(name))
    assert not unused, f"hjblab/{name}.py imports unused names (line, name): {unused}"


def test_increments_are_requested_in_two_places_only():
    # contestants share noise by repeating the engine's request, never by
    # handing a pre-drawn block down; the step loop and the comparison
    # check's own scheme are the only places that ask for one
    callers = set()
    for name in MODULES:
        for fn in _tree(name).body:
            if not isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if called == "gaussian_increments":
                        callers.add((name, fn.name))
    assert callers == {("engine", "_run"), ("diagnostics", "comparison_check")}
