"""Package structure: every public export resolves and has a caller, every
record field has a reader, no module imports a name it does not use, and
one place asks for Brownian increments."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hjblab

MODULES = sorted(m.name for m in pkgutil.iter_modules(hjblab.__path__))
SOURCES = {name: Path(hjblab.__path__[0], f"{name}.py") for name in MODULES}
BENCH_SOURCES = sorted(Path(__file__).resolve().parents[1].glob("perfbench/*.py"))


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


def test_increments_are_requested_in_one_place_only():
    # contestants share noise by repeating the engine's request, never by
    # handing a pre-drawn block down; the step loop is the only place that
    # asks for one
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
    assert callers == {("engine", "_run")}


# public names that no src module uses, each with the reason it stays public
UNREACHED_EXPORTS = {
    ("synthesis", "hamiltonian_min"):
        "the numerical reference that tests check gamma_separated against",
    ("value", "make_exact_evaluator"): "a zero-noise evaluator for tests",
    ("value", "policy_iteration"): "used by acceptance test c1 and oracle_lq",
    ("synthesis", "feynman_kac_value"):
        "used by the oneshot_sdde workload and acceptance test c3",
    ("hilbert", "make_custom_operator"): "builds user-defined generators",
}


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _used_names(tree):
    """Names a module reads, as a bare name, an attribute or an import."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used


def test_public_names_have_a_caller():
    # a public name is reached when some module of the package uses it; its
    # definition and its __all__ entry do not count, nor do the re-exports
    # of __init__
    used = set().union(*(_used_names(_tree(name)) for name in MODULES))
    exports = {(name, n) for name in MODULES for n in _exports(_tree(name))}
    unreached = {e for e in exports if e[1] not in used}
    assert unreached - set(UNREACHED_EXPORTS) == set(), \
        "public names with no caller and no stated reason"
    assert set(UNREACHED_EXPORTS) - unreached == set(), \
        "listed exceptions that are exported and used, or not exported at all"


# record fields that no reader in the package or the benchmark reads, each
# with the reason it stays
UNREAD_FIELDS = {
    ("report", "DiagnosticReport", "witness"):
        "to_dict serializes the whole report",
    ("value", "FamilyValue", "argmin_index"): "a result that tests inspect",
    ("value", "FamilyValue", "argmin_label"): "a result that tests inspect",
    ("value", "PolicyIterationResult", "rounds_run"):
        "a result that acceptance test c1 and tests inspect",
    ("value", "PolicyIterationResult", "round_changes"):
        "a result that acceptance test c1 and tests inspect",
    ("value", "PolicyIterationResult", "round_values"):
        "a result that acceptance test c1 and tests inspect",
    ("models", "ControlProblem", "drift_lipschitz"):
        "a declared hypothesis that test_problems audits",
    ("synthesis", "HamiltonianProbe", "x"): "read by test_synthesis",
}


def _is_dataclass(node):
    for deco in node.decorator_list:
        f = deco.func if isinstance(deco, ast.Call) else deco
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def _attribute_reads(tree):
    """Attribute names the tree loads, outside __post_init__ (validation)."""
    reads = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return reads


def test_record_fields_have_a_reader():
    # a field is read when the package or the benchmark loads an attribute
    # of its name; writing it, validating it or a test reading it does not
    # count
    fields = {(name, node.name, stmt.target.id)
              for name in MODULES for node in ast.walk(_tree(name))
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              for stmt in node.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    trees = [_tree(name) for name in MODULES]
    trees += [ast.parse(p.read_text(), filename=str(p)) for p in BENCH_SOURCES]
    read = set().union(*(_attribute_reads(t) for t in trees))
    unread = {f for f in fields if f[2] not in read}
    assert unread - set(UNREAD_FIELDS) == set(), \
        "record fields that nothing reads and no stated reason keeps"
    assert set(UNREAD_FIELDS) - unread == set(), \
        "listed exceptions that are read, or are no field at all"
