"""Package structure: every public export resolves and has a caller, and so
does every public method and property of a package class; every record
field has a reader, no module imports a name it does not use, one place
asks for Brownian increments and one place forks, and the package runs on
numpy without loading scipy; importing the package alone loads none of its
modules."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


# imports the package and the CLI, then takes the semigroup and the
# B-condition of the reaction-diffusion and delay-lift problems
_NO_SCIPY_PROBE = """
import sys
import hjblab, hjblab.cli
from hjblab.hilbert import check_b_condition, semigroup_matrix
from hjblab.models import build_reaction_diffusion, build_sdde_lift
for problem in (build_reaction_diffusion(), build_sdde_lift()):
    semigroup_matrix(problem.op, 0.5 / 200)
    check_b_condition(problem.op, problem.b_op)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _probe(code):
    """What a fresh interpreter that imports this package's source prints."""
    src = str(Path(hjblab.__path__[0]).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_package_does_not_load_scipy():
    # the runtime needs numpy alone; scipy is a test-only reference, and
    # importing it would cost every process its start-up time, its memory
    # and a second BLAS thread pool
    out = _probe(_NO_SCIPY_PROBE)
    assert out == "[]", f"scipy modules loaded: {out[:300]}"


def test_package_namespace_loads_no_module():
    # every name has one import path, its module's: the top-level package
    # re-exports nothing, so importing it loads none of its modules
    out = _probe("import sys, hjblab\n"
                 "print(sorted(m for m in sys.modules if m.startswith('hjblab.')))")
    assert out == "[]", f"import hjblab loaded: {out[:300]}"


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


def _callers(called_name):
    """(module, top-level function or class) of every call to a function of
    that name, by bare name or attribute; None for a module-level call."""
    callers = set()
    for name in MODULES:
        for top in _tree(name).body:
            owner = (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                     else None)
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if called == called_name:
                        callers.add((name, owner))
    return callers


def test_increments_are_requested_in_one_place_only():
    # contestants share noise by repeating the engine's request, never by
    # handing a pre-drawn block down; the engine's one entry into the step
    # loop is the only place that asks for one
    assert _callers("gaussian_increments") == {("engine", "_simulate")}


def test_processes_are_forked_in_one_place_only():
    # the engine's one fan-out is the package's one concurrency: one os.fork
    # call, one function that deals, allocates shared outputs and forks, and
    # no thread or pool module anywhere
    assert _callers("fork") == {("engine", "_run_forked")}
    for helper in ("_run_forked", "_shared_empty", "_deal"):
        assert _callers(helper) == {("engine", "_simulate")}, helper
    banned = {"threading", "_thread", "multiprocessing", "concurrent"}
    found = []
    for path in sorted(Path(hjblab.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found += [(path.name, root) for root in roots if root in banned]
    assert not found, f"hjblab modules import threads or pools: {found}"


# module-level names that a package function rebinds or stores into, each
# with the reason the state is shared by every caller in the process
DECLARED_MODULE_STATE = {
    ("engine", "increment_memo"):
        "the one held noise block, whose hits and misses the memo counts",
    ("engine", "_fanning_out"):
        "set while a fan-out runs, so that fan-outs do not nest",
    ("hilbert", "_SEMIGROUP_CACHE"):
        "semigroup matrices per operator and step, let go with the operator",
}


def _root_name(node):
    """The name an attribute or subscript chain starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _mutated_module_state(name):
    """(module, name) of each module-level name that a function of the
    module rebinds through `global`, or stores into or deletes from, by an
    attribute or subscript of the name itself or of a local bound to it."""
    tree = _tree(name)
    module_names = {t.id for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for t in ast.walk(node)
                    if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.update(n for n in node.names if n in module_names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if (isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                            and len(target.elts) == len(node.value.elts)):
                        pairs = zip(target.elts, node.value.elts)
                    for t, v in pairs:
                        if (isinstance(t, ast.Name) and isinstance(v, ast.Name)
                                and v.id in module_names):
                            aliases[t.id] = v.id
        for node in ast.walk(fn):
            if (isinstance(node, (ast.Attribute, ast.Subscript))
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                root = _root_name(node)
                root = aliases.get(root, root)
                if root in module_names:
                    found.add(root)
    return {(name, n) for n in found}


def test_module_state_is_declared():
    # state at module level is shared by every caller in the process, so one
    # test can affect the next: each name a package function changes is
    # declared here with its reason
    mutated = set().union(*(_mutated_module_state(name) for name in MODULES))
    assert mutated - set(DECLARED_MODULE_STATE) == set(), \
        "module-level state that functions change and no stated reason keeps"
    assert set(DECLARED_MODULE_STATE) - mutated == set(), \
        "declared module state that no function changes"


# public names that no package module or benchmark script uses, each with
# the reason it stays public
UNREACHED_EXPORTS = {}

# public methods and properties of package classes that no package module or
# benchmark script reaches through an attribute, each with the reason it stays
UNREACHED_MEMBERS = {
    ("report", "DiagnosticReport", "passed"):
        "the verdict as a bool, which the tests' assertions read",
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


def _bench_trees():
    return [ast.parse(p.read_text(), filename=str(p)) for p in BENCH_SOURCES]


def test_public_names_have_a_caller():
    # a public name is reached when some module of the package or a
    # benchmark script uses it; its definition and its __all__ entry do not
    # count, nor do the re-exports of __init__
    trees = [_tree(name) for name in MODULES] + _bench_trees()
    used = set().union(*(_used_names(t) for t in trees))
    exports = {(name, n) for name in MODULES for n in _exports(_tree(name))}
    unreached = {e for e in exports if e[1] not in used}
    assert unreached - set(UNREACHED_EXPORTS) == set(), \
        "public names with no caller and no stated reason"
    assert set(UNREACHED_EXPORTS) - unreached == set(), \
        "listed exceptions that are exported and used, or not exported at all"


def test_public_members_have_a_caller():
    # a method or property is reached when some module of the package or a
    # benchmark script loads an attribute of its name; tests do not count
    trees = [_tree(name) for name in MODULES] + _bench_trees()
    used = {node.attr for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Attribute)}
    members = {(name, cls.name, fn.name)
               for name in MODULES for cls in _tree(name).body
               if isinstance(cls, ast.ClassDef)
               for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}
    unreached = {m for m in members if m[2] not in used}
    assert unreached - set(UNREACHED_MEMBERS) == set(), \
        "public methods and properties with no caller and no stated reason"
    assert set(UNREACHED_MEMBERS) - unreached == set(), \
        "listed exceptions that are reached, or are no public member at all"


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
    ("engine", "PathEnsemble", "control_traces"):
        "the controls a feedback applied, which tests read, and the "
        "reference that control_sq_norms is checked against",
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
    trees = [_tree(name) for name in MODULES] + _bench_trees()
    read = set().union(*(_attribute_reads(t) for t in trees))
    unread = {f for f in fields if f[2] not in read}
    assert unread - set(UNREAD_FIELDS) == set(), \
        "record fields that nothing reads and no stated reason keeps"
    assert set(UNREAD_FIELDS) - unread == set(), \
        "listed exceptions that are read, or are no field at all"


# defaulted parameters and dataclass fields that only tests set, each with
# the reason it stays an option
TEST_SET_OPTIONS = {
    ("cli", "default_config", "kind"):
        "tests compare each kind's defaults with what parse_config fills in",
    ("cli", "run_experiment", "echo"): "tests silence the printed summary",
    ("diagnostics", "lipschitz_estimate", "norm_tag"):
        "the paper's weak norm, which test_diagnostics audits",
    ("diagnostics", "lipschitz_estimate", "b_op"):
        "the operator B of the paper's weak norm",
    ("diagnostics", "lipschitz_estimate", "declared_bound"):
        "a known bound that tests check the ratio against",
    ("diagnostics", "c11_modulus", "c_semiconcave"):
        "a one-sided constant that turns the finiteness check into a bound",
    ("diagnostics", "c11_modulus", "c_semiconvex"):
        "a one-sided constant that turns the finiteness check into a bound",
    ("diagnostics", "trajectory_stability_check", "norm_tag"):
        "the paper's weak norm, which acceptance test c6 audits",
    ("diagnostics", "midpoint_trajectory_check", "norm_tag"):
        "the paper's weak norm, which acceptance test c6 audits",
    ("diagnostics", "comparison_check", "strict"):
        "the negative control that runs with a broken hypothesis",
    ("engine", "simulate_costs", "record_controls"):
        "tests read the controls a feedback applied",
    ("engine", "simulate_ensemble", "stream_label"):
        "tests record the states of the audits' noise streams, the "
        "reference that simulate_sup is checked against",
    ("engine", "moment_bound_check", "c_p"):
        "a frozen constant that test_sde checks the moment bound against",
    ("hilbert", "check_positivity_preserving", "n_samples"):
        "tests audit operators on a smaller sample",
    ("models", "ControlSpec", "p_integrability"):
        "tests declare other integrability exponents",
    ("models", "ControlProblem", "running_cost"):
        "tests build problems with a running cost and no separated structure",
    ("synthesis", "feynman_kac_value", "stream_label"):
        "tests pair the estimate with other runs on their stream",
    ("value", "ControlFamily", "draw_scale"):
        "tests draw candidates at a chosen scale",
    ("value", "ControlFamily", "include_zero"):
        "tests price base candidates without the zero signal",
    ("value", "PolicyIterationConfig", "tol_abs"):
        "tests set zero tolerance to run every round",
    ("value", "PolicyIterationConfig", "tol_rel"):
        "tests set zero tolerance to run every round",
}


def _defaulted_args(module, owner, args, bound):
    """(module, owner, parameter, position) of each defaulted parameter; the
    position skips `bound` leading parameters (self), and is None for a
    keyword-only one."""
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = [(module, owner, a.arg, i - bound)
           for i, a in enumerate(pos) if i >= first]
    out += [(module, owner, a.arg, None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _defaulted_options(name):
    """Defaulted parameters of the module's functions and methods, and its
    dataclasses' defaulted fields (a field's position is its order)."""
    out = []
    for node in _tree(name).body:
        if isinstance(node, ast.FunctionDef):
            out += _defaulted_args(name, node.name, node.args, 0)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)]
                out += [(name, node.name, f.target.id, i)
                        for i, f in enumerate(fields) if f.value is not None]
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    owner = node.name if fn.name == "__init__" \
                        else f"{node.name}.{fn.name}"
                    out += _defaulted_args(name, owner, fn.args, 1)
    return out


def _module_dicts(tree):
    """Keys of each module-level NAME = dict(key=...), by name."""
    return {node.targets[0].id: {k.arg for k in node.value.keywords if k.arg}
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "dict"}


def _call_settings(tree):
    """(callee name, positional count, keyword names) of every call; **NAME
    of a module-level dict literal passes its keys, and a starred positional
    passes every position from there on."""
    dicts = _module_dicts(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = set()
        for k in node.keywords:
            if k.arg is not None:
                keywords.add(k.arg)
            elif isinstance(k.value, ast.Name):
                keywords |= dicts.get(k.value.id, set())
        yield called, float("inf") if starred else len(node.args), keywords


def test_defaulted_parameters_have_a_setter():
    # an option is set when some call in the package or the benchmark passes
    # it, by keyword or by position; a default that no caller overrides is a
    # constant. The builders are exempt: the CLI passes them the [problem]
    # keys of a config as **params
    from hjblab.cli import _BUILDERS

    builders = {f.__name__ for f in _BUILDERS.values()}
    options = [o for name in MODULES for o in _defaulted_options(name)
               if o[1] not in builders]
    trees = [_tree(name) for name in MODULES] + _bench_trees()
    calls = [c for t in trees for c in _call_settings(t)]
    unset = set()
    for module, owner, param, position in options:
        callee = owner.rsplit(".", 1)[-1]
        if not any(called == callee and (
                param in keywords
                or (position is not None and n_pos > position))
                for called, n_pos, keywords in calls):
            unset.add((module, owner, param))
    assert unset - set(TEST_SET_OPTIONS) == set(), \
        "defaulted options that no call sets and no stated reason keeps"
    assert set(TEST_SET_OPTIONS) - unset == set(), \
        "listed exceptions that a call sets, or that are no option at all"
