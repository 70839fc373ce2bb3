"""Tests for the package root: its exported names, the README examples,
the package names the benchmark relies on, the benchmark's cost rows on
both sides of the lane cutoff, the import layering, and dead names and
options under src/."""

import ast
import importlib
import math
import re
from pathlib import Path
from types import ModuleType

import numpy as np

import spectrum_contracts
from spectrum_contracts.config import loads_config
from spectrum_contracts.runner import sample_instance
from spectrum_contracts.stochastic import _LOCKSTEP_LANES

ROOT = Path(__file__).resolve().parents[1]

# Functions the benchmark tracer still wraps but the package has dropped;
# each must stay absent, and an entry leaves when the tracer drops it.
TRACED_BUT_REMOVED = {"stochastic.mbs_cost", "stochastic.poisson_tail"}

# Names the dead-name guard lets stand, each with the reason it stays.
# A listed name that the rule stops flagging fails too, so the list
# cannot go stale.
EXPORTED_FOR_TESTS = {
    "contract.PriceSchedule": "the type of Contract.prices; only optimal_prices builds one",
    "cli._Parser.error": "argparse calls it on a usage error",
    "runner.strip_timestamp": "README 'Output files' documents it for users",
}

# Options (defaulted parameters and dataclass fields) that no call in
# src/ sets, each with the reason it stays; checked both ways, like
# EXPORTED_FOR_TESTS.
SET_OUTSIDE_SRC = {
    "cli.main.argv": "the console script calls main() with no argument; the tests pass argv",
}


# The package modules each module of src/ may import.  The lower layers
# stand alone: the contract model reads the utilities it is given rather
# than computing them, and the geometry derives types without the solver
# or the run layers.
ALLOWED_IMPORTS = {
    "_version": set(),
    "stochastic": set(),
    "contract": set(),
    "geometry": {"contract"},
    "solver": {"contract", "stochastic"},
    "config": {"contract", "geometry", "solver"},
    "runner": {"_version", "config", "contract", "geometry", "solver"},
    "cli": {"config", "runner", "solver"},
    "__init__": {"_version", "config", "contract", "runner", "solver"},
}


def _package_imports(tree):
    """Package modules a module imports, read from its source: importing
    it would run the package root, which loads every layer."""
    modules = set(ALLOWED_IMPORTS)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [(node.module or "").rsplit(".", 1)[-1]]
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        else:
            continue
        imported.update(name for name in names if name in modules)
    return imported


def test_each_module_imports_only_its_allowed_layers():
    paths = sorted((ROOT / "src" / "spectrum_contracts").glob("*.py"))
    assert {path.stem for path in paths} == set(ALLOWED_IMPORTS)
    for path in paths:
        imported = _package_imports(ast.parse(path.read_text(encoding="utf-8")))
        assert imported <= ALLOWED_IMPORTS[path.stem], path.stem
    assert not ALLOWED_IMPORTS["geometry"] & {"solver", "runner", "config"}


def test_readme_python_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_yaml_examples_load():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        loads_config(block)


def test_benchmark_worker_names_are_exported():
    source = (ROOT / "bench" / "worker.py").read_text(encoding="utf-8")
    used = set(re.findall(r"\bsc\.(\w+)", source))
    assert used == {
        "config_hash",
        "loads_config",
        "run_oracle_check",
        "run_solve",
        "run_sweep",
    }
    assert used <= set(spectrum_contracts.__all__)


def test_benchmark_tracer_names_exist():
    # A traced name the package no longer binds reads 0 in every run.
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTED")
    }
    traced = {f"{module}.{func}" for module, func, *_ in tables["SPANS"] + tables["COUNTED"]}
    assert traced
    for name in sorted(traced | TRACED_BUT_REMOVED):
        module, func = name.split(".")
        bound = hasattr(importlib.import_module(f"spectrum_contracts.{module}"), func)
        assert bound == (name not in TRACED_BUT_REMOVED), name


def test_benchmark_times_cost_rows_on_both_sides_of_the_lane_cutoff():
    # cost_table sums a row's upper tails per tail below the cutoff and
    # in lock-step from it on, chosen by the row's lanes (channels above
    # the load); only a benchmark with rows on both sides justifies that.
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    names = ("SOLVE_SHAPES", "HEIGHT_SWEEP_PRESET", "ORACLE_DEFAULT_SEED")
    consts = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in names
    }
    (solve_scale,) = (
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_solve_scale"
    )
    (jitter,) = (
        node for node in ast.walk(solve_scale)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "uniform"
    )
    _, highest = (ast.literal_eval(arg) for arg in jitter.args)

    def lanes(total, load):
        return total - min(math.floor(load), total)

    for _, total, _, ratio in consts["SOLVE_SHAPES"]:
        assert lanes(total, ratio * total * highest) >= _LOCKSTEP_LANES, total
    mbs = loads_config(consts["HEIGHT_SWEEP_PRESET"]).mbs
    assert (mbs.total_channels, mbs.load) == (200, 150.0)
    assert lanes(mbs.total_channels, mbs.load) < _LOCKSTEP_LANES
    for index in range(200):
        rng = np.random.default_rng(consts["ORACLE_DEFAULT_SEED"] + index)
        mbs = sample_instance(rng)[1]
        assert mbs.total_channels <= 12
        assert lanes(mbs.total_channels, mbs.load) < _LOCKSTEP_LANES


def test_all_lists_exactly_the_bound_names():
    bound = {
        name
        for name, value in vars(spectrum_contracts).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(spectrum_contracts.__all__) == bound | {"__version__"}
    assert len(spectrum_contracts.__all__) == len(set(spectrum_contracts.__all__))


def _reads(nodes):
    read = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _binds(statement):
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return {statement.target.id}
    return set()


def _module_names(tree):
    """Per statement: the names it binds and the names it reads.

    Each top-level statement is one, except that each member of a class
    body (method, property, field) is its own, bound as
    ``Class.member``; the class statement keeps its bases and
    decorators.
    """
    for statement in tree.body:
        if not isinstance(statement, ast.ClassDef):
            yield _binds(statement), _reads([statement])
            continue
        header = statement.bases + statement.keywords + statement.decorator_list
        yield {statement.name}, _reads(header)
        for member in statement.body:
            bound = {f"{statement.name}.{name}" for name in _binds(member)}
            yield bound, _reads([member])


def test_src_holds_no_dead_names():
    # src/ holds what a run executes: a name (a class member too) that no
    # other statement reads is dead, and an export of contract or
    # stochastic that no other module reads belongs beside the tests.
    statements = [
        (path.stem, bound, read)
        for path in sorted((ROOT / "src" / "spectrum_contracts").glob("*.py"))
        for bound, read in _module_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    exports = {
        f"{module}.{name}"
        for module in ("contract", "stochastic")
        for name in importlib.import_module(f"spectrum_contracts.{module}").__all__
    }
    names = {
        (module, qualified): index
        for index, (module, bound, _) in enumerate(statements)
        for qualified in bound
        if not qualified.rsplit(".", 1)[-1].startswith("__")
    }
    assert set(EXPORTED_FOR_TESTS) <= {f"{module}.{q}" for module, q in names}
    dead = []
    for (module, qualified), index in sorted(names.items()):
        full, name = f"{module}.{qualified}", qualified.rsplit(".", 1)[-1]
        readers = {
            other
            for j, (other, _, read) in enumerate(statements)
            if j != index and name in read
        }
        used = bool(readers - {module}) if full in exports else bool(readers)
        if used == (full in EXPORTED_FOR_TESTS):
            dead.append(full)
    assert dead == []


def _is_dataclass(node):
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _field_has_default(value):
    """A field's value is its default, unless it is a ``field(...)`` call
    with neither ``default`` nor ``default_factory``."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return True
    return any(k.arg in ("default", "default_factory") for k in value.keywords)


def _options(body, prefix, owner=None):
    """(option name, callee name, keyword, position) for every defaulted
    parameter of a function or method and every dataclass field with a
    default, nested ones too.  Positions skip a method's ``self``;
    keyword-only parameters have none.  ``__init__`` is called by its
    class name."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            fields = [
                member
                for member in node.body
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
            ]
            if _is_dataclass(node):
                for index, member in enumerate(fields):
                    if member.value is not None and _field_has_default(member.value):
                        name = member.target.id
                        yield f"{prefix}{node.name}.{name}", node.name, name, index
            yield from _options(node.body, f"{prefix}{node.name}.", node.name)
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            if owner is not None:
                positional = positional[1:]
            callee = owner if node.name == "__init__" and owner else node.name
            qualified = f"{prefix}{node.name}."
            defaulted = positional[len(positional) - len(args.defaults) :]
            for arg in defaulted:
                yield qualified + arg.arg, callee, arg.arg, positional.index(arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualified + arg.arg, callee, arg.arg, None
            yield from _options(node.body, qualified)
        else:
            yield from _options(ast.iter_child_nodes(node), prefix, owner)


def _passed(trees):
    """(callee name, keyword or position) for every argument a call
    passes, with a name bound to other callables (``run = a if c else
    b``) standing for each of them."""
    aliases = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            value = node.value
            choices = [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
            if isinstance(node.targets[0], ast.Name) and all(
                isinstance(choice, ast.Name) for choice in choices
            ):
                aliases[node.targets[0].id] = {choice.id for choice in choices}
    passed = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        for callee in {name} | aliases.get(name, set()):
            passed.update((callee, index) for index in range(len(node.args)))
            passed.update((callee, k.arg) for k in node.keywords)
    return passed


def test_src_options_have_src_callers():
    # With one value in use, a constant does: every defaulted parameter
    # and dataclass field in src/ must be set by some call in src/, by
    # keyword or at its position, or the tests alone exercise it.
    paths = sorted((ROOT / "src" / "spectrum_contracts").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    passed = _passed(trees.values())
    options = [
        (name, callee, keyword, index)
        for module, tree in trees.items()
        for name, callee, keyword, index in _options(tree.body, f"{module}.")
    ]
    assert set(SET_OUTSIDE_SRC) <= {name for name, *_ in options}
    unset = {
        name
        for name, callee, keyword, index in options
        if (callee, keyword) not in passed and (callee, index) not in passed
    }
    assert sorted(unset ^ set(SET_OUTSIDE_SRC)) == []
