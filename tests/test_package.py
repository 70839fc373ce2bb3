"""Tests for the package root: its exported names, the README examples,
the package names the benchmark relies on, the import layering and dead
names under src/."""

import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import spectrum_contracts
from spectrum_contracts.config import loads_config

ROOT = Path(__file__).resolve().parents[1]

# Functions the benchmark tracer still wraps but the package has dropped;
# each must stay absent, and an entry leaves when the tracer drops it.
TRACED_BUT_REMOVED = {"stochastic.mbs_cost", "stochastic.poisson_tail"}

# Exported names no other module needs: ``PriceSchedule`` is the type of
# ``Contract.prices``, and a run gets one only from ``optimal_prices``.
EXPORTED_FOR_TESTS = {"contract.PriceSchedule"}


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


def test_all_lists_exactly_the_bound_names():
    bound = {
        name
        for name, value in vars(spectrum_contracts).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(spectrum_contracts.__all__) == bound | {"__version__"}
    assert len(spectrum_contracts.__all__) == len(set(spectrum_contracts.__all__))


def _module_names(tree):
    """Per top-level statement: the names it binds and the names it reads."""
    for statement in tree.body:
        bound = set()
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            bound.add(statement.name)
        elif isinstance(statement, ast.Assign):
            bound.update(t.id for t in statement.targets if isinstance(t, ast.Name))
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            bound.add(statement.target.id)
        read = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
        yield bound, read


def test_src_holds_no_dead_names():
    # src/ holds what a run executes: a private name nothing else reads is
    # dead, and an exported name only the tests use belongs beside them.
    statements = [
        (path.stem, bound, read)
        for path in sorted((ROOT / "src" / "spectrum_contracts").glob("*.py"))
        for bound, read in _module_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    dead = [
        f"{module}.{name}"
        for index, (module, bound, _) in enumerate(statements)
        for name in bound
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in read for j, (*_, read) in enumerate(statements) if j != index)
    ]
    for module in ("contract", "stochastic"):
        for name in importlib.import_module(f"spectrum_contracts.{module}").__all__:
            used = any(name in read for other, _, read in statements if other != module)
            if used == (f"{module}.{name}" in EXPORTED_FOR_TESTS):
                dead.append(f"{module}.{name}")
    assert dead == []
