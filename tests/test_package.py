"""Tests for the package root: its exported names, the README examples and
the package names the benchmark relies on."""

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
TRACED_BUT_REMOVED = {"stochastic.mbs_cost"}


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
