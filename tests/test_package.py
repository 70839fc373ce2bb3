"""Tests for the package root: its exported names and the README example."""

import re
from pathlib import Path
from types import ModuleType

import spectrum_contracts

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


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


def test_all_lists_exactly_the_bound_names():
    bound = {
        name
        for name, value in vars(spectrum_contracts).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(spectrum_contracts.__all__) == bound | {"__version__"}
    assert len(spectrum_contracts.__all__) == len(set(spectrum_contracts.__all__))
