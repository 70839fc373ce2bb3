"""Optimal spectrum contracts between a base station and UAV operators.

The package splits into five layers:

* :mod:`~spectrum_contracts.stochastic`: Poisson tails, operator
  utility tables, base-station cost rows.
* :mod:`~spectrum_contracts.contract`: contract data model, optimal
  pricing, evaluators over the utility tables and costs they are given.
* :mod:`~spectrum_contracts.solver`: channel-assignment search (layered
  DP plus an exhaustive oracle), one input build per instance.
* :mod:`~spectrum_contracts.geometry`: air-to-ground channel model,
  SNR coverage partition, type derivation.
* :mod:`~spectrum_contracts.config` / :mod:`~spectrum_contracts.runner`
  / :mod:`~spectrum_contracts.cli`: scenario files, experiment
  orchestration (solves and sweeps), CSV emission.

``stochastic`` and ``contract`` import no other module of the package,
``geometry`` imports only ``contract``, and ``solver`` only those two.
The package root holds the entry points of a run; everything else is
imported from its module.
"""

from ._version import __version__
from .config import ConfigError, canonical_dump, config_hash, load_config, loads_config
from .contract import MbsLoad, TypeLadder
from .runner import run_oracle_check, run_solve, run_sweep
from .solver import Objective, solve

__all__ = [
    "__version__",
    "ConfigError",
    "MbsLoad",
    "Objective",
    "TypeLadder",
    "canonical_dump",
    "config_hash",
    "load_config",
    "loads_config",
    "run_oracle_check",
    "run_solve",
    "run_sweep",
    "solve",
]
