"""Seeded inputs for the four benchmark workloads.

Each workload pass is a list of operations.  An operation is one call of
a public runner function (``run_solve``, ``run_sweep``,
``run_oracle_check``); the program only ever sees the YAML text (or the
oracle's instance count and seed) built here.

Inputs depend on ``(workload, seed, pass_index)`` and nothing else, so
every pass of a run gets fresh inputs of the same size: an in-process
memo can never turn a later pass into cache hits, and the work per pass
does not move with the seed.  The seed only changes values (densities,
ring rotation, type means, head counts, loads), never the sizes that set
the cost (grid, number of heights, T, M, the largest mean, instance
counts).

This module uses the standard library only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0

WORKLOADS = ("height_sweep", "solve_scale", "load_sweep", "oracle_audit")

# The coverage_height_sweep preset, byte for byte.  The default seed's
# first pass runs exactly this text.
HEIGHT_SWEEP_PRESET = """\
geometry:
  terrain:
    a: 11.95
    b: 0.136
    eta_los: 2.0
    eta_nlos: 20.0
  radio:
    frequency: 3.0e+9
    p_mbs_watts: 10.0
    p_uav_watts: 0.05
    noise_dbm: -120.0
  placement:
    height: 400.0
    uav_ring:
      count: 10
      radius: 1000.0
  densities_per_km2: [10.0, 11.11111111111111, 12.222222222222221, 13.333333333333334, 14.444444444444445, 15.555555555555555, 16.666666666666668, 17.77777777777778, 18.88888888888889, 20.0]
  grid:
    extent: 3000.0
    cell_size: 10.0
mbs:
  total_channels: 200
  load: 150.0
sweep:
  parameter: height
  start: 200.0
  stop: 1000.0
  step: 25.0
output:
  directory: results/coverage_height_sweep
"""

HEIGHT_UAVS = 10
HEIGHT_RADIUS = 1000.0
HEIGHT_VALUES = tuple(200.0 + 25.0 * k for k in range(33))

# solve_scale instances: (T, M, largest mean, load / M).  The largest
# mean fixes the saturation cap K, so T, K and M (the DP size) are the
# same on every seed.  Loads 900 and 1500 take the log-space Poisson
# branch (means above 700) that no preset reaches.
SOLVE_SHAPES = (
    (10, 200, 10.0, 0.3),
    (100, 500, 10.0, 0.5),
    (50, 1000, 10.0, 0.6),
    (10, 500, 100.0, 0.8),
    (20, 1000, 100.0, 0.9),
    (100, 2000, 10.0, 0.75),
)

# load_sweep: one ladder, solved again at every load of the ladder.
LOAD_SWEEP_SHAPE = (20, 500, 30.0)
LOAD_SWEEP_POINTS = 30
LOAD_SWEEP_STEP = 15.0

ORACLE_INSTANCES = 5000
# The oracle-check command's own default seed; used by the default seed.
ORACLE_DEFAULT_SEED = 20260817


@dataclass(frozen=True)
class Op:
    """One runner call and what the output checks need to know about it.

    ``kind`` is ``solve``, ``sweep`` or ``oracle``.  ``config`` is the
    scenario YAML for solve and sweep; ``instances`` and ``seed`` are
    the oracle's arguments.  ``meta`` holds the sizes the checks use.
    """

    kind: str
    config: str | None = None
    instances: int = 0
    seed: int = 0
    meta: dict = field(default_factory=dict)


def _num(value: float) -> str:
    # Fixed-point keeps a decimal point, which YAML needs to read a float.
    return f"{value:.6f}"


def _num_list(values) -> str:
    return "[" + ", ".join(_num(v) for v in values) + "]"


def _ladder(rng: random.Random, size: int, top: float):
    """Strictly ascending means in [top/20, top] ending at top; counts 1..3."""
    while True:
        means = sorted(round(rng.uniform(0.05 * top, top), 6) for _ in range(size - 1))
        means.append(top)
        if all(b - a >= 1e-3 for a, b in zip(means, means[1:])):
            break
    counts = [rng.randint(1, 3) for _ in means]
    return means, counts


def _ladder_yaml(means, counts, total: int, load: float) -> str:
    return (
        "ladder:\n"
        f"  lambdas: {_num_list(means)}\n"
        f"  counts: [{', '.join(str(c) for c in counts)}]\n"
        "mbs:\n"
        f"  total_channels: {total}\n"
        f"  load: {_num(load)}\n"
    )


def _height_sweep(rng: random.Random, default: bool) -> list[Op]:
    meta = {"values": len(HEIGHT_VALUES), "uavs": HEIGHT_UAVS, "window_m2": 6000.0**2}
    if default:
        return [Op("sweep", HEIGHT_SWEEP_PRESET, meta=meta)]
    turn = rng.uniform(0.0, 2.0 * math.pi / HEIGHT_UAVS)
    positions = []
    for k in range(HEIGHT_UAVS):
        angle = turn + 2.0 * math.pi * k / HEIGHT_UAVS
        positions.append(
            f"[{_num(HEIGHT_RADIUS * math.cos(angle))}, "
            f"{_num(HEIGHT_RADIUS * math.sin(angle))}]"
        )
    densities = [rng.uniform(10.0, 20.0) for _ in range(HEIGHT_UAVS)]
    text = HEIGHT_SWEEP_PRESET.replace(
        "    uav_ring:\n      count: 10\n      radius: 1000.0\n",
        f"    uav_positions: [{', '.join(positions)}]\n",
    )
    head, _, tail = text.partition("  densities_per_km2: ")
    text = head + f"  densities_per_km2: {_num_list(densities)}\n" + tail.partition("\n")[2]
    return [Op("sweep", text, meta=meta)]


def _solve_scale(rng: random.Random) -> list[Op]:
    ops = []
    for size, total, top, ratio in SOLVE_SHAPES:
        means, counts = _ladder(rng, size, top)
        load = ratio * total * rng.uniform(0.98, 1.02)
        ops.append(
            Op(
                "solve",
                _ladder_yaml(means, counts, total, load),
                meta={"types": size, "channels": total, "counts": counts},
            )
        )
    return ops


def _load_sweep(rng: random.Random) -> list[Op]:
    size, total, top = LOAD_SWEEP_SHAPE
    means, counts = _ladder(rng, size, top)
    start = LOAD_SWEEP_STEP * rng.uniform(0.98, 1.02)
    loads = [start + LOAD_SWEEP_STEP * k for k in range(LOAD_SWEEP_POINTS)]
    text = _ladder_yaml(means, counts, total, loads[len(loads) // 2]) + (
        f"sweep:\n  parameter: load\n  values: {_num_list(loads)}\n"
    )
    return [Op("sweep", text, meta={"values": len(loads), "load": True})]


def _oracle_audit(rng: random.Random, default: bool) -> list[Op]:
    seed = ORACLE_DEFAULT_SEED if default else rng.randrange(10**9)
    return [Op("oracle", instances=ORACLE_INSTANCES, seed=seed)]


def pass_ops(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The operations of one pass; same arguments, same operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; options: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    default = seed == DEFAULT_SEED and pass_index == 0
    if workload == "height_sweep":
        return _height_sweep(rng, default)
    if workload == "solve_scale":
        return _solve_scale(rng)
    if workload == "load_sweep":
        return _load_sweep(rng)
    return _oracle_audit(rng, default)


def warmup_seed(seed: int) -> int:
    """A seed other than ``seed`` for the warm-up pass.

    Runs on any other seed warm up on the default seed, so every run
    also replays the inputs whose digests are recorded.
    """
    return DEFAULT_SEED + 1 if seed == DEFAULT_SEED else DEFAULT_SEED
