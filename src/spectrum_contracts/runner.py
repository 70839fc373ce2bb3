"""Experiment orchestration: solve, sweep, and oracle-check runs.

Every run emits CSV tables through :class:`ResultTable`, which carries
three metadata comment lines (configuration hash, tool version,
timestamp).  Output bytes are deterministic for a fixed scenario:
repeated runs differ only in the timestamp line, regardless of the
thread count used for sweeps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import ConfigError, GeometryScenario, ScenarioConfig, config_hash
from .contract import Contract, MbsLoad, TypeLadder
from .geometry import (
    DerivedTypes,
    Placement,
    RegionGrid,
    derive_types,
    partition_regions,
)
from .solver import (
    CORRUPT_TIE_BREAK,
    DEFAULT_BRUTE_FORCE_CAP,
    Objective,
    SolverResult,
    brute_force_solve,
    solve,
    solve_loads,
)

DEFAULT_ORACLE_INSTANCES = 200
DEFAULT_ORACLE_SEED = 20260817

_OBJECTIVE_STEM = {
    Objective.MBS_REVENUE: "mbs",
    Objective.SOCIAL_WELFARE: "social",
}


@dataclass(frozen=True)
class ResultTable:
    """Rectangular named columns plus header metadata."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row of width {len(row)} in a table with "
                    f"{len(self.columns)} columns"
                )

    def to_csv_text(self) -> str:
        buffer = io.StringIO()
        for key, value in self.metadata:
            buffer.write(f"# {key}: {value}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_format_cell(v) for v in row])
        return buffer.getvalue()


@dataclass(frozen=True)
class RunReport:
    """What a command produced: stdout lines and written files."""

    lines: tuple[str, ...]
    files: tuple[str, ...]


@dataclass(frozen=True)
class OracleFailure:
    index: int
    seed: int
    objective: Objective
    reason: str


@dataclass(frozen=True)
class OracleReport:
    failures: tuple[OracleFailure, ...]
    lines: tuple[str, ...]
    files: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _metadata(hash_value: str) -> tuple[tuple[str, str], ...]:
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return (
        ("config_hash", hash_value),
        ("tool_version", __version__),
        ("timestamp", stamp),
    )


def strip_timestamp(csv_text: str) -> str:
    """Drop the timestamp metadata line, for byte comparisons."""
    return "".join(
        line
        for line in csv_text.splitlines(keepends=True)
        if not line.startswith("# timestamp:")
    )


def _write(out_dir: Path, name: str, table: ResultTable) -> str:
    path = out_dir / name
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(table.to_csv_text())
    return str(path)


def _types_at(
    geo: GeometryScenario, height: float
) -> tuple[RegionGrid, DerivedTypes]:
    """Partition the window with the relays at ``height`` and derive types."""
    placement = Placement(uav_positions=geo.uav_positions, height=height)
    grid = partition_regions(
        placement, geo.terrain, geo.radio, geo.extent, geo.cell_size
    )
    return grid, derive_types(grid, geo.density)


def _resolve_ladder(config: ScenarioConfig) -> TypeLadder:
    """Explicit ladder, or the one the geometry block induces.

    Warns once for each UAV that owns no cells and is left out.
    """
    if config.ladder is not None:
        return config.ladder
    _, derived = _types_at(config.geometry, config.geometry.height)
    for n in derived.excluded_uavs:
        warnings.warn(
            f"UAV {n} owns no cells at this geometry and is excluded", stacklevel=3
        )
    if not derived.lambdas:
        raise ConfigError(
            "geometry: no UAV owns any cells at this height; "
            "there are no types to contract with"
        )
    return derived.ladder()


def _prices_total(ladder: TypeLadder, contract: Contract) -> float:
    return float(
        sum(c * p for c, p in zip(ladder.counts, contract.prices.p))
    )


def _objective_cells(ladder: TypeLadder, result: SolverResult) -> tuple:
    return (
        result.sold,
        _prices_total(ladder, result.contract),
        result.revenue,
        result.welfare,
    )


def _zero_cells() -> tuple:
    return (0, 0.0, 0.0, 0.0)


def run_solve(
    config: ScenarioConfig,
    *,
    out_dir: str | None = None,
    threads: int = 1,
) -> RunReport:
    """Solve the configured scenario and write contract/trace/summary CSVs."""
    del threads  # a single solve has nothing worth parallelizing
    ladder = _resolve_ladder(config)
    digest = config_hash(config)
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = []
    files = []
    summary_rows = []
    results = solve(ladder, config.mbs, config.objectives, use_k_cap=config.use_k_cap)
    for objective, result in zip(config.objectives, results):
        stem = _OBJECTIVE_STEM[objective]
        contract = result.contract
        contract_table = ResultTable(
            columns=("t", "lambda_t", "count", "w_t", "p_t", "surplus"),
            rows=tuple(
                zip(
                    range(1, ladder.size + 1),
                    ladder.lambdas,
                    ladder.counts,
                    contract.assignment.w,
                    contract.prices.p,
                    result.surpluses,
                )
            ),
            metadata=_metadata(digest),
        )
        trace_table = ResultTable(
            columns=("capacity", "inner_value", "objective_value"),
            rows=tuple(
                (w, inner, net)
                for w, (inner, net) in enumerate(
                    zip(result.inner_values, result.objective_values)
                )
            ),
            metadata=_metadata(digest),
        )
        files.append(_write(out, f"contract_{stem}.csv", contract_table))
        files.append(_write(out, f"trace_{stem}.csv", trace_table))
        cells = _objective_cells(ladder, result)
        summary_rows.append((objective.value,) + cells)
        lines.append(
            f"objective={objective.value} sold={cells[0]} "
            f"prices_total={_format_cell(cells[1])} "
            f"revenue={_format_cell(cells[2])} welfare={_format_cell(cells[3])}"
        )
    summary_table = ResultTable(
        columns=("objective", "sold", "prices_total", "revenue", "welfare"),
        rows=tuple(summary_rows),
        metadata=_metadata(digest),
    )
    files.append(_write(out, "summary.csv", summary_table))
    return RunReport(lines=tuple(lines), files=tuple(files))


def _sweep_columns(config: ScenarioConfig, leading: tuple[str, ...]) -> tuple[str, ...]:
    columns = list(leading)
    for objective in config.objectives:
        stem = _OBJECTIVE_STEM[objective]
        columns += [
            f"{stem}_sold",
            f"{stem}_prices_total",
            f"{stem}_revenue",
            f"{stem}_welfare",
        ]
    return tuple(columns)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one, else the machine's CPU count (1 when that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(
    config: ScenarioConfig,
    *,
    out_dir: str | None = None,
    threads: int = 1,
) -> RunReport:
    """Solve the scenario once per sweep value and write one CSV table.

    A load sweep solves every load and objective in one solver call, in
    this thread.  A height sweep re-partitions and solves at every height,
    on up to ``threads`` threads (never more than there are heights or
    CPUs this process may use).
    Relays that own no cells at a height are counted in ``n_excluded``
    and raise no warning.
    """
    if config.sweep is None:
        raise ConfigError("sweep: this command needs a sweep section")
    digest = config_hash(config)
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    values = config.sweep.values
    if config.sweep.parameter == "load":
        ladder = _resolve_ladder(config)
        total = config.mbs.total_channels
        # Objective by objective, each in load order: a load's cells
        # are every len(values)-th entry from its index on.
        cells = [
            _objective_cells(ladder, result)
            for result in solve_loads(
                ladder, total, values, config.objectives, use_k_cap=config.use_k_cap
            )
        ]
        rows = tuple(
            sum(cells[j :: len(values)], (value,)) for j, value in enumerate(values)
        )
        columns = _sweep_columns(config, ("load",))
    else:
        geo = config.geometry

        def point(value: float) -> tuple:
            grid, derived = _types_at(geo, value)
            cells: tuple = (
                value,
                float(sum(grid.areas)),
                len(derived.lambdas),
                len(derived.excluded_uavs),
            )
            if derived.lambdas:
                ladder = derived.ladder()
                for result in solve(
                    ladder, config.mbs, config.objectives, use_k_cap=config.use_k_cap
                ):
                    cells += _objective_cells(ladder, result)
            else:
                for _ in config.objectives:
                    cells += _zero_cells()
            return cells

        columns = _sweep_columns(
            config, ("height", "total_area_m2", "n_types", "n_excluded")
        )
        workers = min(threads, len(values), _usable_cpus())
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = tuple(pool.map(point, values))
        else:
            rows = tuple(point(v) for v in values)

    table = ResultTable(columns=columns, rows=rows, metadata=_metadata(digest))
    files = (_write(out, "sweep.csv", table),)
    lines = (
        f"swept {config.sweep.parameter} over {len(values)} values; "
        f"wrote {files[0]}",
    )
    return RunReport(lines=lines, files=files)


def sample_instance(rng: np.random.Generator) -> tuple[TypeLadder, MbsLoad]:
    """Small random instance inside the exhaustive oracle's reach.

    At most three types with means in (0.5, 5], head counts up to three,
    at most twelve channels, base-station load in [1, 10].
    """
    size = int(rng.integers(1, 4))
    while True:
        lambdas = np.sort(rng.uniform(0.5, 5.0, size=size))
        if size == 1 or bool(np.all(np.diff(lambdas) > 1e-6)):
            break
    counts = tuple(int(c) for c in rng.integers(1, 4, size=size))
    ladder = TypeLadder(tuple(float(v) for v in lambdas), counts)
    mbs = MbsLoad(int(rng.integers(1, 13)), float(rng.uniform(1.0, 10.0)))
    return ladder, mbs


def run_oracle_check(
    *,
    instances: int = DEFAULT_ORACLE_INSTANCES,
    seed: int = DEFAULT_ORACLE_SEED,
    cap: int = DEFAULT_BRUTE_FORCE_CAP,
    corrupt_tiebreak: bool = False,
    out_dir: str | None = None,
) -> OracleReport:
    """Compare the solver against exhaustive search on random instances.

    Instance ``i`` is generated from seed ``seed + i``, so a failure
    report names the exact seed to replay.  ``corrupt_tiebreak`` runs the
    exhaustive side with a deliberately sloppy tie rule as a negative
    control; a healthy build must then report mismatches.
    """
    if instances < 0:
        raise ConfigError(f"instances must be >= 0, got {instances}")
    lines = []
    rows = []
    failures = []
    bf_tie = CORRUPT_TIE_BREAK if corrupt_tiebreak else None
    for index in range(instances):
        instance_seed = seed + index
        rng = np.random.default_rng(instance_seed)
        ladder, mbs = sample_instance(rng)
        for objective, dp in zip(Objective, solve(ladder, mbs, Objective)):
            bf = brute_force_solve(ladder, mbs, objective, cap=cap, tie=bf_tie)
            dp_value = dp.revenue if objective is Objective.MBS_REVENUE else dp.welfare
            bf_value = bf.revenue if objective is Objective.MBS_REVENUE else bf.welfare
            reasons = []
            if abs(dp_value - bf_value) > 1e-9:
                reasons.append(
                    f"objective value {dp_value!r} vs {bf_value!r}"
                )
            dp_w = dp.contract.assignment.w
            bf_w = bf.contract.assignment.w
            if dp_w != bf_w:
                first = next(
                    t for t, (a, b) in enumerate(zip(dp_w, bf_w)) if a != b
                )
                reasons.append(
                    f"assignment {dp_w} vs {bf_w}, first differing at "
                    f"type {first + 1} of {len(dp_w)}"
                )
            matched = not reasons
            rows.append(
                (
                    index,
                    instance_seed,
                    objective.value,
                    dp_value,
                    bf_value,
                    int(matched),
                )
            )
            if not matched:
                failures.append(
                    OracleFailure(
                        index=index,
                        seed=instance_seed,
                        objective=objective,
                        reason="; ".join(reasons),
                    )
                )
    if instances == 0:
        lines.append(
            "warning: oracle check ran zero instances; vacuously passing"
        )
    elif not failures:
        lines.append(
            f"oracle check: {instances} instances "
            f"(seeds {seed}..{seed + instances - 1}): all matched"
        )
    else:
        for failure in failures:
            lines.append(
                f"oracle mismatch at instance {failure.index} "
                f"(seed {failure.seed}, {failure.objective.value}): "
                f"{failure.reason}"
            )
        lines.append(
            f"oracle check: {len(failures)} mismatches in {instances} instances"
        )

    files = []
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        run_digest = hashlib.sha256(
            f"instances={instances},seed={seed},cap={cap},"
            f"corrupt={corrupt_tiebreak}".encode("utf-8")
        ).hexdigest()
        table = ResultTable(
            columns=("instance", "seed", "objective", "dp_value", "bf_value", "matched"),
            rows=tuple(rows),
            metadata=_metadata(run_digest),
        )
        files.append(_write(out, "oracle_report.csv", table))
    return OracleReport(
        failures=tuple(failures),
        lines=tuple(lines),
        files=tuple(files),
    )
