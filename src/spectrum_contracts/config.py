"""Scenario configuration: YAML schema, validation, canonical form.

A scenario file describes either an explicit ladder of operator types or
a physical geometry from which the ladder is derived, plus the base
station block and optional solver, sweep, and output sections.  Exactly
one of ``ladder`` / ``geometry`` must be present.  Validation errors
carry the dotted path of the offending key and, when the value came
from a file, its line number.

The canonical form produced by :func:`canonical_dump` materializes all
defaults, converts powers to dBm and densities to per square meter, and
expands ring placements into explicit positions, so re-parsing a dump
yields an equal :class:`ScenarioConfig`.  The configuration hash used in
result metadata is the SHA-256 of that canonical text.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import yaml

from .contract import MbsLoad, TypeLadder
from .geometry import DensityMap, RadioParams, TerrainParams
from .solver import Objective


class ConfigError(ValueError):
    """A scenario file failed validation."""


DEFAULT_TERRAIN = TerrainParams(a=11.95, b=0.136, eta_los=2.0, eta_nlos=20.0)
DEFAULT_FREQUENCY = 3.0e9
DEFAULT_P_MBS_WATTS = 10.0
DEFAULT_P_UAV_WATTS = 0.05
# The noise floor is a free parameter: it cancels out of every SNR
# comparison the partition makes, so only the documentation value below
# matters.  It is not part of any published parameter set.
DEFAULT_NOISE_DBM = -120.0
DEFAULT_EXTENT = 3000.0
DEFAULT_CELL_SIZE = 5.0

SWEEP_PARAMETERS = ("load", "height")
# A range form needs no more text for a billion values than for ten; the
# largest sweep in use has 33.
MAX_SWEEP_POINTS = 100_000


def watts_to_dbm(watts: float) -> float:
    """Convert a power in watts to dBm."""
    if not (math.isfinite(watts) and watts > 0.0):
        raise ValueError(f"power in watts must be positive, got {watts}")
    return 10.0 * math.log10(watts * 1000.0)


@dataclass(frozen=True)
class GeometryScenario:
    """Physical deployment from which a type ladder is derived."""

    terrain: TerrainParams
    radio: RadioParams
    uav_positions: tuple[tuple[float, float], ...]
    height: float
    density: DensityMap
    extent: float
    cell_size: float


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter and its strictly ascending values."""

    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario ready to run."""

    ladder: TypeLadder | None
    geometry: GeometryScenario | None
    mbs: MbsLoad
    objectives: tuple[Objective, ...]
    use_k_cap: bool
    sweep: SweepSpec | None
    output_dir: str


class _Context:
    """Carries source marks so errors can name file lines."""

    def __init__(self, marks: dict[str, int] | None):
        self.marks = marks or {}

    def fail(self, path: str, message: str) -> None:
        where = path or "config"
        # A path below a shared alias has no mark of its own; it takes the
        # line of its longest marked prefix.
        marked = path
        while marked and marked not in self.marks:
            marked = marked[: max(marked.rfind("."), marked.rfind("["), 0)]
        if marked in self.marks:
            where = f"{where} (line {self.marks[marked]})"
        raise ConfigError(f"{where}: {message}")


def _collect_marks(node, path: str, marks: dict[str, int], inside: dict[int, bool]) -> None:
    """Record the line of each key path, visiting every node once.

    ``inside`` maps the id of each visited node to whether the walk is
    still below it.  Aliases make one node reachable by many paths, so a
    path that reaches a visited node records only that node's line.
    """
    if inside.get(id(node)):
        # An alias that re-enters a node on its own path: ``a: &x [*x]``.
        raise ConfigError(
            f"invalid YAML: line {node.start_mark.line + 1}: "
            f"recursive alias at {path}: it refers to a node that contains it"
        )
    marks.setdefault(path, node.start_mark.line + 1)
    if id(node) in inside:
        return
    inside[id(node)] = True
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            key = str(key_node.value)
            child = f"{path}.{key}" if path else key
            _collect_marks(value_node, child, marks, inside)
    elif isinstance(node, yaml.SequenceNode):
        for index, item in enumerate(node.value):
            _collect_marks(item, f"{path}[{index}]", marks, inside)
    inside[id(node)] = False


def _as_map(ctx: _Context, value, path: str, allowed: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        ctx.fail(path, f"expected a mapping, got {type(value).__name__}")
    for key in value:
        if key not in allowed:
            ctx.fail(
                f"{path}.{key}" if path else str(key),
                f"unknown key; allowed here: {', '.join(allowed)}",
            )
    return value


def _number(ctx: _Context, value, path: str) -> float:
    if isinstance(value, str):
        # YAML 1.1 reads "3.0e9" as a string because the exponent lacks
        # a sign; accept such strings rather than punishing the typo.
        try:
            value = float(value)
        except ValueError:
            ctx.fail(path, f"expected a number, got the string {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        ctx.fail(path, f"expected a number, got {type(value).__name__}")
    result = float(value)
    if not math.isfinite(result):
        ctx.fail(path, "must be finite")
    return result


def _in_range(ctx, value, path, lo, hi, *, lo_open=False) -> float:
    result = _number(ctx, value, path)
    if result < lo or result > hi or (lo_open and result == lo):
        bound = f"({lo}, {hi}]" if lo_open else f"[{lo}, {hi}]"
        ctx.fail(path, f"must lie in {bound}, got {result}")
    return result


def _integer(ctx: _Context, value, path: str, lo: int, hi: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        ctx.fail(path, f"expected an integer, got {type(value).__name__}")
    if value < lo or value > hi:
        ctx.fail(path, f"must lie in [{lo}, {hi}], got {value}")
    return value


def _number_list(ctx: _Context, value, path: str) -> list:
    if not isinstance(value, list) or not value:
        ctx.fail(path, "expected a non-empty list")
    return value


def _parse_ladder(ctx: _Context, data, path: str) -> TypeLadder:
    block = _as_map(ctx, data, path, ("lambdas", "counts"))
    if "lambdas" not in block:
        ctx.fail(path, "missing required key 'lambdas'")
    raw = _number_list(ctx, block["lambdas"], f"{path}.lambdas")
    lambdas = [
        _in_range(ctx, v, f"{path}.lambdas[{i}]", 0.0, 1e6, lo_open=True)
        for i, v in enumerate(raw)
    ]
    counts = [1] * len(lambdas)
    if "counts" in block:
        raw_counts = _number_list(ctx, block["counts"], f"{path}.counts")
        if len(raw_counts) != len(lambdas):
            ctx.fail(
                f"{path}.counts",
                f"{len(raw_counts)} counts for {len(lambdas)} types",
            )
        counts = [
            _integer(ctx, c, f"{path}.counts[{i}]", 1, 1_000_000)
            for i, c in enumerate(raw_counts)
        ]
    for prev, cur in zip(lambdas, lambdas[1:]):
        if cur <= prev:
            ctx.fail(
                f"{path}.lambdas",
                "type means must be strictly ascending; merge duplicates "
                "by summing counts",
            )
    return TypeLadder(tuple(lambdas), tuple(counts))


def _parse_terrain(ctx: _Context, data, path: str) -> TerrainParams:
    block = _as_map(ctx, data, path, ("a", "b", "eta_los", "eta_nlos"))
    a = _in_range(ctx, block.get("a", DEFAULT_TERRAIN.a), f"{path}.a", 0.0, 1e3, lo_open=True)
    b = _in_range(ctx, block.get("b", DEFAULT_TERRAIN.b), f"{path}.b", 0.0, 1e2, lo_open=True)
    eta_los = _in_range(
        ctx, block.get("eta_los", DEFAULT_TERRAIN.eta_los), f"{path}.eta_los", 0.0, 1e3
    )
    eta_nlos = _in_range(
        ctx, block.get("eta_nlos", DEFAULT_TERRAIN.eta_nlos), f"{path}.eta_nlos", 0.0, 1e3
    )
    if eta_nlos <= eta_los:
        ctx.fail(f"{path}.eta_nlos", f"must exceed eta_los={eta_los}, got {eta_nlos}")
    return TerrainParams(a=a, b=b, eta_los=eta_los, eta_nlos=eta_nlos)


def _parse_power(ctx: _Context, block: dict, path: str, stem: str, default_watts: float) -> float:
    """Read a transmit power given as either watts or dBm."""
    watts_key, dbm_key = f"{stem}_watts", f"{stem}_dbm"
    if watts_key in block and dbm_key in block:
        ctx.fail(f"{path}.{dbm_key}", f"give {watts_key} or {dbm_key}, not both")
    lo, hi = -100.0, 200.0
    if dbm_key in block:
        return _in_range(ctx, block[dbm_key], f"{path}.{dbm_key}", lo, hi)
    if watts_key in block:
        where = f"{path}.{watts_key}"
        watts = _in_range(ctx, block[watts_key], where, 0.0, 1e9, lo_open=True)
        dbm = watts_to_dbm(watts)
        # The canonical form stores dBm, so it must read back.
        if not lo <= dbm <= hi:
            ctx.fail(where, f"is {dbm} dBm, outside [{lo}, {hi}] dBm")
        return dbm
    return watts_to_dbm(default_watts)


def _parse_radio(ctx: _Context, data, path: str) -> RadioParams:
    block = _as_map(
        ctx,
        data,
        path,
        (
            "frequency",
            "p_mbs_watts",
            "p_mbs_dbm",
            "p_uav_watts",
            "p_uav_dbm",
            "noise_dbm",
            "channel_bandwidth",
        ),
    )
    frequency = _in_range(
        ctx, block.get("frequency", DEFAULT_FREQUENCY), f"{path}.frequency", 1e6, 1e13
    )
    p_mbs = _parse_power(ctx, block, path, "p_mbs", DEFAULT_P_MBS_WATTS)
    p_uav = _parse_power(ctx, block, path, "p_uav", DEFAULT_P_UAV_WATTS)
    noise = _in_range(
        ctx, block.get("noise_dbm", DEFAULT_NOISE_DBM), f"{path}.noise_dbm", -300.0, 100.0
    )
    bandwidth = block.get("channel_bandwidth")
    if bandwidth is not None:
        bandwidth = _in_range(ctx, bandwidth, f"{path}.channel_bandwidth", 1.0, 1e12)
    return RadioParams(
        frequency=frequency,
        p_mbs=p_mbs,
        p_uav=p_uav,
        noise=noise,
        channel_bandwidth=bandwidth,
    )


def _ring_positions(count: int, radius: float) -> tuple[tuple[float, float], ...]:
    """Evenly spaced positions on a circle, first one on the +x axis."""
    return tuple(
        (
            radius * math.cos(2.0 * math.pi * k / count),
            radius * math.sin(2.0 * math.pi * k / count),
        )
        for k in range(count)
    )


def _parse_placement(
    ctx: _Context, data, path: str, extent: float
) -> tuple[tuple[tuple[float, float], ...], float]:
    block = _as_map(ctx, data, path, ("height", "uav_ring", "uav_positions"))
    if "height" not in block:
        ctx.fail(path, "missing required key 'height'")
    height = _in_range(ctx, block["height"], f"{path}.height", 0.0, 1e5, lo_open=True)
    has_ring = "uav_ring" in block
    has_positions = "uav_positions" in block
    if has_ring == has_positions:
        ctx.fail(path, "give exactly one of 'uav_ring' / 'uav_positions'")
    if has_ring:
        ring = _as_map(ctx, block["uav_ring"], f"{path}.uav_ring", ("count", "radius"))
        if "count" not in ring or "radius" not in ring:
            ctx.fail(f"{path}.uav_ring", "needs both 'count' and 'radius'")
        count = _integer(ctx, ring["count"], f"{path}.uav_ring.count", 1, 1000)
        radius = _in_range(
            ctx, ring["radius"], f"{path}.uav_ring.radius", 0.0, extent, lo_open=True
        )
        positions = _ring_positions(count, radius)
        where = f"{path}.uav_ring"
    else:
        raw = _number_list(ctx, block["uav_positions"], f"{path}.uav_positions")
        positions = []
        for index, item in enumerate(raw):
            item_path = f"{path}.uav_positions[{index}]"
            if not isinstance(item, list) or len(item) != 2:
                ctx.fail(item_path, "expected a pair [x, y]")
            x = _in_range(ctx, item[0], f"{item_path}[0]", -extent, extent)
            y = _in_range(ctx, item[1], f"{item_path}[1]", -extent, extent)
            positions.append((x, y))
        where = f"{path}.uav_positions"
    # A tiny ring can round positions together; the canonical form lists
    # them, so they must be distinct either way.
    if len(set(positions)) != len(positions):
        ctx.fail(where, "positions must be distinct")
    return tuple(positions), height


def _parse_densities(ctx: _Context, block: dict, path: str, n_uavs: int) -> DensityMap:
    per_km2 = "densities_per_km2" in block
    per_m2 = "densities_per_m2" in block
    if per_km2 == per_m2:
        ctx.fail(path, "give exactly one of 'densities_per_km2' / 'densities_per_m2'")
    key = "densities_per_km2" if per_km2 else "densities_per_m2"
    raw = block[key]
    hi = 1e9 if per_km2 else 1e3
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        value = _in_range(ctx, raw, f"{path}.{key}", 0.0, hi, lo_open=True)
        values = [value] * n_uavs
    else:
        listed = _number_list(ctx, raw, f"{path}.{key}")
        if len(listed) != n_uavs:
            ctx.fail(f"{path}.{key}", f"{len(listed)} densities for {n_uavs} UAVs")
        values = [
            _in_range(ctx, v, f"{path}.{key}[{i}]", 0.0, hi, lo_open=True)
            for i, v in enumerate(listed)
        ]
    if per_km2:
        values = [v * 1e-6 for v in values]
        if 0.0 in values:
            ctx.fail(f"{path}.{key}", "a density underflows to 0 per square meter")
    return DensityMap(tuple(values))


def _parse_geometry(ctx: _Context, data, path: str) -> GeometryScenario:
    block = _as_map(
        ctx,
        data,
        path,
        ("terrain", "radio", "placement", "densities_per_km2", "densities_per_m2", "grid"),
    )
    grid = _as_map(ctx, block.get("grid", {}), f"{path}.grid", ("extent", "cell_size"))
    extent = _in_range(
        ctx, grid.get("extent", DEFAULT_EXTENT), f"{path}.grid.extent", 10.0, 1e6
    )
    cell_size = _in_range(
        ctx,
        grid.get("cell_size", DEFAULT_CELL_SIZE),
        f"{path}.grid.cell_size",
        0.0,
        extent / 2.0,
        lo_open=True,
    )
    terrain = _parse_terrain(ctx, block.get("terrain", {}), f"{path}.terrain")
    radio = _parse_radio(ctx, block.get("radio", {}), f"{path}.radio")
    if "placement" not in block:
        ctx.fail(path, "missing required key 'placement'")
    positions, height = _parse_placement(ctx, block["placement"], f"{path}.placement", extent)
    density = _parse_densities(ctx, block, path, len(positions))
    return GeometryScenario(
        terrain=terrain,
        radio=radio,
        uav_positions=positions,
        height=height,
        density=density,
        extent=extent,
        cell_size=cell_size,
    )


def _parse_mbs(ctx: _Context, data, path: str) -> MbsLoad:
    block = _as_map(ctx, data, path, ("total_channels", "load"))
    for key in ("total_channels", "load"):
        if key not in block:
            ctx.fail(path, f"missing required key '{key}'")
    total = _integer(ctx, block["total_channels"], f"{path}.total_channels", 1, 100_000)
    load = _in_range(ctx, block["load"], f"{path}.load", 0.0, 1e6, lo_open=True)
    return MbsLoad(total, load)


def _parse_objectives(ctx: _Context, value, path: str) -> tuple[Objective, ...]:
    names = _number_list(ctx, value, path)
    parsed = []
    for index, name in enumerate(names):
        try:
            parsed.append(Objective(name))
        except ValueError:
            options = ", ".join(o.value for o in Objective)
            ctx.fail(f"{path}[{index}]", f"unknown objective {name!r}; options: {options}")
    # Fixed emission order regardless of how the file lists them.
    ordered = tuple(o for o in Objective if o in parsed)
    return ordered


def _parse_sweep(ctx: _Context, data, path: str, has_geometry: bool) -> SweepSpec:
    block = _as_map(ctx, data, path, ("parameter", "values", "start", "stop", "step"))
    if "parameter" not in block:
        ctx.fail(path, "missing required key 'parameter'")
    parameter = block["parameter"]
    if parameter not in SWEEP_PARAMETERS:
        ctx.fail(
            f"{path}.parameter",
            f"unknown parameter {parameter!r}; options: {', '.join(SWEEP_PARAMETERS)}",
        )
    if parameter == "height" and not has_geometry:
        ctx.fail(f"{path}.parameter", "a height sweep needs a geometry block")
    has_values = "values" in block
    has_range = any(k in block for k in ("start", "stop", "step"))
    if has_values == has_range:
        ctx.fail(path, "give exactly one of 'values' / 'start'+'stop'+'step'")
    hi = 1e6 if parameter == "load" else 1e5
    if has_values:
        raw = _number_list(ctx, block["values"], f"{path}.values")
        values = [
            _in_range(ctx, v, f"{path}.values[{i}]", 0.0, hi, lo_open=True)
            for i, v in enumerate(raw)
        ]
    else:
        for key in ("start", "stop", "step"):
            if key not in block:
                ctx.fail(path, f"range form needs 'start', 'stop' and 'step'; missing '{key}'")
        start = _in_range(ctx, block["start"], f"{path}.start", 0.0, hi, lo_open=True)
        stop = _in_range(ctx, block["stop"], f"{path}.stop", 0.0, hi, lo_open=True)
        step = _number(ctx, block["step"], f"{path}.step")
        if step <= 0.0 or stop < start:
            ctx.fail(path, "range form needs step > 0 and stop >= start")
        steps = (stop - start) / step + 1e-9
        if steps >= MAX_SWEEP_POINTS:
            ctx.fail(path, f"range form gives more than {MAX_SWEEP_POINTS} values")
        values = [start + k * step for k in range(int(steps) + 1)]
        # The canonical form lists the values, so each must read back.
        if values[-1] > hi:
            ctx.fail(path, f"range form reaches {values[-1]}, past the limit {hi}")
    if any(b <= a for a, b in zip(values, values[1:])):
        ctx.fail(f"{path}.values", "sweep values must be strictly ascending")
    return SweepSpec(parameter=parameter, values=tuple(values))


def parse_config(data, marks: dict[str, int] | None = None) -> ScenarioConfig:
    """Validate a parsed mapping into a :class:`ScenarioConfig`."""
    ctx = _Context(marks)
    top = _as_map(
        ctx, data, "", ("ladder", "geometry", "mbs", "solver", "sweep", "output")
    )
    has_ladder = "ladder" in top
    has_geometry = "geometry" in top
    if has_ladder == has_geometry:
        ctx.fail("", "give exactly one of 'ladder' / 'geometry'")
    ladder = _parse_ladder(ctx, top["ladder"], "ladder") if has_ladder else None
    geometry = _parse_geometry(ctx, top["geometry"], "geometry") if has_geometry else None
    if "mbs" not in top:
        ctx.fail("", "missing required section 'mbs'")
    mbs = _parse_mbs(ctx, top["mbs"], "mbs")
    solver = _as_map(ctx, top.get("solver", {}), "solver", ("objectives", "use_k_cap"))
    objectives = tuple(Objective)
    if "objectives" in solver:
        objectives = _parse_objectives(ctx, solver["objectives"], "solver.objectives")
        if not objectives:
            ctx.fail("solver.objectives", "needs at least one objective")
    use_k_cap = solver.get("use_k_cap", True)
    if not isinstance(use_k_cap, bool):
        ctx.fail("solver.use_k_cap", f"expected a boolean, got {type(use_k_cap).__name__}")
    sweep = None
    if "sweep" in top:
        sweep = _parse_sweep(ctx, top["sweep"], "sweep", has_geometry)
    output = _as_map(ctx, top.get("output", {}), "output", ("directory",))
    output_dir = output.get("directory", "results")
    if not isinstance(output_dir, str) or not output_dir:
        ctx.fail("output.directory", "expected a non-empty string")
    return ScenarioConfig(
        ladder=ladder,
        geometry=geometry,
        mbs=mbs,
        objectives=objectives,
        use_k_cap=use_k_cap,
        sweep=sweep,
        output_dir=output_dir,
    )


def loads_config(text: str) -> ScenarioConfig:
    """Parse scenario YAML from a string.

    The text is composed into one node tree, which yields both the data
    (through the safe constructor) and the line marks of every key.
    """
    loader = yaml.SafeLoader(text)
    marks: dict[str, int] = {}
    try:
        node = loader.get_single_node()
        data = None
        if node is not None:
            # Marks first: constructing flattens merge keys in the node.
            _collect_marks(node, "", marks, {})
            data = loader.construct_document(node)
    except yaml.YAMLError as exc:
        detail = str(exc)
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            detail = f"line {mark.line + 1}: {getattr(exc, 'problem', detail)}"
        raise ConfigError(f"invalid YAML: {detail}") from exc
    finally:
        loader.dispose()
    if data is None:
        raise ConfigError("config: the file is empty")
    return parse_config(data, marks)


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads_config(text)


def canonical_dump(config: ScenarioConfig) -> str:
    """Normalized YAML for hashing and ``dump-config`` output."""
    top: dict = {}
    if config.ladder is not None:
        top["ladder"] = {
            "lambdas": list(config.ladder.lambdas),
            "counts": list(config.ladder.counts),
        }
    if config.geometry is not None:
        geo = config.geometry
        top["geometry"] = {
            "terrain": {
                "a": geo.terrain.a,
                "b": geo.terrain.b,
                "eta_los": geo.terrain.eta_los,
                "eta_nlos": geo.terrain.eta_nlos,
            },
            "radio": {
                "frequency": geo.radio.frequency,
                "p_mbs_dbm": geo.radio.p_mbs,
                "p_uav_dbm": geo.radio.p_uav,
                "noise_dbm": geo.radio.noise,
                "channel_bandwidth": geo.radio.channel_bandwidth,
            },
            "placement": {
                "height": geo.height,
                "uav_positions": [list(p) for p in geo.uav_positions],
            },
            "densities_per_m2": list(geo.density.rho),
            "grid": {"extent": geo.extent, "cell_size": geo.cell_size},
        }
    top["mbs"] = {
        "total_channels": config.mbs.total_channels,
        "load": config.mbs.load,
    }
    top["solver"] = {
        "objectives": [o.value for o in config.objectives],
        "use_k_cap": config.use_k_cap,
    }
    if config.sweep is not None:
        top["sweep"] = {
            "parameter": config.sweep.parameter,
            "values": list(config.sweep.values),
        }
    top["output"] = {"directory": config.output_dir}
    return yaml.safe_dump(top, sort_keys=True, default_flow_style=False)


def config_hash(config: ScenarioConfig) -> str:
    """SHA-256 of the canonical dump, hex encoded."""
    return hashlib.sha256(canonical_dump(config).encode("utf-8")).hexdigest()
