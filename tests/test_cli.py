"""Tests for scenario parsing, orchestration, and the CLI surface."""

import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from spectrum_contracts.cli import main
from spectrum_contracts.config import (
    ConfigError,
    canonical_dump,
    config_hash,
    load_config,
    loads_config,
    parse_config,
    watts_to_dbm,
)
from spectrum_contracts.contract import MbsLoad, TypeLadder
from spectrum_contracts.runner import (
    ResultTable,
    run_oracle_check,
    run_solve,
    run_sweep,
    sample_instance,
    strip_timestamp,
)
from spectrum_contracts import runner, solver
from spectrum_contracts.solver import Objective, solve

MINIMAL = """\
ladder:
  lambdas: [1.0, 2.0, 3.0]
mbs:
  total_channels: 10
  load: 4.0
"""

GEOMETRY = """\
geometry:
  placement:
    height: 400.0
    uav_ring:
      count: 4
      radius: 800.0
  densities_per_km2: 12.0
  grid:
    extent: 2000.0
    cell_size: 40.0
mbs:
  total_channels: 30
  load: 10.0
"""


class TestConfigParsing:
    def test_minimal_ladder_defaults(self):
        config = loads_config(MINIMAL)
        assert config.ladder == TypeLadder((1.0, 2.0, 3.0), (1, 1, 1))
        assert config.geometry is None
        assert config.mbs == MbsLoad(10, 4.0)
        assert config.objectives == (Objective.MBS_REVENUE, Objective.SOCIAL_WELFARE)
        assert config.use_k_cap is True
        assert config.sweep is None
        assert config.output_dir == "results"

    def test_geometry_defaults_mirror_the_reference_table(self):
        config = loads_config(GEOMETRY)
        geo = config.geometry
        assert geo.terrain.a == 11.95 and geo.terrain.b == 0.136
        assert geo.terrain.eta_los == 2.0 and geo.terrain.eta_nlos == 20.0
        assert geo.radio.frequency == 3.0e9
        assert geo.radio.p_mbs == pytest.approx(40.0)
        assert geo.radio.p_uav == pytest.approx(10.0 * math.log10(50.0))
        assert geo.radio.noise == -120.0
        assert len(geo.uav_positions) == 4
        assert geo.density.rho == (12.0e-6,) * 4

    def test_ring_positions_land_on_the_circle(self):
        config = loads_config(GEOMETRY)
        for x, y in config.geometry.uav_positions:
            assert math.hypot(x, y) == pytest.approx(800.0, abs=1e-9)

    def test_ladder_and_geometry_are_mutually_exclusive(self):
        both = MINIMAL + GEOMETRY
        with pytest.raises(ConfigError, match="exactly one of 'ladder' / 'geometry'"):
            loads_config(both)
        neither = "mbs: {total_channels: 5, load: 2.0}\n"
        with pytest.raises(ConfigError, match="exactly one of"):
            loads_config(neither)

    def test_missing_mbs_section(self):
        with pytest.raises(ConfigError, match="missing required section 'mbs'"):
            loads_config("ladder: {lambdas: [1.0]}\n")

    def test_unknown_key_is_named_with_its_line(self):
        text = MINIMAL + "typo_section: 1\n"
        with pytest.raises(ConfigError, match=r"typo_section \(line 6\): unknown key"):
            loads_config(text)

    def test_range_violation_reports_path_and_line(self):
        bad = MINIMAL.replace("load: 4.0", "load: -1.0")
        with pytest.raises(ConfigError, match=r"mbs.load \(line 5\): must lie in"):
            loads_config(bad)

    def test_empty_ladder_is_rejected(self):
        with pytest.raises(ConfigError, match="non-empty list"):
            loads_config("ladder: {lambdas: []}\nmbs: {total_channels: 5, load: 2.0}\n")

    def test_counts_must_match_lambdas(self):
        text = "ladder: {lambdas: [1.0, 2.0], counts: [1]}\nmbs: {total_channels: 5, load: 2.0}\n"
        with pytest.raises(ConfigError, match="1 counts for 2 types"):
            loads_config(text)

    def test_nonascending_lambdas_are_rejected(self):
        text = "ladder: {lambdas: [2.0, 1.0]}\nmbs: {total_channels: 5, load: 2.0}\n"
        with pytest.raises(ConfigError, match="strictly ascending"):
            loads_config(text)

    def test_power_units_are_exclusive(self):
        text = GEOMETRY.replace(
            "  placement:",
            "  radio: {p_mbs_watts: 10.0, p_mbs_dbm: 40.0}\n  placement:",
        )
        with pytest.raises(ConfigError, match="not both"):
            loads_config(text)

    def test_watt_conversion(self):
        assert watts_to_dbm(10.0) == pytest.approx(40.0, abs=1e-12)
        assert watts_to_dbm(0.05) == pytest.approx(16.989700043360187, abs=1e-12)
        assert watts_to_dbm(0.001) == pytest.approx(0.0, abs=1e-12)

    def test_density_length_must_match_ring(self):
        text = GEOMETRY.replace(
            "densities_per_km2: 12.0", "densities_per_km2: [12.0, 13.0]"
        )
        with pytest.raises(ConfigError, match="2 densities for 4 UAVs"):
            loads_config(text)

    def test_density_unit_forms_are_exclusive(self):
        text = GEOMETRY.replace(
            "densities_per_km2: 12.0",
            "densities_per_km2: 12.0\n  densities_per_m2: 1.2e-05",
        )
        with pytest.raises(ConfigError, match="exactly one of 'densities_per_km2'"):
            loads_config(text)

    def test_duplicate_positions_are_rejected(self):
        text = GEOMETRY.replace(
            "    uav_ring:\n      count: 4\n      radius: 800.0",
            "    uav_positions: [[100.0, 0.0], [100.0, 0.0]]",
        )
        with pytest.raises(ConfigError, match="distinct"):
            loads_config(text)

    def test_height_sweep_needs_geometry(self):
        text = MINIMAL + "sweep: {parameter: height, values: [100.0, 200.0]}\n"
        with pytest.raises(ConfigError, match="needs a geometry block"):
            loads_config(text)

    def test_sweep_values_must_ascend(self):
        text = MINIMAL + "sweep: {parameter: load, values: [5.0, 5.0]}\n"
        with pytest.raises(ConfigError, match="strictly ascending"):
            loads_config(text)

    def test_sweep_range_form_expands_inclusively(self):
        text = MINIMAL + "sweep: {parameter: load, start: 10.0, stop: 200.0, step: 10.0}\n"
        config = loads_config(text)
        assert len(config.sweep.values) == 20
        assert config.sweep.values[0] == 10.0
        assert config.sweep.values[-1] == 200.0

    def test_unsigned_exponent_string_is_coerced(self):
        text = GEOMETRY.replace(
            "  placement:", "  radio: {frequency: 3.0e9}\n  placement:"
        )
        assert loads_config(text).geometry.radio.frequency == 3.0e9

    def test_empty_file_is_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            loads_config("")

    def test_yaml_syntax_error_carries_a_line(self):
        with pytest.raises(ConfigError, match="invalid YAML: line 2"):
            loads_config("mbs:\n  - ]broken\n")

    def test_an_alias_used_outside_its_node_still_loads(self):
        text = MINIMAL.replace("[1.0, 2.0, 3.0]", "&v [1.0, 2.0, 3.0]")
        config = loads_config(text + "sweep: {parameter: load, values: *v}\n")
        assert config.sweep.values == config.ladder.lambdas

    def test_chained_aliases_load_in_linear_time(self):
        # Each link doubles the paths down to x0: 2**30 of them here.
        text = "x0: &x0 [1]\n" + "".join(
            f"x{i}: &x{i} [*x{i - 1}, *x{i - 1}]\n" for i in range(1, 31)
        )
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"^x0 \(line 1\): unknown key"):
            loads_config(text)
        assert time.perf_counter() - start < 1.0

    def test_an_error_below_a_shared_alias_names_the_anchored_node(self):
        # The second path through the node has no marks below it, so the
        # error takes the line of the longest marked prefix.
        text = """\
geometry:
  placement:
    height: 400.0
    uav_positions: [[100.0, 0.0], [-100.0, 0.0]]
  densities_per_km2: &d
    - 1.0e4
    - 2.0e5
mbs: {total_channels: 10, load: 4.0}
sweep:
  parameter: height
  values: *d
"""
        with pytest.raises(ConfigError, match=r"^sweep.values\[1\] \(line 5\): must lie in"):
            loads_config(text)

    def test_sweep_range_form_is_bounded(self):
        text = MINIMAL + "sweep: {parameter: load, start: 1.0, stop: %s, step: 1.0}\n"
        assert len(loads_config(text % "100000.0").sweep.values) == 100_000
        with pytest.raises(
            ConfigError, match=r"^sweep \(line 6\): range form gives more than 100000 values"
        ):
            loads_config(text % "100001.0")

    def test_python_tags_are_refused(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^invalid YAML: line 2:"):
            loads_config('mbs:\n  load: !!python/object/apply:os.system ["true"]\n')
        target = tmp_path / "made"
        with pytest.raises(ConfigError, match=r"^invalid YAML: line 2:"):
            loads_config(f"mbs:\n  load: !!python/object/apply:os.mkdir [{str(target)!r}]\n")
        assert not target.exists()

    def test_merged_keys_keep_the_line_of_the_explicit_key(self):
        # Constructing the data flattens "<<" into the mapping; the marks
        # must still come from the text as written.
        text = MINIMAL.replace(
            "mbs:\n", "mbs:\n  <<: {load: 2.0, total_channels: 10}\n"
        ).replace("load: 4.0", "load: -4.0")
        with pytest.raises(ConfigError, match=r"^mbs.load \(line 6\): must lie in"):
            loads_config(text)

    def test_parse_config_without_marks(self):
        data = {"ladder": {"lambdas": [1.5]}, "mbs": {"total_channels": 3, "load": 1.0}}
        config = parse_config(data)
        assert config.ladder.lambdas == (1.5,)


def _positive(hi):
    return st.floats(min_value=0.0, max_value=hi, exclude_min=True)


@st.composite
def _sweeps(draw, parameter):
    hi = 1e6 if parameter == "load" else 1e5
    if draw(st.booleans()):
        values = draw(st.lists(_positive(hi), min_size=1, max_size=5, unique=True))
        return {"parameter": parameter, "values": sorted(values)}
    start = draw(_positive(hi))
    stop = draw(st.one_of(st.just(hi), st.floats(min_value=start, max_value=hi)))
    if stop > start:
        # A few points, the step a hair either side of an even split.
        step = (stop - start) / draw(st.integers(min_value=1, max_value=8))
        step *= draw(st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12]))
    else:
        step = draw(_positive(hi))
    return {"parameter": parameter, "start": start, "stop": stop, "step": step}


@st.composite
def _geometries(draw):
    extent = draw(st.floats(min_value=10.0, max_value=1e6))
    geometry = {
        "grid": {
            "extent": extent,
            "cell_size": draw(
                st.floats(min_value=0.0, max_value=extent / 2.0, exclude_min=True)
            ),
        }
    }
    if draw(st.booleans()):
        eta_los = draw(st.floats(min_value=0.0, max_value=999.0))
        geometry["terrain"] = {
            "a": draw(_positive(1e3)),
            "b": draw(_positive(1e2)),
            "eta_los": eta_los,
            "eta_nlos": draw(
                st.floats(min_value=eta_los, max_value=1e3, exclude_min=True)
            ),
        }
    radio = {}
    for stem in ("p_mbs", "p_uav"):
        unit = draw(st.sampled_from(["watts", "dbm", None]))
        if unit == "watts":
            radio[f"{stem}_watts"] = draw(_positive(1e9))
        elif unit == "dbm":
            radio[f"{stem}_dbm"] = draw(st.floats(min_value=-100.0, max_value=200.0))
    if draw(st.booleans()):
        radio["frequency"] = draw(st.floats(min_value=1e6, max_value=1e13))
        radio["noise_dbm"] = draw(st.floats(min_value=-300.0, max_value=100.0))
    if draw(st.booleans()):
        radio["channel_bandwidth"] = draw(st.floats(min_value=1.0, max_value=1e12))
    geometry["radio"] = radio
    placement = {"height": draw(_positive(1e5))}
    if draw(st.booleans()):
        count = draw(st.integers(min_value=1, max_value=12))
        placement["uav_ring"] = {"count": count, "radius": draw(_positive(extent))}
    else:
        coordinate = st.floats(min_value=-extent, max_value=extent)
        pairs = draw(
            st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6, unique=True)
        )
        placement["uav_positions"] = [list(pair) for pair in pairs]
        count = len(pairs)
    geometry["placement"] = placement
    key, hi = draw(
        st.sampled_from([("densities_per_km2", 1e9), ("densities_per_m2", 1e3)])
    )
    if draw(st.booleans()):
        geometry[key] = draw(_positive(hi))
    else:
        geometry[key] = draw(st.lists(_positive(hi), min_size=count, max_size=count))
    return geometry


@st.composite
def _configs(draw):
    """Scenario mappings across the parser's forms: ladder or geometry,
    ring or explicit positions, watts or dBm, densities per km^2 or per
    m^2, sweeps by values or by range."""
    data = {}
    if draw(st.booleans()):
        lambdas = sorted(
            draw(st.lists(_positive(1e6), min_size=1, max_size=5, unique=True))
        )
        data["ladder"] = {"lambdas": lambdas}
        if draw(st.booleans()):
            data["ladder"]["counts"] = draw(
                st.lists(
                    st.integers(min_value=1, max_value=1_000_000),
                    min_size=len(lambdas),
                    max_size=len(lambdas),
                )
            )
        parameters = ["load"]
    else:
        data["geometry"] = draw(_geometries())
        parameters = ["load", "height"]
    data["mbs"] = {
        "total_channels": draw(st.integers(min_value=1, max_value=100_000)),
        "load": draw(_positive(1e6)),
    }
    solver_block = {}
    if draw(st.booleans()):
        solver_block["objectives"] = draw(
            st.lists(
                st.sampled_from([o.value for o in Objective]),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
    if draw(st.booleans()):
        solver_block["use_k_cap"] = draw(st.booleans())
    data["solver"] = solver_block
    if draw(st.booleans()):
        data["sweep"] = draw(_sweeps(draw(st.sampled_from(parameters))))
    return data


_RING = {"height": 400.0, "uav_ring": {"count": 4, "radius": 800.0}}


def _scenario(placement=_RING, **geometry):
    return {
        "geometry": {"placement": placement, "densities_per_km2": 12.0, **geometry},
        "mbs": {"total_channels": 10, "load": 2.0},
    }


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(data=_configs())
    @example(data=_scenario(radio={"p_uav_watts": 1e-14}))
    # A density per km^2 that is zero per m^2, a ring that rounds seven
    # positions together, and a range whose last point lands a hair past
    # the limit.
    @example(data=_scenario(densities_per_km2=5e-324))
    @example(data=_scenario({"height": 1.0, "uav_ring": {"count": 7, "radius": 5e-324}}))
    @example(
        data={
            "ladder": {"lambdas": [1.0]},
            "mbs": {"total_channels": 10, "load": 2.0},
            "sweep": {"parameter": "load", "start": 1.0, "stop": 1e6, "step": 999999.0000010001},
        }
    )
    def test_every_loadable_config_round_trips(self, data):
        try:
            config = parse_config(data)
        except ConfigError:
            reject()
        text = canonical_dump(config)
        again = loads_config(text)
        assert again == config
        assert config_hash(again) == config_hash(config)
        assert canonical_dump(again) == text

    def test_power_below_the_dbm_floor_is_refused_in_watts(self):
        with pytest.raises(ConfigError, match=r"p_uav_watts.*-110\.0 dBm"):
            parse_config(_scenario(radio={"p_uav_watts": 1e-14}))

    def test_ladder_round_trip(self):
        config = loads_config(MINIMAL)
        again = loads_config(canonical_dump(config))
        assert again == config
        assert config_hash(again) == config_hash(config)

    def test_geometry_round_trip(self):
        config = loads_config(GEOMETRY)
        again = loads_config(canonical_dump(config))
        assert again == config

    def test_hash_tracks_content(self):
        base = loads_config(MINIMAL)
        changed = loads_config(MINIMAL.replace("load: 4.0", "load: 5.0"))
        assert config_hash(base) != config_hash(changed)


class TestResultTable:
    def test_rows_must_be_rectangular(self):
        with pytest.raises(ValueError, match="width"):
            ResultTable(columns=("a", "b"), rows=((1,),), metadata=())

    def test_csv_shape(self):
        table = ResultTable(
            columns=("n", "value"),
            rows=((1, 0.5), (2, 0.25)),
            metadata=(("config_hash", "abc"), ("timestamp", "now")),
        )
        text = table.to_csv_text()
        assert text == "# config_hash: abc\n# timestamp: now\nn,value\n1,0.5\n2,0.25\n"

    def test_floats_round_trip_through_repr(self):
        value = 1.0 / 3.0
        table = ResultTable(columns=("x",), rows=((value,),), metadata=())
        cell = table.to_csv_text().splitlines()[-1]
        assert float(cell) == value

    def test_strip_timestamp_drops_only_that_line(self):
        text = "# config_hash: a\n# timestamp: 2026\nx\n1\n"
        assert strip_timestamp(text) == "# config_hash: a\nx\n1\n"


class TestRunSolve:
    def test_files_and_summary(self, tmp_path):
        config = loads_config(MINIMAL)
        report = run_solve(config, out_dir=str(tmp_path))
        names = sorted(p.split("/")[-1] for p in report.files)
        assert names == [
            "contract_mbs.csv",
            "contract_social.csv",
            "summary.csv",
            "trace_mbs.csv",
            "trace_social.csv",
        ]
        (direct,) = solve(config.ladder, config.mbs, [Objective.MBS_REVENUE])
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        header, first = summary[3], summary[4]
        assert header == "objective,sold,prices_total,revenue,welfare"
        cells = first.split(",")
        assert cells[0] == "mbs-revenue"
        assert int(cells[1]) == direct.sold
        assert float(cells[3]) == pytest.approx(direct.revenue, abs=1e-12)

    def test_contract_table_carries_the_menu(self, tmp_path):
        config = loads_config(MINIMAL)
        run_solve(config, out_dir=str(tmp_path))
        (direct,) = solve(config.ladder, config.mbs, [Objective.MBS_REVENUE])
        rows = (tmp_path / "contract_mbs.csv").read_text().splitlines()[4:]
        assert len(rows) == 3
        for t, row in enumerate(rows):
            cells = row.split(",")
            assert int(cells[0]) == t + 1
            assert int(cells[3]) == direct.contract.assignment.w[t]
            assert float(cells[4]) == direct.contract.prices.p[t]

    def test_trace_covers_every_budget(self, tmp_path):
        config = loads_config(MINIMAL)
        run_solve(config, out_dir=str(tmp_path))
        rows = (tmp_path / "trace_mbs.csv").read_text().splitlines()[4:]
        assert len(rows) == config.mbs.total_channels + 1
        assert [int(r.split(",")[0]) for r in rows] == list(range(11))

    def test_both_objectives_share_one_build_of_each_input(self, tmp_path, monkeypatch):
        built = _count_builds(monkeypatch)
        config = loads_config(MINIMAL)
        run_solve(config, out_dir=str(tmp_path))
        assert built == {
            "saturation_cap": 1,
            "utility_table": list(config.ladder.lambdas),
            "cost_table": [config.mbs.load],
            "build_tables": len(config.objectives),
        }

    def test_geometry_scenario_resolves_before_solving(self, tmp_path):
        config = loads_config(GEOMETRY)
        report = run_solve(config, out_dir=str(tmp_path))
        assert any("objective=mbs-revenue" in line for line in report.lines)

    def test_unreachable_geometry_is_a_config_error(self, tmp_path):
        text = GEOMETRY.replace("height: 400.0", "height: 99000.0")
        with pytest.warns(UserWarning, match="owns no cells"):
            with pytest.raises(ConfigError, match="no UAV owns any cells"):
                run_solve(loads_config(text), out_dir=str(tmp_path))


def _count_builds(monkeypatch):
    """Count the solver's builds of each per-instance input: calls of the
    cap and the fill, and the mean of each utility table and the load of
    each cost row built."""
    built = {"saturation_cap": 0, "utility_table": [], "cost_table": [], "build_tables": 0}
    # Which argument to record: utility_table(mean, K), cost_table(M, load).
    recorded = {"utility_table": 0, "cost_table": 1}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name in recorded:
                built[name].append(args[recorded[name]])
            else:
                built[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in built:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    return built


def _record_pool_sizes(monkeypatch):
    """Swap the sweep's executor for one that records its size and starts
    no thread; returns the list of sizes requested."""
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, values):
            return map(fn, values)

    monkeypatch.setattr(runner, "ThreadPoolExecutor", RecordingPool)
    return requested


class TestRunSweep:
    def test_single_value_sweep_matches_solve(self, tmp_path):
        config = loads_config(MINIMAL + "sweep: {parameter: load, values: [4.0]}\n")
        run_sweep(config, out_dir=str(tmp_path / "sweep"))
        run_solve(config, out_dir=str(tmp_path / "solve"))
        sweep_row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[4]
        summary = (tmp_path / "solve" / "summary.csv").read_text().splitlines()[4:]
        cells = sweep_row.split(",")
        assert float(cells[0]) == 4.0
        mbs_cells = summary[0].split(",")
        social_cells = summary[1].split(",")
        assert cells[1:5] == mbs_cells[1:]
        assert cells[5:9] == social_cells[1:]

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        config = loads_config(
            MINIMAL + "sweep: {parameter: load, start: 1.0, stop: 8.0, step: 1.0}\n"
        )
        run_sweep(config, out_dir=str(tmp_path / "a"), threads=1)
        run_sweep(config, out_dir=str(tmp_path / "b"), threads=4)
        texts = [
            strip_timestamp((tmp_path / sub / "sweep.csv").read_text())
            for sub in ("a", "b")
        ]
        assert texts[0] == texts[1]

    def test_height_sweep_thread_count_does_not_change_bytes(self, tmp_path):
        config = loads_config(
            GEOMETRY + "sweep: {parameter: height, values: [300.0, 400.0, 500.0]}\n"
        )
        run_sweep(config, out_dir=str(tmp_path / "a"), threads=1)
        run_sweep(config, out_dir=str(tmp_path / "b"), threads=4)
        texts = [
            strip_timestamp((tmp_path / sub / "sweep.csv").read_text())
            for sub in ("a", "b")
        ]
        assert texts[0] == texts[1]

    def test_pool_never_outnumbers_the_sweep_points(self, tmp_path, monkeypatch):
        requested = _record_pool_sizes(monkeypatch)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 8)
        config = loads_config(
            GEOMETRY + "sweep: {parameter: height, values: [300.0, 400.0]}\n"
        )
        run_sweep(config, out_dir=str(tmp_path / "two"), threads=8)
        run_sweep(config, out_dir=str(tmp_path / "one"), threads=2)
        assert requested == [2, 2]
        single = loads_config(GEOMETRY + "sweep: {parameter: height, values: [400.0]}\n")
        run_sweep(single, out_dir=str(tmp_path / "single"), threads=8)
        assert requested == [2, 2]

    def test_pool_never_outnumbers_the_cpus(self, tmp_path, monkeypatch):
        requested = _record_pool_sizes(monkeypatch)
        config = loads_config(
            GEOMETRY + "sweep: {parameter: height, values: [300.0, 400.0, 500.0]}\n"
        )
        # The affinity mask counts, not the machine's CPUs.
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            runner.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        run_sweep(config, out_dir=str(tmp_path / "two"), threads=8)
        assert requested == [2]
        # Without a mask the CPU count caps it; an unknown count runs the
        # sweep in the calling thread.
        monkeypatch.delattr(runner.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 3)
        run_sweep(config, out_dir=str(tmp_path / "three"), threads=8)
        assert requested == [2, 3]
        monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
        run_sweep(config, out_dir=str(tmp_path / "one"), threads=8)
        assert requested == [2, 3]
        texts = [
            strip_timestamp((tmp_path / sub / "sweep.csv").read_text())
            for sub in ("two", "three", "one")
        ]
        assert texts[0] == texts[1] == texts[2]

    def test_load_sweep_builds_tables_once_per_objective(self, tmp_path, monkeypatch):
        # And every other input once: the cap, one utility table per type
        # and one cost row per load, shared by both objectives.
        built = _count_builds(monkeypatch)
        config = loads_config(
            MINIMAL + "sweep: {parameter: load, start: 1.0, stop: 8.0, step: 1.0}\n"
        )
        run_sweep(config, out_dir=str(tmp_path), threads=4)
        assert built == {
            "saturation_cap": 1,
            "utility_table": list(config.ladder.lambdas),
            "cost_table": list(config.sweep.values),
            "build_tables": len(config.objectives),
        }

    def test_load_column_is_monotone(self, tmp_path):
        config = loads_config(
            MINIMAL + "sweep: {parameter: load, start: 1.0, stop: 5.0, step: 1.0}\n"
        )
        run_sweep(config, out_dir=str(tmp_path))
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[4:]
        loads = [float(r.split(",")[0]) for r in rows]
        assert loads == sorted(loads) and len(loads) == 5

    def test_sweep_without_sweep_section(self, tmp_path):
        with pytest.raises(ConfigError, match="needs a sweep section"):
            run_sweep(loads_config(MINIMAL), out_dir=str(tmp_path))

    def test_height_sweep_records_geometry_columns(self, tmp_path):
        config = loads_config(
            GEOMETRY + "sweep: {parameter: height, values: [300.0, 400.0, 20000.0]}\n"
        )
        run_sweep(config, out_dir=str(tmp_path))
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[3].startswith("height,total_area_m2,n_types,n_excluded,mbs_sold")
        last = lines[-1].split(",")
        # At 20 km every region is gone: zero area, all four excluded,
        # zero sold and zero value under both objectives.
        assert float(last[1]) == 0.0
        assert int(last[2]) == 0 and int(last[3]) == 4
        assert all(float(v) == 0.0 for v in last[4:])

    @pytest.mark.parametrize("threads", [1, 3])
    def test_height_sweep_silences_only_its_exclusion_warnings(self, tmp_path, threads):
        config = loads_config(
            GEOMETRY + "sweep: {parameter: height, values: [400.0, 20000.0, 30000.0]}\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            before = list(warnings.filters)
            run_sweep(config, out_dir=str(tmp_path), threads=threads)
            assert warnings.filters == before
        assert not [w for w in caught if "owns no cells" in str(w.message)]


class TestOracleCheck:
    def test_sampler_respects_documented_ranges(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ladder, mbs = sample_instance(rng)
            assert 1 <= len(ladder.lambdas) <= 3
            assert all(0.5 <= lam <= 5.0 for lam in ladder.lambdas)
            assert all(1 <= c <= 3 for c in ladder.counts)
            assert 1 <= mbs.total_channels <= 12
            assert 1.0 <= mbs.load <= 10.0

    def test_small_run_passes(self, tmp_path):
        report = run_oracle_check(instances=10, out_dir=str(tmp_path))
        assert report.passed
        assert "all matched" in report.lines[0]
        rows = (tmp_path / "oracle_report.csv").read_text().splitlines()[4:]
        assert len(rows) == 20  # two objectives per instance
        assert all(row.endswith(",1") for row in rows)

    def test_zero_instances_is_a_vacuous_pass(self):
        report = run_oracle_check(instances=0)
        assert report.passed
        assert "zero instances" in report.lines[0]
        assert "warning" in report.lines[0]

    def test_corrupted_tiebreak_names_a_seed(self):
        report = run_oracle_check(instances=40, corrupt_tiebreak=True)
        assert not report.passed
        first = report.failures[0]
        assert first.seed == 20260817 + first.index
        assert f"seed {first.seed}" in report.lines[0]

    def test_corrupted_tiebreak_names_the_first_diverging_type(self):
        report = run_oracle_check(instances=40, corrupt_tiebreak=True)
        diverged = [f for f in report.failures if "assignment" in f.reason]
        assert diverged
        for failure in diverged:
            match = re.search(
                r"assignment \(([\d, ]*)\) vs \(([\d, ]*)\), "
                r"first differing at type (\d+) of (\d+)",
                failure.reason,
            )
            assert match, failure.reason
            dp_w, bf_w = (
                [int(v) for v in group.split(",") if v.strip()]
                for group in match.group(1, 2)
            )
            first = int(match.group(3))
            assert int(match.group(4)) == len(dp_w) == len(bf_w)
            assert dp_w[: first - 1] == bf_w[: first - 1]
            assert dp_w[first - 1] != bf_w[first - 1]
            assert failure.reason in "\n".join(report.lines)

    def test_negative_instances_are_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            run_oracle_check(instances=-1)


class TestCommandLine:
    def _write(self, tmp_path, text):
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        return str(path)

    def test_solve_exit_zero_and_summary_echo(self, tmp_path, capsys):
        code = main(
            ["solve", "--config", self._write(tmp_path, MINIMAL), "--out", str(tmp_path / "o")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "objective=mbs-revenue sold=" in out
        assert "objective=social-welfare sold=" in out

    def test_preset_name_resolution(self, tmp_path, capsys):
        code = main(["dump-config", "--config", "load_sweep"])
        assert code == 0
        assert "parameter: load" in capsys.readouterr().out

    def test_dump_config_round_trips(self, tmp_path, capsys):
        code = main(["dump-config", "--config", self._write(tmp_path, GEOMETRY)])
        assert code == 0
        dumped = capsys.readouterr().out
        assert loads_config(dumped) == loads_config(GEOMETRY)

    def test_validation_error_exits_one(self, tmp_path, capsys):
        bad = self._write(tmp_path, MINIMAL.replace("load: 4.0", "load: 0.0"))
        code = main(["solve", "--config", bad, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "mbs.load" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, where",
        [
            ("dump-config", "a: &x [*x]\n", "a[0]"),
            ("solve", "ladder: &x {lambdas: [1.0], counts: *x}\n", "ladder.counts"),
        ],
        ids=["dump-config", "solve"],
    )
    def test_recursive_alias_exits_one(self, tmp_path, capsys, command, text, where):
        # Without the check the marks walk recursed until RecursionError.
        argv = [command, "--config", self._write(tmp_path, text)]
        if command == "solve":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: invalid YAML: line 1: recursive alias at {where}:"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("step", ["1.0e-9", "1.0e-310"])
    def test_oversized_sweep_range_exits_one(self, tmp_path, capsys, step):
        # About 1e12 values, or a count that overflows to infinity.
        text = MINIMAL + f"sweep: {{parameter: load, start: 1.0, stop: 1000.0, step: {step}}}\n"
        out = tmp_path / "o"
        assert main(["sweep", "--config", self._write(tmp_path, text), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep")
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_config_exits_three(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "absent.yaml")])
        assert code == 3
        assert "no such config file or preset" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        assert main(["solve"]) == 1
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_one(self, tmp_path, capsys, command, threads):
        out = tmp_path / "o"
        code = main(
            [command, "--config", "load_sweep", "--out", str(out), "--threads", threads]
        )
        assert code == 1
        assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_mismatch_exits_two(self, capsys):
        code = main(["oracle-check", "--instances", "40", "--corrupt-tiebreak"])
        assert code == 2
        assert "mismatch" in capsys.readouterr().out

    def test_oracle_pass_exits_zero(self, capsys):
        assert main(["oracle-check", "--instances", "5"]) == 0

    def test_oracle_zero_instances_warns_and_passes(self, capsys):
        assert main(["oracle-check", "--instances", "0"]) == 0
        assert "vacuously" in capsys.readouterr().out

    def test_cap_refusal_exits_one(self, tmp_path, capsys):
        code = main(["oracle-check", "--instances", "40", "--cap", "2"])
        assert code == 1
        assert "exceeds the cap" in capsys.readouterr().err

    def test_oversized_tables_exit_one(self, tmp_path, capsys):
        lambdas = ", ".join(str(float(v)) for v in range(1, 101))
        config = (
            f"ladder:\n  lambdas: [{lambdas}]\n"
            "mbs:\n  total_channels: 2000\n  load: 1500.0\n"
            "solver:\n  use_k_cap: false\n"
        )
        out = tmp_path / "o"
        code = main(["solve", "--config", self._write(tmp_path, config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        needed = solver.dp_table_bytes(100, 2000, 2000)
        assert "T=100 types, K=2000, M=2000 channels" in err
        assert f"need {needed} bytes" in err
        assert not list(out.glob("*.csv"))

    def test_oversized_load_sweep_exits_one_before_any_cost_row(
        self, tmp_path, capsys, monkeypatch
    ):
        # 1,000 cost rows of 100,001 entries would hold 800 MB.
        built = []
        monkeypatch.setattr(solver, "cost_table", lambda *args: built.append(args))
        text = MINIMAL.replace("total_channels: 10", "total_channels: 100000") + (
            "sweep: {parameter: load, start: 1.0, stop: 1000.0, step: 1.0}\n"
        )
        out = tmp_path / "o"
        assert main(["sweep", "--config", self._write(tmp_path, text), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        rows = 1000 * 100_001 * 8
        assert f"cost rows of 1000 loads {rows} bytes" in err
        assert "M=100000 channels" in err
        assert "Traceback" not in err
        assert not built
        assert not list(out.glob("*.csv"))

    def test_no_kcap_flag_is_a_usage_error(self, tmp_path, capsys):
        # The config key solver.use_k_cap is the cap's only switch.
        cfg = self._write(tmp_path, MINIMAL)
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out), "--no-kcap"]) == 1
        assert "--no-kcap" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_runs_differ_only_in_timestamp(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
        for name in ("summary.csv", "contract_mbs.csv", "trace_social.csv"):
            a = strip_timestamp((tmp_path / "r1" / name).read_text())
            b = strip_timestamp((tmp_path / "r2" / name).read_text())
            assert a == b
