"""Tests for scenario parsing, orchestration, and the CLI surface."""

import math
import re
import warnings

import numpy as np
import pytest

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

    def test_parse_config_without_marks(self):
        data = {"ladder": {"lambdas": [1.5]}, "mbs": {"total_channels": 3, "load": 1.0}}
        config = parse_config(data)
        assert config.ladder.lambdas == (1.5,)


class TestCanonicalForm:
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
        direct = solve(config.ladder, config.mbs, Objective.MBS_REVENUE)
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
        direct = solve(config.ladder, config.mbs, Objective.MBS_REVENUE)
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

    def test_geometry_scenario_resolves_before_solving(self, tmp_path):
        config = loads_config(GEOMETRY)
        report = run_solve(config, out_dir=str(tmp_path))
        assert any("objective=mbs-revenue" in line for line in report.lines)

    def test_unreachable_geometry_is_a_config_error(self, tmp_path):
        text = GEOMETRY.replace("height: 400.0", "height: 99000.0")
        with pytest.warns(UserWarning, match="owns no cells"):
            with pytest.raises(ConfigError, match="no UAV owns any cells"):
                run_solve(loads_config(text), out_dir=str(tmp_path))


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
        built = []
        original = solver.build_tables

        def counting(*args, **kwargs):
            built.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "build_tables", counting)
        config = loads_config(
            MINIMAL + "sweep: {parameter: load, start: 1.0, stop: 8.0, step: 1.0}\n"
        )
        run_sweep(config, out_dir=str(tmp_path), threads=4)
        assert built == list(config.objectives)

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
        )
        out = tmp_path / "o"
        code = main(
            ["solve", "--config", self._write(tmp_path, config), "--out", str(out), "--no-kcap"]
        )
        assert code == 1
        err = capsys.readouterr().err
        needed = solver.dp_table_bytes(100, 2000, 2000)
        assert "T=100 types, K=2000, M=2000 channels" in err
        assert f"need {needed} bytes" in err
        assert not list(out.glob("*.csv"))

    def test_no_kcap_flag_is_accepted(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--no-kcap"]) == 0

    def test_repeated_runs_differ_only_in_timestamp(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
        for name in ("summary.csv", "contract_mbs.csv", "trace_social.csv"):
            a = strip_timestamp((tmp_path / "r1" / name).read_text())
            b = strip_timestamp((tmp_path / "r2" / name).read_text())
            assert a == b
