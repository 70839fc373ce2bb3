"""Acceptance gate: one test per acceptance criterion.

Each test carries the criterion number in its name so the verbose run
reads as a per-criterion pass/fail report.  Tolerances are stated
inline; none are loosened beyond what the criterion allows.
"""

import csv
import math
import time
from importlib import resources

import numpy as np
import pytest

from spectrum_contracts.cli import main
from spectrum_contracts.config import (
    DEFAULT_NOISE_DBM,
    SweepSpec,
    _ring_positions,
    loads_config,
    watts_to_dbm,
)
from spectrum_contracts.contract import (
    Contract,
    MbsLoad,
    PriceSchedule,
    QualityAssignment,
    TypeLadder,
    optimal_prices,
    revenue,
)
from spectrum_contracts.geometry import (
    DensityMap,
    RadioParams,
    TerrainParams,
)
from spectrum_contracts.runner import (
    run_oracle_check,
    run_sweep,
    sample_instance,
    strip_timestamp,
)
from spectrum_contracts.solver import Objective, solve
from spectrum_contracts.stochastic import cost_table, saturation_channels

from contract_checks import ladder_utilities, lemma2_conditions, validate_feasibility
from poisson_wrappers import poisson_tail, tail_drops_below, uav_utility

REFERENCE_LADDER = TypeLadder(tuple(float(t) for t in range(1, 11)), (1,) * 10)


def _solve_sold(load: float, objective: Objective) -> tuple[int, float]:
    (result,) = solve(REFERENCE_LADDER, MbsLoad(200, load), [objective])
    value = result.revenue if objective is Objective.MBS_REVENUE else result.welfare
    return result.sold, value


class TestCriterion1ReferenceChannelTotals:
    """Ten types 1..10, M=200: sold totals match the published panels."""

    @pytest.mark.parametrize(
        "load,objective,expected",
        [
            (120.0, Objective.MBS_REVENUE, 60),
            (120.0, Objective.SOCIAL_WELFARE, 71),
            (160.0, Objective.MBS_REVENUE, 39),
            (160.0, Objective.SOCIAL_WELFARE, 45),
        ],
    )
    def test_criterion_1_sold_totals_exact(self, load, objective, expected):
        started = time.monotonic()
        sold, _ = _solve_sold(load, objective)
        elapsed = time.monotonic() - started
        assert sold == expected
        assert elapsed < 120.0, f"solve took {elapsed:.1f}s, budget is 120s"


class TestCriterion2OracleEquivalence:
    def test_criterion_2_dp_matches_exhaustive_search(self):
        """200 seeded instances: values within 1e-9, assignments equal."""
        started = time.monotonic()
        report = run_oracle_check(instances=200)
        elapsed = time.monotonic() - started
        detail = "; ".join(
            f"instance {f.index} (seed {f.seed}, {f.objective.value}): {f.reason}"
            for f in report.failures[:5]
        )
        assert report.passed, f"oracle mismatches: {detail}"
        assert elapsed < 60.0, f"oracle run took {elapsed:.1f}s, budget is 60s"


def _random_assignment_instance(rng):
    """Ladder with one or two types plus a monotone assignment."""
    size = int(rng.integers(1, 3))
    while True:
        lambdas = np.sort(rng.uniform(0.3, 2.2, size=size))
        if size == 1 or np.all(np.diff(lambdas) > 0.05):
            break
    counts = tuple(int(c) for c in rng.integers(1, 3, size=size))
    ladder = TypeLadder(tuple(float(v) for v in lambdas), counts)
    w = tuple(int(v) for v in np.sort(rng.integers(0, 6, size=size)))
    return ladder, QualityAssignment(w)


def _grid_best_prices_total(ladder, assignment, resolution, tol=1e-9):
    """Highest total payment over the feasible price grid.

    Prices live on multiples of ``resolution``.  For a fixed first price
    the payment is increasing in the second, so only the largest grid
    point inside each increment window needs evaluating; that makes the
    scan linear in the grid instead of quadratic.
    """
    lambdas, counts, w = ladder.lambdas, ladder.counts, assignment.w
    cap1 = uav_utility(lambdas[0], w[0])
    p1 = np.arange(0.0, cap1 + resolution, resolution)
    p1 = p1[p1 <= cap1 + tol]
    if len(lambdas) == 1:
        return float(np.max(counts[0] * p1))
    own = uav_utility(lambdas[1], w[1]) - uav_utility(lambdas[1], w[0])
    prev = uav_utility(lambdas[0], w[1]) - uav_utility(lambdas[0], w[0])
    p2 = np.floor((p1 + own + tol) / resolution) * resolution
    feasible = p2 >= p1 + prev - tol
    if not feasible.any():
        return float("-inf")
    totals = counts[0] * p1 + counts[1] * p2
    return float(np.max(totals[feasible]))


class TestCriterion3PricingOptimality:
    def test_criterion_3_grid_search_never_beats_closed_form(self):
        rng = np.random.default_rng(2026)
        resolution = 1e-3
        for _ in range(100):
            ladder, assignment = _random_assignment_instance(rng)
            prices = optimal_prices(
                ladder, assignment, ladder_utilities(ladder, max(assignment.w))
            )
            contract = Contract(assignment, prices)
            size = len(ladder.lambdas)

            optimal_total = sum(
                c * p for c, p in zip(ladder.counts, prices.p)
            )
            grid_total = _grid_best_prices_total(ladder, assignment, resolution)
            assert grid_total <= optimal_total + 2e-3 * size
            # The grid should also land within its own quantization of
            # the closed form, which pins optimality from both sides.
            # Rounding chains: price t inherits the loss of price t-1,
            # so type t can fall short by up to t grid steps.
            slack = resolution * sum(
                (t + 1) * n for t, n in enumerate(ladder.counts)
            ) + 1e-9
            assert optimal_total - grid_total <= slack

            assert validate_feasibility(ladder, contract).feasible
            report = lemma2_conditions(ladder, contract)
            assert report.feasible
            for check in report.checks:
                if check.condition in (2, 3):
                    assert check.upper - check.value <= 1e-9, (
                        f"condition {check.condition} upper bound is slack "
                        f"at t={check.t}: {check.upper} vs {check.value}"
                    )


class TestCriterion4PropertySuites:
    """Eight randomized suites, 500 cases each, fixed seeds."""

    def test_criterion_4_tail_monotone_in_mean(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            lam_lo, lam_hi = np.sort(rng.uniform(0.1, 20.0, size=2) + (0.0, 1e-3))
            k = int(rng.integers(1, 40))
            assert poisson_tail(lam_lo, k) < poisson_tail(lam_hi, k)
            assert poisson_tail(lam_hi, k + 1) < poisson_tail(lam_hi, k)

    def test_criterion_4_utility_increasing_and_concave(self):
        rng = np.random.default_rng(102)
        for _ in range(500):
            lam = float(rng.uniform(0.1, 15.0))
            # Strict gains are only representable below saturation;
            # beyond it the increment is absorbed by float rounding.
            w = int(rng.integers(0, tail_drops_below(lam, 1e-9)))
            u0, u1, u2 = (uav_utility(lam, w + j) for j in range(3))
            assert u1 > u0
            assert (u2 - u1) < (u1 - u0)

    def test_criterion_4_increasing_preference(self):
        rng = np.random.default_rng(103)
        for _ in range(500):
            lam_lo, lam_hi = np.sort(rng.uniform(0.1, 12.0, size=2) + (0.0, 1e-3))
            w_lo = int(rng.integers(0, 15))
            w_hi = w_lo + int(rng.integers(1, 10))
            gain_hi = uav_utility(lam_hi, w_hi) - uav_utility(lam_hi, w_lo)
            gain_lo = uav_utility(lam_lo, w_hi) - uav_utility(lam_lo, w_lo)
            assert gain_hi > gain_lo

    def test_criterion_4_price_orderings_on_solver_output(self):
        rng = np.random.default_rng(104)
        for _ in range(500):
            ladder, mbs = sample_instance(rng)
            objective = Objective.MBS_REVENUE if rng.integers(2) else Objective.SOCIAL_WELFARE
            (result,) = solve(ladder, mbs, [objective])
            w = result.contract.assignment.w
            p = result.contract.prices.p
            for t in range(1, len(w)):
                assert w[t] >= w[t - 1]
                assert p[t] >= p[t - 1] - 1e-12
                if w[t] == w[t - 1]:
                    assert p[t] == pytest.approx(p[t - 1], abs=1e-12)
                else:
                    assert p[t] > p[t - 1]

    def test_criterion_4_busier_types_raise_revenue(self):
        rng = np.random.default_rng(105)
        for _ in range(500):
            ladder, mbs = sample_instance(rng)
            bumps = np.sort(rng.uniform(0.01, 1.0, size=len(ladder.lambdas)))
            bumped = TypeLadder(
                tuple(l + b for l, b in zip(ladder.lambdas, bumps)),
                ladder.counts,
            )
            (base,) = solve(ladder, mbs, [Objective.MBS_REVENUE])
            (more,) = solve(bumped, mbs, [Objective.MBS_REVENUE])
            assert more.revenue >= base.revenue - 1e-12

    def test_criterion_4_utility_saturates_at_the_mean(self):
        rng = np.random.default_rng(106)
        for _ in range(500):
            lam = float(rng.uniform(0.1, 30.0))
            # Means up to 30 saturate far below 200 channels.
            w_sat = saturation_channels(lam, 200)
            assert abs(uav_utility(lam, w_sat) - lam) < 1e-9

    def test_criterion_4_saturation_cap_is_safe(self):
        rng = np.random.default_rng(107)
        for _ in range(500):
            ladder, _ = sample_instance(rng)
            mbs = MbsLoad(int(rng.integers(1, 61)), float(rng.uniform(1.0, 10.0)))
            for capped, free in zip(
                solve(ladder, mbs, Objective, use_k_cap=True),
                solve(ladder, mbs, Objective, use_k_cap=False),
            ):
                assert capped.revenue == pytest.approx(free.revenue, abs=1e-9)
                assert capped.welfare == pytest.approx(free.welfare, abs=1e-9)

    def test_criterion_4_each_solver_wins_its_own_game(self):
        rng = np.random.default_rng(108)
        for _ in range(500):
            ladder, mbs = sample_instance(rng)
            by_revenue, by_welfare = solve(ladder, mbs, Objective)
            assert by_revenue.revenue >= by_welfare.revenue - 1e-9
            assert by_welfare.welfare >= by_revenue.welfare - 1e-9


class TestCriterion5LoadSweepShape:
    def test_criterion_5_gap_shrinks_and_revenue_dominates(self):
        """Heavier base-station load narrows the sold gap, one jitter unit
        allowed; the revenue-optimal menu out-earns the welfare-optimal
        one at every point."""
        diffs = []
        for load in range(100, 201, 10):
            mbs = MbsLoad(200, float(load))
            by_revenue, by_welfare = solve(REFERENCE_LADDER, mbs, Objective)
            diffs.append(by_welfare.sold - by_revenue.sold)
            social_contract_revenue = revenue(
                REFERENCE_LADDER,
                by_welfare.contract,
                cost_table(mbs.total_channels, mbs.load)[by_welfare.sold],
            )
            assert by_revenue.revenue >= social_contract_revenue - 1e-12
        for earlier, later in zip(diffs, diffs[1:]):
            assert later <= earlier + 1, f"sold gap grew: {diffs}"


class TestCriterion6HeightSweep:
    def test_criterion_6_area_peaks_inside_and_revenue_height_window(self, tmp_path):
        """Ten relays on a 1000 m ring, reference-table defaults.

        Runs the ``coverage_height_sweep`` preset, after checking that it
        is that scenario.  Asserts an interior area maximum and that the
        revenue-optimal height falls in [600, 750].  Measured optima are
        included in the failure message for comparison.
        """
        preset = resources.files("spectrum_contracts").joinpath(
            "presets", "coverage_height_sweep.yaml"
        )
        config = loads_config(preset.read_text(encoding="utf-8"))
        geo = config.geometry
        assert geo.terrain == TerrainParams(
            a=11.95, b=0.136, eta_los=2.0, eta_nlos=20.0
        )
        assert geo.radio == RadioParams(
            frequency=3.0e9,
            p_mbs=watts_to_dbm(10.0),
            p_uav=watts_to_dbm(0.05),
            noise=DEFAULT_NOISE_DBM,
        )
        assert geo.uav_positions == _ring_positions(10, 1000.0)
        assert geo.density == DensityMap(
            tuple(v * 1e-6 for v in np.linspace(10.0, 20.0, 10))
        )
        assert (geo.extent, geo.cell_size) == (3000.0, 10.0)
        assert config.mbs == MbsLoad(200, 150.0)
        heights = [float(h) for h in range(200, 1001, 25)]
        assert config.sweep == SweepSpec("height", tuple(heights))

        (path,) = run_sweep(config, out_dir=str(tmp_path)).files
        with open(path, encoding="utf-8") as handle:
            rows = list(
                csv.DictReader(line for line in handle if not line.startswith("#"))
            )
        totals = np.array([float(r["total_area_m2"]) for r in rows])
        revenues = np.array([float(r["mbs_revenue"]) for r in rows])
        welfares = np.array([float(r["social_welfare"]) for r in rows])

        peak = int(totals.argmax())
        assert 0 < peak < len(heights) - 1
        assert totals[peak] > totals[0] and totals[peak] > totals[-1]

        best_revenue_height = heights[int(revenues.argmax())]
        best_welfare_height = heights[int(welfares.argmax())]
        assert 600.0 <= best_revenue_height <= 750.0, (
            f"revenue-optimal height measured at {best_revenue_height:.0f} m "
            f"(welfare-optimal at {best_welfare_height:.0f} m, area peak at "
            f"{heights[peak]:.0f} m); the acceptance window is [600, 750]"
        )


class TestCriterion7PresetDeterminism:
    PRESETS = (
        ("contract_menu_light_load", "solve"),
        ("contract_menu_heavy_load", "solve"),
        ("load_sweep", "sweep"),
        ("coverage_height_sweep", "sweep"),
    )

    @pytest.mark.parametrize("preset,command", PRESETS)
    def test_criterion_7_preset_output_bytes_are_stable(
        self, preset, command, tmp_path
    ):
        """Two runs, the second with threads, differ only in timestamps."""
        first = tmp_path / "first"
        second = tmp_path / "second"
        base = [command, "--config", preset]
        assert main(base + ["--out", str(first)]) == 0
        assert main(base + ["--out", str(second), "--threads", "3"]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            a = strip_timestamp((first / name).read_text(encoding="utf-8"))
            b = strip_timestamp((second / name).read_text(encoding="utf-8"))
            assert a == b, f"{preset}/{name} is not byte-stable"
