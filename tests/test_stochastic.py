"""Tests for Poisson tails, operator utility, and base-station cost."""

import math

import numpy as np
import pytest
from scipy import special, stats

from spectrum_contracts.stochastic import cost_table, saturation_channels, utility_table

from poisson_wrappers import poisson_pmf, poisson_tail, uav_utility


def _tail_oracle(mean, k):
    """Independent tail via the regularized lower incomplete gamma."""
    if k == 0:
        return 1.0
    return float(special.gammainc(k, mean))


class TestPoissonTail:
    def test_k_zero_is_one(self):
        assert poisson_tail(5.0, 0) == 1.0

    def test_single_arrival_complement(self):
        assert poisson_tail(1.0, 1) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    def test_known_values(self):
        # Frozen from the incomplete-gamma oracle.
        assert poisson_tail(2.0, 3) == pytest.approx(0.32332358381693654, abs=1e-14)
        assert poisson_tail(1.0, 3) == pytest.approx(0.08030139707139418, abs=1e-14)

    def test_larger_mean_has_heavier_tail(self):
        assert poisson_tail(2.0, 3) > poisson_tail(1.0, 3)

    def test_matches_incomplete_gamma_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            mean = float(rng.uniform(0.05, 250.0))
            k = int(rng.integers(0, 400))
            got = poisson_tail(mean, k)
            want = _tail_oracle(mean, k)
            assert got == pytest.approx(want, abs=1e-12, rel=1e-9)

    def test_strictly_decreasing_in_k(self):
        # Sampled around the mean, where consecutive tails are separated by
        # more than one ulp; far below the mean both round to exactly 1.0.
        rng = np.random.default_rng(7)
        for _ in range(200):
            mean = float(rng.uniform(0.1, 50.0))
            lo = max(1, int(mean - 2.0 * math.sqrt(mean)))
            hi = int(mean + 5.0 * math.sqrt(mean)) + 2
            k = int(rng.integers(lo, hi))
            assert poisson_tail(mean, k) < poisson_tail(mean, k - 1)

    def test_strictly_increasing_in_mean(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            lo = float(rng.uniform(0.1, 20.0))
            hi = lo + float(rng.uniform(0.01, 10.0))
            k = int(rng.integers(1, 40))
            assert poisson_tail(hi, k) > poisson_tail(lo, k)

    def test_deep_tail_stays_positive_and_ordered(self):
        # The upper-sum branch keeps far-tail values exact enough to order.
        assert 0.0 < poisson_tail(0.5, 40) < poisson_tail(0.5, 39)

    def test_log_space_guard(self):
        # exp(-800) underflows; the log-space path must still agree.
        want = float(stats.poisson.sf(799, 800.0))
        assert poisson_tail(800.0, 800) == pytest.approx(want, rel=1e-9)
        assert poisson_pmf(800.0, 800) == pytest.approx(
            float(stats.poisson.pmf(800, 800.0)), rel=1e-9
        )

    def test_tail_cdf_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            mean = float(rng.uniform(0.2, 60.0))
            k = int(rng.integers(0, 90))
            cdf = math.fsum(poisson_pmf(mean, i) for i in range(k))
            assert poisson_tail(mean, k) + cdf == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError, match="positive finite"):
            poisson_tail(0.0, 1)
        with pytest.raises(ValueError, match="positive finite"):
            poisson_tail(-2.0, 1)
        with pytest.raises(ValueError, match="positive finite"):
            poisson_tail(float("nan"), 1)
        with pytest.raises(ValueError, match="positive finite"):
            poisson_tail(float("inf"), 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="non-negative"):
            poisson_tail(1.0, -1)
        with pytest.raises(ValueError, match="integer"):
            poisson_tail(1.0, 1.5)


class TestUavUtility:
    def test_no_channels_no_service(self):
        assert uav_utility(7.0, 0) == 0.0

    def test_single_channel_equals_tail(self):
        assert uav_utility(1.0, 1) == pytest.approx(poisson_tail(1.0, 1), abs=1e-15)

    def test_saturates_at_mean(self):
        assert uav_utility(4.0, 50) == pytest.approx(4.0, abs=1e-9)

    def test_equals_tail_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            mean = float(rng.uniform(0.3, 20.0))
            w = int(rng.integers(0, 40))
            want = math.fsum(poisson_tail(mean, k) for k in range(1, w + 1))
            assert uav_utility(mean, w) == pytest.approx(want, abs=1e-12)

    def test_strictly_increasing_in_channels(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            mean = float(rng.uniform(0.5, 15.0))
            w = int(rng.integers(1, int(mean + 5.0 * math.sqrt(mean)) + 2))
            assert uav_utility(mean, w) > uav_utility(mean, w - 1)

    def test_strictly_increasing_in_mean(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            lo = float(rng.uniform(0.5, 10.0))
            hi = lo + float(rng.uniform(0.01, 5.0))
            w = int(rng.integers(1, 25))
            assert uav_utility(hi, w) > uav_utility(lo, w)

    def test_second_difference_is_negative_pmf(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            mean = float(rng.uniform(0.5, 15.0))
            w = int(rng.integers(2, int(mean + 5.0 * math.sqrt(mean)) + 3))
            second = (
                uav_utility(mean, w)
                - 2.0 * uav_utility(mean, w - 1)
                + uav_utility(mean, w - 2)
            )
            assert second < 0.0
            assert second == pytest.approx(-poisson_pmf(mean, w - 1), abs=1e-12)

    def test_table_matches_scalar(self):
        table = utility_table(3.7, 25)
        for w in (0, 1, 7, 25):
            assert table[w] == uav_utility(3.7, w)

    def test_bounded_by_mean(self):
        assert uav_utility(2.5, 500) < 2.5 + 1e-12


class TestMbsCost:
    def test_selling_nothing_costs_nothing(self):
        assert cost_table(200, 120.0)[0] == 0.0

    def test_selling_everything_costs_full_utility(self):
        total, load = 60, 25.0
        assert cost_table(total, load)[total] == pytest.approx(
            uav_utility(load, total), abs=1e-12
        )

    def test_known_value(self):
        # Frozen: sum of tails P(X_160 >= 191..200) from the gamma oracle.
        assert cost_table(200, 160.0)[10] == pytest.approx(
            0.04283856009650226, abs=1e-12
        )

    def test_strictly_increasing_and_convex(self):
        table = cost_table(40, 18.0)
        diffs = np.diff(table)
        assert np.all(diffs > 0.0)
        assert np.all(np.diff(diffs) > 0.0)

    def test_marginal_cost_is_tail(self):
        total, load = 30, 9.0
        table = cost_table(total, load)
        for m in range(1, total + 1):
            marginal = table[m] - table[m - 1]
            assert marginal == pytest.approx(
                poisson_tail(load, total - m + 1), abs=1e-12
            )


class TestSaturationChannels:
    def test_tail_below_tolerance_at_cap(self):
        for mean in (0.7, 4.0, 10.0, 33.0):
            k = saturation_channels(mean, 200)
            assert poisson_tail(mean, k) < 1e-12
            assert poisson_tail(mean, k - 1) >= 1e-12

    def test_known_cap_for_mean_ten(self):
        assert saturation_channels(10.0, 200) == 40

    def test_utility_saturated_at_cap(self):
        for mean in (1.3, 6.0, 12.0):
            k = saturation_channels(mean, 200)
            assert abs(uav_utility(mean, k) - mean) < 1e-9

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError, match="limit"):
            saturation_channels(2.0, -1)
