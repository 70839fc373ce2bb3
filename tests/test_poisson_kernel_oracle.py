"""Bit-identity oracle for the single-pass Poisson kernel and the gain rows.

The ``reference_*`` functions are the per-k implementations the kernel
replaced, kept verbatim apart from their names: every tail, cost and
saturation point the kernel produces must equal theirs exactly (``==``,
never a tolerance), because the solver's values and the evaluators'
agree bit for bit only while both see the same floats.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spectrum_contracts.contract import TypeLadder, gain
from spectrum_contracts.solver import Objective, _gain_rows
from spectrum_contracts.stochastic import (
    _LOG_SPACE_MEAN,
    _check_count,
    _check_mean,
    _log_pmf,
    cost_table,
    mbs_cost,
    poisson_tail,
    saturation_channels,
    uav_utility,
)


def reference_poisson_pmf(mean: float, k: int) -> float:
    """Probability that a Poisson variable with the given mean equals k.

    Args:
        mean: Mean active-user count; positive and finite.
        k: Non-negative integer outcome.

    Returns:
        P(X = k), evaluated without forming factorials.

    Raises:
        ValueError: If the mean is not positive and finite, or k < 0.
    """
    mean = _check_mean(mean)
    k = _check_count(k, "k")
    if mean > _LOG_SPACE_MEAN:
        return math.exp(_log_pmf(mean, k))
    term = math.exp(-mean)
    for i in range(k):
        term *= mean / (i + 1)
    return term


def reference_cdf_below(mean: float, k: int) -> float:
    """Compensated sum of pmf terms for outcomes 0..k-1."""
    if k <= 0:
        return 0.0
    if mean > _LOG_SPACE_MEAN:
        return math.fsum(math.exp(_log_pmf(mean, i)) for i in range(k))
    term = math.exp(-mean)
    total = term
    comp = 0.0
    for i in range(1, k):
        term *= mean / i
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def reference_tail_above(mean: float, k: int) -> float:
    """Compensated sum of pmf terms for outcomes k, k+1, ... to convergence."""
    term = reference_poisson_pmf(mean, k)
    total = term
    comp = 0.0
    i = k
    # Terms decay geometrically once i >= mean; stop when they stop mattering.
    while term > 0.0 and (term > total * 1e-18 or i < mean + 2):
        i += 1
        term *= mean / i
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return min(total, 1.0)


def reference_poisson_tail(mean: float, k: int) -> float:
    """Upper tail P(X >= k) for a Poisson variable with the given mean.

    For k at or below the mean the tail is computed as one minus the lower
    cumulative sum; above the mean the upper sum is accumulated directly,
    which keeps the result strictly positive and strictly decreasing in k
    far into the tail.

    Args:
        mean: Mean active-user count; positive and finite.
        k: Non-negative integer threshold.

    Returns:
        P(X >= k) in [0, 1]. Equals 1.0 for k = 0.

    Raises:
        ValueError: If the mean is not positive and finite, or k < 0.
    """
    mean = _check_mean(mean)
    k = _check_count(k, "k")
    if k == 0:
        return 1.0
    if k <= mean:
        return max(1.0 - reference_cdf_below(mean, k), 0.0)
    return reference_tail_above(mean, k)


def reference_mbs_cost(sold: int, total: int, load: float) -> float:
    """Expected service the base station loses by selling channels.

    Selling ``m`` of ``M`` channels removes the tail terms
    ``P(X_BS >= M-m+1) .. P(X_BS >= M)`` from the station's utility.

    Args:
        sold: Channels sold, 0 <= sold <= total.
        total: Total channels M at the base station.
        load: Mean active-user count at the base station.

    Returns:
        C(sold) >= 0, strictly increasing and convex in sold.

    Raises:
        ValueError: If sold exceeds total or any input is out of domain.
    """
    sold = _check_count(sold, "sold")
    total = _check_count(total, "total")
    load = _check_mean(load)
    if sold > total:
        raise ValueError(f"sold channels ({sold}) exceed the total ({total})")
    return math.fsum(reference_poisson_tail(load, k) for k in range(total - sold + 1, total + 1))


def reference_cost_table(total: int, load: float) -> np.ndarray:
    """Costs C(0..total) for a base station with the given size and load.

    Args:
        total: Total channels M.
        load: Mean active-user count at the base station.

    Returns:
        Array of length total + 1; entry m equals reference_mbs_cost(m, total, load).
    """
    total = _check_count(total, "total")
    load = _check_mean(load)
    tails = [reference_poisson_tail(load, k) for k in range(1, total + 1)]
    table = np.zeros(total + 1)
    for m in range(1, total + 1):
        table[m] = math.fsum(tails[total - m:])
    return table


def reference_saturation_channels(mean: float, tol: float = 1e-12) -> int:
    """Smallest channel count whose tail probability drops below tol.

    Past this point every additional channel changes a utility by less than
    tol, so solvers can cap per-type choices here without moving an optimum
    resolved at coarser tolerance.

    Args:
        mean: Type whose saturation point is sought.
        tol: Tail threshold; defaults to 1e-12.

    Returns:
        The smallest k >= 1 with P(X >= k) < tol.
    """
    mean = _check_mean(mean)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    # The tail at ceil(mean) is order one; step forward from there.
    k = 1
    while reference_poisson_tail(mean, k) >= tol:
        k += 1
    return k


def reference_gain(ladder: TypeLadder, t: int, w: int) -> float:
    """Per-type decoupled revenue contribution of handing w channels to type t.

    G_t(w) = C_t * U(lam_t, w) - D_t * U(lam_{t+1}, w), where C_t counts
    operators of type t and above and D_t those strictly above. Summing
    G_t(w_t) over types and subtracting channel cost reproduces the revenue
    under optimal prices, which is what lets a knapsack-style solver
    optimize type by type.

    Args:
        ladder: The operator types.
        t: Type index, 0-based.
        w: Channel count to evaluate.

    Returns:
        G_t(w); zero when w is zero.

    Raises:
        ValueError: If t is out of range.
    """
    if not 0 <= t < ladder.size:
        raise ValueError(f"type index {t} out of range for {ladder.size} types")
    above = sum(ladder.counts[t:])
    strictly_above = above - ladder.counts[t]
    value = above * uav_utility(ladder.lambdas[t], w)
    if strictly_above > 0:
        value -= strictly_above * uav_utility(ladder.lambdas[t + 1], w)
    return value


# Means on both sides of the log-space switch, integers (where k == mean
# is a threshold of its own) and tiny means.
MEANS = st.one_of(
    st.floats(min_value=1e-3, max_value=2000.0, exclude_min=True),
    st.integers(min_value=1, max_value=2000).map(float),
    st.sampled_from(
        [1e-3, 0.5, 1.0, 699.0, 699.999, 700.0, 700.0000001, 700.5, 701.0, 2000.0]
    ),
)


def _thresholds(mean):
    """The k where the kernel switches branch, and their neighbours."""
    floor = math.floor(mean)
    return {0, 1, 2, max(floor - 1, 0), floor, floor + 1, floor + 2, floor + 40}


@settings(max_examples=150, deadline=None)
@given(mean=MEANS, extra=st.lists(st.integers(0, 3000), max_size=6))
def test_poisson_tail_matches_reference(mean, extra):
    for k in sorted(_thresholds(mean) | set(extra)):
        assert poisson_tail(mean, k) == reference_poisson_tail(mean, k), k


def test_poisson_tail_matches_reference_at_every_k():
    for mean in (1e-3, 0.5, 1.0, 3.0, 7.25, 10.0, 15.0, 30.0, 100.0, 701.0):
        for k in range(saturation_channels(mean, 1e-300) + 5):
            assert poisson_tail(mean, k) == reference_poisson_tail(mean, k), (mean, k)


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    load=st.one_of(
        st.floats(min_value=1e-3, max_value=60.0, exclude_min=True),
        st.integers(min_value=1, max_value=60).map(float),
        st.floats(min_value=695.0, max_value=760.0),
    ),
    total=st.integers(min_value=1, max_value=400),
)
@example(load=15.0, total=500)  # tails underflow through the denormals
@example(load=10.0, total=2500)
@example(load=900.0, total=1000)
@example(load=700.0, total=800)
def test_cost_table_matches_reference(load, total):
    table = cost_table(total, load)
    expected = reference_cost_table(total, load)
    assert table.dtype == expected.dtype
    assert table.tolist() == expected.tolist()


@settings(max_examples=30, deadline=None)
@given(data=st.data(), load=MEANS, total=st.integers(min_value=1, max_value=300))
@example(data=None, load=900.0, total=1000)
def test_mbs_cost_matches_reference(data, load, total):
    if data is None:
        solds = [0, 1, 99, 100, 101, 999, 1000]
    else:
        solds = data.draw(st.lists(st.integers(0, total), min_size=1, max_size=4))
    for sold in solds:
        assert mbs_cost(sold, total, load) == reference_mbs_cost(sold, total, load)


@settings(max_examples=40, deadline=None)
@given(
    mean=st.one_of(
        st.floats(min_value=1e-3, max_value=120.0, exclude_min=True),
        st.integers(min_value=1, max_value=120).map(float),
        st.sampled_from([699.5, 700.0, 700.5, 705.0]),
    ),
    tol=st.one_of(
        st.sampled_from([1e-12, 1e-300, 0.5]),
        st.floats(min_value=1e-15, max_value=0.99),
    ),
)
def test_saturation_channels_matches_reference(mean, tol):
    assert saturation_channels(mean, tol) == reference_saturation_channels(mean, tol)


@settings(max_examples=40, deadline=None)
@given(
    mean=st.floats(min_value=1e-3, max_value=60.0, exclude_min=True),
    k=st.integers(min_value=1, max_value=80),
)
def test_saturation_channels_at_a_tolerance_equal_to_a_tail(mean, k):
    tol = reference_poisson_tail(mean, k)
    if 0.0 < tol < 1.0:
        assert saturation_channels(mean, tol) == reference_saturation_channels(mean, tol)


@st.composite
def ladders(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    lambdas = draw(
        st.lists(
            st.one_of(
                st.floats(min_value=0.01, max_value=50.0),
                st.floats(min_value=690.0, max_value=720.0),
            ),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    counts = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    return TypeLadder(tuple(sorted(lambdas)), tuple(counts))


@settings(max_examples=60, deadline=None)
@given(ladder=ladders(), top=st.integers(min_value=0, max_value=40))
def test_gain_rows_match_per_cell_gain(ladder, top):
    revenue_rows = _gain_rows(ladder, Objective.MBS_REVENUE, top)
    welfare_rows = _gain_rows(ladder, Objective.SOCIAL_WELFARE, top)
    assert revenue_rows.shape == welfare_rows.shape == (ladder.size, top + 1)
    for t, (lam, count) in enumerate(zip(ladder.lambdas, ladder.counts)):
        for k in range(top + 1):
            assert revenue_rows[t, k] == reference_gain(ladder, t, k) == gain(ladder, t, k)
            assert welfare_rows[t, k] == count * uav_utility(lam, k)
