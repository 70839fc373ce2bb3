"""Poisson tail probabilities and the utility and cost functions built on them.

Active-user counts are modeled as Poisson random variables. A transmitter
holding ``w`` channels serves ``min(X, w)`` users, so its expected service
rate is ``U(lam, w) = sum_{k=1..w} P(X_lam >= k)``. The base station's cost
of selling ``m`` of its ``M`` channels is the expected service it gives up,
``C(m) = U_BS(M) - U_BS(M - m)``.

Tail probabilities come from one forward pass over k = 0, 1, 2, ...
that carries the probability mass ``term(k) = term(k-1) * lam / k``,
started at ``exp(-lam)`` so no factorial is ever formed, together with the
compensated sum of the terms below k. Up to the mean the tail is one minus
that running sum; above the mean it is summed upward from ``term(k)`` to
convergence, which keeps it strictly positive far into the tail. Means
large enough to underflow ``exp(-lam)`` take each term from log space
instead, and their running sum is kept exactly, as an integer count of
``2**-1074`` (every finite float is one), and rounded once per tail.

``cost_table`` sums the same tails from the top down, again exactly, so
each entry is the correctly rounded suffix sum at O(1) extra cost per
entry. ``utility_table`` runs its own cumulative pass, taking every tail
as one minus the compensated sum below it.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator

import numpy as np

__all__ = [
    "poisson_pmf",
    "poisson_tail",
    "uav_utility",
    "utility_table",
    "mbs_cost",
    "cost_table",
    "saturation_channels",
]

# exp(-mean) underflows to 0.0 past this point; switch to log space there.
_LOG_SPACE_MEAN = 700.0

# Every finite float is an integer multiple of 2**-1074, so sums kept in
# these units are exact, and int / int true division rounds them correctly.
_UNITS = 1 << 1074


def _check_mean(mean: float) -> float:
    mean = float(mean)
    if not math.isfinite(mean) or mean <= 0.0:
        raise ValueError(f"mean must be a positive finite number, got {mean}")
    return mean


def _check_count(value: int, name: str) -> int:
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float) or isinstance(value, np.floating):
        if not float(value).is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def _log_pmf(mean: float, k: int) -> float:
    return -mean + k * math.log(mean) - math.lgamma(k + 1)


def _units(value: float) -> int:
    """A finite float as an exact integer count of 2**-1074."""
    numerator, denominator = value.as_integer_ratio()
    return numerator * (_UNITS // denominator)


def poisson_pmf(mean: float, k: int) -> float:
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


def _upper_sum(mean: float, k: int, term: float) -> float:
    """Compensated sum of pmf terms k, k+1, ... to convergence from term(k)."""
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


def _tails(mean: float, start: int) -> Iterator[float]:
    """P(X >= k) for k = start, start + 1, ... in one forward pass.

    Below the mean the running sum of the terms under k is carried along,
    so each tail costs O(1); above it each requested tail is summed upward
    from the running term. Terms for k below ``start`` are still stepped
    through where the running state needs them, but no upward sum is run
    for them.
    """
    k = 0
    if mean > _LOG_SPACE_MEAN:
        below = 0
        # Log-space terms need no running product, so a pass that starts
        # above the mean skips the lower sum altogether.
        while k <= mean and start <= mean:
            if k >= start:
                yield max(1.0 - below / _UNITS, 0.0)
            below += _units(math.exp(_log_pmf(mean, k)))
            k += 1
        k = max(k, start)
        while True:
            yield _upper_sum(mean, k, math.exp(_log_pmf(mean, k)))
            k += 1
    term = math.exp(-mean)
    below = 0.0
    comp = 0.0
    while k <= mean:
        if k >= start:
            yield max(1.0 - below, 0.0)
        y = term - comp
        t = below + y
        comp = (t - below) - y
        below = t
        k += 1
        term *= mean / k
    while True:
        if k >= start:
            yield _upper_sum(mean, k, term)
        k += 1
        term *= mean / k


def poisson_tail(mean: float, k: int) -> float:
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
    return next(_tails(mean, k))


def uav_utility(mean: float, channels: int) -> float:
    """Expected users served by an operator of the given type holding channels.

    Equals ``sum_{k=1..w} P(X >= k)``: the expected value of ``min(X, w)``.
    Zero channels serve nobody; as the channel count grows the utility
    saturates at the mean itself.

    Args:
        mean: Type of the operator (mean active-user count).
        channels: Number of channels held, w >= 0.

    Returns:
        U(mean, channels), non-negative, strictly below the mean.

    Raises:
        ValueError: Propagated from tail evaluation on bad inputs.
    """
    channels = _check_count(channels, "channels")
    return float(utility_table(mean, channels)[channels])


def utility_table(mean: float, max_channels: int) -> np.ndarray:
    """Utilities U(mean, 0..max_channels) in one cumulative pass.

    Args:
        mean: Type of the operator.
        max_channels: Largest channel count to tabulate.

    Returns:
        Array of length max_channels + 1 with entry w equal to U(mean, w).
    """
    mean = _check_mean(mean)
    max_channels = _check_count(max_channels, "max_channels")
    table = np.zeros(max_channels + 1)
    if max_channels == 0:
        return table
    log_space = mean > _LOG_SPACE_MEAN
    term = math.exp(-mean) if not log_space else math.exp(_log_pmf(mean, 0))
    cdf = term
    cdf_comp = 0.0
    total = 0.0
    total_comp = 0.0
    for w in range(1, max_channels + 1):
        tail = max(1.0 - cdf, 0.0)
        y = tail - total_comp
        t = total + y
        total_comp = (t - total) - y
        total = t
        table[w] = total
        if log_space:
            term = math.exp(_log_pmf(mean, w))
        else:
            term *= mean / w
        y = term - cdf_comp
        t = cdf + y
        cdf_comp = (t - cdf) - y
        cdf = t
    return table


def mbs_cost(sold: int, total: int, load: float) -> float:
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
    return math.fsum(islice(_tails(load, total - sold + 1), sold))


def cost_table(total: int, load: float) -> np.ndarray:
    """Costs C(0..total) for a base station with the given size and load.

    Entry m is the correctly rounded sum of the top m tails, accumulated
    exactly from the top down, so it equals mbs_cost(m, total, load) bit
    for bit.

    Args:
        total: Total channels M.
        load: Mean active-user count at the base station.

    Returns:
        Array of length total + 1; entry m equals mbs_cost(m, total, load).
    """
    total = _check_count(total, "total")
    load = _check_mean(load)
    tails = list(islice(_tails(load, 1), total))
    table = np.zeros(total + 1)
    exact = 0
    for m in range(1, total + 1):
        exact += _units(tails[total - m])
        table[m] = exact / _UNITS
    return table


def saturation_channels(
    mean: float, tol: float = 1e-12, *, limit: int | None = None
) -> int:
    """Smallest channel count whose tail probability drops below tol.

    Past this point every additional channel changes a utility by less than
    tol, so solvers can cap per-type choices here without moving an optimum
    resolved at coarser tolerance.

    Args:
        mean: Type whose saturation point is sought.
        tol: Tail threshold; defaults to 1e-12.
        limit: If given, scan at most this many tails and return ``limit``
            when none of them drops below tol, which gives
            ``min(limit, saturation_channels(mean, tol))``.

    Returns:
        The smallest k >= 1 with P(X >= k) < tol (or ``limit``, if smaller).
    """
    mean = _check_mean(mean)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    tails = _tails(mean, 1)
    if limit is not None:
        tails = islice(tails, _check_count(limit, "limit"))
    for k, tail in enumerate(tails, start=1):
        if tail < tol:
            return k
    return limit
