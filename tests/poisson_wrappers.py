"""Single Poisson values for the tests, read from the package kernel.

A run never asks for one pmf term, one tail or one utility: the package
tabulates whole rows through ``stochastic._terms``, ``stochastic._tails``
and ``stochastic._utilities``.  These wrappers take one value from the
same generators, behind the same argument checks the tables use, so the
tests probe the kernel itself.  ``uav_utility`` is also the reference
the pricing and scoring evaluators, which read utility tables, are
checked against.
"""

from itertools import count, islice

from spectrum_contracts.stochastic import (
    _check_count,
    _check_mean,
    _tails,
    _terms,
    _upper_sum,
    _utilities,
)


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
    return next(_terms(mean, k))


def poisson_tail(mean: float, k: int) -> float:
    """Upper tail P(X >= k) for a Poisson variable with the given mean.

    For k at or below the mean the tail is computed as one minus the lower
    cumulative sum, read from ``_tails``; above the mean the upper sum is
    accumulated directly from term k, as ``_tails`` does there, which keeps
    the result strictly positive and strictly decreasing in k far into the
    tail.  Neither path steps through the upper sums below k.

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
        return next(islice(_tails(mean), k - 1, None))
    return _upper_sum(mean, k, next(_terms(mean, k)))


def tail_drops_below(mean: float, tol: float) -> int:
    """Smallest k >= 1 with P(X >= k) < tol, for any threshold tol in (0, 1].

    ``stochastic.saturation_channels`` is this at tol = 1e-12, scanned up
    to a limit.
    """
    return next(k for k in count(1) if poisson_tail(mean, k) < tol)


def uav_utility(mean: float, channels: int) -> float:
    """Expected users served by an operator of the given type holding channels.

    Equals ``sum_{k=1..w} P(X >= k)``: the expected value of ``min(X, w)``.
    Zero channels serve nobody; as the channel count grows the utility
    saturates at the mean itself.

    Args:
        mean: Type of the operator (mean active-user count).
        channels: Number of channels held, w >= 0.

    Returns:
        U(mean, channels), non-negative, strictly below the mean, and
        equal to entry ``channels`` of ``utility_table``.

    Raises:
        ValueError: If the mean is not positive and finite, or the
            channel count is not a non-negative integer.
    """
    return _utilities(_check_mean(mean), _check_count(channels, "channels"))[-1]
