"""Single Poisson probabilities for the tests, read from the package kernel.

A run never asks for one pmf term or one tail: the package tabulates
whole rows through ``stochastic._terms`` and ``stochastic._tails``.
These wrappers take one value from the same generators, behind the same
argument checks the tables use, so the tests probe the kernel itself.
"""

from spectrum_contracts.stochastic import _check_count, _check_mean, _tails, _terms


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
