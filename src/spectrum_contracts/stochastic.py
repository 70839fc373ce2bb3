"""Poisson tail probabilities and the utility and cost functions built on them.

Active-user counts are modeled as Poisson random variables. A transmitter
holding ``w`` channels serves ``min(X, w)`` users, so its expected service
rate is ``U(lam, w) = sum_{k=1..w} P(X_lam >= k)``. The base station's cost
of selling ``m`` of its ``M`` channels is the expected service it gives up,
``C(m) = U_BS(M) - U_BS(M - m)``.

Every probability mass ``term(k) = P(X = k)`` comes from one generator,
``_terms``, the only place that decides how a term is made: as
``term(k-1) * lam / k``, started at ``exp(-lam)`` so no factorial is ever
formed, or, for means large enough to underflow ``exp(-lam)``, from log
space, each term on its own.

The tails P(X >= k) for k = 1, 2, ... come from ``_tails``, one forward
pass over those terms from k = 0 that carries the sum of the terms below
k. Up to the mean the tail is one minus that running sum; above the mean
it is summed upward from ``term(k)`` to convergence, which keeps it
strictly positive far into the tail. The running sum is compensated,
or, in log space, kept exactly, as an integer count of ``2**-1074``
(every finite float is one), and rounded once per tail.

``cost_table`` sums the same tails from the top down, again exactly, so
each entry is the correctly rounded suffix sum at O(1) extra cost per
entry; the cost of selling ``m`` channels is its entry ``m``, and
selling more than ``M`` fails at that lookup. ``utility_table`` makes
one cumulative pass over the same terms, taking every tail as one minus
the compensated sum of the terms below it; a shorter table is a
bit-identical prefix of a longer one, so one table per type, as long as
the largest count any caller reads, serves every U(lam, w) of a run.

A cost row with at least ``_LOCKSTEP_LANES`` channels above its load
sums those upper tails in lock-step (``_lockstep_sums``): one numpy pass
per step over every unfinished tail, each taking ``_upper_sum``'s float
operations in the same order and read at the state where ``_upper_sum``
would stop. So every tail, and so every entry, is bit-identical to the
per-tail loop that narrower rows keep.
"""

from __future__ import annotations

import math
from itertools import count, islice
from typing import Iterator

import numpy as np

__all__ = [
    "utility_table",
    "cost_table",
    "saturation_channels",
]

# exp(-mean) underflows to 0.0 past this point; switch to log space there.
_LOG_SPACE_MEAN = 700.0

# Every finite float is an integer multiple of 2**-1074, so sums kept in
# these units are exact, and int / int true division rounds them correctly.
_UNITS = 1 << 1074

# Rows with at least this many channels above the load sum their upper
# tails in lock-step (``_lockstep_sums``); narrower rows loop per tail.
# Measured crossover (upper tails alone, 2-CPU x86 box): at means 5 to
# 450 lock-step ran at 0.23-0.27x the loop's speed at 7 lanes, 0.85-0.99x
# at 40, 0.71-1.26x at 50, 1.00-1.37x at 56, 1.17-1.46x at 64 and
# 1.37-1.89x at 100; in log space (means 705 to 1,500) at 0.21-0.24x,
# 1.06-1.25x, 1.26-1.35x, 1.30-1.58x, 1.41-1.85x and 2.00-2.43x.  64 is
# the smallest width measured at which every mean gained.
_LOCKSTEP_LANES = 64

# A lock-step chunk runs at most this many steps between stop tests, and
# each of its buffers holds at most about this many bytes (or one row of
# lanes, if that is more).
_CHUNK_STEPS = 32
_CHUNK_BYTES = 1 << 20

# A type saturates at the first count whose tail drops below this.
_SATURATION_TAIL = 1e-12


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
    # The denominator is a power of two, 2**(bit_length - 1).
    return numerator << (1075 - denominator.bit_length())


def _terms(mean: float, first: int = 0) -> Iterator[float]:
    """Poisson pmf terms P(X = k) for k = first, first + 1, ...

    The only producer of terms (an upward tail sum continues the
    recurrence from a term taken from here).  Below the log-space switch
    each term is the previous one times mean / k, started at exp(-mean),
    so the terms below ``first`` are stepped through; above it, where
    exp(-mean) underflows, each term comes from log space on its own.
    """
    if mean > _LOG_SPACE_MEAN:
        for k in count(first):
            yield math.exp(_log_pmf(mean, k))
    term = math.exp(-mean)
    for k in range(1, first + 1):
        term *= mean / k
    for k in count(first + 1):
        yield term
        term *= mean / k


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


def _lockstep_sums(mean: float, first: int, lanes: int) -> np.ndarray:
    """``_upper_sum`` for k = first .. first + lanes - 1, every k in step.

    Each k is a lane that starts from its term from ``_terms``, and every
    live lane takes ``_upper_sum``'s step (the same float operations in
    the same order) at once, in numpy.  A chunk of steps runs without
    stop tests and keeps each lane's terms and totals; afterwards each
    lane's result is read at its first state that fails ``_upper_sum``'s
    loop condition, so steps a lane takes past its stop change nothing.
    Finished lanes are dropped from the top, where the tails fall fastest.
    """
    start = np.fromiter(islice(_terms(mean, first), lanes), np.float64, lanes)
    sums = np.zeros(lanes)
    # A lane whose first term is 0.0 stops at its first state with sum
    # 0.0, so the lanes above the last nonzero one never run.
    running = np.flatnonzero(start)
    live = int(running[-1]) + 1 if running.size else 0
    # Lane j, s steps on, sits at i = first + j + s, and i < mean + 2
    # holds exactly when j + s < near.
    near = math.ceil(mean + 2) - first
    steps = max(1, min(_CHUNK_STEPS, _CHUNK_BYTES // (8 * max(live, 1))))
    # Every buffer the chunks use is made here, and as lanes finish a
    # chunk works on a prefix of each.  Arrays made afresh in each chunk
    # fragmented the heap: over 30 repeats of six solves (M 200 to 2,000)
    # the peak RSS crept up by 2-3 MB, which this layout does not.
    state = np.empty((2, (steps + 1) * live))
    scaled = np.empty(steps * live)
    tests = np.empty((2, steps * live), dtype=bool)
    lane = np.arange(live)
    at = np.empty((2, live), dtype=np.intp)
    flags = np.zeros((2, live), dtype=bool)
    floats = np.zeros((3, live))
    total = term = start[:live]
    s = 0
    while live:
        comp, y, picked = floats[:, :live]
        done, newly = flags[:, :live]
        stop, flat = at[:, :live]
        totals = state[0, : (steps + 1) * live].reshape(steps + 1, live)
        totals[0] = total
        # Row r + 1 is the step's factor mean / i; multiplying the rows up
        # in order gives each lane's terms, as ``term *= mean / i`` does.
        history = state[1, : (steps + 1) * live].reshape(steps + 1, live)
        history[0] = term
        np.add.outer(
            np.arange(s + 1, s + steps + 1, dtype=np.float64),
            np.arange(first, first + live, dtype=np.float64),
            out=history[1:],
        )
        np.divide(mean, history[1:], out=history[1:])
        np.multiply.accumulate(history, axis=0, out=history)
        for prev, now, step_term in zip(totals, totals[1:], history[1:]):
            np.subtract(step_term, comp, out=y)
            np.add(prev, y, out=now)
            np.subtract(now, prev, out=comp)
            comp -= y
        # The states s .. s + steps - 1; the last one opens the next chunk.
        seen_terms, seen_totals = history[:steps], totals[:steps]
        going, positive = (row[: steps * live].reshape(steps, live) for row in tests)
        bound = scaled[: steps * live].reshape(steps, live)
        np.multiply(seen_totals, 1e-18, out=bound)
        np.greater(seen_terms, bound, out=going)
        # Near the mean a state with a positive term goes on regardless.
        for r in range(min(near - s, steps)):
            going[r, : near - s - r] = True
        going &= np.greater(seen_terms, 0.0, out=positive)
        # Each lane's first stopping state; the lane is newly done if that
        # state is in this chunk and it was not done before.
        going.argmin(axis=0, out=stop)
        np.multiply(stop, live, out=flat)
        flat += lane[:live]
        np.take(going.reshape(-1), flat, out=newly)
        np.logical_not(newly, out=newly)
        np.greater(newly, done, out=newly)
        np.take(seen_totals.reshape(-1), flat, out=picked)
        np.minimum(picked, 1.0, out=picked)
        np.copyto(sums[:live], picked, where=newly)
        done |= newly
        s += steps
        # Drop the finished lanes at the top.
        live = 0 if done.all() else live - int(done[::-1].argmin())
        total = totals[steps, :live]
        term = history[steps, :live]
    return sums


def _tails(mean: float) -> Iterator[float]:
    """P(X >= k) for k = 1, 2, ... in one forward pass from k = 0.

    Up to the mean the sum of the terms below k is carried along, so each
    tail costs O(1); above it each tail is summed upward from its term.
    The running sum is compensated, or exact in log space.
    """
    exact = mean > _LOG_SPACE_MEAN
    below = 0 if exact else 0.0
    comp = 0.0
    for k, term in enumerate(_terms(mean)):
        if k > mean:
            yield _upper_sum(mean, k, term)
            continue
        if k:
            yield max(1.0 - (below / _UNITS if exact else below), 0.0)
        if exact:
            below += _units(term)
        else:
            y = term - comp
            t = below + y
            comp = (t - below) - y
            below = t


def _utilities(mean: float, max_channels: int) -> list[float]:
    """U(mean, 0..max_channels) in one cumulative pass over the terms.

    Each tail is one minus the compensated sum of the terms below it,
    and the utilities are its compensated running sum.  A list, because
    per-entry stores into an array cost more.
    """
    table = [0.0]
    cdf = cdf_comp = total = total_comp = 0.0
    for term in islice(_terms(mean), max_channels):
        y = term - cdf_comp
        t = cdf + y
        cdf_comp = (t - cdf) - y
        cdf = t
        tail = max(1.0 - cdf, 0.0)
        y = tail - total_comp
        t = total + y
        total_comp = (t - total) - y
        total = t
        table.append(total)
    return table


def utility_table(mean: float, max_channels: int) -> np.ndarray:
    """Utilities U(mean, 0..max_channels) in one cumulative pass.

    Args:
        mean: Type of the operator.
        max_channels: Largest channel count to tabulate.

    Returns:
        Array of length max_channels + 1 with entry w equal to U(mean, w).
    """
    return np.array(
        _utilities(_check_mean(mean), _check_count(max_channels, "max_channels"))
    )


def cost_table(total: int, load: float) -> np.ndarray:
    """Costs C(0..total) for a base station with the given size and load.

    Selling m of M channels removes the tail terms
    ``P(X_BS >= M-m+1) .. P(X_BS >= M)`` from the station's utility, so
    entry m is the correctly rounded sum of the top m tails, accumulated
    exactly from the top down.  The tails up to the load come from one
    running sum.  Those above it are summed upward from their terms:
    one tail at a time when fewer than ``_LOCKSTEP_LANES`` channels lie
    above the load, where numpy's per-call cost outweighs the work, and
    all together in lock-step otherwise.  Both take the same float
    steps and stop at the same state, so the row is the same either way.

    Args:
        total: Total channels M.
        load: Mean active-user count at the base station.

    Returns:
        Array of length total + 1; entry m is C(m) >= 0, strictly
        increasing and convex in m.
    """
    total = _check_count(total, "total")
    load = _check_mean(load)
    below = min(math.floor(load), total)
    if total - below < _LOCKSTEP_LANES:
        tails = list(islice(_tails(load), total))
    else:
        tails = list(islice(_tails(load), below))
        tails.extend(_lockstep_sums(load, below + 1, total - below).tolist())
    row = [0.0]
    exact = 0
    for tail in reversed(tails):
        if tail:
            exact += _units(tail)
            row.append(exact / _UNITS)
        else:
            row.append(row[-1])
    return np.array(row)


def saturation_channels(mean: float, limit: int) -> int:
    """Smallest channel count whose tail probability drops below 1e-12.

    Past this point each additional channel adds less than 1e-12 to the
    utility.  That is not nothing: rounding-level amounts can still move a
    value across a tie band, so a cap here can change an optimum (see
    ``solver.solve_loads``).

    Args:
        mean: Type whose saturation point is sought.
        limit: Scan at most this many tails, and return ``limit`` when
            none of them drops below the threshold.

    Returns:
        The smallest k >= 1 with P(X >= k) < 1e-12, or ``limit`` if that
        is smaller.
    """
    mean = _check_mean(mean)
    limit = _check_count(limit, "limit")
    for k, tail in enumerate(islice(_tails(mean), limit), start=1):
        if tail < _SATURATION_TAIL:
            return k
    return limit
