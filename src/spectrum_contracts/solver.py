"""Optimal menu search over monotone channel assignments.

The seller's problem reduces to choosing a nondecreasing channel vector
(w_1, ..., w_T) under the budget sum(N_t * w_t) <= M, because optimal
prices follow mechanically from the assignment.  This module solves that
combinatorial core two ways:

* ``solve_loads``: ``build_tables`` fills a layered dynamic program over
  types.  State (t, k, w) holds the best achievable value for types
  t..T when type t receives exactly k channels and w channels of budget
  remain for types t onward; monotonicity is enforced by restricting the
  next type to counts >= k.  One fill serves every budget W = 0..M.
  Then, for each base-station load in turn, ``solve_loads`` subtracts
  that load's expected congestion cost of selling W channels and keeps
  the best net value.  Only the cost row depends on the load, so a load
  sweep builds the tables once per objective; ``solve`` is the
  single-load case.  The per-W trace is retained so load curves can be
  plotted from a single run.
* ``brute_force_solve``: exhaustive enumeration used as a correctness
  oracle at small scale.

Candidates within ``TieBreak.eps`` of the best value count as tied, and
ties resolve toward the smaller channel count (smaller next-type count,
smaller count at extraction, smaller budget in the outer scan): every
selection picks the smallest index whose value lies within eps of the
exact maximum over its candidate set.  The exhaustive oracle applies
the identical rule to the identical suffix sums, so the two solvers
agree exactly even where utilities plateau below the tolerance.

Impossible states (not enough budget for the mandated counts) are
tracked explicitly: their stored value is an absorbing sentinel,
``IMPOSSIBLE``, that can never win a comparison against any achievable
value, and their decision entry is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .contract import (
    Contract,
    MbsLoad,
    QualityAssignment,
    TypeLadder,
    gain_from_utilities,
    optimal_prices,
    revenue,
    social_welfare,
)
from .stochastic import cost_table, saturation_channels, utility_table

IMPOSSIBLE = float("-inf")

DEFAULT_BRUTE_FORCE_CAP = 10_000_000


class Objective(Enum):
    """What the menu should maximize."""

    MBS_REVENUE = "mbs-revenue"
    SOCIAL_WELFARE = "social-welfare"


@dataclass(frozen=True)
class TieBreak:
    """Tolerance and direction used to resolve near-equal values.

    Candidates whose value lies within ``eps`` of the exact maximum of
    their candidate set count as tied with the best.  Ties go to the
    smallest channel count unless ``prefer_larger`` is set; the flag
    exists so the oracle checker can demonstrate that a deliberately
    wrong rule is caught, and is not useful otherwise.
    """

    eps: float = 1e-12
    prefer_larger: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")


# A deliberately broken rule for the oracle checker's negative control:
# the tolerance is wide enough to blur genuinely different values and
# the direction is reversed, so disagreement with the exhaustive oracle
# becomes visible on ordinary instances.
CORRUPT_TIE_BREAK = TieBreak(eps=0.05, prefer_larger=True)


@dataclass(frozen=True)
class DpTables:
    """Value and decision tables of one inner dynamic program.

    ``opt[t, k, w]`` is the best total gain for types t.. when type t
    takes exactly k channels out of a remaining budget of w.  States
    that cannot be realized hold the sentinel; ``decision`` gives the
    chosen count for type t+1 (0 where no choice exists), stored in the
    narrowest unsigned type that holds the cap K.
    """

    opt: np.ndarray
    decision: np.ndarray


@dataclass(frozen=True)
class TracePoint:
    """One budget step of the outer scan."""

    capacity: int
    inner_value: float
    objective_value: float


@dataclass(frozen=True)
class SolverResult:
    """Best contract found, its evaluation, and the per-budget trace."""

    contract: Contract
    revenue: float
    welfare: float
    sold: int
    trace: tuple[TracePoint, ...] = field(repr=False)


def _gain_rows(ladder: TypeLadder, objective: Objective, top: int) -> np.ndarray:
    """Per-type objective contribution for every count 0..top.

    Row t holds the seller's gain from assigning k channels to type t
    (information rents of higher types already netted out), or the raw
    served traffic N_t * U(lambda_t, k) for the welfare objective.  Each
    type's utilities come from one table, whose entry k is the value
    ``uav_utility`` returns, and the gain is formed by the evaluators' own
    formula elementwise, so solver values and evaluations agree bit for
    bit.
    """
    tables = [utility_table(lam, top) for lam in ladder.lambdas]
    if objective is Objective.MBS_REVENUE:
        rows = [
            gain_from_utilities(ladder, t, tables.__getitem__)
            for t in range(ladder.size)
        ]
    else:
        rows = [count * table for count, table in zip(ladder.counts, tables)]
    return np.array(rows, dtype=np.float64)


def _suffix_incumbents(
    values: np.ndarray, tie: TieBreak
) -> tuple[np.ndarray, np.ndarray]:
    """Exact suffix maxima and the tie-resolved pick of each suffix.

    For each (k, w), the first array holds max(values[k:, w]) exactly;
    the second holds the smallest row index in k..K whose value lies
    within eps of that maximum (greedily the largest such index under
    ``prefer_larger``).  Any value strictly above the tolerance band
    therefore decides the pick outright; eps only widens what counts as
    tied with the best.
    """
    rows, cols = values.shape
    best_val = np.empty((rows, cols), dtype=np.float64)
    best_idx = np.empty((rows, cols), dtype=np.int64)
    best_val[rows - 1] = values[rows - 1]
    best_idx[rows - 1] = rows - 1
    if tie.prefer_larger:
        pick_val = values[rows - 1].copy()
        for k in range(rows - 2, -1, -1):
            cur = values[k]
            new_max = np.maximum(cur, best_val[k + 1])
            keep = pick_val >= new_max - tie.eps
            best_idx[k] = np.where(keep, best_idx[k + 1], k)
            pick_val = np.where(keep, pick_val, cur)
            best_val[k] = new_max
    else:
        for k in range(rows - 2, -1, -1):
            cur = values[k]
            # If cur is the new maximum the comparison holds trivially,
            # so one test covers both the new-max and the tied case.
            take = cur >= best_val[k + 1] - tie.eps
            best_idx[k] = np.where(take, k, best_idx[k + 1])
            best_val[k] = np.maximum(cur, best_val[k + 1])
    return best_val, best_idx


def build_tables(
    ladder: TypeLadder,
    objective: Objective,
    W: int,
    K: int,
    tie: TieBreak | None = None,
) -> DpTables:
    """Fill the layered value/decision tables for budget W and cap K."""
    if not isinstance(W, int) or isinstance(W, bool) or W < 0:
        raise ValueError(f"W must be a nonnegative integer, got {W!r}")
    if not isinstance(K, int) or isinstance(K, bool) or K < 0:
        raise ValueError(f"K must be a nonnegative integer, got {K!r}")
    if K > W:
        raise ValueError(f"per-type cap K={K} must not exceed the budget W={W}")
    if tie is None:
        tie = TieBreak()
    T = ladder.size
    counts = ladder.counts
    gains = _gain_rows(ladder, objective, K)
    opt = np.full((T, K + 1, W + 1), IMPOSSIBLE, dtype=np.float64)
    decision = np.zeros((T, K + 1, W + 1), dtype=np.min_scalar_type(K))

    for k in range(K + 1):
        need = k * counts[T - 1]
        if need <= W:
            opt[T - 1, k, need:] = gains[T - 1, k]

    for t in range(T - 2, -1, -1):
        nxt_val, nxt_idx = _suffix_incumbents(opt[t + 1], tie)
        for k in range(K + 1):
            need = k * counts[t]
            if need > W:
                break
            width = W - need + 1
            cont_val = nxt_val[k, :width]
            cont_idx = nxt_idx[k, :width]
            reachable = cont_val != IMPOSSIBLE
            opt[t, k, need:] = np.where(
                reachable, gains[t, k] + cont_val, IMPOSSIBLE
            )
            decision[t, k, need:] = np.where(reachable, cont_idx, 0)
    return DpTables(opt=opt, decision=decision)


def _backtrack(
    tables: DpTables, counts: tuple[int, ...], first_k: int, W: int
) -> QualityAssignment:
    T = tables.opt.shape[0]
    w_vec = []
    k, w = first_k, W
    for t in range(T):
        w_vec.append(k)
        if t < T - 1:
            nxt = int(tables.decision[t, k, w])
            w -= k * counts[t]
            k = nxt
    return QualityAssignment(tuple(w_vec))


def saturation_cap(ladder: TypeLadder, tol: float = 1e-12) -> int:
    """Smallest count at which every type's utility has flattened out.

    Beyond this count the busiest type gains less than ``tol`` per extra
    channel, so larger assignments cannot change any optimum.
    """
    return saturation_channels(max(ladder.lambdas), tol)


def _scan_preferred(net: np.ndarray, tie: TieBreak) -> int:
    """Smallest index within eps of the maximum (largest if reversed)."""
    tied = net >= net.max() - tie.eps
    if tie.prefer_larger:
        return net.shape[0] - 1 - int(np.argmax(tied[::-1]))
    return int(np.argmax(tied))


def solve_loads(
    ladder: TypeLadder,
    total_channels: int,
    loads: Iterable[float],
    objective: Objective,
    *,
    use_k_cap: bool = True,
    tie: TieBreak | None = None,
) -> Iterator[SolverResult]:
    """Best feasible menu at each base-station load, by exact search.

    Fills the inner program once across all budgets W = 0..M, then for
    each load nets out the congestion cost of parting with W channels
    and prices the winning assignment.  One shared table serves every
    budget: a column-w extraction of the full-width table is identical
    to a dedicated width-w table because over-budget states are
    impossible and can never win an extraction.  The table does not
    depend on the load either, so it serves every load; results are
    yielded one at a time and the table is freed when the loads run
    out.  With ``use_k_cap`` the per-type counts are additionally capped
    at the saturation point of the busiest type, which leaves all optima
    unchanged but removes the quartic blowup in the channel budget.
    """
    if tie is None:
        tie = TieBreak()
    M = total_channels
    K = min(M, saturation_cap(ladder)) if use_k_cap else M
    tables = build_tables(ladder, objective, M, K, tie)
    top_val, top_idx = _suffix_incumbents(tables.opt[0], tie)
    inner_vals = top_val[0]
    for load in loads:
        mbs = MbsLoad(M, load)
        net = inner_vals - cost_table(M, mbs.load)
        best_w = _scan_preferred(net, tie)
        trace = tuple(
            TracePoint(
                capacity=w,
                inner_value=float(inner_vals[w]),
                objective_value=float(net[w]),
            )
            for w in range(M + 1)
        )
        assignment = _backtrack(
            tables, ladder.counts, int(top_idx[0, best_w]), best_w
        )
        yield _package(ladder, mbs, assignment, trace)


def solve(
    ladder: TypeLadder,
    mbs: MbsLoad,
    objective: Objective,
    *,
    use_k_cap: bool = True,
    tie: TieBreak | None = None,
) -> SolverResult:
    """Best feasible menu for the given supply: ``solve_loads`` at one load."""
    return next(
        solve_loads(
            ladder,
            mbs.total_channels,
            (mbs.load,),
            objective,
            use_k_cap=use_k_cap,
            tie=tie,
        )
    )


def _package(
    ladder: TypeLadder,
    mbs: MbsLoad,
    assignment: QualityAssignment,
    trace: tuple[TracePoint, ...],
) -> SolverResult:
    contract = Contract(assignment, optimal_prices(ladder, assignment))
    sold = sum(c * w for c, w in zip(ladder.counts, assignment.w))
    return SolverResult(
        contract=contract,
        revenue=revenue(ladder, contract, mbs),
        welfare=social_welfare(ladder, assignment, mbs),
        sold=sold,
        trace=trace,
    )


def count_monotone_assignments(ladder: TypeLadder, budget: int) -> int:
    """Number of nondecreasing count vectors affordable within budget."""
    counts = ladder.counts
    T = ladder.size

    @lru_cache(maxsize=None)
    def tail(t: int, k_min: int, left: int) -> int:
        if t == T:
            return 1
        total = 0
        k = k_min
        while k * counts[t] <= left:
            total += tail(t + 1, k, left - k * counts[t])
            k += 1
        return total

    result = tail(0, 0, budget)
    tail.cache_clear()
    return result


def _enumerate_monotone(
    counts: tuple[int, ...], budget: int
) -> Iterator[tuple[int, ...]]:
    """All nondecreasing count vectors within budget, lexicographic order."""
    T = len(counts)
    prefix: list[int] = []

    def rec(t: int, k_min: int, left: int) -> Iterator[tuple[int, ...]]:
        if t == T:
            yield tuple(prefix)
            return
        k = k_min
        while k * counts[t] <= left:
            prefix.append(k)
            yield from rec(t + 1, k, left - k * counts[t])
            prefix.pop()
            k += 1

    yield from rec(0, 0, budget)


def _select_assignment(
    gains: np.ndarray, counts: tuple[int, ...], budget: int, tie: TieBreak
) -> QualityAssignment:
    """Tie-resolved best assignment within budget, by exhaustive maxima.

    Walks the types in order; at each one, computes the exact best
    continuation value of every affordable count by brute recursion and
    commits to the smallest count within eps of the best (largest under
    ``prefer_larger``).  The sums are accumulated in the same order as
    the dynamic program's table fill, so the picks agree exactly.
    """
    T = len(counts)

    @lru_cache(maxsize=None)
    def branch_best(t: int, k_min: int, left: int) -> float:
        if t == T:
            return 0.0
        best = IMPOSSIBLE
        k = k_min
        while k * counts[t] <= left:
            cont = branch_best(t + 1, k, left - k * counts[t])
            if cont != IMPOSSIBLE:
                value = float(gains[t, k]) + cont
                if value > best:
                    best = value
            k += 1
        return best

    w_vec: list[int] = []
    k_min, left = 0, budget
    for t in range(T):
        options: dict[int, float] = {}
        k = k_min
        while k * counts[t] <= left:
            cont = branch_best(t + 1, k, left - k * counts[t])
            if cont != IMPOSSIBLE:
                options[k] = float(gains[t, k]) + cont
            k += 1
        top = max(options.values())
        tied = [k for k, v in options.items() if v >= top - tie.eps]
        pick = max(tied) if tie.prefer_larger else min(tied)
        w_vec.append(pick)
        left -= pick * counts[t]
        k_min = pick
    branch_best.cache_clear()
    return QualityAssignment(tuple(w_vec))


def brute_force_solve(
    ladder: TypeLadder,
    mbs: MbsLoad,
    objective: Objective,
    *,
    cap: int = DEFAULT_BRUTE_FORCE_CAP,
    tie: TieBreak | None = None,
) -> SolverResult:
    """Exhaustive oracle: score every affordable monotone assignment.

    Refuses instances whose search space exceeds ``cap`` assignments.
    Uses the same per-type value rows and the same tie-break rule as the
    dynamic program, so on tractable instances the two must agree
    exactly, which is what the oracle checker verifies.
    """
    if tie is None:
        tie = TieBreak()
    M = mbs.total_channels
    space = count_monotone_assignments(ladder, M)
    if space > cap:
        raise ValueError(
            f"search space of {space} monotone assignments exceeds the cap {cap}"
        )
    gains = _gain_rows(ladder, objective, M)
    costs = cost_table(mbs.total_channels, mbs.load)
    counts = ladder.counts
    T = ladder.size

    # Best gross value among assignments selling exactly s channels.
    by_sold = np.full(M + 1, IMPOSSIBLE, dtype=np.float64)
    for w_vec in _enumerate_monotone(counts, M):
        sold = sum(c * w for c, w in zip(counts, w_vec))
        value = 0.0
        for t in range(T - 1, -1, -1):
            value = float(gains[t, w_vec[t]]) + value
        if value > by_sold[sold]:
            by_sold[sold] = value

    inner = np.maximum.accumulate(by_sold)
    net = inner - np.asarray(costs)
    best_w = _scan_preferred(net, tie)
    trace = tuple(
        TracePoint(
            capacity=w,
            inner_value=float(inner[w]),
            objective_value=float(net[w]),
        )
        for w in range(M + 1)
    )
    assignment = _select_assignment(gains, counts, best_w, tie)
    return _package(ladder, mbs, assignment, trace)
