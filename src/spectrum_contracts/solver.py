"""Optimal menu search over monotone channel assignments.

The seller's problem reduces to choosing a nondecreasing channel vector
(w_1, ..., w_T) under the budget sum(N_t * w_t) <= M, because optimal
prices follow mechanically from the assignment.  This module solves that
combinatorial core two ways:

* ``solve_loads``: ``build_tables`` fills a layered dynamic program over
  types.  State (t, k, w) holds the best achievable value for types
  t..T when type t receives exactly k channels and w channels of budget
  remain for types t onward; monotonicity is enforced by restricting the
  next type to counts >= k.  Layer t is computed from layer t+1 alone,
  so only two value layers are held at a time, plus every layer's
  decisions for the backtrack, and only the states a budget can reach
  are filled.  One fill serves every budget W = 0..M.
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
    revenue_at_cost,
    total_weight,
    welfare_at_cost,
)
from .stochastic import cost_table, saturation_channels, utility_table

IMPOSSIBLE = float("-inf")

DEFAULT_BRUTE_FORCE_CAP = 10_000_000

# Largest DP working set one ``build_tables`` call will allocate, in bytes
# (512 MiB).  With the saturation cap the largest ladders in use need about
# 25 MB (T=100, M=2000, K=93), so only uncapped fills of large ladders come
# near it; those cannot change the optimum, and the capped run gives the
# same result.  The limit is per fill: a pooled height sweep holds one fill
# per worker at once.
MAX_TABLE_BYTES = 512 * 2**20


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
    """First-type values and all decisions of one inner dynamic program.

    ``opt[k, w]`` is the best total gain over every type when the first
    type takes exactly k channels out of a budget of w.  States that
    cannot be realized hold the sentinel.  ``decision[t, k, w]`` gives
    the chosen count for type t+1 when type t takes k channels out of a
    remaining budget of w (0 where no choice exists), stored in the
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
    """Best contract found, its evaluation, and the per-budget values.

    ``inner_values[w]`` is the best gross value within budget w and
    ``objective_values[w]`` that value net of the cost of selling w
    channels; ``trace`` pairs them per budget.
    """

    contract: Contract
    revenue: float
    welfare: float
    sold: int
    inner_values: tuple[float, ...] = field(repr=False)
    objective_values: tuple[float, ...] = field(repr=False)

    @property
    def trace(self) -> tuple[TracePoint, ...]:
        return tuple(
            TracePoint(capacity=w, inner_value=inner, objective_value=net)
            for w, (inner, net) in enumerate(
                zip(self.inner_values, self.objective_values)
            )
        )


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


def _suffix_scan(
    values: np.ndarray, rest: int, tie: TieBreak
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Running suffix maxima and tie-resolved picks of the rows of values.

    ``values`` is (K+1) x (W+1), and row j may hold a value other than
    ``IMPOSSIBLE`` only in the columns w >= j*rest (with rest 0, in every
    column).  The scan starts at the top row that can hold one,
    min(K, W // rest), and walks down.  After step k it yields
    (k, best, pick), where for every column w >= k*rest best[w] is
    max(values[k:, w]) exactly and pick[w] is the smallest row in k..K
    whose value lies within eps of it (greedily the largest such row
    under ``prefer_larger``).  Any value strictly above the tolerance
    band therefore decides the pick outright; eps only widens what counts
    as tied with the best.  Step k touches only the columns w >= k*rest;
    the entries below them are meaningless.  The two rows are updated in
    place, so a caller copies what it keeps.

    Skipping the rows above the top and the cells left of each row's
    band changes no maximum, since those cells hold -inf.  Nor does it
    change a pick: a column enters the scan at the first row that holds
    a value there, and that row always takes the pick, because every
    comparison against the -inf incumbent reads -inf - eps = -inf.
    """
    rows, cols = values.shape
    top = rows - 1 if rest == 0 else min(rows - 1, (cols - 1) // rest)
    best = np.full(cols, IMPOSSIBLE)
    pick = np.zeros(cols, dtype=np.min_scalar_type(rows - 1))
    band = np.empty(cols)
    hit = np.empty(cols, dtype=bool)
    if tie.prefer_larger:
        pick_val = np.full(cols, IMPOSSIBLE)
    for k in range(top, -1, -1):
        lo = k * rest
        cur = values[k, lo:]
        run, low, took = best[lo:], band[lo:], hit[lo:]
        if tie.prefer_larger:
            # The incumbent keeps the pick while it stays within eps of
            # the new maximum; otherwise row k takes it.
            held = pick_val[lo:]
            np.maximum(cur, run, out=run)
            np.subtract(run, tie.eps, out=low)
            np.less(held, low, out=took)
            np.copyto(held, cur, where=took)
        else:
            # If cur is the new maximum the comparison holds trivially,
            # so one test covers both the new-max and the tied case.
            np.subtract(run, tie.eps, out=low)
            np.greater_equal(cur, low, out=took)
            np.maximum(cur, run, out=run)
        np.copyto(pick[lo:], k, where=took)
        yield k, best, pick


def dp_table_bytes(T: int, K: int, W: int) -> int:
    """Bytes ``build_tables`` holds at once for T types, cap K, budget W.

    The decision table (T layers in the narrowest unsigned type for K)
    and two float64 value layers, each layer (K+1) x (W+1), plus the
    running rows of one suffix scan, each W+1 long: the maxima, the
    tolerance band and the picked values (float64; the last is held
    under ``prefer_larger`` only), the picks (the decision type) and a
    mask (one byte).
    """
    itemsize = np.min_scalar_type(K).itemsize
    return (W + 1) * ((K + 1) * (T * itemsize + 2 * 8) + 3 * 8 + itemsize + 1)


def build_tables(
    ladder: TypeLadder,
    objective: Objective,
    W: int,
    K: int,
    tie: TieBreak | None = None,
) -> DpTables:
    """Fill the layered value/decision tables for budget W and cap K.

    Walks the types from the last to the first, keeping two value layers
    and every layer's decisions, and fills only the states a budget can
    reach.  With S_t the head count of types t..T, state (t, k, w) is
    reachable exactly when w >= k*S_t: by induction, the last layer's
    row k is set from w = k*N_T on, and layer t's row k continues from
    the layer below at w - k*N_t with some count j >= k, which is
    reachable exactly when w - k*N_t >= k*S_{t+1} (j = k asks the
    least).  So one running suffix scan of the layer below
    (``_suffix_scan`` with rest = S_{t+1}) serves the whole layer: row k
    is written right after scan step k, from column k*S_t on.  Every
    other cell keeps ``IMPOSSIBLE`` and decision 0.

    Refuses, before allocating anything, a fill whose working set
    (``dp_table_bytes``) exceeds ``MAX_TABLE_BYTES`` (512 MiB), with a
    ``ValueError``.  The limit is per call, so concurrent fills (a pooled
    height sweep) add up.
    """
    if not isinstance(W, int) or isinstance(W, bool) or W < 0:
        raise ValueError(f"W must be a nonnegative integer, got {W!r}")
    if not isinstance(K, int) or isinstance(K, bool) or K < 0:
        raise ValueError(f"K must be a nonnegative integer, got {K!r}")
    if K > W:
        raise ValueError(f"per-type cap K={K} must not exceed the budget W={W}")
    T = ladder.size
    needed = dp_table_bytes(T, K, W)
    if needed > MAX_TABLE_BYTES:
        raise ValueError(
            f"DP tables for T={T} types, K={K}, M={W} channels need "
            f"{needed} bytes, over the limit of {MAX_TABLE_BYTES} bytes"
        )
    if tie is None:
        tie = TieBreak()
    counts = ladder.counts
    gains = _gain_rows(ladder, objective, K)
    decision = np.zeros((T, K + 1, W + 1), dtype=np.min_scalar_type(K))
    below = np.full((K + 1, W + 1), IMPOSSIBLE, dtype=np.float64)
    layer = np.empty_like(below)

    rest = counts[T - 1]
    for k in range(min(K, W // rest) + 1):
        below[k, k * rest :] = gains[T - 1, k]

    for t in range(T - 2, -1, -1):
        count = counts[t]
        layer.fill(IMPOSSIBLE)
        for k, best, pick in _suffix_scan(below, rest, tie):
            start = k * (count + rest)
            if start <= W:
                # Budget w continues from w - k*count in the layer below.
                stop = W - k * count + 1
                np.add(gains[t, k], best[k * rest : stop], out=layer[k, start:])
                decision[t, k, start:] = pick[k * rest : stop]
        rest += count
        layer, below = below, layer
    return DpTables(opt=below, decision=decision)


def _backtrack(
    decision: np.ndarray, counts: tuple[int, ...], first_k: int, W: int
) -> QualityAssignment:
    T = decision.shape[0]
    w_vec = []
    k, w = first_k, W
    for t in range(T):
        w_vec.append(k)
        if t < T - 1:
            nxt = int(decision[t, k, w])
            w -= k * counts[t]
            k = nxt
    return QualityAssignment(tuple(w_vec))


def saturation_cap(
    ladder: TypeLadder, total_channels: int, tol: float = 1e-12
) -> int:
    """Per-type cap: where every type's utility has flattened out, at most M.

    Beyond the busiest type's saturation point it gains less than ``tol``
    per extra channel, so larger assignments cannot change any optimum;
    no type can take more than the M channels there are either.  Equals
    min(M, saturation_channels(max lambda, tol)) and scans at most M
    tails.
    """
    return saturation_channels(max(ladder.lambdas), tol, limit=total_channels)


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
    K = saturation_cap(ladder, M) if use_k_cap else M
    tables = build_tables(ladder, objective, M, K, tie)
    # The first type's row k is reachable from budget k * (all heads) on;
    # the scan's last step leaves each budget's best first-type count.
    for _, inner_vals, first_pick in _suffix_scan(
        tables.opt, sum(ladder.counts), tie
    ):
        pass
    inner_values = tuple(inner_vals.tolist())
    for load in loads:
        mbs = MbsLoad(M, load)
        costs = cost_table(M, mbs.load)
        net = inner_vals - costs
        best_w = _scan_preferred(net, tie)
        assignment = _backtrack(
            tables.decision, ladder.counts, int(first_pick[best_w]), best_w
        )
        yield _package(ladder, assignment, costs, inner_values, net)


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
    assignment: QualityAssignment,
    costs: np.ndarray,
    inner_values: tuple[float, ...],
    net: np.ndarray,
) -> SolverResult:
    """Price the assignment and score it against the load's cost row."""
    contract = Contract(assignment, optimal_prices(ladder, assignment))
    sold = total_weight(ladder, assignment)
    cost = float(costs[sold])
    return SolverResult(
        contract=contract,
        revenue=revenue_at_cost(ladder, contract, cost),
        welfare=welfare_at_cost(ladder, assignment, cost),
        sold=sold,
        inner_values=inner_values,
        objective_values=tuple(net.tolist()),
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
    net = inner - costs
    best_w = _scan_preferred(net, tie)
    assignment = _select_assignment(gains, counts, best_w, tie)
    return _package(ladder, assignment, costs, tuple(inner.tolist()), net)
