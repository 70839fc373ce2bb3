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
  decisions for the backtrack.  Only the states a budget can reach are
  filled, and only their decisions are stored, in one flat band.  One
  fill serves every budget W = 0..M.
  Then, for each base-station load in turn, ``solve_loads`` subtracts
  that load's expected congestion cost of selling W channels and keeps
  the best net value.  The cap K, one utility table per type and one
  cost row per load are built once and serve every objective; only the
  gain rows and the fill depend on the objective.  ``solve`` is the
  single-load case.  The per-W trace is retained so load curves can be
  plotted from a single run.
* ``brute_force_solve``: the correctness oracle at small scale.  It
  builds its own inputs once per instance, apart from ``solve_loads``,
  enumerates every affordable monotone assignment once into one array
  and scores every objective on it.

The dynamic program has one tie rule: candidates within ``TIE_EPS``
(1e-12) of the best value count as tied, and ties resolve toward the
smaller channel count (smaller next-type count, smaller count at
extraction, smaller budget in the outer scan), so every selection picks
the smallest index whose value lies within eps of the exact maximum over
its candidate set.  The exhaustive oracle applies the identical rule to
the identical suffix sums by default, so the two solvers agree exactly
even where utilities plateau below the tolerance; only the oracle takes
a ``TieBreak``, so that the oracle check can sabotage that side.

Impossible states (not enough budget for the mandated counts) are
never stored or read by the dynamic program.  ``IMPOSSIBLE``, an
absorbing sentinel that can never win a comparison against any
achievable value, starts every suffix scan's running maxima and, in
the exhaustive oracle, marks each budget and count no assignment takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .contract import (
    Contract,
    MbsLoad,
    QualityAssignment,
    TypeLadder,
    gain,
    operator_surpluses,
    optimal_prices,
    revenue,
    social_welfare,
    total_weight,
)
from .stochastic import cost_table, saturation_channels, utility_table

IMPOSSIBLE = float("-inf")

# Values within this of the best count as tied with it.
TIE_EPS = 1e-12

DEFAULT_BRUTE_FORCE_CAP = 10_000_000

# Largest DP working set one ``build_tables`` call will allocate, and the
# most one ``solve_loads`` call holds in one fill plus its cost rows, in
# bytes (512 MiB).  The fill stores decisions on the reachable band only,
# so with the saturation cap the largest fill in use, ``dp_table_bytes``
# of the largest benchmark ladder (T=100, M=2000, largest mean 10, so
# K=40), is about 4.1 MB, about 1/130 of the limit; the ladder with the
# widest cap (T=20, M=1000, largest mean 100, K=179) needs about 3.4 MB.
# Even uncapped, T=100 and M=2000 with every head count 1 needs about
# 79 MiB.  So only uncapped fills of very large ladders (M=6000 there
# needs about 699 MiB) or sweeps of very many loads at large M reach it;
# the capped run of such a ladder gives the same objective value up to
# rounding-level amounts (see ``solve_loads``).  The limit is per call: a
# pooled height sweep holds one fill per worker at once.
MAX_TABLE_BYTES = 512 * 2**20


class Objective(Enum):
    """What the menu should maximize."""

    MBS_REVENUE = "mbs-revenue"
    SOCIAL_WELFARE = "social-welfare"


@dataclass(frozen=True)
class TieBreak:
    """Tolerance and direction of the exhaustive oracle's tie rule.

    Candidates whose value lies within ``eps`` of the exact maximum of
    their candidate set count as tied with the best.  Ties go to the
    smallest channel count unless ``prefer_larger`` is set.  The default
    is the dynamic program's one rule; the oracle takes another only so
    the oracle checker can show that a deliberately wrong rule on its
    side is caught.
    """

    eps: float = TIE_EPS
    prefer_larger: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")


# The dynamic program's rule, and the oracle's unless told otherwise.
_DP_TIE = TieBreak()

# A deliberately broken rule for the oracle checker's negative control:
# the tolerance is wide enough to blur genuinely different values and
# the direction is reversed, so disagreement with the exhaustive oracle
# becomes visible on ordinary instances.
CORRUPT_TIE_BREAK = TieBreak(eps=0.05, prefer_larger=True)


@dataclass(frozen=True)
class DpTables:
    """First-type values and the reachable decisions of one inner program.

    With S_t the head count of types t..T, state (t, k, w) is reachable
    exactly when k <= K and w >= k*S_t.  ``opt[k, w]`` is the best total
    gain over every type when the first type takes exactly k channels
    out of a budget of w; it is set on the first type's reachable states
    only, and every other cell of the (K+1) x (W+1) layer is unspecified.
    ``decision[offsets[t, k] + w]`` gives the chosen count for type t+1
    when type t < T-1 takes k channels out of a remaining budget of w,
    for reachable (t, k, w) only.  ``decision`` is one flat array in the
    narrowest unsigned type that holds the cap K; the last type chooses
    nothing and stores nothing.  ``offsets`` is (T-1) x (K+1) int64, and
    its entries for rows no budget reaches are unspecified.
    """

    opt: np.ndarray
    decision: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True)
class SolverResult:
    """Best contract found, its evaluation, and the per-budget values.

    ``surpluses[t]`` is type t's surplus under the contract.
    ``inner_values[w]`` is the best gross value within budget w and
    ``objective_values[w]`` that value net of the cost of selling w
    channels.
    """

    contract: Contract
    revenue: float
    welfare: float
    sold: int
    surpluses: tuple[float, ...]
    inner_values: tuple[float, ...] = field(repr=False)
    objective_values: tuple[float, ...] = field(repr=False)


def _gain_rows(
    ladder: TypeLadder, objective: Objective, utilities: list[np.ndarray]
) -> np.ndarray:
    """Per-type objective contribution for every count the tables hold.

    Row t holds the seller's gain from assigning k channels to type t
    (information rents of higher types already netted out), or the raw
    served traffic N_t * U(lambda_t, k) for the welfare objective.
    ``utilities[t]`` is type t's ``utility_table``, and ``gain`` forms
    the revenue rows elementwise with the arithmetic it uses for one
    count, so solver values and evaluations agree bit for bit.
    """
    if objective is Objective.MBS_REVENUE:
        rows = [gain(ladder, t, utilities) for t in range(ladder.size)]
    else:
        rows = [count * table for count, table in zip(ladder.counts, utilities)]
    return np.array(rows, dtype=np.float64)


def _suffix_scan(
    values: np.ndarray, rest: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Running suffix maxima and tie-resolved picks of the rows of values.

    ``values`` is (K+1) x (W+1), and row j holds a state's value only in
    the columns w >= j*rest (with rest 0, in every column); every other
    cell is never read and may hold anything.  The scan starts at the top
    row that can hold one, min(K, W // rest), and walks down.  After step
    k it yields (k, best, pick), where for every column w >= k*rest
    best[w] is exactly the maximum of values[j, w] over the rows j >= k
    that hold a value there, and pick[w] is the smallest such row whose
    value lies within ``TIE_EPS`` of it.  Any value strictly above
    the tolerance band therefore decides the pick outright; eps only
    widens what counts as tied with the best.  This is the dynamic
    program's one tie rule.  Step k touches only the columns w >= k*rest;
    the entries below them are meaningless.  The two rows are updated in
    place, so a caller copies what it keeps.

    Skipping the rows above the top and the cells left of each row's
    band is what a scan over the whole table would do if those cells
    held -inf: it changes no maximum, nor a pick, since a column enters
    the scan at the first row that holds a value there, and that row
    always takes the pick, because every comparison against the -inf
    incumbent reads -inf - eps = -inf.
    """
    rows, cols = values.shape
    top = rows - 1 if rest == 0 else min(rows - 1, (cols - 1) // rest)
    best = np.full(cols, IMPOSSIBLE)
    pick = np.zeros(cols, dtype=np.min_scalar_type(rows - 1))
    band = np.empty(cols)
    hit = np.empty(cols, dtype=bool)
    for k in range(top, -1, -1):
        lo = k * rest
        cur = values[k, lo:]
        run, low, took = best[lo:], band[lo:], hit[lo:]
        # If cur is the new maximum the comparison holds trivially, so
        # one test covers both the new-max and the tied case.
        np.subtract(run, TIE_EPS, out=low)
        np.greater_equal(cur, low, out=took)
        np.maximum(cur, run, out=run)
        np.copyto(pick[lo:], k, where=took)
        yield k, best, pick


def _band_cells(counts: tuple[int, ...], K: int, W: int) -> int:
    """Decision cells ``build_tables`` stores for head counts, cap K, budget W.

    Layer t < T-1 stores rows k <= min(K, W // S_t), row k from column
    k*S_t to W, where S_t is the head count of types t..T; the last layer
    stores none.
    """
    cells = 0
    rest = sum(counts)
    for count in counts[:-1]:
        top = min(K, W // rest)
        cells += (top + 1) * (W + 1) - rest * top * (top + 1) // 2
        rest -= count
    return cells


def dp_table_bytes(counts: tuple[int, ...], K: int, W: int) -> int:
    """Bytes ``build_tables`` holds at once for head counts, cap K, budget W.

    The decisions on the reachable band (``_band_cells``, in the narrowest
    unsigned type for K), their (T-1) x (K+1) int64 row offsets, two
    float64 value layers of (K+1) x (W+1), and the running rows of one
    suffix scan, each W+1 long: the maxima and the tolerance band
    (float64), the picks (the decision type) and a mask (one byte).
    """
    itemsize = np.min_scalar_type(K).itemsize
    return (
        _band_cells(counts, K, W) * itemsize
        + (len(counts) - 1) * (K + 1) * 8
        + (W + 1) * ((K + 1) * 2 * 8 + 2 * 8 + itemsize + 1)
    )


def build_tables(ladder: TypeLadder, gains: np.ndarray, W: int) -> DpTables:
    """Fill the layered value/decision tables for budget W.

    Row t of ``gains`` (``_gain_rows``) values each count 0..K for type
    t, so its width sets the per-type cap K.  Walks the types from the
    last to the first, keeping two value layers and every layer's
    decisions, and fills and stores only the states a budget can reach.
    With S_t the head count of types t..T, state (t, k, w) is
    reachable exactly when w >= k*S_t: by induction, the last layer's
    row k is set from w = k*N_T on, and layer t's row k continues from
    the layer below at w - k*N_t with some count j >= k, which is
    reachable exactly when w - k*N_t >= k*S_{t+1} (j = k asks the
    least).  So one running suffix scan of the layer below
    (``_suffix_scan`` with rest = S_{t+1}) serves the whole layer: row k
    is written right after scan step k, from column k*S_t on, and its
    decisions are appended to the flat band.  That writes every cell the
    next scan (rest = S_t) reads, so no layer is reset between types and
    the band is allocated uninitialized: each of its cells is written
    once.

    Refuses, before allocating anything, a fill whose working set
    (``dp_table_bytes``) exceeds ``MAX_TABLE_BYTES`` (512 MiB), with a
    ``ValueError``.  The limit is per call, so concurrent fills (a pooled
    height sweep) add up.
    """
    if not isinstance(W, int) or isinstance(W, bool) or W < 0:
        raise ValueError(f"W must be a nonnegative integer, got {W!r}")
    T = ladder.size
    K = gains.shape[1] - 1
    if K > W:
        raise ValueError(f"per-type cap K={K} must not exceed the budget W={W}")
    counts = ladder.counts
    needed = dp_table_bytes(counts, K, W)
    if needed > MAX_TABLE_BYTES:
        raise ValueError(
            f"DP tables for T={T} types, K={K}, M={W} channels need "
            f"{needed} bytes, over the limit of {MAX_TABLE_BYTES} bytes"
        )
    decision = np.empty(_band_cells(counts, K, W), dtype=np.min_scalar_type(K))
    offsets = np.zeros((T - 1, K + 1), dtype=np.int64)
    below = np.full((K + 1, W + 1), IMPOSSIBLE, dtype=np.float64)
    layer = np.empty_like(below)

    rest = counts[T - 1]
    for k in range(min(K, W // rest) + 1):
        below[k, k * rest :] = gains[T - 1, k]

    end = 0
    for t in range(T - 2, -1, -1):
        count = counts[t]
        for k, best, pick in _suffix_scan(below, rest):
            start = k * (count + rest)
            if start <= W:
                # Budget w continues from w - k*count in the layer below.
                stop = W - k * count + 1
                np.add(gains[t, k], best[k * rest : stop], out=layer[k, start:])
                width = W - start + 1
                decision[end : end + width] = pick[k * rest : stop]
                offsets[t, k] = end - start
                end += width
        # Free this scan's rows before the next scan allocates its own.
        del best, pick
        rest += count
        layer, below = below, layer
    return DpTables(opt=below, decision=decision, offsets=offsets)


def _backtrack(
    tables: DpTables, counts: tuple[int, ...], first_k: int, W: int
) -> QualityAssignment:
    decision, offsets = tables.decision, tables.offsets
    w_vec = [first_k]
    k, w = first_k, W
    for t in range(len(counts) - 1):
        nxt = int(decision[offsets[t, k] + w])
        w -= k * counts[t]
        k = nxt
        w_vec.append(k)
    return QualityAssignment(tuple(w_vec))


def saturation_cap(ladder: TypeLadder, total_channels: int) -> int:
    """Per-type cap: the busiest type's saturation point, at most M.

    Beyond it every type gains less than 1e-12 per extra channel, so
    larger assignments move values by rounding-level amounts only, though
    those can still change a pick (see ``solve_loads``); no type can take
    more than the M channels there are either.  Equals
    ``saturation_channels(max lambda, M)``, which scans at most M tails.
    """
    return saturation_channels(max(ladder.lambdas), total_channels)


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
    objectives: Iterable[Objective],
    *,
    use_k_cap: bool = True,
) -> Iterator[SolverResult]:
    """Best feasible menu at each load for each objective, by exact search.

    Builds the instance's inputs once: the cap K, one utility table per
    type up to K and one cost row per load.  Before any of them is
    built, refuses with a ``ValueError`` a run whose cost rows
    (``len(loads) * (M + 1) * 8`` bytes) and one fill
    (``dp_table_bytes``) together exceed ``MAX_TABLE_BYTES``, since
    every row is held through every fill.  Each objective in turn gets
    one fill across all budgets W = 0..M, which serves every load too: a
    column-w extraction equals a dedicated width-w fill, since
    over-budget states are impossible.  Each load's cost row, netted
    from the fill's values, picks the budget, and the assignment is
    priced and scored from the same tables and row.  Results come
    objective by objective, each in load order; each fill is freed
    before the next.

    ``use_k_cap`` caps every count at the busiest type's saturation
    point, which removes the quartic blowup in M.  Each channel past it
    adds under 1e-12 to any utility, so values move by rounding-level
    amounts; that can still carry a budget across the ``TIE_EPS`` band:
    for lambda = (0.0078125, 0.009339812342991888, 0.009839324816745404),
    N = (1, 2, 1), M = 17 and load 1e-8 the capped revenue menu is
    (1, 5, 5), the uncapped one (1, 4, 4), their revenues 1.8e-12 apart.
    """
    M = total_channels
    loads = [MbsLoad(M, load).load for load in loads]
    K = saturation_cap(ladder, M) if use_k_cap else M
    fill = dp_table_bytes(ladder.counts, K, M)
    rows = len(loads) * (M + 1) * 8
    if fill + rows > MAX_TABLE_BYTES:
        raise ValueError(
            f"DP tables for T={ladder.size} types, K={K}, M={M} channels need "
            f"{fill} bytes and the cost rows of {len(loads)} loads {rows} bytes, "
            f"{fill + rows} bytes together, over the limit of {MAX_TABLE_BYTES} bytes"
        )
    utilities = [utility_table(lam, K) for lam in ladder.lambdas]
    cost_rows = [cost_table(M, load) for load in loads]
    heads = sum(ladder.counts)
    for objective in objectives:
        tables = build_tables(ladder, _gain_rows(ladder, objective, utilities), M)
        # The first type's row k is reachable from budget k * (all heads)
        # on; the scan's last step leaves each budget's best first-type
        # count.
        for _, inner_vals, first_pick in _suffix_scan(tables.opt, heads):
            pass
        inner_values = tuple(inner_vals.tolist())
        for costs in cost_rows:
            net = inner_vals - costs
            best_w = _scan_preferred(net, _DP_TIE)
            assignment = _backtrack(
                tables, ladder.counts, int(first_pick[best_w]), best_w
            )
            yield _package(ladder, assignment, utilities, costs, inner_values, net)
        del tables


def solve(
    ladder: TypeLadder,
    mbs: MbsLoad,
    objectives: Iterable[Objective],
    *,
    use_k_cap: bool = True,
) -> tuple[SolverResult, ...]:
    """One best menu per objective, in order: ``solve_loads`` at one load."""
    return tuple(
        solve_loads(
            ladder,
            mbs.total_channels,
            (mbs.load,),
            objectives,
            use_k_cap=use_k_cap,
        )
    )


def _package(
    ladder: TypeLadder,
    assignment: QualityAssignment,
    utilities: list[np.ndarray],
    costs: np.ndarray,
    inner_values: tuple[float, ...],
    net: np.ndarray,
) -> SolverResult:
    """Price and score the assignment from the utility tables and cost row."""
    contract = Contract(assignment, optimal_prices(ladder, assignment, utilities))
    sold = total_weight(ladder, assignment)
    cost = float(costs[sold])
    return SolverResult(
        contract=contract,
        revenue=revenue(ladder, contract, cost),
        welfare=social_welfare(ladder, assignment, utilities, cost),
        sold=sold,
        surpluses=operator_surpluses(ladder, contract, utilities),
        inner_values=inner_values,
        objective_values=tuple(net.tolist()),
    )


def count_monotone_assignments(ladder: TypeLadder, budget: int) -> int:
    """Number of nondecreasing count vectors affordable within budget.

    Written as steps d_t = w_t - w_{t-1} >= 0 (with w_0 = 0), a vector
    costs the sum of d_t * S_t, with S_t the head count of types t..T,
    so this counts the ways to spend at most the budget on coins of
    sizes S_t.
    """
    ways = [1] + [0] * budget
    rest = 0
    for count in reversed(ladder.counts):
        rest += count
        for spent in range(rest, budget + 1):
            ways[spent] += ways[spent - rest]
    return sum(ways)


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


def _enumeration_bytes(space: int, T: int) -> int:
    """Bytes ``brute_force_solve`` holds at once for ``space`` assignments.

    Per assignment, 8 bytes each: its T counts, its T suffix sums, the
    channels it sells, and up to four working columns: the gathered
    gains of one type while summing, then the rows still in play, their
    counts and sums, and the rows kept (plus a one-byte mask) while
    picking.
    """
    return space * 8 * (2 * T + 5)


def brute_force_solve(
    ladder: TypeLadder,
    mbs: MbsLoad,
    objectives: Iterable[Objective],
    *,
    cap: int = DEFAULT_BRUTE_FORCE_CAP,
    tie: TieBreak | None = None,
) -> tuple[SolverResult, ...]:
    """Exhaustive oracle: one best menu per objective, in order, as ``solve``.

    Refuses with a ``ValueError`` a search space over ``cap``
    assignments and, before enumerating, one whose arrays
    (``_enumeration_bytes``) exceed ``MAX_TABLE_BYTES``.  Builds one
    utility table per type up to M and one cost row, apart from
    ``solve_loads`` but with the same functions, and enumerates once,
    one row per assignment in lexicographic order.  Each objective is
    scored with the dynamic program's sums and tie rule, so on tractable
    instances the two must agree exactly, which the oracle checker
    verifies.
    """
    if tie is None:
        tie = _DP_TIE
    M = mbs.total_channels
    counts = ladder.counts
    T = ladder.size
    space = count_monotone_assignments(ladder, M)
    if space > cap:
        raise ValueError(
            f"search space of {space} monotone assignments exceeds the cap {cap}"
        )
    needed = _enumeration_bytes(space, T)
    if needed > MAX_TABLE_BYTES:
        raise ValueError(
            f"enumerating {space} monotone assignments of T={T} types needs "
            f"{needed} bytes, over the limit of {MAX_TABLE_BYTES} bytes"
        )
    picks = np.fromiter(
        chain.from_iterable(_enumerate_monotone(counts, M)),
        dtype=np.int64,
        count=space * T,
    ).reshape(space, T)
    sold = picks @ np.array(counts, dtype=np.int64)
    utilities = [utility_table(lam, M) for lam in ladder.lambdas]
    costs = cost_table(M, mbs.load)
    # suffix[t] holds each assignment's gain over types t..T, summed from
    # the last type to the first, as the dynamic program adds.
    suffix = np.empty((T, space))
    results = []
    for objective in objectives:
        gains = _gain_rows(ladder, objective, utilities)
        total = 0.0
        for t in range(T - 1, -1, -1):
            total = np.add(gains[t, picks[:, t]], total, out=suffix[t])
        # Best gross value among assignments selling exactly s channels.
        by_sold = np.full(M + 1, IMPOSSIBLE)
        np.maximum.at(by_sold, sold, suffix[0])
        inner = np.maximum.accumulate(by_sold)
        net = inner - costs
        best_w = _scan_preferred(net, tie)
        # Walk the types in order among the assignments within budget
        # best_w, each time keeping those that take the picked count.
        # Float addition rounds monotonically, so g + max(x) == max(g + x):
        # the best suffix sum of the rows that give type t count k is
        # exactly gains[t, k] plus the best continuation the dynamic
        # program keeps for them, and the pick agrees with its scan.
        rows = np.flatnonzero(sold <= best_w)
        for t in range(T):
            taken = picks[rows, t]
            group = np.full(M + 1, IMPOSSIBLE)
            np.maximum.at(group, taken, suffix[t, rows])
            rows = rows[taken == _scan_preferred(group, tie)]
        assignment = QualityAssignment(tuple(picks[rows[0]].tolist()))
        results.append(
            _package(ladder, assignment, utilities, costs, tuple(inner.tolist()), net)
        )
    return tuple(results)
