"""Bit-identity oracle for the array-scored exhaustive search.

``reference_brute_force_solve`` is the exhaustive oracle that took one
objective per call: it scored each enumerated assignment in a scalar
loop and found the tie-resolved assignment by a memoized recursion over
the best continuations (``reference_select_assignment``).  Both are kept
verbatim apart from their names, the reference's signature and its cap
refusal.  The array oracle enumerates once for every objective, sums
the same gains in the same order and picks each count from the group
maxima of those sums, which float rounding makes equal to the
recursion's values.  So every field of its results must equal the
reference's byte for byte (``tobytes`` of the floats, never a
tolerance), for every tie rule and in either order of the objectives.
"""

from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrum_contracts.contract import MbsLoad, QualityAssignment, TypeLadder
from spectrum_contracts.runner import DEFAULT_ORACLE_SEED, sample_instance
from spectrum_contracts.solver import (
    CORRUPT_TIE_BREAK,
    IMPOSSIBLE,
    Objective,
    SolverResult,
    TieBreak,
    _enumerate_monotone,
    _gain_rows,
    _package,
    _scan_preferred,
    brute_force_solve,
)
from spectrum_contracts.stochastic import cost_table, utility_table

from test_solver import _oracle_instances, _tied_instances


def reference_select_assignment(
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


def reference_brute_force_solve(
    ladder: TypeLadder, mbs: MbsLoad, objective: Objective, tie: TieBreak | None
) -> SolverResult:
    """Exhaustive oracle: score every affordable monotone assignment."""
    if tie is None:
        tie = TieBreak()
    M = mbs.total_channels
    utilities = [utility_table(lam, M) for lam in ladder.lambdas]
    gains = _gain_rows(ladder, objective, utilities)
    costs = cost_table(M, mbs.load)
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
    assignment = reference_select_assignment(gains, counts, best_w, tie)
    return _package(ladder, assignment, utilities, costs, tuple(inner.tolist()), net)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_same_results(ladder, mbs, objectives, tie):
    # The default rule is the one the oracle applies when given none.
    results = brute_force_solve(ladder, mbs, objectives, tie=tie)
    assert len(results) == len(objectives)
    for objective, new in zip(objectives, results):
        ref = reference_brute_force_solve(ladder, mbs, objective, tie)
        assert new.contract == ref.contract
        assert new.sold == ref.sold
        assert _bits(new.inner_values) == _bits(ref.inner_values)
        assert _bits(new.objective_values) == _bits(ref.objective_values)
        assert _bits(new.revenue) == _bits(ref.revenue)
        assert _bits(new.welfare) == _bits(ref.welfare)
        assert _bits(new.surpluses) == _bits(ref.surpluses)


_TIES = (None, TieBreak(eps=0.0), TieBreak(prefer_larger=True), CORRUPT_TIE_BREAK)
_ORDERS = (list(Objective), list(Objective)[::-1])


@settings(max_examples=200, deadline=None)
@given(
    instance=st.one_of(_tied_instances(), _oracle_instances()),
    objectives=st.sampled_from(_ORDERS),
    tie=st.sampled_from(_TIES),
)
@example(
    instance=(TypeLadder((0.0087089, 0.0089760, 0.0097123), (1, 1, 1)), MbsLoad(24, 1.2e-6)),
    objectives=_ORDERS[0],
    tie=_TIES[0],
)
@example(
    instance=(TypeLadder((0.0090984, 0.0090984 + 2e-16), (1, 1)), MbsLoad(14, 7.6e-5)),
    objectives=_ORDERS[1],
    tie=_TIES[2],
)
@example(
    instance=(TypeLadder((1.0, 2.0, 3.0), (2, 1, 2)), MbsLoad(15, 2.0)),
    objectives=_ORDERS[0],
    tie=_TIES[3],
)
@example(
    instance=(TypeLadder((5.0,), (1,)), MbsLoad(10, 1.0)),
    objectives=_ORDERS[1],
    tie=_TIES[1],
)
def test_array_oracle_equals_the_scalar_reference(instance, objectives, tie):
    _assert_same_results(*instance, objectives, tie)


def test_array_oracle_equals_the_scalar_reference_on_the_oracle_check_sample():
    for index in range(60):
        rng = np.random.default_rng(DEFAULT_ORACLE_SEED + index)
        ladder, mbs = sample_instance(rng)
        for tie in _TIES:
            _assert_same_results(ladder, mbs, list(Objective), tie)
