"""Bit-identity oracle for the banded rolling-layer DP fill.

``reference_build_tables`` is the fill that stored the whole value cube
``opt[T, K+1, W+1]``, and ``reference_suffix_incumbents`` the full
(K+1) x (W+1) suffix maxima and picks it scanned each layer with; both
are kept verbatim apart from their names and the line that builds the
gain rows from utility tables.  The banded fill, given the same rows,
keeps two value layers, walks the types in the same order, skips only
cells that hold ``IMPOSSIBLE`` and does the same arithmetic on the
rest, so its decisions and its first-type layer must equal the
reference's byte for byte (``tobytes``, never a tolerance).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrum_contracts.contract import TypeLadder
from spectrum_contracts.solver import (
    IMPOSSIBLE,
    DpTables,
    Objective,
    TieBreak,
    _gain_rows,
    build_tables,
)

from contract_checks import ladder_utilities


def reference_suffix_incumbents(
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


def reference_build_tables(
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
    gains = _gain_rows(ladder, objective, ladder_utilities(ladder, K))
    opt = np.full((T, K + 1, W + 1), IMPOSSIBLE, dtype=np.float64)
    decision = np.zeros((T, K + 1, W + 1), dtype=np.min_scalar_type(K))

    for k in range(K + 1):
        need = k * counts[T - 1]
        if need <= W:
            opt[T - 1, k, need:] = gains[T - 1, k]

    for t in range(T - 2, -1, -1):
        nxt_val, nxt_idx = reference_suffix_incumbents(opt[t + 1], tie)
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


@st.composite
def _fills(draw):
    """Ladders, budgets and caps: one type or several, head counts above
    one, caps from 0 up to the budget, near-tied means and both
    objectives."""
    size = draw(st.integers(min_value=1, max_value=5))
    lambdas = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.05, max_value=30.0),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
    )
    if size > 1 and draw(st.booleans()):
        # Pull one type onto its lower neighbour so gain rows tie
        # within the tolerance.
        i = draw(st.integers(min_value=0, max_value=size - 2))
        tied = lambdas[i] + draw(st.sampled_from([2e-16, 1e-13, 1e-12]))
        if tied > lambdas[i] and (i + 2 == size or tied < lambdas[i + 2]):
            lambdas[i + 1] = tied
    counts = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    W = draw(st.integers(min_value=0, max_value=40))
    K = draw(st.one_of(st.just(0), st.just(W), st.integers(min_value=0, max_value=W)))
    objective = draw(st.sampled_from(list(Objective)))
    return TypeLadder(tuple(lambdas), tuple(counts)), objective, W, K


def _assert_same_fill(ladder, objective, W, K):
    ref = reference_build_tables(ladder, objective, W, K)
    gains = _gain_rows(ladder, objective, ladder_utilities(ladder, K))
    new = build_tables(ladder, gains, W)
    assert new.decision.dtype == ref.decision.dtype
    assert new.decision.shape == ref.decision.shape
    assert new.decision.tobytes() == ref.decision.tobytes()
    assert new.opt.dtype == ref.opt.dtype
    assert new.opt.shape == ref.opt.shape[1:]
    assert new.opt.tobytes() == ref.opt[0].tobytes()


@settings(max_examples=300, deadline=None)
@given(_fills())
@example((TypeLadder((2.0,), (3,)), Objective.MBS_REVENUE, 12, 4))
@example((TypeLadder((1.0, 2.0), (1, 2)), Objective.SOCIAL_WELFARE, 7, 0))
@example((TypeLadder((1.0, 1.0 + 1e-13, 4.0), (2, 1, 3)), Objective.MBS_REVENUE, 15, 15))
# Band edges.  W below the head count after the first type: only row 0
# of the first layer is reachable.
@example((TypeLadder((1.0, 2.0, 3.0), (2, 3, 4)), Objective.MBS_REVENUE, 6, 6))
# W equal to k * (N_t + rest) for k = 2 of the first layer (N=1, rest=5)
# and k = 4 of the last (N=3).
@example((TypeLadder((0.5, 2.0, 6.0), (1, 2, 3)), Objective.SOCIAL_WELFARE, 12, 12))
@example((TypeLadder((0.5, 2.0, 6.0), (1, 2, 3)), Objective.MBS_REVENUE, 12, 12))
# Six types of four heads each: at W=40 the first layer reaches row 1
# only; at W=48 its row 2 is reachable in the last column alone.
@example((TypeLadder((0.5, 1.0, 2.0, 4.0, 8.0, 16.0), (4,) * 6), Objective.MBS_REVENUE, 40, 10))
@example((TypeLadder((0.5, 1.0, 2.0, 4.0, 8.0, 16.0), (4,) * 6), Objective.SOCIAL_WELFARE, 48, 48))
# K = 0 and K = W on a ladder whose band cuts every layer.
@example((TypeLadder((1.0, 3.0, 9.0), (2, 1, 3)), Objective.MBS_REVENUE, 30, 0))
@example((TypeLadder((1.0, 3.0, 9.0), (2, 1, 3)), Objective.MBS_REVENUE, 30, 30))
@example((TypeLadder((1.0, 3.0, 9.0), (2, 1, 3)), Objective.SOCIAL_WELFARE, 30, 30))
def test_rolling_fill_equals_the_full_cube(case):
    _assert_same_fill(*case)


@pytest.mark.parametrize("objective", list(Objective))
def test_rolling_fill_equals_the_full_cube_with_a_wide_decision_type(objective):
    # K above 255 stores decisions as uint16.
    ladder = TypeLadder((3.0, 40.0, 90.0), (1, 2, 1))
    _assert_same_fill(ladder, objective, 300, 260)
