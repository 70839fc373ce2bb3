"""Bit-identity oracle for the rolling-layer DP fill.

``reference_build_tables`` is the fill that stored the whole value cube
``opt[T, K+1, W+1]``, kept verbatim apart from its name.  The rolling
fill keeps two value layers, walks the types in the same order and does
the same arithmetic, so its decisions and its first-type layer must
equal the reference's byte for byte (``tobytes``, never a tolerance).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrum_contracts.contract import TypeLadder
from spectrum_contracts.solver import (
    CORRUPT_TIE_BREAK,
    IMPOSSIBLE,
    DpTables,
    Objective,
    TieBreak,
    _gain_rows,
    _suffix_incumbents,
    build_tables,
)


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


TIES = (TieBreak(), TieBreak(prefer_larger=True), CORRUPT_TIE_BREAK)


@st.composite
def _fills(draw):
    """Ladders, budgets and caps: one type or several, head counts above
    one, caps from 0 up to the budget, near-tied means, both objectives
    and each tie rule."""
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
    tie = draw(st.sampled_from(TIES))
    return TypeLadder(tuple(lambdas), tuple(counts)), objective, W, K, tie


def _assert_same_fill(ladder, objective, W, K, tie):
    ref = reference_build_tables(ladder, objective, W, K, tie)
    new = build_tables(ladder, objective, W, K, tie)
    assert new.decision.dtype == ref.decision.dtype
    assert new.decision.shape == ref.decision.shape
    assert new.decision.tobytes() == ref.decision.tobytes()
    assert new.opt.dtype == ref.opt.dtype
    assert new.opt.shape == ref.opt.shape[1:]
    assert new.opt.tobytes() == ref.opt[0].tobytes()


@settings(max_examples=300, deadline=None)
@given(_fills())
@example((TypeLadder((2.0,), (3,)), Objective.MBS_REVENUE, 12, 4, TieBreak()))
@example((TypeLadder((1.0, 2.0), (1, 2)), Objective.SOCIAL_WELFARE, 7, 0, TieBreak()))
@example((TypeLadder((1.0, 1.0 + 1e-13, 4.0), (2, 1, 3)), Objective.MBS_REVENUE, 15, 15, TIES[1]))
def test_rolling_fill_equals_the_full_cube(case):
    _assert_same_fill(*case)


@pytest.mark.parametrize("objective", list(Objective))
def test_rolling_fill_equals_the_full_cube_with_a_wide_decision_type(objective):
    # K above 255 stores decisions as uint16.
    ladder = TypeLadder((3.0, 40.0, 90.0), (1, 2, 1))
    _assert_same_fill(ladder, objective, 300, 260, TieBreak())
