"""Tests for the assignment search: inner DP, outer scan, oracle agreement."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_contracts import solver
from spectrum_contracts.contract import (
    MbsLoad,
    TypeLadder,
    gain,
    revenue,
    social_welfare,
    validate_feasibility,
)
from spectrum_contracts.solver import (
    CORRUPT_TIE_BREAK,
    IMPOSSIBLE,
    MAX_TABLE_BYTES,
    Objective,
    TieBreak,
    _scan_preferred,
    _suffix_scan,
    brute_force_solve,
    build_tables,
    count_monotone_assignments,
    dp_table_bytes,
    saturation_cap,
    solve,
    solve_loads,
)
from spectrum_contracts.runner import DEFAULT_ORACLE_SEED, sample_instance
from spectrum_contracts.stochastic import mbs_cost, saturation_channels, uav_utility


def _random_instance(rng, max_types=3, max_budget=12, lam_lo=0.5, lam_hi=5.0):
    """Small instance in the range the exhaustive oracle can cover."""
    size = int(rng.integers(1, max_types + 1))
    while True:
        lambdas = np.sort(rng.uniform(lam_lo, lam_hi, size=size))
        if size == 1 or np.all(np.diff(lambdas) > 1e-6):
            break
    counts = tuple(int(c) for c in rng.integers(1, 4, size=size))
    ladder = TypeLadder(tuple(float(v) for v in lambdas), counts)
    mbs = MbsLoad(int(rng.integers(1, max_budget + 1)), float(rng.uniform(1.0, 10.0)))
    return ladder, mbs


@st.composite
def _oracle_instances(draw):
    """Instances past ``_random_instance``: up to four types, twenty channels,
    means tied to within 1e-12 and base-station loads in log space."""
    size = draw(st.integers(min_value=1, max_value=4))
    lambdas = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.3, max_value=12.0),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
    )
    if size > 1 and draw(st.booleans()):
        # Pull one type onto its lower neighbour: utilities then plateau
        # within the tie tolerance.
        i = draw(st.integers(min_value=0, max_value=size - 2))
        tied = lambdas[i] + draw(st.sampled_from([2e-16, 1e-13, 1e-12]))
        if tied > lambdas[i] and (i + 2 == size or tied < lambdas[i + 2]):
            lambdas[i + 1] = tied
    counts = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    total = draw(st.integers(min_value=1, max_value=20))
    load = draw(
        st.one_of(
            st.floats(min_value=0.5, max_value=40.0),
            st.floats(min_value=700.5, max_value=2000.0),
        )
    )
    return TypeLadder(tuple(lambdas), tuple(counts)), MbsLoad(total, load)


def _ten_type_ladder():
    return TypeLadder(tuple(float(t) for t in range(1, 11)), (1,) * 10)


# A base station this idle loses under 1e-5 by selling every channel, far
# less than any gain step of the small ladders below, so the solver's
# assignment is the inner program's optimum at the full budget.
IDLE_LOAD = 1e-5


def _inner(ladder, objective, W):
    """Inner value at budget W and the chosen assignment, with no cap."""
    result = solve(ladder, MbsLoad(W, IDLE_LOAD), objective, use_k_cap=False)
    return result.trace[W].inner_value, result.contract.assignment


class TestDpInner:
    def test_zero_budget_gives_zero_assignment(self):
        # Under a saturated base station every sold channel costs about
        # one served user, more than any operator can earn from it, so
        # the scan settles on budget 0.
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        result = solve(ladder, MbsLoad(4, 1e4), Objective.MBS_REVENUE, use_k_cap=False)
        assert result.trace[0].inner_value == 0.0
        assert result.sold == 0
        assert result.contract.assignment.w == (0, 0)

    def test_cap_above_budget_is_rejected(self):
        ladder = TypeLadder((1.0,), (1,))
        with pytest.raises(ValueError, match="must not exceed"):
            build_tables(ladder, Objective.MBS_REVENUE, 3, 4)

    def test_single_type_enumerates_gains(self):
        ladder = TypeLadder((2.5,), (1,))
        value, assignment = _inner(ladder, Objective.MBS_REVENUE, 3)
        candidates = [gain(ladder, 0, k) for k in range(4)]
        assert value == max(candidates)
        assert assignment.w == (int(np.argmax(candidates)),)

    def test_two_types_match_pair_enumeration(self):
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        value, assignment = _inner(ladder, Objective.MBS_REVENUE, 4)
        best = -math.inf
        best_pair = None
        for w1 in range(5):
            for w2 in range(w1, 5):
                if w1 + w2 > 4:
                    continue
                v = gain(ladder, 0, w1) + gain(ladder, 1, w2)
                if v > best:
                    best, best_pair = v, (w1, w2)
        assert value == pytest.approx(best, abs=1e-12)
        assert assignment.w == best_pair

    def test_outputs_monotone_and_affordable(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            ladder, mbs = _random_instance(rng)
            W = mbs.total_channels
            for objective in Objective:
                result = solve(ladder, mbs, objective, use_k_cap=False)
                assignment = result.contract.assignment
                assert assignment.is_monotone
                spent = sum(c * w for c, w in zip(ladder.counts, assignment.w))
                assert spent == result.sold <= W
                value = result.trace[spent].inner_value
                direct = math.fsum(
                    gain(ladder, t, w) for t, w in enumerate(assignment.w)
                ) if objective is Objective.MBS_REVENUE else math.fsum(
                    c * uav_utility(lam, w)
                    for c, lam, w in zip(ladder.counts, ladder.lambdas, assignment.w)
                )
                assert value == pytest.approx(direct, abs=1e-9)

    def test_tables_shape_and_impossible_cells(self):
        ladder = TypeLadder((1.0, 2.0, 3.0), (2, 1, 2))
        W, K = 9, 5
        tables = build_tables(ladder, Objective.MBS_REVENUE, W, K)
        # Layer t of the value cube is the first-type layer of the suffix
        # ladder from type t on: gain row t depends only on types t.. .
        opt = np.stack(
            [
                build_tables(
                    TypeLadder(ladder.lambdas[t:], ladder.counts[t:]),
                    Objective.MBS_REVENUE,
                    W,
                    K,
                ).opt
                for t in range(ladder.size)
            ]
        )
        assert opt.shape == (3, K + 1, W + 1)
        assert tables.decision.shape == (3, K + 1, W + 1)
        possible = opt != IMPOSSIBLE
        for t, count in enumerate(ladder.counts):
            for k in range(K + 1):
                for w in range(W + 1):
                    if w < k * count:
                        assert not possible[t, k, w]
                        assert tables.decision[t, k, w] == 0
        # Base layer: achievable cells hold that type's own gain.
        for k in range(K + 1):
            for w in range(k * ladder.counts[-1], W + 1):
                assert opt[2, k, w] == gain(ladder, 2, k)
        assert tables.decision[~possible].max(initial=0) == 0

    def test_decision_uses_the_narrowest_type_for_the_cap(self):
        ladder = TypeLadder((1.0, 2.0, 3.0), (2, 1, 2))
        for K, dtype in ((5, np.uint8), (255, np.uint8), (256, np.uint16)):
            tables = build_tables(ladder, Objective.MBS_REVENUE, 300, K)
            assert tables.decision.dtype == dtype


class TestTableBudget:
    def test_budget_counts_decisions_two_layers_and_the_running_rows(self):
        # Per budget column: K+1 cells of T decisions and two float64
        # layers, then three float64 running rows, the picks and a mask.
        assert dp_table_bytes(3, 5, 9) == 10 * (6 * (3 * 1 + 2 * 8) + 3 * 8 + 1 + 1)
        assert dp_table_bytes(3, 256, 300) == 301 * (
            257 * (3 * 2 + 2 * 8) + 3 * 8 + 2 + 1
        )

    def test_over_budget_names_the_shape_and_the_bytes(self, monkeypatch):
        # The limit is read when the fill starts, so the boundary can be
        # moved onto a small ladder: exactly the working set is accepted.
        ladder = TypeLadder((1.0, 2.0, 3.0), (2, 1, 2))
        needed = dp_table_bytes(3, 5, 9)
        monkeypatch.setattr(solver, "MAX_TABLE_BYTES", needed)
        build_tables(ladder, Objective.MBS_REVENUE, 9, 5)
        monkeypatch.setattr(solver, "MAX_TABLE_BYTES", needed - 1)
        with pytest.raises(ValueError) as info:
            build_tables(ladder, Objective.MBS_REVENUE, 9, 5)
        message = str(info.value)
        for part in ("T=3", "K=5", "M=9", f"{needed} bytes"):
            assert part in message

    def test_refusal_comes_before_any_allocation(self):
        # Unrefused, this fill would hold about 0.9 GB.
        ladder = TypeLadder(tuple(float(v) for v in range(1, 101)), (1,) * 100)
        assert dp_table_bytes(100, 2000, 2000) > MAX_TABLE_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="T=100 types, K=2000, M=2000"):
                build_tables(ladder, Objective.MBS_REVENUE, 2000, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestSolve:
    def test_load_stream_equals_one_solve_per_load(self):
        ladder = TypeLadder((1.5, 4.0, 9.0), (2, 1, 3))
        loads = (0.5, 7.0, 30.0, 650.0, 700.5, 1200.0)
        for objective in Objective:
            streamed = list(solve_loads(ladder, 25, loads, objective))
            assert len(streamed) == len(loads)
            for load, result in zip(loads, streamed):
                assert result == solve(ladder, MbsLoad(25, load), objective)
    def test_ten_type_light_load_sold_counts(self):
        ladder = _ten_type_ladder()
        mbs = MbsLoad(200, 120.0)
        assert solve(ladder, mbs, Objective.MBS_REVENUE).sold == 60
        assert solve(ladder, mbs, Objective.SOCIAL_WELFARE).sold == 71

    def test_ten_type_heavy_load_sold_counts(self):
        ladder = _ten_type_ladder()
        mbs = MbsLoad(200, 160.0)
        assert solve(ladder, mbs, Objective.MBS_REVENUE).sold == 39
        assert solve(ladder, mbs, Objective.SOCIAL_WELFARE).sold == 45

    def test_trace_covers_every_budget_and_matches_result(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            ladder, mbs = _random_instance(rng)
            res = solve(ladder, mbs, Objective.MBS_REVENUE)
            assert len(res.trace) == mbs.total_channels + 1
            assert [p.capacity for p in res.trace] == list(range(mbs.total_channels + 1))
            best = max(p.objective_value for p in res.trace)
            assert res.revenue == pytest.approx(best, abs=1e-9)
            soc = solve(ladder, mbs, Objective.SOCIAL_WELFARE)
            best_soc = max(p.objective_value for p in soc.trace)
            assert soc.welfare == pytest.approx(best_soc, abs=1e-9)

    def test_contract_is_always_feasible(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            ladder, mbs = _random_instance(rng)
            for objective in Objective:
                res = solve(ladder, mbs, objective)
                assert res.sold <= mbs.total_channels
                assert res.contract.assignment.is_monotone
                assert validate_feasibility(ladder, res.contract).feasible

    def test_inner_trace_equals_dedicated_inner_runs(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            ladder, mbs = _random_instance(rng, max_budget=10)
            res = solve(ladder, mbs, Objective.MBS_REVENUE)
            assert res.trace[0].inner_value == 0.0
            for point in res.trace[1:]:
                w = point.capacity
                # A dedicated run at budget w caps counts at min(w, cap).
                dedicated = solve(ladder, MbsLoad(w, mbs.load), Objective.MBS_REVENUE)
                assert dedicated.trace[w].inner_value == point.inner_value

    def test_saturation_cap_changes_nothing(self):
        rng = np.random.default_rng(45)
        for _ in range(40):
            ladder, mbs = _random_instance(rng)
            for objective in Objective:
                capped = solve(ladder, mbs, objective, use_k_cap=True)
                full = solve(ladder, mbs, objective, use_k_cap=False)
                assert capped.contract.assignment == full.contract.assignment
                assert capped.revenue == full.revenue
                assert capped.welfare == full.welfare

    def test_each_objective_wins_its_own_game(self):
        rng = np.random.default_rng(46)
        for _ in range(60):
            ladder, mbs = _random_instance(rng)
            rev = solve(ladder, mbs, Objective.MBS_REVENUE)
            soc = solve(ladder, mbs, Objective.SOCIAL_WELFARE)
            assert rev.revenue >= soc.revenue - 1e-9
            assert soc.welfare >= rev.welfare - 1e-9

    def test_busier_types_never_hurt_revenue(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            ladder, mbs = _random_instance(rng)
            # Ascending bumps keep the bumped ladder strictly ascending.
            bumps = np.sort(rng.uniform(0.01, 1.0, size=ladder.size))
            bumped = TypeLadder(
                tuple(lam + float(d) for lam, d in zip(ladder.lambdas, bumps)),
                ladder.counts,
            )
            base = solve(ladder, mbs, Objective.MBS_REVENUE)
            more = solve(bumped, mbs, Objective.MBS_REVENUE)
            assert more.revenue >= base.revenue - 1e-9


class TestHeadline:
    """The abstract's claim: an MBS after revenue sells less bandwidth
    than one after social welfare."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_revenue_menu_never_sells_more_with_unit_counts(self, data):
        size = data.draw(st.integers(min_value=1, max_value=7))
        lambdas = data.draw(
            st.lists(
                st.floats(min_value=0.2, max_value=30.0),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        total = data.draw(st.integers(min_value=5, max_value=119))
        load = data.draw(st.floats(min_value=0.5 * total, max_value=1.5 * total))
        ladder = TypeLadder(tuple(sorted(lambdas)), (1,) * size)
        mbs = MbsLoad(total, load)
        rev = solve(ladder, mbs, Objective.MBS_REVENUE)
        soc = solve(ladder, mbs, Objective.SOCIAL_WELFARE)
        assert rev.sold <= soc.sold

    def test_mixed_counts_can_make_the_revenue_menu_sell_more(self):
        # Channels sold is sum(N_t * w_t), which moves in steps of N_t:
        # the welfare menu gives type 2 (one head) two more channels and
        # each of the three type-3 operators one fewer.
        ladder = TypeLadder((4.925, 17.203, 28.57), (3, 1, 3))
        mbs = MbsLoad(82, 52.81)
        rev = solve(ladder, mbs, Objective.MBS_REVENUE)
        soc = solve(ladder, mbs, Objective.SOCIAL_WELFARE)
        assert (rev.sold, rev.contract.assignment.w) == (50, (0, 5, 15))
        assert (soc.sold, soc.contract.assignment.w) == (49, (0, 7, 14))


def _running_suffix(values, tie):
    """The running scan's rows after each step, stacked by row.

    Every cell of these values holds a value, so the scan runs with
    rest 0 and each step's rows hold the suffix of every column.
    """
    best_val = np.empty(values.shape)
    best_idx = np.empty(values.shape, dtype=np.int64)
    for k, best, pick in _suffix_scan(values, 0, tie):
        best_val[k] = best
        best_idx[k] = pick
    return best_val, best_idx


class TestTieRule:
    """Values at or above 1e-3 that lie within eps of each other tie."""

    TIED = np.array([[0.5], [0.5 + 4e-13]])

    def test_suffix_pick_takes_the_smallest_tied_count(self):
        best_val, best_idx = _running_suffix(self.TIED, TieBreak())
        assert best_val[0, 0] == 0.5 + 4e-13
        assert best_idx[0, 0] == 0
        assert best_idx[1, 0] == 1

    def test_suffix_pick_prefer_larger_takes_the_largest_tied_count(self):
        _, best_idx = _running_suffix(self.TIED, TieBreak(prefer_larger=True))
        assert best_idx[0, 0] == 1
        values = np.array([[0.5 + 4e-13], [0.5], [0.5 + 2e-13]])
        best_val, best_idx = _running_suffix(
            values, TieBreak(prefer_larger=True)
        )
        assert best_val[0, 0] == 0.5 + 4e-13
        assert best_idx[0, 0] == 2

    def test_suffix_pick_outside_eps_takes_the_maximum(self):
        values = np.array([[0.5], [0.5 + 4e-12]])
        _, best_idx = _running_suffix(values, TieBreak())
        assert best_idx[0, 0] == 1

    def test_scan_takes_the_smallest_tied_budget(self):
        net = self.TIED[:, 0]
        assert _scan_preferred(net, TieBreak()) == 0
        assert _scan_preferred(net, TieBreak(prefer_larger=True)) == 1
        assert _scan_preferred(np.array([0.5, 0.5 + 4e-12]), TieBreak()) == 1


class TestBruteForce:
    def test_search_space_counter(self):
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        # Monotone pairs with w1 + w2 <= 4.
        expected = len(
            [
                (a, b)
                for a in range(5)
                for b in range(a, 5)
                if a + b <= 4
            ]
        )
        assert count_monotone_assignments(ladder, 4) == expected

    def test_cap_refusal_names_the_count(self):
        ladder = TypeLadder((1.0, 2.0, 3.0), (1, 1, 1))
        mbs = MbsLoad(12, 2.0)
        space = count_monotone_assignments(ladder, 12)
        with pytest.raises(ValueError, match=f"{space}.*exceeds the cap"):
            brute_force_solve(ladder, mbs, Objective.MBS_REVENUE, cap=space - 1)

    def test_single_type_direct_scan(self):
        ladder = TypeLadder((5.0,), (1,))
        mbs = MbsLoad(10, 1.0)
        res = brute_force_solve(ladder, mbs, Objective.MBS_REVENUE)
        nets = [
            uav_utility(5.0, k) - mbs_cost(k, 10, 1.0) for k in range(11)
        ]
        assert res.contract.assignment.w == (int(np.argmax(nets)),)
        assert res.revenue == pytest.approx(max(nets), abs=1e-12)

    def test_agrees_with_dp_on_random_instances(self):
        rng = np.random.default_rng(48)
        for _ in range(200):
            ladder, mbs = _random_instance(rng)
            for objective in Objective:
                fast = solve(ladder, mbs, objective)
                slow = brute_force_solve(ladder, mbs, objective)
                assert fast.contract.assignment == slow.contract.assignment
                assert fast.revenue == pytest.approx(slow.revenue, abs=1e-9)
                assert fast.welfare == pytest.approx(slow.welfare, abs=1e-9)
                for a, b in zip(fast.trace, slow.trace):
                    assert a.inner_value == pytest.approx(b.inner_value, abs=1e-9)
                    assert a.objective_value == pytest.approx(
                        b.objective_value, abs=1e-9
                    )

    def test_scores_equal_the_public_evaluators(self):
        # Both solvers score against the load's cost row; the public
        # evaluators sum the cost afresh.  The floats must be the same.
        for index in range(200):
            rng = np.random.default_rng(DEFAULT_ORACLE_SEED + index)
            ladder, mbs = sample_instance(rng)
            for objective in Objective:
                for result in (
                    solve(ladder, mbs, objective),
                    brute_force_solve(ladder, mbs, objective),
                ):
                    contract = result.contract
                    assert result.revenue == revenue(ladder, contract, mbs)
                    assert result.welfare == social_welfare(
                        ladder, contract.assignment, mbs
                    )

    @settings(max_examples=200, deadline=None)
    @given(instance=_oracle_instances())
    def test_agrees_with_dp_on_wider_instances(self, instance):
        ladder, mbs = instance
        assert count_monotone_assignments(ladder, mbs.total_channels) <= 20_000
        for objective in Objective:
            fast = solve(ladder, mbs, objective)
            slow = brute_force_solve(ladder, mbs, objective)
            assert fast.contract.assignment == slow.contract.assignment
            assert fast.revenue == pytest.approx(slow.revenue, abs=1e-9)
            assert fast.welfare == pytest.approx(slow.welfare, abs=1e-9)

    def test_corrupted_tie_break_is_caught(self):
        # A deliberately loosened, reversed tie rule must visibly diverge
        # from the oracle somewhere in a modest instance batch.
        rng = np.random.default_rng(49)
        corrupt = CORRUPT_TIE_BREAK
        mismatches = 0
        for _ in range(50):
            ladder, mbs = _random_instance(rng)
            bad = solve(ladder, mbs, Objective.MBS_REVENUE, tie=corrupt)
            good = brute_force_solve(ladder, mbs, Objective.MBS_REVENUE)
            if (
                bad.contract.assignment != good.contract.assignment
                or abs(bad.revenue - good.revenue) > 1e-9
            ):
                mismatches += 1
        assert mismatches > 0

    def test_trace_length_matches_budget(self):
        ladder = TypeLadder((1.0, 3.0), (2, 1))
        mbs = MbsLoad(7, 2.0)
        res = brute_force_solve(ladder, mbs, Objective.SOCIAL_WELFARE)
        assert len(res.trace) == 8
        assert res.contract.assignment.is_monotone


class TestSaturationCap:
    def test_cap_tracks_busiest_type(self):
        ladder = TypeLadder((1.0, 10.0), (1, 1))
        assert saturation_cap(ladder, 200) == 40

    def test_cap_is_a_true_plateau(self):
        ladder = TypeLadder((4.0, 10.0), (1, 1))
        cap = saturation_cap(ladder, 200)
        for lam in ladder.lambdas:
            assert uav_utility(lam, cap + 5) - uav_utility(lam, cap) < 1e-11

    @settings(max_examples=200, deadline=None)
    @given(
        lambdas=st.lists(
            st.floats(min_value=1e-3, max_value=60.0),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        total=st.integers(min_value=0, max_value=200),
        tol=st.sampled_from([1e-12, 1e-6, 0.3]),
    )
    def test_cap_stops_at_the_budget(self, lambdas, total, tol):
        # The scan stops after M tails; the cap must still be the full
        # saturation point whenever that lies within the budget, also
        # for budgets next to it.
        ladder = TypeLadder(tuple(sorted(lambdas)), (1,) * len(lambdas))
        full = saturation_channels(max(lambdas), tol)
        for budget in (total, max(full - 2, 0), max(full - 1, 0), full, full + 1):
            assert saturation_cap(ladder, budget, tol) == min(budget, full)

