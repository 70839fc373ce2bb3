"""Tests for the contract model: feasibility, pricing, revenue, gains."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrum_contracts.contract import (
    Contract,
    MbsLoad,
    PriceSchedule,
    QualityAssignment,
    TypeLadder,
    gain,
    operator_surpluses,
    optimal_prices,
    revenue,
    social_welfare,
    total_weight,
)
from spectrum_contracts.geometry import DerivedTypes
from spectrum_contracts.stochastic import cost_table

from contract_checks import ladder_utilities, lemma2_conditions, validate_feasibility
from poisson_wrappers import poisson_tail, uav_utility


def _contract(w, p):
    return Contract(QualityAssignment(tuple(w)), PriceSchedule(tuple(p)))


def _cost(ladder, assignment, mbs):
    """The base station's cost of the channels an assignment sells."""
    costs = cost_table(mbs.total_channels, mbs.load)
    return float(costs[total_weight(ladder, assignment)])


def _utilities(ladder, assignment):
    """The per-type utility tables the evaluators read for an assignment."""
    return ladder_utilities(ladder, max(assignment.w))


def _prices(ladder, assignment):
    return optimal_prices(ladder, assignment, _utilities(ladder, assignment))


def _gain_at(ladder, t, w):
    """G_t at one channel count w."""
    return gain(ladder, t, [uav_utility(lam, w) for lam in ladder.lambdas])


def _random_ladder(rng, max_types=4, lam_hi=8.0):
    size = int(rng.integers(1, max_types + 1))
    lambdas = np.sort(rng.uniform(0.3, lam_hi, size=size))
    while np.any(np.diff(lambdas) < 1e-6):
        lambdas = np.sort(rng.uniform(0.3, lam_hi, size=size))
    counts = rng.integers(1, 4, size=size)
    return TypeLadder(tuple(float(v) for v in lambdas), tuple(int(c) for c in counts))


def _random_monotone_assignment(rng, size, w_hi=8):
    w = np.sort(rng.integers(0, w_hi + 1, size=size))
    return QualityAssignment(tuple(int(v) for v in w))


class TestValueTypes:
    def test_ladder_requires_ascending_means(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            TypeLadder((2.0, 1.0), (1, 1))
        with pytest.raises(ValueError, match="merge duplicates"):
            TypeLadder((2.0, 2.0), (1, 1))

    def test_ladder_requires_positive_counts(self):
        with pytest.raises(ValueError, match="count"):
            TypeLadder((1.0, 2.0), (1, 0))

    def test_ladder_requires_positive_means(self):
        with pytest.raises(ValueError, match="positive"):
            TypeLadder((0.0,), (1,))

    def test_merge_helper_sums_duplicate_counts(self):
        derived = DerivedTypes(lambdas=(2.0, 1.0, 2.0, 0.5, 2.0, 1.0), excluded_uavs=())
        ladder = derived.ladder()
        assert ladder.lambdas == (0.5, 1.0, 2.0)
        assert ladder.counts == (1, 2, 3)

    def test_assignment_allows_non_monotone_but_reports_it(self):
        assignment = QualityAssignment((2, 1))
        assert not assignment.is_monotone
        assert QualityAssignment((1, 1, 3)).is_monotone

    def test_assignment_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            QualityAssignment((1, -1))

    def test_contract_dimension_check(self):
        with pytest.raises(ValueError, match="entries"):
            _contract((1, 2), (0.5,))

    def test_mbs_load_validation(self):
        with pytest.raises(ValueError, match="total_channels"):
            MbsLoad(0, 5.0)
        with pytest.raises(ValueError, match="load"):
            MbsLoad(10, -1.0)


class TestValidateFeasibility:
    def test_single_type_priced_at_utility_is_feasible(self):
        ladder = TypeLadder((3.0,), (1,))
        contract = _contract((3,), (uav_utility(3.0, 3),))
        report = validate_feasibility(ladder, contract)
        assert report.feasible
        (ir,) = [c for c in report.checks if c.kind == "ir"]
        assert ir.slack == pytest.approx(0.0, abs=1e-12)

    def test_optimal_prices_always_feasible(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            ladder = _random_ladder(rng)
            assignment = _random_monotone_assignment(rng, ladder.size)
            contract = Contract(assignment, _prices(ladder, assignment))
            assert validate_feasibility(ladder, contract).feasible

    def test_decreasing_quality_is_never_feasible(self):
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        rng = np.random.default_rng(22)
        for _ in range(20):
            prices = tuple(rng.uniform(0.0, 2.0, size=2))
            report = validate_feasibility(ladder, _contract((2, 1), prices))
            assert not report.feasible
            assert any(c.kind == "ic" for c in report.violations)

    def test_report_names_violated_pairs(self):
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        # Charge the low type more than its whole utility: IR(0) must fail.
        contract = _contract((1, 2), (0.9, 1.0))
        report = validate_feasibility(ladder, contract)
        assert not report.feasible
        kinds = {(c.kind, c.t, c.other) for c in report.violations}
        assert ("ir", 0, None) in kinds

    def test_dimension_mismatch(self):
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        with pytest.raises(ValueError, match="types"):
            validate_feasibility(ladder, _contract((1,), (0.1,)))


class TestLemma2Conditions:
    def test_optimal_prices_pass_with_tight_upper_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            ladder = _random_ladder(rng, max_types=5)
            assignment = _random_monotone_assignment(rng, ladder.size)
            contract = Contract(assignment, _prices(ladder, assignment))
            report = lemma2_conditions(ladder, contract)
            assert report.feasible
            for check in report.checks:
                if check.condition == 3:
                    assert check.value == pytest.approx(check.upper, abs=1e-9)

    def test_overpriced_first_type_fails_condition_two(self):
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        assignment = QualityAssignment((1, 2))
        good = _prices(ladder, assignment)
        bad = PriceSchedule((good.p[0] + 0.01, good.p[1]))
        report = lemma2_conditions(ladder, Contract(assignment, bad))
        assert not report.feasible
        assert any(c.condition == 2 for c in report.violations)

    def test_agrees_with_ic_ir_on_random_contracts(self):
        # Sample prices inside and outside the three-condition region and
        # require both checkers to return the same verdict.
        rng = np.random.default_rng(24)
        for _ in range(300):
            ladder = _random_ladder(rng, max_types=3, lam_hi=5.0)
            assignment = _random_monotone_assignment(rng, ladder.size, w_hi=5)
            base = _prices(ladder, assignment)
            jitter = rng.normal(scale=0.05, size=ladder.size)
            prices = tuple(max(0.0, p + j) for p, j in zip(base.p, jitter))
            contract = _contract(assignment.w, prices)
            direct = validate_feasibility(ladder, contract)
            via_conditions = lemma2_conditions(ladder, contract)
            assert direct.feasible == via_conditions.feasible, (
                ladder,
                contract,
            )

    def test_rejection_sampled_feasible_contracts_pass(self):
        rng = np.random.default_rng(25)
        accepted = 0
        while accepted < 30:
            ladder = _random_ladder(rng, max_types=3, lam_hi=4.0)
            assignment = _random_monotone_assignment(rng, ladder.size, w_hi=4)
            prices = tuple(
                float(rng.uniform(0.0, uav_utility(lam, w) + 0.2))
                for lam, w in zip(ladder.lambdas, assignment.w)
            )
            contract = _contract(assignment.w, prices)
            if not validate_feasibility(ladder, contract).feasible:
                continue
            accepted += 1
            assert lemma2_conditions(ladder, contract).feasible


class TestOptimalPrices:
    def test_single_type_base_case(self):
        ladder = TypeLadder((2.0,), (1,))
        prices = _prices(ladder, QualityAssignment((1,)))
        assert prices.p[0] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-14)

    def test_all_zero_assignment_prices_at_zero(self):
        ladder = TypeLadder((1.0, 2.0, 3.0), (1, 1, 1))
        prices = _prices(ladder, QualityAssignment((0, 0, 0)))
        assert prices.p == (0.0, 0.0, 0.0)

    def test_two_type_recursion(self):
        # Frozen: p1 = 1 - exp(-1); p2 = p1 + P(X_2 >= 2).
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        prices = _prices(ladder, QualityAssignment((1, 2)))
        assert prices.p[0] == pytest.approx(0.6321205588285577, abs=1e-14)
        assert prices.p[1] == pytest.approx(1.2261147091187192, abs=1e-14)
        assert prices.p[1] - prices.p[0] == pytest.approx(
            poisson_tail(2.0, 2), abs=1e-12
        )

    def test_grid_search_cannot_beat_recursion(self):
        # Independent oracle: enumerate feasible price pairs on a 1e-3 grid.
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        assignment = QualityAssignment((1, 2))
        best_grid = _grid_search_revenue_two_types(ladder, assignment, 1e-3)
        prices = _prices(ladder, assignment)
        opt = sum(c * p for c, p in zip(ladder.counts, prices.p))
        assert best_grid <= opt + 2e-3 * ladder.size
        assert best_grid >= opt - 2e-3 * ladder.size

    def test_bumping_any_price_breaks_feasibility(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            ladder = _random_ladder(rng, max_types=4)
            assignment = _random_monotone_assignment(rng, ladder.size)
            prices = _prices(ladder, assignment)
            for t in range(ladder.size):
                bumped = list(prices.p)
                bumped[t] += 1e-6
                report = validate_feasibility(
                    ladder, Contract(assignment, PriceSchedule(tuple(bumped)))
                )
                assert not report.feasible

    def test_rejects_non_monotone_assignment(self):
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        with pytest.raises(ValueError, match="nondecreasing"):
            _prices(ladder, QualityAssignment((2, 1)))

    def test_prop3_orderings(self):
        # Prices nondecreasing, strictly increasing exactly with quality.
        rng = np.random.default_rng(27)
        for _ in range(200):
            ladder = _random_ladder(rng, max_types=4, lam_hi=6.0)
            assignment = _random_monotone_assignment(rng, ladder.size, w_hi=6)
            prices = _prices(ladder, assignment)
            for t in range(1, ladder.size):
                if assignment.w[t] == assignment.w[t - 1]:
                    assert prices.p[t] == prices.p[t - 1]
                else:
                    assert prices.p[t] > prices.p[t - 1]


class TestRevenueAndWelfare:
    def test_all_zero_contract_is_free(self):
        ladder = TypeLadder((1.0, 2.0), (1, 2))
        mbs = MbsLoad(10, 3.0)
        contract = _contract((0, 0), (0.0, 0.0))
        cost = _cost(ladder, contract.assignment, mbs)
        assert revenue(ladder, contract, cost) == 0.0
        assert social_welfare(
            ladder, contract.assignment, _utilities(ladder, contract.assignment), cost
        ) == 0.0

    def test_single_type_revenue_value(self):
        # Frozen: U(2,1) - P(X_1 >= 10).
        ladder = TypeLadder((2.0,), (1,))
        mbs = MbsLoad(10, 1.0)
        contract = _contract((1,), (uav_utility(2.0, 1),))
        cost = _cost(ladder, contract.assignment, mbs)
        assert revenue(ladder, contract, cost) == pytest.approx(
            0.864664605337909, abs=1e-12
        )

    def test_dimension_mismatch(self):
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        with pytest.raises(ValueError, match="types"):
            revenue(ladder, _contract((1,), (0.1,)), 0.0)
        with pytest.raises(ValueError, match="types"):
            social_welfare(ladder, QualityAssignment((1, 1, 1)), [], 0.0)

    def test_welfare_decomposes_into_revenue_plus_surplus(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            ladder = _random_ladder(rng, max_types=4, lam_hi=6.0)
            assignment = _random_monotone_assignment(rng, ladder.size, w_hi=5)
            mbs = MbsLoad(total_weight(ladder, assignment) + 5, 4.0)
            utilities = _utilities(ladder, assignment)
            contract = Contract(assignment, optimal_prices(ladder, assignment, utilities))
            surplus = math.fsum(
                c * s
                for c, s in zip(
                    ladder.counts, operator_surpluses(ladder, contract, utilities)
                )
            )
            cost = _cost(ladder, assignment, mbs)
            lhs = social_welfare(ladder, assignment, utilities, cost)
            rhs = revenue(ladder, contract, cost) + surplus
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_revenue_decomposes_into_gains_minus_cost(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            ladder = _random_ladder(rng, max_types=4, lam_hi=6.0)
            assignment = _random_monotone_assignment(rng, ladder.size, w_hi=5)
            sold = total_weight(ladder, assignment)
            mbs = MbsLoad(sold + 3, 5.0)
            contract = Contract(assignment, _prices(ladder, assignment))
            gains = math.fsum(
                _gain_at(ladder, t, assignment.w[t]) for t in range(ladder.size)
            )
            cost = _cost(ladder, assignment, mbs)
            assert revenue(ladder, contract, cost) == pytest.approx(
                gains - cost, abs=1e-9
            )


def _reference_prices(ladder, assignment):
    """``optimal_prices`` as it read utilities before it took tables."""
    w = assignment.w
    prices = [uav_utility(ladder.lambdas[0], w[0])]
    for t in range(1, ladder.size):
        step = uav_utility(ladder.lambdas[t], w[t]) - uav_utility(
            ladder.lambdas[t], w[t - 1]
        )
        prices.append(prices[-1] + step)
    return tuple(prices)


@st.composite
def _priced_assignments(draw):
    """Ladders of up to four types whose busiest mean may lie above 700
    (the log-space Poisson branch), monotone assignments up to 80
    channels, and a cost."""
    size = draw(st.integers(min_value=1, max_value=4))
    lambdas = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.01, max_value=60.0),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
    )
    if draw(st.booleans()):
        lambdas[-1] = draw(st.floats(min_value=700.5, max_value=1500.0))
    counts = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    w = sorted(draw(st.lists(st.integers(0, 80), min_size=size, max_size=size)))
    cost = draw(st.floats(min_value=0.0, max_value=50.0))
    return TypeLadder(tuple(lambdas), tuple(counts)), QualityAssignment(tuple(w)), cost


@settings(max_examples=150, deadline=None)
@given(_priced_assignments())
@example((TypeLadder((3.0, 900.0), (2, 1)), QualityAssignment((4, 80)), 7.5))
def test_evaluators_on_utility_tables_equal_the_utility_reference(case):
    # Pricing and scoring read the solver's utility tables; every value
    # must be the one the single-utility reference gives, bit for bit.
    ladder, assignment, cost = case
    utilities = _utilities(ladder, assignment)
    prices = optimal_prices(ladder, assignment, utilities)
    assert prices.p == _reference_prices(ladder, assignment)
    served = math.fsum(
        c * uav_utility(lam, v)
        for c, lam, v in zip(ladder.counts, ladder.lambdas, assignment.w)
    )
    assert social_welfare(ladder, assignment, utilities, cost) == served - cost
    contract = Contract(assignment, prices)
    assert operator_surpluses(ladder, contract, utilities) == tuple(
        uav_utility(lam, v) - p
        for lam, v, p in zip(ladder.lambdas, assignment.w, prices.p)
    )


class TestGain:
    def test_suffix_count_structure(self):
        ladder = TypeLadder((1.0, 2.0, 3.0), (1, 2, 1))
        # Suffix counts: above = (4, 3, 1); strictly above = (3, 1, 0).
        for w in (0, 1, 3):
            assert _gain_at(ladder, 0, w) == pytest.approx(
                4 * uav_utility(1.0, w) - 3 * uav_utility(2.0, w), abs=1e-12
            )
            assert _gain_at(ladder, 1, w) == pytest.approx(
                3 * uav_utility(2.0, w) - 1 * uav_utility(3.0, w), abs=1e-12
            )
            assert _gain_at(ladder, 2, w) == pytest.approx(
                1 * uav_utility(3.0, w), abs=1e-12
            )

    def test_last_type_has_no_discount_term(self):
        ladder = TypeLadder((1.5, 4.0), (2, 3))
        assert _gain_at(ladder, 1, 5) == pytest.approx(
            3 * uav_utility(4.0, 5), abs=1e-12
        )

    def test_zero_channels_zero_gain(self):
        ladder = TypeLadder((1.0, 2.0), (1, 1))
        assert _gain_at(ladder, 0, 0) == 0.0
        assert _gain_at(ladder, 1, 0) == 0.0

    def test_index_out_of_range(self):
        ladder = TypeLadder((1.0,), (1,))
        with pytest.raises(ValueError, match="out of range"):
            _gain_at(ladder, 1, 2)
        with pytest.raises(ValueError, match="out of range"):
            _gain_at(ladder, -1, 2)


class TestIncreasingPreference:
    def test_prop2_on_random_quadruples(self):
        # Higher types value a quality step strictly more.
        rng = np.random.default_rng(30)
        for _ in range(300):
            lam_lo = float(rng.uniform(0.3, 6.0))
            lam_hi = lam_lo + float(rng.uniform(0.05, 4.0))
            w_lo = int(rng.integers(0, 8))
            w_hi = w_lo + int(rng.integers(1, 6))
            step_hi = uav_utility(lam_hi, w_hi) - uav_utility(lam_hi, w_lo)
            step_lo = uav_utility(lam_lo, w_hi) - uav_utility(lam_lo, w_lo)
            assert step_hi > step_lo


def _grid_search_revenue_two_types(ladder, assignment, resolution):
    """Best payment total over feasible price pairs on a regular grid."""
    lam1, lam2 = ladder.lambdas
    n1, n2 = ladder.counts
    w1, w2 = assignment.w
    u11 = uav_utility(lam1, w1)
    u12 = uav_utility(lam1, w2)
    u21 = uav_utility(lam2, w1)
    u22 = uav_utility(lam2, w2)
    tol = 1e-9
    p1 = np.arange(0.0, u11 + resolution, resolution)
    p2 = np.arange(0.0, u22 + resolution, resolution)
    grid1, grid2 = np.meshgrid(p1, p2, indexing="ij")
    feasible = (
        (u11 - grid1 >= -tol)
        & (u22 - grid2 >= -tol)
        & (u11 - grid1 >= u12 - grid2 - tol)
        & (u22 - grid2 >= u21 - grid1 - tol)
    )
    payments = n1 * grid1 + n2 * grid2
    return float(payments[feasible].max())
