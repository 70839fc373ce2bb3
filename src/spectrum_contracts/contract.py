"""Contract data model, feasibility checks, optimal pricing, and evaluation.

A contract is a menu of (channel count, price) options, one per operator
type. The base station publishes the menu; each operator picks the option
written for its own type only when the menu is incentive compatible (no
option written for another type yields more surplus) and individually
rational (its own option yields non-negative surplus).

Prices are expressed in the same unit as utility, expected served users,
so revenue subtracts channel cost from payments directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .stochastic import mbs_cost, uav_utility

__all__ = [
    "TypeLadder",
    "QualityAssignment",
    "PriceSchedule",
    "Contract",
    "MbsLoad",
    "ConstraintCheck",
    "FeasibilityReport",
    "ConditionCheck",
    "Lemma2Report",
    "ladder_from_lambdas",
    "validate_feasibility",
    "lemma2_conditions",
    "optimal_prices",
    "revenue",
    "revenue_at_cost",
    "gain",
    "gain_from_utilities",
    "social_welfare",
    "welfare_at_cost",
    "total_weight",
    "operator_surpluses",
]

# IC/IR slack below this magnitude is treated as binding, not violated.
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class TypeLadder:
    """Operator types in strictly ascending order with their head counts.

    Attributes:
        lambdas: Mean active-user count per type, strictly ascending.
        counts: Number of operators of each type, all >= 1.
    """

    lambdas: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        lambdas = tuple(float(v) for v in self.lambdas)
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "counts", counts)
        if len(lambdas) == 0:
            raise ValueError("a type ladder needs at least one type")
        if len(lambdas) != len(counts):
            raise ValueError(
                f"{len(lambdas)} types but {len(counts)} counts"
            )
        for lam in lambdas:
            if not math.isfinite(lam) or lam <= 0.0:
                raise ValueError(f"type mean must be positive and finite, got {lam}")
        for prev, cur in zip(lambdas, lambdas[1:]):
            if cur <= prev:
                raise ValueError(
                    f"type means must be strictly ascending; merge duplicates "
                    f"by summing counts (got {prev} then {cur})"
                )
        for count in counts:
            if count < 1:
                raise ValueError(f"type count must be >= 1, got {count}")

    @property
    def size(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class QualityAssignment:
    """Channel counts offered per type, aligned with a TypeLadder.

    Monotonicity in type (w_1 <= ... <= w_T) is what makes an assignment
    feasible; it is reported by the checkers and required by the pricing
    recursion rather than enforced here, so that infeasible menus can be
    represented and diagnosed.
    """

    w: tuple[int, ...]

    def __post_init__(self):
        w = tuple(int(v) for v in self.w)
        object.__setattr__(self, "w", w)
        if len(w) == 0:
            raise ValueError("an assignment needs at least one entry")
        for v in w:
            if v < 0:
                raise ValueError(f"channel counts must be >= 0, got {v}")

    @property
    def is_monotone(self) -> bool:
        return all(a <= b for a, b in zip(self.w, self.w[1:]))


@dataclass(frozen=True)
class PriceSchedule:
    """Prices per type, in expected-served-users units."""

    p: tuple[float, ...]

    def __post_init__(self):
        p = tuple(float(v) for v in self.p)
        object.__setattr__(self, "p", p)
        if len(p) == 0:
            raise ValueError("a price schedule needs at least one entry")
        for v in p:
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"prices must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class Contract:
    """A quality assignment together with its price schedule."""

    assignment: QualityAssignment
    prices: PriceSchedule

    def __post_init__(self):
        if len(self.assignment.w) != len(self.prices.p):
            raise ValueError(
                f"assignment has {len(self.assignment.w)} entries but prices "
                f"have {len(self.prices.p)}"
            )


@dataclass(frozen=True)
class MbsLoad:
    """Base-station side of the market: channel stock and own load.

    Attributes:
        total_channels: Total channels M held by the base station.
        load: Mean active-user count at the base station itself.
    """

    total_channels: int
    load: float

    def __post_init__(self):
        object.__setattr__(self, "total_channels", int(self.total_channels))
        object.__setattr__(self, "load", float(self.load))
        if self.total_channels < 1:
            raise ValueError(
                f"total_channels must be >= 1, got {self.total_channels}"
            )
        if not math.isfinite(self.load) or self.load <= 0.0:
            raise ValueError(f"load must be positive and finite, got {self.load}")


@dataclass(frozen=True)
class ConstraintCheck:
    """One IC or IR constraint with its signed slack.

    Attributes:
        kind: "ic" for an incentive constraint, "ir" for rationality.
        t: Index of the constrained type (0-based).
        other: For IC, the index of the option being compared; None for IR.
        slack: Constraint value; feasible means slack >= -tolerance.
        ok: Whether the constraint holds at the report's tolerance.
    """

    kind: str
    t: int
    other: int | None
    slack: float
    ok: bool


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of an IC/IR check over a full contract."""

    feasible: bool
    checks: tuple[ConstraintCheck, ...] = field(repr=False)

    @property
    def violations(self) -> tuple[ConstraintCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


@dataclass(frozen=True)
class ConditionCheck:
    """One clause of the three-condition feasibility characterization.

    Attributes:
        condition: 1 (monotone quality), 2 (first price bounds), or
            3 (price increment bounds).
        t: Type index the clause applies to (0-based).
        lower: Lower bound on the checked value (None where not applicable).
        upper: Upper bound on the checked value.
        value: The checked value itself.
        ok: Whether the clause holds at the report's tolerance.
    """

    condition: int
    t: int
    lower: float | None
    upper: float | None
    value: float
    ok: bool


@dataclass(frozen=True)
class Lemma2Report:
    """Outcome of the three-condition characterization check."""

    feasible: bool
    checks: tuple[ConditionCheck, ...] = field(repr=False)

    @property
    def violations(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def ladder_from_lambdas(
    lambdas, counts=None, *, drop_nonpositive: bool = False
) -> TypeLadder:
    """Build a ladder from raw type means, merging duplicates by count.

    Args:
        lambdas: Iterable of type means, any order, duplicates allowed.
        counts: Optional per-mean counts (default 1 each).
        drop_nonpositive: Silently drop means <= 0 (used when types are
            derived from geometry and some regions are empty).

    Returns:
        A TypeLadder with strictly ascending means and summed counts.

    Raises:
        ValueError: If nothing remains to build a ladder from.
    """
    lambdas = [float(v) for v in lambdas]
    if counts is None:
        counts = [1] * len(lambdas)
    else:
        counts = [int(c) for c in counts]
    if len(lambdas) != len(counts):
        raise ValueError(f"{len(lambdas)} means but {len(counts)} counts")
    merged: dict[float, int] = {}
    for lam, count in zip(lambdas, counts):
        if lam <= 0.0:
            if drop_nonpositive:
                continue
            raise ValueError(f"type mean must be positive, got {lam}")
        merged[lam] = merged.get(lam, 0) + count
    if not merged:
        raise ValueError("no positive type means to build a ladder from")
    ordered = sorted(merged)
    return TypeLadder(tuple(ordered), tuple(merged[lam] for lam in ordered))


def _check_dimensions(ladder: TypeLadder, length: int, what: str) -> None:
    if length != ladder.size:
        raise ValueError(
            f"{what} has {length} entries but the ladder has {ladder.size} types"
        )


def validate_feasibility(
    ladder: TypeLadder, contract: Contract, tol: float = FEASIBILITY_TOL
) -> FeasibilityReport:
    """Check every IC and IR constraint of a contract against a ladder.

    IC for type t against option t': U(lam_t, w_t) - p_t >= U(lam_t, w_t') - p_t'.
    IR for type t: U(lam_t, w_t) - p_t >= 0.

    Args:
        ladder: The operator types the menu is written for.
        contract: The menu to check.
        tol: Absolute slack below which a constraint counts as binding
            rather than violated.

    Returns:
        A FeasibilityReport listing the signed slack of every constraint.

    Raises:
        ValueError: On dimension mismatch between ladder and contract.
    """
    _check_dimensions(ladder, len(contract.assignment.w), "contract")
    w = contract.assignment.w
    p = contract.prices.p
    size = ladder.size
    utilities = [
        [uav_utility(ladder.lambdas[t], w[j]) for j in range(size)]
        for t in range(size)
    ]
    checks: list[ConstraintCheck] = []
    feasible = True
    for t in range(size):
        own = utilities[t][t] - p[t]
        slack = own
        ok = slack >= -tol
        feasible &= ok
        checks.append(ConstraintCheck("ir", t, None, slack, ok))
        for j in range(size):
            if j == t:
                continue
            slack = own - (utilities[t][j] - p[j])
            ok = slack >= -tol
            feasible &= ok
            checks.append(ConstraintCheck("ic", t, j, slack, ok))
    return FeasibilityReport(feasible, tuple(checks))


def lemma2_conditions(
    ladder: TypeLadder, contract: Contract, tol: float = FEASIBILITY_TOL
) -> Lemma2Report:
    """Check the three-condition characterization of feasible menus.

    The conditions are equivalent to the full IC/IR system:
      1. quality is nondecreasing in type;
      2. 0 <= p_1 <= U(lam_1, w_1);
      3. for every k >= 2, the price increment p_k - p_{k-1} lies between
         the increment valued by the previous type and by the own type:
         U(lam_{k-1}, w_k) - U(lam_{k-1}, w_{k-1}) <= p_k - p_{k-1}
         <= U(lam_k, w_k) - U(lam_k, w_{k-1}).

    Args:
        ladder: The operator types.
        contract: The menu to check.
        tol: Absolute tolerance applied to each inequality.

    Returns:
        A Lemma2Report with one ConditionCheck per clause, including the
        bound values so callers can inspect tightness.

    Raises:
        ValueError: On dimension mismatch.
    """
    _check_dimensions(ladder, len(contract.assignment.w), "contract")
    w = contract.assignment.w
    p = contract.prices.p
    checks: list[ConditionCheck] = []
    feasible = True
    for t in range(1, ladder.size):
        ok = w[t] >= w[t - 1]
        feasible &= ok
        checks.append(
            ConditionCheck(1, t, float(w[t - 1]), None, float(w[t]), ok)
        )
    first_cap = uav_utility(ladder.lambdas[0], w[0])
    ok = -tol <= p[0] <= first_cap + tol
    feasible &= ok
    checks.append(ConditionCheck(2, 0, 0.0, first_cap, p[0], ok))
    for t in range(1, ladder.size):
        lower = p[t - 1] + (
            uav_utility(ladder.lambdas[t - 1], w[t])
            - uav_utility(ladder.lambdas[t - 1], w[t - 1])
        )
        upper = p[t - 1] + (
            uav_utility(ladder.lambdas[t], w[t])
            - uav_utility(ladder.lambdas[t], w[t - 1])
        )
        ok = lower - tol <= p[t] <= upper + tol
        feasible &= ok
        checks.append(ConditionCheck(3, t, lower, upper, p[t], ok))
    return Lemma2Report(feasible, tuple(checks))


def optimal_prices(ladder: TypeLadder, assignment: QualityAssignment) -> PriceSchedule:
    """Revenue-maximizing prices for a monotone quality assignment.

    The first type is charged its full utility (its rationality constraint
    binds); each later type is charged the previous price plus its own
    valuation of the quality step, which makes every downward incentive
    constraint bind.

    Args:
        ladder: The operator types.
        assignment: Monotone channel counts, one per type.

    Returns:
        The unique price schedule that extracts maximum payment while
        keeping the menu feasible.

    Raises:
        ValueError: If dimensions mismatch or the assignment is not monotone.
    """
    _check_dimensions(ladder, len(assignment.w), "assignment")
    if not assignment.is_monotone:
        raise ValueError(
            f"assignment must be nondecreasing in type, got {assignment.w}"
        )
    w = assignment.w
    prices = [uav_utility(ladder.lambdas[0], w[0])]
    for t in range(1, ladder.size):
        step = uav_utility(ladder.lambdas[t], w[t]) - uav_utility(
            ladder.lambdas[t], w[t - 1]
        )
        prices.append(prices[-1] + step)
    return PriceSchedule(tuple(prices))


def total_weight(ladder: TypeLadder, assignment: QualityAssignment) -> int:
    """Total channels the assignment hands out: sum of count_t * w_t."""
    _check_dimensions(ladder, len(assignment.w), "assignment")
    return sum(c * v for c, v in zip(ladder.counts, assignment.w))


def _affordable_weight(
    ladder: TypeLadder, assignment: QualityAssignment, mbs: MbsLoad
) -> int:
    sold = total_weight(ladder, assignment)
    if sold > mbs.total_channels:
        raise ValueError(
            f"assignment needs {sold} channels but the base station holds "
            f"{mbs.total_channels}"
        )
    return sold


def revenue(ladder: TypeLadder, contract: Contract, mbs: MbsLoad) -> float:
    """Net payoff of the base station for a given contract.

    Payments collected from every operator minus the cost of the channels
    handed out.

    Args:
        ladder: The operator types.
        contract: The menu being deployed.
        mbs: Base-station stock and load.

    Returns:
        sum_t count_t * p_t - C(sum_t count_t * w_t).

    Raises:
        ValueError: If the assignment needs more channels than the stock.
    """
    sold = _affordable_weight(ladder, contract.assignment, mbs)
    return revenue_at_cost(
        ladder, contract, mbs_cost(sold, mbs.total_channels, mbs.load)
    )


def revenue_at_cost(ladder: TypeLadder, contract: Contract, cost: float) -> float:
    """Payments collected from every operator minus a given channel cost.

    ``revenue`` is this form with cost C(sum_t count_t * w_t); a caller
    holding the whole cost row C(0..M) passes its entry instead.
    """
    payments = math.fsum(
        c * p for c, p in zip(ladder.counts, contract.prices.p)
    )
    return payments - cost


def gain(ladder: TypeLadder, t: int, w: int) -> float:
    """Per-type decoupled revenue contribution of handing w channels to type t.

    G_t(w) = C_t * U(lam_t, w) - D_t * U(lam_{t+1}, w), where C_t counts
    operators of type t and above and D_t those strictly above. Summing
    G_t(w_t) over types and subtracting channel cost reproduces the revenue
    under optimal prices, which is what lets a knapsack-style solver
    optimize type by type.

    Args:
        ladder: The operator types.
        t: Type index, 0-based.
        w: Channel count to evaluate.

    Returns:
        G_t(w); zero when w is zero.

    Raises:
        ValueError: If t is out of range.
    """
    if not 0 <= t < ladder.size:
        raise ValueError(f"type index {t} out of range for {ladder.size} types")
    return gain_from_utilities(
        ladder, t, lambda s: uav_utility(ladder.lambdas[s], w)
    )


def gain_from_utilities(ladder: TypeLadder, t: int, utility):
    """G_t given the utilities it is made of; the one home of its formula.

    Args:
        ladder: The operator types.
        t: Type index, 0-based and in range.
        utility: Callable mapping a type index s to U(lam_s, w), either
            for one w (a float) or for a range of w (a numpy array, giving
            G_t elementwise over that range with the same arithmetic).

    Returns:
        G_t(w) = C_t * U(lam_t, w) - D_t * U(lam_{t+1}, w), as a float or
        an array matching what ``utility`` returns.
    """
    above = sum(ladder.counts[t:])
    strictly_above = above - ladder.counts[t]
    value = above * utility(t)
    if strictly_above > 0:
        value = value - strictly_above * utility(t + 1)
    return value


def social_welfare(
    ladder: TypeLadder, assignment: QualityAssignment, mbs: MbsLoad
) -> float:
    """Total surplus created by an assignment, independent of prices.

    Utility delivered to all operators minus the base station's channel
    cost. Equals revenue plus total operator surplus for any feasible
    pricing of the same assignment (payments cancel out).

    Args:
        ladder: The operator types.
        assignment: Channel counts per type.
        mbs: Base-station stock and load.

    Returns:
        sum_t count_t * U(lam_t, w_t) - C(sum_t count_t * w_t).

    Raises:
        ValueError: If the assignment exceeds the channel stock.
    """
    sold = _affordable_weight(ladder, assignment, mbs)
    return welfare_at_cost(
        ladder, assignment, mbs_cost(sold, mbs.total_channels, mbs.load)
    )


def welfare_at_cost(
    ladder: TypeLadder, assignment: QualityAssignment, cost: float
) -> float:
    """Utility delivered to all operators minus a given channel cost.

    ``social_welfare`` is this form with cost C(sum_t count_t * w_t).
    """
    served = math.fsum(
        c * uav_utility(lam, v)
        for c, lam, v in zip(ladder.counts, ladder.lambdas, assignment.w)
    )
    return served - cost


def operator_surpluses(ladder: TypeLadder, contract: Contract) -> tuple[float, ...]:
    """Per-type surplus U(lam_t, w_t) - p_t under a contract."""
    _check_dimensions(ladder, len(contract.assignment.w), "contract")
    return tuple(
        uav_utility(lam, v) - p
        for lam, v, p in zip(
            ladder.lambdas, contract.assignment.w, contract.prices.p
        )
    )
