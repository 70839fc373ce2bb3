"""Contract data model, optimal pricing, and evaluation.

A contract is a menu of (channel count, price) options, one per operator
type. The base station publishes the menu; each operator picks the option
written for its own type only when the menu is incentive compatible (no
option written for another type yields more surplus) and individually
rational (its own option yields non-negative surplus). A menu is feasible
exactly when its quality is nondecreasing in type and its prices lie in
the bounds that monotone quality allows; ``optimal_prices`` writes the
revenue-maximizing prices inside those bounds in closed form, so a run
never checks the constraints themselves.

Prices are expressed in the same unit as utility, expected served users,
so revenue subtracts channel cost from payments directly.

There is one evaluator per quantity, and none sums a utility or a cost.
``revenue`` and ``social_welfare`` take the base station's cost of the
channels sold, entry ``total_weight`` of ``stochastic.cost_table``;
``optimal_prices``, ``social_welfare`` and ``operator_surpluses`` read
per-type utilities too: ``gain`` takes one entry per type, a float for
one channel count or a ``stochastic.utility_table`` row for many, so the
same formula scores one count or a whole row of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TypeLadder",
    "QualityAssignment",
    "PriceSchedule",
    "Contract",
    "MbsLoad",
    "optimal_prices",
    "revenue",
    "gain",
    "social_welfare",
    "total_weight",
    "operator_surpluses",
]


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
    feasible; it is required by the pricing recursion rather than
    enforced here, so that infeasible menus can be represented and
    diagnosed.
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


def _check_dimensions(ladder: TypeLadder, length: int, what: str) -> None:
    if length != ladder.size:
        raise ValueError(
            f"{what} has {length} entries but the ladder has {ladder.size} types"
        )


def optimal_prices(
    ladder: TypeLadder, assignment: QualityAssignment, utilities
) -> PriceSchedule:
    """Revenue-maximizing prices for a monotone quality assignment.

    The first type is charged its full utility (its rationality constraint
    binds); each later type is charged the previous price plus its own
    valuation of the quality step, which makes every downward incentive
    constraint bind.

    Args:
        ladder: The operator types.
        assignment: Monotone channel counts, one per type.
        utilities: Per-type utility tables; ``utilities[t][w]`` is
            U(lam_t, w) for every count w the assignment holds.

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
    prices = [utilities[0][w[0]]]
    for t in range(1, ladder.size):
        prices.append(prices[-1] + (utilities[t][w[t]] - utilities[t][w[t - 1]]))
    return PriceSchedule(tuple(prices))


def total_weight(ladder: TypeLadder, assignment: QualityAssignment) -> int:
    """Total channels the assignment hands out: sum of count_t * w_t."""
    _check_dimensions(ladder, len(assignment.w), "assignment")
    return sum(c * v for c, v in zip(ladder.counts, assignment.w))


def revenue(ladder: TypeLadder, contract: Contract, cost: float) -> float:
    """Net payoff of the base station for a contract at a given channel cost.

    Payments collected from every operator minus the cost of the channels
    handed out.

    Args:
        ladder: The operator types.
        contract: The menu being deployed.
        cost: The base station's cost C(sum_t count_t * w_t) of the
            channels the menu sells; entry ``total_weight`` of
            ``stochastic.cost_table``.

    Returns:
        sum_t count_t * p_t - cost.

    Raises:
        ValueError: On dimension mismatch between ladder and contract.
    """
    _check_dimensions(ladder, len(contract.prices.p), "contract")
    payments = math.fsum(
        c * p for c, p in zip(ladder.counts, contract.prices.p)
    )
    return payments - cost


def gain(ladder: TypeLadder, t: int, utilities):
    """Per-type decoupled revenue contribution of a channel count for type t.

    G_t(w) = C_t * U(lam_t, w) - D_t * U(lam_{t+1}, w), where C_t counts
    operators of type t and above and D_t those strictly above. Summing
    G_t(w_t) over types and subtracting channel cost reproduces the revenue
    under optimal prices, which is what lets a knapsack-style solver
    optimize type by type.

    Args:
        ladder: The operator types.
        t: Type index, 0-based.
        utilities: Per-type utilities; ``utilities[s]`` is U(lam_s, w),
            either for one w (a float) or for a range of w (a numpy array,
            such as a ``utility_table`` row, giving G_t elementwise over
            that range with the same arithmetic).

    Returns:
        G_t(w), as a float or an array matching the entries of
        ``utilities``; zero where w is zero.

    Raises:
        ValueError: If t is out of range.
    """
    if not 0 <= t < ladder.size:
        raise ValueError(f"type index {t} out of range for {ladder.size} types")
    above = sum(ladder.counts[t:])
    strictly_above = above - ladder.counts[t]
    value = above * utilities[t]
    if strictly_above > 0:
        value = value - strictly_above * utilities[t + 1]
    return value


def social_welfare(
    ladder: TypeLadder, assignment: QualityAssignment, utilities, cost: float
) -> float:
    """Total surplus created by an assignment at a given channel cost.

    Utility delivered to all operators minus the base station's channel
    cost, independent of prices. Equals revenue plus total operator
    surplus for any feasible pricing of the same assignment (payments
    cancel out).

    Args:
        ladder: The operator types.
        assignment: Channel counts per type.
        utilities: Per-type utility tables, as for ``optimal_prices``.
        cost: The base station's cost C(sum_t count_t * w_t), as for
            ``revenue``.

    Returns:
        sum_t count_t * U(lam_t, w_t) - cost.

    Raises:
        ValueError: On dimension mismatch between ladder and assignment.
    """
    _check_dimensions(ladder, len(assignment.w), "assignment")
    served = math.fsum(
        c * table[v] for c, table, v in zip(ladder.counts, utilities, assignment.w)
    )
    return served - cost


def operator_surpluses(
    ladder: TypeLadder, contract: Contract, utilities
) -> tuple[float, ...]:
    """Per-type surplus U(lam_t, w_t) - p_t, U read as ``optimal_prices`` does."""
    _check_dimensions(ladder, len(contract.assignment.w), "contract")
    return tuple(
        float(table[v]) - p
        for table, v, p in zip(utilities, contract.assignment.w, contract.prices.p)
    )
