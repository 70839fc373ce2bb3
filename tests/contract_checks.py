"""Reference checkers for contract feasibility, used by the tests.

A menu is feasible when every operator prefers the option written for
its own type (incentive compatibility, IC) and gains from taking it
(individual rationality, IR).  ``validate_feasibility`` checks that
IC/IR system directly; ``lemma2_conditions`` checks the three
conditions it reduces to (arXiv 1801.05388, Lemma 2).  The solver
never calls either: it prices a monotone assignment in closed form,
and the tests hold those prices against these checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from spectrum_contracts.contract import Contract, TypeLadder, _check_dimensions
from spectrum_contracts.stochastic import utility_table

from poisson_wrappers import uav_utility

# IC/IR slack below this magnitude is treated as binding, not violated.
FEASIBILITY_TOL = 1e-9


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


def ladder_utilities(ladder: TypeLadder, top: int) -> list:
    """One ``utility_table`` per type, up to count top: the tables that
    pricing and scoring read, as the solver builds them."""
    return [utility_table(lam, top) for lam in ladder.lambdas]
