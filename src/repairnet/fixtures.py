"""Golden regression cases wired into both the test suite and the CLI.

Two fixture families: the 18-state optimal-action table of the two-machine
instance, and the five three-machine instances with known index-policy and
optimal average costs.  Expected averages carry a 0.01 tolerance because
the reference values are rounded to two decimals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dp import DEFAULT_TOL, StationaryPolicy, evaluate_policy, policy_iteration
from .index_policy import IndexPolicy
from .instance import counterexample_instances, two_machine_instance
from .mdp import SystemState

# Optimal action at every state of the two-machine fixture, keyed by
# (location, (x1, x2)).  The notable entries: at (1, (2, 1)) the repairer
# abandons the more expensive machine 1 mid-repair, and at (1, (2, 2)) it
# stays.
TWO_MACHINE_OPTIMAL_ACTIONS: dict[SystemState, int] = {
    SystemState(1, (0, 0)): 1,
    SystemState(1, (0, 1)): 2,
    SystemState(1, (0, 2)): 2,
    SystemState(1, (1, 0)): 1,
    SystemState(1, (1, 1)): 1,
    SystemState(1, (1, 2)): 1,
    SystemState(1, (2, 0)): 1,
    SystemState(1, (2, 1)): 2,
    SystemState(1, (2, 2)): 1,
    SystemState(2, (0, 0)): 1,
    SystemState(2, (0, 1)): 2,
    SystemState(2, (0, 2)): 2,
    SystemState(2, (1, 0)): 1,
    SystemState(2, (1, 1)): 1,
    SystemState(2, (1, 2)): 1,
    SystemState(2, (2, 0)): 1,
    SystemState(2, (2, 1)): 2,
    SystemState(2, (2, 2)): 1,
}

COUNTEREXAMPLE_LABELS = (
    "a: star, slow switching",
    "b: complete graph, K=2",
    "c1: heterogeneous degradation rates",
    "c2: heterogeneous repair rates",
    "c3: heterogeneous cost parameters",
)
COUNTEREXAMPLE_EXPECTED = (
    (2.37, 2.25),
    (2.62, 2.58),
    (0.85, 0.80),
    (1.22, 1.18),
    (13.15, 12.98),
)
COUNTEREXAMPLE_TOL = 0.01


@dataclass
class FixtureOutcome:
    name: str
    passed: bool
    details: list[str]


def verify_two_machine_policy(tol: float = DEFAULT_TOL) -> FixtureOutcome:
    """Policy iteration must reproduce all 18 optimal actions."""
    inst = two_machine_instance()
    solution = policy_iteration(inst, tol=tol)
    table = solution.policy_table(inst)
    mismatches = []
    for state, expected in TWO_MACHINE_OPTIMAL_ACTIONS.items():
        got = table[state]
        if got != expected:
            mismatches.append(f"state {state}: expected action {expected}, got {got}")
    return FixtureOutcome(name="two-machine-policy", passed=not mismatches, details=mismatches)


def verify_counterexamples(tol: float = DEFAULT_TOL) -> list[FixtureOutcome]:
    """Each case must reproduce the (index-policy, optimal) cost pair."""
    outcomes = []
    for inst, label, (expected_ind, expected_star) in zip(
        counterexample_instances(), COUNTEREXAMPLE_LABELS, COUNTEREXAMPLE_EXPECTED
    ):
        index_pol = StationaryPolicy.from_rule(inst, IndexPolicy(inst))
        g_ind = evaluate_policy(inst, index_pol, tol=tol).g
        g_star = policy_iteration(inst, tol=tol).g_star
        details = [
            f"g_index = {g_ind:.6f} (expected {expected_ind} +/- {COUNTEREXAMPLE_TOL})",
            f"g_star  = {g_star:.6f} (expected {expected_star} +/- {COUNTEREXAMPLE_TOL})",
        ]
        passed = (
            abs(g_ind - expected_ind) <= COUNTEREXAMPLE_TOL
            and abs(g_star - expected_star) <= COUNTEREXAMPLE_TOL
        )
        outcomes.append(FixtureOutcome(name=label, passed=passed, details=details))
    return outcomes


def verify_all(tol: float = DEFAULT_TOL) -> list[FixtureOutcome]:
    return [verify_two_machine_policy(tol=tol), *verify_counterexamples(tol=tol)]
