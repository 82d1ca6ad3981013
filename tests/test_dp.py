import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_failed_state,
    apply_event,
    available_actions,
    enumerate_states,
    homogeneous_complete_instance,
    homogeneous_star_instance,
    limiting_average,
    random_unichain_policy,
    rng,
    step_cost,
    step_probabilities,
    step_reward,
)
from repairnet import dp
from repairnet.dp import (
    DpModel,
    EvaluationDidNotConverge,
    StationaryPolicy,
    evaluate_policy,
    optimality_residual,
    policy_iteration,
    reward_optimum,
)
from repairnet.index_policy import IndexPolicy, ModifiedIndexPolicy
from repairnet.instance import counterexample_instances, two_machine_instance, generate_instance
from repairnet.mdp import (
    SystemState,
    actions_of,
    kernel_of,
    pristine_state,
)


def test_transition_matrix_matches_step_probabilities():
    # Every state's row, stage rates and greedy action against the
    # tuple-level oracle: the two-machine fixture under the index policy,
    # then generated instances with m = 3-4 and cap >= 2 under a random
    # policy, which moves in every direction the layout allows.  The
    # generated layouts are 25-node lattices, so most nodes hold no machine.
    two_machines = two_machine_instance()
    cases = [(two_machines, StationaryPolicy.from_rule(two_machines, IndexPolicy(two_machines)))]
    for seed in (20037, 20034, 20001):  # m=3 cap=2, m=3 cap=3, m=4 cap=2
        inst = generate_instance(seed)
        cases.append((inst, random_unichain_policy(inst, seed)))
    for inst, policy in cases:
        model = DpModel(inst)
        states = enumerate_states(inst)
        matrix = model.transition_matrix(policy).toarray()
        cost = model.stage_vector(policy, "cost")
        reward = model.stage_vector(policy, "reward")
        v = rng(len(states)).random(len(states))
        greedy = model.improve(v, policy).actions
        index = model.indexer.index
        for x, state in enumerate(states):
            action = policy.actions[x]
            expected = np.zeros(len(states))
            for event, p in step_probabilities(inst, state, action):
                expected[index(apply_event(state, event))] += p
            assert np.allclose(matrix[x], expected, rtol=0.0, atol=1e-15), (inst.seed, state)
            assert cost[x] == pytest.approx(step_cost(inst, state), rel=1e-12), (inst.seed, state)
            assert reward[x] == pytest.approx(step_reward(inst, state, action), rel=1e-12)
            # Q(x, a) less the cost rate, which every action shares; the
            # minimizer with the smallest id, or the incumbent when it ties.
            q = {}
            for a in available_actions(inst, state):
                events = step_probabilities(inst, state, a)
                q[a] = sum(p * v[index(apply_event(state, e))] for e, p in events)
            best = min(q.values())
            tied = sorted(a for a in q if q[a] <= best + 1e-12)
            assert greedy[x] == (action if action in tied else tied[0]), (inst.seed, state)


def test_evaluate_passive_policy_absorbing_all_failed():
    inst = homogeneous_star_instance(3, 1, 0.04, 0.12, 1.0, 0.024)
    center = 4
    stay_everywhere = StationaryPolicy.from_rule(inst, lambda s: s.location)
    result = evaluate_policy(inst, stay_everywhere, reference=all_failed_state(inst, center))
    assert result.g == pytest.approx(inst.failed_cost_total(), abs=1e-8)


def test_evaluate_index_policy_star_counterexample():
    inst = counterexample_instances()[0]
    policy = StationaryPolicy.from_rule(inst, IndexPolicy(inst))
    result = evaluate_policy(inst, policy)
    assert result.g == pytest.approx(2.37, abs=0.01)


def test_evaluate_modified_index_two_machine_regression(two_machines):
    policy = StationaryPolicy.from_rule(two_machines, ModifiedIndexPolicy(two_machines))
    result = evaluate_policy(two_machines, policy, tol=1e-9, span_target=1e-9)
    # Frozen regression value, cross-checked against the
    # limiting-distribution oracle.
    assert result.g == pytest.approx(1.1754631487, abs=1e-6)
    oracle = limiting_average(two_machines, policy, DpModel(two_machines).indexer.index(pristine_state(two_machines)))
    assert result.g == pytest.approx(oracle, abs=1e-8)
    assert result.g_span < 1e-9


def test_evaluation_reports_nonconvergence_at_tiny_cap(two_machines, monkeypatch):
    policy = StationaryPolicy.from_rule(two_machines, IndexPolicy(two_machines))
    monkeypatch.setattr(dp, "MAX_SWEEPS", 3)
    with pytest.raises(EvaluationDidNotConverge):
        evaluate_policy(two_machines, policy)


def test_policy_iteration_reproduces_two_machine_table(two_machines):
    from repairnet.fixtures import TWO_MACHINE_OPTIMAL_ACTIONS

    solution = policy_iteration(two_machines)
    table = solution.policy_table(two_machines)
    for state, expected in TWO_MACHINE_OPTIMAL_ACTIONS.items():
        assert table[state] == expected
    assert table[SystemState(1, (2, 1))] == 2  # switch away mid-repair
    assert table[SystemState(1, (2, 2))] == 1


def test_policy_iteration_star_counterexample():
    inst = counterexample_instances()[0]
    solution = policy_iteration(inst)
    assert solution.g_star == pytest.approx(2.25, abs=0.01)
    index_g = evaluate_policy(inst, StationaryPolicy.from_rule(inst, IndexPolicy(inst))).g
    assert index_g - solution.g_star >= 0.10


def test_monotone_improvement_and_residual():
    inst = counterexample_instances()[1]
    solution = policy_iteration(inst, tol=1e-10)
    assert len(solution.g_history) == solution.iterations
    for earlier, later in zip(solution.g_history, solution.g_history[1:]):
        assert later <= earlier + 1e-9
    assert optimality_residual(inst, solution) < 10 * 1e-10 + 1e-12


def test_proposition3_index_policy_optimal():
    inst = homogeneous_complete_instance(3, 0.1, 0.6, 1.3, 0.45)
    index_pol = StationaryPolicy.from_rule(inst, IndexPolicy(inst))
    index_g = evaluate_policy(inst, index_pol, tol=1e-10, span_target=1e-10).g
    solution = policy_iteration(inst, tol=1e-10, span_target=1e-10)
    assert index_g == pytest.approx(solution.g_star, abs=1e-9)


def test_proposition4_star_with_fast_switching():
    lam, radius = 0.05, 2
    inst = homogeneous_star_instance(3, radius, lam, 0.5, 1.0, tau=2.5 * 2 * radius * lam)
    index_pol = StationaryPolicy.from_rule(inst, IndexPolicy(inst))
    index_g = evaluate_policy(inst, index_pol, tol=1e-10, span_target=2e-9).g
    solution = policy_iteration(inst, tol=1e-10, span_target=2e-9)
    assert index_g == pytest.approx(solution.g_star, abs=1e-8)


def test_star_near_threshold_gap():
    # Documented anomaly: just above the switching-rate threshold the index
    # policy's all-pristine rule (head for the idle-score minimizer, the
    # center) measurably loses to parking at a machine; the gap closes by
    # roughly 1.3x the threshold.  Pinning both sides of the boundary.
    lam, mu, radius = 0.15, 0.75, 2
    near = homogeneous_star_instance(3, radius, lam, mu, 1.0, tau=2 * radius * lam * 1.02)
    index_g = evaluate_policy(
        near, StationaryPolicy.from_rule(near, IndexPolicy(near)), tol=1e-10, span_target=2e-9
    ).g
    g_star = policy_iteration(near, tol=1e-10, span_target=2e-9).g_star
    assert index_g - g_star > 5e-4

    comfortable = homogeneous_star_instance(3, radius, lam, mu, 1.0, tau=2 * radius * lam * 1.5)
    index_g = evaluate_policy(
        comfortable,
        StationaryPolicy.from_rule(comfortable, IndexPolicy(comfortable)),
        tol=1e-10,
        span_target=2e-9,
    ).g
    g_star = policy_iteration(comfortable, tol=1e-10, span_target=2e-9).g_star
    assert abs(index_g - g_star) < 1e-8


def test_reward_optimum_identities(two_machines):
    a = counterexample_instances()[0]
    sol_a = policy_iteration(a)
    assert reward_optimum(a, sol_a) == pytest.approx(3 * 1.0 - 2.25, abs=0.01)
    sol_1 = policy_iteration(two_machines)
    assert reward_optimum(two_machines, sol_1) == pytest.approx(4.0 - sol_1.g_star, abs=1e-12)


def test_cost_reward_identity_under_evaluation():
    inst = generate_instance(21, m=2, cap=2)
    total = inst.failed_cost_total()
    for seed in range(3):
        policy = random_unichain_policy(inst, seed)
        g = evaluate_policy(inst, policy, tol=1e-10, span_target=2e-9).g
        u = evaluate_policy(inst, policy, tol=1e-10, span_target=2e-9, objective="reward").g
        assert g + u == pytest.approx(total, abs=1e-8)


def test_evaluate_policy_refuses_an_unknown_objective_before_any_solve(two_machines, monkeypatch):
    policy = StationaryPolicy.from_rule(two_machines, IndexPolicy(two_machines))
    # A model build would fail on this stand-in; the objective is refused first.
    monkeypatch.setattr(dp, "DpModel", None)
    message = r"^objective: 'costs' is not 'cost' or 'reward'$"
    with pytest.raises(ValueError, match=message):
        evaluate_policy(two_machines, policy, objective="costs")
    with pytest.raises(ValueError, match=r"^objective: 'shifted_cost' is not "):
        evaluate_policy(two_machines, policy, objective="shifted_cost")


def test_stage_vector_refuses_an_unknown_objective(two_machines):
    # stage_vector(policy, "costs") used to return the repair rewards.
    model = DpModel(two_machines)
    policy = StationaryPolicy.from_rule(two_machines, IndexPolicy(two_machines))
    for objective in ("costs", "shifted_cost", None):
        message = rf"^objective: {re.escape(repr(objective))} is not 'cost' or 'reward'$"
        with pytest.raises(ValueError, match=message):
            model.stage_vector(policy, objective)


def test_a_model_built_for_another_instance_is_refused():
    # Seeds 20014 and 20028 share their state count, so without the check
    # evaluate_policy returned 20028's g (0.41258) as 20014's.
    inst, other = generate_instance(20014), generate_instance(20028)
    foreign = DpModel(other)
    assert foreign.n == DpModel(inst).n
    policy = StationaryPolicy.from_rule(inst, ModifiedIndexPolicy(inst))
    message = r"^model: the model was built for another instance$"
    with pytest.raises(ValueError, match=message):
        evaluate_policy(inst, policy, model=foreign)
    solution = policy_iteration(inst)
    with pytest.raises(ValueError, match=message):
        optimality_residual(inst, solution, foreign)
    # An equal instance's model is accepted.
    assert optimality_residual(inst, solution, DpModel(generate_instance(20014))) < 1e-6


def test_policy_iteration_matches_brute_force():
    inst = homogeneous_complete_instance(2, 0.12, 0.5, 1.0, 0.7)
    # Perturb to break symmetry so the optimum is well-separated.
    from dataclasses import replace

    inst = replace(inst, mu=(0.55, 0.45), lam=(0.12, 0.1))
    states = enumerate_states(inst)
    model = DpModel(inst)
    x0 = model.indexer.index(pristine_state(inst))
    action_sets = [actions_of(inst, s) for s in states]
    best = min(
        limiting_average(inst, StationaryPolicy(tuple(choice)), x0)
        for choice in itertools.product(*action_sets)
    )
    solution = policy_iteration(inst, tol=1e-10, span_target=1e-9)
    assert solution.g_star == pytest.approx(best, abs=1e-8)


def test_g_star_independent_of_reference(two_machines):
    sol_a = policy_iteration(two_machines, reference=pristine_state(two_machines), span_target=1e-9)
    sol_b = policy_iteration(two_machines, reference=SystemState(2, (2, 2)), span_target=1e-9)
    assert sol_a.g_star == pytest.approx(sol_b.g_star, abs=1e-8)


def test_capacity_gate():
    from repairnet.mdp import CapacityError

    # 41,990,400 states, above mdp.STATE_BOUND: refused before any array is built.
    inst = generate_instance(2, m=8, cap=5)
    with pytest.raises(CapacityError, match="41990400"):
        DpModel(inst)


@pytest.mark.parametrize("seed", [20001, 20003])
def test_policy_iteration_returns_a_solution_of_the_optimality_equation(seed):
    # Policies of equal gain used to take turns here until a stall counter
    # returned one of them with another one's v (residuals 0.21 and 0.16).
    # Without the margin they take turns for over 500 rounds, until the
    # warm-started evaluations agree to the last bit.
    inst = generate_instance(seed)
    tol = 1e-9
    model = DpModel(inst)
    solution = policy_iteration(inst, tol=tol)
    assert solution.iterations <= 20
    assert optimality_residual(inst, solution, model) <= 1e-6
    assert model.improve(solution.v, solution.policy, 10 * tol).actions == solution.policy.actions


def test_improve_keeps_the_incumbent_on_ties():
    # Complete graph on three machines, the repairer at machine 1 with
    # machine 1 pristine: staying has no event (Q = 0), and with v equal at
    # the switch targets both moves tie with each other.
    inst = homogeneous_complete_instance(3, 0.1, 0.5, 1.0, 0.3)
    model = DpModel(inst)
    indexer = model.indexer
    x = indexer.index(SystemState(1, (0, 1, 1)))
    to_2 = indexer.index(SystemState(2, (0, 1, 1)))
    to_3 = indexer.index(SystemState(3, (0, 1, 1)))
    stay = StationaryPolicy.from_rule(inst, lambda s: s.location)
    to_machine_3 = StationaryPolicy(stay.actions[:x] + (3,) + stay.actions[x + 1 :])

    v = np.zeros(model.n)
    # An exact tie among all three actions: every incumbent is kept.
    for previous in (stay, to_machine_3):
        assert model.improve(v, previous).actions[x] == previous.actions[x]

    # Both moves beat staying by the same amount: the smallest id wins
    # over a strictly worse incumbent, and a tied incumbent is kept.
    v[to_2] = v[to_3] = -1.0
    assert model.improve(v, stay).actions[x] == 2
    assert model.improve(v, to_machine_3).actions[x] == 3

    # Within the margin the incumbent stays; beyond it the rival wins.
    gap = inst.tau * kernel_of(inst).step_length
    assert model.improve(v, stay, margin=2 * gap).actions[x] == 1
    assert model.improve(v, stay, margin=0.5 * gap).actions[x] == 2


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10_000), st.integers(2, 3), st.integers(1, 2), st.integers(0, 10_000)
)
def test_evaluation_matches_a_dense_solve_of_the_bordered_system(seed, m, cap, policy_seed):
    # g + v = c + P v with v(ref) = 0: the unknowns are v with g at ref,
    # and the matrix is I - P with column ref replaced by ones.
    inst = generate_instance(seed, m=m, cap=cap)
    policy = random_unichain_policy(inst, policy_seed)
    model = DpModel(inst)
    ref = model.indexer.index(pristine_state(inst))
    bordered = np.eye(model.n) - model.transition_matrix(policy).toarray()
    bordered[:, ref] = 1.0
    exact = np.linalg.solve(bordered, model.cost)
    g, v = exact[ref], exact.copy()
    v[ref] = 0.0
    # The span target makes g's error at most 1e-11 also where the Krylov
    # phase gives up.  v reaches 1e3 on these
    # draws and the condition number 1e5, so v is compared relative to
    # its scale: a dense solve's own error is about cond * eps * max|v|.
    result = evaluate_policy(inst, policy, tol=1e-12, model=model, span_target=1e-11)
    assert result.g == pytest.approx(g, abs=1e-10)
    assert np.max(np.abs(result.v - v)) <= 1e-10 * max(1.0, np.max(np.abs(v)))


def test_evaluation_restarts_bicgstab_on_a_near_breakdown():
    # On this unichain policy r_hat . r falls to about 1e-19 (r_hat nearly
    # orthogonal to r).  Without a restart the Krylov phase gave up after
    # 647 products and the sweeps took 2,398 more; with one, 124 in all.
    inst = generate_instance(7637, m=3, cap=1)
    policy = random_unichain_policy(inst, 9136)
    model = DpModel(inst)
    ref = model.indexer.index(pristine_state(inst))
    bordered = np.eye(model.n) - model.transition_matrix(policy).toarray()
    bordered[:, ref] = 1.0
    g = np.linalg.solve(bordered, model.cost)[ref]
    result = evaluate_policy(inst, policy, tol=1e-12, model=model)
    assert result.sweeps < 500
    assert result.g == pytest.approx(g, abs=1e-10)


def test_policy_iteration_through_multichain_rounds():
    # perfbench's tol-1e-12 reference value.  PI's second to fourth rounds
    # on this seed evaluate multichain policies, whose bordered matrix is
    # singular, so the Krylov phase gives up and the sweeps evaluate them.
    solution = policy_iteration(generate_instance(30001), tol=1e-9)
    assert solution.g_star == pytest.approx(12.43490872637883, abs=1e-9)


def test_policy_iteration_is_bit_reproducible():
    inst = generate_instance(20009)
    first, second = policy_iteration(inst), policy_iteration(inst)
    assert first.g_star == second.g_star
    assert np.array_equal(first.v, second.v)
    assert first.policy == second.policy


@pytest.mark.parametrize("seed", [None, 20001], ids=["two-machine", "20001"])
def test_policy_iteration_reports_a_certified_bound(seed):
    inst = two_machine_instance() if seed is None else generate_instance(seed)
    solution = policy_iteration(inst)
    assert solution.g_bound <= 1e-8


def test_dp_refuses_a_policy_that_is_not_one_of_the_instance():
    # An unavailable action is refused by the model's every use of a
    # policy; read from the event tables, it would step as idling.
    inst = generate_instance(20014)
    model = DpModel(inst)
    states = enumerate_states(inst)
    nodes = range(1, inst.layout.node_count + 1)
    # From every state, a node that is not adjacent to the location.
    far = StationaryPolicy(
        tuple(next(v for v in nodes if v not in actions_of(inst, s)) for s in states)
    )
    message = f"policy.actions[0]: action {far.actions[0]} is not available in state {states[0]}"
    for call in (
        lambda: evaluate_policy(inst, far),
        lambda: model.transition_matrix(far),
        lambda: model.stage_vector(far, "cost"),
        lambda: model.stage_vector(far, "reward"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    with pytest.raises(ValueError, match=r"^previous\.actions\[0\]: action "):
        model.improve(np.zeros(model.n), far)
    index = StationaryPolicy.from_rule(inst, ModifiedIndexPolicy(inst))
    k = 57
    one_bad = StationaryPolicy(index.actions[:k] + far.actions[k : k + 1] + index.actions[k + 1 :])
    field = rf"^base\.actions\[{k}\]: .* state {re.escape(str(states[k]))}$"
    with pytest.raises(ValueError, match=field):
        policy_iteration(inst, base=one_bad)
    with pytest.raises(ValueError, match=rf"^policy: 1 actions for {len(states)} states"):
        evaluate_policy(inst, StationaryPolicy((1,)))
    with pytest.raises(ValueError, match=r"^base: 99 actions"):
        policy_iteration(inst, base=StationaryPolicy(index.actions[:-1]))
    with pytest.raises(ValueError, match=r"^policy\.actions: float64 entries"):
        evaluate_policy(inst, StationaryPolicy(index.actions[:-1] + (1.5,)))


@pytest.mark.parametrize("tol", [-1e-9, 0.0, float("nan"), float("inf"), True, "1e-9"])
def test_dp_refuses_a_tolerance_that_cannot_be_met(two_machines, tol):
    policy = StationaryPolicy.from_rule(two_machines, ModifiedIndexPolicy(two_machines))
    with pytest.raises(ValueError, match=r"^tol: "):
        policy_iteration(two_machines, tol=tol)
    with pytest.raises(ValueError, match=r"^tol: "):
        evaluate_policy(two_machines, policy, tol=tol)
    with pytest.raises(ValueError, match=r"^span_target: "):
        policy_iteration(two_machines, span_target=tol)
    with pytest.raises(ValueError, match=r"^span_target: "):
        evaluate_policy(two_machines, policy, span_target=tol)


def test_dp_refuses_a_reference_outside_the_instance(two_machines):
    policy = StationaryPolicy.from_rule(two_machines, ModifiedIndexPolicy(two_machines))
    field = r"^reference: state\.conditions\[1\]: level 5 of machine 2"
    with pytest.raises(ValueError, match=field):
        policy_iteration(two_machines, reference=SystemState(1, (0, 5)))
    with pytest.raises(ValueError, match=field):
        evaluate_policy(two_machines, policy, reference=SystemState(1, (0, 5)))
    with pytest.raises(ValueError, match=r"^reference: state\.location"):
        policy_iteration(two_machines, reference=SystemState(3, (0, 0)))


@pytest.mark.parametrize(
    "v0, message",
    [
        (np.full(18, np.nan), r"^v0\[0\]: nan is not a finite number$"),
        (np.r_[np.zeros(17), np.inf], r"^v0\[17\]: inf is not a finite number$"),
        (np.zeros(17), r"^v0: a float64 array of shape \(17,\) is not a vector of 18 numbers$"),
        (np.zeros((18, 1)), r"^v0: a float64 array of shape \(18, 1\) is not a vector of 18 "),
        (["0"] * 18, r"^v0: a <U1 array of shape \(18,\) is not a vector of 18 numbers$"),
    ],
    ids=["nan", "inf", "short", "column", "strings"],
)
def test_evaluate_policy_refuses_a_start_vector_before_any_solve(two_machines, monkeypatch, v0, message):
    # A NaN or infinite v0 swept to MAX_SWEEPS and then blamed the policy
    # ("may be multichain"), and a short one failed inside numpy naming no
    # field.
    policy = StationaryPolicy.from_rule(two_machines, ModifiedIndexPolicy(two_machines))
    monkeypatch.setattr(dp, "_bordered_bicgstab", None)
    with pytest.raises(ValueError, match=message):
        evaluate_policy(two_machines, policy, v0=v0)


@pytest.mark.parametrize(
    "v0",
    [lambda n: [0.0] * n, lambda n: np.zeros(n, dtype=np.int64), lambda n: np.arange(n) % 7 - 3],
    ids=["list", "int-zeros", "int-nonzero"],
)
def test_evaluate_policy_solves_from_a_start_vector_it_accepts(v0):
    # The check accepted these, then the Krylov phase died on them: a list
    # with a TypeError, an int vector with a ufunc casting error.
    inst = generate_instance(20014)
    policy = StationaryPolicy.from_rule(inst, ModifiedIndexPolicy(inst))
    n = DpModel(inst).n
    tol = 1e-9
    start = v0(n)
    floats = evaluate_policy(inst, policy, tol=tol, v0=np.asarray(start, dtype=float))
    assert evaluate_policy(inst, policy, tol=tol, v0=start).g == pytest.approx(floats.g, abs=tol)


# perfbench/reference.json's g_ref, solved at tol 1e-12.
G_REF = {20001: 2.1745639294195334, 20009: 7.282386213305543, 30001: 12.43490872637883}


@pytest.mark.parametrize("seed", sorted(G_REF))
def test_policy_iteration_certifies_at_tol_after_settling_loosely(seed, monkeypatch):
    # The approximate stage settles the policy on evaluations to
    # SETTLE_TOL; the exact stage must still return a fixed point of the
    # tol margin on values evaluated to tol.  30001's approximate rounds
    # pass through multichain policies, where the Krylov phase gives up.
    give_ups = []
    krylov = dp._bordered_bicgstab

    def counted(*args):
        solved, matvecs = krylov(*args)
        give_ups.append(solved is None)
        return solved, matvecs

    monkeypatch.setattr(dp, "_bordered_bicgstab", counted)
    inst = generate_instance(seed)
    tol = 1e-9
    model = DpModel(inst)
    solution = policy_iteration(inst, tol=tol)
    assert tol < dp.SETTLE_TOL
    assert solution.approximate_rounds >= 1
    assert len(solution.g_history) == solution.iterations
    for earlier, later in zip(solution.g_history, solution.g_history[1:]):
        assert later <= earlier + 1e-9
    assert model.improve(solution.v, solution.policy, 10 * tol).actions == solution.policy.actions
    assert optimality_residual(inst, solution, model) <= 1e-8
    assert solution.g_bound <= 1e-8
    assert solution.g_star == pytest.approx(G_REF[seed], abs=1e-9)
    assert any(give_ups) or seed != 30001


def one_stage_policy_iteration(inst, tol):
    """Reference: the loop without an approximate stage."""
    model = DpModel(inst)
    policy = StationaryPolicy.from_rule(inst, ModifiedIndexPolicy(inst))
    v, history = None, []
    while True:
        evaluation = evaluate_policy(inst, policy, tol=tol, model=model, v0=v)
        v = evaluation.v
        history.append(evaluation.g)
        improved = model.improve(v, policy, 10 * tol)
        if improved.actions == policy.actions:
            return policy, evaluation, history
        policy = improved


@pytest.mark.parametrize(
    "settle_tol, tol", [(None, 1e-3), (None, 1e-2), (1e-9, 1e-9)],
    ids=["at-settle-tol", "above-settle-tol", "settle-tol-lowered"],
)
def test_policy_iteration_skips_the_approximate_stage_at_a_loose_tol(settle_tol, tol, monkeypatch):
    if settle_tol is not None:
        monkeypatch.setattr(dp, "SETTLE_TOL", settle_tol)
    assert tol >= dp.SETTLE_TOL
    inst = generate_instance(20001)
    policy, evaluation, history = one_stage_policy_iteration(inst, tol)
    solution = policy_iteration(inst, tol=tol)
    assert solution.approximate_rounds == 0
    assert solution.policy == policy
    assert solution.g_star == evaluation.g
    assert np.array_equal(solution.v, evaluation.v)
    assert solution.g_bound == evaluation.g_span
    assert solution.g_history == tuple(history)
    assert solution.iterations == len(history)
