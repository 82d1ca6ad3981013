import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EventKind,
    all_failed_state,
    apply_event,
    enumerate_states,
    homogeneous_star_instance,
    rng,
    step_cost,
    step_probabilities,
    step_reward,
    uniform_step,
)
from repairnet.index_policy import IndexPolicy
from repairnet.instance import counterexample_instances, generate_instance
from repairnet.mdp import (
    CapacityError,
    Kernel,
    StateIndexer,
    SystemState,
    actions_of,
    kernel_of,
    pristine_state,
    simulate,
)


def test_step_probabilities_two_machine(two_machines):
    events = dict(step_probabilities(two_machines, SystemState(1, (1, 0)), 1))
    get = lambda kind, node=None: events[(kind, node)]
    assert get(EventKind.REPAIR_STEP, 1) == pytest.approx(1.1 / 100.8)
    assert get(EventKind.DEGRADE, 1) == pytest.approx(0.4 / 100.8)
    assert get(EventKind.DEGRADE, 2) == pytest.approx(0.4 / 100.8)
    assert get(EventKind.SELF_LOOP) == pytest.approx(1 - 1.9 / 100.8)


def test_step_probabilities_all_failed_at_stage():
    inst = homogeneous_star_instance(3, 1, lam=0.04, mu=0.12, f1=1.0, tau=0.024)
    center = 4
    state = all_failed_state(inst, location=center)
    events = step_probabilities(inst, state, center)
    assert events == [((EventKind.SELF_LOOP, None), 1.0)] or [
        (e.kind, p) for e, p in events
    ] == [(EventKind.SELF_LOOP, 1.0)]


def test_switch_probability_independent_of_conditions(two_machines):
    delta = two_machines.step_length
    for conds in [(0, 0), (2, 1), (2, 2)]:
        events = dict(step_probabilities(two_machines, SystemState(1, conds), 2))
        assert events[(EventKind.SWITCH_ARRIVE, 2)] == pytest.approx(two_machines.tau * delta)


def test_probabilities_sum_to_one_randomized():
    # A sampled index decodes to the state enumerate_states lists at that
    # position, so the sample needs no enumeration of the state space.
    generator = rng(5)
    for seed in range(20):
        inst = generate_instance(seed)
        kernel = kernel_of(inst)
        for _ in range(30):
            x = int(generator.integers(0, kernel.indexer.count))
            state = kernel.state(x)
            for action in actions_of(inst, state):
                events = step_probabilities(inst, state, action)
                total = sum(p for _, p in events)
                assert total == pytest.approx(1.0, abs=1e-12)
                assert all(0.0 <= p <= 1.0 for _, p in events)
                expected: dict[SystemState, float] = {}
                for event, p in events:
                    nxt = apply_event(state, event)
                    expected[nxt] = expected.get(nxt, 0.0) + p
                # The kernel's row: the oracle's cost and reward rates, and
                # the offset of code c owns the gap [grid[c-1], grid[c]) of
                # the kernel's grid.
                _, cost, reward, offsets = kernel.action_row(x, action)
                assert (cost, reward) == (step_cost(inst, state), step_reward(inst, state, action))
                grid = kernel.grid.tolist()
                assert len(offsets) == len(grid) + 1
                got: dict[SystemState, float] = {}
                for offset, lo, hi in zip(offsets, (0.0, *grid), (*grid, 1.0)):
                    nxt = kernel.state(x + offset)
                    got[nxt] = got.get(nxt, 0.0) + (hi - lo)
                for nxt in expected.keys() | got.keys():
                    assert got.get(nxt, 0.0) == pytest.approx(
                        expected.get(nxt, 0.0), abs=1e-12
                    )


def test_degradation_probabilities_action_invariant():
    inst = generate_instance(9)
    states = enumerate_states(inst)
    generator = rng(11)
    for _ in range(50):
        state = states[generator.integers(0, len(states))]
        reference = None
        for action in actions_of(inst, state):
            degr = {
                e.node: p
                for e, p in step_probabilities(inst, state, action)
                if e.kind is EventKind.DEGRADE
            }
            if reference is None:
                reference = degr
            else:
                assert degr == reference


def test_invalid_action_rejected(two_machines):
    kernel = Kernel(two_machines)
    with pytest.raises(ValueError):
        kernel.action_row(kernel.indexer.index(SystemState(1, (0, 0))), 7)


def kernel_cost(inst, state):
    """The cost rate of ``state``'s kernel row under staying put."""
    kernel = Kernel(inst)
    return kernel.action_row(kernel.indexer.index(state), state.location)[1]


def test_step_cost_examples(two_machines):
    c3 = counterexample_instances()[4]
    for cost in (step_cost, kernel_cost):
        assert cost(two_machines, pristine_state(two_machines)) == 0.0
        assert cost(two_machines, SystemState(1, (2, 1))) == 3.0
        assert cost(c3, all_failed_state(c3)) == pytest.approx(29.7)


def kernel_reward(inst, state, action):
    """The reward rate of ``state``'s kernel row under ``action``."""
    kernel = Kernel(inst)
    return kernel.action_row(kernel.indexer.index(state), action)[2]


def test_step_reward_examples(two_machines):
    a = counterexample_instances()[0]
    # At a stage or at a pristine machine there is nothing to earn.
    star = homogeneous_star_instance(3, 1, 0.04, 0.12, 1.0, 0.024)
    for reward in (step_reward, kernel_reward):
        assert reward(a, SystemState(1, (1, 0, 0)), 1) == pytest.approx(3.0)
        assert reward(a, SystemState(1, (1, 0, 0)), 4) == 0.0
        assert reward(two_machines, SystemState(1, (2, 0)), 1) == pytest.approx(
            (1.1 / 0.4) * (2 - 1)
        )
        assert reward(star, SystemState(4, (1, 1, 1)), 4) == 0.0
        assert reward(star, SystemState(1, (0, 1, 1)), 1) == 0.0


def test_kernel_step_matches_event_distribution(two_machines):
    # The kernel's single-uniform event layout must reproduce the event
    # distribution: scan a fine grid of uniforms through their codes and a
    # successor row and compare frequencies.
    kernel = Kernel(two_machines)
    for state, action in [
        (SystemState(1, (1, 0)), 1),
        (SystemState(1, (2, 2)), 2),
        (SystemState(2, (0, 2)), 2),
    ]:
        x = kernel.indexer.index(state)
        *_, offsets = kernel.action_row(x, action)
        grid = 2_000_001
        moved: dict[int, int] = {}
        for code in kernel.codes(np.arange(grid) / grid):
            y = x + offsets[code]
            moved[y] = moved.get(y, 0) + 1
        counts = {kernel.state(y): count for y, count in moved.items()}
        expected: dict[SystemState, float] = {}
        for event, p in step_probabilities(two_machines, state, action):
            nxt = apply_event(state, event)
            expected[nxt] = expected.get(nxt, 0.0) + p
        assert set(counts) == set(expected)
        for nxt, p in expected.items():
            assert counts[nxt] / grid == pytest.approx(p, abs=2e-6)


@st.composite
def shared_end_cases(draw):
    # tau equals machine j's repair rate, so a switch and that repair end
    # their slots at one grid value, and one machine sits at its cap.
    m = draw(st.integers(2, 4))
    inst = generate_instance(draw(st.integers(0, 10_000)), m=m, cap=draw(st.integers(1, 3)))
    j = draw(st.integers(0, m - 1))
    inst = replace(inst, tau=inst.mu[j])
    location = draw(st.one_of(st.just(j + 1), st.integers(1, inst.layout.node_count)))
    conditions = [draw(st.integers(0, k)) for k in inst.cap]
    capped = draw(st.integers(0, m - 1))
    conditions[capped] = inst.cap[capped]
    return inst, SystemState(location, tuple(conditions))


@settings(max_examples=150, deadline=None)
@given(shared_end_cases(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_codes_and_rows_match_the_uniform_step_oracle(case, draws):
    inst, state = case
    kernel = Kernel(inst)
    m = inst.machine_count
    grid = kernel.grid.tolist()
    # The m degradation ends, then the distinct event ends below 1.0: tau's
    # is mu_j's, and when every rate is tau's that end is 1.0 up to rounding.
    assert grid == sorted(grid) and m <= len(grid) <= 2 * m and grid[-1] < 1.0
    x = kernel.indexer.index(state)
    # Every grid edge and the float just below it, plus random draws.
    edges = [v for t in grid for v in (t, math.nextafter(t, 0.0))]
    uniforms = [u for u in edges + draws + [0.0] if u < 1.0]
    codes = kernel.codes(uniforms)
    for action in actions_of(inst, state):
        *_, offsets = kernel.action_row(x, action)
        assert len(offsets) == len(grid) + 1
        for u, code in zip(uniforms, codes):
            expected = uniform_step(inst, state, action, u)
            assert kernel.state(x + offsets[code]) == expected, (action, u, code)


@pytest.mark.parametrize("seed", [1, 11, 0])
def test_the_grid_holds_only_ends_below_one(seed):
    # The largest rate's event end is 1.0 up to rounding: 1.0 on seed 1,
    # 1.0000000000000002 on seed 11 and 0.9999999999999998 on seed 0.  An
    # end at or above 1.0 bounds no draw, so it is no grid end and no row
    # holds an offset for it.
    inst = generate_instance(seed)
    kernel = kernel_of(inst)
    grid = kernel.grid.tolist()
    assert grid[-1] < 1.0
    policy = IndexPolicy(inst)
    simulate(inst, policy, pristine_state(inst), 2_000, crn=rng(seed).random(2_000))
    rows = kernel.rows(policy).table
    assert rows and all(len(offsets) == len(grid) + 1 for *_, offsets in rows.values())
    u = math.nextafter(1.0, 0.0)
    top = kernel.codes([u])[0]
    assert top == len(grid)
    for x, (*_, offsets) in rows.items():
        state = kernel.state(x)
        assert kernel.state(x + offsets[top]) == uniform_step(inst, state, policy(state), u)
    if seed == 0:
        # The top end lies below 1.0, so above it is a sliver of self-loop.
        assert all(offsets[top] == 0 for *_, offsets in rows.values())


def test_simulate_passive_policy_all_failed():
    inst = homogeneous_star_instance(3, 1, 0.04, 0.12, 1.0, 0.024)
    center = 4
    stay = lambda state: state.location
    report = simulate(inst, stay, all_failed_state(inst, center), steps=500, crn=rng(0).random(500))
    assert report.average_cost == pytest.approx(inst.failed_cost_total())
    assert report.visit_counts[center - 1] == 500


def test_simulate_rejects_bad_arguments(two_machines):
    stay = lambda state: state.location
    with pytest.raises(ValueError):
        simulate(two_machines, stay, pristine_state(two_machines), steps=0, crn=rng(0).random(0))
    with pytest.raises(ValueError):
        simulate(two_machines, stay, pristine_state(two_machines), steps=10, crn=[0.5] * 5)
    with pytest.raises(TypeError):
        simulate(two_machines, stay, pristine_state(two_machines), steps=10)
    for steps in (True, 2.5, 10.0):
        with pytest.raises(ValueError, match=rf"^steps: {steps!r} is not a positive count"):
            simulate(two_machines, stay, pristine_state(two_machines), steps, crn=[0.5] * 20)


@pytest.mark.parametrize("bad", [math.nan, 1.5, -0.1, 1.0])
def test_simulate_rejects_a_draw_outside_the_unit_interval(two_machines, bad):
    stay = lambda state: state.location
    crn = rng(0).random(10)
    crn[6] = bad
    with pytest.raises(ValueError, match=r"^crn\[6\]: .* is not a uniform draw in \[0, 1\)"):
        simulate(two_machines, stay, pristine_state(two_machines), steps=10, crn=crn)
    # Draws past the steps a run reads are not its input.
    assert simulate(two_machines, stay, pristine_state(two_machines), steps=6, crn=crn).steps == 6


def test_crn_degradation_times_coincide_across_policies():
    # With caps never reached, two different policies driven by the same
    # uniforms must see exactly the same degradation events.
    from repairnet.instance import CostKind, CostModel, InstanceParameters
    from repairnet.network import build_complete_layout

    # Caps far above the ~140 degradations a 3000-step run can produce.
    inst = InstanceParameters(
        layout=build_complete_layout(3),
        lam=(0.05, 0.07, 0.06),
        mu=(0.9, 0.8, 0.7),
        tau=0.5,
        cap=(500, 500, 500),
        cost=CostModel(kind=CostKind.LINEAR, c=(1.0, 1.0, 1.0)),
    )
    steps = 3_000
    uniforms = rng(3).random(steps)
    codes = Kernel(inst).codes(uniforms)

    def degradation_log(policy):
        # Stepped on the kernel's successor rows, as ``simulate`` steps.
        kernel = Kernel(inst)
        state = pristine_state(inst)
        log = []
        for t in range(steps):
            x = kernel.indexer.index(state)
            *_, offsets = kernel.action_row(x, policy(state))
            nxt = kernel.state(x + offsets[codes[t]])
            if nxt.conditions != state.conditions and sum(nxt.conditions) > sum(state.conditions):
                machine = next(
                    j + 1
                    for j in range(3)
                    if nxt.conditions[j] != state.conditions[j]
                )
                log.append((t, machine))
            state = nxt
        return log

    stay = lambda state: state.location
    tour = lambda state: (state.location % 3) + 1
    assert degradation_log(stay) == degradation_log(tour)


def test_long_run_cost_reward_identity():
    from repairnet.index_policy import IndexPolicy

    inst = counterexample_instances()[0]
    report = simulate(inst, IndexPolicy(inst), pristine_state(inst), 300_000, crn=rng(7).random(300_000))
    total = inst.failed_cost_total()
    assert abs(report.average_cost + report.average_reward - total) < 0.05


def test_enumerate_states_counts(two_machines):
    assert len(enumerate_states(two_machines)) == 18
    star = homogeneous_star_instance(3, 1, 0.04, 0.12, 1.0, 0.024)
    assert len(enumerate_states(star)) == 32
    with pytest.raises(CapacityError, match="41990400"):
        enumerate_states(generate_instance(2, m=8, cap=5))


def test_state_indexer_round_trip(two_machines):
    indexer = StateIndexer(two_machines)
    kernel = kernel_of(two_machines)
    states = enumerate_states(two_machines)
    for i, state in enumerate(states):
        assert indexer.index(state) == i
        assert kernel.state(i) == state


def test_report_json_round_trips(two_machines):
    stay = lambda state: state.location
    report = simulate(two_machines, stay, pristine_state(two_machines), 50, crn=rng(1).random(50))
    payload = report.to_json()
    assert '"average_cost"' in payload
    assert math.isfinite(report.average_reward)
