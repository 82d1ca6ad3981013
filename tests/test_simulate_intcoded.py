"""The int-coded ``simulate`` against a reference loop over tuple-level steps,
and the checks that keep out-of-range states and unavailable actions from
turning into plausible averages."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import homogeneous_star_instance, rng, uniform_step
from repairnet.cli import main
from repairnet.dp import StationaryPolicy
from repairnet.index_policy import IndexPolicy, ModifiedIndexPolicy
from repairnet.instance import generate_instance, save_instance
from repairnet.mdp import (
    UNIFORM_CHUNK,
    Kernel,
    SystemState,
    actions_of,
    enumerate_states,
    pristine_state,
    simulate,
    validate_state,
)
from repairnet.opi import (
    STEP_COUNT,
    OpiBudget,
    ValueStore,
    improving_action,
    neighborhood,
    online_run,
    run_opi,
)
from repairnet.polling import PollingPolicy, best_tour


def reference_simulate(inst, policy, x0, steps, uniforms):
    """The tuple-stepping loop ``simulate`` replaced, one uniform per step."""
    kernel = Kernel(inst)
    visits = [0] * inst.layout.node_count
    total_cost = total_reward = 0.0
    state = x0
    for t in range(steps):
        visits[state.location - 1] += 1
        action = policy(state)
        total_cost += kernel.cost(state)
        total_reward += kernel.reward(state, action)
        state = uniform_step(inst, state, action, uniforms[t])
    return total_cost / steps, total_reward / steps, tuple(visits)


def generator_state(generator):
    # Philox keeps its counter, key and buffer as arrays.
    return json.dumps(generator.bit_generator.state, default=np.ndarray.tolist)


@st.composite
def simulation_cases(draw):
    inst = generate_instance(
        draw(st.integers(0, 10_000)), m=draw(st.integers(2, 4)), cap=draw(st.integers(1, 3))
    )
    location = draw(st.integers(1, inst.layout.node_count))
    x0 = SystemState(location, tuple(draw(st.integers(0, k)) for k in inst.cap))
    kind = draw(st.sampled_from(["index", "polling", "stationary"]))
    if kind == "index":
        make_policy = lambda: IndexPolicy(inst)
    elif kind == "polling":
        subset = draw(st.sets(st.sampled_from(inst.layout.machines), min_size=1))
        tour = best_tour(inst.layout, subset)
        make_policy = lambda: PollingPolicy(inst, tour)
    else:
        picks = rng(draw(st.integers(0, 2**32 - 1)))
        table = StationaryPolicy(
            tuple(
                int(picks.choice(actions_of(inst, state))) for state in enumerate_states(inst)
            )
        )
        make_policy = lambda: table.as_rule(inst)
    edges = [UNIFORM_CHUNK - 1, UNIFORM_CHUNK, UNIFORM_CHUNK + 1, 2 * UNIFORM_CHUNK + 1]
    steps = draw(st.one_of(st.integers(1, 2 * UNIFORM_CHUNK + 50), st.sampled_from(edges)))
    return inst, x0, make_policy, steps, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(simulation_cases(), st.booleans())
def test_simulate_matches_reference_loop(case, use_crn):
    inst, x0, make_policy, steps, seed = case
    if use_crn:
        crn = rng(seed).random(steps + 7)
        report = simulate(inst, make_policy(), x0, steps, crn=crn)
        expected = reference_simulate(inst, make_policy(), x0, steps, crn)
    else:
        generator, parent = rng(seed), rng(seed)
        report = simulate(inst, make_policy(), x0, steps, rng=generator)
        # The loop this replaced drew UNIFORM_CHUNK uniforms per refill.
        chunks = -(-steps // UNIFORM_CHUNK)
        uniforms = np.concatenate([parent.random(UNIFORM_CHUNK) for _ in range(chunks)])
        expected = reference_simulate(inst, make_policy(), x0, steps, uniforms)
        assert generator_state(generator) == generator_state(parent)
    assert report.steps == steps
    assert (report.average_cost, report.average_reward, report.visit_counts) == expected


def test_simulate_accepts_a_plain_list_of_uniforms():
    inst = generate_instance(4, m=3, cap=2)
    crn = rng(9).random(5_000)
    a = simulate(inst, ModifiedIndexPolicy(inst), pristine_state(inst), 5_000, crn=crn)
    b = simulate(inst, ModifiedIndexPolicy(inst), pristine_state(inst), 5_000, crn=list(crn))
    assert (a.average_cost, a.average_reward, a.visit_counts) == (
        b.average_cost,
        b.average_reward,
        b.visit_counts,
    )


def bad_states(inst):
    """(state, field named in the error) outside ``inst``'s state space."""
    m, n = inst.machine_count, inst.layout.node_count
    zeros = (0,) * m
    over = (inst.cap[0] + 1,) + zeros[1:]
    return [
        (SystemState(0, zeros), "state.location"),
        (SystemState(n + 1, zeros), "state.location"),
        (SystemState(1.5, zeros), "state.location"),
        (SystemState(1, zeros[1:]), "state.conditions:"),
        (SystemState(1, zeros + (0,)), "state.conditions:"),
        (SystemState(1, over), r"state.conditions\[0\]"),
        (SystemState(1, zeros[:-1] + (-1,)), rf"state.conditions\[{m - 1}\]"),
        (SystemState(1, zeros[:-1] + (0.5,)), rf"state.conditions\[{m - 1}\]"),
    ]


def test_validate_state_accepts_every_enumerated_state():
    inst = generate_instance(7, m=2, cap=2)
    for state in enumerate_states(inst):
        validate_state(inst, state)


def test_simulate_rejects_states_outside_the_instance():
    inst = generate_instance(20018)
    for state, field in bad_states(inst):
        with pytest.raises(ValueError, match=field):
            simulate(inst, IndexPolicy(inst), state, 100, rng=rng(0))
        with pytest.raises(ValueError, match=field):
            validate_state(inst, state)


def test_online_run_and_run_opi_reject_states_outside_the_instance():
    inst = generate_instance(20018)
    base = ModifiedIndexPolicy(inst)
    budget = OpiBudget(r1=50, r2=500, r_off=5, tau_max=1e9, r_on=100, delta=1, mode=STEP_COUNT)
    zeros = (0,) * inst.machine_count
    cases = [
        (SystemState(1, (inst.cap[0] + 1,) + zeros[1:]), r"state.conditions\[0\]"),
        (SystemState(0, zeros), "state.location"),
    ]
    for state, field in cases:
        store = ValueStore(reference=pristine_state(inst), g_base=0.0)
        with pytest.raises(ValueError, match=field):
            online_run(inst, base, store, budget, rng(1), x0=state)
        with pytest.raises(ValueError, match=field):
            run_opi(inst, base, budget, rng(1), rng(2), x0=state)
    # A store whose reference lies outside the instance is the start state
    # when no x0 is given.
    store = ValueStore(reference=SystemState(0, zeros), g_base=0.0)
    with pytest.raises(ValueError, match="state.location"):
        online_run(inst, base, store, budget, rng(1))


def test_neighborhood_and_improving_action_reject_states_outside_the_instance():
    # With caps (2, 2) the over-cap state (1, (3, 0)) shares its kernel
    # index with (2, (0, 0)); it must be refused, not answered for that state.
    inst = generate_instance(5, m=2, cap=2)
    store = ValueStore(reference=pristine_state(inst), g_base=0.0)
    for state, field in bad_states(inst) + [(SystemState(1, (3, 0)), r"state.conditions\[0\]")]:
        with pytest.raises(ValueError, match=field):
            neighborhood(inst, state)
        with pytest.raises(ValueError, match=field):
            improving_action(inst, state, store, 1)


@pytest.mark.parametrize(
    "command, option", [("simulate", "--start"), ("opi", "--start"), ("indices", "--state")]
)
def test_cli_rejects_states_outside_the_instance(tmp_path, capsys, command, option):
    path = tmp_path / "inst.json"
    save_instance(generate_instance(5, m=2, cap=2), path)
    for text, field in (("0:0,0", "state.location"), ("1:3,0", "state.conditions[0]"),
                        ("1:0", "state.conditions:"), ("x:1", "invalid literal")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--instance", str(path), option, text])
        assert f"{option} {text!r}" in str(exc.value) and field in str(exc.value)
    code = main(["simulate", "--instance", str(path), "--start", "2:2,1", "--steps", "50"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 50


def test_unavailable_action_is_rejected():
    inst = homogeneous_star_instance(3, 1, lam=0.04, mu=0.12, f1=1.0, tau=0.024)
    kernel = Kernel(inst)
    x = kernel.indexer.index(pristine_state(inst, location=1))
    assert 2 not in actions_of(inst, pristine_state(inst, location=1))
    with pytest.raises(ValueError, match="not available"):
        kernel.action_row(x, 2)
    assert kernel.action_rows == {}
    with pytest.raises(ValueError, match="not available"):
        simulate(inst, lambda state: 2, pristine_state(inst, location=1), 10, rng=rng(0))
    # The center and staying put are available and memoized once each.
    for action in (1, 4, 1):
        kernel.action_row(x, action)
    assert sorted(kernel.action_rows) == [(x, 1), (x, 4)]
