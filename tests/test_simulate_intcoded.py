"""The int-coded ``simulate`` against a reference loop over tuple-level steps,
and the checks that keep out-of-range states and unavailable actions from
turning into plausible averages."""

import gc
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    enumerate_states,
    homogeneous_star_instance,
    rng,
    step_cost,
    step_reward,
    uniform_step,
)
from repairnet.cli import main
from repairnet.dp import StationaryPolicy
from repairnet.index_policy import IndexPolicy, ModifiedIndexPolicy
from repairnet.instance import generate_instance, save_instance
from repairnet.mdp import (
    Kernel,
    StateIndexer,
    SystemState,
    actions_of,
    kernel_of,
    pristine_state,
    simulate,
    validate_state,
)
from repairnet.opi import (
    STEP_COUNT,
    OpiBudget,
    ValueStore,
    offline_main,
    offline_preparatory,
    online_run,
    run_opi,
)
from repairnet.polling import PollingPolicy, best_tour


def reference_simulate(inst, policy, x0, steps, uniforms):
    """The tuple-stepping loop ``simulate`` replaced, one uniform per step.
    A finite-memory rule steps through ``decide`` from memory 0."""
    decide = getattr(policy, "decide", None)
    memory = 0
    visits = [0] * inst.layout.node_count
    total_cost = total_reward = 0.0
    state = x0
    for t in range(steps):
        visits[state.location - 1] += 1
        if decide is None:
            action = policy(state)
        else:
            action, memory = decide(state, memory)
        total_cost += step_cost(inst, state)
        total_reward += step_reward(inst, state, action)
        state = uniform_step(inst, state, action, uniforms[t])
    return total_cost / steps, total_reward / steps, tuple(visits)


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
        index = StateIndexer(inst).index
        make_policy = lambda: lambda state: table.actions[index(state)]
    steps = draw(st.integers(1, 8_242))
    return inst, x0, make_policy, steps, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(simulation_cases())
def test_simulate_matches_reference_loop(case):
    inst, x0, make_policy, steps, seed = case
    # A list longer than the run: only its first ``steps`` uniforms are used.
    crn = rng(seed).random(steps + 7)
    report = simulate(inst, make_policy(), x0, steps, crn=crn)
    expected = reference_simulate(inst, make_policy(), x0, steps, crn)
    assert report.steps == steps
    assert (report.average_cost, report.average_reward, report.visit_counts) == expected


def test_identical_polling_calls_return_identical_reports():
    # The tour position lives in simulate's keys for one call: the rule
    # carries nothing from one call into the next.
    inst = generate_instance(20018)
    policy = PollingPolicy(inst, best_tour(inst.layout, inst.layout.machines))
    x0 = pristine_state(inst)
    crn = rng(5).random(999)
    first = simulate(inst, policy, x0, 999, crn=crn)
    second = simulate(inst, policy, x0, 999, crn=crn)
    assert first == second
    assert (first.average_cost, first.average_reward, first.visit_counts) == (
        reference_simulate(inst, policy, x0, 999, crn)
    )
    assert not callable(policy) and not hasattr(policy, "memory")


def test_a_function_of_the_state_is_queried_once_per_distinct_state_per_call():
    # The instance's kernel keeps one table of rows for the last rule
    # object it stepped, so a rule is asked at most once per state across
    # calls too, not only within one.
    inst = generate_instance(4, m=3, cap=2)
    picks = rng(11)
    table = StationaryPolicy(
        tuple(int(picks.choice(actions_of(inst, state))) for state in enumerate_states(inst))
    )
    index = StateIndexer(inst).index

    def rule(state):
        return table.actions[index(state)]

    queried = Counter()

    def counted(state):
        queried[state] += 1
        return rule(state)

    x0 = pristine_state(inst)
    steps = 8_269
    crns = [rng(seed).random(steps) for seed in (1, 2)]
    reached = set()
    reports = []
    for crn in crns:
        visited = Counter()

        def recorded(state):
            visited[state] += 1
            return rule(state)

        reports.append(simulate(inst, counted, x0, steps, crn=crn))
        expected = reference_simulate(inst, recorded, x0, steps, crn)
        assert (reports[-1].average_cost, reports[-1].average_reward,
                reports[-1].visit_counts) == expected
        assert sum(visited.values()) == steps > len(visited)
        reached |= set(visited)
    # Both calls together asked each state they reached once.
    assert set(queried) == reached and max(queried.values()) == 1

    # Another rule object gets a table of its own, even for the same
    # decisions: it is asked again, once per state.
    again = Counter()

    def counted_again(state):
        again[state] += 1
        return rule(state)

    assert simulate(inst, counted_again, x0, steps, crn=crns[0]) == reports[0]
    assert again and max(again.values()) == 1

    # Rule A, then rule B, then A again: each report equals a run on a
    # fresh kernel, so no call steps on another rule's rows.
    other = ModifiedIndexPolicy(inst)
    runs = [simulate(inst, rule_, x0, steps, crn=crns[1]) for rule_ in (counted, other, counted)]
    fresh = []
    for rule_ in (counted, other):
        kernel_of.cache_clear()
        fresh.append(simulate(inst, rule_, x0, steps, crn=crns[1]))
    assert runs == [fresh[0], fresh[1], fresh[0]] and runs[0] != runs[1]

    # The three OPI phases step their base rule through one table, so
    # together they ask it once per state they reach.
    base = ModifiedIndexPolicy(inst)
    queried.clear()

    def counted_base(state):
        queried[state] += 1
        return base(state)

    budget = OpiBudget(r1=200, r2=2_000, r_off=20, tau_max=1e9, r_on=500, delta=2, mode=STEP_COUNT)
    offline_rng = rng(3)
    prep = offline_preparatory(inst, counted_base, budget, offline_rng)
    store = offline_main(inst, counted_base, prep, budget, offline_rng)
    online_run(inst, counted_base, store, budget, rng(4), x0=x0)
    assert queried and max(queried.values()) == 1


def _walk_leaving_one_key_by_every_code(inst, policy, x0, steps, seed):
    """A CRN list under which one (state, memory) key, the target, is left
    by every code: its draws are random, except at each visit to the
    target, where they take the codes in turn (one draw inside each
    non-empty gap of the kernel's grid), holding one back until the last
    quarter of the run.  The target is the pilot run's most visited key
    that some codes leave for one successor and others for itself; the
    code held back is the last that leads to that successor.  Returns the
    list, the target, the held code, the (step, code) pairs taken at the
    target, the run's visits per key and the number of codes a draw can
    have."""
    decide = getattr(policy, "decide", None) or (lambda state, memory: (policy(state), memory))
    ends = [0.0, *kernel_of(inst).grid, 1.0]
    code_draws = [(lo + hi) / 2 for lo, hi in zip(ends, ends[1:]) if lo < hi]

    def successors(key):
        action, after = decide(*key)
        return [(uniform_step(inst, key[0], action, u), after) for u in code_draws]

    def walk(draws, choose):
        key, visits = (x0, 0), Counter()
        for t in range(steps):
            code = choose(t, key)
            if code is not None:
                draws[t] = code_draws[code]
            visits[key] += 1
            action, after = decide(*key)
            key = (uniform_step(inst, key[0], action, draws[t]), after)
        return visits

    draws = rng(seed).random(steps)
    for target, _ in walk(draws, lambda t, key: None).most_common():
        succs = successors(target)
        shared = Counter(succ for succ in succs if succ != target)
        if target in succs and max(shared.values(), default=0) >= 2:
            break
    else:
        raise AssertionError("no key is left both by shared codes and by self-loops")
    (common, _), = shared.most_common(1)
    held = max(c for c, succ in enumerate(succs) if succ == common)
    order = [c for c in range(len(succs)) if c != held]
    late, taken = [held], []

    def choose(t, key):
        if key != target:
            return None
        code = late.pop() if late and t >= steps * 3 // 4 else order[len(taken) % len(order)]
        taken.append((t, code))
        return code

    visits = walk(draws, choose)
    return draws, target, held, taken, visits, len(code_draws)


@pytest.mark.parametrize("kind", ["index", "polling"])
def test_a_key_left_by_every_code_steps_as_the_reference_loop(kind):
    # Each (node, code) link is made once: codes that share a successor,
    # self-loops (a link from a node to itself), and a code first taken
    # late, from a node whose other links were made long before.  A
    # polling rule's rows move the memory, so its keys are (state, tour
    # position) pairs.
    inst = generate_instance(20018)
    if kind == "index":
        policy = IndexPolicy(inst)
    else:
        policy = PollingPolicy(inst, best_tour(inst.layout, inst.layout.machines))
    x0, steps = pristine_state(inst), 8_000
    draws, target, held, taken, visits, codes = _walk_leaving_one_key_by_every_code(
        inst, policy, x0, steps, 3
    )
    assert {code for _, code in taken} == set(range(codes))
    assert min(t for t, code in taken if code == held) >= steps * 3 // 4
    assert len(taken) > 100 and visits[target] == len(taken)
    if kind == "polling":
        assert len({memory for _, memory in visits}) > 1
    report = simulate(inst, policy, x0, steps, crn=draws)
    assert (report.average_cost, report.average_reward, report.visit_counts) == (
        reference_simulate(inst, policy, x0, steps, draws)
    )


def test_simulate_leaves_nothing_for_the_cyclic_collector():
    # A self-loop links a node to itself, so the links form cycles:
    # simulate cuts them before it returns, and when a fill raises.
    inst = generate_instance(20018)
    x0, crn = pristine_state(inst), rng(6).random(5_000)
    rules = [IndexPolicy(inst), PollingPolicy(inst, best_tour(inst.layout, inst.layout.machines))]
    pristine = x0.conditions

    def fails_once_damaged(state):
        # Idles until a machine degrades, then names an action that is
        # not an id: the fill of that state raises.
        return state.location if state.conditions == pristine else 0

    gc.collect()
    gc.disable()
    try:
        for rule in rules:
            simulate(inst, rule, x0, 5_000, crn=crn)
            assert gc.collect() == 0
        try:
            simulate(inst, fails_once_damaged, x0, 5_000, crn=crn)
        except ValueError as exc:
            assert "action 0 not available" in str(exc)
        else:
            pytest.fail("the unavailable action was not refused")
        assert gc.collect() == 0
    finally:
        gc.enable()


class _BadMemory:
    def __init__(self, after):
        self.after = after

    def decide(self, state, memory):
        return state.location, self.after


@pytest.mark.parametrize("after, bad", [(-2, "-2"), (0.5, "0.5")])
def test_simulate_rejects_a_memory_that_is_not_a_non_negative_integer(after, bad):
    inst = generate_instance(5, m=2, cap=2)
    with pytest.raises(ValueError, match=f"rule memory {bad} is not a non-negative integer"):
        simulate(inst, _BadMemory(after), pristine_state(inst), 10, crn=rng(0).random(10))


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
        (SystemState(True, zeros), "state.location"),
        (SystemState(1, zeros[:-1] + (True,)), rf"state.conditions\[{m - 1}\]"),
    ]


def test_validate_state_accepts_every_enumerated_state():
    inst = generate_instance(7, m=2, cap=2)
    for state in enumerate_states(inst):
        validate_state(inst, state)


def test_simulate_rejects_states_outside_the_instance():
    inst = generate_instance(20018)
    for state, field in bad_states(inst):
        with pytest.raises(ValueError, match=field):
            simulate(inst, IndexPolicy(inst), state, 100, crn=rng(0).random(100))
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
        store = ValueStore(inst, pristine_state(inst), 0.0)
        with pytest.raises(ValueError, match=field):
            online_run(inst, base, store, budget, rng(1), x0=state)
        with pytest.raises(ValueError, match=field):
            run_opi(inst, base, budget, rng(1), rng(2), x0=state)
    # A reference outside the instance, the start state when no x0 is
    # given, is refused when the store is built.
    with pytest.raises(ValueError, match=r"store entry '0:[0,]+': state.location"):
        ValueStore(inst, SystemState(0, zeros), 0.0)


def test_offline_main_rejects_start_states_outside_the_instance():
    # With caps (2, 2), (1, (3, 0)) and (0, (0, 0)) share their kernel
    # indices with other states, and a start state was never checked: such
    # a rollout stepped from the wrong state, or ran to the trajectory cap.
    inst = generate_instance(5, m=2, cap=2)
    base = ModifiedIndexPolicy(inst)
    decided = []

    def rule(state):
        decided.append(state)
        return base(state)

    budget = OpiBudget(r1=50, r2=500, r_off=5, tau_max=1e9, r_on=1, delta=1, mode=STEP_COUNT)
    prep = offline_preparatory(inst, base, budget, rng(1))
    for state, field in bad_states(inst):
        # A bad state last: refused before the good ones' rollouts run.
        for name in ("z_all", "z_core"):
            bad = replace(prep, **{name: getattr(prep, name) + [state]})
            with pytest.raises(ValueError, match=rf"prep\.{name}\[\d+\]: {field}"):
                offline_main(inst, rule, bad, budget, rng(2))
    assert decided == []


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
        simulate(inst, lambda state: 2, pristine_state(inst, location=1), 10, crn=rng(0).random(10))
    # The center and staying put are available and memoized once each.
    for action in (1, 4, 1):
        kernel.action_row(x, action)
    assert sorted(kernel.action_rows) == [(x, 1), (x, 4)]
