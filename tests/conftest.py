"""Shared helpers: independent oracles the implementation is checked against."""

from __future__ import annotations

import enum
import importlib.util
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

import repairnet.cli  # noqa: F401  (loads every module of the package; see below)
from repairnet.dp import DpModel, StationaryPolicy
from repairnet.index_policy import _calculator
from repairnet.instance import CostKind, CostModel, InstanceParameters
from repairnet.mdp import (
    SimulationReport, StateIndexer, SystemState, actions_of, crn_codes, kernel_of,
)
from repairnet.network import build_complete_layout, build_star_layout, shortest_next_hop
from repairnet.opi import (
    LEARNING_SCALE,
    TRAJECTORY_CAP,
    ValueStoreEntry,
    _gate,
    _rollout,
    _uniforms,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = PERFBENCH.parent / "scripts"


def _load_file(name: str, path: Path):
    """The module in ``path``, loaded once under ``name``."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return module


def load_tracing():
    """The benchmark's tracing module, loaded once from its file."""
    return _load_file("perfbench_tracing", PERFBENCH / "tracing.py")


def load_dp_products():
    """``scripts/dp_products.py``, loaded once from its file."""
    return _load_file("dp_products", SCRIPTS / "dp_products.py")


# Every run draws the same examples, so a slow or failing example repeats
# and can be named.  Each test keeps its own max_examples.  derandomize
# seeds each test from its own source, but Hypothesis also draws some
# values from the literals of every project module loaded so far (test
# files and installed packages aside), so a test's examples would depend
# on which modules the tests before it loaded.  Every project module the
# suite loads is loaded here, before the first test, so each test draws
# the same examples alone and in the full suite, in any order, until a
# project module changes.
load_tracing()
load_dp_products()
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def enumerate_states(inst: InstanceParameters) -> list[SystemState]:
    """Every state of ``inst`` in index order (``StateIndexer.states``)."""
    return list(StateIndexer(inst).states())


def all_failed_state(inst: InstanceParameters, location: int = 1) -> SystemState:
    return SystemState(location, tuple(inst.cap))


# The index scores and decisions the library keeps in its per-instance
# calculator and kernel, read directly: these check no input of their own.


def stay_index(inst, machine: int, level: int) -> float:
    """The stay index: machine ``machine``'s full-repair reward rate from ``level``."""
    return _calculator(inst).repair_stats(machine).stay_ratio(level)


def move_index(inst, source: int, machine: int, level: int) -> float:
    """The move index of ``machine`` at ``level``, seen from ``source``."""
    return _calculator(inst).move(inst.layout.dist(source, machine), machine, level)


def wait_index(inst, source: int, machine: int, level: int) -> float:
    """The wait index of ``machine`` at ``level``, seen from ``source``."""
    return _calculator(inst).wait(inst.layout.dist(source, machine), machine, level)


def idle_score(inst, node: int) -> float:
    """The idle score of ``node``."""
    return _calculator(inst).psi(node)


def index_decision(inst, state: SystemState) -> int:
    """``IndexPolicy``'s action at ``state``."""
    return _calculator(inst).decision(state)


def modified_index_decision(inst, state: SystemState) -> int:
    """``ModifiedIndexPolicy``'s action at ``state``."""
    return _calculator(inst).modified_decision(state)


def neighborhood(inst, state: SystemState) -> list[SystemState]:
    """The states whose values the gate reads at ``state``
    (``Kernel.neighborhood``), decoded."""
    kernel = kernel_of(inst)
    return [kernel.state(y) for y in kernel.neighborhood(kernel.indexer.index(state))]


def improving_action(inst, state: SystemState, store, base_action: int) -> tuple[int, bool]:
    """The online gate (``opi._gate``) at ``state`` on ``store``'s entries:
    ``(action, False)`` for the action it takes, ``(base_action, True)``
    when it falls back."""
    kernel = kernel_of(inst)
    x = kernel.indexer.index(state)
    action, _ = _gate(kernel.moves(x), kernel.neighborhood(x), store.entries)
    return (base_action, True) if action is None else (action, False)


def sample_trajectory(inst, base, store, z: SystemState, p: int, generator):
    """One rollout (``opi._rollout``) from ``z`` under ``base``, stepped on
    the kernel's rows for ``base`` by ``generator``'s code stream, as the
    OPI phases step theirs: its stop state and its steps."""
    kernel = kernel_of(inst)
    rollout = _rollout(kernel.rows(base), store, _uniforms(kernel, generator))
    stop, steps = rollout(kernel.indexer.index(z), p)
    return kernel.state(stop), steps


def reference_online_run(inst, base, store, budget, generator, x0, crn=None) -> SimulationReport:
    """``opi.online_run`` in step-count mode with each nested rollout one
    call to ``opi._rollout``'s ``rollout(z)``: the reference the online
    loop's inline rollouts are checked against.  Updates ``store`` as the
    run goes and returns the run's report."""
    kernel = kernel_of(inst)
    rows = kernel.rows(base)
    uniforms = _uniforms(kernel, generator)
    rollout = _rollout(rows, store, uniforms)
    realized = uniforms if crn is None else iter(crn_codes(kernel, crn, budget.r_on))
    r_on, delta = budget.r_on, int(budget.delta)
    state = kernel.indexer.index(x0)
    total_cost = total_reward = 0.0
    visits = [0] * inst.layout.node_count
    fallbacks, causes = [], {"unbounded": 0, "overlap": 0}
    for step in range(r_on):
        action, cause = _gate(kernel.moves(state), kernel.neighborhood(state), store.entries)
        if action is None:
            row = rows.table.get(state) or rows.fill(state)
            fallbacks.append(step)
            causes[cause] += 1
        else:
            row = kernel.action_row(state, action)
        location, cost, reward, offsets = row
        visits[location] += 1
        total_cost += cost
        total_reward += reward
        done = 0
        while done < delta:
            for z in kernel.neighborhood(state + offsets[next(uniforms)]):
                rollout(z)
                done += 1
                if done == delta:
                    break
        state += offsets[next(realized)]
    report = SimulationReport(
        average_cost=total_cost / r_on,
        average_reward=total_reward / r_on,
        steps=r_on,
        visit_counts=tuple(visits),
        safe_action_fraction=len(fallbacks) / r_on,
    )
    quarter = max(1, r_on // 4)
    ends = [min(r_on, k * quarter) for k in range(1, 4)] + [r_on]
    starts = [0] + ends[:3]
    report.metadata["safe_by_quarter"] = [
        sum(a <= step < b for step in fallbacks) / (b - a) if b > a else None
        for a, b in zip(starts, ends)
    ]
    report.metadata["fallback_causes"] = causes
    return report


def homogeneous_complete_instance(
    m: int, lam: float, mu: float, f1: float, tau: float
) -> InstanceParameters:
    return InstanceParameters(
        layout=build_complete_layout(m),
        lam=(lam,) * m,
        mu=(mu,) * m,
        tau=tau,
        cap=(1,) * m,
        cost=CostModel(kind=CostKind.LINEAR, c=(f1,) * m),
    )


def homogeneous_star_instance(
    m: int, radius: int, lam: float, mu: float, f1: float, tau: float
) -> InstanceParameters:
    return InstanceParameters(
        layout=build_star_layout(m, radius),
        lam=(lam,) * m,
        mu=(mu,) * m,
        tau=tau,
        cap=(1,) * m,
        cost=CostModel(kind=CostKind.LINEAR, c=(f1,) * m),
    )


# The uniformized transition law on state tuples, written from the
# instance's raw rates.  The library encodes it once, in ``mdp.Kernel``;
# these are the readable references that encoding is checked against.


class EventKind(enum.Enum):
    DEGRADE = "degrade"
    REPAIR_STEP = "repair_step"
    SWITCH_ARRIVE = "switch_arrive"
    SELF_LOOP = "self_loop"


class TransitionEvent(NamedTuple):
    kind: EventKind
    node: int | None = None


def with_location(state: SystemState, node: int) -> SystemState:
    return SystemState(node, state.conditions)


def with_level_change(state: SystemState, machine: int, delta: int) -> SystemState:
    conds = list(state.conditions)
    conds[machine - 1] += delta
    return SystemState(state.location, tuple(conds))


def available_actions(inst: InstanceParameters, state: SystemState) -> tuple[int, ...]:
    return (state.location,) + inst.layout.neighbors(state.location)


def step_cost(inst: InstanceParameters, state: SystemState) -> float:
    """Cost rate of a state: sum of per-machine cost rates."""
    total = 0.0
    for i, level in enumerate(state.conditions, start=1):
        total += inst.cost.rate(i, level, inst.cap[i - 1])
    return total


def step_reward(inst: InstanceParameters, state: SystemState, action: int) -> float:
    """Reward rate: positive only while actively repairing.

    Repairing machine i at level x earns (mu_i / lambda_i) times the cost
    headroom between the failed state and the post-repair level; every
    other state-action pair earns zero.
    """
    i = state.location
    if action != i or not inst.layout.is_machine(i):
        return 0.0
    x = state.conditions[i - 1]
    if x < 1:
        return 0.0
    cap = inst.cap[i - 1]
    headroom = inst.cost.rate(i, cap, cap) - inst.cost.rate(i, x - 1, cap)
    return (inst.mu[i - 1] / inst.lam[i - 1]) * headroom


def step_probabilities(
    inst: InstanceParameters, state: SystemState, action: int
) -> list[tuple[TransitionEvent, float]]:
    """Transition distribution of one uniformized step.

    Each machine below its cap degrades with probability lambda_j * step;
    staying at a damaged machine completes one repair level with
    probability mu_i * step; heading to an adjacent node arrives with
    probability tau * step; the remainder is a self-loop.  Zero-probability
    events are omitted and the probabilities sum to one exactly.
    """
    if action not in available_actions(inst, state):
        raise ValueError(f"action {action} not available in state {state}")
    delta = inst.step_length
    events: list[tuple[TransitionEvent, float]] = []
    total = 0.0
    for j in range(1, inst.machine_count + 1):
        if state.conditions[j - 1] < inst.cap[j - 1]:
            p = inst.lam[j - 1] * delta
            events.append((TransitionEvent(EventKind.DEGRADE, j), p))
            total += p
    i = state.location
    if action == i:
        if inst.layout.is_machine(i) and state.conditions[i - 1] >= 1:
            p = inst.mu[i - 1] * delta
            events.append((TransitionEvent(EventKind.REPAIR_STEP, i), p))
            total += p
    else:
        p = inst.tau * delta
        events.append((TransitionEvent(EventKind.SWITCH_ARRIVE, action), p))
        total += p
    residual = 1.0 - total
    if residual > 0.0:
        events.append((TransitionEvent(EventKind.SELF_LOOP), residual))
    return events


def apply_event(state: SystemState, event: TransitionEvent) -> SystemState:
    if event.kind is EventKind.DEGRADE:
        return with_level_change(state, event.node, +1)
    if event.kind is EventKind.REPAIR_STEP:
        return with_level_change(state, event.node, -1)
    if event.kind is EventKind.SWITCH_ARRIVE:
        return with_location(state, event.node)
    return state


def uniform_step(
    inst: InstanceParameters, state: SystemState, action: int, u: float
) -> SystemState:
    """One uniformized step driven by the uniform draw ``u``: machine j's
    degradation slot, in machine order, then the repair-or-switch slot,
    then the self-loop.  A draw in a capped machine's slot self-loops."""
    delta = inst.step_length
    upper = 0.0
    for j in range(inst.machine_count):
        upper += inst.lam[j] * delta
        if u < upper:
            if state.conditions[j] < inst.cap[j]:
                return with_level_change(state, j + 1, +1)
            return state
    i = state.location
    if action != i:
        if u < upper + inst.tau * delta:
            return with_location(state, action)
    elif inst.layout.is_machine(i) and state.conditions[i - 1] >= 1:
        if u < upper + inst.mu[i - 1] * delta:
            return with_level_change(state, i, -1)
    return state


def reference_rollout(inst, rule, entries, reference, g_base, z, p, draws):
    """One OPI rollout on state tuples: the oracle ``opi._rollout`` is
    checked against.

    ``entries`` maps a state to its ``(h, ss, w, s)`` and is updated in
    place; ``draws`` yields one uniform per step, which ``uniform_step``
    turns into the next state under ``rule``'s action.  The rollout stops
    at the first stored state it reaches, unless that is the start ``z``
    and ``z`` is not the reference.  It records the first ``p`` distinct
    states it visits, ``z`` first, each with the cost and steps before it;
    then, in that order, each record's entry takes one observation: the
    cost from the record on, plus the stop's h as it stands, minus g_base
    per step.  Returns ``(stop, steps)``."""
    state, total, steps = z, 0.0, 0
    records = [(z, 0.0, 0)]
    while True:
        total += step_cost(inst, state)
        steps += 1
        state = uniform_step(inst, state, rule(state), next(draws))
        if state in entries and (state != z or state == reference):
            break
        if len(records) < p and all(state != x for x, _, _ in records):
            records.append((state, total, steps))
        if steps >= TRAJECTORY_CAP:
            raise RuntimeError(f"trajectory from {z} exceeded {TRAJECTORY_CAP} steps")
    stop = state
    for x, cost_at, steps_at in records:
        h, ss, w, s = entries.get(x, (0.0, 0.0, 0.0, 0))
        s += 1
        alpha = LEARNING_SCALE / (LEARNING_SCALE + s - 1)
        keep = 1.0 - alpha
        observation = (total - cost_at) + entries[stop][0] - g_base * (steps - steps_at)
        entries[x] = (
            keep * h + alpha * observation,
            keep * ss + alpha * observation * observation,
            keep ** 2 * w + alpha * alpha,
            s,
        )
    return stop, steps


def action_events(
    inst: InstanceParameters, state: SystemState
) -> list[tuple[int, float, SystemState]]:
    """Each available action's event as ``(action, rate, successor)``,
    staying first: a repair at rate mu_i, an arrival at rate tau, or, for
    idling, no event (rate 0.0, the state itself)."""
    i = state.location
    events = []
    for a in available_actions(inst, state):
        if a != i:
            events.append((a, inst.tau, with_location(state, a)))
        elif inst.layout.is_machine(i) and state.conditions[i - 1] >= 1:
            events.append((a, inst.mu[i - 1], with_level_change(state, i, -1)))
        else:
            events.append((a, 0.0, state))
    return events


def oracle_neighborhood(inst: InstanceParameters, state: SystemState) -> list[SystemState]:
    """The state, each one-switch variant in neighbour order, then the
    one-repair variant when the state has one."""
    members = [state]
    i = state.location
    for j in inst.layout.neighbors(i):
        members.append(with_location(state, j))
    if inst.layout.is_machine(i) and state.conditions[i - 1] >= 1:
        members.append(with_level_change(state, i, -1))
    return members


def tight(h: float, width: float) -> ValueStoreEntry:
    """Store entry whose confidence interval is exactly [h - width, h + width]
    (w = 0.5, s = 10); width 0 gives the exact value h."""
    return ValueStoreEntry(h=h, ss=h * h + (width / 1.96) ** 2, w=0.5, s=10)


def floyd_warshall(adjacency) -> list[list[float]]:
    """Independent all-pairs shortest path oracle."""
    n = len(adjacency)
    dist = [[float("inf")] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
        for j in adjacency[i]:
            dist[i][j - 1] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            for j in range(n):
                if dik + dist[k][j] < dist[i][j]:
                    dist[i][j] = dik + dist[k][j]
    return dist


def limiting_average(inst, policy: StationaryPolicy, state_index: int) -> float:
    """Average cost from one start state by repeated squaring of the
    transition matrix; valid for aperiodic multichain policies too.
    Rows are renormalized after each squaring, otherwise rounding drift
    in the dominant eigenvalue compounds through the 2^30 implicit steps.
    """
    model = DpModel(inst)
    power = model.transition_matrix(policy).toarray()
    for _ in range(30):
        power = power @ power
        power /= power.sum(axis=1, keepdims=True)
    return float(power[state_index] @ model.cost)


def random_unichain_policy(inst, seed: int) -> StationaryPolicy:
    """Random stationary policy pinned at the all-failed states.

    At every state where all machines sit at their caps the policy heads
    for machine 1 (or stays there), which makes the all-failed state at
    machine 1 reachable from everywhere and the chain unichain; all other
    states get uniformly random admissible actions.
    """
    generator = rng(seed)
    actions = []
    for state in enumerate_states(inst):
        if state.conditions == inst.cap:
            if state.location == 1:
                actions.append(1)
            else:
                actions.append(shortest_next_hop(inst.layout, state.location, 1))
        else:
            options = actions_of(inst, state)
            actions.append(options[generator.integers(0, len(options))])
    return StationaryPolicy(tuple(actions))


@pytest.fixture
def two_machines():
    from repairnet.instance import two_machine_instance

    return two_machine_instance()
