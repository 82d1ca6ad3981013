"""Index heuristics for dispatching the repairer.

Each candidate decision is scored by an approximate reward-per-unit-time
index computed over the horizon of one full repair: stay and finish the
machine underfoot, or travel to another machine and finish that one.  A
third index scores deliberately waiting for one more degradation before
traveling, and vetoes moves that waiting would beat.  All indices derive
from two ingredients computed in closed form: the expected reward and
duration of an uninterrupted repair episode, and the distribution of a
machine's level at the moment the repairer would arrive.

The move and wait indices depend only on the distance, the target
machine and its level, so the per-instance calculator memoizes them per
``(distance, machine, level)``: a state's first decision looks up one
score per other machine instead of summing over arrival outcomes.  The
entry points that take a state from a caller (``index_decision``,
``modified_index_decision``, ``index_table``) validate it against the
instance first; the policy objects, called once per simulated step, do
not.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

from .instance import InstanceParameters
from .mdp import SystemState, validate_state
from .network import shortest_next_hop


@dataclass(frozen=True)
class RepairStatistics:
    """Expected cumulative reward and duration of uninterrupted repair.

    Entry ``k`` covers an episode that starts at level ``k`` and ends at
    the pristine state; entry 0 is identically zero.
    """

    expected_reward: tuple[float, ...]
    expected_time: tuple[float, ...]

    def stay_ratio(self, k: int) -> float:
        """Reward per unit time of repairing from level ``k`` to pristine."""
        if k == 0:
            return 0.0
        return self.expected_reward[k] / self.expected_time[k]


@dataclass(frozen=True)
class ArrivalDistribution:
    """Level of a target machine at the repairer's arrival.

    ``levels[k - offset]`` is the probability the machine sits at level
    ``k`` on arrival, for ``k`` from the current level up to the cap;
    ``expected_travel`` holds the matching conditional travel times.
    """

    offset: int
    pmf: tuple[float, ...]
    expected_travel: tuple[float, ...]

    def outcomes(self):
        for k, (p, d) in enumerate(zip(self.pmf, self.expected_travel)):
            yield self.offset + k, p, d


def repair_statistics(inst: InstanceParameters, machine: int) -> RepairStatistics:
    """Solve the uninterrupted-repair recursion for one machine.

    Working with per-level increments D(k) = E[value(k)] - E[value(k-1)]
    turns the tridiagonal system into a single backward sweep:
    D(cap) = s(cap)/mu and D(k) = (s(k) + lambda * D(k+1)) / mu, where
    s(k) is the reward rate at level k (or 1 for durations).  Raises
    ValueError, naming the id, for an id that is not a machine.
    """
    m = inst.machine_count
    if not isinstance(machine, numbers.Integral) or not 1 <= machine <= m:
        raise ValueError(f"machine: {machine!r} is not a machine id in 1..{m}")
    return _calculator(inst).repair_stats(machine)


def arrival_distribution(
    inst: InstanceParameters, source: int, machine: int, level: int
) -> ArrivalDistribution:
    """Distribution of machine ``machine``'s level when the repairer,
    starting from ``source``, arrives along a shortest path."""
    if source == machine:
        raise ValueError("arrival distribution requires source != machine")
    d = inst.layout.dist(source, machine)
    return _calculator(inst).arrival(d, machine, level)


def stay_index(inst: InstanceParameters, machine: int, level: int) -> float:
    """Index for remaining at the current machine."""
    return repair_statistics(inst, machine).stay_ratio(level)


def move_index(inst: InstanceParameters, source: int, machine: int, level: int) -> float:
    """Index for heading to ``machine`` and repairing it to pristine."""
    if source == machine:
        raise ValueError("move index requires source != machine")
    calc = _calculator(inst)
    return calc.move(inst.layout.dist(source, machine), machine, level)


def wait_index(inst: InstanceParameters, source: int, machine: int, level: int) -> float:
    """Index for waiting out one extra degradation at ``machine`` first.

    Each arrival outcome is shifted one level up and the expected wait
    1/lambda is added to the horizon; at the cap the level cannot rise,
    but the wait is still paid.
    """
    if source == machine:
        raise ValueError("wait index requires source != machine")
    calc = _calculator(inst)
    return calc.wait(inst.layout.dist(source, machine), machine, level)


def idle_score(inst: InstanceParameters, node: int) -> float:
    """Expected travel time to the next machine that degrades, weighting
    each machine by its share of the total degradation rate."""
    return _calculator(inst).psi(node)


def index_decision(inst: InstanceParameters, state: SystemState) -> int:
    """Action chosen by the index heuristic; ties go to the smallest id.

    Raises ValueError, naming the field, for a state outside the instance.
    """
    validate_state(inst, state)
    return _calculator(inst).decision(state)


def modified_index_decision(inst: InstanceParameters, state: SystemState) -> int:
    """Index heuristic with a fixed rule at the all-failed states.

    When every machine sits at its cap the repairer heads for the
    smallest-indexed machine with the best full-repair reward rate,
    making that state reachable under the policy from everywhere and the
    induced chain unichain.  Raises ValueError, naming the field, for a
    state outside the instance.
    """
    validate_state(inst, state)
    return _calculator(inst).modified_decision(state)


class IndexPolicy:
    """Stationary decision rule wrapping index_decision with a memo."""

    def __init__(self, inst: InstanceParameters):
        self._calc = _calculator(inst)

    def __call__(self, state: SystemState) -> int:
        return self._calc.decision(state)


class ModifiedIndexPolicy:
    """Unichain variant used as the base policy for improvement methods."""

    def __init__(self, inst: InstanceParameters):
        self._calc = _calculator(inst)

    def __call__(self, state: SystemState) -> int:
        return self._calc.modified_decision(state)


class _IndexCalculator:
    """Per-instance caches: repair statistics, idle scores, move and wait
    indices, and memoized decisions."""

    def __init__(self, inst: InstanceParameters):
        self.inst = inst
        self.layout = inst.layout
        self.m = inst.machine_count
        # Every machine's: the failed-state target below reads them all.
        self._repair_stats = tuple(map(self._repair_statistics, range(1, self.m + 1)))
        self._move: dict[tuple[int, int, int], float] = {}
        self._wait: dict[tuple[int, int, int], float] = {}
        self._decisions: dict[SystemState, int] = {}
        total_lam = sum(inst.lam)
        self.psi_table = tuple(
            sum(
                (inst.lam[j - 1] / total_lam) * (self.layout.dist(i, j) / inst.tau)
                for j in self.layout.machines
            )
            for i in range(1, self.layout.node_count + 1)
        )
        # Fixed idle target: the smallest-id node minimizing the idle
        # score.  Ties use the node priority ordering, not the current
        # location, so the idling destination is the same from everywhere.
        self.idle_target = min(
            range(1, self.layout.node_count + 1), key=lambda i: (self.psi_table[i - 1], i)
        )
        # Per location: every other machine with its distance, in id order.
        self.targets = tuple(
            tuple((j, self.layout.dist(i, j)) for j in self.layout.machines if j != i)
            for i in range(1, self.layout.node_count + 1)
        )
        # The modified policy's action per location when every machine is
        # at its cap: head for the smallest-id machine with the best
        # full-repair reward rate.
        failed_target = max(
            self.layout.machines,
            key=lambda j: (self.repair_stats(j).stay_ratio(inst.cap[j - 1]), -j),
        )
        self.failed_actions = tuple(
            i if i == failed_target else shortest_next_hop(self.layout, i, failed_target)
            for i in range(1, self.layout.node_count + 1)
        )

    def psi(self, node: int) -> float:
        return self.psi_table[node - 1]

    def repair_stats(self, machine: int) -> RepairStatistics:
        return self._repair_stats[machine - 1]

    def _repair_statistics(self, machine: int) -> RepairStatistics:
        inst = self.inst
        lam = inst.lam[machine - 1]
        mu = inst.mu[machine - 1]
        cap = inst.cap[machine - 1]
        s = [0.0] * (cap + 1)
        for k in range(1, cap + 1):
            s[k] = (
                mu
                * (inst.cost.rate(machine, cap, cap) - inst.cost.rate(machine, k - 1, cap))
                / lam
            )
        reward_inc = [0.0] * (cap + 1)
        time_inc = [0.0] * (cap + 1)
        reward_inc[cap] = s[cap] / mu
        time_inc[cap] = 1.0 / mu
        for k in range(cap - 1, 0, -1):
            reward_inc[k] = (s[k] + lam * reward_inc[k + 1]) / mu
            time_inc[k] = (1.0 + lam * time_inc[k + 1]) / mu
        rewards = [0.0]
        times = [0.0]
        for k in range(1, cap + 1):
            rewards.append(rewards[-1] + reward_inc[k])
            times.append(times[-1] + time_inc[k])
        return RepairStatistics(tuple(rewards), tuple(times))

    def arrival(self, d: int, machine: int, level: int) -> ArrivalDistribution:
        # Not memoized: its readers, move and wait, memoize on the same key.
        inst = self.inst
        lam = inst.lam[machine - 1]
        tau = inst.tau
        cap = inst.cap[machine - 1]
        pmf = []
        travel = []
        switch_p = tau / (lam + tau)
        degrade_p = lam / (lam + tau)
        mass = 0.0
        weighted_travel = 0.0
        for k in range(level, cap):
            p = math.comb(d + k - level - 1, d - 1) * switch_p**d * degrade_p ** (k - level)
            t = (d + k - level) / (tau + lam)
            pmf.append(p)
            travel.append(t)
            mass += p
            weighted_travel += p * t
        tail = 1.0 if level == cap else max(0.0, 1.0 - mass)
        # Total expectation pins the unconditional travel time at d/tau.
        tail_travel = (d / tau - weighted_travel) / tail if tail > 0 else 0.0
        pmf.append(tail)
        travel.append(tail_travel)
        return ArrivalDistribution(offset=level, pmf=tuple(pmf), expected_travel=tuple(travel))

    def move(self, d: int, machine: int, level: int) -> float:
        key = (d, machine, level)
        total = self._move.get(key)
        if total is None:
            stats = self.repair_stats(machine)
            total = 0.0
            for k, p, travel in self.arrival(d, machine, level).outcomes():
                reward = stats.expected_reward[k]
                if reward > 0.0 and p > 0.0:
                    total += p * reward / (travel + stats.expected_time[k])
            self._move[key] = total
        return total

    def wait(self, d: int, machine: int, level: int) -> float:
        key = (d, machine, level)
        total = self._wait.get(key)
        if total is None:
            inst = self.inst
            stats = self.repair_stats(machine)
            cap = inst.cap[machine - 1]
            extra = 1.0 / inst.lam[machine - 1]
            total = 0.0
            for k, p, travel in self.arrival(d, machine, level).outcomes():
                target = min(k + 1, cap)
                reward = stats.expected_reward[target]
                if reward > 0.0 and p > 0.0:
                    total += p * reward / (extra + travel + stats.expected_time[target])
            self._wait[key] = total
        return total

    def _argmax_move(self, candidates, conditions: tuple[int, ...]) -> tuple[int, float]:
        """The ``(j, d)`` candidate with the largest move index, first on ties."""
        best_j = 0
        best_value = -1.0
        for j, d in candidates:
            value = self.move(d, j, conditions[j - 1])
            if value > best_value:
                best_value = value
                best_j = j
        return best_j, best_value

    def decision(self, state: SystemState) -> int:
        action = self._decisions.get(state)
        if action is None:
            action = self._decide(state)
            self._decisions[state] = action
        return action

    def _decide(self, state: SystemState) -> int:
        i = state.location
        conditions = state.conditions
        if not any(conditions):
            target = self.idle_target
            return i if i == target else shortest_next_hop(self.layout, i, target)
        targets = self.targets[i - 1]
        if self.layout.is_machine(i):
            members = [
                (j, d)
                for j, d in targets
                if self.move(d, j, conditions[j - 1]) >= self.wait(d, j, conditions[j - 1])
            ]
            if not members:
                return i
            j_star, move_value = self._argmax_move(members, conditions)
            if move_value > self.repair_stats(i).stay_ratio(conditions[i - 1]):
                return shortest_next_hop(self.layout, i, j_star)
            return i
        j_star, _ = self._argmax_move(targets, conditions)
        return shortest_next_hop(self.layout, i, j_star)

    def modified_decision(self, state: SystemState) -> int:
        if state.conditions == self.inst.cap:
            return self.failed_actions[state.location - 1]
        return self.decision(state)


@lru_cache(maxsize=1)
def _calculator(inst: InstanceParameters) -> _IndexCalculator:
    return _IndexCalculator(inst)


def index_table(inst: InstanceParameters, state: SystemState) -> dict:
    """All index values at one state, for debugging and tracing.

    Raises ValueError, naming the field, for a state outside the instance.
    """
    validate_state(inst, state)
    calc = _calculator(inst)
    i = state.location
    table: dict = {
        "state": {"location": i, "conditions": list(state.conditions)},
        "idle_score": calc.psi(i),
        "idle_target": calc.idle_target,
        "stay": None,
        "machines": {},
        "decision": calc.decision(state),
        "modified_decision": calc.modified_decision(state),
    }
    if inst.layout.is_machine(i):
        table["stay"] = calc.repair_stats(i).stay_ratio(state.conditions[i - 1])
    for j, d in calc.targets[i - 1]:
        level = state.conditions[j - 1]
        table["machines"][j] = {
            "distance": d,
            "level": level,
            "move": calc.move(d, j, level),
            "wait": calc.wait(d, j, level),
        }
    return table
