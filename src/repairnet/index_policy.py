"""Index heuristics for dispatching the repairer.

Each candidate decision is scored by an approximate reward-per-unit-time
index computed over the horizon of one full repair: stay and finish the
machine underfoot, or travel to another machine and finish that one.  A
third index scores deliberately waiting for one more degradation before
traveling, and vetoes moves that waiting would beat.  All indices derive
from two ingredients computed in closed form: the expected reward and
duration of an uninterrupted repair episode, and the distribution of a
machine's level at the moment the repairer would arrive.  Repair earns
the kernel's reward rates (``kernel_of(inst).reward_rate``), the table
the simulation and the DP read.

The move and wait indices depend only on the distance, the target
machine and its level, so the per-instance calculator scores every level
of each distinct ``(distance, machine)`` once, when it is built, both
scores in one pass over one arrival distribution per level
(``_IndexCalculator.scores``), into one table per location; a decision
is one pass over its location's table.  The entry points that take
input from a caller (``repair_statistics``, ``arrival_distribution``,
``index_table``) validate it against the instance first; the policy
objects, called once per simulated step, do not.  ``index_table``
reports every score and both decisions at one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .instance import InstanceParameters
from .mdp import SystemState, _is_integer, check_id, kernel_of, validate_state
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
    check_id("machine", machine, inst.machine_count)
    return _calculator(inst).repair_stats(machine)


def arrival_distribution(
    inst: InstanceParameters, source: int, machine: int, level: int
) -> ArrivalDistribution:
    """Distribution of machine ``machine``'s level when the repairer,
    starting from ``source``, arrives along a shortest path.  Raises
    ValueError, naming the field, for a source that is not a node, an id
    that is not a machine, a level outside 0..cap, or ``source ==
    machine``."""
    check_id("source", source, inst.layout.node_count, "node")
    check_id("machine", machine, inst.machine_count)
    cap = inst.cap[machine - 1]
    if not _is_integer(level) or not 0 <= level <= cap:
        raise ValueError(f"level: {level!r} of machine {machine} is not in 0..{cap}")
    if source == machine:
        raise ValueError("arrival distribution requires source != machine")
    d = inst.layout.dist(source, machine)
    return _calculator(inst).arrival(d, machine, level)


class IndexPolicy:
    """The index heuristic as a stationary decision rule, read off the
    instance's score tables; ties go to the smallest id."""

    def __init__(self, inst: InstanceParameters):
        self._calc = _calculator(inst)

    def __call__(self, state: SystemState) -> int:
        return self._calc.decision(state)


class ModifiedIndexPolicy(IndexPolicy):
    """Unichain variant used as the base policy for improvement methods.

    When every machine sits at its cap the repairer heads for the
    smallest-indexed machine with the best full-repair reward rate,
    making that state reachable under the policy from everywhere and the
    induced chain unichain; elsewhere it acts as ``IndexPolicy``.
    """

    def __call__(self, state: SystemState) -> int:
        return self._calc.modified_decision(state)


class _IndexCalculator:
    """Per-instance tables, all built up front: repair statistics, idle
    scores, and per location every other machine's move and wait scores
    by level."""

    def __init__(self, inst: InstanceParameters):
        self.inst = inst
        self.layout = inst.layout
        self.m = inst.machine_count
        # Every machine's: the failed-state target below reads them all.
        self._repair_stats = tuple(map(self._repair_statistics, range(1, self.m + 1)))
        # Idle score per node: the expected travel time to the next machine
        # that degrades, each machine weighted by its share of the total
        # degradation rate.
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
        # Per location: every other machine in id order, as
        # (j, distance, move score by level, wait score by level); each
        # distinct (distance, machine) is scored once.
        scores: dict[tuple[int, int], tuple[tuple[float, ...], tuple[float, ...]]] = {}
        tables = []
        for i in range(1, self.layout.node_count + 1):
            table = []
            for j in self.layout.machines:
                if j == i:
                    continue
                d = self.layout.dist(i, j)
                if (d, j) not in scores:
                    scores[d, j] = self.scores(d, j)
                table.append((j, d, *scores[d, j]))
            tables.append(tuple(table))
        self.tables = tuple(tables)
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

    def repair_stats(self, machine: int) -> RepairStatistics:
        return self._repair_stats[machine - 1]

    def _repair_statistics(self, machine: int) -> RepairStatistics:
        inst = self.inst
        lam = inst.lam[machine - 1]
        mu = inst.mu[machine - 1]
        cap = inst.cap[machine - 1]
        # The kernel's reward rate of repairing from each level.
        s = kernel_of(inst).reward_rate[machine - 1]
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

    def scores(self, d: int, machine: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The move and wait scores of ``machine``, ``d`` hops away, by
        the level it sits at now, both read off one arrival distribution
        per level.  Move: head there and repair it to pristine.  Wait: wait
        out one extra degradation first, so each arrival outcome is
        shifted one level up and the expected wait 1/lambda is added to
        the horizon; at the cap the level cannot rise, but the wait is
        still paid."""
        stats = self.repair_stats(machine)
        cap = self.inst.cap[machine - 1]
        extra = 1.0 / self.inst.lam[machine - 1]
        moves, waits = [], []
        for level in range(cap + 1):
            move = wait = 0.0
            for k, p, travel in self.arrival(d, machine, level).outcomes():
                reward = stats.expected_reward[k]
                if reward > 0.0 and p > 0.0:
                    move += p * reward / (travel + stats.expected_time[k])
                target = min(k + 1, cap)
                reward = stats.expected_reward[target]
                if reward > 0.0 and p > 0.0:
                    wait += p * reward / (extra + travel + stats.expected_time[target])
            moves.append(move)
            waits.append(wait)
        return tuple(moves), tuple(waits)

    def decision(self, state: SystemState) -> int:
        """With every level at zero, head for the idle target.  Otherwise
        head for the first machine with the largest move score: at a
        machine only targets whose move score is at least their wait score
        compete, and the repairer leaves only if the best one beats
        staying; elsewhere every target competes."""
        i = state.location
        conditions = state.conditions
        if not any(conditions):
            target = self.idle_target
            return i if i == target else shortest_next_hop(self.layout, i, target)
        at_machine = i <= self.m
        best_j = 0
        best_value = -1.0
        for j, _, move, wait in self.tables[i - 1]:
            level = conditions[j - 1]
            value = move[level]
            if value > best_value and (not at_machine or value >= wait[level]):
                best_j = j
                best_value = value
        if at_machine and not (
            best_j and best_value > self.repair_stats(i).stay_ratio(conditions[i - 1])
        ):
            return i
        return shortest_next_hop(self.layout, i, best_j)

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
        "idle_score": calc.psi_table[i - 1],
        "idle_target": calc.idle_target,
        "stay": None,
        "machines": {},
        "decision": calc.decision(state),
        "modified_decision": calc.modified_decision(state),
    }
    if inst.layout.is_machine(i):
        table["stay"] = calc.repair_stats(i).stay_ratio(state.conditions[i - 1])
    for j, d, move, wait in calc.tables[i - 1]:
        level = state.conditions[j - 1]
        table["machines"][j] = {
            "distance": d,
            "level": level,
            "move": move[level],
            "wait": wait[level],
        }
    return table
