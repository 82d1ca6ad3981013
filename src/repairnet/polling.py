"""Cyclic polling benchmark.

The repairer tours a fixed subset of machines, fully repairing each one
before moving on, regardless of what the rest of the system is doing.
The tour order minimizes the round-trip distance (brute force; subsets
are small), and the benchmark reports the best average cost over every
non-empty subset, simulated on a shared random-number list.

The tour position is the rule's memory (``PollingPolicy.decide`` maps a
state and position to an action and the next position), so ``simulate``
steps each tour on (state, tour position) keys, from position 0 in every
call, and makes one decision per distinct key rather than one per step.
The rule itself is an immutable value, its tour plus ``decide``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .instance import InstanceParameters
from .mdp import SimulationReport, SystemState, check_id, pristine_state, simulate
from .network import NetworkLayout, shortest_next_hop

DEFAULT_SUBSET_LIMIT = 4


@dataclass(frozen=True)
class PollingTour:
    sequence: tuple[int, ...]
    cycle_length: int


def tour_length(layout: NetworkLayout, sequence: Sequence[int]) -> int:
    total = 0
    for a, b in zip(sequence, sequence[1:]):
        total += layout.dist(a, b)
    total += layout.dist(sequence[-1], sequence[0])
    return total


def best_tour(layout: NetworkLayout, subset: Iterable[int]) -> PollingTour:
    """Minimal-cycle-length visiting order for a machine subset.

    Brute force over permutations anchored at the smallest machine id;
    among tied lengths the lexicographically smallest sequence wins.
    Raises ValueError, naming the id, for an id that is not a machine or
    is repeated.
    """
    machines = set()
    for machine in subset:
        check_id("polling subset", machine, layout.machine_count)
        if machine in machines:
            raise ValueError(f"polling subset: machine {machine} is repeated")
        machines.add(machine)
    machines = sorted(machines)
    if not machines:
        raise ValueError("polling subset must be non-empty")
    if len(machines) > 8:
        raise ValueError(f"brute-force tour search limited to 8 machines, got {len(machines)}")
    first, rest = machines[0], machines[1:]
    best_seq: tuple[int, ...] | None = None
    best_len = 0
    for perm in itertools.permutations(rest):
        seq = (first, *perm)
        length = tour_length(layout, seq)
        if best_seq is None or length < best_len:
            best_seq, best_len = seq, length
    return PollingTour(sequence=best_seq, cycle_length=best_len)


def polling_decision(
    layout: NetworkLayout, tour: PollingTour, state: SystemState, progress: int
) -> tuple[int, int]:
    """One exhaustive-service decision; returns (action, new progress).

    At the current target: stay while it needs repair, otherwise advance
    the cycle and head for the next machine.  Anywhere else: continue
    along the shortest path to the target.  State elsewhere in the system
    never alters the route.
    """
    target = tour.sequence[progress]
    loc = state.location
    if loc == target:
        if state.conditions[target - 1] > 0:
            return loc, progress
        progress = (progress + 1) % len(tour.sequence)
        target = tour.sequence[progress]
        if target == loc:
            return loc, progress
    return shortest_next_hop(layout, loc, target), progress


@dataclass(frozen=True)
class PollingPolicy:
    """Exhaustive-service rule whose memory is the tour position.

    A ``FiniteMemoryRule``: ``simulate`` steps on (state, tour position)
    keys through ``decide``, from position 0 in every call.  The rule
    holds no position and is not callable, so it cannot pass for a
    function of the state.
    """

    inst: InstanceParameters
    tour: PollingTour

    def decide(self, state: SystemState, progress: int) -> tuple[int, int]:
        return polling_decision(self.inst.layout, self.tour, state, progress)


def iter_subsets(machines: Sequence[int]):
    for size in range(1, len(machines) + 1):
        yield from itertools.combinations(machines, size)


def best_polling_report(
    inst: InstanceParameters,
    steps: int,
    crn: Sequence[float],
    x0: SystemState | None = None,
) -> SimulationReport:
    """Best average cost over all non-empty machine subsets.

    Every subset's tour is simulated on the same random-number list.  The
    returned report carries a per-subset table in ``metadata`` for audit.
    Raises ValueError for more than ``DEFAULT_SUBSET_LIMIT`` machines.
    """
    m = inst.machine_count
    if m > DEFAULT_SUBSET_LIMIT:
        raise ValueError(f"polling benchmark covers m <= {DEFAULT_SUBSET_LIMIT} (got m={m})")
    if x0 is None:
        x0 = pristine_state(inst)

    best_report: SimulationReport | None = None
    best_subset: tuple[int, ...] | None = None
    table = []
    for subset in iter_subsets(inst.layout.machines):
        tour = best_tour(inst.layout, subset)
        report = simulate(inst, PollingPolicy(inst, tour), x0, steps, crn=crn)
        table.append(
            {
                "subset": list(subset),
                "tour": list(tour.sequence),
                "cycle_length": tour.cycle_length,
                "average_cost": report.average_cost,
                "average_reward": report.average_reward,
            }
        )
        if best_report is None or report.average_cost < best_report.average_cost:
            best_report = report
            best_subset = subset
    best_report.metadata["subsets"] = table
    best_report.metadata["best_subset"] = list(best_subset)
    return best_report
