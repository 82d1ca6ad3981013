"""The uniformized discrete-time MDP.

States pair the repairer's location with the per-machine degradation
vector.  One time step has length ``1 / Lambda`` where ``Lambda`` is the
total event-rate bound, so each rate maps directly to a per-step
probability.  Costs are per unit time and accrue at the state occupied at
the start of a step, which makes simulated averages directly comparable
with the continuous-time averages.

A single uniform number drives each simulated step through a fixed event
layout: every machine owns a reserved degradation slot (machine order),
then the repair-or-switch slot, then the self-loop remainder.  A capped
machine's slot degenerates to a self-loop instead of being reassigned, so
degradation draws coincide across policies sharing the same uniforms.

``Kernel`` encodes that law once, for every solver.  ``Kernel.event``
gives the action-dependent event (a repair, an arrival, or none) as a
rate and an index offset over StateIndexer's mixed-radix integers.  The
kernel reads it once per instance, per location and level of the machine
there (the only level the event depends on), into two tables: a move
template ``(action, rate, offset)`` per available action
(``Kernel.templates``), which ``Kernel.local`` reads for OPI's
confidence gate and ``dp.DpModel`` gathers into per-state arrays for
exact DP, and per action the row offsets the event adds past the
degradation codes, which the row builder reads for simulation and OPI's
rollouts.
``Kernel.local(x)`` gives a state's moves and the neighborhood the gate
reads, derived from the moves, memoized together per index in
``Kernel.locals``, an exact dict that OPI's online loop reads directly.
``Kernel.grid`` is the sorted set of every slot end below 1.0 that any
row can have (the largest rate's event end, 1.0 up to rounding, is left
out when it bounds no draw), and ``Kernel.codes`` classifies uniform
draws against it, one whole-array comparison per grid end, into a byte
string when the codes fit a byte: a draw's code is the gap of the grid
it falls in.  Every row's slot ends below 1.0 are grid members, so a
row's event is constant on each gap.  ``crn_codes`` validates and
classifies a common-random-number list once per kernel: it keeps the
last list's codes for the next caller that passes equal draws.
A row holds a state-action pair's location, cost and reward rates and
one index offset per code: a draw of code c moves the index by the
row's c-th offset.  What a row takes
from the machines' levels alone (the levels tuple, the cost rate and
the degradation offsets) is memoized once per condition vector and
shared by every location (``Kernel._part``), so ``Kernel.state``, the
one decoder of an index, reads it with one ``divmod`` and one lookup,
and the row builder (``Kernel._row``, not memoized) adds the event
table's offsets and reads the reward from ``reward_rate``.  Each fact is held
once: a rule's rows in the rule's table, and in ``Kernel.action_rows``
only the pairs asked for directly (``Kernel.action_row``).
``kernel_of`` keeps one Kernel per instance, shared by every
``simulate`` call (the index run and each polling subset), all three
OPI phases and ``DpModel``.
``RuleRows`` turns a decision rule into rows: key -> the rule's action
row, asked once per key.  The kernel keeps the last rule's table
(``Kernel.rows``, matched by identity), so ``simulate`` and every OPI
phase that step one rule object through one instance share it, and the
rule is asked once per key per instance, not once per call.
``simulate``'s keys are the index plus a multiple of ``indexer.count``
for the rule's memory (the polling tour position), which starts at 0 in
every call and lives only in the keys: ``simulate`` reads and writes
nothing on the rule it is given.  Each call walks its own graph of
successor links over the rule's rows, one node per key it reaches, so a
step follows the link of the draw's code, and only a code not yet taken
from a node adds its offset to the key and looks the new key up.  OPI's
rollouts and preparatory runs step on the rows themselves: they reach
new keys too often for a graph to pay.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Protocol, Sequence

import numpy as np

from .instance import InstanceParameters, _is_count, _is_integer, _is_positive


class SystemState(NamedTuple):
    location: int
    conditions: tuple[int, ...]


Action = int
# A decision rule that is a function of the state alone.
DecisionRule = Callable[[SystemState], Action]


class FiniteMemoryRule(Protocol):
    """A decision rule that also reads a memory: a non-negative integer
    (the polling tour position, say) that only its own decisions change.
    ``decide(state, memory)`` returns ``(action, memory after the step)``.
    The rule holds no memory of its own; ``simulate`` starts it at 0."""

    def decide(self, state: SystemState, memory: int) -> tuple[Action, int]: ...


# (location - 1, cost, reward, offsets): one step of a state-action pair,
# offsets[c] the index move for a draw of code c; see Kernel.action_row.
Row = tuple[int, float, float, tuple[int, ...]]
# (action, rate, target): one available action's event; see Kernel.local.
Move = tuple[Action, float, int]
# (levels, cost, degradation offsets): what a row takes from the levels
# alone; see Kernel._part.
Part = tuple[tuple[int, ...], float, tuple[int, ...]]


class CapacityError(RuntimeError):
    """State space larger than the enumeration bound, ``STATE_BOUND``."""


def pristine_state(inst: InstanceParameters, location: int = 1) -> SystemState:
    return SystemState(location, (0,) * inst.machine_count)


def check_count(name: str, value) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is an int >= 1, not a bool."""
    if not _is_count(value):
        raise ValueError(f"{name}: {value!r} is not a positive count")


def check_id(field: str, value, count: int, kind: str = "machine") -> None:
    """Raise ValueError, naming ``field``, unless ``value`` is an id in
    1..count, not a bool: a negative id would index a tuple from the end."""
    if not _is_integer(value) or not 1 <= value <= count:
        raise ValueError(f"{field}: {value!r} is not a {kind} id in 1..{count}")


def check_positive(name: str, value) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is a finite number
    above zero, not a bool: a negative or NaN tolerance is never met, so the
    sweeps would run to their cap and then blame the policy, and an infinite
    delta would never end a decision's nested rollouts."""
    if not _is_positive(value):
        raise ValueError(f"{name}: {value!r} is not a positive finite number")


def validate_state(inst: InstanceParameters, state: SystemState) -> None:
    """Raise ValueError, naming the field, unless ``state`` lies in the
    instance's state space: a location in 1..node_count and one integer
    level in 0..cap per machine."""
    check_id("state.location", state.location, inst.layout.node_count, "node")
    m = inst.machine_count
    if len(state.conditions) != m:
        raise ValueError(
            f"state.conditions: {len(state.conditions)} levels for {m} machines"
        )
    for j, (level, cap) in enumerate(zip(state.conditions, inst.cap)):
        if not _is_integer(level) or not 0 <= level <= cap:
            raise ValueError(
                f"state.conditions[{j}]: level {level!r} of machine {j + 1} "
                f"is not in 0..{cap}"
            )


def actions_of(inst: InstanceParameters, state: SystemState) -> tuple[Action, ...]:
    """Available actions: remain, or head to an adjacent node."""
    return (state.location,) + inst.layout.neighbors(state.location)


class Kernel:
    """Per-instance tables for fast stepping and state indexing."""

    def __init__(self, inst: InstanceParameters):
        self.inst = inst
        self.step_length = delta = inst.step_length
        m = inst.machine_count
        self.machine_count = m
        self.cap = inst.cap
        # Per-step degradation probabilities: rate times step length.
        self.lam_delta = [lam_j * delta for lam_j in inst.lam]
        # Reserved degradation slots: machine j owns
        # [cum_lambda[j-1], cum_lambda[j]); a draw there at cap self-loops.
        cum_lambda = list(itertools.accumulate(self.lam_delta, initial=0.0))
        # Every slot end a draw can fall below: the m degradation ends, then
        # the distinct ends of the event slots, one per rate (tau, mu_i),
        # that lie below 1.0.  The largest rate's end is 1.0 up to rounding;
        # at or above 1.0 it bounds no draw, so its event owns the top code.
        # A draw's code is the number of ends at or below it: codes 0..m-1
        # are the degradation slots, and the event of rate r owns codes
        # m..event_code[r].
        ends = {rate: cum_lambda[m] + rate * delta for rate in (inst.tau, *inst.mu)}
        event_ends = sorted({end for end in ends.values() if end < 1.0})
        self.grid = np.array(cum_lambda[1:] + event_ends)
        event_code = {rate: m + bisect_left(event_ends, end) for rate, end in ends.items()}
        # Cost-rate lookup per machine and level.
        self.cost_rate = [
            [inst.cost.rate(i, level, inst.cap[i - 1]) for level in range(inst.cap[i - 1] + 1)]
            for i in range(1, m + 1)
        ]
        # Reward rate of repairing machine i from each level: (mu_i /
        # lambda_i) times the cost headroom between the cap and the level
        # below; zero at level 0, where there is nothing to repair.
        self.reward_rate = [
            [0.0]
            + [
                (inst.mu[i] / inst.lam[i]) * (rates[-1] - rates[level - 1])
                for level in range(1, len(rates))
            ]
            for i, rates in enumerate(self.cost_rate)
        ]
        self.indexer = StateIndexer(inst)
        # The law's event tables, read off ``event`` once per location
        # (0-based) and level of the machine there (0 at a stage), the only
        # level the event reads, so the state put to it has every machine
        # at that level: the move template ``(action, rate, offset)`` of
        # each available action, and per action the row offsets past the
        # m degradation codes.
        self.templates: list[list[tuple[Move, ...]]] = []
        self._events: list[list[dict[Action, tuple[int, ...]]]] = []
        tail = len(self.grid) + 1 - m
        for location in range(1, inst.layout.node_count + 1):
            templates, events = [], []
            for own in range(self.cap[location - 1] + 1) if location <= m else (0,):
                state = SystemState(location, (own,) * m)
                template = tuple((a, *self.event(state, a)) for a in actions_of(inst, state))
                templates.append(template)
                events.append({})
                for action, rate, offset in template:
                    n = event_code[rate] + 1 - m if rate else 0
                    events[-1][action] = (offset,) * n + (0,) * (tail - n)
            self.templates.append(templates)
            self._events.append(events)
        self._offsets: dict[tuple[int, ...], tuple[int, ...]] = {}
        # Index -> (moves, neighborhood); see local.
        self.locals: dict[int, tuple[tuple[Move, ...], tuple[int, ...]]] = {}
        # Condition index (x % conditions_per_location) -> (levels, cost
        # rate, degradation offsets), shared by every location; see _part.
        self._parts: dict[int, Part] = {}
        # Rows asked for by (x, action) outside any rule's table.
        self.action_rows: dict[tuple[int, Action], Row] = {}
        # (draws, codes) of the last CRN list crn_codes classified.
        self._crn_memo: tuple[np.ndarray, Sequence[int]] | None = None
        # The last rule's rows; see rows.
        self._rows_memo: RuleRows | None = None

    def event(self, state: SystemState, action: Action) -> tuple[float, int]:
        """The action-dependent event as ``(rate, offset)`` over StateIndexer
        indices: staying at a damaged machine i repairs one level, (mu_i,
        -stride_i); heading to a neighbour arrives there, (tau, the
        location move); staying anywhere else has no event, (0.0, 0)."""
        i = state.location
        if action != i:
            return self.inst.tau, (action - i) * self.indexer.conditions_per_location
        if i <= self.machine_count and state.conditions[i - 1] >= 1:
            return self.inst.mu[i - 1], -self.indexer.strides[i - 1]
        return 0.0, 0

    def local(self, x: int) -> tuple[tuple[Move, ...], tuple[int, ...]]:
        """The moves and the neighborhood of the state with index ``x``,
        memoized together in ``locals``.  The moves are every available
        action's ``event`` as ``(action, rate, x + offset)`` in
        ``actions_of`` order (staying first; idling is ``(action, 0.0,
        x)``), read off the event table of ``x``'s location and the level
        of the machine there.  The neighborhood is the indices the gate
        reads: ``x``, then the targets of its switches in neighbour order,
        then its repair target if it has one (the move targets with a
        nonzero rate).  A hot loop reads ``locals`` and calls this on a
        miss."""
        local = self.locals.get(x)
        if local is not None:
            return local
        location, c = divmod(x, self.indexer.conditions_per_location)
        own = self._part(c)[0][location] if location < self.machine_count else 0
        moves = tuple(
            (action, rate, x + offset) for action, rate, offset in self.templates[location][own]
        )
        stay, *switches = moves
        members = (x, *(target for _, _, target in switches))
        if stay[1]:
            members += (stay[2],)
        local = self.locals[x] = (moves, members)
        return local

    def state(self, x: int) -> SystemState:
        """The state with index ``x``, decoded on demand: one ``divmod``
        and the condition part's levels tuple (``_part``)."""
        location, c = divmod(x, self.indexer.conditions_per_location)
        return SystemState(location + 1, self._part(c)[0])

    def _part(self, c: int) -> Part:
        """What a state's row takes from its condition index ``c`` alone,
        the same at every location: the levels tuple, the cost rate (the
        per-machine rates summed in machine order) and the m degradation
        offsets (machine j's stride, 0 at its cap), interned with the rows'
        offsets tuples, since few cap patterns repeat across many ``c``.
        Memoized per ``c``."""
        part = self._parts.get(c)
        if part is None:
            levels, cost, degrade, rest = [], 0.0, [], c
            for stride, cap, rates in zip(self.indexer.strides, self.cap, self.cost_rate):
                level, rest = divmod(rest, stride)
                levels.append(level)
                cost += rates[level]
                degrade.append(stride if level < cap else 0)
            degrade = tuple(degrade)
            part = self._parts[c] = (tuple(levels), cost, self._offsets.setdefault(degrade, degrade))
        return part

    def codes(self, uniforms) -> Sequence[int]:
        """The code of each uniform draw: the number of ``grid`` ends at or
        below it, so code c covers the draws in ``[grid[c-1], grid[c])``
        and the top code, ``len(grid)``, those in ``[grid[-1], 1)``: the
        largest rate's event when its end is not below 1.0, else a sliver
        of self-loop.

        Branch-free: one whole-array comparison per grid end, summed into
        the narrowest unsigned dtype that holds ``len(grid)``.  When that
        is one byte (any instance under 128 machines) the codes come back
        as ``bytes``, which iterate and index as ints, and a wider grid's
        as a tuple: immutable either way."""
        draws = np.asarray(uniforms, dtype=np.float64)
        codes = np.zeros(draws.shape, np.min_scalar_type(len(self.grid)))
        for end in self.grid:
            codes += draws >= end
        return codes.tobytes() if codes.itemsize == 1 else tuple(codes.tolist())

    def action_row(self, x: int, action: Action) -> Row:
        """One uniformized step of the state with index ``x`` under
        ``action``, as ``(location - 1, cost, reward, offsets)``: the cost
        and reward rates and a successor row, so a draw of code ``c``
        (see ``codes``) moves ``x`` to ``x + offsets[c]``.  Memoized in
        ``action_rows`` under ``(x, action)``, which holds only the pairs
        asked for here: a rule's rows live in its ``RuleRows``.  Raises
        ValueError when ``action`` is not available in the state, which
        is checked once per memoized pair.  See ``_row``."""
        row = self.action_rows.get((x, action))
        if row is None:
            location, c = divmod(x, self.indexer.conditions_per_location)
            row = self.action_rows[(x, action)] = self._row(location, self._part(c), action)
        return row

    def _row(self, location: int, part: Part, action: Action) -> Row:
        """The row of ``action`` at the state with 0-based ``location``
        and condition part ``part`` (``_part``), the kernel's one row
        builder, not memoized.

        The row has one offset per code: machine j's stride (0 at its cap)
        for code j < m, the action's event offset (see ``event``) for codes
        m up to the code whose gap ends at the event's slot end (the top
        code for an end not below 1.0) when the action has one, and 0, the
        self-loop, for the rest.  Each row's slot ends below 1.0 are grid
        members, so that is the move a bisection of the draw into the
        row's own slot ends would pick.  Rows hold relative moves, so
        equal offsets tuples are shared across states.  Raises ValueError
        when ``action`` is not available in the state."""
        levels, cost, degrade = part
        own = levels[location] if location < self.machine_count else 0
        event = self._events[location][own].get(action)
        if event is None:
            state = SystemState(location + 1, levels)
            raise ValueError(f"action {action!r} not available in state {state}")
        # Only staying at a damaged machine repairs and earns.
        reward = self.reward_rate[location][own] if own and action == location + 1 else 0.0
        offsets = degrade + event
        return location, cost, reward, self._offsets.setdefault(offsets, offsets)

    def rows(self, rule: DecisionRule | FiniteMemoryRule) -> RuleRows:
        """``rule``'s ``RuleRows`` on this kernel, kept for the last rule
        asked for and matched by identity, so every ``simulate`` call and
        OPI phase that steps one rule object through one instance shares
        one table, and the rule is asked once per key per instance.
        Another rule object gets a fresh table, which replaces the kept one.
        So a rule must give the same answer each time it is asked: one
        whose answers change between calls would step on its old ones."""
        memo = self._rows_memo
        if memo is None or memo.rule is not rule:
            memo = self._rows_memo = RuleRows(self, rule)
        return memo


@lru_cache(maxsize=1)
def kernel_of(inst: InstanceParameters) -> Kernel:
    """The Kernel shared by every caller working on ``inst``.

    One instance is kept at a time, so a batch of instances holds one
    instance's memos in memory, not all of them.
    """
    return Kernel(inst)


class RuleRows:
    """Key -> ``kernel``'s row under ``rule``'s action there: ``table``, an
    exact dict that ``fill`` grows on a miss, so the rule is asked once per
    key.  Build one through ``Kernel.rows``, which keeps it for the next
    caller with the same rule.  A hot loop reads ``table`` behind ``try``
    and calls ``fill`` on ``KeyError``: CPython specializes a subscript on
    an exact dict, not on a subclass with ``__missing__``.

    A fill decodes the key once, asks the rule and builds the row with
    the kernel's unmemoized builder, so the row lives in this table only,
    not also in ``Kernel.action_rows``.  For a function of the state the
    key is the state index.  For a ``FiniteMemoryRule`` the key is
    ``x + memory * count`` (``count`` is ``indexer.count``), the memory
    after the step is checked, and the row's offsets are moved to the next
    memory's keys, so a step adds one offset to the key either way.
    """

    def __init__(self, kernel: Kernel, rule: DecisionRule | FiniteMemoryRule):
        self.table: dict[int, Row] = {}
        self.kernel = kernel
        self.rule = rule
        self.decide = getattr(rule, "decide", None)
        self.count = kernel.indexer.count

    def fill(self, key: int) -> Row:
        """Build ``key``'s row, store it in ``table`` and return it."""
        kernel = self.kernel
        memory, x = divmod(key, self.count)
        location, c = divmod(x, kernel.indexer.conditions_per_location)
        part = kernel._part(c)
        state = SystemState(location + 1, part[0])
        if self.decide is None:
            row = self.table[key] = kernel._row(location, part, self.rule(state))
            return row
        action, after = self.decide(state, memory)
        _check_memory(after)
        row = kernel._row(location, part, action)
        if after != memory:
            shift = (after - memory) * self.count
            row = row[:3] + (tuple(offset + shift for offset in row[3]),)
        self.table[key] = row
        return row


@dataclass
class SimulationReport:
    """Averages and counters from one policy run."""

    average_cost: float
    average_reward: float
    steps: int
    visit_counts: tuple[int, ...]
    safe_action_fraction: float | None = None
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "average_cost": self.average_cost,
            "average_reward": self.average_reward,
            "steps": self.steps,
            "visit_counts": list(self.visit_counts),
            "safe_action_fraction": self.safe_action_fraction,
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2)


def simulate(
    inst: InstanceParameters,
    policy: DecisionRule | FiniteMemoryRule,
    x0: SystemState,
    steps: int,
    crn: Sequence[float],
) -> SimulationReport:
    """Run the uniformized chain for ``steps`` steps under ``policy``.

    ``crn`` holds at least one uniform per step, and the first ``steps``
    drive the run, so policies given the same list are compared under
    common random numbers.  They are classified into codes
    (``crn_codes``, once per list and instance) before the first step,
    which raises ValueError for a list that is not one-dimensional or is
    shorter than ``steps`` and names ``crn[i]`` for a draw that is NaN or
    outside [0, 1).

    The rule is a function of the state, or a ``FiniteMemoryRule``, whose
    decision depends on the state and its memory only.  The chain runs on
    keys ``x + memory * indexer.count`` (``x`` a state index; memory is 0
    for a function of the state), and the rule is queried once per
    distinct key, not once per step: the ``RuleRows`` the instance's
    shared kernel (``kernel_of``) keeps for the rule (``Kernel.rows``)
    holds each key's row, and later calls with the same rule object reuse
    it.  Over those rows each call links a node per key it reaches to the
    node each code taken from it leads to, so a step follows one link:
    only a code not yet taken from a node adds the code's offset to the
    key and looks the new key up (filling its row on first sight).  The
    links are cut before the call returns, or raises, so no node outlives
    it.  A finite-memory rule starts
    every call at key ``index(x0)``, memory 0, and the memory stays in
    the keys: nothing is read from or written to the rule, so identical
    calls return identical reports.
    """
    check_count("steps", steps)
    validate_state(inst, x0)

    kernel = kernel_of(inst)
    codes = crn_codes(kernel, crn, steps)
    rows = kernel.rows(policy)
    get, fill = rows.table.get, rows.fill
    # Key -> node [location, cost, reward, successors, key, offsets]: the
    # key's row, and the node each code taken from it leads to (None until
    # taken), so a step follows a link and only a new code adds an offset.
    nodes: dict[int, list] = {}

    def node_of(key: int) -> list:
        node = nodes.get(key)
        if node is None:
            location, cost, reward, offsets = get(key) or fill(key)
            node = nodes[key] = [location, cost, reward, [None] * len(offsets), key, offsets]
        return node

    visits = [0] * inst.layout.node_count
    total_cost = 0.0
    total_reward = 0.0
    try:
        node = node_of(kernel.indexer.index(x0))
        # The last step links nowhere: the state it reaches is not asked for.
        for code in codes[:-1]:
            location, cost, reward, successors, key, offsets = node
            visits[location] += 1
            total_cost += cost
            total_reward += reward
            node = successors[code]
            if node is None:
                node = successors[code] = node_of(key + offsets[code])
        location, cost, reward = node[:3]
        visits[location] += 1
        total_cost += cost
        total_reward += reward
    finally:
        # Links form cycles (a self-loop links a node to itself): cut them,
        # so the call's nodes are freed on return, not by the cyclic collector.
        for node in nodes.values():
            node[3] = None

    return SimulationReport(
        average_cost=total_cost / steps,
        average_reward=total_reward / steps,
        steps=steps,
        visit_counts=tuple(visits),
    )


def crn_codes(kernel: Kernel, crn: Sequence[float], steps: int) -> Sequence[int]:
    """The codes (``Kernel.codes``) of the first ``steps`` draws of a
    common-random-number list.  Raises ValueError for a list that is not
    one-dimensional or is shorter than ``steps``, and names ``crn[i]`` for
    the first draw that is NaN or outside [0, 1), which would otherwise
    pick a plausible successor silently.

    The kernel keeps the last list it classified, as a private copy of
    its draws beside their codes, so a list that every policy of an
    instance reads (the index run, each polling subset, the online run)
    is validated and classified once: a call whose draws equal the copy
    returns the stored codes, which are immutable.  A list changed in
    place since then no longer equals the copy, so it is checked again."""
    draws = np.asarray(crn, dtype=np.float64)
    if draws.ndim != 1:
        raise ValueError(f"crn: an array of shape {draws.shape} is not one-dimensional")
    if len(draws) < steps:
        raise ValueError(f"crn: a list of {len(draws)} draws is shorter than {steps} steps")
    draws = draws[:steps]
    memo = kernel._crn_memo
    if memo is not None and np.array_equal(memo[0], draws):
        return memo[1]
    bad = np.flatnonzero(~((draws >= 0.0) & (draws < 1.0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"crn[{i}]: {float(draws[i])!r} is not a uniform draw in [0, 1)")
    codes = kernel.codes(draws)
    kernel._crn_memo = (draws.copy(), codes)
    return codes


def _check_memory(memory) -> None:
    if not _is_integer(memory) or memory < 0:
        raise ValueError(f"rule memory {memory!r} is not a non-negative integer")


# The most states StateIndexer.states and DpModel lay out.
STATE_BOUND = 5_000_000


class StateIndexer:
    """Mixed-radix state index, in the order of ``states``; a kernel
    decodes an index with ``Kernel.state``."""

    def __init__(self, inst: InstanceParameters):
        self.caps = inst.cap
        m = len(self.caps)
        self.strides = [0] * m
        stride = 1
        for j in range(m - 1, -1, -1):
            self.strides[j] = stride
            stride *= self.caps[j] + 1
        self.conditions_per_location = stride
        self.count = stride * inst.layout.node_count

    def index(self, state: SystemState) -> int:
        idx = (state.location - 1) * self.conditions_per_location
        for level, stride in zip(state.conditions, self.strides):
            idx += level * stride
        return idx

    def check_bound(self) -> None:
        """Raise CapacityError above ``STATE_BOUND`` states."""
        if self.count > STATE_BOUND:
            raise CapacityError(
                f"state space has {self.count} states, above the bound of {STATE_BOUND}"
            )

    def states(self) -> Iterator[SystemState]:
        """Every state in index order, one at a time: location major,
        conditions minor (the last machine's level varies fastest).
        Raises CapacityError, when called, above ``STATE_BOUND`` states."""
        self.check_bound()
        locations = range(1, self.count // self.conditions_per_location + 1)
        conditions = itertools.product(*(range(cap + 1) for cap in self.caps))
        return itertools.starmap(SystemState, itertools.product(locations, conditions))
