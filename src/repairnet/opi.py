"""Two-phase rollout policy improvement.

Offline, trajectories simulated under a base policy estimate relative
values for a growing set of frequently visited states; each estimate is a
trajectory's excess cost over the base policy's average, bootstrapped
through the value of the state where the trajectory stops.  Estimates are
blended by exponential averaging, and the squared-weight bookkeeping
yields an honest confidence interval for each value (reliability-weight
variance of a weighted mean).

Online, every decision compares the candidate actions' one-step value
deltas as intervals.  An action is taken only when its interval lies
strictly below every rival's, shared endpoints handled sign-by-sign;
otherwise the base policy's action is used as the safe fallback.  The gap
between transitions funds nested simulations that sharpen the estimates
around the states the system is about to visit.

The hot loops work on StateIndexer's mixed-radix integers, not on state
tuples.  A step under an action is a row from ``Kernel.action_row``: the
code of the step's uniform draw (``Kernel.codes``) picks an offset to add
to the index.  All three phases use the instance's shared kernel
(``kernel_of``), the same one ``simulate`` uses.  Every phase call steps
the base policy through the kernel's table for that rule object
(``Kernel.rows``, an ``mdp.RuleRows``), as ``simulate`` steps its rule,
so the three phases of a run share one table, and the base policy is
asked, and its row built and checked for availability, once per index
per instance.  The online gate's chosen actions are the only rows the
phases ask for by (index, action) (``Kernel.action_row``).  The base
policy must be a function of the state: the store is keyed by state
index, and a finite-memory rule (one with ``decide``) is refused before
any budget is spent.

The value store belongs to one instance, fixed when the store is built,
and keeps one dict of entries, keyed by the same state index; the phases
read and grow that dict directly.  States appear only at its edges: a
small state-level surface that validates every state and entry it is
given, and the JSON files, which are stamped with the instance they were
exported for.  Every public entry point that takes a store refuses one
built for another instance before it spends any budget.

Rollouts are short (about two steps each online), so their cost is the
bookkeeping around them, not the stepping.  ``_rollout`` builds, per
phase call, the function ``rollout(z, p)`` that runs one rollout over its
rows, store and code stream, updates its records' entries and returns its
stop and its steps; ``offline_main`` spends its budget on calls to it in
one loop over its start states (the chained core phase starts each
rollout at the last one's stop).  Only a chain records more than its
start, so only a chain builds a list of records, and the step loop tests
one counter that is 0 otherwise.  ``online_run`` spends its budget on
the neighborhoods of successive hypothetical successors, each successor
drawn when the previous neighborhood is used up, and runs each of those
``p = 1`` rollouts inline, so that one decision, its gate aside, is one
Python frame: an ``online_run`` that calls ``rollout(z)`` for each
rollout takes 1.15 times as long (``scripts/opi_ab.py`` on seeds 20001
and 20002, 20 alternating rounds each on a 2-vCPU VM).  So the step
loop and the entry update are written twice, in ``_rollout`` and in
``online_run``'s loop, which keeps only what ``p = 1`` needs; a
property test runs ``online_run`` against a reference loop that calls
``rollout(z)`` once per start and requires the same report and store.
Many draws are self-loops (offset 0; two thirds
of the opi-wide workload's rollout steps), and one anywhere but at the
reference neither stops the rollout nor adds a record, so both loops
step it on the row in hand, without the row lookup, the stop test or the
record test.  Rows are read from the rule's exact dict
(``RuleRows.table``) behind ``try``, filled on ``KeyError``.

Each phase reads its generator as one stream of codes, one per
simulated step: uniforms are drawn and classified (``Kernel.codes``)
8192 at a time (``_uniforms``), so the phases that share the offline
generator read it back to back.  Online, the realized transitions come
from the CRN list's codes when one is given, which rejects a draw that
is NaN or outside [0, 1), and from the same stream otherwise.

The kernel's moves (``Kernel.local``) give each action's event as
``(action, rate, target)`` (mu_i for a repair, tau for a switch, 0 for
idling), so every action's delta is rate * (h[target] - h[x]), the
pairwise confidence test is closed-form interval arithmetic over at most
three values, and a state's neighborhood, memoized with its moves, is the
state plus its move targets, read for the gate, the online rollouts and
the offline start states; this module does no rate or index arithmetic
of its own.  The gate computes the interval of each neighborhood entry
once, in one ``_intervals`` call, where the interval formula is
written.  An unbounded interval that the test needs defeats every pair,
so the gate stops at the first one.

Budgets run in two modes.  Wall-clock mode reproduces the real-time
regime (seconds per decision); step-count mode swaps every clock for a
deterministic counter so runs are exactly reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .instance import (
    InstanceParameters, _is_finite, _is_integer, _is_positive, instance_to_dict,
)
from .mdp import (
    DecisionRule,
    Kernel,
    Move,
    RuleRows,
    SimulationReport,
    SystemState,
    check_count,
    check_positive,
    crn_codes,
    kernel_of,
    pristine_state,
    validate_state,
)

Z_CRITICAL = 1.96
LEARNING_SCALE = 10.0

WALL_CLOCK = "wall_clock"
STEP_COUNT = "step_count"

UNBOUNDED = (-math.inf, math.inf)

# Why the online gate fell back to the base action; see _gate.
UNBOUNDED_CAUSE = "unbounded"
OVERLAP_CAUSE = "overlap"


@dataclass(frozen=True)
class OpiBudget:
    """Iteration and time budgets for the offline and online parts.

    In wall-clock mode ``tau_max`` and ``delta`` are seconds; in
    step-count mode ``tau_max`` counts simulated steps per start state
    and ``delta`` counts nested trajectories per decision, so there it
    must be a whole number of at least 1 (an integral float such as 4.0
    is accepted).
    """

    r1: int = 10_000
    r2: int = 500_000
    r_off: int = 100_000
    tau_max: float = 100.0
    r_on: int = 500_000
    delta: float = 0.01
    mode: str = WALL_CLOCK

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "r_off", "r_on"):
            check_count(name, getattr(self, name))
        # An infinite tau_max is allowed: r_off still ends the rollouts.
        if not (_is_positive(self.tau_max) or self.tau_max == math.inf):
            raise ValueError(f"tau_max: {self.tau_max!r} is not a positive number")
        check_positive("delta", self.delta)
        if self.mode not in (WALL_CLOCK, STEP_COUNT):
            raise ValueError(f"mode: unknown budget mode {self.mode!r}")
        # Below 1 no nested rollout would run, and a fraction would be cut off.
        if self.mode == STEP_COUNT and (self.delta < 1 or self.delta != int(self.delta)):
            raise ValueError(
                f"delta: {self.delta!r} is not a whole number of rollouts >= 1 "
                "(step-count mode)"
            )


def desk_scale_budget() -> OpiBudget:
    """Deterministic budgets sized for desk experiments.

    Large enough that the value store separates actions on instances with
    a few thousand states; scale r_off and delta up for larger systems.
    """
    return OpiBudget(
        r1=2_000,
        r2=300_000,
        r_off=2_000,
        tau_max=200_000.0,
        r_on=50_000,
        delta=4.0,
        mode=STEP_COUNT,
    )


@dataclass(slots=True)
class ValueStoreEntry:
    h: float = 0.0
    ss: float = 0.0
    w: float = 0.0
    s: int = 0


@dataclass(frozen=True)
class ValueStore:
    """Relative-value statistics for visited states of one instance.

    Frozen: the instance, reference and g_base are fixed when the store
    is built, after the constructor has refused a reference outside the
    instance and a g_base that is not a finite number, so no later
    assignment gets past those checks or ``_check_store``.  ``entries``
    stays a mutable dict: it maps a state's index (the numbering of
    ``kernel_of(inst).indexer``) to its entry, and the OPI phases read and
    grow it directly, unchecked.  The store keeps the kernel it was built
    with and numbers and decodes states through it alone, so no use of
    the store builds another kernel.
    ``get``, ``in``, ``store[state] = entry`` and ``items`` (index order,
    which is state order) are the state-level surface; each raises
    ValueError, naming the entry's key and the field, for a state outside
    the instance, and ``store[state] = entry`` also for an entry that
    ``_check_entry`` refuses.

    The reference state starts with the pinned entry (0, 0, 1, 1), as if
    one exact zero observation had been recorded; later trajectories keep
    updating it like any other entry.  Two known biases follow from that
    bookkeeping: observations bootstrap through stop-state estimates that
    may themselves be freshly created, and every observation subtracts
    g_base once per step.  An error eps in g_base therefore shifts h(t) by
    about -eps times the expected number of steps from t to the reference
    along the bootstrap chain.  That shift differs from state to state,
    so it does not cancel when the gate compares the entries of two move
    targets.
    """

    inst: InstanceParameters
    reference: SystemState
    g_base: float
    entries: dict[int, ValueStoreEntry] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not _is_finite(self.g_base):
            raise ValueError(f"g_base: {self.g_base!r} is not a finite number")
        object.__setattr__(self, "_kernel", kernel_of(self.inst))
        self[self.reference] = ValueStoreEntry(h=0.0, ss=0.0, w=1.0, s=1)

    def _index(self, state: SystemState, entry: ValueStoreEntry | None = None) -> int:
        """``state``'s index, after checking it (and ``entry``, when given);
        the ValueError names the entry's key."""
        try:
            validate_state(self.inst, state)
            if entry is not None:
                _check_entry(entry)
        except ValueError as exc:
            raise ValueError(f"store entry {state_key(state)!r}: {exc}") from None
        return self._kernel.indexer.index(state)

    def __contains__(self, state: SystemState) -> bool:
        return self._index(state) in self.entries

    def get(self, state: SystemState) -> ValueStoreEntry | None:
        return self.entries.get(self._index(state))

    def __setitem__(self, state: SystemState, entry: ValueStoreEntry) -> None:
        self.entries[self._index(state, entry)] = entry

    def items(self) -> Iterator[tuple[SystemState, ValueStoreEntry]]:
        state = self._kernel.state
        for x in sorted(self.entries):
            yield state(x), self.entries[x]


def _check_entry(entry: ValueStoreEntry) -> None:
    """Raise ValueError, naming the field, unless ``entry`` holds what a
    store entry may: finite ``h`` and ``ss``, a squared-weight sum ``w``
    in [0, 1] and an observation count ``s`` that is an integer >= 0."""
    for name in ("h", "ss", "w"):
        value = getattr(entry, name)
        if not _is_finite(value):
            raise ValueError(f"{name}: {value!r} is not a finite number")
    if not 0.0 <= entry.w <= 1.0:
        raise ValueError(f"w: {entry.w!r} is not in [0, 1]")
    if not _is_integer(entry.s) or entry.s < 0:
        raise ValueError(f"s: {entry.s!r} is not an integer >= 0")


def _check_store(inst: InstanceParameters, store: ValueStore) -> None:
    if store.inst != inst:
        raise ValueError("value store belongs to another instance")


def state_key(state: SystemState) -> str:
    return f"{state.location}:{','.join(map(str, state.conditions))}"


def parse_state_key(key: str) -> SystemState:
    """The state ``state_key`` writes as ``key``.  Raises ValueError for
    any other text, also for the spellings ``int`` alone would read
    (``'+1:0,0'``, ``' 1:0,0'``, ``'1_0:0,0'``), naming the key: two
    spellings of one state would otherwise load as one store entry, the
    last one winning."""
    loc, _, conds = key.partition(":")
    state = SystemState(int(loc), tuple(int(c) for c in conds.split(",")))
    if state_key(state) != key:
        raise ValueError(f"{key!r} is not a state key: state_key writes {state_key(state)!r}")
    return state


def _fingerprint(inst: InstanceParameters) -> str:
    text = json.dumps(instance_to_dict(inst), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def save_store(store: ValueStore, path) -> None:
    """Write ``store`` as JSON, stamped with its instance's fingerprint."""
    payload = {
        "instance": _fingerprint(store.inst),
        "reference": state_key(store.reference),
        "g_base": store.g_base,
        "entries": {state_key(s): [e.h, e.ss, e.w, e.s] for s, e in store.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_store(path, inst: InstanceParameters) -> ValueStore:
    """Read a store written by ``save_store`` for ``inst``.

    Raises ValueError naming the field (``root``, ``root.instance``,
    ``root.reference``, ``root.g_base``, ``root.entries`` or
    ``root.entries['<key>']``) when the file is not such a store: the
    fingerprint is missing or another instance's, g_base is not a finite
    number, a state key does not parse or lies outside ``inst``, or an
    entry is not a list [h, ss, w, s] that ``_check_entry`` accepts.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"root: expected an object, got {type(payload).__name__}")
    stamp = payload.get("instance")
    if stamp is None:
        raise ValueError("root.instance: missing instance fingerprint")
    if stamp != _fingerprint(inst):
        raise ValueError("root.instance: the store was exported for another instance")
    g_base = payload.get("g_base")
    if not _is_finite(g_base):
        raise ValueError(f"root.g_base: {g_base!r} is not a finite number")
    entries = payload.get("entries")
    if not isinstance(entries, dict):
        raise ValueError(f"root.entries: expected an object, got {type(entries).__name__}")
    reference = payload.get("reference")
    try:
        if not isinstance(reference, str):
            raise ValueError(f"{reference!r} is not a state key")
        store = ValueStore(inst, parse_state_key(reference), g_base)
    except ValueError as exc:
        raise ValueError(f"root.reference: {exc}") from None
    for key, vals in entries.items():
        try:
            if not (isinstance(vals, list) and len(vals) == 4):
                raise ValueError(f"{vals!r} is not a list [h, ss, w, s]")
            store[parse_state_key(key)] = ValueStoreEntry(*vals)
        except ValueError as exc:
            raise ValueError(f"root.entries[{key!r}]: {exc}") from None
    return store


_BUFFER = 8192


def _uniforms(kernel: Kernel, rng: np.random.Generator) -> Iterator[int]:
    """The codes (``Kernel.codes``) of ``rng``'s uniforms one at a time,
    drawn and classified 8192 at a time when the first of each chunk is
    needed, so a phase that takes over a generator reads on where the
    previous phase's last chunk ended."""
    return itertools.chain.from_iterable(
        iter(lambda: kernel.codes(rng.random(_BUFFER)), None)
    )


def _check_base(base: DecisionRule) -> None:
    # A finite-memory rule steps on keys past indexer.count, which would
    # land in the store as states outside the instance.
    if hasattr(base, "decide"):
        raise ValueError(
            "base: a finite-memory rule (one with decide) cannot be OPI's base "
            "policy; it must be a function of the state"
        )


TRAJECTORY_CAP = 50_000_000


def _too_long(store: ValueStore, z: int, cap: int) -> RuntimeError:
    """The error for a rollout from the index ``z`` that reached no stored
    state within ``cap`` steps."""
    return RuntimeError(
        f"trajectory from {store._kernel.state(z)} exceeded {cap} steps without "
        f"reaching a stored state, of {len(store.entries)} in the store: the store "
        "may be too sparse for the walk to reach it; if not, is the base policy "
        f"unichain, and is the reference {store.reference} recurrent under it?"
    )


def _rollout(
    rows: RuleRows, store: ValueStore, uniforms: Iterator[int]
) -> Callable[..., tuple[int, int]]:
    """The function ``rollout(z, p=1)`` that runs one rollout under the
    base policy from the index ``z`` and returns its stop and its steps.
    Each step is driven by one code from ``uniforms`` (see ``_uniforms``):
    it adds the row's offset for that code.

    A rollout runs until hitting a stored state other than ``z`` itself
    (returning to the store's reference state always stops).  It records
    the first ``p`` distinct states it visits, ``z`` first, and each record
    receives a bootstrapped excess-cost observation: the cost from the
    record on, plus the stop's value, minus g_base per step.  Only a chain
    (``p > 1``) records more than its start, so only a chain builds a list
    of records; a ``p = 1`` rollout steps and updates one entry.
    ``online_run`` runs its ``p = 1`` rollouts inline, as a copy of this
    step loop and entry update without the chain's bookkeeping.

    A draw whose offset is 0 (a self-loop) at any state but the reference
    adds the state's cost, counts the step, checks ``TRAJECTORY_CAP`` and
    draws again on the same row.  That skips nothing that could act: the
    state is either the start, which stops the rollout only when it is the
    reference, or a state that failed the stop test when first reached,
    so it is not stored, and the store does not grow during a walk; and
    a state already reached is already recorded or past the record limit.
    """
    table, fill = rows.table, rows.fill
    values = store.entries
    g_base = store.g_base
    reference = rows.kernel.indexer.index(store.reference)
    cap = TRAJECTORY_CAP

    def rollout(z: int, p: int = 1) -> tuple[int, int]:
        total_cost = 0.0
        steps = 0
        current = z
        records, room = (), 0  # a chain's records after its start, room for more
        if p > 1:
            records, room, seen = [], p - 1, {z}
        while True:
            try:
                _, cost, _, offsets = table[current]
            except KeyError:
                _, cost, _, offsets = fill(current)
            total_cost += cost
            steps += 1
            offset = offsets[next(uniforms)]
            # A self-loop anywhere but at the reference cannot stop the
            # rollout or add a record (see the docstring): step on the row
            # in hand.
            while not offset and current != reference:
                if steps >= cap:
                    raise _too_long(store, z, cap)
                total_cost += cost
                steps += 1
                offset = offsets[next(uniforms)]
            stop = current + offset
            if (stop != z or stop == reference) and stop in values:
                break
            current = stop
            if room and stop not in seen:
                seen.add(stop)
                records.append((stop, total_cost, steps))
                room -= 1
            if steps >= cap:
                raise _too_long(store, z, cap)

        # The start first, then the chain's records.  values[stop] is read
        # per record: when the start is also the stop (the reference),
        # later records bootstrap through its freshly updated value.
        x, cost_at, steps_at = z, 0.0, 0
        k = p - 1 - room  # records still to update after this one
        while True:
            entry = values.get(x)
            if entry is None:
                entry = values[x] = ValueStoreEntry()
            entry.s += 1
            alpha = LEARNING_SCALE / (LEARNING_SCALE + entry.s - 1)
            keep = 1.0 - alpha
            observation = (total_cost - cost_at) + values[stop].h - g_base * (steps - steps_at)
            entry.h = keep * entry.h + alpha * observation
            entry.ss = keep * entry.ss + alpha * observation * observation
            # Not keep * keep: at 95 of the first 10^6 counts (the first at
            # s = 702) it differs from keep ** 2 in the last bit.
            entry.w = keep ** 2 * entry.w + alpha * alpha
            if not k:
                return stop, steps
            x, cost_at, steps_at = records[-k]
            k -= 1

    return rollout


@dataclass
class OfflinePreparation:
    g_base: float
    reference: SystemState
    z_core: list[SystemState]
    z_all: list[SystemState]


def offline_preparatory(
    inst: InstanceParameters,
    base: DecisionRule,
    budget: OpiBudget,
    rng: np.random.Generator,
) -> OfflinePreparation:
    """Pick representative states and estimate the base policy's average.

    Per machine, a short run started there identifies the most frequent
    state at that location.  A long run then estimates the average cost
    and crowns the most visited machine's state as the reference.  The
    start set is the core states plus their one-switch and one-repair
    neighbors (``Kernel.local``), which the online part will need
    intervals for; degradation successors are left out, since they occur
    with the same probability under every action.  Raises ValueError for
    a finite-memory ``base``.
    """
    _check_base(base)
    kernel = kernel_of(inst)
    rows = kernel.rows(base)
    table, fill = rows.table, rows.fill
    uniforms = _uniforms(kernel, rng)
    index, block = kernel.indexer.index, kernel.indexer.conditions_per_location
    m = inst.machine_count

    # Each machine's core state, as an index.
    core: list[int] = []
    for i in range(1, m + 1):
        start = state = index(pristine_state(inst, location=i))
        at_i = range((i - 1) * block, i * block)
        counts: dict[int, int] = {}
        for code in itertools.islice(uniforms, budget.r1):
            try:
                _, _, _, offsets = table[state]
            except KeyError:
                _, _, _, offsets = fill(state)
            state += offsets[code]
            if state in at_i:
                counts[state] = counts.get(state, 0) + 1
        if counts:
            # Most frequent; ties go to the smallest index, which is the
            # lexicographically smallest state.
            best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            core.append(best[0])
        else:
            core.append(start)

    state = index(pristine_state(inst, location=1))
    total_cost = 0.0
    # Visits at every node, so the loop tests no location; j_star reads
    # only the machines' counts.
    visits = [0] * inst.layout.node_count
    for code in itertools.islice(uniforms, budget.r2):
        try:
            _, cost, _, offsets = table[state]
        except KeyError:
            _, cost, _, offsets = fill(state)
        total_cost += cost
        state += offsets[code]
        visits[state // block] += 1
    g_base = total_cost / budget.r2
    j_star = max(range(1, m + 1), key=lambda i: (visits[i - 1], -i))
    # The reference, the most visited machine's core state, goes first.
    core.insert(0, core.pop(j_star - 1))

    # The core states' neighbourhoods, in order, each state once.
    members = dict.fromkeys(y for x in core for y in kernel.local(x)[1])
    z_all = {y: kernel.state(y) for y in members}
    z_core = [z_all[x] for x in core]
    return OfflinePreparation(
        g_base=g_base, reference=z_core[0], z_core=z_core, z_all=list(z_all.values())
    )


def offline_main(
    inst: InstanceParameters,
    base: DecisionRule,
    prep: OfflinePreparation,
    budget: OpiBudget,
    rng: np.random.Generator,
) -> ValueStore:
    """Populate the value store from repeated and chained trajectories.

    Each start state gets up to ``r_off`` rollouts within ``tau_max``
    (simulated steps, or seconds in wall-clock mode), at least one, the
    budget checked after each: every state of ``z_all`` repeated,
    recording the start only, then a chain from every core state, each
    rollout starting at the last one's stop and recording five states.
    Raises ValueError naming the field, before any rollout, for a start
    state outside ``inst`` or a finite-memory ``base``.
    """
    _check_base(base)
    for name, states in (("z_all", prep.z_all), ("z_core", prep.z_core)):
        for k, z in enumerate(states):
            try:
                validate_state(inst, z)
            except ValueError as exc:
                raise ValueError(f"prep.{name}[{k}]: {exc}") from None
    store = ValueStore(inst, prep.reference, prep.g_base)
    kernel = kernel_of(inst)
    index = kernel.indexer.index
    rollout = _rollout(kernel.rows(base), store, _uniforms(kernel, rng))
    clock = time.perf_counter if budget.mode == WALL_CLOCK else None
    starts = [(index(z), 1) for z in prep.z_all] + [(index(z), 5) for z in prep.z_core]
    r_off, tau_max = budget.r_off, budget.tau_max
    for z, p in starts:
        started = clock() if clock else 0.0
        total_steps = 0
        for _ in range(r_off):
            stop, steps = rollout(z, p)
            if p > 1:
                z = stop
            total_steps += steps
            used = clock() - started if clock else total_steps
            if used >= tau_max:
                break
    return store


def _intervals(
    entries: Iterable[ValueStoreEntry | None],
) -> list[tuple[float, float]]:
    """Each entry's reliability-weight interval, h +/- 1.96 *
    sqrt(var / (1 - W) * W), in one pass: the interval formula's one home.

    Degenerate statistics (no entry, fewer than two observations, or the
    squared-weight sum at one) give the unbounded interval: no confident
    comparison is possible.  Tiny negative variance from rounding clamps
    to an exact zero-width interval.
    """
    intervals = []
    for entry in entries:
        if entry is None or entry.s < 2 or entry.w >= 1.0 - 1e-12:
            intervals.append(UNBOUNDED)
            continue
        h = entry.h
        variance = entry.ss - h * h
        if variance < 0.0:
            if variance < -1e-9 * max(1.0, abs(entry.ss)):
                intervals.append(UNBOUNDED)
                continue
            variance = 0.0
        half = Z_CRITICAL * math.sqrt(variance / (1.0 - entry.w) * entry.w)
        intervals.append((h - half, h + half))
    return intervals


def confidence_interval(entry: ValueStoreEntry | None) -> tuple[float, float]:
    """``entry``'s interval (see ``_intervals``)."""
    return _intervals((entry,))[0]


def _gate(
    moves: tuple[Move, ...],
    near: tuple[int, ...],
    values: dict[int, ValueStoreEntry],
) -> tuple[int | None, str | None]:
    """At the state x whose ``moves`` and neighborhood ``near`` (x first;
    ``Kernel.local``) are given: ``(action, None)`` for the action
    whose delta beats every rival's for all values inside the confidence
    intervals, or ``(None, cause)`` when no action does:
    ``UNBOUNDED_CAUSE`` when an interval the comparison needs is
    unbounded (a cold or unvisited state), ``OVERLAP_CAUSE`` when all are
    bounded but overlap.

    ``near`` holds each entry the moves read once, so one ``_intervals``
    call reads them all.  It is x, the switches' targets in move order,
    then the repair target when staying repairs; the moves are staying,
    then the switches.  So staying's interval is the last one when it has
    a rate and x's when it idles.

    Action a beats b when the worst case of
    c_a * (h[t_a] - h[x]) - c_b * (h[t_b] - h[x]) is negative.  That is
    closed-form: h[x] enters with coefficient c_b - c_a (which equals
    (-c_a) - (-c_b)) at whichever endpoint maximizes, h[t_a] at its upper
    endpoint and h[t_b] at its lower one, and terms add in the order x,
    t_a, t_b.  An unbounded h[t] of a move with nonzero rate defeats every
    pair it is in, and so does an unbounded h[x] unless every rate is the
    same (then it drops out of every pair); either ends the test at once.
    A single available action wins vacuously.
    """
    if len(moves) < 2:
        return moves[0][0], None
    intervals = _intervals(map(values.get, near))
    lo_x, hi_x = intervals[0]
    if moves[0][1]:
        intervals[0] = intervals.pop()
    bounds = []
    for (a, c, _), (lo, hi) in zip(moves, intervals):
        if c and not -math.inf < lo <= hi < math.inf:
            return None, UNBOUNDED_CAUSE
        bounds.append((a, c, lo, hi))
    if not -math.inf < lo_x <= hi_x < math.inf:
        rate = moves[0][1]
        if any(c != rate for _, c, _ in moves):
            return None, UNBOUNDED_CAUSE
    for a, ca, _, hi_a in bounds:
        for b, cb, lo_b, _ in bounds:
            if b == a:
                continue
            k = cb - ca
            worst = k * hi_x if k > 0.0 else k * lo_x if k < 0.0 else 0.0
            worst += ca * hi_a
            worst -= cb * lo_b
            if not worst < 0.0:
                break
        else:
            return a, None
    return None, OVERLAP_CAUSE


def online_run(
    inst: InstanceParameters,
    base: DecisionRule,
    store: ValueStore,
    budget: OpiBudget,
    rng: np.random.Generator,
    x0: SystemState | None = None,
    crn=None,
) -> SimulationReport:
    """Run the improving policy for r_on steps, refining the store as it goes.

    Each step: pick the confidence-gated action, spend the per-decision
    budget on nested rollouts, then realize the actual transition (from
    the shared random-number list when one is supplied, so runs are
    comparable across policies, else from the rollouts' uniform stream).
    Every draw is a code (``Kernel.codes``), one lookup into the chosen
    action's row.
    The budget is ``delta`` rollouts in step-count mode and ``delta``
    seconds in wall-clock mode, at least one rollout, the budget checked
    after each: one rollout from each state of a hypothetical successor's
    neighborhood, then the next successor's, each successor drawn under
    the chosen action only once the previous neighborhood is used up,
    stopping mid-neighborhood when the budget runs out.  Each rollout is
    ``_rollout``'s ``rollout(z)``, run inline in the decision loop.

    ``safe_by_quarter`` holds the fallback share of each quarter of the
    run, None for a quarter with no steps (r_on < 4).  ``fallback_causes``
    counts the fallbacks by cause: ``unbounded`` when an interval the
    gate needed was unbounded (a cold or unvisited state), ``overlap``
    when all were bounded but overlapped.

    Raises ValueError, before the first decision, for a finite-memory
    ``base``, a CRN list shorter than r_on, or a CRN draw ``crn[i]`` that
    is NaN or outside [0, 1).
    """
    _check_base(base)
    _check_store(inst, store)
    start = store.reference if x0 is None else x0
    validate_state(inst, start)
    kernel = kernel_of(inst)
    rows = kernel.rows(base)
    table, fill = rows.table, rows.fill
    uniforms = _uniforms(kernel, rng)
    values = store.entries
    g_base = store.g_base
    reference = kernel.indexer.index(store.reference)
    cap = TRAJECTORY_CAP
    action_row = kernel.action_row
    # Index -> (moves, neighborhood), filled by Kernel.local on a miss.
    locals_get, local = kernel.locals.get, kernel.local
    # A decision's budget is delta rollouts in step-count mode and delta
    # seconds on the clock in wall-clock mode, where the count never binds.
    delta = budget.delta
    clock = time.perf_counter if budget.mode == WALL_CLOCK else None
    count = math.inf if clock else int(delta)

    state = kernel.indexer.index(start)
    total_cost = 0.0
    total_reward = 0.0
    safe_by_quarter = [0, 0, 0, 0]
    causes = {UNBOUNDED_CAUSE: 0, OVERLAP_CAUSE: 0}
    quarter = max(1, budget.r_on // 4)
    visits = [0] * inst.layout.node_count
    realized = uniforms if crn is None else iter(crn_codes(kernel, crn, budget.r_on))

    for step_index in range(budget.r_on):
        moves, near = locals_get(state) or local(state)
        action, cause = _gate(moves, near, values)
        if action is None:
            try:
                location, cost, reward, offsets = table[state]
            except KeyError:
                location, cost, reward, offsets = fill(state)
            safe_by_quarter[min(step_index // quarter, 3)] += 1
            causes[cause] += 1
        else:
            location, cost, reward, offsets = action_row(state, action)
        visits[location] += 1
        total_cost += cost
        total_reward += reward

        deadline = clock() + delta if clock else None
        done = 0
        while True:
            successor = state + offsets[next(uniforms)]
            for z in (locals_get(successor) or local(successor))[1]:
                # _rollout's rollout(z), inline: step to a stored state,
                # then update z's entry.
                walk_cost = 0.0
                steps = 0
                current = z
                while True:
                    try:
                        _, step_cost, _, row = table[current]
                    except KeyError:
                        _, step_cost, _, row = fill(current)
                    walk_cost += step_cost
                    steps += 1
                    offset = row[next(uniforms)]
                    while not offset and current != reference:
                        if steps >= cap:
                            raise _too_long(store, z, cap)
                        walk_cost += step_cost
                        steps += 1
                        offset = row[next(uniforms)]
                    stop = current + offset
                    if (stop != z or stop == reference) and stop in values:
                        break
                    current = stop
                    if steps >= cap:
                        raise _too_long(store, z, cap)
                entry = values.get(z)
                if entry is None:
                    entry = values[z] = ValueStoreEntry()
                entry.s += 1
                alpha = LEARNING_SCALE / (LEARNING_SCALE + entry.s - 1)
                keep = 1.0 - alpha
                observation = walk_cost + values[stop].h - g_base * steps
                entry.h = keep * entry.h + alpha * observation
                entry.ss = keep * entry.ss + alpha * observation * observation
                entry.w = keep ** 2 * entry.w + alpha * alpha

                done += 1
                if done >= count or clock and clock() >= deadline:
                    break
            else:
                # The budget outlasted this hypothetical successor's
                # neighborhood: draw the next successor.
                continue
            break

        state += offsets[next(realized)]

    report = SimulationReport(
        average_cost=total_cost / budget.r_on,
        average_reward=total_reward / budget.r_on,
        steps=budget.r_on,
        visit_counts=tuple(visits),
        safe_action_fraction=sum(safe_by_quarter) / budget.r_on,
    )
    sizes = [min(quarter, max(0, budget.r_on - k * quarter)) for k in range(3)]
    sizes.append(max(0, budget.r_on - 3 * quarter))
    report.metadata["safe_by_quarter"] = [
        c / n if n else None for c, n in zip(safe_by_quarter, sizes)
    ]
    report.metadata["fallback_causes"] = causes
    return report


@dataclass
class OpiResult:
    report: SimulationReport
    store: ValueStore
    # None when the store was imported: no offline phase ran.
    preparation: OfflinePreparation | None


def run_opi(
    inst: InstanceParameters,
    base: DecisionRule,
    budget: OpiBudget,
    offline_rng: np.random.Generator,
    online_rng: np.random.Generator,
    x0: SystemState | None = None,
    crn=None,
    store: ValueStore | None = None,
) -> OpiResult:
    """Offline preparation and estimation followed by the online run.

    An imported ``store`` skips both offline phases: ``offline_rng`` is
    not read and ``preparation`` is None.  An ``x0`` or ``crn`` list that
    ``online_run`` would refuse is refused before the offline phases
    spend their budget.
    """
    # Before the offline phases, not after them; offline_preparatory
    # checks the base before it draws.
    if crn is not None:
        crn_codes(kernel_of(inst), crn, budget.r_on)
    if x0 is not None:
        validate_state(inst, x0)
    prep = None
    if store is None:
        prep = offline_preparatory(inst, base, budget, offline_rng)
        store = offline_main(inst, base, prep, budget, offline_rng)
    report = online_run(inst, base, store, budget, online_rng, x0=x0, crn=crn)
    return OpiResult(report=report, store=store, preparation=prep)
