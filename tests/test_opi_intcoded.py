"""The int-coded OPI path against its references.

Successor rows are checked against the tuple-level step and cost oracles,
the closed-form confidence gate against a vertex-enumeration oracle, and
a fixed-seed offline-plus-online run against digests pinned from the
state-tuple implementation the int-coded path replaced.
"""

import copy
import hashlib
import itertools
import json
import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from conftest import (
    EventKind,
    action_events,
    improving_action,
    neighborhood,
    oracle_neighborhood,
    reference_online_run,
    reference_rollout,
    rng,
    sample_trajectory,
    step_cost,
    step_probabilities,
    step_reward,
    tight,
    uniform_step,
    with_level_change,
    with_location,
)
from repairnet.dp import DpModel, StationaryPolicy, evaluate_policy
from repairnet.index_policy import ModifiedIndexPolicy
from repairnet.instance import CostKind, CostModel, InstanceParameters, generate_instance
from repairnet.mdp import (
    Kernel,
    StateIndexer,
    SystemState,
    actions_of,
    pristine_state,
)
from repairnet import opi
from repairnet.network import build_lattice_layout
from repairnet.opi import (
    STEP_COUNT,
    OfflinePreparation,
    OpiBudget,
    ValueStore,
    ValueStoreEntry,
    confidence_interval,
    offline_main,
    offline_preparatory,
    online_run,
    save_store,
    state_key,
)


@st.composite
def instances_and_states(draw):
    inst = generate_instance(
        draw(st.integers(0, 10_000)), m=draw(st.integers(2, 4)), cap=draw(st.integers(1, 3))
    )
    location = draw(st.integers(1, inst.layout.node_count))
    conditions = tuple(draw(st.integers(0, k)) for k in inst.cap)
    return inst, SystemState(location, conditions)


@settings(max_examples=150, deadline=None)
@given(instances_and_states(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_row_matches_kernel_step_and_cost(case, draws):
    inst, state = case
    kernel = Kernel(inst)
    indexer = StateIndexer(inst)
    x = indexer.index(state)
    for action in actions_of(inst, state):
        location, cost, reward, offsets = kernel.action_row(x, action)
        assert (location, cost) == (state.location - 1, step_cost(inst, state))
        assert reward == step_reward(inst, state, action)
        assert len(offsets) == len(kernel.grid) + 1
        # Every grid edge and the float just below it, plus random draws.
        edges = [v for t in kernel.grid.tolist() for v in (t, math.nextafter(t, 0.0))]
        for u in edges + draws + [0.0]:
            if u >= 1.0:
                continue
            moved = x + offsets[kernel.codes([u])[0]]
            assert moved == indexer.index(uniform_step(inst, state, action, u))


@settings(max_examples=150, deadline=None)
@given(instances_and_states())
def test_moves_and_neighborhood_match_the_oracle(case):
    inst, state = case
    kernel = Kernel(inst)
    index = kernel.indexer.index
    x = index(state)
    expected = [(a, rate, index(s)) for a, rate, s in action_events(inst, state)]
    assert list(kernel.moves(x)) == expected
    assert kernel.moves(x) is kernel.moves(x)
    assert neighborhood(inst, state) == oracle_neighborhood(inst, state)
    assert kernel.neighborhood(x) is kernel.neighborhood(x)
    assert list(kernel.neighborhood(x)) == [index(s) for s in oracle_neighborhood(inst, state)]


def test_rows_share_interned_tuples():
    inst = generate_instance(3, m=3, cap=2)
    kernel = Kernel(inst)
    index = kernel.indexer.index
    a = kernel.action_row(index(SystemState(1, (1, 0, 0))), 1)
    b = kernel.action_row(index(SystemState(1, (1, 1, 1))), 1)
    assert len(a) == 4 and a[3] is b[3]
    # Every location's state of one condition vector holds one levels tuple.
    levels = (1, 1, 1)
    here = kernel.state(index(SystemState(2, levels)))
    there = kernel.state(index(SystemState(25, levels)))
    assert here.conditions is there.conditions == levels


def vertex_oracle(inst, state, store, base_action):
    """Pairwise domination by enumerating every vertex of the intervals."""
    members = oracle_neighborhood(inst, state)
    intervals = {s: confidence_interval(store.get(s)) for s in members}
    i = state.location

    def form(action):  # the action's delta as {state: coefficient}
        if action != i:
            return {with_location(state, action): inst.tau, state: -inst.tau}
        if inst.layout.is_machine(i) and state.conditions[i - 1] >= 1:
            mu = inst.mu[i - 1]
            return {with_level_change(state, i, -1): mu, state: -mu}
        return {}

    def dominates(a, b):
        fa, fb = form(a), form(b)
        net = {s: fa.get(s, 0.0) - fb.get(s, 0.0) for s in members}
        needed = [s for s in members if net[s] != 0.0]
        if any(math.isinf(intervals[s][0]) for s in needed):
            return False
        worst = max(
            sum(net[s] * v for s, v in zip(needed, corner))
            for corner in itertools.product(*(intervals[s] for s in needed))
        )
        return worst < 0.0

    actions = actions_of(inst, state)
    for a in actions:
        if all(dominates(a, b) for b in actions if b != a):
            return a, False
    return base_action, True


def random_gate_cases(count):
    generator = rng(606)
    inst = generate_instance(12, m=4, cap=2)
    for _ in range(count):
        location = int(generator.integers(1, inst.layout.node_count + 1))
        conditions = tuple(int(generator.integers(0, k + 1)) for k in inst.cap)
        state = SystemState(location, conditions)
        store = ValueStore(inst, pristine_state(inst), 0.0)
        for s in oracle_neighborhood(inst, state):
            if generator.random() < 0.1:
                continue  # leave an unbounded interval now and then
            h = float(generator.normal(0.0, 5.0))
            store[s] = tight(h, float(generator.uniform(0.01, 2.0)))
        yield inst, state, store


def edge_gate_cases():
    # One node, one machine: staying (a repair) is the only action, so it
    # wins vacuously although its target, the reference, is unbounded.
    lone = InstanceParameters(
        layout=build_lattice_layout(1, [(1, 1)]),
        lam=(0.2,),
        mu=(1.0,),
        tau=1.0,
        cap=(2,),
        cost=CostModel(kind=CostKind.LINEAR, c=(1.0,)),
    )
    yield lone, SystemState(1, (1,)), ValueStore(lone, pristine_state(lone), 0.0)
    # mu_i == tau at a damaged machine: every action has the same rate, so
    # h[x] drops out of every pair and the gate decides whether or not x
    # itself is stored.
    inst = generate_instance(12, m=4, cap=2)
    inst = replace(inst, mu=(inst.tau,) * inst.machine_count)
    state = SystemState(1, (1, 0, 2, 1))
    for x_stored in (False, True):
        store = ValueStore(inst, pristine_state(inst), 0.0)
        for k, s in enumerate(oracle_neighborhood(inst, state)):
            if x_stored or s != state:
                store[s] = tight(float(k), 0.1)
        yield inst, state, store


def test_closed_form_gate_matches_vertex_oracle():
    checked = confident = 0
    for inst, state, store in random_gate_cases(300):
        base = actions_of(inst, state)[0]
        got = improving_action(inst, state, store, base)
        assert got == vertex_oracle(inst, state, store, base)
        checked += 1
        confident += not got[1]
    assert checked == 300 and 0 < confident < checked
    edges = list(edge_gate_cases())
    for inst, state, store in edges:
        base = actions_of(inst, state)[0]
        got = improving_action(inst, state, store, base)
        assert got == vertex_oracle(inst, state, store, base)
        assert got[1] is False
    assert len(edges) == 3


def gate_on_exact_values(seed):
    """The gate's action at every state of ``seed``'s instance, from a store
    holding the base's exact relative values (ModifiedIndexPolicy) as
    zero-width entries, with the base action wherever it falls back;
    ``DpModel.improve``'s action; and each state's move Q values in rate
    units, rate * (v[target] - v[x])."""
    inst = generate_instance(seed)
    model = DpModel(inst)
    base = StationaryPolicy.from_rule(inst, ModifiedIndexPolicy(inst))
    v = evaluate_policy(inst, base, tol=1e-12, model=model).v
    store = ValueStore(inst, pristine_state(inst), 0.0)
    states = list(model.indexer.states())
    for x, state in enumerate(states):
        store[state] = tight(float(v[x]), 0.0)
    gated = [improving_action(inst, state, store, base.actions[x])[0]
             for x, state in enumerate(states)]
    kernel = Kernel(inst)
    q = [{a: c * (v[t] - v[x]) for a, c, t in kernel.moves(x)} for x in range(model.n)]
    return gated, model.improve(v, base).actions, q


@pytest.mark.parametrize("seed, states", [(20014, 100), (20018, 400), (20028, 100)])
def test_gate_on_exact_values_takes_the_exact_rollout_action(seed, states):
    # The gate and DpModel.improve are two encodings of one improvement
    # step: fed exact values at zero width, they choose alike.
    gated, improved, q = gate_on_exact_values(seed)
    assert len(q) == states
    assert gated == list(improved)


def test_gate_on_exact_values_departs_from_the_rollout_only_at_near_ties():
    # The two sum the Q terms in different orders, so on 20001 they part at
    # 8 of 2,025 states, each a tie to within 8e-14 in rate units.
    gated, improved, q = gate_on_exact_values(20001)
    differ = [x for x, (a, b) in enumerate(zip(gated, improved)) if a != b]
    assert 0 < len(differ) <= 8
    for x in differ:
        assert abs(q[x][gated[x]] - q[x][improved[x]]) <= 1e-12


def run_digest(inst, budget, seed, use_crn):
    base = ModifiedIndexPolicy(inst)
    offline_rng = rng(seed)
    prep = offline_preparatory(inst, base, budget, offline_rng)
    store = offline_main(inst, base, prep, budget, offline_rng)
    crn = rng(seed + 2).random(budget.r_on) if use_crn else None
    report = online_run(inst, base, store, budget, rng(seed + 1), x0=pristine_state(inst), crn=crn)
    payload = {
        "g_base": prep.g_base,
        "reference": state_key(prep.reference),
        "z_all": [state_key(z) for z in prep.z_all],
        "report": [
            report.average_cost,
            report.average_reward,
            report.steps,
            list(report.visit_counts),
            report.safe_action_fraction,
            report.metadata["safe_by_quarter"],
        ],
        "entries": [
            [state_key(s), e.h, e.ss, e.w, e.s] for s, e in store.items()
        ],
    }
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    causes = report.metadata["fallback_causes"]
    assert sum(causes.values()) == round(report.safe_action_fraction * report.steps)
    return digest, report.safe_action_fraction


GOLDEN_BUDGET = OpiBudget(
    r1=500, r2=20_000, r_off=400, tau_max=1e9, r_on=4_000, delta=8, mode=STEP_COUNT
)


def test_golden_run_two_machines():
    inst = generate_instance(5, m=2, cap=2)
    digest, safe = run_digest(inst, GOLDEN_BUDGET, 11, use_crn=False)
    assert 0.0 < safe < 1.0
    assert digest == "a14b2871d9d42ec6b4998b14569ba8c94da0aeac9abcc8601ed5a94fc4511082"


def test_golden_run_four_machines_with_crn():
    inst = generate_instance(12, m=4, cap=2)
    digest, safe = run_digest(inst, GOLDEN_BUDGET, 11, use_crn=True)
    assert 0.0 < safe < 1.0
    assert digest == "c61bbba0f7d739f54c9dd027f42de1a2565c7d32b0d5d6c6e7205313ac33ae51"


def next_draws(generator):
    return copy.deepcopy(generator).random(4).tolist()


@pytest.mark.parametrize("r1, r2", [(50, 500), (3_000, 2_192), (3_000, 2_193), (4_000, 9_000)])
def test_offline_phases_read_one_stream_in_chunks(r1, r2):
    # offline_preparatory takes one uniform per step, m * r1 + r2 of them,
    # and draws 8192 at a time, each chunk when its first uniform is
    # needed; offline_main then reads on from the same generator.
    inst = generate_instance(5, m=2, cap=2)
    base = ModifiedIndexPolicy(inst)
    budget = OpiBudget(r1=r1, r2=r2, r_off=20, tau_max=1e9, r_on=1, delta=1, mode=STEP_COUNT)
    generator = rng(7)
    prep = offline_preparatory(inst, base, budget, generator)
    used = inst.machine_count * r1 + r2
    fresh = rng(7)
    fresh.random(math.ceil(used / 8192) * 8192)
    assert next_draws(generator) == next_draws(fresh)
    store = offline_main(inst, base, prep, budget, generator)
    again = offline_main(inst, base, prep, budget, fresh)
    assert store.entries == again.entries


def oracle_draws(seed):
    """The uniforms of ``rng(seed)`` one at a time, in the library's 8192-draw chunks."""
    generator = rng(seed)
    return itertools.chain.from_iterable(iter(lambda: generator.random(8192).tolist(), None))


def self_loop_seed(inst, rule, state):
    """The first generator seed whose first uniform self-loops at ``state``."""
    action = rule(state)
    return next(
        seed for seed in itertools.count()
        if uniform_step(inst, state, action, rng(seed).random()) == state
    )


def self_loop_chance(inst, rule, state):
    return sum(
        p for event, p in step_probabilities(inst, state, rule(state))
        if event.kind is EventKind.SELF_LOOP
    )


def store_values(store):
    return {state: (e.h, e.ss, e.w, e.s) for state, e in store.items()}


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_rollouts_match_the_tuple_level_reference_draw_for_draw(seed, walk_seed, draw_seed):
    # Stored states come from a walk under the base policy after a
    # burn-in, so the rollouts reach them.  The reference and one other
    # stored state are the walk's two states most likely to self-loop, and
    # each is started on draws whose first one self-loops: at the
    # reference that ends the rollout after one step; anywhere else the
    # rollout goes on until it leaves.
    inst = generate_instance(seed, m=2, cap=2)
    base = ModifiedIndexPolicy(inst)
    state, walk = pristine_state(inst), []
    for k, u in enumerate(rng(walk_seed).random(600)):
        state = uniform_step(inst, state, base(state), u)
        if k >= 500 and state not in walk:
            walk.append(state)
    chance = {x: self_loop_chance(inst, base, x) for x in walk}
    assume(sum(p >= 0.01 for p in chance.values()) >= 2)
    reference, looping = sorted(walk, key=lambda x: (-chance[x], x))[:2]
    g_base = 0.37
    store = ValueStore(inst, reference, g_base)
    for k, x in enumerate([looping] + walk[:5]):
        if x != reference:
            store[x] = ValueStoreEntry(h=0.5 * k - 1.0, ss=0.3 * k * k + 1.0, w=0.25, s=k + 2)
    entries = store_values(store)

    runs = {}
    for name, z, draws in [
        ("reference", reference, self_loop_seed(inst, base, reference)),
        ("looping", looping, self_loop_seed(inst, base, looping)),
        ("last", walk[-1], draw_seed),
    ]:
        for p in (1, 5):
            stop, used = runs[name, p] = sample_trajectory(inst, base, store, z, p, rng(draws))
            expected = reference_rollout(
                inst, base, entries, reference, g_base, z, p, oracle_draws(draws)
            )
            assert (stop, used) == (expected[0], float(expected[1]))
            assert store_values(store) == entries
    for p in (1, 5):
        assert runs["reference", p] == (reference, 1.0)
        stop, used = runs["looping", p]
        assert stop != looping and used >= 2.0

    # One offline_main call: every start rolls out up to r_off times
    # within tau_max steps, a chain from each core state.
    prep = OfflinePreparation(
        g_base=g_base, reference=reference, z_core=walk[:2], z_all=walk[::-1][:4]
    )
    budget = OpiBudget(r1=1, r2=1, r_off=3, tau_max=40, r_on=1, delta=1, mode=STEP_COUNT)
    store = offline_main(inst, base, prep, budget, rng(draw_seed))
    entries = {reference: (0.0, 0.0, 1.0, 1)}
    draws = oracle_draws(draw_seed)
    for z, p in [(x, 1) for x in prep.z_all] + [(x, 5) for x in prep.z_core]:
        used = 0
        for _ in range(budget.r_off):
            stop, steps = reference_rollout(inst, base, entries, reference, g_base, z, p, draws)
            if p > 1:
                z = stop
            used += steps
            if used >= budget.tau_max:
                break
    assert store_values(store) == entries


def warm_store(inst, base, seed):
    """A store from both offline phases at small budgets, on ``rng(seed)``."""
    budget = OpiBudget(r1=1_000, r2=5_000, r_off=8, tau_max=1e9, r_on=1, delta=1, mode=STEP_COUNT)
    generator = rng(seed)
    prep = offline_preparatory(inst, base, budget, generator)
    return offline_main(inst, base, prep, budget, generator)


def outcome(run, *args, **kwargs):
    """``run``'s report as JSON, or the message of the RuntimeError it raised."""
    try:
        return run(*args, **kwargs).to_json()
    except RuntimeError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(
    instances_and_states(),
    st.integers(1, 8),
    st.integers(1, 120),
    st.booleans(),
    st.integers(0, 10_000),
)
def test_online_rollouts_match_one_rollout_call_per_start(case, delta, r_on, use_crn, seed):
    # online_run runs its nested rollouts inline; the reference calls
    # _rollout's rollout(z) once per start.  Both start from equal stores
    # and equal generators, so the reports (or the TRAJECTORY_CAP errors)
    # and the final stores match exactly, with the CRN list's realized
    # draws and without.  The lowered cap keeps a walk that never reaches
    # the store short; a store whose offline phases hit it is rejected.
    inst, x0 = case
    base = ModifiedIndexPolicy(inst)
    budget = OpiBudget(
        r1=1, r2=1, r_off=1, tau_max=1.0, r_on=r_on, delta=delta, mode=STEP_COUNT
    )
    crn = rng(seed + 2).random(r_on) if use_crn else None
    with mock.patch.object(opi, "TRAJECTORY_CAP", 100_000):
        try:
            store = warm_store(inst, base, seed)
        except RuntimeError:
            reject()
        expected_store = warm_store(inst, base, seed)
        assert store.entries == expected_store.entries
        report = outcome(online_run, inst, base, store, budget, rng(seed + 1), x0=x0, crn=crn)
        expected = outcome(
            reference_online_run, inst, base, expected_store, budget, rng(seed + 1), x0, crn
        )
    assert report == expected
    assert store.entries == expected_store.entries


def test_online_run_draws_nothing_it_does_not_use():
    # With a CRN list online_run takes uniforms only for its nested
    # rollouts, and a chunk only when its first uniform is needed: 20
    # decisions of one short rollout each read one chunk and leave the
    # generator where that chunk ended.  No output depends on it, since
    # online_run's results come only from the uniforms it reads and every
    # caller gives it a generator of its own.
    inst = generate_instance(5, m=2, cap=2)
    base = ModifiedIndexPolicy(inst)
    budget = OpiBudget(r1=50, r2=500, r_off=5, tau_max=1e9, r_on=20, delta=1, mode=STEP_COUNT)
    prep = offline_preparatory(inst, base, budget, rng(1))
    store = offline_main(inst, base, prep, budget, rng(2))
    before = sum(entry.s for entry in store.entries.values())
    generator = rng(3)
    online_run(inst, base, store, budget, generator, crn=rng(4).random(20))
    assert sum(entry.s for entry in store.entries.values()) == before + 20
    fresh = rng(3)
    fresh.random(8192)
    assert next_draws(generator) == next_draws(fresh)


def test_safe_by_quarter_reports_empty_quarters_as_none():
    inst = generate_instance(23, m=2, cap=1)
    base = ModifiedIndexPolicy(inst)
    for r_on, empty in ((1, 3), (2, 2), (3, 1), (4, 0), (7, 0)):
        budget = OpiBudget(
            r1=50, r2=500, r_off=5, tau_max=1e9, r_on=r_on, delta=1, mode=STEP_COUNT
        )
        prep = offline_preparatory(inst, base, budget, rng(1))
        store = offline_main(inst, base, prep, budget, rng(2))
        report = online_run(inst, base, store, budget, rng(3), x0=pristine_state(inst))
        quarters = report.metadata["safe_by_quarter"]
        assert quarters[4 - empty:] == [None] * empty
        assert all(q is not None and 0.0 <= q <= 1.0 for q in quarters[: 4 - empty])
        # The per-quarter shares add back up to the run's fallback count.
        quarter = max(1, r_on // 4)
        sizes = [quarter] * 3 + [r_on - 3 * quarter]
        fallbacks = sum(q * n for q, n in zip(quarters, sizes) if q is not None)
        assert round(fallbacks) == round(report.safe_action_fraction * r_on)


def test_cold_store_fallback_is_counted_as_unbounded():
    # The gate runs before the decision's nested rollouts, so with only
    # the reference stored the one decision finds its targets unvisited.
    inst = generate_instance(5, m=2, cap=2)
    base = ModifiedIndexPolicy(inst)
    budget = OpiBudget(r1=50, r2=500, r_off=5, tau_max=1e9, r_on=1, delta=8, mode=STEP_COUNT)
    prep = offline_preparatory(inst, base, budget, rng(1))
    store = ValueStore(inst, prep.reference, prep.g_base)
    report = online_run(inst, base, store, budget, rng(3))
    assert report.safe_action_fraction == 1.0
    assert report.metadata["fallback_causes"] == {"unbounded": 1, "overlap": 0}
    assert len(store.entries) > 1  # the rollouts did run, after the gate


def test_step_count_delta_counts_whole_trajectories(tmp_path):
    # Step-count mode runs delta nested trajectories per decision, so the
    # integral float 2.0 repeats the delta=2 run byte for byte and 3.0 does
    # not; a fraction such as 2.5, which would be cut to 2, is refused.
    inst = generate_instance(5, m=2, cap=2)
    base = ModifiedIndexPolicy(inst)
    with pytest.raises(ValueError, match=r"^delta: 2.5 is not a whole number"):
        OpiBudget(delta=2.5, mode=STEP_COUNT)
    outputs = []
    for delta in (2, 2.0, 3.0):
        budget = OpiBudget(
            r1=200, r2=5_000, r_off=100, tau_max=1e9, r_on=1_000, delta=delta, mode=STEP_COUNT
        )
        prep = offline_preparatory(inst, base, budget, rng(1))
        store = offline_main(inst, base, prep, budget, rng(2))
        report = online_run(inst, base, store, budget, rng(3), x0=pristine_state(inst))
        path = tmp_path / f"store-{delta}.json"
        save_store(store, path)
        outputs.append((report.to_json(), path.read_bytes()))
    assert outputs[1] == outputs[0]
    assert outputs[2] != outputs[0]
