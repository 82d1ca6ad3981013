import json
import math
import re
import time
from dataclasses import FrozenInstanceError, replace

import pytest

from conftest import (
    all_failed_state,
    homogeneous_star_instance,
    improving_action,
    neighborhood,
    reference_online_run,
    rng,
    sample_trajectory,
    with_level_change,
    with_location,
)
from repairnet.dp import StationaryPolicy, evaluate_policy
from repairnet.index_policy import ModifiedIndexPolicy
from repairnet.instance import generate_instance
from repairnet.mdp import SystemState, kernel_of, pristine_state
from repairnet.polling import PollingPolicy, best_tour
from repairnet.opi import (
    STEP_COUNT,
    WALL_CLOCK,
    OfflinePreparation,
    OpiBudget,
    ValueStore,
    ValueStoreEntry,
    confidence_interval,
    desk_scale_budget,
    load_store,
    offline_main,
    offline_preparatory,
    online_run,
    run_opi,
    save_store,
    state_key,
)

LEARNING_SCALE = 10.0


def apply_updates(observations):
    """Reference path: feed observations through the store recursions."""
    entry = ValueStoreEntry()
    for obs in observations:
        entry.s += 1
        alpha = LEARNING_SCALE / (LEARNING_SCALE + entry.s - 1)
        entry.h = (1 - alpha) * entry.h + alpha * obs
        entry.ss = (1 - alpha) * entry.ss + alpha * obs * obs
        entry.w = (1 - alpha) ** 2 * entry.w + alpha * alpha
    return entry


def explicit_weights(count):
    """Oracle: unrolled weights w(r) = alpha_r * prod_{j>r} (1 - alpha_j)."""
    alphas = [LEARNING_SCALE / (LEARNING_SCALE + s - 1) for s in range(1, count + 1)]
    weights = []
    for r in range(count):
        w = alphas[r]
        for j in range(r + 1, count):
            w *= 1 - alphas[j]
        weights.append(w)
    return weights


def test_first_update_collapses_to_observation():
    entry = apply_updates([7.5])
    assert entry.h == 7.5
    assert entry.ss == 7.5**2
    assert entry.w == 1.0
    assert entry.s == 1


def test_second_update_weighting():
    entry = apply_updates([3.0, 14.0])
    alpha = 10 / 11
    assert entry.h == pytest.approx((1 - alpha) * 3.0 + alpha * 14.0)
    weights = explicit_weights(2)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert entry.h == pytest.approx(weights[0] * 3.0 + weights[1] * 14.0)


def test_weight_bookkeeping_matches_explicit_oracle():
    generator = rng(88)
    for _ in range(100):
        count = int(generator.integers(1, 60))
        observations = generator.normal(0.0, 5.0, size=count).tolist()
        entry = apply_updates(observations)
        weights = explicit_weights(count)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert sum(w * w for w in weights) == pytest.approx(entry.w, abs=1e-12)
        mean = sum(w * o for w, o in zip(weights, observations))
        second = sum(w * o * o for w, o in zip(weights, observations))
        assert entry.h == pytest.approx(mean, abs=1e-10)
        assert entry.ss == pytest.approx(second, abs=1e-10)


def test_confidence_interval_against_weighted_variance_oracle():
    generator = rng(99)
    for _ in range(100):
        count = int(generator.integers(2, 50))
        observations = generator.normal(1.0, 3.0, size=count).tolist()
        entry = apply_updates(observations)
        lo, hi = confidence_interval(entry)
        weights = explicit_weights(count)
        mean = sum(w * o for w, o in zip(weights, observations))
        var = sum(w * (o - mean) ** 2 for w, o in zip(weights, observations))
        w2 = sum(w * w for w in weights)
        half = 1.96 * math.sqrt(var / (1 - w2) * w2)
        assert (lo + hi) / 2 == pytest.approx(entry.h, abs=1e-10)
        assert hi - lo == pytest.approx(2 * half, abs=1e-8)


def test_confidence_interval_degenerate_cases():
    assert confidence_interval(None) == (-math.inf, math.inf)
    assert confidence_interval(apply_updates([4.0])) == (-math.inf, math.inf)
    lo, hi = confidence_interval(apply_updates([5.0] * 12))
    assert lo == pytest.approx(5.0, abs=1e-6)
    assert hi == pytest.approx(5.0, abs=1e-6)
    assert hi - lo <= 1e-6
    # Interval for two spread observations is finite and straddles them.
    lo, hi = confidence_interval(apply_updates([0.0, 10.0]))
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo < hi


def make_store(inst, reference, g_base=0.0):
    return ValueStore(inst, reference, g_base)


def fast_switch_instance():
    # Complete graph with fast switching: every pristine-at-machine state
    # recurs quickly under the base policy, so handcrafted references are
    # reachable within a short trajectory.
    from conftest import homogeneous_complete_instance

    return homogeneous_complete_instance(2, lam=0.1, mu=0.8, f1=1.0, tau=2.0)


def test_sample_trajectory_runs_at_least_one_step():
    inst = fast_switch_instance()
    u0 = pristine_state(inst)
    store = make_store(inst, u0)
    other = with_location(u0, 2)
    store[other] = ValueStoreEntry(h=3.0, ss=9.0, w=1.0, s=1)
    # Starting from a state already stored: the stopping test runs only
    # after the first transition, so at least one step always elapses.
    stop, elapsed = sample_trajectory(
        inst, ModifiedIndexPolicy(inst), store, other, p=1, generator=rng(0)
    )
    assert elapsed >= 1
    assert stop in store


def test_sample_trajectory_stop_state_membership():
    inst = fast_switch_instance()
    u0 = pristine_state(inst)
    store = make_store(inst, u0)
    for seed in range(5):
        stop, elapsed = sample_trajectory(
            inst, ModifiedIndexPolicy(inst), store, u0, p=5, generator=rng(seed)
        )
        assert stop in store
        assert elapsed >= 1


def test_sample_trajectory_updates_first_p_states():
    inst = fast_switch_instance()
    u0 = pristine_state(inst)
    store = make_store(inst, u0)
    sample_trajectory(inst, ModifiedIndexPolicy(inst), store, u0, p=3, generator=rng(1))
    # The start state itself is always among the updated records.
    assert store.get(u0).s >= 2  # pinned initial observation plus one
    assert len(store.entries) >= 2


def test_chained_records_bootstrap_through_the_updated_reference():
    # A p=5 rollout from the reference, with nothing else stored, stops
    # back at the reference.  The start's record is updated first, so every
    # later record bootstraps through the reference's new h, not the
    # pinned 0.
    inst = fast_switch_instance()
    base = ModifiedIndexPolicy(inst)
    reference = SystemState(1, (1, 1))
    store = make_store(inst, reference)
    seed = 4  # a 250-step rollout through four other states
    stop, steps = sample_trajectory(inst, base, store, reference, p=5, generator=rng(seed))
    assert stop == reference

    # Replay the rollout on the same draws: the cost accrued before each of
    # the first four distinct states after the start (g_base is 0).
    kernel = kernel_of(inst)
    draws = iter(kernel.codes(rng(seed).random(8192)))
    x = ref = kernel.indexer.index(reference)
    total, count, records = 0.0, 0, {}
    while True:
        _, cost, _, offsets = kernel.action_row(x, base(kernel.state(x)))
        total += cost
        count += 1
        x += offsets[next(draws)]
        if x == ref:
            break
        if len(records) < 4 and kernel.state(x) not in records:
            records[kernel.state(x)] = total
    assert count == steps and len(records) >= 2

    alpha = LEARNING_SCALE / (LEARNING_SCALE + 1)
    h_reference = alpha * total  # (1 - alpha) * 0 + alpha * (total - 0 * count)
    assert store.get(reference).h == pytest.approx(h_reference, rel=1e-12)
    assert h_reference > 0.1
    assert {state for state, _ in store.items()} == {reference, *records}
    for state, cost_at in records.items():
        # A new entry's first observation is its value.
        expected = (total - cost_at) + h_reference
        assert store.get(state).h == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "name, value",
    [("inst", generate_instance(20028)), ("reference", SystemState(2, (0, 0))), ("g_base", 0.5)],
)
def test_store_identity_is_fixed_at_construction(name, value):
    # A store's instance, reference and g_base are checked when it is
    # built.  Reassigning inst used to get another instance's store past
    # online_run's check: it ran on 20028 with 20014's values.
    inst = generate_instance(20014)
    store = ValueStore(inst, pristine_state(inst), 0.25)
    with pytest.raises(FrozenInstanceError):
        setattr(store, name, value)
    assert (store.inst, store.reference, store.g_base) == (inst, pristine_state(inst), 0.25)
    # The phases still grow the entries.
    budget = OpiBudget(r1=10, r2=10, r_off=5, tau_max=1e9, r_on=50, delta=2, mode=STEP_COUNT)
    online_run(inst, ModifiedIndexPolicy(inst), store, budget, rng(5))
    assert len(store.entries) > 1


@pytest.mark.parametrize(
    "g_base", [math.nan, math.inf, -math.inf, True, "0.5", None],
    ids=["nan", "inf", "-inf", "bool", "str", "None"],
)
def test_store_refuses_a_g_base_that_is_not_a_finite_number(g_base):
    # With g_base = nan on 20014, online_run returned a plausible g = 0.2226
    # while every decision fell back as unbounded.
    inst = generate_instance(20014)
    with pytest.raises(ValueError, match=rf"^g_base: {re.escape(repr(g_base))} is not a finite"):
        ValueStore(inst, pristine_state(inst), g_base)


@pytest.mark.parametrize(
    "entry, field",
    [
        (ValueStoreEntry(h=math.nan, ss=1.0, w=0.5, s=3), "h: nan is not a finite number"),
        (ValueStoreEntry(h=0.5, ss=math.inf, w=0.5, s=3), "ss: inf is not a finite number"),
        (ValueStoreEntry(h=0.5, ss=1.0, w=True, s=3), "w: True is not a finite number"),
        (ValueStoreEntry(h=0.5, ss=1.0, w=-0.5, s=3), "w: -0.5 is not in [0, 1]"),
        (ValueStoreEntry(h=0.5, ss=1.0, w=1.5, s=3), "w: 1.5 is not in [0, 1]"),
        (ValueStoreEntry(h=0.5, ss=1.0, w=0.5, s=-1), "s: -1 is not an integer >= 0"),
        (ValueStoreEntry(h=0.5, ss=1.0, w=0.5, s=2.0), "s: 2.0 is not an integer >= 0"),
        (ValueStoreEntry(h=0.5, ss=1.0, w=0.5, s=False), "s: False is not an integer >= 0"),
    ],
    ids=["h-nan", "ss-inf", "w-bool", "w-negative", "w-above-one", "s-negative", "s-float",
         "s-bool"],
)
def test_store_refuses_an_entry_that_cannot_be_right(entry, field):
    inst = generate_instance(20014)
    store = ValueStore(inst, pristine_state(inst), 0.25)
    with pytest.raises(ValueError) as exc:
        store[SystemState(2, (1, 0))] = entry
    assert str(exc.value) == f"store entry '2:1,0': {field}"
    assert len(store.entries) == 1
    # Fresh entries and the bounds themselves are accepted.
    for ok in (ValueStoreEntry(), ValueStoreEntry(h=-2, ss=4, w=1, s=1)):
        store[SystemState(2, (1, 0))] = ok


def test_store_numbers_states_through_the_kernel_it_was_built_with(monkeypatch):
    # The store indexed states with a StateIndexer of its own and decoded
    # them through kernel_of(inst), so items() on a store whose kernel had
    # left kernel_of's one slot built a new Kernel.
    from repairnet import mdp

    inst = generate_instance(5, m=2, cap=2)
    store = ValueStore(inst, pristine_state(inst), 0.25)
    kernel_of(generate_instance(6, m=2, cap=2))

    def no_new_kernel(self, inst):
        raise AssertionError("a Kernel was built")

    monkeypatch.setattr(mdp.Kernel, "__init__", no_new_kernel)
    state = SystemState(2, (1, 0))
    store[state] = ValueStoreEntry(h=1.5, ss=3.0, w=0.5, s=2)
    assert state in store
    assert store.get(state).h == 1.5
    assert [x for x, _ in store.items()] == [pristine_state(inst), state]


def never_leaves(state):
    # Stay put: the location never changes.
    return state.location


def test_trajectory_cap_names_the_start_state(monkeypatch):
    import repairnet.opi as opi_module

    monkeypatch.setattr(opi_module, "TRAJECTORY_CAP", 200)
    inst = generate_instance(12, m=2, cap=1)
    reference = pristine_state(inst, location=2)
    start = SystemState(1, (1, 0))
    message = re.escape(f"trajectory from {start} exceeded 200 steps") + ".*unichain"
    store = make_store(inst, reference)
    with pytest.raises(RuntimeError, match=message) as exc:
        sample_trajectory(inst, never_leaves, store, start, 1, rng(0))
    assert f"of {len(store.entries)} in the store: the store may be too sparse" in str(exc.value)
    prep = OfflinePreparation(g_base=0.0, reference=reference, z_core=[reference], z_all=[start])
    budget = OpiBudget(r1=10, r2=10, r_off=5, tau_max=1e9, r_on=10, delta=1, mode=STEP_COUNT)
    with pytest.raises(RuntimeError, match=message) as exc:
        offline_main(inst, never_leaves, prep, budget, rng(0))
    # The fresh store holds only its reference when the first rollout stalls.
    assert "of 1 in the store" in str(exc.value)


def test_trajectory_cap_ends_a_run_of_self_loops(monkeypatch):
    # Idling at a node without a machine, with every machine failed, every
    # draw self-loops, so the rollout never leaves its start; the cap
    # still ends it, with the same message.
    import repairnet.opi as opi_module

    monkeypatch.setattr(opi_module, "TRAJECTORY_CAP", 200)
    inst = generate_instance(12, m=2, cap=1)
    start = all_failed_state(inst, location=inst.layout.node_count)
    assert not inst.layout.is_machine(start.location)
    message = re.escape(f"trajectory from {start} exceeded 200 steps") + ".*unichain"
    store = make_store(inst, pristine_state(inst))
    with pytest.raises(RuntimeError, match=message) as exc:
        sample_trajectory(inst, never_leaves, store, start, 1, rng(0))
    assert f"of {len(store.entries)} in the store" in str(exc.value)


@pytest.mark.parametrize("walk", ["leaves-the-start", "self-loops-at-the-start"])
def test_online_trajectory_cap_names_the_start_state(monkeypatch, walk):
    # The online loop runs its rollouts inline, not through _rollout, and
    # raises the same error at each of its two cap checks: a walk that
    # wanders at location 1, where the reference is not, and one that
    # only self-loops at a node without a machine.
    import repairnet.opi as opi_module

    monkeypatch.setattr(opi_module, "TRAJECTORY_CAP", 200)
    inst = generate_instance(12, m=2, cap=1)
    reference = pristine_state(inst, location=2)
    if walk == "leaves-the-start":
        x0 = SystemState(1, (1, 0))
    else:
        x0 = all_failed_state(inst, location=inst.layout.node_count)
    budget = OpiBudget(r1=10, r2=10, r_off=5, tau_max=1e9, r_on=10, delta=4, mode=STEP_COUNT)
    messages = []
    for run in (online_run, reference_online_run):
        with pytest.raises(RuntimeError, match=r"exceeded 200 steps.*unichain") as exc:
            run(inst, never_leaves, make_store(inst, reference), budget, rng(3), x0=x0)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    start = re.match(r"trajectory from (.*) exceeded 200 steps", messages[0]).group(1)
    assert start.startswith("SystemState(location=1," if walk == "leaves-the-start" else str(x0))
    assert "of 1 in the store" in messages[0]


def test_offline_preparatory_core_sets():
    inst = generate_instance(12, m=3, cap=2)
    budget = OpiBudget(r1=400, r2=4_000, r_off=10, tau_max=1e9, r_on=10, delta=1, mode=STEP_COUNT)
    prep = offline_preparatory(inst, ModifiedIndexPolicy(inst), budget, rng(7))
    assert len(prep.z_core) == inst.machine_count
    assert prep.reference == prep.z_core[0]
    # Core states sit at their machine locations (reference moved to front).
    locations = sorted(z.location for z in prep.z_core)
    assert locations == [1, 2, 3]
    for z in prep.z_core:
        assert z in prep.z_all
        for j in inst.layout.neighbors(z.location):
            assert with_location(z, j) in prep.z_all
        if z.conditions[z.location - 1] >= 1:
            assert with_level_change(z, z.location, -1) in prep.z_all


def test_offline_preparatory_deterministic():
    inst = generate_instance(12, m=3, cap=2)
    budget = OpiBudget(r1=300, r2=2_000, r_off=10, tau_max=1e9, r_on=10, delta=1, mode=STEP_COUNT)
    a = offline_preparatory(inst, ModifiedIndexPolicy(inst), budget, rng(7))
    b = offline_preparatory(inst, ModifiedIndexPolicy(inst), budget, rng(7))
    assert a.g_base == b.g_base
    assert a.reference == b.reference
    assert a.z_all == b.z_all


def test_offline_main_budget_semantics():
    inst = generate_instance(12, m=2, cap=1)
    base = ModifiedIndexPolicy(inst)
    budget = OpiBudget(r1=300, r2=3_000, r_off=25, tau_max=1e12, r_on=10, delta=1, mode=STEP_COUNT)
    prep = offline_preparatory(inst, base, budget, rng(3))
    store = offline_main(inst, base, prep, budget, rng(4))
    assert prep.reference in store
    # Stage 1 alone gives every start state r_off observations.
    for z in prep.z_all:
        assert store.get(z).s >= budget.r_off


def gauge_ci_hits(inst, store, min_count=50):
    """Compare store estimates against DP relative values.

    Both sides are relative value functions, defined only up to an
    additive constant: the estimates carry a common bootstrap drift (any
    g_base error compounds through the bootstrapped observations), so the
    comparison fixes the gauge by the precision-weighted mean offset and
    then checks each state's own 95 percent interval.
    """
    from repairnet.index_policy import ModifiedIndexPolicy as _Base
    from repairnet.mdp import StateIndexer

    policy = StationaryPolicy.from_rule(inst, _Base(inst))
    evaluation = evaluate_policy(
        inst, policy, reference=store.reference, tol=1e-10, span_target=1e-9
    )
    indexer = StateIndexer(inst)
    offsets = []
    for state, entry in store.items():
        if entry.s < min_count:
            continue
        lo, hi = confidence_interval(entry)
        half = max((hi - lo) / 2, 1e-9)
        if not math.isfinite(half):
            continue
        offsets.append((entry.h - evaluation.v[indexer.index(state)], half))
    if not offsets:
        return 0, 0
    weight_total = sum(1 / half**2 for _, half in offsets)
    center = sum(offset / half**2 for offset, half in offsets) / weight_total
    within = sum(1 for offset, half in offsets if abs(offset - center) <= half + 1e-9)
    return len(offsets), within


def test_offline_estimates_match_dp_relative_values():
    inst = homogeneous_star_instance(3, 1, 0.08, 0.4, 1.0, 0.3)
    base = ModifiedIndexPolicy(inst)
    budget = OpiBudget(
        r1=2_000, r2=400_000, r_off=1_000, tau_max=1e12, r_on=10, delta=1, mode=STEP_COUNT
    )
    prep = offline_preparatory(inst, base, budget, rng(21))
    store = offline_main(inst, base, prep, budget, rng(22))
    checked, within = gauge_ci_hits(inst, store)
    assert checked >= 5
    assert within / checked >= 0.9


def test_neighborhood_contents():
    inst = generate_instance(10, m=2, cap=2)
    state = SystemState(1, (1, 2))
    members = neighborhood(inst, state)
    assert members[0] == state
    assert with_level_change(state, 1, -1) in members
    for j in inst.layout.neighbors(1):
        assert with_location(state, j) in members
    # Pristine machine location: no repair member.
    state2 = SystemState(1, (0, 2))
    assert with_level_change(state2, 1, -1) not in neighborhood(inst, state2)


def tight(h, width=0.0):
    # Entry whose interval is [h - width, h + width]; reverse-engineer ss.
    entry = ValueStoreEntry(h=h, ss=h * h, w=0.5, s=10)
    if width:
        # half = 1.96*sqrt(var/(1-w)*w) with w = 0.5 -> var = (width/1.96)^2
        entry.ss = h * h + (width / 1.96) ** 2
    return entry


def test_improving_action_stage_separation():
    inst = homogeneous_star_instance(3, 2, 0.05, 0.5, 1.0, 0.4)
    # Intermediate stage adjacent to machine 1 and the center (id 5... layout:
    # machines 1..3, center 4, spokes 5..7 with 5 next to machine 1).
    stage = 5
    state = SystemState(stage, (1, 0, 0))
    u0 = pristine_state(inst)
    store = make_store(inst, u0)
    neighbors = inst.layout.neighbors(stage)
    a1, a2 = neighbors[0], neighbors[1]
    store[state] = tight(10.0, 0.1)
    store[with_location(state, a1)] = tight(1.0, 0.1)
    store[with_location(state, a2)] = tight(5.0, 0.1)
    action, safe = improving_action(inst, state, store, base_action=a2)
    assert action == a1
    assert safe is False


def test_improving_action_cold_store_falls_back():
    inst = generate_instance(14, m=2, cap=1)
    state = SystemState(1, (1, 1))
    store = make_store(inst, pristine_state(inst))
    base = ModifiedIndexPolicy(inst)(state)
    action, safe = improving_action(inst, state, store, base_action=base)
    assert action == base
    assert safe is True


def _interval_of(entry):
    return confidence_interval(entry)


def test_repair_versus_switch_matches_paper_inequality():
    # Exhaustive vertex check of the pairwise comparison at a machine.
    # On a two-node complete graph the whole action set is {repair, switch},
    # so domination over the rival is exactly the returned decision.
    from conftest import homogeneous_complete_instance

    generator = rng(404)
    for tau in (0.3, 1.7):  # below and above the repair rate
        inst = homogeneous_complete_instance(2, lam=0.2, mu=0.9, f1=1.0, tau=tau)
        mu = inst.mu[0]
        state = SystemState(1, (1, 0))
        repaired = with_level_change(state, 1, -1)
        switched = with_location(state, 2)
        for _ in range(200):
            entries = {}
            for s in (state, repaired, switched):
                h = float(generator.normal(0, 4))
                width = float(generator.uniform(0.01, 3.0))
                entries[s] = tight(h, width)
            store = make_store(inst, pristine_state(inst))
            for s, entry in entries.items():
                store[s] = entry
            action, safe = improving_action(inst, state, store, base_action=2)

            iv = {s: _interval_of(e) for s, e in entries.items()}
            # Paper rule: repair beats switching to j iff
            # mu*h+(x^{i-}) - tau*h-(x^{->j}) + (tau-mu)*h?(x) < 0,
            # with h?(x) at the upper end when tau >= mu, else the lower end.
            x_end = iv[state][1] if tau >= mu else iv[state][0]
            repair_beats_switch = (
                mu * iv[repaired][1] - tau * iv[switched][0] + (tau - mu) * x_end < 0
            )
            # Vertex-enumeration oracle over the three intervals.
            worst = -math.inf
            for hx in iv[state]:
                for hr in iv[repaired]:
                    for hs in iv[switched]:
                        worst = max(worst, mu * (hr - hx) - tau * (hs - hx))
            assert repair_beats_switch == (worst < 0)
            if repair_beats_switch:
                assert (action, safe) == (1, False)
            else:
                # Repair cannot be chosen confidently; either the switch
                # dominates or the base action is used as the fallback.
                assert action == 2


def test_improving_action_translation_invariant():
    inst = generate_instance(19, m=2, cap=2)
    generator = rng(55)
    state = SystemState(1, (2, 1))
    members = neighborhood(inst, state)
    for _ in range(50):
        store = make_store(inst, pristine_state(inst))
        shifted = make_store(inst, pristine_state(inst))
        offset = float(generator.normal(0, 10))
        for s in members:
            if generator.random() < 0.2:
                continue  # leave some entries missing
            h = float(generator.normal(0, 5))
            width = float(generator.uniform(0.0, 2.0))
            store[s] = tight(h, width)
            shifted[s] = tight(h + offset, width)
        base = 1
        assert improving_action(inst, state, store, base) == improving_action(
            inst, state, shifted, base
        )


def test_online_run_reproducible_and_reports():
    inst = generate_instance(23, m=2, cap=1)
    base = ModifiedIndexPolicy(inst)
    budget = OpiBudget(
        r1=200, r2=2_000, r_off=50, tau_max=1e12, r_on=2_000, delta=2, mode=STEP_COUNT
    )

    def one_run():
        prep = offline_preparatory(inst, base, budget, rng(1))
        store = offline_main(inst, base, prep, budget, rng(2))
        report = online_run(inst, base, store, budget, rng(3), x0=pristine_state(inst))
        return report, store

    r1, s1 = one_run()
    r2, s2 = one_run()
    assert r1.average_cost == r2.average_cost
    assert r1.average_reward == r2.average_reward
    assert r1.safe_action_fraction == r2.safe_action_fraction
    assert {state_key(k): (e.h, e.ss, e.w, e.s) for k, e in s1.items()} == {
        state_key(k): (e.h, e.ss, e.w, e.s) for k, e in s2.items()
    }
    assert 0.0 <= r1.safe_action_fraction <= 1.0
    assert "safe_by_quarter" in r1.metadata


def test_safe_fraction_declines_with_experience():
    # With a deliberately thin offline store, early decisions mostly fall
    # back to the base policy; as online estimates accumulate, intervals
    # narrow and the fallback rate drops between the first and last
    # quarter of the run.
    inst = generate_instance(47, m=2, cap=2)
    base = ModifiedIndexPolicy(inst)
    budget = OpiBudget(
        r1=500, r2=20_000, r_off=30, tau_max=1e12, r_on=40_000, delta=2, mode=STEP_COUNT
    )
    prep = offline_preparatory(inst, base, budget, rng(70))
    store = offline_main(inst, base, prep, budget, rng(71))
    report = online_run(inst, base, store, budget, rng(72), x0=pristine_state(inst))
    quarters = report.metadata["safe_by_quarter"]
    assert quarters[0] > quarters[3]


def test_wall_clock_mode_smoke():
    # Wall-clock budgets are inherently nonreproducible; just exercise the
    # timing path end to end with tiny limits.
    inst = generate_instance(51, m=2, cap=1)
    base = ModifiedIndexPolicy(inst)
    budget = OpiBudget(
        r1=200, r2=2_000, r_off=10_000, tau_max=0.05, r_on=50, delta=0.002, mode="wall_clock"
    )
    result = run_opi(
        inst, base, budget, offline_rng=rng(1), online_rng=rng(2), x0=pristine_state(inst)
    )
    assert result.report.steps == 50
    assert 0.0 <= result.report.safe_action_fraction <= 1.0


def test_wall_clock_budgets_count_clock_reads(monkeypatch):
    # A clock that advances one second per read makes wall-clock mode
    # deterministic: a budget of n seconds buys n rollouts, since the clock
    # is read once when the budget starts and once after each rollout.
    # Each p = 1 rollout adds one observation, so the growth of the
    # entries' s counts is the number of rollouts.
    reads = iter(range(1_000_000))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(reads)))
    inst = generate_instance(5, m=2, cap=2)
    base = ModifiedIndexPolicy(inst)
    budget = OpiBudget(
        r1=50, r2=500, r_off=1_000, tau_max=4, r_on=10, delta=3, mode=WALL_CLOCK
    )
    prep = replace(offline_preparatory(inst, base, budget, rng(1)), z_core=[])

    def observations():
        return sum(entry.s for entry in store.entries.values())

    store = offline_main(inst, base, prep, budget, rng(2))
    assert observations() == 1 + 4 * len(prep.z_all) == 25
    online_run(inst, base, store, budget, rng(3))
    assert observations() == 25 + 3 * budget.r_on


def test_budget_validation():
    with pytest.raises(ValueError):
        OpiBudget(r_on=0)
    with pytest.raises(ValueError):
        OpiBudget(delta=0)
    with pytest.raises(ValueError):
        OpiBudget(mode="bogus")
    # Counts are ints: a float used to fail later, inside the offline
    # phase, and True ran as a count of 1.
    for name, value in [("r1", 2000.0), ("r2", 1.5), ("r_off", True), ("r_on", 500.0)]:
        with pytest.raises(ValueError, match=rf"^{name}: {value!r} is not a positive count"):
            OpiBudget(**{name: value})
    # A bool is not a number, though True compares as 1.
    with pytest.raises(ValueError, match=r"^delta: True is not a positive finite number$"):
        OpiBudget(delta=True)
    with pytest.raises(ValueError, match=r"^tau_max: True is not a positive number$"):
        OpiBudget(tau_max=True)
    # In step-count mode delta counts rollouts a decision, so it must be
    # whole: 0.5 would run none and 2.5 would be cut to 2.  An integral
    # float is a whole number.
    for delta in (0.5, 2.5, 0.999):
        with pytest.raises(ValueError, match=rf"^delta: {delta!r} is not a whole number"):
            OpiBudget(delta=delta, mode=STEP_COUNT)
    assert OpiBudget(delta=4.0, mode=STEP_COUNT).delta == 4
    assert OpiBudget(delta=0.5).delta == 0.5  # seconds in wall-clock mode
    # r_off still ends each start state's rollouts.
    assert OpiBudget(tau_max=math.inf).tau_max == math.inf


@pytest.mark.parametrize("tau_max", ["5", None, math.nan, -math.inf, 0, -1.0])
def test_budget_refuses_a_tau_max_that_is_not_a_positive_number(tau_max):
    # "5" and None used to raise a bare TypeError from the comparison.
    message = rf"^tau_max: {re.escape(repr(tau_max))} is not a positive number$"
    with pytest.raises(ValueError, match=message):
        OpiBudget(tau_max=tau_max)


@pytest.mark.parametrize("name, value", [("r1", 2000.0), ("delta", -1.0), ("mode", "bogus")])
def test_budget_fields_cannot_be_assigned(name, value):
    # An assignment would skip the checks made when the budget is built.
    budget = desk_scale_budget()
    with pytest.raises(AttributeError):
        setattr(budget, name, value)
    assert budget == desk_scale_budget()


def test_store_round_trip(tmp_path):
    inst = generate_instance(29, m=2, cap=1)
    base = ModifiedIndexPolicy(inst)
    budget = replace(desk_scale_budget(), r1=100, r2=1_000, r_off=20, tau_max=1e12, r_on=10)
    prep = offline_preparatory(inst, base, budget, rng(5))
    store = offline_main(inst, base, prep, budget, rng(6))
    path = tmp_path / "store.json"
    save_store(store, path)
    loaded = load_store(path, inst)
    assert loaded.reference == store.reference
    assert loaded.g_base == store.g_base
    assert loaded.entries == store.entries
    # Index order is state order, so the file lists its keys sorted by state.
    states = [state for state, _ in loaded.items()]
    assert states == sorted(states) and len(states) == len(store.entries)
    with pytest.raises(ValueError, match="root.instance: the store was exported for another"):
        load_store(path, generate_instance(30, m=2, cap=1))


DELETE = object()


@pytest.mark.parametrize(
    "path, value, field",
    [
        ((), [], "root: "),
        (("instance",), DELETE, "root.instance: "),
        (("entries",), DELETE, "root.entries: "),
        (("entries",), [[0.0, 0.0, 1.0, 1]], "root.entries: "),
        (("reference",), DELETE, "root.reference: "),
        (("reference",), "x:0", "root.reference: "),
        (("reference",), "0:0,0", "root.reference: store entry '0:0,0': state.location"),
        (("g_base",), DELETE, "root.g_base: "),
        (("g_base",), "nan", "root.g_base: "),
        (("g_base",), math.nan, "root.g_base: "),
        (("g_base",), True, "root.g_base: "),
        (("entries", "x:0,0"), [0.0, 0.0, 1.0, 1], "root.entries['x:0,0']: "),
        (("entries", "1:0,5"), [0.0, 0.0, 1.0, 1],
         "root.entries['1:0,5']: store entry '1:0,5': state.conditions[1]"),
        (("entries", "2:1,0"), [1.0], "root.entries['2:1,0']: "),
        (("entries", "2:1,0"), [0.5, 1.0, 0.25, 4, 0], "root.entries['2:1,0']: "),
        (("entries", "2:1,0"), {"h": 0.5}, "root.entries['2:1,0']: "),
        (("entries", "2:1,0", 0), "a", "root.entries['2:1,0']: "),
        (("entries", "2:1,0", 1), math.inf, "root.entries['2:1,0']: "),
        (("entries", "2:1,0", 2), None, "root.entries['2:1,0']: "),
        (("entries", "2:1,0", 3), -1, "root.entries['2:1,0']: "),
        (("entries", "2:1,0", 3), 2.5, "root.entries['2:1,0']: "),
        # Used to load, then kill `opi --import-store` in confidence_interval
        # with a bare "math domain error".
        (("entries", "2:1,0", 2), -0.5, "root.entries['2:1,0']: store entry '2:1,0': w: "),
    ],
)
def test_load_store_names_the_malformed_field(tmp_path, path, value, field):
    inst = generate_instance(29, m=2, cap=1)
    store = ValueStore(inst, pristine_state(inst), 1.5)
    store[SystemState(2, (1, 0))] = ValueStoreEntry(h=0.5, ss=1.0, w=0.25, s=4)
    file = tmp_path / "store.json"
    save_store(store, file)
    payload = json.loads(file.read_text())
    if path:
        *parents, last = path
        node = payload
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    else:
        payload = value
    file.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_store(file, inst)
    assert str(exc.value).startswith(field)


def test_phases_refuse_a_finite_memory_base():
    # A finite-memory rule steps on keys past indexer.count, which would
    # land in the store as states outside the instance.
    inst = generate_instance(5, m=2, cap=2)
    base = PollingPolicy(inst, best_tour(inst.layout, (1, 2)))
    budget = OpiBudget(r1=50, r2=500, r_off=5, tau_max=500, r_on=20, delta=2, mode=STEP_COUNT)
    prep = offline_preparatory(inst, ModifiedIndexPolicy(inst), budget, rng(1))
    store = make_store(inst, prep.reference)
    generator = rng(2)
    calls = [
        lambda: offline_preparatory(inst, base, budget, generator),
        lambda: offline_main(inst, base, prep, budget, generator),
        lambda: online_run(inst, base, store, budget, generator),
        lambda: run_opi(inst, base, budget, generator, generator),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^base: a finite-memory rule"):
            call()
    # Refused before any draw or rollout.
    assert generator.random() == rng(2).random()
    assert list(store.entries) == [kernel_of(inst).indexer.index(prep.reference)]


@pytest.mark.parametrize("bad", [math.nan, 1.5, -0.1, 1.0])
def test_online_run_rejects_a_crn_draw_outside_the_unit_interval(bad):
    inst = generate_instance(33, m=2, cap=1)
    budget = OpiBudget(r1=200, r2=2_000, r_off=50, tau_max=1e12, r_on=50, delta=1, mode=STEP_COUNT)
    base = ModifiedIndexPolicy(inst)
    prep = offline_preparatory(inst, base, budget, rng(9))
    store = offline_main(inst, base, prep, budget, rng(9))
    before = {x: (e.h, e.s) for x, e in store.entries.items()}
    crn = rng(8).random(50)
    crn[17] = bad
    with pytest.raises(ValueError, match=r"^crn\[17\]: .* is not a uniform draw in \[0, 1\)"):
        online_run(inst, base, store, budget, rng(10), crn=crn)
    # Refused before the first decision's rollouts.
    assert {x: (e.h, e.s) for x, e in store.entries.items()} == before


@pytest.mark.parametrize(
    "crn, message",
    [([math.nan] * 50, r"^crn\[0\]: nan is not a uniform draw"),
     ([0.5] * 49, r"^crn: a list of 49 draws is shorter than 50 steps")],
)
def test_run_opi_checks_the_crn_list_before_the_offline_phases(crn, message):
    inst = generate_instance(33, m=2, cap=1)
    budget = OpiBudget(r1=200, r2=2_000, r_off=50, tau_max=1e12, r_on=50, delta=1, mode=STEP_COUNT)
    base = ModifiedIndexPolicy(inst)
    decided = []

    def rule(state):
        decided.append(state)
        return base(state)

    with pytest.raises(ValueError, match=message):
        run_opi(inst, rule, budget, rng(9), rng(10), crn=crn)
    assert decided == []  # refused before the offline phases stepped the base


def test_run_opi_smoke_with_crn():
    inst = generate_instance(33, m=2, cap=1)
    budget = OpiBudget(r1=200, r2=2_000, r_off=50, tau_max=1e12, r_on=500, delta=1, mode=STEP_COUNT)
    crn = rng(8).random(500)
    result = run_opi(
        inst,
        ModifiedIndexPolicy(inst),
        budget,
        offline_rng=rng(9),
        online_rng=rng(10),
        x0=pristine_state(inst),
        crn=crn,
    )
    assert result.report.steps == 500
    assert result.store.reference in result.store


def test_run_opi_with_an_imported_store_skips_the_offline_phases(tmp_path):
    inst = generate_instance(33, m=2, cap=1)
    budget = OpiBudget(r1=200, r2=2_000, r_off=50, tau_max=1e12, r_on=500, delta=1, mode=STEP_COUNT)
    base = ModifiedIndexPolicy(inst)
    path = tmp_path / "store.json"
    save_store(run_opi(inst, base, budget, rng(9), rng(10)).store, path)
    crn = rng(8).random(500)
    offline = rng(11)
    result = run_opi(inst, base, budget, offline, rng(10), crn=crn, store=load_store(path, inst))
    assert result.preparation is None
    assert offline.random() == rng(11).random()  # the offline generator is untouched
    replay = load_store(path, inst)
    assert result.report == online_run(inst, base, replay, budget, rng(10), crn=crn)
    assert result.store.entries == replay.entries
