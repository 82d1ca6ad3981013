"""Index score tables, the one kernel per instance that ``simulate`` and
the OPI phases share, and the checks at the entry points that take a state
or a value store from a caller."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    homogeneous_star_instance,
    move_index,
    rng,
    sample_trajectory,
    wait_index,
)
from repairnet.cli import main
from repairnet.dp import StationaryPolicy
from repairnet.index_policy import (
    IndexPolicy,
    ModifiedIndexPolicy,
    _IndexCalculator,
    _calculator,
    index_table,
)
from repairnet.instance import generate_instance, save_instance
from repairnet.mdp import Kernel, SystemState, kernel_of, pristine_state, simulate
from repairnet.opi import (
    STEP_COUNT,
    OpiBudget,
    ValueStore,
    ValueStoreEntry,
    offline_main,
    offline_preparatory,
    online_run,
    run_opi,
)
from repairnet.polling import best_polling_report
from test_simulate_intcoded import bad_states

SMALL_BUDGET = OpiBudget(
    r1=200, r2=2_000, r_off=20, tau_max=1e9, r_on=300, delta=2, mode=STEP_COUNT
)

# sha256 of the JSON action tables, pinned before move and wait were memoized.
ACTION_TABLE_DIGESTS = {
    20001: "ffcfaa87b4a20bf91958000788ece100f21f8b3d1328fc10e765572931950611",
    20003: "0c78efbe2d245411d05fed58ec2408af95dea6fec7bceb7153e00d77b975de60",
    20009: "eeda12c0e108b45ea1163b7997cf0a6794ee62ad43390f2588eed98907c4533f",
}


@pytest.mark.parametrize("policy", [IndexPolicy, ModifiedIndexPolicy])
@pytest.mark.parametrize("seed", sorted(ACTION_TABLE_DIGESTS))
def test_index_action_tables_match_golden_digests(seed, policy):
    inst = generate_instance(seed)
    actions = StationaryPolicy.from_rule(inst, policy(inst)).actions
    assert hashlib.sha256(json.dumps(actions).encode()).hexdigest() == ACTION_TABLE_DIGESTS[seed]


def closed_form_move(calc, d, machine, level):
    stats = calc.repair_stats(machine)
    total = 0.0
    for k, p, travel in calc.arrival(d, machine, level).outcomes():
        reward = stats.expected_reward[k]
        if reward > 0.0 and p > 0.0:
            total += p * reward / (travel + stats.expected_time[k])
    return total


def closed_form_wait(calc, d, machine, level):
    inst = calc.inst
    stats = calc.repair_stats(machine)
    cap = inst.cap[machine - 1]
    extra = 1.0 / inst.lam[machine - 1]
    total = 0.0
    for k, p, travel in calc.arrival(d, machine, level).outcomes():
        target = min(k + 1, cap)
        reward = stats.expected_reward[target]
        if reward > 0.0 and p > 0.0:
            total += p * reward / (extra + travel + stats.expected_time[target])
    return total


@st.composite
def score_cases(draw):
    inst = generate_instance(
        draw(st.integers(0, 10_000)), m=draw(st.integers(2, 5)), cap=draw(st.integers(1, 4))
    )
    machine = draw(st.sampled_from(inst.layout.machines))
    source = draw(
        st.integers(1, inst.layout.node_count).filter(lambda node: node != machine)
    )
    level = draw(st.integers(0, inst.cap[machine - 1]))
    return inst, source, machine, level


@settings(max_examples=80, deadline=None)
@given(score_cases())
def test_score_tables_equal_the_closed_form(case):
    inst, source, machine, level = case
    d = inst.layout.dist(source, machine)
    calc = _IndexCalculator(inst)
    move = closed_form_move(calc, d, machine, level)
    wait = closed_form_wait(calc, d, machine, level)
    table = calc.tables[source - 1]
    assert [entry[0] for entry in table] == [j for j in inst.layout.machines if j != source]
    (entry,) = [entry for entry in table if entry[0] == machine]
    assert entry[1] == d
    assert (entry[2][level], entry[3][level]) == (move, wait)
    assert move_index(inst, source, machine, level) == move
    assert wait_index(inst, source, machine, level) == wait


def test_simulate_polling_and_opi_share_one_kernel_with_exact_rows():
    # A rule's rows live in its own table only: simulate, the polling
    # subsets and both offline phases file nothing in action_rows, which
    # keeps the pairs asked for by (x, action), such as the online gate's.
    inst = generate_instance(20001)
    crn = rng(3).random(3_000)
    x0 = pristine_state(inst)
    kernel = kernel_of(inst)
    simulate(inst, IndexPolicy(inst), x0, 3_000, crn=crn)
    best_polling_report(inst, 3_000, crn, x0=x0)
    base = ModifiedIndexPolicy(inst)
    prep = offline_preparatory(inst, base, SMALL_BUDGET, rng(4))
    store = offline_main(inst, base, prep, SMALL_BUDGET, rng(4))
    assert kernel.action_rows == {}
    online_run(inst, base, store, SMALL_BUDGET, rng(5), crn=crn)
    assert kernel_of(inst) is kernel
    rows = kernel.rows(base).table
    assert len(rows) > 100
    fresh = Kernel(inst)
    for x, row in rows.items():
        state = kernel.state(x)
        assert fresh.indexer.index(state) == x
        assert row == fresh.action_row(x, base(state))
    for (x, action), row in kernel.action_rows.items():
        assert row == fresh.action_row(x, action)


def test_kernel_of_keeps_one_instance():
    first, second = generate_instance(4, m=2, cap=2), generate_instance(6, m=3, cap=1)
    kernel = kernel_of(first)
    assert kernel_of(first) is kernel and kernel.inst is first
    other = kernel_of(second)
    assert other is not kernel and other.inst is second
    assert kernel_of.cache_info().currsize == 1
    assert kernel_of(first) is not kernel


def test_index_calculator_keeps_one_instance():
    first, second = generate_instance(4, m=2, cap=2), generate_instance(6, m=3, cap=1)
    calc = _calculator(first)
    assert _calculator(first) is calc and calc.inst is first
    other = _calculator(second)
    assert other is not calc and other.inst is second
    assert _calculator.cache_info().currsize == 1
    assert _calculator(first) is not calc


def teleporting_star():
    """A 3-machine radius-1 star whose base rule sends machine 1 straight to
    machine 2, which is not adjacent to it."""
    inst = homogeneous_star_instance(3, 1, lam=0.04, mu=0.12, f1=1.0, tau=0.024)
    base = ModifiedIndexPolicy(inst)

    def rule(state):
        return 2 if state.location == 1 else base(state)

    return inst, rule


def test_base_rows_reject_unavailable_actions():
    inst, rule = teleporting_star()
    with pytest.raises(ValueError, match="not available"):
        offline_preparatory(inst, rule, SMALL_BUDGET, rng(0))
    store = ValueStore(inst, pristine_state(inst, location=2), 1.0)
    with pytest.raises(ValueError, match="not available"):
        sample_trajectory(inst, rule, store, pristine_state(inst, location=1), 1, rng(0))


def test_stores_with_keys_outside_the_instance_are_rejected():
    # A level above its machine's cap: the mixed-radix index of (1, (0, 5))
    # would alias a valid state's, so every state-level access refuses it.
    inst = generate_instance(5, m=2, cap=2)
    aliasing = SystemState(1, (0, 5))
    field = r"store entry '1:0,5': state.conditions\[1\]"
    store = ValueStore(inst, pristine_state(inst), 1.0)
    with pytest.raises(ValueError, match=field):
        store[aliasing] = ValueStoreEntry(h=1.0, ss=2.0, w=0.5, s=3)
    with pytest.raises(ValueError, match=field):
        store.get(aliasing)
    with pytest.raises(ValueError, match=field):
        aliasing in store
    with pytest.raises(ValueError, match=field):
        ValueStore(inst, aliasing, 1.0)
    assert list(store.items()) == [(pristine_state(inst), ValueStoreEntry(0.0, 0.0, 1.0, 1))]


def test_stores_built_for_another_instance_are_refused():
    # Seeds 5 and 6 share m, the caps and the layout size, so their state
    # indices coincide; only the instance check tells the stores apart.
    inst, other = generate_instance(5, m=2, cap=2), generate_instance(6, m=2, cap=2)
    assert Kernel(inst).indexer.count == Kernel(other).indexer.count
    base = ModifiedIndexPolicy(inst)
    decided = []

    def rule(state):
        decided.append(state)
        return base(state)

    foreign = ValueStore(other, pristine_state(other), 1.0)
    message = "value store belongs to another instance"
    with pytest.raises(ValueError, match=message):
        run_opi(inst, rule, SMALL_BUDGET, rng(1), rng(2), store=foreign)
    with pytest.raises(ValueError, match=message):
        online_run(inst, rule, foreign, SMALL_BUDGET, rng(1))
    assert decided == []  # refused before any budget was spent
    assert len(foreign.entries) == 1


def test_cli_rejects_an_imported_store_outside_the_instance(tmp_path, capsys):
    inst_path, store_path = tmp_path / "inst.json", tmp_path / "store.json"
    save_instance(generate_instance(5, m=2, cap=2), inst_path)
    budget = ["--r1", "100", "--r2", "1000", "--r-off", "10", "--tau-max", "1e9", "--r-on", "200",
              "--delta", "1"]
    opi = ["opi", "--instance", str(inst_path)] + budget
    assert main(opi + ["--export-store", str(store_path)]) == 0
    assert main(opi + ["--import-store", str(store_path)]) == 0
    capsys.readouterr()
    payload = json.loads(store_path.read_text())
    payload["entries"]["1:0,5"] = [1.0, 2.0, 0.5, 3]
    store_path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(opi + ["--import-store", str(store_path)])
    message = str(exc.value)
    assert message.startswith(f"repairnet: error: --import-store {str(store_path)!r}: ")
    assert "store entry '1:0,5': state.conditions[1]" in message


def test_cli_refuses_a_store_exported_for_another_instance(tmp_path, capsys):
    paths = {seed: tmp_path / f"inst-{seed}.json" for seed in (5, 6)}
    for seed, path in paths.items():
        save_instance(generate_instance(seed, m=2, cap=2), path)
    store_path = tmp_path / "store.json"
    budget = ["--r1", "100", "--r2", "1000", "--r-off", "10", "--tau-max", "1e9", "--r-on", "200",
              "--delta", "1"]
    assert main(["opi", "--instance", str(paths[5]), "--export-store", str(store_path)]
                + budget) == 0
    capsys.readouterr()
    prefix = f"repairnet: error: --import-store {str(store_path)!r}: root.instance: "
    with pytest.raises(SystemExit) as exc:
        main(["opi", "--instance", str(paths[6]), "--import-store", str(store_path)] + budget)
    assert str(exc.value) == prefix + "the store was exported for another instance"
    payload = json.loads(store_path.read_text())
    del payload["instance"]
    store_path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["opi", "--instance", str(paths[5]), "--import-store", str(store_path)] + budget)
    assert str(exc.value) == prefix + "missing instance fingerprint"


@pytest.mark.parametrize("entry", [index_table])
def test_index_entry_points_reject_states_outside_the_instance(entry):
    inst = generate_instance(20018)
    for state, field in bad_states(inst) + [(SystemState(99, (0,) * inst.machine_count),
                                             "state.location")]:
        with pytest.raises(ValueError, match=field):
            entry(inst, state)
    entry(inst, pristine_state(inst))
