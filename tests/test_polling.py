import itertools

import pytest

from conftest import homogeneous_complete_instance, rng
from repairnet.dp import policy_iteration
from repairnet.cli import main
from repairnet.instance import generate_instance, save_instance
from repairnet.mdp import SystemState, pristine_state, simulate
from repairnet.network import build_lattice_layout
from repairnet.polling import (
    PollingPolicy,
    best_polling_report,
    best_tour,
    polling_decision,
    tour_length,
)

FIG3 = build_lattice_layout(5, [(1, 3), (2, 5), (3, 1)])


def test_best_tour_singleton_and_pair():
    single = best_tour(FIG3, [2])
    assert single.sequence == (2,)
    assert single.cycle_length == 0
    pair = best_tour(FIG3, [1, 3])
    assert pair.cycle_length == 2 * FIG3.dist(1, 3) == 8


def test_best_tour_three_machines_fig3():
    tour = best_tour(FIG3, [1, 2, 3])
    assert tour.cycle_length == 3 + 5 + 4 == 12
    # Anchored at the smallest machine; ties resolve lexicographically.
    assert tour.sequence[0] == 1
    assert tour.sequence == (1, 2, 3)


def test_best_tour_matches_full_permutation_oracle():
    generator = rng(31)
    for seed in range(6):
        inst = generate_instance(seed, m=int(generator.integers(3, 7)))
        layout = inst.layout
        machines = layout.machines
        tour = best_tour(layout, machines)
        oracle = min(tour_length(layout, perm) for perm in itertools.permutations(machines))
        assert tour.cycle_length == oracle


def test_best_tour_rejects_empty():
    with pytest.raises(ValueError):
        best_tour(FIG3, [])


@pytest.mark.parametrize(
    "subset, bad",
    [
        ([9], "9"), ([0], "0"), ([1, 2, 3], "3"), ([1.5], "1.5"), ([True], "True"),
        # Checked before sorting, which raised a bare TypeError on these.
        ([1, "a"], "'a'"), ([1, None], "None"),
    ],
)
def test_best_tour_rejects_ids_that_are_not_machines(subset, bad):
    inst = generate_instance(5, m=2, cap=2)
    assert inst.layout.machines == (1, 2)
    with pytest.raises(ValueError, match=f"polling subset: {bad} is not a machine id in 1..2"):
        best_tour(inst.layout, subset)


@pytest.mark.parametrize(
    "subset, repeated", [([1, 1, 2], 1), ([2, 1, 2], 2)], ids=["1,1,2", "2,1,2"]
)
def test_best_tour_rejects_a_repeated_machine(subset, repeated):
    # A repeated id was dropped silently: [1, 1, 2] toured (1, 2).
    inst = generate_instance(5, m=2, cap=2)
    with pytest.raises(ValueError, match=f"^polling subset: machine {repeated} is repeated$"):
        best_tour(inst.layout, subset)


def test_cli_rejects_polling_subsets_that_are_not_machines(tmp_path, capsys):
    path = tmp_path / "inst.json"
    save_instance(generate_instance(5, m=2, cap=2), path)
    for text, reason in (("9", "not a machine id"), ("1,0", "not a machine id"),
                         ("1,,2", "invalid literal"), ("x", "invalid literal"),
                         ("1.5", "invalid literal"), ("1,1,2", "machine 1 is repeated")):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--instance", str(path), "--policy", "polling",
                  "--subset", text, "--steps", "3"])
        message = str(exc.value)
        assert message.startswith(f"repairnet: error: --subset {text!r}: ") and reason in message
    code = main(["simulate", "--instance", str(path), "--policy", "polling",
                 "--subset", "2", "--steps", "50"])
    assert code == 0
    assert "tour: (2,)" in capsys.readouterr().out


def test_polling_decision_rules():
    tour = best_tour(FIG3, [1, 2, 3])
    # At the target with damage: stay.
    action, progress = polling_decision(FIG3, tour, SystemState(1, (2, 0, 0)), 0)
    assert (action, progress) == (1, 0)
    # At the target, pristine: advance the cycle and head out.
    action, progress = polling_decision(FIG3, tour, SystemState(1, (0, 2, 0)), 0)
    assert progress == 1
    assert FIG3.dist(action, 2) == FIG3.dist(1, 2) - 1
    # Mid-route, other machines failing does not change the route.
    mid = FIG3.next_hop_table[0][1]
    a1, p1 = polling_decision(FIG3, tour, SystemState(mid, (0, 0, 0)), 1)
    a2, p2 = polling_decision(FIG3, tour, SystemState(mid, (2, 0, 2)), 1)
    assert (a1, p1) == (a2, p2)


def test_singleton_tour_camps_at_machine():
    inst = generate_instance(4, m=3, cap=2)
    tour = best_tour(inst.layout, [2])
    policy = PollingPolicy(inst, tour)
    # Pristine at the single tour machine: advancing wraps to itself.
    assert policy.decide(SystemState(2, (0, 0, 0)), 0) == (2, 0)
    assert policy.decide(SystemState(2, (1, 2, 1)), 0) == (2, 0)


def test_best_polling_report_subset_count_and_argmin():
    inst = generate_instance(11, m=2, cap=1)
    crn = rng(1).random(4_000)
    report = best_polling_report(inst, 4_000, crn)
    table = report.metadata["subsets"]
    assert len(table) == 3  # 2^2 - 1
    best_g = min(row["average_cost"] for row in table)
    assert report.average_cost == best_g


def test_best_polling_limit():
    inst = generate_instance(3, m=5, cap=1)
    crn = rng(2).random(200)
    with pytest.raises(ValueError, match="m <= 4"):
        best_polling_report(inst, 200, crn)


def test_polling_never_beats_optimum():
    inst = homogeneous_complete_instance(3, 0.1, 0.5, 1.0, 0.4)
    solution = policy_iteration(inst, tol=1e-10)
    crn = rng(9).random(60_000)
    report = best_polling_report(inst, 60_000, crn)
    assert report.average_cost >= solution.g_star - 0.05


def test_polling_policy_runs_under_simulate():
    inst = generate_instance(8, m=3, cap=2)
    tour = best_tour(inst.layout, inst.layout.machines)
    report = simulate(inst, PollingPolicy(inst, tour), pristine_state(inst), 5_000, crn=rng(3).random(5_000))
    assert report.steps == 5_000
    assert sum(report.visit_counts) == 5_000
