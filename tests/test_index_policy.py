import math

import numpy as np
import pytest

from conftest import (
    all_failed_state,
    enumerate_states,
    homogeneous_complete_instance,
    homogeneous_star_instance,
    idle_score,
    index_decision,
    modified_index_decision,
    move_index,
    rng,
    stay_index,
    wait_index,
)
from repairnet.dp import StationaryPolicy, evaluate_policy
from repairnet.index_policy import (
    ModifiedIndexPolicy,
    arrival_distribution,
    repair_statistics,
)
from repairnet.instance import (
    CostKind,
    CostModel,
    InstanceParameters,
    counterexample_instances,
    two_machine_instance,
    generate_instance,
)
from repairnet.mdp import SystemState, kernel_of
from repairnet.network import build_complete_layout


def solve_repair_system(lam, mu, s):
    """Oracle: solve the uninterrupted-repair equations as a dense linear
    system in E[value(1)], ..., E[value(K)]."""
    cap = len(s) - 1
    matrix = np.zeros((cap, cap))
    rhs = np.zeros(cap)
    for k in range(1, cap):
        row = k - 1
        matrix[row, row] = 1.0
        matrix[row, k] = -lam / (lam + mu)  # value(k+1)
        if k >= 2:
            matrix[row, k - 2] = -mu / (lam + mu)  # value(k-1)
        rhs[row] = s[k] / (lam + mu)
    row = cap - 1
    matrix[row, row] = 1.0
    if cap >= 2:
        matrix[row, cap - 2] = -1.0
    rhs[row] = s[cap] / mu
    values = np.linalg.solve(matrix, rhs)
    return np.concatenate([[0.0], values])


def closed_form_repair(lam, mu, s):
    """Oracle: per-visit coefficient form, reward rate taken at the level
    each coefficient accounts for."""
    cap = len(s) - 1
    results = [0.0]
    for k in range(1, cap + 1):
        total_r = 0.0
        total_t = 0.0
        for p in range(1, cap + 1):
            upper = min(p, k)
            coeff = sum(lam ** (p - 1 - r) * mu**r for r in range(upper)) / mu**p
            total_r += coeff * s[p]
            total_t += coeff
        results.append((total_r, total_t))
    return results


def random_machine_instance(generator) -> InstanceParameters:
    m = 2
    cap = int(generator.integers(1, 9))
    kind = list(CostKind)[generator.integers(0, 3)]
    mu = tuple(generator.uniform(0.1, 0.9) for _ in range(m))
    lam = tuple(generator.uniform(0.05, u) for u in mu)
    return InstanceParameters(
        layout=build_complete_layout(m),
        lam=lam,
        mu=mu,
        tau=generator.uniform(0.1, 2.0),
        cap=(cap,) * m,
        cost=CostModel(kind=kind, c=tuple(generator.uniform(0.1, 0.9) for _ in range(m))),
    )


def reward_rates(inst, machine):
    cap = inst.cap[machine - 1]
    lam, mu = inst.lam[machine - 1], inst.mu[machine - 1]
    s = [0.0]
    for k in range(1, cap + 1):
        s.append(
            mu * (inst.cost.rate(machine, cap, cap) - inst.cost.rate(machine, k - 1, cap)) / lam
        )
    return s


def test_repair_statistics_k1_closed_form():
    inst = counterexample_instances()[0]
    stats = repair_statistics(inst, 1)
    assert stats.expected_time[1] == pytest.approx(1 / 0.12)
    assert stats.expected_reward[1] == pytest.approx(1.0 / 0.04)
    assert stats.stay_ratio(1) == pytest.approx((0.12 / 0.04) * 1.0)


@pytest.mark.parametrize("machine", [0, -1, 3])
def test_repair_statistics_rejects_ids_that_are_not_machines(machine):
    inst = generate_instance(5, m=2, cap=2)
    with pytest.raises(ValueError, match=rf"^machine: {machine} is not a machine id in 1\.\.2"):
        repair_statistics(inst, machine)


@pytest.mark.parametrize(
    "wrapper, args, message",
    [
        (arrival_distribution, (3, 1, -1), "level: -1 of machine 1 is not in 0..2"),
        (arrival_distribution, (-1, 1, 0), "source: -1 is not a node id in 1..25"),
        (arrival_distribution, (1, 0, 0), "machine: 0 is not a machine id in 1..2"),
        (arrival_distribution, (1, 2, 5), "level: 5 of machine 2 is not in 0..2"),
        (arrival_distribution, (True, 2, 1), "source: True is not a node id in 1..25"),
        (arrival_distribution, (1, True, 1), "machine: True is not a machine id in 1..2"),
        (arrival_distribution, (1, 2, True), "level: True of machine 2 is not in 0..2"),
    ],
    ids=lambda value: (
        value.__name__ if callable(value)
        else ",".join(map(str, value)) if isinstance(value, tuple)
        else value.split(":")[0]
    ),
)
def test_index_wrappers_reject_ids_and_levels_outside_the_instance(wrapper, args, message):
    inst = generate_instance(5, m=2, cap=2)
    assert inst.layout.node_count == 25
    with pytest.raises(ValueError) as exc:
        wrapper(inst, *args)
    assert str(exc.value) == message


def test_repair_statistics_boundary_and_monotonicity():
    inst = two_machine_instance()
    stats = repair_statistics(inst, 1)
    assert stats.expected_reward[0] == 0.0
    assert stats.expected_time[0] == 0.0
    assert all(np.diff(stats.expected_reward) > 0)
    assert all(np.diff(stats.expected_time) > 0)


def test_repair_statistics_matches_linear_system_and_closed_form():
    generator = rng(100)
    for _ in range(25):
        inst = random_machine_instance(generator)
        for machine in (1, 2):
            stats = repair_statistics(inst, machine)
            lam, mu = inst.lam[machine - 1], inst.mu[machine - 1]
            s = reward_rates(inst, machine)
            oracle_r = solve_repair_system(lam, mu, s)
            oracle_t = solve_repair_system(lam, mu, [0.0] + [1.0] * (len(s) - 1))
            closed = closed_form_repair(lam, mu, s)
            for k in range(len(s)):
                assert stats.expected_reward[k] == pytest.approx(oracle_r[k], rel=1e-10)
                assert stats.expected_time[k] == pytest.approx(oracle_t[k], rel=1e-10)
                if k >= 1:
                    assert stats.expected_reward[k] == pytest.approx(closed[k][0], rel=1e-10)
                    assert stats.expected_time[k] == pytest.approx(closed[k][1], rel=1e-10)


def monte_carlo_repair(lam, mu, s, start, episodes, generator):
    """Oracle: vectorized episode simulation of an uninterrupted repair."""
    cap = len(s) - 1
    level = np.full(episodes, start, dtype=np.int64)
    total_r = np.zeros(episodes)
    total_t = np.zeros(episodes)
    alive = level > 0
    while alive.any():
        n = int(alive.sum())
        at_cap = alive & (level == cap)
        below = alive & ~at_cap
        if at_cap.any():
            k = int(at_cap.sum())
            dwell = generator.exponential(1.0 / mu, size=k)
            total_t[at_cap] += dwell
            total_r[at_cap] += np.asarray(s)[level[at_cap]] * dwell
            level[at_cap] -= 1
        if below.any():
            k = int(below.sum())
            dwell = generator.exponential(1.0 / (lam + mu), size=k)
            total_t[below] += dwell
            total_r[below] += np.asarray(s)[level[below]] * dwell
            down = generator.random(k) < mu / (lam + mu)
            level[below] += np.where(down, -1, 1)
        alive = level > 0
    return total_r, total_t


def test_repair_statistics_match_monte_carlo():
    inst = two_machine_instance()
    stats = repair_statistics(inst, 1)
    s = reward_rates(inst, 1)
    generator = rng(2024)
    rewards, times = monte_carlo_repair(0.4, 1.1, s, start=2, episodes=300_000, generator=generator)
    for sample, expected in ((rewards, stats.expected_reward[2]), (times, stats.expected_time[2])):
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - expected) < 3 * se


def test_arrival_distribution_point_mass_at_cap():
    inst = counterexample_instances()[0]
    dist = arrival_distribution(inst, 2, 1, level=1)  # K=1, already failed
    assert dist.pmf == (1.0,)
    assert dist.expected_travel[0] == pytest.approx(inst.layout.dist(2, 1) / inst.tau)


def test_arrival_distribution_first_term_and_plugin():
    inst = counterexample_instances()[0]
    # Machine-to-machine distance on the star is 2.
    dist = arrival_distribution(inst, 2, 1, level=0)
    assert dist.pmf[0] == pytest.approx((0.024 / 0.064) ** 2)
    assert dist.pmf[0] == pytest.approx(0.140625)


def test_arrival_distribution_identities_randomized():
    generator = rng(55)
    checked = 0
    for seed in range(40):
        inst = generate_instance(seed)
        nodes = inst.layout.node_count
        for _ in range(10):
            j = int(generator.integers(1, inst.machine_count + 1))
            i = int(generator.integers(1, nodes + 1))
            if i == j:
                continue
            level = int(generator.integers(0, inst.cap[j - 1] + 1))
            dist = arrival_distribution(inst, i, j, level)
            assert sum(dist.pmf) == pytest.approx(1.0, abs=1e-12)
            total = sum(p * d for p, d in zip(dist.pmf, dist.expected_travel))
            assert total == pytest.approx(inst.layout.dist(i, j) / inst.tau, abs=1e-12)
            checked += 1
    assert checked > 200


def test_stay_index_values():
    inst = counterexample_instances()[0]
    assert stay_index(inst, 1, 0) == 0.0
    assert stay_index(inst, 1, 1) == pytest.approx(3.0)


def test_move_index_closed_forms():
    lam, mu, tau, f1 = 0.04, 0.12, 0.024, 1.0
    inst = homogeneous_complete_instance(3, lam, mu, f1, tau)
    assert move_index(inst, 1, 2, 1) == pytest.approx((tau / (mu + tau)) * (mu / lam) * f1)
    assert move_index(inst, 1, 2, 1) == pytest.approx(0.5)
    expected_pristine = mu * tau * f1 / (tau**2 + (2 * mu + lam) * tau + mu * lam)
    assert move_index(inst, 1, 2, 0) == pytest.approx(expected_pristine)


def test_move_index_quiet_machine_limit():
    # As the degradation rate vanishes, the arrival probability of finding
    # work and the per-repair reward cancel, leaving mu*f/(tau + 2*mu).
    mu, tau, f1 = 0.5, 0.3, 1.0
    inst = homogeneous_complete_instance(2, 1e-9, mu, f1, tau)
    assert move_index(inst, 1, 2, 0) == pytest.approx(mu * f1 / (tau + 2 * mu), rel=1e-6)


def test_wait_index_closed_form_k1():
    lam, mu, tau, f1 = 0.04, 0.12, 0.024, 1.0
    inst = homogeneous_complete_instance(3, lam, mu, f1, tau)
    expected = mu * tau * f1 / ((mu + lam) * tau + mu * lam)
    assert wait_index(inst, 1, 2, 1) == pytest.approx(expected)
    assert wait_index(inst, 1, 2, 1) == pytest.approx(1.0 / 3.0)
    assert move_index(inst, 1, 2, 1) > wait_index(inst, 1, 2, 1)


def test_wait_never_beats_move_at_cap():
    generator = rng(77)
    for seed in range(30):
        inst = generate_instance(seed)
        j = int(generator.integers(1, inst.machine_count + 1))
        i = 1 if j != 1 else 2
        cap = inst.cap[j - 1]
        assert move_index(inst, i, j, cap) > wait_index(inst, i, j, cap)


def test_index_errors_on_self_target(two_machines):
    with pytest.raises(ValueError):
        arrival_distribution(two_machines, 1, 1, 0)


def test_idle_score_star_center():
    inst = homogeneous_star_instance(4, 2, 0.05, 0.4, 1.0, 0.3)
    center = 5
    assert idle_score(inst, center) == pytest.approx(2 / 0.3)
    for machine in range(1, 5):
        assert idle_score(inst, machine) > idle_score(inst, center)


def test_idle_score_complete_symmetry():
    inst = homogeneous_complete_instance(4, 0.1, 0.5, 1.0, 0.7)
    scores = {idle_score(inst, i) for i in range(1, 5)}
    assert max(scores) - min(scores) < 1e-12


def test_idle_score_lattice_hand_computed():
    from repairnet.network import build_lattice_layout

    layout = build_lattice_layout(5, [(1, 3), (2, 5), (3, 1)])
    lam = (0.1, 0.2, 0.3)
    inst = InstanceParameters(
        layout=layout,
        lam=lam,
        mu=(0.5, 0.5, 0.5),
        tau=0.4,
        cap=(1, 1, 1),
        cost=CostModel(kind=CostKind.LINEAR, c=(1.0, 1.0, 1.0)),
    )
    node = 2  # machine at (2, 5)
    expected = (0.1 * 3 + 0.2 * 0 + 0.3 * 5) / 0.6 / 0.4
    assert idle_score(inst, node) == pytest.approx(expected)


def test_index_decision_complete_k1_cases():
    inst = homogeneous_complete_instance(3, 0.04, 0.12, 1.0, 0.024)
    # At a failed machine: stay, whatever the others look like.
    assert index_decision(inst, SystemState(1, (1, 1, 1))) == 1
    assert index_decision(inst, SystemState(2, (1, 1, 0))) == 2
    # At a pristine machine with failed peers: head for one of them.
    assert index_decision(inst, SystemState(1, (0, 1, 0))) == 2
    assert index_decision(inst, SystemState(1, (0, 1, 1))) == 2  # smallest id tie


def test_index_decision_all_pristine_star():
    inst = homogeneous_star_instance(3, 2, 0.04, 0.12, 1.0, 0.3)
    center = 4
    pristine = SystemState(1, (0, 0, 0))
    action = index_decision(inst, pristine)
    assert action in inst.layout.neighbors(1)
    assert inst.layout.dist(action, center) == inst.layout.dist(1, center) - 1
    assert index_decision(inst, SystemState(center, (0, 0, 0))) == center


def test_index_decision_scale_covariant():
    generator = rng(123)
    for seed in range(8):
        inst = generate_instance(seed)
        scaled = InstanceParameters(
            layout=inst.layout,
            lam=inst.lam,
            mu=inst.mu,
            tau=inst.tau,
            cap=inst.cap,
            cost=CostModel(kind=inst.cost.kind, c=tuple(7.5 * c for c in inst.cost.c)),
            seed=None,
        )
        # Index order is enumerate_states order, so decoding a drawn index
        # checks the state the enumeration would have given.
        kernel = kernel_of(inst)
        for _ in range(25):
            state = kernel.state(int(generator.integers(0, kernel.indexer.count)))
            assert index_decision(inst, state) == index_decision(scaled, state)


def test_modified_index_decision_all_failed():
    inst = homogeneous_complete_instance(3, 0.04, 0.12, 1.0, 0.024)
    failed = all_failed_state(inst, location=3)
    assert modified_index_decision(inst, failed) == 1  # smallest id among ties
    assert modified_index_decision(inst, all_failed_state(inst, 1)) == 1
    c2 = counterexample_instances()[3]
    # Highest full-repair reward rate: machine 1 (mu = 0.82).
    assert modified_index_decision(c2, all_failed_state(c2, 2)) == 1
    assert modified_index_decision(c2, all_failed_state(c2, 3)) == 1


def test_modified_index_matches_index_elsewhere():
    inst = counterexample_instances()[1]
    for state in enumerate_states(inst):
        if state.conditions != inst.cap:
            assert modified_index_decision(inst, state) == index_decision(inst, state)


def test_modified_index_policy_unichain_everywhere():
    # Unichain means policy evaluation converges; run it on all fixtures
    # and a few random instances.
    instances = [two_machine_instance(), *counterexample_instances()]
    instances += [generate_instance(seed, m=2, cap=2) for seed in range(3)]
    for inst in instances:
        policy = StationaryPolicy.from_rule(inst, ModifiedIndexPolicy(inst))
        result = evaluate_policy(inst, policy, tol=1e-9)
        assert math.isfinite(result.g)


def test_index_table_debug_dump(two_machines):
    from repairnet.index_policy import index_table

    table = index_table(two_machines, SystemState(1, (2, 1)))
    assert table["decision"] == 2
    assert table["stay"] > 0
    assert 2 in table["machines"]
