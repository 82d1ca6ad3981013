import pytest

from repairnet.instance import (
    CostKind,
    InstanceFormatError,
    counterexample_instances,
    two_machine_instance,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    round_two_significant,
    save_instance,
)


def test_two_machine_fixture_values(two_machines):
    assert two_machines.rho == pytest.approx(0.4 / 1.1 + 0.4 / 1.0)
    assert two_machines.uniformization_rate == pytest.approx(100.8)
    assert two_machines.cost.rate(1, 2, 2) == 2.0
    assert two_machines.cap == (2, 2)


def test_counterexample_fixture_parameters():
    cases = counterexample_instances()
    a, b, c1, c2, c3 = cases
    # (a): switching is slower than the round-trip degradation threshold.
    assert a.tau == 0.024 < 2 * 1 * 0.04
    assert b.cap == (2, 2, 2)
    assert c1.lam == (0.034, 0.16, 0.055)
    assert c2.mu == (0.82, 0.12, 0.63)
    assert c3.cost.c == (8.6, 13.0, 8.1)
    # All machines homogeneous in (c3) except the cost coefficients.
    assert len(set(c3.lam)) == 1 and len(set(c3.mu)) == 1


def test_round_two_significant():
    assert round_two_significant(0.0895) == 0.09
    assert round_two_significant(0.125) == 0.12  # half to even
    assert round_two_significant(0.135) == 0.14
    assert round_two_significant(123.4) == 120.0
    assert round_two_significant(0.0) == 0.0


def test_generator_ranges_and_determinism():
    for seed in range(60):
        inst = generate_instance(seed)
        assert 2 <= inst.machine_count <= 8
        assert 0.1 <= inst.eta <= 10.0 + 1e-12
        # Two-significant-figure rounding leaves at most ~5% slack on rho.
        assert 0.1 * 0.94 <= inst.rho <= 1.5 * 1.06
        for value in inst.lam + inst.mu:
            assert round_two_significant(value) == value
    again = generate_instance(17)
    assert again == generate_instance(17)


def test_generator_overrides():
    inst = generate_instance(3, m=2, cap=1)
    assert inst.machine_count == 2
    assert inst.cap == (1, 1)
    kinds = {generate_instance(s, cost_kind=CostKind.QUADRATIC).cost.kind for s in range(5)}
    assert kinds == {CostKind.QUADRATIC}


def test_generator_invariant_fuzz():
    # Large-seed sweep: every generated instance satisfies the invariants,
    # and lambda_i >= mu_i occurs only when the instance is overloaded.
    flagged = 0
    for seed in range(10_000):
        inst = generate_instance(seed)
        assert all(l > 0 for l in inst.lam)
        assert all(u > 0 for u in inst.mu)
        assert inst.tau > 0
        assert all(k >= 1 for k in inst.cap)
        delta = inst.step_length
        assert all(0 < l * delta <= 1 for l in inst.lam)
        assert 0 < inst.tau * delta <= 1
        if any(l >= u for l, u in zip(inst.lam, inst.mu)):
            flagged += 1
            assert inst.rho > 0.99
    # The rescaling can push individual machines past mu, but only rarely.
    assert flagged < 1_000


def test_round_trip_fixture_instances(tmp_path):
    for name, inst in [
        ("two_machines", two_machine_instance()),
        ("star_counterexample", counterexample_instances()[0]),
        ("generated", generate_instance(42)),
    ]:
        path = tmp_path / f"{name}.json"
        save_instance(inst, path)
        assert load_instance(path) == inst


def test_round_trip_preserves_exact_floats(tmp_path):
    inst = generate_instance(7)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert loaded.tau == inst.tau
    assert loaded.lam == inst.lam
    assert loaded.rho_nominal == inst.rho_nominal


def test_corrupted_file_reports_field_path(tmp_path):
    inst = generate_instance(1)
    data = instance_to_dict(inst)
    data["lambda"][0] = 12.5  # must be a decimal string
    with pytest.raises(InstanceFormatError, match=r"root\.lambda\[0\]"):
        instance_from_dict(data)

    data = instance_to_dict(inst)
    del data["tau"]
    with pytest.raises(InstanceFormatError, match=r"root\.tau"):
        instance_from_dict(data)

    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InstanceFormatError, match="root"):
        load_instance(path)


def test_schema_version_mismatch():
    data = instance_to_dict(generate_instance(1))
    data["schema_version"] = 99
    with pytest.raises(InstanceFormatError, match="schema_version"):
        instance_from_dict(data)


def test_instance_rejects_bad_parameters(two_machines):
    from dataclasses import replace

    with pytest.raises(ValueError):
        replace(two_machines, tau=0.0)
    with pytest.raises(ValueError):
        replace(two_machines, cap=(0, 2))
    with pytest.raises(ValueError):
        replace(two_machines, lam=(0.4,))


@pytest.mark.parametrize(
    "field, path",
    [
        (("lambda", 0), r"root\.lambda\[0\]"),
        (("mu", 1), r"root\.mu\[1\]"),
        (("tau",), r"root\.tau"),
        (("cost", "c", 0), r"root\.cost\.c\[0\]"),
        (("rho_nominal",), r"root\.rho_nominal"),
    ],
)
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_loader_rejects_non_finite_values(field, path, text):
    data = instance_to_dict(generate_instance(5, m=2, cap=2))
    *parents, leaf = field
    owner = data
    for key in parents:
        owner = owner[key]
    owner[leaf] = text
    with pytest.raises(InstanceFormatError, match=path):
        instance_from_dict(data)


def test_loader_rejects_boolean_caps():
    data = instance_to_dict(generate_instance(5, m=2, cap=2))
    data["K"][0] = True
    with pytest.raises(InstanceFormatError, match=r"root\.K\[0\]"):
        instance_from_dict(data)


def test_instance_rejects_nan_rates(two_machines):
    from dataclasses import replace

    nan = float("nan")
    with pytest.raises(ValueError):
        replace(two_machines, tau=nan)
    with pytest.raises(ValueError):
        replace(two_machines, lam=(nan, 0.4))
    with pytest.raises(ValueError):
        replace(two_machines, mu=(1.1, nan))


def _self_loop(data):
    data["adjacency"][0].append(1)


def _duplicate_neighbour(data):
    data["adjacency"][0].append(data["adjacency"][0][0])


def _three_machines_on_two_nodes(data):
    data["adjacency"] = [[2], [1]]
    for owner, key in ((data, "lambda"), (data, "mu"), (data, "K"), (data["cost"], "c")):
        owner[key].append(owner[key][0])


def _unsorted_neighbours(data):
    # Node 9's neighbours [4, 8, 10, 14] reversed: the smallest-id next-hop
    # rule would then pick a different neighbour for 16 of 24 targets.
    data["adjacency"][8].reverse()


@pytest.mark.parametrize(
    "probe, path",
    [
        (_self_loop, r"root\.adjacency\[0\]"),
        (_duplicate_neighbour, r"root\.adjacency\[0\]"),
        (_three_machines_on_two_nodes, r"root\.lambda"),
        (_unsorted_neighbours, r"root\.adjacency\[8\]: neighbours not in ascending order"),
    ],
    ids=["self-loop", "duplicate-neighbour", "more-machines-than-nodes", "unsorted-neighbours"],
)
def test_loader_rejects_malformed_graphs(probe, path):
    # Without machine coordinates the adjacency is taken as given.
    data = instance_to_dict(generate_instance(5, m=2, cap=2))
    data["machine_coords"] = None
    probe(data)
    with pytest.raises(InstanceFormatError, match=path):
        instance_from_dict(data)


@pytest.mark.parametrize("field", ["schema_version", "grid"])
def test_loader_rejects_booleans_for_integers(field):
    data = instance_to_dict(generate_instance(5, m=2, cap=2))
    data[field] = True
    with pytest.raises(InstanceFormatError, match=rf"root\.{field}"):
        instance_from_dict(data)


def _set(field, value):
    def probe(data):
        *parents, leaf = field
        owner = data
        for key in parents:
            owner = owner[key]
        owner[leaf] = value

    return probe


def _append(field):
    def probe(data):
        owner = data
        for key in field:
            owner = owner[key]
        owner.append(owner[0])

    return probe


def _no_machines(data):
    for owner, key in ((data, "lambda"), (data, "mu"), (data, "K"), (data["cost"], "c")):
        owner[key].clear()


@pytest.mark.parametrize(
    "probe, path",
    [
        (_set(("mu", 1), "-0.5"), r"root\.mu\[1\]"),
        (_set(("lambda", 0), "0"), r"root\.lambda\[0\]"),
        (_set(("tau",), "-1.5"), r"root\.tau"),
        (_append(("lambda",)), r"root\.lambda"),
        (_append(("mu",)), r"root\.mu"),
        (_append(("K",)), r"root\.K"),
        (_append(("cost", "c")), r"root\.cost\.c"),
        (_no_machines, r"root\.lambda: expected at least one machine"),
    ],
    ids=[
        "negative-mu",
        "zero-lambda",
        "negative-tau",
        "long-lambda",
        "long-mu",
        "long-K",
        "long-c",
        "no-machines",
    ],
)
def test_loader_rejects_values_the_parameters_reject(probe, path):
    # InstanceParameters, or the first rate computed from it, would reject
    # each of these with a bare ValueError; the loader names the field first.
    data = instance_to_dict(generate_instance(5, m=2, cap=2))
    probe(data)
    with pytest.raises(InstanceFormatError, match=path):
        instance_from_dict(data)
