import copy
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairnet.instance import (
    CostKind,
    CostModel,
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


@pytest.mark.parametrize(
    "overrides, match",
    [
        (dict(m=26), r"^m: 26 is not a machine count in 1\.\.25$"),
        (dict(m=0), r"^m: 0 is not a machine count in 1\.\.25$"),
        (dict(m=True), r"^m: True is not a machine count"),
        (dict(m=2.5), r"^m: 2\.5 is not a machine count"),
        (dict(cap=0), r"^cap: 0 is not a degradation cap >= 1$"),
        (dict(cap=True), r"^cap: True is not a degradation cap"),
    ],
    ids=["m-26", "m-0", "m-bool", "m-float", "cap-0", "cap-bool"],
)
def test_generator_refuses_sizes_the_lattice_cannot_hold(overrides, match):
    # m = 26 used to loop forever: the coordinate draw retried for a free
    # node of the 25-node lattice, and none was left.
    with pytest.raises(ValueError, match=match):
        generate_instance(3, **overrides)


@pytest.mark.parametrize("seed", [-1, True, False, 2.0, "7"], ids=repr)
def test_generator_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # -1 used to die inside numpy ("expected non-negative integer"), and
    # True returned seed 1's instance.
    message = rf"^seed: {re.escape(repr(seed))} is not a non-negative integer$"
    with pytest.raises(ValueError, match=message):
        generate_instance(seed)


def test_generator_places_a_machine_on_every_lattice_node():
    inst = generate_instance(3, m=25, cap=1)
    assert inst.machine_count == 25


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


def test_round_trip_reads_back_every_repr(tmp_path):
    # The writer's repr output is always a decimal string the reader
    # takes, exponent forms such as 1e-05 included.
    for seed in range(20):
        inst = generate_instance(seed)
        assert instance_from_dict(instance_to_dict(inst)) == inst
    small = replace(generate_instance(3, m=2), lam=(1e-05, 2.5e-07), tau=1e22)
    data = instance_to_dict(small)
    assert (data["lambda"], data["tau"]) == (["1e-05", "2.5e-07"], "1e+22")
    assert instance_from_dict(data) == small


@pytest.mark.parametrize(
    "text", [" 0.5 ", "0.5\n", "1_0e-2", "\uff10.5", "\u0661", "+inf", "NaN", "Infinity"]
)
def test_loader_takes_only_decimal_strings(text):
    # float() accepts each of these; the file format does not.
    data = instance_to_dict(generate_instance(5, m=2, cap=2))
    data["mu"][1] = text
    message = rf"^root\.mu\[1\]: {re.escape(repr(text))} is not a decimal string$"
    with pytest.raises(InstanceFormatError, match=message):
        instance_from_dict(data)


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("tau", math.inf, r"tau: inf"),
        ("lam", (math.inf, 0.4), r"lambda\[0\]: inf"),
        ("mu", (math.inf, 0.4), r"mu\[0\]: inf"),
        # A bool is not a rate, though True compares as 1.
        ("tau", True, r"tau: True"),
        ("lam", (True, 0.4), r"lambda\[0\]: True"),
        ("mu", (1.1, True), r"mu\[1\]: True"),
    ],
    ids=["tau", "lam", "mu", "tau-bool", "lam-bool", "mu-bool"],
)
def test_instance_rejects_infinite_rates(two_machines, field, value, message):
    from dataclasses import replace

    with pytest.raises(ValueError, match=f"^{message} is not a positive finite number$"):
        replace(two_machines, **{field: value})


def _costs(*c):
    return CostModel(kind=CostKind.LINEAR, c=c)


@pytest.mark.parametrize(
    "changes, message",
    [
        # A cap of 1.5 or 2.0 used to load and then fail inside the kernel.
        (dict(cap=(1.5, 2)), r"K\[0\]: 1\.5 is not an integer >= 1"),
        (dict(cap=(2, 2.0)), r"K\[1\]: 2\.0 is not an integer >= 1"),
        (dict(cap=(True, 2)), r"K\[0\]: True is not an integer >= 1"),
        # A NaN cost ran policy evaluation to its sweep cap; an infinite one
        # did not end.  A cost that is 0 or less does not rise with the level.
        (dict(cost=_costs(math.nan, 1.0)), r"cost\.c\[0\]: nan is not a positive finite number"),
        (dict(cost=_costs(1.0, math.inf)), r"cost\.c\[1\]: inf is not a positive finite number"),
        (dict(cost=_costs(-math.inf, 1.0)), r"cost\.c\[0\]: -inf is not a positive finite number"),
        (dict(cost=_costs(True, 1.0)), r"cost\.c\[0\]: True is not a positive finite number"),
        (dict(cost=_costs(-1.0, 1.0)), r"cost\.c\[0\]: -1\.0 is not a positive finite number"),
        (dict(cost=_costs(1.0, 0.0)), r"cost\.c\[1\]: 0\.0 is not a positive finite number"),
        (dict(rho_nominal=math.nan), r"rho_nominal: nan is not a finite number"),
        (dict(mu=(1.1,)), r"mu: 1 entries for 2 machines"),
        (dict(cap=(2, 2, 2)), r"K: 3 entries for 2 machines"),
        (dict(cost=_costs(1.0)), r"cost\.c: 1 entries for 2 machines"),
    ],
    ids=[
        "cap-fraction", "cap-float", "cap-bool", "c-nan", "c-inf", "c-minus-inf", "c-bool",
        "c-negative", "c-zero", "rho-nan", "short-mu", "long-cap", "short-c",
    ],
)
def test_instance_refuses_values_naming_the_field(two_machines, changes, message):
    from dataclasses import replace

    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(two_machines, **changes)


def _self_loop(data):
    data["adjacency"][0].append(1)


def _duplicate_neighbour(data):
    data["adjacency"][0].append(data["adjacency"][0][0])


def _three_machines_on_two_nodes(data):
    data["adjacency"] = [[2], [1]]
    for owner, key in ((data, "lambda"), (data, "mu"), (data, "K"), (data["cost"], "c")):
        owner[key].append(owner[key][0])


def _node_out_of_range(data):
    data["adjacency"][0].append(99)


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
        (_node_out_of_range, r"root\.adjacency\[0\]: node id 99 out of range"),
    ],
    ids=[
        "self-loop", "duplicate-neighbour", "more-machines-than-nodes", "unsorted-neighbours",
        "node-out-of-range",
    ],
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


def _disconnected(data):
    data["machine_coords"] = None
    data["adjacency"] = [[2], [1], [4], [3]]


def _extra_edge(data):
    # Nodes 1 and 2 hold the machines at (5, 1) and (5, 5); the lattice
    # does not join them.
    data["adjacency"][0].insert(0, 2)
    data["adjacency"][1].insert(0, 1)


def _repeated_coordinate(data):
    data["machine_coords"][1] = list(data["machine_coords"][0])


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
        (_set(("machine_coords",), 3), r"root\.machine_coords: expected"),
        (_set(("machine_coords", 0), [1]), r"root\.machine_coords\[0\]: expected \[a, b\]"),
        (_set(("machine_coords", 1), ["1", 2]), r"root\.machine_coords\[1\]: expected"),
        (_set(("machine_coords", 0, 0), 0), r"root\.machine_coords: coordinate \(0, "),
        (_repeated_coordinate, r"root\.machine_coords: duplicate machine coordinates"),
        (_set(("grid",), 0), r"root\.machine_coords: grid_side must be >= 1"),
        (_disconnected, r"root\.adjacency: graph is not connected"),
        (_set(("seed",), {"a": 1}), r"root\.seed: expected an integer or null"),
        (_extra_edge, r"root\.adjacency: inconsistent with grid/machine_coords"),
        (_set(("mu", 1), "abc"), r"^root\.mu\[1\]: 'abc' is not a decimal string$"),
        # Value errors are the constructor's, with the root added.
        (_set(("K", 0), 1.5), r"^root\.K\[0\]: 1\.5 is not an integer >= 1$"),
        (
            _set(("cost", "c", 1), "inf"),
            r"^root\.cost\.c\[1\]: inf is not a positive finite number$",
        ),
        (
            _set(("cost", "c", 0), "-1.0"),
            r"^root\.cost\.c\[0\]: -1\.0 is not a positive finite number$",
        ),
        (_set(("tau",), "nan"), r"^root\.tau: nan is not a positive finite number$"),
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
        "coords-not-a-list",
        "short-pair",
        "string-coordinate",
        "coordinate-off-grid",
        "repeated-coordinate",
        "zero-grid",
        "disconnected",
        "unhashable-seed",
        "inconsistent-adjacency",
        "unparseable-rate",
        "fractional-K",
        "infinite-c",
        "negative-c",
        "nan-tau",
    ],
)
def test_loader_rejects_values_the_parameters_reject(probe, path):
    # The loader names the field of each: a file rule of its own, a layout
    # builder's error, or the constructor's value rule with ``root.``
    # added.  A seed that is not an integer would load an instance that
    # cannot be hashed.
    data = instance_to_dict(generate_instance(5, m=2, cap=2))
    probe(data)
    with pytest.raises(InstanceFormatError, match=path):
        instance_from_dict(data)


# Payloads for the mutation property: lattice instances (grid and machine
# coordinates present) and one complete graph (no coordinates).
def _payloads():
    from repairnet.instance import InstanceParameters
    from repairnet.network import build_complete_layout

    complete = InstanceParameters(
        layout=build_complete_layout(3),
        lam=(0.05, 0.07, 0.06),
        mu=(0.9, 0.8, 0.7),
        tau=0.5,
        cap=(2, 1, 3),
        cost=CostModel(kind=CostKind.QUADRATIC, c=(1.0, 2.5, 0.5)),
    )
    return [instance_to_dict(i) for i in (generate_instance(3), generate_instance(11), complete)]


PAYLOADS = _payloads()

WRONG_VALUES = [None, True, False, 0, -1, 2, 1.5, "", "x", "1", [], [1], ["1"], {}, {"a": 1}]
BAD_RATES = ["nan", "inf", "-inf", "-0.5", "0", "-0", "1e400", float("nan"), -1.0, 0.0]


def _paths(value, path=()):
    """Every key path into a JSON value, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_payloads(draw):
    payload = copy.deepcopy(draw(st.sampled_from(PAYLOADS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(payload))
        if not paths:
            break
        # A top-level field first, so the long adjacency lists do not
        # crowd out the short fields.
        top = draw(st.sampled_from(sorted({path[0] for path in paths})))
        *parent_path, key = draw(st.sampled_from([p for p in paths if p[0] == top]))
        parent = payload
        for part in parent_path:
            parent = parent[part]
        kind = draw(st.sampled_from(["delete", "wrong type", "bad rate", "resize"]))
        if kind == "delete":
            del parent[key]
        elif kind == "wrong type":
            parent[key] = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
        elif kind == "bad rate":
            parent[key] = draw(st.sampled_from(BAD_RATES))
        elif isinstance(parent[key], list):
            items = parent[key]
            if items and draw(st.booleans()):
                del items[draw(st.integers(0, len(items) - 1))]
            else:
                items.append(copy.deepcopy(items[-1]) if items else 1)
    return payload


@settings(max_examples=400, deadline=None)
@given(mutated_payloads())
def test_mutated_payloads_load_or_raise_instance_format_errors(payload):
    try:
        inst = instance_from_dict(payload)
    except InstanceFormatError:
        return
    # What loads is a usable instance: it hashes (the kernel cache keys on
    # it) and writes back out.
    hash(inst)
    instance_from_dict(instance_to_dict(inst))
