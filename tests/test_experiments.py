import io

import pytest

from repairnet.experiments import (
    ExperimentConfig,
    aggregate_records,
    read_records_csv,
    records_csv_text,
    render_tables,
    run_benchmark,
)
from repairnet.instance import CostKind, CostModel, InstanceParameters, save_instance
from repairnet.network import build_complete_layout
from repairnet.opi import STEP_COUNT, OpiBudget


def tiny_budget(r_on):
    return OpiBudget(
        r1=300, r2=3_000, r_off=60, tau_max=1e12, r_on=r_on, delta=1, mode=STEP_COUNT
    )


def tiny_config(**overrides):
    defaults = dict(
        seed=1000,
        count=2,
        m=2,
        cap=1,
        steps=8_000,
        budget=tiny_budget(8_000),
        dp_tol=1e-10,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_records():
    return run_benchmark(tiny_config())


@pytest.mark.parametrize("steps", [0, 2.5, True])
def test_config_refuses_a_step_count_that_is_not_a_positive_int(steps):
    with pytest.raises(ValueError, match=rf"^steps: {steps!r} is not a positive count"):
        tiny_config(steps=steps)


@pytest.mark.parametrize(
    "name, value, reason",
    [
        ("count", 0, "is not a positive count"),
        ("jobs", -2, "is not a positive count"),
        ("jobs", True, "is not a positive count"),
        ("dp_tol", -1.0, "is not a positive finite number"),
        ("dp_tol", float("nan"), "is not a positive finite number"),
        ("m", 0, r"is not a machine count in 1\.\.25"),
        ("m", 26, r"is not a machine count in 1\.\.25"),
        ("cap", 0, "is not a degradation cap >= 1"),
        ("seed", -1, "is not a non-negative integer"),
        ("seed", True, "is not a non-negative integer"),
    ],
)
def test_config_checks_its_fields_when_built(name, value, reason):
    # A negative dp_tol used to fail only after each instance's index,
    # polling and OPI runs, a count of 0 wrote an empty batch, and a
    # negative jobs ran serially; m = 0 or cap = 0 ran every instance into
    # a failure record; a seed of -1 ran every instance into a numpy error,
    # and True ran as seed 1.
    with pytest.raises(ValueError, match=rf"^{name}: {value!r} {reason}$"):
        tiny_config(**{name: value})


def test_config_fields_cannot_be_assigned():
    # An assignment would skip the checks made when the config is built.
    config = tiny_config()
    with pytest.raises(AttributeError):
        config.steps = 0
    assert config.steps == 8_000


def test_benchmark_records_complete(tiny_records):
    assert len(tiny_records) == 2
    for record in tiny_records:
        assert record.error is None
        assert record.m == 2
        assert record.g_ind is not None
        assert record.g_opi is not None
        assert record.g_pol is not None  # m=2 <= polling limit
        assert record.g_star is not None  # 50 states, DP auto-on
        assert record.safe_fraction is not None


def test_no_heuristic_beats_optimum(tiny_records):
    # Simulated averages carry noise; the optimum may only be beaten by
    # less than a generous simulation tolerance.
    for record in tiny_records:
        for g in (record.g_ind, record.g_opi, record.g_pol):
            assert g >= record.g_star - 0.1


def test_absolute_suboptimality_identity(tiny_records):
    # (g - g*) - (u* - u) collapses to (g + u) - (g* + u*): both pairs sum
    # to the total failed cost, exactly for DP and asymptotically for the
    # simulated averages.
    for record in tiny_records:
        for g, u in ((record.g_ind, record.u_ind), (record.g_opi, record.u_opi)):
            assert abs((g - record.g_star) - (record.u_star - u)) < 0.2


def test_csv_round_trip_and_determinism(tiny_records):
    text_one = records_csv_text(tiny_records)
    text_two = records_csv_text(run_benchmark(tiny_config()))
    assert text_one == text_two
    parsed = read_records_csv(io.StringIO(text_one))
    assert len(parsed) == len(tiny_records)
    assert parsed[0].g_ind == tiny_records[0].g_ind
    assert parsed[0].instance_id == tiny_records[0].instance_id


def test_aggregates_and_tables(tiny_records):
    by_m = aggregate_records(tiny_records, "m")
    assert by_m[0]["bucket"] == "2"
    assert by_m[0]["n"] == 2
    mean, half, n = by_m[0]["cost_subopt_ind"]
    assert n == 2 and half >= 0
    by_eta = aggregate_records(tiny_records, "eta")
    assert sum(row["n"] for row in by_eta) == 2
    by_k = aggregate_records(tiny_records, "K")
    assert by_k[0]["bucket"] == "1"
    text = render_tables(tiny_records)
    assert "bucketed by eta" in text
    assert "failures: 0" in text


def test_single_record_degenerate_ci():
    records = run_benchmark(tiny_config(count=1))
    rows = aggregate_records(records, "m")
    mean, half, n = rows[0]["cost_subopt_ind"]
    assert n == 1
    assert half == 0.0


def test_failure_isolation():
    config = tiny_config(instance_files=("does/not/exist.json", ))
    records = run_benchmark(config)
    assert len(records) == 1
    assert records[0].error is not None
    assert "does/not/exist.json" == records[0].instance_id


def test_parallel_jobs_match_sequential(tiny_records):
    parallel = run_benchmark(tiny_config(jobs=2))
    assert records_csv_text(parallel) == records_csv_text(tiny_records)


def test_dp_gating_by_state_count():
    # 390,625 states, above experiments.DP_STATE_BOUND.
    config = tiny_config(count=1, m=6, cap=4)
    records = run_benchmark(config)
    record = records[0]
    assert record.error is None
    assert record.g_star is None
    assert record.cost_subopt_ind is None
    assert record.opi_vs_ind_cost is not None


def test_record_and_k_aggregate_carry_the_largest_cap(tmp_path):
    # The record kept the first machine's cap, so K = [1, 3] read as K = 1.
    path = tmp_path / "mixed-caps.json"
    save_instance(
        InstanceParameters(
            layout=build_complete_layout(2),
            lam=(0.1, 0.2),
            mu=(0.5, 0.6),
            tau=0.7,
            cap=(1, 3),
            cost=CostModel(kind=CostKind.LINEAR, c=(1.0, 1.0)),
        ),
        path,
    )
    records = run_benchmark(tiny_config(instance_files=(str(path),)))
    assert records[0].error is None
    assert records[0].cap == 3
    assert [row["bucket"] for row in aggregate_records(records, "K")] == ["3"]
