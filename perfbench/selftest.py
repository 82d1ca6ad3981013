"""Self-test of the benchmark's own arithmetic on synthetic data.

Percentiles, self time, the per-layer totals and the speed scaling are
checked against hand-worked values.

    python3 perfbench/selftest.py

run.py also calls ``check_all()`` before every benchmark run; it takes
milliseconds and needs neither numpy nor the library.
"""

from __future__ import annotations

import json
import random
import statistics
from pathlib import Path

import speed
import tracing


def expect(condition: bool) -> None:
    if not condition:
        raise AssertionError("perfbench self-test failed; see the traceback for the check")


def _span(span_id, name, start, end, parent=None, **counts):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent,
            "instance": "seed-1", "counts": counts}


def check_percentile() -> None:
    expect(tracing.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5)
    expect(tracing.percentile([1.0, 2.0, 3.0, 4.0], 25) == 1.75)
    expect(tracing.percentile([7.0], 90) == 7.0)
    rng = random.Random(5)
    for size in (2, 3, 10, 11):
        values = [rng.uniform(0, 10) for _ in range(size)]
        quartiles = statistics.quantiles(values, n=4, method="inclusive")
        for q, expected in zip((25, 50, 75), quartiles):
            expect(abs(tracing.percentile(values, q) - expected) < 1e-12)
        expect(abs(tracing.median(values) - statistics.median(values)) < 1e-12)


def check_self_time() -> None:
    # A [0, 10] has children B [1, 4] and C [3, 6], which overlap on [3, 4];
    # D [1.5, 2] is B's child and E [12, 13] a second root.
    spans = [
        _span(0, "A", 0.0, 10.0),
        _span(1, "B", 1.0, 4.0, parent=0),
        _span(2, "C", 3.0, 6.0, parent=0),
        _span(3, "D", 1.5, 2.0, parent=1),
        _span(4, "E", 12.0, 13.0),
    ]
    expect(tracing.self_times(spans) == {0: 5.0, 1: 2.5, 2: 3.0, 3: 0.5, 4: 1.0})
    expect(tracing.covered(0.0, 10.0, [(-1.0, 2.0), (9.0, 11.0)]) == 3.0)


def check_layer_metrics() -> None:
    spans = [
        _span(0, "experiments.run_instance_benchmark", 0.0, 10.0),
        _span(1, "mdp.simulate", 0.5, 1.5, parent=0, steps=1000, policy="IndexPolicy"),
        _span(2, "polling.best_polling_report", 2.0, 5.0, parent=0, subsets=3),
        _span(3, "polling.best_tour", 2.0, 2.5, parent=2),
        _span(4, "mdp.simulate", 2.5, 4.5, parent=2, steps=4000, policy="PollingPolicy"),
        _span(5, "opi.online_run", 5.0, 9.0, parent=0, decisions=2000, store_entries=50,
              safe_frac=0.5, safe_frac_q4=0.75),
        _span(6, "dp.evaluate_policy", 9.0, 9.5, parent=0, sweeps=30, dense=1),
        _span(7, "dp.evaluate_policy", 9.5, 9.75, parent=0, sweeps=10, dense=0),
    ]
    m = tracing.layer_metrics(spans)
    expect(set(m) | {"dp.residual.max", "bench.trace_overhead_pct"} == set(tracing.PER_LAYER_UNITS))
    expect(m["experiments.run_instance_benchmark.s"] == 10.0)
    expect(m["experiments.self_s"] == 10.0 - 1.0 - 3.0 - 4.0 - 0.75)
    expect(m["polling.self_s"] == 3.0 - 0.5 - 2.0)
    expect(m["mdp.simulate.index.us_per_step"] == 1000.0)
    expect(m["mdp.simulate.polling.us_per_step"] == 500.0)
    expect(m["mdp.simulate.steps"] == 5000)
    expect(m["opi.online.us_per_decision"] == 2000.0)
    expect(m["opi.safe_frac.q4"] == 0.75)
    expect(m["dp.sweeps_per_round"] == 20.0)
    expect((m["dp.evals.dense"], m["dp.evals.sparse"]) == (1, 1))
    expect(m["dp.improve.s"] == 0.0)


def check_speed_scaling() -> None:
    ref = speed.CALIBRATION_REF_S
    expect(abs(speed.at_reference_speed(3.0, [ref, 2 * ref, 3 * ref]) - 1.5) < 1e-12)
    expect(abs(speed.at_reference_speed(3.0, [ref]) - 3.0) < 1e-12)


def check_benchmark_json() -> None:
    """BENCHMARK.json, when present, names the metrics the code reports."""
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not path.is_file():
        return
    import run

    spec = json.loads(path.read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS)
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS)
    expect(tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS)


def check_all() -> None:
    check_percentile()
    check_self_time()
    check_layer_metrics()
    check_speed_scaling()
    check_benchmark_json()


if __name__ == "__main__":
    check_all()
    print("perfbench self-test passed")
