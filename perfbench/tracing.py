"""Spans recorded around repairnet's public functions, and their arithmetic.

The benchmark does not instrument the library from the inside.  Instead it
replaces each function at the name its caller looks it up by (for example
``repairnet.experiments.simulate``, the binding ``run_instance_benchmark``
calls) with a wrapper that records a span: name, start, end, parent span and
instance id, plus a few counts read off the arguments and the result.  Spans
stay in memory until the run ends.

The same wrappers carry the correctness checks that can only be made inside
a call tree the benchmark does not own (the steps of each ``simulate`` report
and the polling minimum inside ``run_instance_benchmark``).  With recording
off they run those checks and nothing else, so traced and untraced passes
share one code path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100] (numpy's default rule)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty list")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    reach = start
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


class GateFailure(Exception):
    """An output failed one of the benchmark's correctness checks."""


@dataclass
class Tracer:
    """In-memory span recorder; ``record=False`` keeps only the checks."""

    record: bool
    instance: str = ""
    spans: list[dict] = field(default_factory=list)
    binding_calls: dict[str, int] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)
    solutions: list = field(default_factory=list)  # (instance, DpSolution) pairs
    paused: bool = False
    _stack: list[int] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.setdefault(self.instance, []).append(message)

    def call(self, binding: str, name: str, fn: Callable, args, kwargs, inspect):
        if self.paused:
            return fn(*args, **kwargs)
        self.binding_calls[binding] = self.binding_calls.get(binding, 0) + 1
        if not self.record:
            result = fn(*args, **kwargs)
            inspect(self, args, kwargs, result, {})
            return result
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "instance": self.instance,
            "binding": binding,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        counts: dict = {}
        inspect(self, args, kwargs, result, counts)
        if counts:
            span["counts"] = counts
        return result


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs.get(name)


def _no_counts(tracer, args, kwargs, result, counts) -> None:
    pass


def _simulate(tracer, args, kwargs, result, counts) -> None:
    steps = _arg(args, kwargs, 3, "steps")
    if result.steps != steps:
        tracer.fail(f"simulate reported {result.steps} steps, {steps} requested")
    if not math.isfinite(result.average_cost):
        tracer.fail(f"simulate reported a non-finite cost {result.average_cost!r}")
    counts["steps"] = steps
    counts["policy"] = type(_arg(args, kwargs, 1, "policy")).__name__


def _best_polling_report(tracer, args, kwargs, result, counts) -> None:
    table = result.metadata["subsets"]
    best = min(row["average_cost"] for row in table)
    if result.average_cost != best:
        tracer.fail(f"polling best cost {result.average_cost!r} is not the table minimum {best!r}")
    counts["subsets"] = len(table)


def _offline_preparatory(tracer, args, kwargs, result, counts) -> None:
    counts["start_states"] = len(result.z_all)


def _offline_main(tracer, args, kwargs, result, counts) -> None:
    counts["store_entries"] = len(result.entries)


def _online_run(tracer, args, kwargs, result, counts) -> None:
    budget = _arg(args, kwargs, 3, "budget")
    store = _arg(args, kwargs, 2, "store")
    if result.steps != budget.r_on:
        tracer.fail(f"online_run reported {result.steps} steps, r_on={budget.r_on}")
    counts["decisions"] = budget.r_on
    counts["store_entries"] = len(store.entries)
    counts["safe_frac"] = result.safe_action_fraction
    counts["safe_frac_q4"] = result.metadata["safe_by_quarter"][3]


def _policy_iteration(tracer, args, kwargs, result, counts) -> None:
    if not math.isfinite(result.g_star):
        tracer.fail(f"policy iteration returned a non-finite g* {result.g_star!r}")
    counts["rounds"] = result.iterations
    if tracer.record:
        tracer.solutions.append((_arg(args, kwargs, 0, "inst"), result))


def _model_init(tracer, args, kwargs, result, counts) -> None:
    counts["states"] = args[0].n


def _evaluate_policy(tracer, args, kwargs, result, counts) -> None:
    import repairnet.dp as dp

    model = kwargs.get("model")
    n = model.n if model is not None else args[0].state_count()
    counts["sweeps"] = result.sweeps
    counts["dense"] = int(n <= dp.DENSE_STATE_LIMIT)


# (module, attribute, span name, inspector).  Each entry is the name a caller
# looks the function up by; rebinding one of them in the library (say, a new
# ``from .x import f``) makes the wrapper see no calls, which the traced run
# reports as an error.
BINDINGS: list[tuple[str, str, str, Callable]] = [
    ("repairnet.instance", "generate_instance", "instance.generate_instance", _no_counts),
    ("repairnet.experiments", "run_instance_benchmark", "experiments.run_instance_benchmark", _no_counts),
    ("repairnet.experiments", "simulate", "mdp.simulate", _simulate),
    ("repairnet.experiments", "best_polling_report", "polling.best_polling_report", _best_polling_report),
    ("repairnet.experiments", "run_opi", "opi.run_opi", _no_counts),
    ("repairnet.experiments", "policy_iteration", "dp.policy_iteration", _policy_iteration),
    ("repairnet.mdp", "simulate", "mdp.simulate", _simulate),
    ("repairnet.polling", "simulate", "mdp.simulate", _simulate),
    ("repairnet.polling", "best_tour", "polling.best_tour", _no_counts),
    ("repairnet.polling", "best_polling_report", "polling.best_polling_report", _best_polling_report),
    ("repairnet.opi", "offline_preparatory", "opi.offline_preparatory", _offline_preparatory),
    ("repairnet.opi", "offline_main", "opi.offline_main", _offline_main),
    ("repairnet.opi", "online_run", "opi.online_run", _online_run),
    ("repairnet.dp", "policy_iteration", "dp.policy_iteration", _policy_iteration),
    ("repairnet.dp", "evaluate_policy", "dp.evaluate_policy", _evaluate_policy),
    ("repairnet.dp", "DpModel.__init__", "dp.model_build", _model_init),
    ("repairnet.dp", "DpModel.transition_matrix", "dp.transition_matrix", _no_counts),
    ("repairnet.dp", "DpModel.improve", "dp.improve", _no_counts),
]


def install(tracer: Tracer) -> None:
    """Replace every binding in BINDINGS with a recording wrapper."""
    import functools
    import importlib

    for module_name, attribute, name, inspect in BINDINGS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf)
        binding = f"{module_name}.{attribute}"

        def wrapper(*args, _fn=fn, _binding=binding, _name=name, _inspect=inspect, **kwargs):
            return tracer.call(_binding, _name, _fn, args, kwargs, _inspect)

        setattr(owner, leaf, functools.wraps(fn)(wrapper))


# Per-layer metrics of one traced pass, in BENCHMARK.json's order.
PER_LAYER_UNITS = {
    "experiments.run_instance_benchmark.s": "s",
    "experiments.self_s": "s",
    "instance.generate_instance.s": "s",
    "mdp.simulate.index.s": "s",
    "mdp.simulate.index.us_per_step": "us",
    "mdp.simulate.polling.us_per_step": "us",
    "mdp.simulate.steps": "count",
    "polling.best_polling_report.s": "s",
    "polling.self_s": "s",
    "polling.best_tour.s": "s",
    "polling.subsets": "count",
    "opi.offline_preparatory.s": "s",
    "opi.offline_main.s": "s",
    "opi.online_run.s": "s",
    "opi.online.us_per_decision": "us",
    "opi.start_states": "count",
    "opi.store_entries.offline": "count",
    "opi.store_entries.online": "count",
    "opi.safe_frac": "ratio",
    "opi.safe_frac.q4": "ratio",
    "dp.policy_iteration.s": "s",
    "dp.model_build.s": "s",
    "dp.transition_matrix.s": "s",
    "dp.evaluate_policy.s": "s",
    "dp.improve.s": "s",
    "dp.states": "count",
    "dp.pi_rounds": "count",
    "dp.sweeps": "count",
    "dp.sweeps_per_round": "count",
    "dp.evals.dense": "count",
    "dp.evals.sparse": "count",
    "dp.residual.max": "cost",
    "bench.trace_overhead_pct": "%",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one pass's spans (layers a workload skips read 0).

    ``dp.residual.max`` and ``bench.trace_overhead_pct`` need more than one
    pass's spans; the caller fills them in.
    """
    selfs = self_times(spans)

    def named(name, policy=None):
        return [s for s in spans if s["name"] == name
                and (policy is None or s["counts"]["policy"] == policy)]

    def seconds(group):
        return sum(s["end"] - s["start"] for s in group)

    def count(group, key):
        return sum(s["counts"][key] for s in group)

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    def mean(group, key):
        return per(count(group, key), len(group))

    index = named("mdp.simulate", "IndexPolicy")
    tours = named("mdp.simulate", "PollingPolicy")
    runs = named("experiments.run_instance_benchmark")
    reports = named("polling.best_polling_report")
    online = named("opi.online_run")
    evaluations = named("dp.evaluate_policy")
    dense = count(evaluations, "dense")
    return {
        "experiments.run_instance_benchmark.s": seconds(runs),
        "experiments.self_s": sum(selfs[s["id"]] for s in runs),
        "instance.generate_instance.s": seconds(named("instance.generate_instance")),
        "mdp.simulate.index.s": seconds(index),
        "mdp.simulate.index.us_per_step": per(seconds(index), count(index, "steps"), 1e6),
        "mdp.simulate.polling.us_per_step": per(seconds(tours), count(tours, "steps"), 1e6),
        "mdp.simulate.steps": count(named("mdp.simulate"), "steps"),
        "polling.best_polling_report.s": seconds(reports),
        "polling.self_s": sum(selfs[s["id"]] for s in reports),
        "polling.best_tour.s": seconds(named("polling.best_tour")),
        "polling.subsets": count(reports, "subsets"),
        "opi.offline_preparatory.s": seconds(named("opi.offline_preparatory")),
        "opi.offline_main.s": seconds(named("opi.offline_main")),
        "opi.online_run.s": seconds(online),
        "opi.online.us_per_decision": per(seconds(online), count(online, "decisions"), 1e6),
        "opi.start_states": count(named("opi.offline_preparatory"), "start_states"),
        "opi.store_entries.offline": count(named("opi.offline_main"), "store_entries"),
        "opi.store_entries.online": count(online, "store_entries"),
        "opi.safe_frac": mean(online, "safe_frac"),
        "opi.safe_frac.q4": mean(online, "safe_frac_q4"),
        "dp.policy_iteration.s": seconds(named("dp.policy_iteration")),
        "dp.model_build.s": seconds(named("dp.model_build")),
        "dp.transition_matrix.s": seconds(named("dp.transition_matrix")),
        "dp.evaluate_policy.s": seconds(evaluations),
        "dp.improve.s": seconds(named("dp.improve")),
        "dp.states": count(named("dp.model_build"), "states"),
        "dp.pi_rounds": count(named("dp.policy_iteration"), "rounds"),
        "dp.sweeps": count(evaluations, "sweeps"),
        "dp.sweeps_per_round": per(count(evaluations, "sweeps"), len(evaluations)),
        "dp.evals.dense": dense,
        "dp.evals.sparse": len(evaluations) - dense,
    }
