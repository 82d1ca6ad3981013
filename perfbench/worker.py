"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload crn-batch --instances default \
        --order-seed 7 --trace 0 [--setup-only]

Set-up (imports, instance generation, per-instance inputs such as CRN
lists) ends with a line ``READY`` on standard output, so the parent can time
set-up from the outside, interpreter start included.  The timed phase then
runs every instance once and prints one JSON line with per-instance times,
the pass's output digest, failures, peak memory and, with ``--trace 1``, the
recorded spans.  Each instance's time is also given at reference machine
speed (see speed.py).  A fresh interpreter per pass keeps the library's
per-instance caches (``index_policy._calculator`` is an ``lru_cache``)
cold, as they are for a user's run.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import sys
import traceback

import speed
import tracing


def resolve(workload, spec: str) -> tuple[int, ...]:
    if spec == "default":
        return workload.default
    if spec == "held-out":
        return workload.held_out
    return tuple(int(part) for part in spec.split(","))


def run_one(workload, inst, seed, prepared):
    """(outputs, numbers, failures) of one instance; a failure is counted, not fatal."""
    try:
        outputs, numbers = workload.run(inst, seed, prepared)
        return outputs, numbers, []
    except tracing.GateFailure as exc:
        return None, None, [str(exc)]
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return None, None, [f"{type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--instances", default="default")
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import repairnet.dp as dp
    import repairnet.instance as instance
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer(record=bool(args.trace))
    tracing.install(tracer)

    seeds = resolve(workload, args.instances)
    order = list(seeds)
    random.Random(args.order_seed).shuffle(order)
    instances, prepared = {}, {}
    for seed in order:
        tracer.instance = f"seed-{seed}"
        inst = instance.generate_instance(seed)
        if not workload.accepts(inst):
            raise SystemExit(f"seed {seed} does not meet {workload.name}'s rule: {workload.rule}")
        instances[seed] = inst
        prepared[seed] = workload.prepare(inst, seed)
    print("READY", flush=True)
    calibration = speed.calibrate()
    if args.setup_only:
        print(json.dumps({"calibration_s": calibration}))
        return 0

    results = {}
    with speed.Probe() as probe:
        for seed in order:
            tracer.instance = f"seed-{seed}"
            mark = probe.start()
            outputs, numbers, failures = run_one(workload, instances[seed], seed, prepared[seed])
            seconds, scaled = probe.stop(mark)
            failures += tracer.failures.get(tracer.instance, [])
            results[seed] = (outputs, numbers, failures, seconds, scaled)

    tracer.paused = True  # residuals are diagnostics, outside the timed phase
    residuals = [dp.optimality_residual(inst, sol) for inst, sol in tracer.solutions]

    ok = [seed for seed in seeds if not results[seed][2]]
    outputs = [results[seed][0] for seed in ok]
    print(json.dumps({
        "wall_s": sum(r[4] for r in results.values()),
        "wall_raw_s": sum(r[3] for r in results.values()),
        "calibration_s": calibration,
        "speed_factor": probe.factor(),
        "instances": [
            {"seed": seed, "seconds": results[seed][4], "raw_seconds": results[seed][3],
             "failures": results[seed][2]}
            for seed in seeds
        ],
        "digest": workload.digest(outputs),
        "summary": workload.summarize([results[s][1] for s in ok], outputs) if ok else {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "binding_calls": tracer.binding_calls,
        "expected_bindings": list(workload.bindings),
        "residual_max": max(residuals) if residuals else None,
        "spans": tracer.spans,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
