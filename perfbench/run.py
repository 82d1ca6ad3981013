"""repairnet benchmark: one workload, closed loop, one client, one process at a time.

    python3 perfbench/run.py --workload crn-batch --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each pass of the workload (every instance once) runs in a fresh
interpreter started by ``worker.py``; passes repeat while the next one is
expected to finish within ``--seconds`` (at least one pass, two with
``--trace 1``).  Set-up is timed from the outside, interpreter start
included, and repeated in set-up-only interpreters until there are
SETUP_SAMPLES samples.  No pools and no threads: one worker runs at a time.

``--seed`` sets the order the instances run in (a different order in each
pass, so no one order weighs on a run's medians); the instance set itself is
``--instances`` (``default``, ``held-out`` or a comma list of generator
seeds), so outputs and their digest repeat exactly across seeds and passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, with the
traced/untraced wall-time ratio as ``bench.trace_overhead_pct``; its spans go
to ``perfbench/out/`` as JSON lines.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import selftest
import speed
import tracing
from tracing import median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every worker is stopped by then
WORKLOADS = ("crn-batch", "opi-wide", "dp-exact", "polling-sweep")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "instance_s_p50": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def run_worker(options: list[str], deadline: float, setup_only: bool = False):
    """(set-up seconds at reference speed, parsed result) of one fresh worker."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(HERE / "worker.py"), *options]
    if setup_only:
        command.append("--setup-only")
    before = speed.calibrate()
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {options} ran past the {RUN_LIMIT_S:.0f} s limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise BenchError(f"worker {options} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return speed.at_reference_speed(setup, (before, result["calibration_s"])), result


def check_bindings(workload: str, result: dict) -> None:
    """A traced pass must see every wrapped name its workload calls."""
    silent = [b for b in result["expected_bindings"] if not result["binding_calls"].get(b)]
    if silent:
        raise BenchError(
            f"{workload}: no spans recorded for {', '.join(silent)}; the library no longer "
            "calls these names, so the wrappers in perfbench/tracing.py need updating"
        )


def write_spans(workload: str, seed: int, traced: list[dict]) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as sink:
        for pass_index, result in enumerate(traced):
            for span in result["spans"]:
                sink.write(json.dumps(dict(span, **{"pass": pass_index})) + "\n")
    return path


def scaled_layer_metrics(result: dict) -> dict[str, float]:
    """A traced pass's per-layer metrics, times at reference speed."""
    metrics = tracing.layer_metrics(result["spans"])
    for name, value in metrics.items():
        if tracing.PER_LAYER_UNITS[name] in ("s", "us"):
            metrics[name] = value / result["speed_factor"]
    return metrics


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:36s} {value:>16.6g} {unit:8s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--instances", default="default",
                        help="default, held-out, or comma-separated generator seeds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repairnet" / "__init__.py").is_file():
        print(f"error: no repairnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    selftest.check_all()

    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    options = ["--workload", args.workload, "--instances", args.instances]
    passes = []  # (traced, set-up seconds, result, seconds including spawn)
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        # Each pass runs the instances in its own order, drawn from --seed.
        order = ["--order-seed", str(args.seed * 1000 + len(passes))]
        setup, result = run_worker(options + order + ["--trace", str(int(traced))], deadline)
        passes.append((traced, setup, result, time.perf_counter() - t0))
        longest = max(p[3] for p in passes)
        if len(passes) >= 1 + args.trace and time.perf_counter() - started + longest > args.seconds:
            break

    plain = [p[2] for p in passes if not p[0]]
    traced_results = [p[2] for p in passes if p[0]]
    setups = [p[1] for p in passes if not p[0]]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        order = ["--order-seed", str(args.seed * 1000 + len(setups))]
        setups.append(run_worker(options + order + ["--trace", "0"], deadline, setup_only=True)[0])

    everything = [p[2] for p in passes]
    executions = [i for r in everything for i in r["instances"]]
    failed = sum(1 for i in executions if i["failures"])
    digests = sorted({r["digest"] for r in everything})
    seeds = [i["seed"] for i in plain[0]["instances"]]

    facts = dict(machine_facts(), **plain[0]["versions"])
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload: {args.workload}  instances ({args.instances}): "
          f"{','.join(map(str, seeds))}  seed: {args.seed}  passes: {len(plain)} untraced, "
          f"{len(traced_results)} traced")
    for i in executions:
        for failure in i["failures"]:
            print(f"  FAILED seed {i['seed']}: {failure}")

    walls = [r["wall_s"] for r in plain]
    per_instance = {
        seed: median([i["seconds"] for r in plain for i in r["instances"] if i["seed"] == seed])
        for seed in seeds
    }
    end_to_end = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "instance_s_p50": median(per_instance.values()),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    print("end-to-end (untraced):")
    show("setup_s", end_to_end["setup_s"], "s",
         f"median of {len(setups)}, quartiles {percentile(setups, 25):.4f}-{percentile(setups, 75):.4f}")
    show("wall_s", end_to_end["wall_s"], "s", f"median of {len(walls)} passes")
    show("wall_raw_s", median([r["wall_raw_s"] for r in plain]), "s",
         "as clocked, before scaling to reference speed")
    show("instance_s_p50", end_to_end["instance_s_p50"], "s", f"median of {len(seeds)} instances")
    show("peak_rss_mb", end_to_end["peak_rss_mb"], "MB")
    show("failed_frac", failed / len(executions), "ratio", f"{failed} of {len(executions)}")
    if plain[0]["summary"]:
        for name, (_, unit) in plain[0]["summary"].items():
            values = [r["summary"][name][0] for r in plain if r["summary"]]
            show(name, median(values), unit)
    print(f"  output sha256: {' '.join(digests)}"
          + ("" if len(digests) == 1 else "  (passes disagree)"))

    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in end_to_end.items()}
    if args.trace:
        for result in traced_results:
            check_bindings(args.workload, result)
        per_pass = [scaled_layer_metrics(r) for r in traced_results]
        layers = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
        residuals = [r["residual_max"] for r in traced_results if r["residual_max"] is not None]
        layers["dp.residual.max"] = max(residuals) if residuals else 0.0
        layers["bench.trace_overhead_pct"] = 100.0 * (
            median([r["wall_s"] for r in traced_results]) / median(walls) - 1.0
        )
        path = write_spans(args.workload, args.seed, traced_results)
        print(f"per-layer (traced, median of {len(traced_results)} passes, times at reference "
              f"speed; clocked spans in {path.relative_to(ROOT)}):")
        for name, unit in tracing.PER_LAYER_UNITS.items():
            show(name, layers[name], unit)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}

    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": len(executions),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
