"""Where policy iteration spends its matrix products, stage by stage.

    PYTHONPATH=src python3 scripts/dp_products.py [default|held-out|SEED,...]

Runs ``dp.policy_iteration(generate_instance(seed), tol=1e-9)`` on each
seed of perfbench's dp-exact workload (its ``default`` set unless told
otherwise), one after another in this interpreter, and prints one JSON
line per seed:

- ``approximate``: the approximate stage's ``rounds`` and value ``sweeps``
  (one matrix product each), as ``DpSolution.approximate_rounds`` and
  ``approximate_sweeps`` report them;
- ``exact``: the exact stage's ``rounds`` (``DpSolution.iterations``), its
  BiCGSTAB matrix ``products`` (``_bordered_bicgstab``), its ``sweeps``
  as ``evaluate_policy`` reports them (Krylov products plus value
  sweeps), and its ``give_ups``, Krylov solves that returned no solution
  (on a multichain policy's singular bordered matrix, say);
- ``g_star``, ``g_bound`` and ``residual`` (``optimality_residual``), and
  ``g_ref_gap``, |g* - g_ref| against perfbench's ``reference.json``.

A last line sums each stage's counts over the seeds.  Standard library
and repairnet only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repairnet import dp
from repairnet.instance import generate_instance

# perfbench/workloads.py's dp-exact seed sets and DP_TOL.
SEEDS = {
    "default": (20014, 20002, 20007, 20001, 20039, 20003, 20009),
    "held-out": (30017, 30002, 30001, 30000, 30009, 30018, 30005),
}
TOL = 1e-9
REFERENCE_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
EXACT_COUNTS = ("rounds", "products", "sweeps", "give_ups")


def one_seed(seed: int, g_ref: float | None) -> dict:
    """Policy iteration on ``seed``, counted stage by stage."""
    exact = dict.fromkeys(EXACT_COUNTS, 0)
    evaluate, krylov = dp.evaluate_policy, dp._bordered_bicgstab

    def counted_evaluate(*args, **kwargs):
        result = evaluate(*args, **kwargs)
        exact["rounds"] += 1
        exact["sweeps"] += result.sweeps
        return result

    def counted_krylov(*args):
        solved, matvecs = krylov(*args)
        exact["products"] += matvecs
        exact["give_ups"] += solved is None
        return solved, matvecs

    inst = generate_instance(seed)
    dp.evaluate_policy, dp._bordered_bicgstab = counted_evaluate, counted_krylov
    try:
        solution = dp.policy_iteration(inst, tol=TOL)
    finally:
        dp.evaluate_policy, dp._bordered_bicgstab = evaluate, krylov
    # Only the exact stage evaluates, one evaluate_policy call per round.
    if exact["rounds"] != solution.iterations:
        raise RuntimeError(
            f"seed {seed}: {exact['rounds']} evaluations for {solution.iterations} exact rounds"
        )
    return {
        "seed": seed,
        "states": inst.state_count(),
        "approximate": {
            "rounds": solution.approximate_rounds,
            "sweeps": solution.approximate_sweeps,
        },
        "exact": exact,
        "g_star": solution.g_star,
        "g_bound": solution.g_bound,
        "residual": dp.optimality_residual(inst, solution),
        "g_ref_gap": None if g_ref is None else abs(solution.g_star - g_ref),
    }


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    chosen = argv[0] if argv else "default"
    seeds = SEEDS[chosen] if chosen in SEEDS else tuple(map(int, chosen.split(",")))
    g_ref = json.loads(REFERENCE_FILE.read_text())["g_ref"]
    total = {"approximate": {"rounds": 0, "sweeps": 0}, "exact": dict.fromkeys(EXACT_COUNTS, 0)}
    for seed in seeds:
        line = one_seed(seed, g_ref.get(str(seed)))
        for stage, counts in total.items():
            for name in counts:
                counts[name] += line[stage][name]
        print(json.dumps(line), flush=True)
    print(json.dumps({"seeds": list(seeds), **total}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
