"""Where policy iteration spends its matrix products, stage by stage.

    PYTHONPATH=src python3 scripts/dp_products.py [default|held-out|SEED,...]

Runs ``dp.policy_iteration(generate_instance(seed), tol=1e-9)`` on each
seed of perfbench's dp-exact workload (its ``default`` set unless told
otherwise), one after another in this interpreter, and prints one JSON
line per seed:

- ``rounds``: evaluations in the approximate stage (at ``dp.SETTLE_TOL``)
  and in the exact stage (at ``tol``), as ``DpSolution.approximate_rounds``
  and ``DpSolution.iterations`` report them;
- ``products``: BiCGSTAB matrix products per stage (``_bordered_bicgstab``);
- ``sweeps``: each stage's evaluation total as ``evaluate_policy`` reports
  it, Krylov products plus value sweeps;
- ``give_ups``: Krylov solves per stage that returned no solution (on a
  multichain policy's singular bordered matrix, say), and ``given_up``
  the products those solves spent;
- ``g_star``, ``g_bound`` and ``residual`` (``optimality_residual``), and
  ``g_ref_gap``, |g* - g_ref| against perfbench's ``reference.json``.

A last line sums the products, sweeps, give-ups and rounds over the seeds.
Standard library and repairnet only.
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
STAGES = ("approximate", "exact")


def one_seed(seed: int, g_ref: float | None) -> dict:
    """Policy iteration on ``seed``, counted stage by stage."""
    names = ("rounds", "products", "sweeps", "give_ups", "given_up")
    counts = {name: dict.fromkeys(STAGES, 0) for name in names}
    stage = [None]
    evaluate, krylov = dp.evaluate_policy, dp._bordered_bicgstab

    def counted_evaluate(*args, **kwargs):
        stage[0] = "exact" if kwargs["tol"] == TOL else "approximate"
        result = evaluate(*args, **kwargs)
        counts["rounds"][stage[0]] += 1
        counts["sweeps"][stage[0]] += result.sweeps
        return result

    def counted_krylov(*args):
        solved, matvecs = krylov(*args)
        counts["products"][stage[0]] += matvecs
        if solved is None:
            counts["give_ups"][stage[0]] += 1
            counts["given_up"][stage[0]] += matvecs
        return solved, matvecs

    inst = generate_instance(seed)
    dp.evaluate_policy, dp._bordered_bicgstab = counted_evaluate, counted_krylov
    try:
        solution = dp.policy_iteration(inst, tol=TOL)
    finally:
        dp.evaluate_policy, dp._bordered_bicgstab = evaluate, krylov
    rounds = counts["rounds"]
    if (rounds["approximate"], rounds["exact"]) != (solution.approximate_rounds, solution.iterations):
        raise RuntimeError(f"seed {seed}: counted rounds {rounds} disagree with the result")
    return {
        "seed": seed,
        "states": inst.state_count(),
        **counts,
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
    names = ("rounds", "products", "sweeps", "give_ups")
    total = {name: dict.fromkeys(STAGES, 0) for name in names}
    for seed in seeds:
        line = one_seed(seed, g_ref.get(str(seed)))
        for name, by_stage in total.items():
            for key in STAGES:
                by_stage[key] += line[name][key]
        print(json.dumps(line), flush=True)
    print(json.dumps({"seeds": list(seeds), **total}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
