"""Regenerate reference.json: dp-exact's g_ref, solved at a far tighter tol.

    PYTHONPATH=src python3 perfbench/make_reference.py

Solves every dp-exact instance (default and held-out sets) by policy
iteration at REFERENCE_TOL and records g* with ``repr`` precision.  The
benchmark's gate then requires the tol=1e-9 answer to lie within
ABS_BOUND of it; at this commit the largest gap is printed below.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import repairnet.dp as dp
import repairnet.instance as instance
from workloads import DP_TOL, WORKLOADS

REFERENCE_TOL = 1e-12
ABS_BOUND = 1e-6


def main() -> int:
    workload = WORKLOADS["dp-exact"]
    g_ref, worst = {}, 0.0
    for seed in workload.default + workload.held_out:
        inst = instance.generate_instance(seed)
        tight = dp.policy_iteration(inst, tol=REFERENCE_TOL).g_star
        loose = dp.policy_iteration(inst, tol=DP_TOL).g_star
        g_ref[str(seed)] = tight
        worst = max(worst, abs(loose - tight))
        print(f"seed {seed}: {inst.state_count()} states, g_ref {tight!r}, "
              f"|g(tol={DP_TOL:g}) - g_ref| = {abs(loose - tight):.3e}", flush=True)
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(
        {"reference_tol": REFERENCE_TOL, "abs_bound": ABS_BOUND, "g_ref": g_ref}, indent=2
    ) + "\n")
    print(f"wrote {path}; largest gap {worst:.3e}, bound {ABS_BOUND:g}")
    return 0 if worst <= ABS_BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
