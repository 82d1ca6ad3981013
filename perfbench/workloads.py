"""The four benchmark workloads: which instances, which calls, which checks.

Every workload is a fixed list of generator seeds picked by a stated rule,
applied once from seed 20000 (the ``default`` set, used while tuning) and
once from seed 30000 (the ``held_out`` set, for confirming a gain on
instances nobody tuned against).  OPI budgets are in step-count mode and
every policy of an instance runs on one common-random-number (CRN) list,
so each workload's outputs are byte-reproducible and hash to one digest.

A workload's ``run`` does the timed work for one instance and returns the
instance's deterministic outputs plus the workload's own end-to-end numbers.
It calls the library through module attributes (``mdp.simulate``, not a
name imported here), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import repairnet.dp as dp
import repairnet.experiments as experiments
import repairnet.instance as instance
import repairnet.mdp as mdp
import repairnet.opi as opi
import repairnet.polling as polling
from repairnet.index_policy import IndexPolicy, ModifiedIndexPolicy

from tracing import GateFailure, median


def philox(seed: int, stream: int) -> np.random.Generator:
    """The library's per-instance stream derivation (see repairnet.instance)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


def finite(label: str, *values) -> None:
    for value in values:
        if value is not None and not math.isfinite(value):
            raise GateFailure(f"{label}: non-finite value {value!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    rule: str
    default: tuple[int, ...]
    held_out: tuple[int, ...]
    accepts: Callable  # the selection predicate, re-checked at set-up
    bindings: tuple[str, ...]  # wrapped names the traced run must see called
    prepare: Callable  # (inst, seed) -> per-instance input made at set-up
    run: Callable  # (inst, seed, prepared) -> (outputs, numbers)
    summarize: Callable  # (per-instance numbers, outputs) -> end-to-end numbers
    digest: Callable  # outputs of one pass -> sha256 hex digest


SETUP_BINDINGS = ("repairnet.instance.generate_instance",)
SIM_BINDINGS = ("repairnet.mdp.simulate",)
OPI_BINDINGS = (
    "repairnet.opi.offline_preparatory",
    "repairnet.opi.offline_main",
    "repairnet.opi.online_run",
)
DP_BINDINGS = (
    "repairnet.dp.evaluate_policy",
    "repairnet.dp.DpModel.__init__",
    "repairnet.dp.DpModel.transition_matrix",
    "repairnet.dp.DpModel.improve",
)
POLLING_BINDINGS = ("repairnet.polling.simulate", "repairnet.polling.best_tour")


# --- crn-batch ------------------------------------------------------------
# Why: the ROADMAP yardstick and the path `repairnet benchmark` users run.
# Every module works here; in the full 20-instance batch OPI online takes
# 48% of the time, offline 29%, preparatory 9%, polling 8.5%, DP 3.8% and
# index simulation 1.2%.  Budgets are acceptance criterion 10's.  One pass
# holds two instances (~19 s on a 2-core x86 machine) because a full batch
# (~190 s) does not fit one benchmark run; `--instances` takes any others.

CRN_STEPS = 50_000
CRN_BUDGET = opi.OpiBudget(
    r1=2_000, r2=500_000, r_off=5_000, tau_max=500_000, r_on=CRN_STEPS, delta=8,
    mode=opi.STEP_COUNT,
)


def no_input(inst, seed):
    return None


def crn_list(steps: int) -> Callable:
    return lambda inst, seed: philox(seed, instance.STREAM_CRN).random(steps)


def run_crn_batch(inst, seed, prepared):
    config = experiments.ExperimentConfig(
        seed=seed, count=1, steps=CRN_STEPS, budget=CRN_BUDGET, dp_tol=1e-7
    )
    record = experiments.run_instance_benchmark(inst, config, seed, f"seed-{seed}")
    if record.error is not None:
        raise GateFailure(f"record error: {record.error}")
    finite("record", record.g_ind, record.g_opi, record.g_pol, record.g_star,
           record.u_ind, record.u_opi, record.u_pol, record.u_star)
    if record.g_star is None:
        raise GateFailure("record has no DP optimum")
    return record, {}


def summarize_crn_batch(numbers, records):
    def mean(field):
        values = [getattr(r, field) for r in records if getattr(r, field) is not None]
        return sum(values) / len(values)

    return {
        "opi_subopt_pct": (mean("cost_subopt_opi"), "%"),
        "ind_subopt_pct": (mean("cost_subopt_ind"), "%"),
        "pol_subopt_pct": (mean("cost_subopt_pol"), "%"),
        "opi_gain_pct": (mean("opi_vs_ind_cost"), "%"),
    }


def digest_crn_batch(records) -> str:
    return hashlib.sha256(experiments.records_csv_text(records).encode()).hexdigest()


# --- opi-wide -------------------------------------------------------------
# Why: the regime OPI exists for: 6 to 8 machines, state spaces DP cannot
# enumerate (seeds 20004 and 20006 have 1.6M states).  Offline estimation
# dominates here while online decisions dominate crn-batch; DP and polling
# are bypassed, so a change to either should leave it alone.  tau_max caps
# each start state's offline work at 20k steps, so the step budget, not the
# trajectory lengths, sets the work.  The rule skips caps above 3: seed
# 20005 (m=7, cap 5) takes ~11 s a pass at these budgets, most of it in
# first-visit index decisions, which would leave one pass per run.

OPI_WIDE_BUDGET = opi.OpiBudget(
    r1=2_000, r2=100_000, r_off=500, tau_max=20_000, r_on=5_000, delta=8,
    mode=opi.STEP_COUNT,
)


def run_opi_wide(inst, seed, crn):
    budget = OPI_WIDE_BUDGET
    x0 = mdp.pristine_state(inst)
    ind = mdp.simulate(inst, IndexPolicy(inst), x0, budget.r_on, crn=crn)
    base = ModifiedIndexPolicy(inst)
    offline_rng = philox(seed, instance.STREAM_OPI_OFFLINE)
    t1 = time.perf_counter()
    prep = opi.offline_preparatory(inst, base, budget, offline_rng)
    store = opi.offline_main(inst, base, prep, budget, offline_rng)
    t2 = time.perf_counter()
    report = opi.online_run(
        inst, base, store, budget, philox(seed, instance.STREAM_OPI_ONLINE), x0=x0, crn=crn
    )
    t3 = time.perf_counter()
    if ind.steps != budget.r_on or report.steps != budget.r_on:
        raise GateFailure(f"reports have {ind.steps}/{report.steps} steps, r_on={budget.r_on}")
    finite("costs", ind.average_cost, report.average_cost)
    gain = 100.0 * (ind.average_cost - report.average_cost) / ind.average_cost
    outputs = (seed, ind.average_cost, report.average_cost, report.safe_action_fraction,
               len(store.entries))
    return outputs, {"store_build_s": t2 - t1, "online_s": t3 - t2, "gain_pct": gain}


def summarize_opi_wide(numbers, outputs):
    online = sum(n["online_s"] for n in numbers)
    return {
        "store_build_s_p50": (median([n["store_build_s"] for n in numbers]), "s"),
        "online_decision_us": (1e6 * online / (len(numbers) * OPI_WIDE_BUDGET.r_on), "us"),
        "opi_gain_pct": (sum(n["gain_pct"] for n in numbers) / len(numbers), "%"),
    }


# --- dp-exact -------------------------------------------------------------
# Why: DP is 3.8% of crn-batch and all of this workload.  One instance per
# state-count band, three bands at or below DENSE_STATE_LIMIT=1024 and four
# above, so a change to either evaluation branch (or deleting the dense one)
# shows on both sides of the switch.  No simulation.  g* is checked against
# g_ref, solved once at a far tighter tol by make_reference.py.  The bands
# stop at 20,000 states: a 32,400-state instance doubled the pass and left
# two or three passes per run.  With four sparse bands the median instance
# is a sparse one (~0.15 s); the dense ones run mostly in BLAS, whose times
# track the speed probe less well (see speed.py).

DP_TOL = 1e-9
DP_BANDS = (
    (1, 150), (151, 500), (501, 1024),
    (1025, 3000), (3001, 6000), (6001, 10_000), (10_001, 20_000),
)


REFERENCE_FILE = Path(__file__).parent / "reference.json"


def dp_reference(inst, seed) -> tuple[float, float]:
    """(g_ref, bound on |g* - g_ref|) for one seed, from reference.json."""
    ref = json.loads(REFERENCE_FILE.read_text())
    return ref["g_ref"][str(seed)], ref["abs_bound"]


def run_dp_exact(inst, seed, reference):
    g_ref, bound = reference
    solution = dp.policy_iteration(inst, tol=DP_TOL)
    error = abs(solution.g_star - g_ref)
    if not error <= bound:
        raise GateFailure(f"g* {solution.g_star!r} is {error:.3e} from g_ref {g_ref!r}")
    return (seed, solution.g_star, solution.iterations), {"relerr": error / g_ref}


def summarize_dp_exact(numbers, outputs):
    return {"dp_g_relerr": (max(n["relerr"] for n in numbers), "ratio")}


# --- polling-sweep --------------------------------------------------------
# Why: simulate's kernel stepping is ~94% of the work (15 subsets at m=4,
# 50k CRN steps each), so it isolates the stepping loop and the polling
# sweep; the layer is under 10% of crn-batch and absent from dp-exact.

POLLING_STEPS = 50_000


def run_polling_sweep(inst, seed, crn):
    x0 = mdp.pristine_state(inst)
    t0 = time.perf_counter()
    ind = mdp.simulate(inst, IndexPolicy(inst), x0, POLLING_STEPS, crn=crn)
    best = polling.best_polling_report(inst, POLLING_STEPS, crn, x0=x0)
    elapsed = time.perf_counter() - t0
    table = best.metadata["subsets"]
    if ind.steps != POLLING_STEPS or best.steps != POLLING_STEPS:
        raise GateFailure(f"reports have {ind.steps}/{best.steps} steps, {POLLING_STEPS} requested")
    if best.average_cost != min(row["average_cost"] for row in table):
        raise GateFailure("polling best cost is not the minimum of its subset table")
    finite("costs", ind.average_cost, best.average_cost)
    outputs = (seed, ind.average_cost, best.average_cost, tuple(best.metadata["best_subset"]))
    return outputs, {"steps": POLLING_STEPS * (1 + len(table)), "sim_s": elapsed}


def summarize_polling_sweep(numbers, outputs):
    steps = sum(n["steps"] for n in numbers)
    return {"sim_steps_per_s": (steps / sum(n["sim_s"] for n in numbers), "steps/s")}


def digest_tuples(outputs) -> str:
    return hashlib.sha256(repr(list(outputs)).encode()).hexdigest()


WORKLOADS = {
    "crn-batch": Workload(
        name="crn-batch",
        rule="first 2 generator seeds >= base with m <= 4 (criterion 10's filter)",
        default=(20001, 20002),
        held_out=(30001, 30002),
        accepts=lambda inst: inst.machine_count <= 4,
        bindings=SETUP_BINDINGS + DP_BINDINGS + POLLING_BINDINGS + OPI_BINDINGS + (
            "repairnet.experiments.run_instance_benchmark",
            "repairnet.experiments.simulate",
            "repairnet.experiments.best_polling_report",
            "repairnet.experiments.run_opi",
            "repairnet.experiments.policy_iteration",
        ),
        prepare=no_input,  # run_instance_benchmark draws its own CRN list
        run=run_crn_batch,
        summarize=summarize_crn_batch,
        digest=digest_crn_batch,
    ),
    "opi-wide": Workload(
        name="opi-wide",
        rule="first 3 generator seeds >= base with 6 <= m <= 8 and cap <= 3",
        default=(20003, 20004, 20006),
        held_out=(30000, 30006, 30007),
        accepts=lambda inst: 6 <= inst.machine_count <= 8 and max(inst.cap) <= 3,
        bindings=SETUP_BINDINGS + SIM_BINDINGS + OPI_BINDINGS,
        prepare=crn_list(OPI_WIDE_BUDGET.r_on),
        run=run_opi_wide,
        summarize=summarize_opi_wide,
        digest=digest_tuples,
    ),
    "dp-exact": Workload(
        name="dp-exact",
        rule="first generator seed >= base in each state-count band of DP_BANDS",
        default=(20014, 20002, 20007, 20001, 20039, 20003, 20009),
        held_out=(30017, 30002, 30001, 30000, 30009, 30018, 30005),
        accepts=lambda inst: any(lo <= inst.state_count() <= hi for lo, hi in DP_BANDS),
        bindings=SETUP_BINDINGS + DP_BINDINGS + ("repairnet.dp.policy_iteration",),
        prepare=dp_reference,
        run=run_dp_exact,
        summarize=summarize_dp_exact,
        digest=digest_tuples,
    ),
    "polling-sweep": Workload(
        name="polling-sweep",
        rule="first 3 generator seeds >= base with 3 <= m <= 4",
        default=(20001, 20009, 20018),
        held_out=(30005, 30008, 30009),
        accepts=lambda inst: 3 <= inst.machine_count <= 4,
        bindings=SETUP_BINDINGS + SIM_BINDINGS + POLLING_BINDINGS + (
            "repairnet.polling.best_polling_report",
        ),
        prepare=crn_list(POLLING_STEPS),
        run=run_polling_sweep,
        summarize=summarize_polling_sweep,
        digest=digest_tuples,
    ),
}

