"""Command-line interface.

Subcommands: generate, solve-dp, simulate, opi, benchmark, report,
indices, verify.  All randomness is seeded.  A budget preset fixes its
mode: the default desk budgets count steps, making opi and benchmark
runs exactly reproducible, and --paper-scale's are wall-clock seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

from .dp import DEFAULT_TOL, policy_iteration, reward_optimum
from .experiments import (
    ExperimentConfig,
    read_records_csv,
    records_csv_text,
    render_tables,
    run_benchmark,
    write_aggregates,
)
from .fixtures import verify_all
from .index_policy import IndexPolicy, ModifiedIndexPolicy, index_table
from .instance import (
    STREAM_CRN,
    STREAM_OPI_OFFLINE,
    STREAM_OPI_ONLINE,
    CostKind,
    _generator,
    check_seed,
    generate_instance,
    load_instance,
    save_instance,
)
from .mdp import (
    CapacityError, check_count, check_positive, pristine_state, simulate, validate_state,
)
from .opi import (
    OpiBudget,
    desk_scale_budget,
    load_store,
    parse_state_key,
    run_opi,
    save_store,
    state_key,
)
from .polling import PollingPolicy, best_tour


@contextlib.contextmanager
def _exit_on_error(prefix: str = "", errors=ValueError):
    """Exit with ``repairnet: error: <prefix><message>`` when the block
    raises one of ``errors``, whose message names the offending field."""
    try:
        yield
    except errors as exc:
        raise SystemExit(f"repairnet: error: {prefix}{exc}") from None


def _budget_from_args(args) -> OpiBudget:
    """The preset (``desk_scale_budget``, step-count; ``OpiBudget`` with
    --paper-scale, wall-clock) with the options' overrides, in the
    preset's units; exits naming the field that ``OpiBudget`` rejects."""
    budget = OpiBudget() if args.paper_scale else desk_scale_budget()
    changes = {
        name: getattr(args, name)
        for name in ("r1", "r2", "r_off", "tau_max", "r_on", "delta")
        if getattr(args, name, None) is not None
    }
    with _exit_on_error():
        return dataclasses.replace(budget, **changes)


def _tol_option(tol: float) -> float:
    """``--tol``; exits naming it unless it is a positive finite number."""
    with _exit_on_error():
        check_positive("--tol", tol)
    return tol


def _seed_option(seed: int) -> None:
    """Exits naming ``--seed`` unless it is an integer >= 0; each command
    that takes it calls this before doing any work."""
    with _exit_on_error():
        check_seed("--seed", seed)


def cmd_generate(args) -> int:
    _seed_option(args.seed)
    with _exit_on_error():
        check_count("--count", args.count)
    kind = CostKind(args.cost_kind) if args.cost_kind else None
    out = Path(args.out)
    for i in range(args.count):
        with _exit_on_error():
            inst = generate_instance(args.seed + i, m=args.m, cap=args.cap, cost_kind=kind)
        if args.count > 1:
            out.mkdir(parents=True, exist_ok=True)
        path = out / f"instance-{args.seed + i}.json" if args.count > 1 else out
        save_instance(inst, path)
        print(f"wrote {path} (m={inst.machine_count}, K={inst.cap[0]}, "
              f"rho={inst.rho:.3f}, eta={inst.eta:.3f})")
    return 0


def cmd_solve_dp(args) -> int:
    tol = _tol_option(args.tol)
    inst = _load("--instance", args.instance, load_instance)
    with _exit_on_error(f"--instance {args.instance!r}: ", CapacityError):
        solution = policy_iteration(inst, tol=tol)
    u_star = reward_optimum(inst, solution)
    print(f"g* = {solution.g_star:.9f}")
    print(f"u* = {u_star:.9f}")
    print(f"policy-iteration rounds: {solution.iterations}")
    print(f"approximate rounds before them: {solution.approximate_rounds}")
    print(f"value sweeps in those rounds: {solution.approximate_sweeps}")
    print(f"g* error bound: {solution.g_bound:.3e}")
    if args.out:
        table = {state_key(s): a for s, a in solution.policy_table(inst).items()}
        payload = {
            "g_star": solution.g_star,
            "u_star": u_star,
            "g_bound": solution.g_bound,
            "policy": table,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _state_option(inst, option: str, text: str):
    """The state given as ``option``; exits naming the offending field when
    it is malformed or outside the instance."""
    with _exit_on_error(f"{option} {text!r}: "):
        state = parse_state_key(text)
        validate_state(inst, state)
    return state


def _start_state(inst, text: str | None):
    """The ``--start`` state, pristine at node 1 when not given."""
    return _state_option(inst, "--start", text) if text else pristine_state(inst)


def _load(option: str, path: str, load, *args):
    """``load(path, *args)``; exits naming ``option`` and ``path`` when the
    file cannot be read or does not hold what the option takes (the
    loaders' ValueError names the offending field)."""
    with _exit_on_error(f"{option} {path!r}: ", (OSError, ValueError)):
        return load(path, *args)


def _read_records(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return read_records_csv(fh)


def _polling_policy(inst, subset: str | None) -> PollingPolicy:
    """Polling on the best tour over ``--subset`` (every machine when not
    given); prints the tour, and exits naming the option when a part does
    not parse or is not a machine, or the subset is too large to search."""
    with _exit_on_error(f"--subset {subset!r}: " if subset else "--subset (every machine): "):
        machines = [int(part) for part in subset.split(",")] if subset else inst.layout.machines
        tour = best_tour(inst.layout, machines)
    print(f"tour: {tour.sequence} (cycle length {tour.cycle_length})")
    return PollingPolicy(inst, tour)


# simulate --policy: each name's rule, built from the instance and --subset.
SIMULATE_POLICIES = {
    "index": lambda inst, subset: IndexPolicy(inst),
    "modified-index": lambda inst, subset: ModifiedIndexPolicy(inst),
    "polling": _polling_policy,
}


def cmd_simulate(args) -> int:
    _seed_option(args.seed)
    inst = _load("--instance", args.instance, load_instance)
    x0 = _start_state(inst, args.start)
    with _exit_on_error():
        check_count("steps", args.steps)
    crn = _generator(args.seed, STREAM_CRN).random(args.steps)
    policy = SIMULATE_POLICIES[args.policy](inst, args.subset)
    report = simulate(inst, policy, x0, args.steps, crn=crn)
    print(report.to_json())
    return 0


def cmd_opi(args) -> int:
    _seed_option(args.seed)
    inst = _load("--instance", args.instance, load_instance)
    budget = _budget_from_args(args)
    base = ModifiedIndexPolicy(inst)
    store = None
    if args.import_store:
        store = _load("--import-store", args.import_store, load_store, inst)
    x0 = _start_state(inst, args.start)
    crn = _generator(args.seed, STREAM_CRN).random(budget.r_on)
    result = run_opi(
        inst,
        base,
        budget,
        offline_rng=_generator(args.seed, STREAM_OPI_OFFLINE),
        online_rng=_generator(args.seed, STREAM_OPI_ONLINE),
        x0=x0,
        crn=crn,
        store=store,
    )
    print(result.report.to_json())
    if args.export_store:
        save_store(result.store, args.export_store)
        print(f"wrote {args.export_store}")
    return 0


def cmd_benchmark(args) -> int:
    _seed_option(args.seed)
    budget = _budget_from_args(args)
    with _exit_on_error():
        config = ExperimentConfig(
            seed=args.seed,
            count=args.count,
            instance_files=tuple(args.instances or ()),
            m=args.m,
            cap=args.cap,
            cost_kind=CostKind(args.cost_kind) if args.cost_kind else None,
            steps=args.steps,
            budget=budget,
            run_dp=not args.no_dp,
            jobs=args.jobs,
        )
    records = run_benchmark(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "records.csv").write_text(records_csv_text(records), encoding="utf-8")
    write_aggregates(records, out)
    tables = render_tables(records)
    (out / "tables.txt").write_text(tables, encoding="utf-8")
    print(tables)
    failures = sum(1 for r in records if r.error is not None)
    print(f"wrote {out}/records.csv and aggregates")
    return 1 if failures else 0


def cmd_report(args) -> int:
    records = _load("--records", args.records, _read_records)
    if not records:
        print("no records found", file=sys.stderr)
        return 1
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_aggregates(records, out)
    print(render_tables(records))
    return 0


def cmd_indices(args) -> int:
    inst = _load("--instance", args.instance, load_instance)
    state = _state_option(inst, "--state", args.state)
    print(json.dumps(index_table(inst, state), indent=2))
    return 0


def cmd_verify(args) -> int:
    outcomes = verify_all(tol=_tol_option(args.tol))
    failed = False
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"[{status}] {outcome.name}")
        for line in outcome.details:
            print(f"    {line}")
        failed = failed or not outcome.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repairnet",
        description="Repair-and-maintenance scheduling on networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--m", type=int)
    p.add_argument("--cap", type=int, help="shared degradation cap K")
    p.add_argument("--cost-kind", choices=[k.value for k in CostKind])
    p.add_argument("--out", required=True, help="output file (count=1) or directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve-dp", help="exact policy iteration")
    p.add_argument("--instance", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", help="write the policy table as JSON")
    p.set_defaults(func=cmd_solve_dp)

    p = sub.add_parser("simulate", help="simulate one policy")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", choices=SIMULATE_POLICIES, default="index")
    p.add_argument("--subset", help="polling subset as comma-separated machine ids")
    p.add_argument("--steps", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", help="initial state as 'loc:x1,x2,...'")
    p.set_defaults(func=cmd_simulate)

    def add_budget_args(p):
        p.add_argument("--paper-scale", action="store_true",
                       help="full-scale wall-clock budgets (default: desk-scale step counts)")
        p.add_argument("--r1", type=int)
        p.add_argument("--r2", type=int)
        p.add_argument("--r-off", dest="r_off", type=int)
        p.add_argument("--tau-max", dest="tau_max", type=float,
                       help="steps per start state, seconds with --paper-scale")
        p.add_argument("--delta", type=float,
                       help="rollouts per decision, seconds with --paper-scale")

    p = sub.add_parser("opi", help="offline estimation plus online improvement run")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", help="initial state as 'loc:x1,x2,...'")
    p.add_argument("--import-store")
    p.add_argument("--export-store")
    add_budget_args(p)
    # benchmark runs the online phase for --steps, so only opi takes --r-on.
    p.add_argument("--r-on", dest="r_on", type=int)
    p.set_defaults(func=cmd_opi)

    p = sub.add_parser("benchmark", help="compare policies over an instance batch")
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--count", type=int, default=ExperimentConfig.count)
    p.add_argument("--instances", nargs="*", help="instance files instead of generation")
    p.add_argument("--m", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--cost-kind", choices=[k.value for k in CostKind])
    p.add_argument("--steps", type=int, default=ExperimentConfig.steps)
    p.add_argument("--no-dp", action="store_true")
    p.add_argument("--jobs", type=int, default=ExperimentConfig.jobs)
    p.add_argument("--out", required=True)
    add_budget_args(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("report", help="re-aggregate a records.csv")
    p.add_argument("--records", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("indices", help="dump the index table for one state")
    p.add_argument("--instance", required=True)
    p.add_argument("--state", required=True, help="state as 'loc:x1,x2,...'")
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("verify", help="run the golden fixtures")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
