"""Batch harness comparing the heuristics, with optimal baselines.

For each instance the harness simulates the index policy, the rollout
policy, and (for small machine counts) the best polling tour, all on one
shared random-number list so degradation timings coincide.  When the
state space is small enough, exact policy iteration supplies the optimal
average cost, and suboptimalities are reported under both the cost and
the reward formulation.  Everything is seeded; step-count budget mode
makes entire benchmark runs byte-reproducible.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .dp import DEFAULT_TOL, policy_iteration, reward_optimum
from .index_policy import IndexPolicy, ModifiedIndexPolicy
from .instance import (
    STREAM_CRN,
    STREAM_OPI_OFFLINE,
    STREAM_OPI_ONLINE,
    CostKind,
    InstanceParameters,
    _generator,
    check_generator_sizes,
    check_seed,
    generate_instance,
    load_instance,
)
from .mdp import check_count, check_positive, pristine_state, simulate
from .opi import OpiBudget, desk_scale_budget, run_opi
from .polling import DEFAULT_SUBSET_LIMIT, best_polling_report

# run_instance_benchmark solves DP only at or below this many states.
DP_STATE_BOUND = 200_000

RHO_BINS = ((0.1, 0.3), (0.3, 0.5), (0.5, 0.7), (0.7, 0.9), (0.9, 1.1), (1.1, 1.3), (1.3, 1.5))
ETA_BINS = ((0.1, 0.4), (0.4, 0.7), (0.7, 1.0), (1.0, 4.0), (4.0, 7.0), (7.0, 10.0))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    count: int = 10
    instance_files: tuple[str, ...] = ()
    m: int | None = None
    cap: int | None = None
    cost_kind: CostKind | None = None
    steps: int = 50_000
    budget: OpiBudget = field(default_factory=desk_scale_budget)
    run_dp: bool = True
    dp_tol: float = DEFAULT_TOL
    jobs: int = 1

    def __post_init__(self) -> None:
        check_seed("seed", self.seed)
        for name in ("count", "steps", "jobs"):
            check_count(name, getattr(self, name))
        check_positive("dp_tol", self.dp_tol)
        check_generator_sizes(self.m, self.cap)


@dataclass
class SuboptimalityRecord:
    instance_id: str
    seed: int | None
    m: int
    # The largest degradation cap K over the machines (the "K" aggregate's
    # bucket); a generated instance gives every machine the same K.
    cap: int
    cost_kind: str
    rho: float
    eta: float
    g_ind: float | None = None
    u_ind: float | None = None
    g_opi: float | None = None
    u_opi: float | None = None
    safe_fraction: float | None = None
    g_pol: float | None = None
    u_pol: float | None = None
    g_star: float | None = None
    u_star: float | None = None
    cost_subopt_ind: float | None = None
    cost_subopt_opi: float | None = None
    cost_subopt_pol: float | None = None
    reward_subopt_ind: float | None = None
    reward_subopt_opi: float | None = None
    reward_subopt_pol: float | None = None
    opi_vs_ind_cost: float | None = None
    opi_vs_ind_reward: float | None = None
    error: str | None = None


RECORD_FIELDS = [f for f in SuboptimalityRecord.__dataclass_fields__]


def _pct(diff: float, base: float) -> float | None:
    return 100.0 * diff / base if base > 0 else None


def _new_record(instance_id: str, inst: InstanceParameters | None) -> SuboptimalityRecord:
    """A record holding ``inst``'s seven instance fields, zeros and empty
    strings for an instance that could not be loaded or generated."""
    if inst is None:
        return SuboptimalityRecord(instance_id, None, 0, 0, "", 0.0, 0.0)
    return SuboptimalityRecord(
        instance_id, inst.seed, inst.machine_count, max(inst.cap), inst.cost.kind.value,
        inst.rho, inst.eta,
    )


def run_instance_benchmark(
    inst: InstanceParameters, config: ExperimentConfig, instance_seed: int, instance_id: str
) -> SuboptimalityRecord:
    """All policies on one instance, sharing one random-number list."""
    record = _new_record(instance_id, inst)
    steps = config.steps
    crn = _generator(instance_seed, STREAM_CRN).random(steps)
    x0 = pristine_state(inst)

    ind_report = simulate(inst, IndexPolicy(inst), x0, steps, crn=crn)
    record.g_ind = ind_report.average_cost
    record.u_ind = ind_report.average_reward

    if inst.machine_count <= DEFAULT_SUBSET_LIMIT:
        pol_report = best_polling_report(inst, steps, crn, x0=x0)
        record.g_pol = pol_report.average_cost
        record.u_pol = pol_report.average_reward

    budget = replace(config.budget, r_on=steps)
    opi_result = run_opi(
        inst,
        ModifiedIndexPolicy(inst),
        budget,
        offline_rng=_generator(instance_seed, STREAM_OPI_OFFLINE),
        online_rng=_generator(instance_seed, STREAM_OPI_ONLINE),
        x0=x0,
        crn=crn,
    )
    record.g_opi = opi_result.report.average_cost
    record.u_opi = opi_result.report.average_reward
    record.safe_fraction = opi_result.report.safe_action_fraction

    if config.run_dp and inst.state_count() <= DP_STATE_BOUND:
        solution = policy_iteration(inst, tol=config.dp_tol)
        record.g_star = solution.g_star
        record.u_star = reward_optimum(inst, solution)
        for name, g, u in (
            ("ind", record.g_ind, record.u_ind),
            ("opi", record.g_opi, record.u_opi),
            ("pol", record.g_pol, record.u_pol),
        ):
            if g is None:
                continue
            setattr(record, f"cost_subopt_{name}", _pct(g - record.g_star, record.g_star))
            setattr(record, f"reward_subopt_{name}", _pct(record.u_star - u, record.u_star))

    record.opi_vs_ind_cost = _pct(record.g_ind - record.g_opi, record.g_ind)
    record.opi_vs_ind_reward = (
        _pct(record.u_opi - record.u_ind, record.u_ind) if record.u_ind else None
    )
    return record


def _benchmark_one(args) -> SuboptimalityRecord:
    config, index = args
    instance_seed = config.seed + index
    instance_id = (
        config.instance_files[index] if config.instance_files else f"seed-{instance_seed}"
    )
    inst = None
    try:
        if config.instance_files:
            inst = load_instance(config.instance_files[index])
        else:
            inst = generate_instance(
                instance_seed, m=config.m, cap=config.cap, cost_kind=config.cost_kind
            )
        return run_instance_benchmark(inst, config, instance_seed, instance_id)
    except Exception as exc:  # isolate per-instance failures; the batch continues
        return replace(_new_record(instance_id, inst), error=f"{type(exc).__name__}: {exc}")


def run_benchmark(config: ExperimentConfig) -> list[SuboptimalityRecord]:
    count = len(config.instance_files) if config.instance_files else config.count
    tasks = [(config, index) for index in range(count)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            records = list(pool.map(_benchmark_one, tasks))
    else:
        records = [_benchmark_one(task) for task in tasks]
    return records


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_csv_text(records: list[SuboptimalityRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RECORD_FIELDS)
    for record in records:
        writer.writerow([_format(getattr(record, name)) for name in RECORD_FIELDS])
    return buffer.getvalue()


def read_records_csv(stream) -> list[SuboptimalityRecord]:
    """The records of a ``records_csv_text`` text.  Raises ValueError
    naming the data row (1 is the first below the header) and the column
    of a cell that does not parse."""
    reader = csv.DictReader(stream)
    records = []
    for number, row in enumerate(reader, 1):
        kwargs = {}
        for name in RECORD_FIELDS:
            raw = row.get(name, "")
            if raw == "" or raw is None:
                kwargs[name] = None
                continue
            if name in ("instance_id", "cost_kind", "error"):
                kwargs[name] = raw
                continue
            integer = name in ("seed", "m", "cap")
            parse, kind = (int, "an integer") if integer else (float, "a number")
            try:
                kwargs[name] = parse(raw)
            except ValueError:
                raise ValueError(f"row {number}, {name}: {raw!r} is not {kind}") from None
        records.append(SuboptimalityRecord(**kwargs))
    return records


def _mean_ci(values: list[float]) -> tuple[float, float, int]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0, n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = 1.96 * math.sqrt(variance / n)
    return mean, half, n


def _bucket_of(value: float, bins) -> str:
    """``value``'s bin, ``lo<= <hi`` (the last bin closed above), or the
    edge bucket named for the bound it passes: ``<lo`` below the first
    bin, ``>hi`` above the last."""
    if value < bins[0][0]:
        return f"<{bins[0][0]}"
    for lo, hi in bins:
        if lo <= value < hi or (value == hi and hi == bins[-1][1]):
            return f"{lo}<= <{hi}"
    return f">{bins[-1][1]}"


BUCKET_SPECS = {
    "m": lambda r: str(r.m),
    "rho": lambda r: _bucket_of(r.rho, RHO_BINS),
    "eta": lambda r: _bucket_of(r.eta, ETA_BINS),
    "cost_kind": lambda r: r.cost_kind,
    "K": lambda r: str(r.cap),
}

AGGREGATE_METRICS = [
    "cost_subopt_pol",
    "reward_subopt_pol",
    "cost_subopt_ind",
    "reward_subopt_ind",
    "cost_subopt_opi",
    "reward_subopt_opi",
    "opi_vs_ind_cost",
    "opi_vs_ind_reward",
    "safe_fraction",
]


def aggregate_records(records: list[SuboptimalityRecord], dimension: str) -> list[dict]:
    """Per-bucket mean and 95 percent half-width of every metric; every
    record without an error lands in one bucket."""
    key_of = BUCKET_SPECS[dimension]
    buckets: dict[str, list[SuboptimalityRecord]] = {}
    for record in records:
        if record.error is not None:
            continue
        buckets.setdefault(key_of(record), []).append(record)
    rows = []
    for key in sorted(buckets):
        members = buckets[key]
        row: dict = {"bucket": key, "n": len(members)}
        for metric in AGGREGATE_METRICS:
            values = [getattr(r, metric) for r in members if getattr(r, metric) is not None]
            if values:
                mean, half, n = _mean_ci(values)
                row[metric] = (mean, half, n)
            else:
                row[metric] = None
        rows.append(row)
    return rows


def write_aggregate_csv(rows: list[dict], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    header = ["bucket", "n"]
    for metric in AGGREGATE_METRICS:
        header.extend([f"{metric}_mean", f"{metric}_halfwidth", f"{metric}_n"])
    writer.writerow(header)
    for row in rows:
        out = [row["bucket"], row["n"]]
        for metric in AGGREGATE_METRICS:
            cell = row[metric]
            if cell is None:
                out.extend(["", "", ""])
            else:
                out.extend([repr(cell[0]), repr(cell[1]), cell[2]])
        writer.writerow(out)


def write_aggregates(records: list[SuboptimalityRecord], out_dir: Path) -> None:
    """``aggregate_<dimension>.csv`` in ``out_dir`` for every dimension of
    ``BUCKET_SPECS``."""
    for dimension in BUCKET_SPECS:
        rows = aggregate_records(records, dimension)
        with open(out_dir / f"aggregate_{dimension}.csv", "w", encoding="utf-8", newline="") as fh:
            write_aggregate_csv(rows, fh)


def render_tables(records: list[SuboptimalityRecord]) -> str:
    """Human-readable aggregates, one block per bucketing dimension."""
    lines = []
    failures = [r for r in records if r.error is not None]
    lines.append(f"instances: {len(records)}  failures: {len(failures)}")
    for record in failures:
        lines.append(f"  FAILED {record.instance_id}: {record.error}")
    for dimension in BUCKET_SPECS:
        rows = aggregate_records(records, dimension)
        if not rows:
            continue
        lines.append("")
        lines.append(f"== bucketed by {dimension} ==")
        for row in rows:
            lines.append(f"{dimension}={row['bucket']}  [n={row['n']}]")
            for metric in AGGREGATE_METRICS:
                cell = row[metric]
                if cell is None:
                    continue
                mean, half, n = cell
                lines.append(f"    {metric:24s} {mean:10.4f} +/- {half:.4f}  (n={n})")
    return "\n".join(lines) + "\n"
