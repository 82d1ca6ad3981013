"""Time and memory of one OPI run, and the sizes of the kernel's memos.

    PYTHONPATH=src python3 scripts/opi_memory.py 8 12 16

For each m given: the instance ``generate_instance(50000 + m, m=m, cap=3)``,
``ModifiedIndexPolicy`` as the base policy, and ``run_opi`` at the opi-wide
workload's budget (perfbench's ``OPI_WIDE_BUDGET``) in step-count mode, with
the instance's own offline, online and common-random-number streams, from
the pristine state at node 1.  Each m runs in a fresh interpreter, so its
peak RSS is that run's alone, and prints one line:

- ``opi_s``: wall time of ``run_opi``;
- ``peak_rss_mb``: the interpreter's peak resident memory;
- ``traced_mb``: memory tracemalloc counts as held after the run, from a
  second fresh interpreter that traces the same run; skipped (None) when
  the untraced peak passed ``TRACE_RSS_LIMIT_MB``, since tracing adds to
  the footprint of every block it records;
- ``memos``: the length of every dict the instance's kernel holds, by
  attribute name (``_parts`` is the condition parts, ``locals`` the
  moves and neighbourhoods, ``action_rows`` the pairs asked for
  directly), and of the base policy's row table as ``_rows_memo``;
- ``average_cost`` and ``store_entries``: the run's outputs, which a
  memory change must leave as they are.

Standard library and repairnet only.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
import tracemalloc

from repairnet.index_policy import ModifiedIndexPolicy
from repairnet.instance import (
    STREAM_CRN,
    STREAM_OPI_OFFLINE,
    STREAM_OPI_ONLINE,
    _generator,
    generate_instance,
)
from repairnet.mdp import kernel_of, pristine_state
from repairnet.opi import STEP_COUNT, OpiBudget, run_opi

# perfbench/workloads.py's OPI_WIDE_BUDGET.
BUDGET = OpiBudget(
    r1=2_000, r2=100_000, r_off=500, tau_max=20_000, r_on=5_000, delta=8, mode=STEP_COUNT
)
TRACE_RSS_LIMIT_MB = 1024


def one_run(m: int, traced: bool) -> dict:
    """One OPI run at ``m`` in this interpreter, as the dict one line prints."""
    seed = 50000 + m
    inst = generate_instance(seed, m=m, cap=3)
    base = ModifiedIndexPolicy(inst)
    crn = _generator(seed, STREAM_CRN).random(BUDGET.r_on)
    if traced:
        tracemalloc.start()
    started = time.perf_counter()
    result = run_opi(
        inst, base, BUDGET, _generator(seed, STREAM_OPI_OFFLINE),
        _generator(seed, STREAM_OPI_ONLINE), x0=pristine_state(inst), crn=crn,
    )
    opi_s = time.perf_counter() - started
    held = tracemalloc.get_traced_memory()[0] if traced else None
    kernel = kernel_of(inst)
    memos = {name: len(value) for name, value in vars(kernel).items() if isinstance(value, dict)}
    memos["_rows_memo"] = len(kernel._rows_memo.table)
    return {
        "m": m,
        "seed": seed,
        "opi_s": round(opi_s, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "traced_mb": None if held is None else round(held / 2**20, 1),
        "memos": memos,
        "average_cost": result.report.average_cost,
        "store_entries": len(result.store.entries),
    }


def child(m: int, traced: bool) -> dict:
    command = [sys.executable, __file__, "--child", str(m), str(int(traced))]
    out = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(one_run(int(argv[1]), bool(int(argv[2])))))
        return 0
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for m in map(int, argv):
        line = child(m, traced=False)
        if line["peak_rss_mb"] <= TRACE_RSS_LIMIT_MB:
            line["traced_mb"] = child(m, traced=True)["traced_mb"]
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
