"""Paired in-process A/B of one OPI phase between two source trees.

    python3 scripts/opi_ab.py A_TREE B_TREE [--phase online_run]
        [--seeds 20001,20002] [--rounds 12]

Each tree is a source checkout whose ``src/repairnet`` is imported in this
one interpreter as its own package (``repairnet_a`` and ``repairnet_b``).
Both sides build their value stores from one ``ValueStoreEntry`` class, side
A's: a store that mixes two copies of the class defeats CPython's attribute
specialization on the entries and reads one side several percent slow.

Per seed, in turn, each side generates ``generate_instance(seed)``, takes
``ModifiedIndexPolicy`` as the base policy and the instance's own offline,
online and common-random-number streams at the crn-batch workload's budgets
(perfbench's ``CRN_BUDGET``), from the pristine state at node 1, as
``experiments.run_instance_benchmark`` runs OPI.  The phases before
``--phase`` run once, untimed; the phase itself then runs once untimed, so
both sides time warm memos, and ``--rounds`` times on each side, alternating
which side goes first.  Each timed run starts from a copy of the same
inputs: the generator state the phase reads on from and, for
``online_run``, the store's entries.

Prints one JSON line per seed and one for all seeds: each side's median
and quartiles of process time, the share of rounds side B took less time,
the median of B's time over A's in the same round, and the sha256 of each
side's outputs (the preparation for ``offline_preparatory``, the store for
``offline_main``, the report and the final store for ``online_run``).
Exits 1 when the two sides' outputs differ.

Standard library, numpy and the two trees only.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

PHASES = ("offline_preparatory", "offline_main", "online_run")


def load_tree(tree: Path, name: str):
    """``tree``'s ``src/repairnet`` imported as the package ``name``; returns
    its ``opi`` module."""
    package = tree / "src" / "repairnet"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.opi")


class Side:
    """One tree's modules and, for the current seed, the phase's inputs."""

    def __init__(self, opi, entry_class):
        self.opi = opi
        # One entry class for both sides; the phases look it up at call time.
        opi.ValueStoreEntry = entry_class
        package = opi.__name__.rpartition(".")[0]
        self.instance = importlib.import_module(f"{package}.instance")
        self.mdp = importlib.import_module(f"{package}.mdp")
        self.policies = importlib.import_module(f"{package}.index_policy")

    def prepare(self, seed: int, phase: str) -> None:
        opi, instance = self.opi, self.instance
        self.inst = inst = instance.generate_instance(seed)
        self.base = self.policies.ModifiedIndexPolicy(inst)
        self.budget = opi.OpiBudget(
            r1=2_000, r2=500_000, r_off=5_000, tau_max=500_000, r_on=50_000, delta=8,
            mode=opi.STEP_COUNT,
        )
        self.crn = instance._generator(seed, instance.STREAM_CRN).random(self.budget.r_on)
        self.online_rng = instance._generator(seed, instance.STREAM_OPI_ONLINE)
        self.offline_rng = instance._generator(seed, instance.STREAM_OPI_OFFLINE)
        self.prep = self.store = None
        if phase != "offline_preparatory":
            self.prep = opi.offline_preparatory(inst, self.base, self.budget, self.offline_rng)
        if phase == "online_run":
            self.store = opi.offline_main(inst, self.base, self.prep, self.budget, self.offline_rng)

    def run(self, phase: str) -> tuple[float, str]:
        """One run of ``phase`` on fresh copies of the inputs: its process
        time and the sha256 of its outputs."""
        opi, inst, base, budget = self.opi, self.inst, self.base, self.budget
        if phase == "offline_preparatory":
            args = (inst, base, budget, copy.deepcopy(self.offline_rng))
        elif phase == "offline_main":
            args = (inst, base, self.prep, budget, copy.deepcopy(self.offline_rng))
        else:
            store = opi.ValueStore(inst, self.store.reference, self.store.g_base)
            entry = opi.ValueStoreEntry
            store.entries.update(
                (x, entry(e.h, e.ss, e.w, e.s)) for x, e in self.store.entries.items()
            )
            args = (inst, base, store, budget, copy.deepcopy(self.online_rng))
        gc.collect()
        started = time.process_time()
        if phase == "online_run":
            out = opi.online_run(*args, x0=self.mdp.pristine_state(inst), crn=self.crn)
        else:
            out = getattr(opi, phase)(*args)
        used = time.process_time() - started
        return used, digest(opi, phase, out, args)


def digest(opi, phase: str, out, args) -> str:
    if phase == "offline_preparatory":
        payload = [out.g_base, [opi.state_key(z) for z in out.z_all],
                   [opi.state_key(z) for z in out.z_core]]
    else:
        store = out if phase == "offline_main" else args[2]
        payload = [[x, e.h, e.ss, e.w, e.s] for x, e in sorted(store.entries.items())]
        if phase == "online_run":
            payload = [out.to_json(), payload]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def summary(times: dict[str, list[float]], **label) -> dict:
    a, b = times["a"], times["b"]

    def spread(xs):
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return {"median_s": round(q2, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4)}

    return {
        **label,
        "rounds": len(a),
        "a": spread(a),
        "b": spread(b),
        "b_faster": f"{sum(y < x for x, y in zip(a, b))}/{len(a)}",
        "b_over_a_median": round(statistics.median(y / x for x, y in zip(a, b)), 4),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("a_tree", type=Path)
    parser.add_argument("b_tree", type=Path)
    parser.add_argument("--phase", choices=PHASES, default="online_run")
    parser.add_argument("--seeds", default="20001,20002")
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error(f"--rounds {args.rounds}: needs at least 2 rounds, one per order")
    opi_a = load_tree(args.a_tree, "repairnet_a")
    sides = {"a": Side(opi_a, opi_a.ValueStoreEntry)}
    sides["b"] = Side(load_tree(args.b_tree, "repairnet_b"), opi_a.ValueStoreEntry)

    every = {"a": [], "b": []}
    match = True
    for seed in map(int, args.seeds.split(",")):
        times = {"a": [], "b": []}
        hashes = {"a": set(), "b": set()}
        for side in sides.values():
            side.prepare(seed, args.phase)
            side.run(args.phase)
        for r in range(args.rounds):
            for name in ("a", "b") if r % 2 == 0 else ("b", "a"):
                used, sha = sides[name].run(args.phase)
                times[name].append(used)
                hashes[name].add(sha)
        # Each side's runs must agree with one another and with the other side's.
        same = hashes["a"] == hashes["b"] and len(hashes["a"]) == 1
        match = match and same
        line = summary(times, phase=args.phase, seed=seed)
        line["sha256"] = {name: sorted(h) for name, h in hashes.items()}
        line["match"] = same
        print(json.dumps(line), flush=True)
        for name in every:
            every[name] += times[name]
    line = summary(every, phase=args.phase, seed="all")
    line["match"] = match
    print(json.dumps(line), flush=True)
    return 0 if match else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
