"""The benchmark under ``perfbench/`` wraps library functions by their
module and attribute names and reads some module constants.  These checks
make a library change that breaks the harness (a renamed function, a
deleted constant, a new import that bypasses a wrapper) fail in the test
suite, not only in a benchmark run."""

import importlib
import json
import os
import subprocess
import sys

from conftest import PERFBENCH, load_tracing

ROOT = PERFBENCH.parent


def test_every_wrapped_name_resolves():
    for module_name, attribute, _, _ in load_tracing().BINDINGS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attribute}"


def test_traced_dp_pass_sees_every_expected_binding():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        str(PERFBENCH / "worker.py"),
        "--workload", "dp-exact",
        "--instances", "20014",
        "--order-seed", "0",
        "--trace", "1",
    ]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert [i["failures"] for i in result["instances"]] == [[]]
    calls = result["binding_calls"]
    assert result["expected_bindings"]
    for binding in result["expected_bindings"]:
        assert calls.get(binding, 0) > 0, binding
