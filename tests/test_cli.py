import json
import re
from dataclasses import replace

import pytest

from repairnet.cli import _budget_from_args, build_parser, main
from repairnet.experiments import BUCKET_SPECS
from repairnet.instance import generate_instance, two_machine_instance, load_instance, save_instance
from repairnet.mdp import STATE_BOUND
from repairnet.opi import STEP_COUNT, WALL_CLOCK, OpiBudget, desk_scale_budget


@pytest.fixture
def two_machine_file(tmp_path):
    path = tmp_path / "two_machines.json"
    save_instance(two_machine_instance(), path)
    return str(path)


def test_generate_and_load(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main(["generate", "--seed", "5", "--m", "2", "--cap", "1", "--out", str(out)])
    assert code == 0
    inst = load_instance(out)
    assert inst.machine_count == 2
    assert "wrote" in capsys.readouterr().out


def test_generate_batch(tmp_path):
    out = tmp_path / "batch"
    code = main(["generate", "--seed", "3", "--count", "3", "--m", "2", "--out", str(out)])
    assert code == 0
    assert len(list(out.glob("instance-*.json"))) == 3


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--m", "0", "m: 0 is not a machine count in 1..25"),
        ("--cap", "0", "cap: 0 is not a degradation cap >= 1"),
        ("--count", "0", "--count: 0 is not a positive count"),
        ("--count", "-2", "--count: -2 is not a positive count"),
    ],
    ids=["m", "cap", "count-0", "count-minus-2"],
)
@pytest.mark.parametrize("count", ["1", "3"])
def test_generate_exits_naming_a_bad_size(tmp_path, flag, value, message, count):
    # --m 0 used to end in a LayoutError traceback, --cap 0 in a ValueError
    # one, and --count 0 or -2 exited 0 having written nothing.  A second
    # --count overrides the first.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--seed", "5", "--count", count, flag, value, "--out", str(out)])
    assert str(exc.value) == f"repairnet: error: {message}"
    assert not out.exists()


def test_solve_dp_command(two_machine_file, tmp_path, capsys):
    out = tmp_path / "solution.json"
    code = main(["solve-dp", "--instance", two_machine_file, "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "g* = 1.17" in printed
    assert "g* error bound: " in printed
    payload = json.loads(out.read_text())
    assert payload["policy"]["1:2,1"] == 2
    assert 0.0 <= payload["g_bound"] <= 1e-8


def test_solve_dp_reports_the_rounds_of_each_stage(two_machine_file, capsys):
    assert main(["solve-dp", "--instance", two_machine_file]) == 0
    printed = capsys.readouterr().out
    assert re.search(r"^policy-iteration rounds: [1-9]\d*$", printed, re.M)
    assert re.search(r"^approximate rounds before them: [1-9]\d*$", printed, re.M)
    assert re.search(r"^value sweeps in those rounds: [1-9]\d*$", printed, re.M)
    assert main(["solve-dp", "--instance", two_machine_file, "--tol", "0.01"]) == 0
    printed = capsys.readouterr().out
    assert "approximate rounds before them: 0\nvalue sweeps in those rounds: 0\n" in printed


def test_simulate_command(two_machine_file, capsys):
    code = main(
        ["simulate", "--instance", two_machine_file, "--policy", "index", "--steps", "2000"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["steps"] == 2000


def test_simulate_polling_command(two_machine_file, capsys):
    code = main(
        ["simulate", "--instance", two_machine_file, "--policy", "polling", "--steps", "1000"]
    )
    assert code == 0
    assert "tour" in capsys.readouterr().out


def test_opi_command_with_store_export(two_machine_file, tmp_path, capsys):
    store_path = tmp_path / "store.json"
    code = main(
        [
            "opi", "--instance", two_machine_file, "--seed", "2",
            "--r1", "200", "--r2", "2000", "--r-off", "40",
            "--tau-max", "1e9", "--r-on", "1500", "--delta", "1",
            "--export-store", str(store_path),
        ]
    )
    assert code == 0
    assert store_path.exists()
    payload = json.loads(store_path.read_text())
    assert "entries" in payload
    del payload["entries"]
    store_path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["opi", "--instance", two_machine_file, "--import-store", str(store_path)])
    assert str(exc.value).startswith(
        f"repairnet: error: --import-store {str(store_path)!r}: root.entries: "
    )


BUDGET_FLAG_CASES = [
    ("--r1", "0", "r1"),
    ("--r2", "0", "r2"),
    ("--r-off", "-1", "r_off"),
    ("--r-on", "0", "r_on"),
    ("--tau-max", "0", "tau_max"),
    ("--tau-max", "nan", "tau_max"),
    ("--delta", "-1", "delta"),
    ("--delta", "nan", "delta"),
    ("--delta", "inf", "delta"),
    # The desk preset counts rollouts a decision, so a fraction is refused.
    ("--delta", "0.5", "delta"),
]


@pytest.mark.parametrize(
    "flag, value, field, command",
    [
        (*case, command)
        for command in ("opi", "benchmark")
        for case in BUDGET_FLAG_CASES
        # benchmark has no --r-on: see test_benchmark_refuses_r_on.
        if (command, case[0]) != ("benchmark", "--r-on")
    ],
)
def test_budget_flags_are_checked(two_machine_file, tmp_path, command, flag, value, field):
    args = [command, flag, value]
    if command == "opi":
        args += ["--instance", two_machine_file]
    else:
        args += ["--instances", two_machine_file, "--out", str(tmp_path / "bench")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert str(exc.value).startswith(f"repairnet: error: {field}: ")
    assert not (tmp_path / "bench").exists()



def test_benchmark_refuses_r_on(two_machine_file, tmp_path, capsys):
    # The benchmark's online phase runs for --steps; an --r-on there would
    # change nothing in its records.
    out = tmp_path / "bench"
    args = ["benchmark", "--instances", two_machine_file, "--out", str(out), "--r-on", "5"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments: --r-on 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["opi", "benchmark"])
def test_budget_mode_is_not_an_option(two_machine_file, tmp_path, capsys, command):
    # Each preset carries its mode, so a mode flag could only restate it or
    # contradict it: step-count with --paper-scale ran int(0.01) = 0
    # rollouts a decision.
    out = tmp_path / "bench"
    args = [command, "--budget-mode", "step-count"]
    if command == "opi":
        args += ["--instance", two_machine_file]
    else:
        args += ["--instances", two_machine_file, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget-mode step-count" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["opi", "benchmark"])
def test_budget_presets_carry_their_mode(command):
    required = ["--instance", "inst.json"] if command == "opi" else ["--out", "out"]

    def budget(*flags):
        return _budget_from_args(build_parser().parse_args([command, *required, *flags]))

    assert budget() == desk_scale_budget() and budget().mode == STEP_COUNT
    assert budget("--paper-scale") == OpiBudget() and OpiBudget().mode == WALL_CLOCK
    # Overrides keep the preset's mode, so they are read in its units.
    flags = ["--r1", "7", "--r2", "8", "--r-off", "9", "--tau-max", "2.5", "--delta", "3"]
    fields = dict(r1=7, r2=8, r_off=9, tau_max=2.5, delta=3)
    if command == "opi":
        flags += ["--r-on", "6"]
        fields["r_on"] = 6
    assert budget(*flags) == replace(desk_scale_budget(), **fields)
    assert budget("--paper-scale", *flags) == replace(OpiBudget(), **fields)


def test_simulate_polling_exits_naming_the_subset_when_too_large(tmp_path):
    # Without --subset the tour covers all nine machines, which the
    # brute-force search refuses; that used to end in a traceback.
    path = tmp_path / "inst.json"
    save_instance(generate_instance(1, m=9), path)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--instance", str(path), "--policy", "polling", "--steps", "10"])
    assert str(exc.value) == (
        "repairnet: error: --subset (every machine): "
        "brute-force tour search limited to 8 machines, got 9"
    )


def test_solve_dp_exits_naming_an_instance_above_the_state_bound(tmp_path):
    # Used to end in a CapacityError traceback.
    path = tmp_path / "inst.json"
    save_instance(generate_instance(3, m=12, cap=5), path)
    with pytest.raises(SystemExit) as exc:
        main(["solve-dp", "--instance", str(path)])
    assert str(exc.value) == (
        f"repairnet: error: --instance {str(path)!r}: state space has 54419558400 states, "
        f"above the bound of {STATE_BOUND}"
    )

@pytest.mark.parametrize(
    "command, option, content, reason",
    [
        (["simulate"], "--instance", None, "No such file"),
        (["simulate"], "--instance", '{"schema_version": 1}', "root.adjacency: missing"),
        (["solve-dp"], "--instance", None, "No such file"),
        (["opi"], "--instance", "[]", "root: expected a JSON object"),
        (["indices", "--state", "1:0,0"], "--instance", None, "No such file"),
        (["opi", "--instance", "INSTANCE"], "--import-store", None, "No such file"),
        (["opi", "--instance", "INSTANCE"], "--import-store", "{", "Expecting"),
        (["report"], "--records", None, "No such file"),
        (["report"], "--records", "m\nx\n", "row 1, m: 'x' is not an integer"),
        (["report"], "--records", "cap\n1\nabc\n", "row 2, cap: 'abc' is not an integer"),
        (["report"], "--records", "g_ind\n0.5\nlow\n", "row 2, g_ind: 'low' is not a number"),
    ],
    ids=[
        "simulate-missing", "simulate-malformed", "solve-dp-missing", "opi-malformed",
        "indices-missing", "import-store-missing", "import-store-malformed",
        "records-missing", "records-malformed", "records-bad-integer", "records-bad-number",
    ],
)
def test_file_options_exit_naming_the_option(
    two_machine_file, tmp_path, command, option, content, reason
):
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    argv = [two_machine_file if arg == "INSTANCE" else arg for arg in command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, str(path)])
    message = str(exc.value)
    assert message.startswith(f"repairnet: error: {option} {str(path)!r}: ")
    assert reason in message


# Each command with an option given as '': the option and the reason the
# message gives.  Each used to run as if the option were absent: from the
# pristine state, over every machine, without writing the store or the
# table, or rerunning the offline phases instead of importing a store; and
# generate and benchmark wrote into the working directory.
EMPTY_VALUES = [
    (["simulate", "--instance", "INSTANCE", "--steps", "10"], "--start", "invalid literal"),
    (["simulate", "--instance", "INSTANCE", "--steps", "10", "--policy", "polling"],
     "--subset", "invalid literal"),
    (["opi", "--instance", "INSTANCE", "--r-on", "10"], "--start", "invalid literal"),
    (["opi", "--instance", "INSTANCE", "--r-on", "10"], "--export-store", "an empty path"),
    (["opi", "--instance", "INSTANCE", "--r-on", "10"], "--import-store", "No such file"),
    (["solve-dp", "--instance", "INSTANCE"], "--out", "an empty path"),
    (["report", "--records", "RECORDS"], "--out", "an empty path"),
    (["generate", "--m", "2", "--cap", "1"], "--out", "an empty path"),
    (["benchmark", "--m", "2", "--cap", "1", "--steps", "100"], "--out", "an empty path"),
]


@pytest.mark.parametrize(
    "command, option, reason", EMPTY_VALUES,
    ids=[f"{command[0]}{option}" for command, option, _ in EMPTY_VALUES],
)
def test_an_empty_option_value_exits_naming_the_option(
    two_machine_file, tmp_path, capsys, monkeypatch, command, option, reason
):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    records = work / "records.csv"
    records.write_text("m\n2\n")
    names = {"INSTANCE": two_machine_file, "RECORDS": str(records)}
    with pytest.raises(SystemExit) as exc:
        main([names.get(arg, arg) for arg in command] + [f"{option}="])
    message = str(exc.value)
    assert message.startswith(f"repairnet: error: {option} '': ")
    assert reason in message
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in work.iterdir()) == ["records.csv"]


# Each command with an output path it cannot write: the option and the
# message.  opi and solve-dp used to end in a FileNotFoundError traceback,
# and generate and benchmark in a FileExistsError one, after the work.
BAD_OUTPUTS = [
    (["opi", "--instance", "INSTANCE", "--r-on", "10"], "--export-store", "missing/store.json",
     "directory 'missing' does not exist"),
    (["solve-dp", "--instance", "INSTANCE"], "--out", "missing/policy.json",
     "directory 'missing' does not exist"),
    (["solve-dp", "--instance", "INSTANCE"], "--out", ".", "is a directory"),
    (["generate", "--count", "2", "--m", "2", "--cap", "1"], "--out", "taken",
     "'taken' is not a directory"),
    (["benchmark", "--m", "2", "--cap", "1", "--steps", "100"], "--out", "taken/bench",
     "'taken' is not a directory"),
    (["report", "--records", "missing.csv"], "--out", "taken", "'taken' is not a directory"),
]


@pytest.mark.parametrize(
    "command, option, path, reason", BAD_OUTPUTS,
    ids=[f"{command[0]}{option}-{path}" for command, option, path, _ in BAD_OUTPUTS],
)
def test_an_output_path_is_checked_before_any_work(
    two_machine_file, tmp_path, capsys, monkeypatch, command, option, path, reason
):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "taken").write_text("")
    argv = [two_machine_file if arg == "INSTANCE" else arg for arg in command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, path])
    assert str(exc.value) == f"repairnet: error: {option} {path!r}: {reason}"
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in work.iterdir()) == ["taken"]


@pytest.mark.parametrize("steps", ["0", "-1"])
@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_steps_exit_naming_the_option(two_machine_file, tmp_path, command, steps):
    # simulate used to die inside numpy ("negative dimensions are not
    # allowed") for -1, and both commands with a traceback for 0.
    out = tmp_path / "bench"
    args = [command, "--steps", steps]
    if command == "simulate":
        args += ["--instance", two_machine_file]
    else:
        args += ["--instances", two_machine_file, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert str(exc.value) == f"repairnet: error: steps: {steps} is not a positive count"
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "simulate", "opi", "benchmark"])
def test_seed_exits_naming_the_option_before_any_work(two_machine_file, tmp_path, capsys, command):
    # simulate and opi used to die with numpy's traceback ("expected
    # non-negative integer"), generate exited without naming --seed, and
    # benchmark wrote a records.csv whose every row held that error.
    out = tmp_path / "out"
    args = {
        "generate": ["--out", str(out)],
        "simulate": ["--instance", two_machine_file, "--steps", "10"],
        "opi": ["--instance", two_machine_file, "--r-on", "10"],
        "benchmark": ["--m", "2", "--cap", "1", "--steps", "100", "--out", str(out)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "-1", *args])
    assert str(exc.value) == "repairnet: error: --seed: -1 is not a non-negative integer"
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--count", "0"), ("--jobs", "-2"), ("--jobs", "0")])
def test_benchmark_counts_exit_naming_the_option(tmp_path, flag, value):
    # --count 0 used to write an empty records.csv and exit 0, and
    # --jobs -2 ran serially without a word.
    out = tmp_path / "bench"
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", "--m", "2", "--cap", "1", flag, value, "--out", str(out)])
    field = flag[2:]
    assert str(exc.value) == f"repairnet: error: {field}: {value} is not a positive count"
    assert not out.exists()


def test_indices_command(two_machine_file, capsys):
    code = main(["indices", "--instance", two_machine_file, "--state", "1:2,1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decision"] == 2


def test_benchmark_and_report_commands(tmp_path, capsys):
    out = tmp_path / "bench"
    args = [
        "benchmark", "--seed", "900", "--count", "1", "--m", "2", "--cap", "1",
        "--steps", "4000",
        "--r1", "200", "--r2", "2000", "--r-off", "40", "--tau-max", "1e9", "--delta", "1",
        "--out", str(out),
    ]
    assert main(args) == 0
    records_path = out / "records.csv"
    assert records_path.exists()
    assert (out / "aggregate_eta.csv").exists()
    capsys.readouterr()
    assert main(["report", "--records", str(records_path), "--out", str(out / "re")]) == 0
    assert "bucketed by m" in capsys.readouterr().out
    # Both commands write every dimension's aggregates, byte for byte alike.
    for dimension in BUCKET_SPECS:
        name = f"aggregate_{dimension}.csv"
        assert (out / "re" / name).read_bytes() == (out / name).read_bytes()
    # A records.csv with its header and no rows has nothing to report.
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(records_path.read_text().splitlines(keepends=True)[0])
    assert main(["report", "--records", str(header_only)]) == 1
    assert capsys.readouterr().err == "no records found\n"


def test_benchmark_failed_instance_exit_code(tmp_path, capsys):
    args = [
        "benchmark", "--instances", "missing.json",
        "--r1", "100", "--r2", "1000", "--r-off", "20", "--tau-max", "1e9", "--delta", "1",
        "--out", str(tmp_path / "bench"),
    ]
    assert main(args) == 1
    assert "FAILED missing.json" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["solve-dp", "--instance", "missing.json"], ["verify"]])
@pytest.mark.parametrize("tol", ["-1e-9", "0", "nan"])
def test_tol_must_be_a_positive_finite_number(command, tol):
    with pytest.raises(SystemExit) as exc:
        main(command + [f"--tol={tol}"])
    message = f"repairnet: error: --tol: {float(tol)!r} is not a positive finite number"
    assert str(exc.value) == message


def test_verify_command(capsys):
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 6
