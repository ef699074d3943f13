"""Command-line interface: reports, side files, exit codes."""

from __future__ import annotations

import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import tracemalloc

import pytest

from socsir import cli, scenarios
from socsir.cli import main
from socsir.config import load_config
from socsir.integrator import observables_for
from socsir.output import render_svg, write_csv
from socsir.scenarios import run_scenario

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

MA_CFG = str(DATA / "ma_basic.json")
MB_CFG = str(DATA / "mb_switching.json")
MIXED_CFG = str(DATA / "mixed_switch.json")

SUBCOMMANDS = [
    "simulate",
    "mixed",
    "r0",
    "stability",
    "feasibility",
    "bifurcation",
    "sensitivity",
    "scan-participation",
]


def _r0_flags(**extra):
    argv = [
        "r0",
        "--model",
        "ma",
        "--beta1",
        "0.0042",
        "--beta2",
        "0.0009",
        "--kappa",
        "0.0006",
        "--rho",
        "0.75",
    ]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    return argv


def test_help_lists_every_subcommand_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out
    for command in SUBCOMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: socsir {command} ")


def test_r0_ma(capsys):
    assert main(_r0_flags()) == 0
    out = capsys.readouterr().out
    assert "R0 = 5.625" in out
    assert "B_rho = 0.003375" in out


def test_r0_mb(capsys):
    argv = [
        "r0",
        "--model",
        "mb",
        "--beta1",
        "0.009",
        "--beta2",
        "0.0012",
        "--kappa",
        "0.0009",
        "--alpha1",
        "0.01",
        "--alpha2",
        "0.001",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "rho = 0.0909090909" in out
    assert "R0 = 2.12121212" in out


def test_flag_cross_validation(capsys):
    # rho belongs to ma, alphas to mb; mixing them up is a usage error
    argv = _r0_flags()
    argv[argv.index("ma")] = "mb"
    assert main(argv) == 2
    assert "alpha" in capsys.readouterr().err

    assert main(_r0_flags(alpha1=0.1)) == 2
    no_rho = [a for a in _r0_flags() if a not in ("--rho", "0.75")]
    assert main(no_rho) == 2
    # one message for every wrong combination names both sets of flags
    assert capsys.readouterr().err.splitlines() == [
        "error: --model ma takes the class-split flag(s) --rho, got --rho --alpha1",
        "error: --model ma takes the class-split flag(s) --rho, got none",
    ]
    argv = [a for a in _r0_flags(alpha2=0.1) if a not in ("--rho", "0.75")]
    argv[argv.index("ma")] = "mb"
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: --model mb takes the class-split flag(s) --alpha1 --alpha2, "
        "got --alpha2\n"
    )


def test_validation_exit_code(capsys):
    bad = _r0_flags()
    bad[bad.index("0.0042")] = "0.0001"  # beta1 < beta2
    assert main(bad) == 2
    assert "error" in capsys.readouterr().err


def test_stability_report(capsys):
    argv = _r0_flags()
    argv[0] = "stability"
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "verdict = unstable" in out.lower()
    assert "DFE: S1 = 75, S2 = 25" in out


def test_stability_splits_any_population(capsys):
    # 0.4 * N has no float complement in N; the DFE split still sums to N
    argv = _r0_flags(N=473797.3256195704)
    argv[0] = "stability"
    argv[argv.index("--rho") + 1] = "0.4"
    assert main(argv) == 0
    assert "verdict = " in capsys.readouterr().out


def test_simulate_writes_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "run.csv"
    svg_path = tmp_path / "run.svg"
    argv = [
        "simulate",
        "--config",
        MA_CFG,
        "--csv",
        str(csv_path),
        "--svg",
        str(svg_path),
    ]
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert "model = ma" in report
    assert "R0 = 56.25" in report
    assert csv_path.read_text().startswith("t,S1,S2,Ia,Is,R,I,N\n")
    assert svg_path.read_text().startswith("<svg")


def test_simulate_report_to_file(tmp_path):
    out_path = tmp_path / "report.txt"
    assert main(["simulate", "--config", MB_CFG, "--out", str(out_path)]) == 0
    assert "model = mb" in out_path.read_text()


def test_mixed_subcommand(capsys):
    assert main(["mixed", "--config", MIXED_CFG]) == 0
    out = capsys.readouterr().out
    assert "switch at t = 1000" in out
    assert "model = mb" in out


def test_mixed_split_without_float_complement(tmp_path, capsys):
    # at t_switch, 0.27 * S has no float complement in S
    doc = json.loads(pathlib.Path(MIXED_CFG).read_text())
    doc["mixed"]["rho_split"] = 0.27
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(doc))
    csv_path = tmp_path / "mixed.csv"
    assert main(["mixed", "--config", str(cfg), "--csv", str(csv_path)]) == 0
    assert "switch at t = 1000" in capsys.readouterr().out
    assert len(csv_path.read_text().splitlines()) == 2002


def test_mixed_requires_mixed_block(capsys):
    # the command calls run_mixed, whose refusal the report prints
    assert main(["mixed", "--config", MA_CFG]) == 2
    assert capsys.readouterr().err == (
        'error: the composite scenario needs a config with a "mixed" block\n'
    )


def test_config_errors_exit_4(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 4
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["simulate", "--config", str(broken)]) == 4
    stray = tmp_path / "stray.json"
    doc = json.loads(pathlib.Path(MA_CFG).read_text())
    doc["params"]["alpha1"] = 0.5
    stray.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(stray)]) == 4
    err_lines = capsys.readouterr().err.splitlines()
    assert sum(1 for l in err_lines if l.startswith("error")) == 3


@pytest.mark.parametrize("key", ["params.beta1", "time.t1", "init"])
def test_missing_keys_exit_2(tmp_path, capsys, key):
    doc = json.loads(pathlib.Path(MA_CFG).read_text())
    if key == "init":
        del doc["init"]
    else:
        block, field = key.split(".")
        del doc[block][field]
    cfg = tmp_path / "missing.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: missing required key") and key in err


def test_numeric_errors_exit_3(tmp_path, capsys):
    # a step size far above the dynamics scale drives a compartment negative
    doc = {
        "model": "ma",
        "params": {
            "beta1": 0.9,
            "beta2": 0.5,
            "lambda": 0.65,
            "gamma": 0.0,
            "kappa": 0.9,
            "rho": 0.5,
            "N": 100.0,
        },
        "init": {"S1": 49.5, "S2": 49.5, "Is": 1.0, "Ia": 0.0, "R": 0.0},
        "time": {"t1": 1000.0, "dt": 100.0},
    }
    cfg = tmp_path / "stiff.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert "at t = " in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--csv", "--svg", "--out"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, flag):
    target = str(tmp_path / "no-such-dir" / "file")
    assert main(["simulate", "--config", MA_CFG, flag, target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no-such-dir" in err


@pytest.mark.parametrize(
    "time_block",
    [
        {"t1": float("inf")},
        {"t0": float("-inf"), "t1": 10.0},
        {"t0": float("nan"), "t1": 10.0},
        {"t1": 10.0, "dt": float("nan")},
    ],
)
def test_non_finite_time_exits_2(tmp_path, time_block):
    # infinite times used to loop forever, so each case runs in a separate
    # process with a timeout: a regression fails instead of hanging
    done = _simulate_with_times(tmp_path, time_block)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "finite" in done.stderr


@pytest.mark.parametrize("key", ["t0", "t1", "dt"])
def test_time_past_the_float_range_exits_2_at_load(tmp_path, capsys, key):
    # a JSON number past the float range parses to inf; the config loader
    # rejects it, naming the key, before anything runs
    doc = json.loads(pathlib.Path(MA_CFG).read_text())
    doc["time"] = {"t0": 0.0, "t1": 10.0, "dt": 1.0}
    doc["time"][key] = "PLACEHOLDER"
    cfg = tmp_path / "times.json"
    cfg.write_text(json.dumps(doc).replace('"PLACEHOLDER"', "1e400"))
    assert main(["simulate", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: time.{key} must be finite, got inf\n"


def _socsir(*argv):
    return subprocess.run(
        [sys.executable, "-m", "socsir", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=20,
    )


def _simulate_with_times(tmp_path, time_block):
    doc = json.loads(pathlib.Path(MA_CFG).read_text())
    doc["time"] = time_block
    cfg = tmp_path / "times.json"
    cfg.write_text(json.dumps(doc))
    return _socsir("simulate", "--config", str(cfg))


def test_step_cap_exits_2(tmp_path):
    # 10**9 steps are finite but would store records without bound; the
    # cap rejects the run before its first step
    done = _simulate_with_times(tmp_path, {"t1": 1e9, "dt": 1})
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "1000000 steps" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["bifurcation", "--model", "ma", "--kappa", "0.5"],
        ["scan-participation", "--preset", "masks", "--capacity", "80"],
    ],
)
def test_grid_steps_cap_exits_2(argv):
    # without the cap the scan runs 10,001 simulations, so this runs in a
    # separate process with a timeout
    done = _socsir(*argv, "--steps", "10001")
    assert done.returncode == 2
    assert done.stderr == "error: --steps must be at most 10000, got 10001\n"


def test_feasibility_report(capsys):
    argv = [
        "feasibility",
        "--model",
        "ma",
        "--rho",
        "0.25",
        "--kappa",
        "0.5",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "type = 1" in out
    assert "(0.5, 0.5)" in out and "(1, 0.333333333)" in out


def test_bifurcation_report_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    argv = [
        "bifurcation",
        "--model",
        "mb",
        "--kappa",
        "0.3",
        "--steps",
        "9",
        "--csv",
        str(csv_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "breakpoint between rho" in out
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "rho,type"
    assert len(rows) == 10
    # MB grid lives in (0, 0.5): steps 9 puts points at k/20
    assert rows[1].startswith("0.05,")


def test_failing_command_prints_no_report(tmp_path, capsys):
    # the report is written last, so a side file that cannot be written
    # leaves stdout empty; bifurcation used to print its report first
    argv = ["bifurcation", "--model", "ma", "--kappa", "0.5", "--steps", "3"]
    assert main([*argv, "--csv", str(tmp_path / "no-such-dir" / "x.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write") and "no-such-dir" in err


def test_bifurcation_no_breakpoint(capsys):
    assert main(["bifurcation", "--model", "mb", "--kappa", "0.6", "--steps", "5"]) == 0
    assert "no breakpoint" in capsys.readouterr().out


def test_bifurcation_steps_floor(capsys):
    assert main(["bifurcation", "--model", "ma", "--kappa", "0.5", "--steps", "1"]) == 2


def test_sensitivity_report(capsys):
    argv = _r0_flags()
    argv[0] = "sensitivity"
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Upsilon_rho = 0.733333333" in out
    assert "ordering case = C" in out
    assert "beta2 < rho < beta1" in out
    assert "finite-diff max relative error" in out


UNDERFLOW_ARGV = [
    # 2*h*r0 underflows to zero
    ["--beta1", "1e-323", "--beta2", "5e-324", "--rho", "0.5", "--kappa", "1"],
    # the closed-form index of rho underflows to zero
    ["--beta1", "1", "--beta2", "5e-324", "--rho", "0.9", "--kappa", "1"],
]


@pytest.mark.parametrize("rates", UNDERFLOW_ARGV)
def test_sensitivity_underflow_exits_3(rates):
    # these used to end in a ZeroDivisionError traceback (exit 1)
    done = _socsir("sensitivity", "--model", "ma", *rates)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("error: the rates are too small")
    assert "h=1e-06" in done.stderr


def test_sensitivity_mb_with_nearly_equal_alphas(capsys):
    # a central-difference step carries alpha1 below alpha2 here; the
    # check used to raise OrderError naming alphas the user never gave
    argv = "sensitivity --model mb --beta1 0.5 --beta2 0.1 --kappa 0.5"
    argv += " --alpha1 0.1 --alpha2 0.0999999"
    assert main(argv.split()) == 0
    out, err = capsys.readouterr()
    assert "finite-diff max relative error" in out and err == ""


@pytest.mark.parametrize("command", ["r0", "stability"])
def test_overflowing_r0_exits_3(command):
    # R0 = 0.75 / 5e-324 overflows; it used to be reported as inf
    done = _socsir(command, "--model", "ma", "--beta1", "1", "--beta2", "0.5",
                   "--rho", "0.5", "--kappa", "5e-324")
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == (
        "error: R0 = B_rho / kappa overflows the float range: "
        "B_rho = 0.75, kappa = 5e-324\n"
    )


@pytest.mark.parametrize(
    ("command", "config"),
    [("simulate", MA_CFG), ("mixed", MIXED_CFG)],
    ids=["simulate", "mixed"],
)
def test_run_summary_with_overflowing_r0_exits_3(tmp_path, command, config):
    # the run summary's R0 used to be printed as inf with exit 0
    doc = json.loads(pathlib.Path(config).read_text())
    doc["params"]["kappa"] = 5e-324
    doc["time"]["t1"] = 1020.0
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(doc))
    csv = tmp_path / "run.csv"
    done = _socsir(command, "--config", str(cfg), "--csv", str(csv))
    assert done.returncode == 3
    assert done.stdout == "" and not csv.exists()
    assert done.stderr.startswith(
        "error: R0 = B_rho / kappa overflows the float range: B_rho = "
    )
    assert done.stderr.endswith(", kappa = 5e-324\n")


def test_cli_import_loads_no_process_machinery():
    # the scan's workers send raw doubles, not pickles, and the value types
    # are NamedTuples, so neither dataclasses nor inspect loads; start-up
    # stays lean
    code = (
        "import sys, socsir.cli; "
        "print(sorted(m for m in ('pickle', 'multiprocessing', "
        "'concurrent.futures', 'dataclasses', 'inspect') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_simulate_and_mixed_load_no_analysis_modules(tmp_path):
    # the feasibility and sensitivity handlers import their modules, so a
    # run never compiles them
    out = tmp_path / "report.txt"
    code = (
        "import sys\n"
        "from socsir.cli import main\n"
        f"assert main(['simulate', '--config', {MA_CFG!r}, '--out', {str(out)!r}]) == 0\n"
        f"assert main(['mixed', '--config', {MIXED_CFG!r}, '--out', {str(out)!r}]) == 0\n"
        "print(sorted(m for m in ('socsir.feasibility', 'socsir.sensitivity') "
        "if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))


@pytest.mark.parametrize(
    "time_block, init, outputs",
    [
        # the tick step 5 is below half an ulp (16) of the axis
        ({"t0": 1e17, "t1": 1e17 + 16, "dt": 16.0}, None, None),
        # the tick step 2e-301 is far below the 1e-9 the ticks run past t1
        ({"t0": 0.0, "t1": 1e-300, "dt": 1e-300}, None, None),
        # likewise on the y axis, for an Is that stays near 1e-300
        (None, {"S1": 100.0, "S2": 0.0, "Is": 1e-300, "Ia": 0.0, "R": 0.0}, ["Is"]),
    ],
    ids=["huge-t0", "tiny-window", "tiny-values"],
)
def test_unplottable_axis_exits_2_without_a_file(tmp_path, time_block, init, outputs):
    # the tick loop never ended and took memory until a raw MemoryError;
    # a build without the check fails here under the address-space limit
    doc = json.loads(pathlib.Path(MA_CFG).read_text())
    for key, value in (("time", time_block), ("init", init), ("outputs", outputs)):
        if value is not None:
            doc[key] = value
    cfg = tmp_path / "axis.json"
    cfg.write_text(json.dumps(doc))
    svg = tmp_path / "run.svg"
    done = subprocess.run(
        [sys.executable, "-m", "socsir", "simulate", "--config", str(cfg),
         "--svg", str(svg)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: cannot draw axis ticks from ")
    assert done.stdout == "" and not svg.exists()


@pytest.mark.skipif(
    scenarios._usable_cpus() < 2, reason="one usable CPU: the scan does not fork"
)
def test_forked_scan_loads_no_pickle():
    # a 2-point scan forks one worker, which sends its peaks as raw doubles
    code = (
        "import os, sys\n"
        "from socsir import scenarios\n"
        "forks = []\n"
        "real_fork = os.fork\n"
        "def fork():\n"
        "    forks.append(1)\n"
        "    return real_fork()\n"
        "os.fork = fork\n"
        "preset = scenarios.covid_mitigation_presets()[0]\n"
        "scenarios.participation_scan(preset, 80.0, [0.25, 0.75], t1=20.0)\n"
        "print(len(forks), 'pickle' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 False\n"


def test_scan_participation(capsys):
    argv = [
        "scan-participation",
        "--preset",
        "masks",
        "--capacity",
        "200",
        "--steps",
        "4",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "minimal compliant fraction = 0.2" in out
    assert "peaks non-increasing along grid = yes" in out


def test_scan_participation_rejects_nan_capacity(capsys):
    # inf too: it used to pass and print "capacity = inf"
    for capacity in ("nan", "inf"):
        argv = ["scan-participation", "--preset", "masks", "--capacity", capacity]
        assert main([*argv, "--steps", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "capacity" in err


def test_unknown_preset_rejected():
    argv = [
        "scan-participation",
        "--preset",
        "lockdown",
        "--capacity",
        "80",
        "--steps",
        "4",
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# --- side files written in pieces --------------------------------------------


def _config_with_records(tmp_path, source, n):
    # dt 1 from t0 0 records every step, so t1 = n - 1 gives n records;
    # a mixed run records its switch once
    doc = json.loads((DATA / source).read_text())
    doc["time"] = {"t0": 0.0, "t1": float(n - 1), "dt": 1.0}
    if "mixed" in doc:
        doc["mixed"]["t_switch"] = float((n - 1) // 2)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


@pytest.mark.parametrize(
    ("command", "source", "n"),
    [
        (command, source, n)
        for command, source in [
            ("simulate", "ma_basic.json"),
            ("simulate", "mb_switching.json"),
            ("mixed", "mixed_switch.json"),
        ]
        # a mixed run records t0, its switch and t1, so at least 3
        for n in (3 if command == "mixed" else 2, 1023, 1024, 1025, 2048)
    ],
)
def test_cli_files_equal_the_in_process_writers(tmp_path, command, source, n):
    # the files are written in pieces of at most 1024 records; the counts
    # sit on both sides of each piece boundary
    cfg_path = _config_with_records(tmp_path, source, n)
    csv_path, svg_path = tmp_path / "run.csv", tmp_path / "run.svg"
    argv = [command, "--config", cfg_path, "--csv", str(csv_path), "--svg", str(svg_path)]
    assert main([*argv, "--out", str(tmp_path / "report.txt")]) == 0
    cfg = load_config(cfg_path)
    traj = run_scenario(cfg).trajectory
    assert len(traj) == n
    assert csv_path.read_bytes() == write_csv(traj).encode()
    observables = cfg.outputs or ("S1", "S2", "I", "R")
    assert svg_path.read_bytes() == render_svg(traj, observables).encode()
    # both sides join the same pieces, so check the joins on their own:
    # one full row per record, one "x,y" per record in each curve
    header, *rows = csv_path.read_text().split("\n")[:-1]
    assert len(rows) == n
    assert {row.count(",") for row in rows} == {header.count(",")}
    curves = re.findall(r'points="([^"]*)"', svg_path.read_text())
    assert len(curves) == len(observables)
    for points in curves:
        assert all(re.fullmatch(r"-?\d+\.\d\d,-?\d+\.\d\d", xy) for xy in points.split(" "))
        assert len(points.split(" ")) == n


def _long_run(monkeypatch, tmp_path, outputs):
    """Point the CLI's run_scenario at a precomputed 40,001-record MA run."""
    doc = json.loads(pathlib.Path(MA_CFG).read_text())
    doc["time"] = {"t0": 0.0, "t1": 80000.0, "dt": 2.0}
    doc["outputs"] = outputs
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(doc))
    result = run_scenario(load_config(str(cfg)))
    assert len(result.trajectory) == 40_001
    monkeypatch.setattr(cli, "run_scenario", lambda _cfg: result)
    return str(cfg), result.trajectory


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _series_bytes(traj, observables):
    """What the plot's series lists take: each list, and a float object for
    every value that is computed (I) rather than a stored component."""
    known = observables_for(traj.model)
    total = 0
    for name in observables:
        values = [known[name].extract(s) for s in traj.states]
        total += sys.getsizeof(values)
        total += sum(
            sys.getsizeof(v)
            for v, s in zip(values, traj.states)
            if not any(v is c for c in s)
        )
    return total


# Allowance for the strings of one 1024-record piece: its 1024 row or
# point strings (under 150 bytes each), their list, the joined piece and
# the encoded copy the file write makes, with room for argparse and the
# report.
_ONE_PIECE_BYTES = 256 * 1024


def test_cli_csv_write_holds_one_piece(monkeypatch, tmp_path, capsys):
    # the table is about 3.4 MB; it used to be held as one string next to
    # its row strings
    cfg, _ = _long_run(monkeypatch, tmp_path, ["I", "Is", "R"])
    csv_path = tmp_path / "long.csv"
    peak = _traced_peak(["simulate", "--config", cfg, "--csv", str(csv_path)])
    assert csv_path.stat().st_size > 3_000_000
    assert peak < 1_000_000


def test_cli_svg_write_holds_its_series_and_one_piece(monkeypatch, tmp_path, capsys):
    # render_svg held every point string of a curve and their join
    observables = ["I", "Is", "R"]
    cfg, traj = _long_run(monkeypatch, tmp_path, observables)
    svg_path = tmp_path / "long.svg"
    peak = _traced_peak(["simulate", "--config", cfg, "--svg", str(svg_path)])
    assert svg_path.stat().st_size > 1_500_000
    assert peak < _series_bytes(traj, observables) + _ONE_PIECE_BYTES


def test_cli_svg_write_holds_no_whole_series(monkeypatch, tmp_path, capsys):
    # each series is read off the records per piece; what grows with the
    # record count is one "x,%.2f" template per point, under 16 bytes each
    cfg, traj = _long_run(monkeypatch, tmp_path, ["I", "Is", "R"])
    svg_path = tmp_path / "long.svg"
    peak = _traced_peak(["simulate", "--config", cfg, "--svg", str(svg_path)])
    assert peak < 16 * len(traj) + _ONE_PIECE_BYTES


def test_rejected_plot_leaves_no_file(monkeypatch, tmp_path, capsys):
    # svg_pieces checks the plot before its first piece, and _write takes
    # the first piece before it opens the file; opening first would leave
    # an empty file behind
    cfg = load_config(MA_CFG)._replace(outputs=("Ia", "A1"))
    monkeypatch.setattr(cli, "load_config", lambda *_a, **_k: cfg)
    svg_path = tmp_path / "run.svg"
    assert main(["simulate", "--config", MA_CFG, "--svg", str(svg_path)]) == 2
    assert "unknown observable 'A1'" in capsys.readouterr().err
    assert not svg_path.exists()
