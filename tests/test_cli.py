"""Command-line interface: reports, side files, exit codes."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from socsir.cli import main

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

MA_CFG = str(DATA / "ma_basic.json")
MB_CFG = str(DATA / "mb_switching.json")
MIXED_CFG = str(DATA / "mixed_switch.json")


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
    assert main(["mixed", "--config", MA_CFG]) == 2
    assert "mixed" in capsys.readouterr().err


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


def test_cli_import_loads_no_process_machinery():
    # the scan imports pickle only when it forks; start-up stays lean
    code = (
        "import sys, socsir.cli; "
        "print(sorted(m for m in ('pickle', 'multiprocessing', "
        "'concurrent.futures') if m in sys.modules))"
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
    argv = ["scan-participation", "--preset", "masks", "--capacity", "nan", "--steps", "3"]
    assert main(argv) == 2
    assert "capacity" in capsys.readouterr().err


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
