"""Property tests: no value of an analysis flag escapes the exit-code table.

Drives cli.main in-process for r0, stability, sensitivity and feasibility
with rates, --N and --fd-step drawn from subnormals, huge values, +-inf,
NaN and ordinary floats.  Every run returns 0, 2 or 3, or argparse exits
with code 2; any other exception would reach the user as a traceback.
The grid commands, scan-participation and bifurcation, take --capacity or
--kappa from the same values and --steps from small and out-of-range
sizes; they return 0 or 2.  simulate and mixed run the mutated tests/data
documents of test_config_properties, with the report, CSV and SVG written
to a temporary directory; they return 0, 2, 3 or 4, and a run that
returns 0 reports and writes only finite numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from socsir.cli import main  # noqa: E402
from socsir.config import dumps_config, loads_config  # noqa: E402
from socsir.errors import ConfigError, ValidationError  # noqa: E402
from tests.test_config_properties import CAP_STEPS, DATA, mutated_docs  # noqa: E402

EDGES = [
    5e-324,
    1e-323,
    2.2250738585072014e-308,
    1e-300,
    1e-12,
    0.0,
    -0.0,
    0.5,
    1.0,
    1.0000000000000002,
    1e300,
    1.7976931348623157e308,
    math.inf,
    -math.inf,
    math.nan,
]
ORDINARY = st.floats(min_value=1e-6, max_value=1.0, exclude_max=True)
EXTREME = st.one_of(st.sampled_from(EDGES), st.floats())
FD_STEPS = st.one_of(
    st.sampled_from([1e-10, 1.0000000000000001e-10, 1e-6, 1e-2, 0.0100001]),
    ORDINARY,
    EXTREME,
)
COMMANDS = ("r0", "stability", "sensitivity", "feasibility")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    model = draw(st.sampled_from(["ma", "mb"]))
    if command == "feasibility":
        names = ["kappa", "rho"]
    else:
        names = ["beta1", "beta2", "kappa", "N"]
        names += ["rho"] if model == "ma" else ["alpha1", "alpha2"]
        if draw(st.integers(0, 9)) == 0:  # a flag the model does not take
            names.append(draw(st.sampled_from(["rho", "alpha1", "alpha2"])))
    # ordinary values with up to three flags set to extreme ones, so that
    # many commands pass validation and run the analysis on the extremes
    values = {name: draw(ORDINARY) for name in names}
    for _ in range(draw(st.integers(0, 3))):
        values[draw(st.sampled_from(names))] = draw(EXTREME)
    # mostly ordered pairs, so that many runs get past validation
    if draw(st.integers(0, 3)) != 3:
        for hi, lo in (("beta1", "beta2"), ("alpha1", "alpha2")):
            if hi in values and lo in values and values[lo] > values[hi]:
                values[hi], values[lo] = values[lo], values[hi]
    # leaving a flag out tests the cross-checks
    for name in draw(st.lists(st.sampled_from(names), max_size=1)):
        values.pop(name, None)
    argv = [command, "--model", model]
    # "--flag=value" keeps argparse from reading "-inf" as an option
    argv += [f"--{name}={value!r}" for name, value in values.items()]
    if command == "sensitivity" and draw(st.booleans()):
        argv.append(f"--fd-step={draw(FD_STEPS)!r}")
    if command != "feasibility" and draw(st.booleans()):
        argv.append("--allow-beta-gt-one")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = ("argparse", exc.code)
    return code, out.getvalue(), err.getvalue()


UNDERFLOW = [
    "sensitivity --model ma --beta1 1e-323 --beta2 5e-324 --rho 0.5 --kappa 1",
    "sensitivity --model ma --beta1 1 --beta2 5e-324 --rho 0.9 --kappa 1",
]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argvs())
@example(UNDERFLOW[0].split())
@example(UNDERFLOW[1].split())
def test_analysis_flags_exit_only_with_documented_codes(argv):
    code, out, err = _run(argv)
    if code == ("argparse", 2):
        return
    assert code in (0, 2, 3), argv
    if code == 0:
        assert out and not err
    else:
        assert err.startswith("error"), (argv, err)
    if " ".join(argv) in UNDERFLOW:
        assert code == 3


GRID_STEPS = st.sampled_from([-1, 0, 1, 2, 3, 4, 10001])


@st.composite
def grid_argvs(draw):
    value = draw(st.one_of(ORDINARY, EXTREME))
    steps = draw(GRID_STEPS)
    if draw(st.booleans()):
        preset = draw(st.sampled_from(["masks", "common_areas", "distancing"]))
        argv = ["scan-participation", "--preset", preset, f"--capacity={value!r}"]
    else:
        model = draw(st.sampled_from(["ma", "mb"]))
        argv = ["bifurcation", "--model", model, f"--kappa={value!r}"]
    return argv + [f"--steps={steps}"]


# A scan of four points takes a few tens of milliseconds, so the example
# count keeps this test near a second.
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(grid_argvs())
@example(["scan-participation", "--preset", "masks", "--capacity=nan", "--steps=4"])
@example(["scan-participation", "--preset", "masks", "--capacity=inf", "--steps=4"])
@example(["scan-participation", "--preset", "masks", "--capacity=5e-324", "--steps=4"])
@example(["bifurcation", "--model", "mb", "--kappa=5e-324", "--steps=4"])
def test_grid_flags_exit_0_or_2(argv):
    code, out, err = _run(argv)
    assert code in (0, 2), argv
    if code == 0:
        assert out and not err
    else:
        assert err.startswith("error"), (argv, err)


def _capped_text(doc) -> str:
    """doc as JSON, with a parsable run cut to CAP_STEPS steps."""
    text = json.dumps(doc)
    try:
        cfg = loads_config(text)
    except (ConfigError, ValidationError):
        return text  # the CLI meets the same error
    limit = cfg.t0 + CAP_STEPS * cfg.dt
    if limit < cfg.t1:  # false for NaN, so bad times still reach the run
        return dumps_config(cfg._replace(t1=limit))
    return text


def _numbers(text: str) -> list[float]:
    found = []
    for token in text.replace(",", " ").split():
        try:
            found.append(float(token))
        except ValueError:
            pass
    return found


# R0 = B_rho / kappa overflows; the summary used to report it as inf
OVERFLOW_DOC = json.loads((DATA / "ma_basic.json").read_text())
OVERFLOW_DOC["params"]["kappa"] = 5e-324
OVERFLOW_DOC["time"]["t1"] = 20


# Each example writes a report, a CSV and an SVG of up to 2000 steps, so
# the example count keeps this test near a second.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mutated_docs(), st.sampled_from(["simulate", "mixed"]))
@example(OVERFLOW_DOC, "simulate")
def test_run_commands_exit_only_with_documented_codes(tmp_path_factory, doc, command):
    tmp = tmp_path_factory.mktemp("run")
    config = tmp / "config.json"
    config.write_text(_capped_text(doc))
    files = {flag: tmp / name for flag, name in
             (("--out", "report.txt"), ("--csv", "run.csv"), ("--svg", "run.svg"))}
    argv = [command, "--config", str(config)]
    for flag, path in files.items():
        argv += [flag, str(path)]
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (doc, command)
    assert not out
    if code == 0:
        assert not err and all(path.exists() for path in files.values())
        for name in ("--out", "--csv"):
            numbers = _numbers(files[name].read_text())
            assert numbers and all(map(math.isfinite, numbers)), (doc, name)
    else:
        assert err.startswith("error"), (doc, err)
