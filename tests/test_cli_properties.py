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
returns 0 reports and writes only finite numbers.  The same holds for the
tests/data documents with time windows at the ends of the float range:
times near its top or past it, and spans of 1 to 2**16 ulps.  Those run the CLI
in a child process under an address-space limit, so a run that allocates
without bound fails the test instead of exhausting the host.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pathlib
import resource
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from socsir.cli import main  # noqa: E402
from socsir.config import dumps_config, loads_config  # noqa: E402
from socsir.core import to_float  # noqa: E402
from socsir.errors import ConfigError, ValidationError  # noqa: E402
from tests.test_config_properties import (  # noqa: E402
    CAP_STEPS,
    DATA,
    DOCS,
    mutated_docs,
)

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


def _run_files(tmp, doc, command):
    """argv that runs doc (capped) with the report, CSV and SVG in tmp."""
    config = tmp / "config.json"
    config.write_text(_capped_text(doc))
    files = {flag: tmp / name for flag, name in
             (("--out", "report.txt"), ("--csv", "run.csv"), ("--svg", "run.svg"))}
    argv = [command, "--config", str(config)]
    for flag, path in files.items():
        argv += [flag, str(path)]
    return argv, files


def _check_run(code, out, err, files, context):
    assert code in (0, 2, 3, 4), (context, err)
    assert not out
    if code == 0:
        assert not err and all(path.exists() for path in files.values())
        for name in ("--out", "--csv"):
            numbers = _numbers(files[name].read_text())
            assert numbers and all(map(math.isfinite, numbers)), (context, name)
    else:
        assert err.startswith("error"), (context, err)


# Each example writes a report, a CSV and an SVG of up to 2000 steps, so
# the example count keeps this test near a second.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mutated_docs(), st.sampled_from(["simulate", "mixed"]))
@example(OVERFLOW_DOC, "simulate")
def test_run_commands_exit_only_with_documented_codes(tmp_path_factory, doc, command):
    argv, files = _run_files(tmp_path_factory.mktemp("run"), doc, command)
    _check_run(*_run(argv), files, (doc, command))


def _ulps_above(t: float, n: int) -> float:
    for _ in range(n):
        t = math.nextafter(t, math.inf)
    return t


@st.composite
def windows(draw):
    """(t0, t1, dt): times near the top of the float range or, as ints,
    past it (check_times maps those to +-inf), or a span of 1 to 2**16
    ulps, which up to 1000 ulps plots an axis below output._MIN_SPAN."""
    if draw(st.booleans()):
        t0 = draw(st.sampled_from([0.0, -1e307, 1e300, 1e307, -(10**400)]))
        t1 = draw(st.sampled_from(
            [1e300, 1e307, 1.7976931348623157e308, 10**308, 10**400]))
        dt = draw(st.sampled_from(
            [1.0, 1e300, 1e305, 1e306, 1.7976931348623157e308, 10**400]))
        return t0, t1, dt
    t0 = draw(st.sampled_from([0.0, 5e-324, 1.0, -1.0, 1e17, -1e300, 1e300]))
    t1 = _ulps_above(t0, draw(st.sampled_from([1, 2, 3, 16, 1000, 2**16])))
    span = t1 - t0
    dt = draw(st.sampled_from([5e-324, math.ulp(t0), span, span / 3, 1e-300, 1.0]))
    return t0, t1, dt


def _with_window(doc, window):
    """doc with the window as its times; a mixed run switches mid-window."""
    doc = json.loads(json.dumps(doc))
    doc["time"].update(zip(("t0", "t1", "dt"), window))
    if "mixed" in doc:
        t0, t1 = map(to_float, window[:2])
        mid = t0 / 2 + t1 / 2
        if t0 < mid < t1:
            doc["mixed"]["t_switch"] = mid
    return doc


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
# The child's address-space limit.  A capped run of a tests/data document
# takes under 64 MB.
CHILD_AS_BYTES = 512 * 2**20


def _limit_address_space():  # runs in the child before it starts Python
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


MA_DOC = json.loads((DATA / "ma_basic.json").read_text())


# Each example starts a Python child of about 0.1 s, so the example count
# keeps this test near five seconds.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(DOCS), windows(), st.sampled_from(["simulate", "mixed"]))
@example(MA_DOC, (0.0, 10**400, 1.0), "simulate")  # t1 past the float range
@example(MA_DOC, (1e17, 1e17 + 16, 16.0), "simulate")  # one step of one ulp
@example(MA_DOC, (0.0, 1e308, 1e306), "simulate")  # 100 steps near the top
@example(MA_DOC, (1.0, 1.0 + 2**-36, 2**-38), "simulate")  # runs: 2**16 ulps
def test_extreme_time_windows_exit_only_with_documented_codes(
    tmp_path_factory, doc, window, command
):
    argv, files = _run_files(
        tmp_path_factory.mktemp("window"), _with_window(doc, window), command
    )
    done = subprocess.run(
        [sys.executable, "-m", "socsir", *argv],
        preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    _check_run(done.returncode, done.stdout, done.stderr, files, (window, command))
