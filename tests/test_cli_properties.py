"""Property test: no value of an analysis flag escapes the exit-code table.

Drives cli.main in-process for r0, stability, sensitivity and feasibility
with rates, --N and --fd-step drawn from subnormals, huge values, +-inf,
NaN and ordinary floats.  Every run returns 0, 2 or 3, or argparse exits
with code 2; any other exception would reach the user as a traceback.
"""

from __future__ import annotations

import contextlib
import io
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from socsir.cli import main  # noqa: E402

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
