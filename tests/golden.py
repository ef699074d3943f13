"""Golden digests of socsir's output bits, pinned in tests/data/golden.json.

Each part is one sha256 hex digest:

* ``cli/<config>/stdout|csv|svg``: what ``cli.main`` writes for
  ``simulate`` (``mixed`` for the mixed config) with ``--csv`` and
  ``--svg`` on each scenario document in tests/data, and on an MB
  document run under ``"transition_normalization": "uniform"``;
* ``cli/ma_dt20/stdout|stderr|exit``: a ``simulate`` whose step fails,
  an MA run at dt 20 that exits 3;
* ``run/<config>/hex``: the ``float.hex`` of every time and component
  that ``run_scenario`` records for each document that runs to the end,
  since the 9-digit CSV and SVG cannot see a change in the last bits;
* ``ngm/mb_uniform/hex``: the ``float.hex`` of every matrix and eigenvalue
  of ``ngm`` on a few MB parameter sets under ``"uniform"``;
* ``scan/<preset>`` and ``scan/<preset>/serial``: the ``float.hex`` of
  every ``participation_scan`` peak of a mitigation preset on a coarse
  grid, forked as the public call runs on a multi-CPU host, and in this
  process alone.

Standard library only, so any interpreter can run it:

    python tests/golden.py    # prints the digests as golden.json holds them

A change that alters output bits on purpose re-pins the file with that
command and names the changed parts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

DATA = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden.json"

# The scenario documents and the subcommand that runs each.
CLI_RUNS = (
    ("ma_basic", "simulate"),
    ("mb_switching", "simulate"),
    ("mixed_switch", "mixed"),
)
# The MA reference set at dt 20: the second step drives Is far negative.
MA_DT20 = {
    "model": "ma",
    "params": {"beta1": 0.42, "beta2": 0.09, "lambda": 0.65, "gamma": 0.02,
               "kappa": 0.05, "rho": 0.75, "N": 100.0},
    "init": "dfe_plus_one_symptomatic",
    "time": {"t1": 400.0, "dt": 20.0},
}
# MB parameter sets for ngm under "uniform": the MB reference set, the
# rates of mb_switching.json, and a larger population with gamma = 0.
NGM_UNIFORM = tuple(
    dict(raw, transition_normalization="uniform")
    for raw in (
        {"beta1": 0.42, "beta2": 0.09, "lambda": 0.65, "gamma": 0.02,
         "kappa": 0.05, "alpha1": 0.3, "alpha2": 0.1, "N": 100.0},
        {"beta1": 0.0042, "beta2": 0.0009, "lambda": 0.65, "gamma": 0.0005,
         "kappa": 0.0002, "alpha1": 0.1, "alpha2": 0.01, "N": 100.0},
        {"beta1": 0.9, "beta2": 0.3, "lambda": 1.0, "gamma": 0.0,
         "kappa": 0.2, "alpha1": 0.05, "alpha2": 0.04, "N": 1e4},
    )
)
SCAN_GRID = tuple(i / 10 for i in range(1, 10))
SCAN_CAPACITY = 10.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(argv: list[str]) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr."""
    from socsir import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _hex(values) -> str:
    """float.hex of each float in values, nested tuples flattened."""
    return " ".join(
        _hex(v) if isinstance(v, tuple) else float.hex(v) for v in values
    )


def _uniform_doc() -> dict:
    doc = json.loads((DATA / "mb_switching.json").read_text(encoding="utf-8"))
    doc["params"]["transition_normalization"] = "uniform"
    return doc


def digests() -> dict[str, str]:
    """Every part's digest, keyed by part name."""
    from socsir import (
        ModelKind,
        covid_mitigation_presets,
        load_config,
        ngm,
        participation_scan,
        run_scenario,
        scenarios,
        validate_params,
    )

    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(name, command, DATA / f"{name}.json") for name, command in CLI_RUNS]
        for name, doc in (("mb_uniform", _uniform_doc()), ("ma_dt20", MA_DT20)):
            path = pathlib.Path(tmp, f"{name}.json")
            path.write_text(json.dumps(doc), encoding="utf-8")
            runs.append((name, "simulate", path))
        for name, command, path in runs:
            csv, svg = pathlib.Path(tmp, "run.csv"), pathlib.Path(tmp, "run.svg")
            code, stdout, stderr = _main(
                [command, "--config", str(path), "--csv", str(csv), "--svg", str(svg)]
            )
            out[f"cli/{name}/stdout"] = _sha(stdout.encode())
            if code != 0:
                out[f"cli/{name}/stderr"] = _sha(stderr.encode())
                out[f"cli/{name}/exit"] = _sha(str(code).encode())
                continue
            out[f"cli/{name}/csv"] = _sha(csv.read_bytes())
            out[f"cli/{name}/svg"] = _sha(svg.read_bytes())
            csv.unlink()
            svg.unlink()
            traj = run_scenario(load_config(str(path))).trajectory
            out[f"run/{name}/hex"] = _sha(_hex((traj.times, traj.states)).encode())
    # Every field of each NgmResult but the int dimension.
    results = tuple(
        ngm(ModelKind.MB, validate_params(raw, ModelKind.MB))[:5] for raw in NGM_UNIFORM
    )
    out["ngm/mb_uniform/hex"] = _sha(_hex(results).encode())
    usable_cpus = scenarios._usable_cpus
    for preset in covid_mitigation_presets():
        for suffix, cpus in (("", usable_cpus), ("/serial", lambda: 1)):
            scenarios._usable_cpus = cpus
            try:
                result = participation_scan(preset, SCAN_CAPACITY, SCAN_GRID)
            finally:
                scenarios._usable_cpus = usable_cpus
            peaks = " ".join(map(float.hex, result.peak_I))
            out[f"scan/{preset.name}{suffix}"] = _sha(peaks.encode())
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    sys.stdout.write(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
