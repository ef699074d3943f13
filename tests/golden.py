"""Golden digests of socsir's output bits, pinned in tests/data/golden.json.

Each part is one sha256 hex digest:

* ``cli/<config>/stdout|csv|svg``: what ``cli.main`` writes for
  ``simulate`` (``mixed`` for the mixed config) with ``--csv`` and
  ``--svg`` on each scenario document in tests/data, and on an MB
  document run under ``"transition_normalization": "uniform"``;
* ``cli/ma_dt20/stdout|stderr|exit``: a ``simulate`` whose step fails,
  an MA run at dt 20 that exits 3;
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


def _uniform_doc() -> dict:
    doc = json.loads((DATA / "mb_switching.json").read_text(encoding="utf-8"))
    doc["params"]["transition_normalization"] = "uniform"
    return doc


def digests() -> dict[str, str]:
    """Every part's digest, keyed by part name."""
    from socsir import covid_mitigation_presets, participation_scan, scenarios

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
