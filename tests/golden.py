"""Golden digests of socsir's output bits, pinned in tests/data/golden.json.

Each part is one sha256 hex digest:

* ``cli/<config>/stdout|csv|svg``: what ``cli.main`` writes for
  ``simulate`` (``mixed`` for the mixed config) with ``--csv`` and
  ``--svg`` on each scenario document in tests/data;
* ``scan/<preset>``: the ``float.hex`` of every ``participation_scan``
  peak of a mitigation preset on a coarse grid.

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
SCAN_GRID = tuple(i / 10 for i in range(1, 10))
SCAN_CAPACITY = 10.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests() -> dict[str, str]:
    """Every part's digest, keyed by part name."""
    from socsir import cli, covid_mitigation_presets, participation_scan

    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in CLI_RUNS:
            csv, svg = pathlib.Path(tmp, "run.csv"), pathlib.Path(tmp, "run.svg")
            argv = [command, "--config", str(DATA / f"{name}.json"),
                    "--csv", str(csv), "--svg", str(svg)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{name}: cli.main exited {code}")
            out[f"cli/{name}/stdout"] = _sha(stdout.getvalue().encode())
            out[f"cli/{name}/csv"] = _sha(csv.read_bytes())
            out[f"cli/{name}/svg"] = _sha(svg.read_bytes())
    for preset in covid_mitigation_presets():
        peaks = participation_scan(preset, SCAN_CAPACITY, SCAN_GRID).peak_I
        out[f"scan/{preset.name}"] = _sha(" ".join(map(float.hex, peaks)).encode())
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    sys.stdout.write(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
