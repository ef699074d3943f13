"""Output bits against the digests pinned in tests/data/golden.json."""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from tests import golden

# pyproject.toml's requires-python.
OLDEST = (3, 10)


def test_output_bits_match_the_golden_digests():
    pinned = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    got = golden.digests()
    assert sorted(got) == sorted(pinned)
    changed = sorted(part for part in pinned if got[part] != pinned[part])
    assert changed == [], f"output bits changed in: {', '.join(changed)}"


def _other_interpreters() -> list[pathlib.Path]:
    """Each other supported CPython in the directory that holds this one's
    installation, as pyenv lays out its versions."""
    here = pathlib.Path(sys.base_prefix).resolve()
    found = []
    for prefix in sorted(here.parent.iterdir()):
        match = re.fullmatch(r"(\d+)\.(\d+)\.\d+", prefix.name)
        python = prefix / "bin" / "python"
        if (
            match
            and (int(match[1]), int(match[2])) >= OLDEST
            and prefix.resolve() != here
            and python.is_file()
        ):
            found.append(python)
    return found


def test_output_bits_match_on_every_installed_interpreter():
    # float formatting and arithmetic are IEEE on every CPython, but a
    # change of a library routine between versions (sum() rounds
    # differently since 3.12) would show here
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other supported CPython is installed")
    pinned = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    for python in interpreters:
        done = subprocess.run(
            [str(python), str(pathlib.Path(golden.__file__))],
            env=dict(env, PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, f"{python}: {done.stderr}"
        got = json.loads(done.stdout)
        changed = sorted(part for part in pinned if got.get(part) != pinned[part])
        assert sorted(got) == sorted(pinned) and changed == [], (
            f"{python}: output bits changed in: {', '.join(changed)}"
        )
