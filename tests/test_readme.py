"""The README's examples run as shown, so a change to a public signature or
a report breaks a test instead of going stale in the docs."""

from __future__ import annotations

import pathlib
import shlex

import pytest

from socsir import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8"
)


def _block(after: str, lang: str) -> str:
    """The body of the first ```lang fenced block after the text `after`."""
    fence = f"```{lang}\n"
    start = README.index(fence, README.index(after)) + len(fence)
    return README[start:README.index("```", start)]


QUICK = _block("Quick ones take rate flags directly:", "sh")
# The other quick examples, each on one line: the r0 example and what it
# prints come first, and a trailing backslash continues a command.
OTHERS = [
    line for line in QUICK.split("\n\n", 1)[1].replace("\\\n", " ").splitlines()
    if line.startswith("$ socsir ")
]


def test_r0_example_prints_what_the_readme_shows(capsys):
    example = QUICK.split("\n\n")[0]
    command, *shown = example.splitlines()
    assert command.startswith("$ socsir r0 --model ma ")
    assert len(shown) == 4
    assert cli.main(shlex.split(command)[2:]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == shown and err == ""


@pytest.mark.parametrize("command", OTHERS, ids=lambda c: shlex.split(c)[2])
def test_the_other_quick_examples_exit_0(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # bifurcation writes its --csv here
    assert cli.main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().err == ""


def test_library_snippet_runs(capsys):
    exec(compile(_block("## Library", "python"), "README.md", "exec"), {})
    assert 0.0 < float(capsys.readouterr().out) <= 100.0  # the final R of N = 100
