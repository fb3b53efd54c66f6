"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from polardeg.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, fence: str) -> str:
    """The first fenced block of the given kind under a README heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("\n```", 1)[0]


def _commands() -> list:
    text = re.sub(r"\s*\\\n\s*", " ", _block("## Command line", "sh"))
    return [line for line in text.splitlines() if line.startswith("polardeg ")]


@pytest.mark.parametrize("command", _commands())
def test_readme_command_exits_zero(capsys, command):
    assert main(shlex.split(command)[1:]) == 0


def test_readme_library_example_prints_its_comments(capsys):
    code = _block("## Library", "python")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == expected == ["[1, 2]", "3"]
