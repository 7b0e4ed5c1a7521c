"""README's examples work: its Python example runs, and every `dynlocrep`
command in its code blocks parses with the command line's own parser."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dynlocrep
from dynlocrep import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)


def commands() -> list[str]:
    """Every `dynlocrep ...` line of the plain code blocks, continuations joined."""
    lines = "\n".join(code_blocks("")).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith(f"{cli.PROG} ")]


def test_readme_shows_every_subcommand():
    _, subcommands = cli.build_parser()
    assert sorted(shlex.split(command)[1] for command in commands()) == sorted(subcommands)


@pytest.mark.parametrize("command", commands(), ids=lambda command: command.split()[1])
def test_every_readme_command_parses(command):
    parser, _ = cli.build_parser()
    try:
        args = parser.parse_args(shlex.split(command)[1:])
    except SystemExit as exc:
        pytest.fail(f"{command!r} does not parse (exit {exc.code})")
    assert args.command == shlex.split(command)[1]


def test_the_readme_python_example_runs():
    (example,) = code_blocks("python")
    src = str(Path(dynlocrep.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", example],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
