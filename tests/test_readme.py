"""README's usage stays runnable: its Python example runs as written, and
every `indom ...` line of its sh blocks parses with the CLI's own parser."""

import re
import shlex
from pathlib import Path

import pytest

from indom.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def _indom_commands():
    lines = (line.strip() for block in _blocks("sh") for line in block.splitlines())
    return [line for line in lines if line.startswith("indom ")]


def test_python_example_runs():
    (example,) = _blocks("python")
    names = {}
    exec(compile(example, "README.md", "exec"), names)
    assert (names["algorithm"], names["value"]) == ("cograph", 1)


def test_sh_blocks_hold_the_cli_examples():
    assert len(_indom_commands()) >= 8


@pytest.mark.parametrize("line", _indom_commands())
def test_sh_command_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
