"""README's usage stays runnable: its Python example runs as written, its
`indom gen` line writes files that `indom gamma-i` reads back, and every
`indom ...` line of its sh blocks parses with the CLI's own parser."""

import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from indom.cli import build_parser, main
from indom.distance_hereditary import DHStats, parse_sequence, replay_sequence
from indom.generators import generate
from indom.graph import parse

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


def test_dh_stats_keys_are_the_reported_fields():
    # the CLI reports asdict(DHStats()), so README's list must name each field
    (sentence,) = re.findall(r"When the\s+distance-hereditary solver answers, `stats` (.*?); "
                             r"the\s+exact solver", README, flags=re.DOTALL)
    assert set(re.findall(r"`(\w+)`", sentence)) == \
        {field.name for field in dataclasses.fields(DHStats)}


def test_sh_blocks_hold_the_cli_examples():
    assert len(_indom_commands()) >= 8


@pytest.mark.parametrize("line", _indom_commands())
def test_sh_command_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_gen_example_writes_files_that_gamma_i_reads_back(tmp_path, monkeypatch, capsys):
    (gen,) = [line for line in _indom_commands() if line.startswith("indom gen ")]
    argv = shlex.split(gen, comments=True)[1:]
    assert argv[:2] == ["gen", "random_dh(50)"]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    made = generate("random_dh(50)", 7)
    g = parse((tmp_path / "g.txt").read_text())
    assert g == made.graph
    assert replay_sequence(parse_sequence((tmp_path / "g.seq").read_text())) == g
    capsys.readouterr()
    assert main(["gamma-i", "g.txt", "--certify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["algorithm"], report["verified"]) == ("dh", True)
