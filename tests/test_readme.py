"""The README's examples: CLI lines with a printed result, every CLI line and
option it names, and the quick tour."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from entcost.cli import _build_parser, run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_cli_examples_print_their_comments(capsys):
    lines = README.splitlines()
    pairs = [(cmd, out[2:]) for cmd, out in zip(lines, lines[1:])
             if cmd.startswith("entcost ") and out.startswith("# {")]
    assert len(pairs) >= 2
    for cmd, want in pairs:
        assert run(shlex.split(cmd)[1:]) == 0, cmd
        assert json.loads(capsys.readouterr().out) == json.loads(want), cmd


def test_cli_lines_and_options_parse():
    parser = _build_parser()
    lines = [ln for ln in README.replace("\\\n", " ").splitlines()
             if ln.startswith("entcost ")]
    assert len(lines) >= 12
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {opt for p in sub.choices.values() for a in p._actions for opt in a.option_strings}
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", README, flags=re.S))
    named = {opt for span in spans for opt in re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", span)}
    assert named and named <= options, named - options


def test_quick_tour_values():
    ns = {}
    checked = 0
    for line in re.search(r"```python\n(.*?)```", README, re.S).group(1).splitlines():
        code, _, comment = line.partition("#")
        m = re.fullmatch(r"\s*(True|False|\d+\.\d+)(\.\.\.)?\s*", comment)
        if not m:
            exec(code, ns)
            continue
        value = eval(code, ns)
        checked += 1
        if m.group(1) in ("True", "False"):
            assert value is (m.group(1) == "True"), line
        elif m.group(2):  # printed digits, then cut
            digits = len(m.group(1).split(".")[1])
            assert 0 <= value - float(m.group(1)) < 10.0 ** -digits, line
        else:
            assert value == pytest.approx(float(m.group(1)), abs=1e-12), line
    assert checked == 4
