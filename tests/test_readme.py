"""The README's examples: CLI lines with a printed result, and the quick tour."""

import json
import re
import shlex
from pathlib import Path

import pytest

from entcost.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_cli_examples_print_their_comments(capsys):
    lines = README.splitlines()
    pairs = [(cmd, out[2:]) for cmd, out in zip(lines, lines[1:])
             if cmd.startswith("entcost ") and out.startswith("# {")]
    assert len(pairs) >= 2
    for cmd, want in pairs:
        assert run(shlex.split(cmd)[1:]) == 0, cmd
        assert json.loads(capsys.readouterr().out) == json.loads(want), cmd


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
