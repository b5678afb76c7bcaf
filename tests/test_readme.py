"""Every example in README.md runs as documented.

JSON blocks are model files and must load; the Python block must print
what its comments say; every ``hardyworlds ...`` command line must exit 0.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from hardyworlds import cli, modelio
from hardyworlds.quantum import canonical_hardy_model, probability_table

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```(\w+)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def blocks(language):
    return [
        body for lang, body in BLOCK.findall(README.read_text(encoding="utf-8"))
        if lang == language
    ]


def command_lines():
    return [
        line
        for body in blocks("sh")
        for line in body.splitlines()
        if line.startswith("hardyworlds ")
    ]


def test_readme_has_each_kind_of_example():
    assert blocks("json") and blocks("python") and command_lines()


@pytest.mark.parametrize("body", blocks("json"), ids=lambda body: "json")
def test_json_block_is_a_loadable_model(body):
    state, config = modelio.parse_model(json.loads(body))
    # the documented file is the canonical model, written at full precision
    assert probability_table(state, config) == probability_table(
        *canonical_hardy_model()
    )


@pytest.mark.parametrize("body", blocks("python"), ids=lambda body: "python")
def test_python_block_prints_its_comments(body):
    expected = [
        line.split("#", 1)[1].strip()
        for line in body.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(body, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


@pytest.mark.parametrize("line", command_lines())
def test_command_line_exits_zero(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
