"""Every example in README.md runs as documented.

JSON blocks are model files and must load; the Python block must print
what its comments say; every ``hardyworlds ...`` command line must exit 0
and be read without argparse.
"""

import contextlib
import importlib
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


@pytest.mark.parametrize("line", command_lines())
def test_command_line_needs_no_argparse(line):
    argv = shlex.split(line)[1:]
    args = cli.plain_args(argv)
    assert args is not None
    assert repr(vars(args)) == repr(vars(cli.build_parser(argv[0]).parse_args(argv)))


def readme_expect_names():
    """The ``--expect`` names the README lists for each subcommand.

    A name with a placeholder stands for one name per value: ``<stmt>``
    ranges over the ``suite`` names, and any other placeholder over the
    backquoted values in the parentheses that follow it in the bullet.
    """
    text = README.read_text(encoding="utf-8")
    start = text.index("- `--expect <path>`")
    section = text[start : text.index("have no checks.", start)]
    bullets = re.findall(r"^  - `([^`]+)`: (.*?)(?=^  - |^$)", section, re.M | re.S)
    raw = {
        command: re.findall(r"`([^`]+)`(?: for [^(`]*\(([^)]*)\))?", " ".join(body.split()))
        for command, body in bullets
    }
    suite = [name for name, _ in raw["suite"]]
    documented = {}
    for command, tokens in raw.items():
        names = set()
        for pattern, values in tokens:
            for stmt in suite if "<stmt>" in pattern else [None]:
                name = pattern.replace("<stmt>", stmt) if stmt else pattern
                choices = re.findall(r"`([^`]+)`", values)
                names |= {re.sub(r"<\w+>", c, name) for c in choices} or {name}
        documented[command] = names
    return documented


# one canonical-model run of each subcommand
CANONICAL_RUNS = {
    "model": ["model", "show"],
    "check": ["check", "L1"],
    "suite": ["suite"],
    "flow": ["flow"],
    "frames": ["frames"],
    "lhv": ["lhv"],
    "hardy-scan": ["hardy-scan", "--steps", "100"],
}


def test_expect_names_match_each_subcommands_checks():
    documented = readme_expect_names()
    assert set(CANONICAL_RUNS) == set(cli.COMMANDS)
    assert set(documented) == set(cli.COMMANDS) - {"model", "hardy-scan"}
    assert "`model show` and `hardy-scan` have no checks." in README.read_text(
        encoding="utf-8"
    )
    for command, argv in CANONICAL_RUNS.items():
        args = cli.build_parser(command).parse_args(argv)
        module = importlib.import_module(f"hardyworlds.commands.{cli.COMMANDS[command][1]}")
        _, _, checks = module.run(args)
        assert set(checks) == documented.get(command, set()), command
