"""Command line interface: parse a command line and dispatch it.

Subcommands: model show, check, suite, flow, frames, lhv, hardy-scan.
Exit codes: 0 success, 1 failed expectation or strict false check, 2 usage,
formula parse or depth error, 3 invalid or inconsistent model, 4 closed stdout.
``plain_args`` reads a plain command line from the option tables; argparse,
imported only for any other, parses it and prints its help or usage error.
``main`` then imports the subcommand's module from ``hardyworlds.commands``,
whose ``run`` builds one JSON payload and reads its text and checks from it,
and the ``--expect`` code only with that option.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

from .errors import DomainError, FormulaError, InconsistentModelError, InvalidModelError
from .labels import FrameOrdering
from .quantum import (
    EPSILON_DEFAULT,
    EPSILON_MAX,
    SCAN_STEPS_MAX,
    JointProbabilityTable,
    canonical_hardy_model,
    check_epsilon,
    hardy_family,
    probability_table,
)

if TYPE_CHECKING:
    import argparse

    from .analysis import SuiteReport
    from .semantics import TruthReport
    from .worlds import World, WorldModel

FRAMES = {
    "l-first": FrameOrdering.LEFT_BEFORE_RIGHT,
    "r-first": FrameOrdering.RIGHT_BEFORE_LEFT,
}
LOCALITIES = ("loc1", "lightcone")  # the values of semantics.LocalityCondition
Payload = dict[str, Any]
Namespace = Any  # build_parser's argparse.Namespace or plain_args' SimpleNamespace
# A command's payload, then its text lines and its checks, both read from the payload
Result = tuple[Payload, list[str], dict[str, bool]]


def format_probability(value: float) -> str:
    """Nine decimal digits, plus the fraction p/q with q <= 100 that lies
    within 1e-9 of the value, if there is one.

    Two such fractions differ by at least 1/9900, so at most one lies that
    close, and the smallest q that reaches it gives it in lowest terms.
    """
    text = f"{value:.9f}"
    for q in range(1, 101):
        p = round(value * q)
        if abs(p / q - value) <= 1e-9:
            return f"{text} (={p})" if q == 1 else f"{text} (={p}/{q})"
    return text


def _type_error(message: str) -> Exception:
    import argparse

    return argparse.ArgumentTypeError(message)


def _epsilon_value(text: str) -> float:
    try:
        return check_epsilon(float(text))
    except DomainError:  # a ValueError too, so caught first
        raise _type_error(f"epsilon must lie strictly in (0, {EPSILON_MAX})") from None
    except ValueError:
        raise _type_error(f"not a number: {text!r}") from None


def _steps_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _type_error(f"not an integer: {text!r}") from None
    if value < 10:
        raise _type_error("scan needs at least 10 grid steps")
    if value > SCAN_STEPS_MAX:
        raise _type_error(f"scan takes at most {SCAN_STEPS_MAX} steps")
    return value


# (flags, add_argument keywords) of the options every subcommand takes, in
# help order; at most one source may be given.  --model's default is None, not
# "canonical", as argparse sees no conflict in a value that is the default object.
SOURCE_OPTIONS = (
    (("--model",), {"metavar": "SOURCE", "help": (
        "canonical, family:<x>, or file:<path> (default: canonical)")}),
    (("--family",), {"type": float, "metavar": "X", "help": "shorthand for --model family:<x>"}),
    (("--file",), {"metavar": "PATH", "help": "shorthand for --model file:<path>"}),
)
OPTIONS = (
    (("--epsilon",), {"type": _epsilon_value, "default": EPSILON_DEFAULT, "help": (
        f"possibility threshold in (0, {EPSILON_MAX}) (default: {EPSILON_DEFAULT})")}),
    (("--frame",), {"choices": sorted(FRAMES), "default": "l-first",
                    "help": "time order of the regions (default: l-first)"}),
    (("--locality",), {"choices": sorted(LOCALITIES), "default": "loc1",
                       "help": "outcome protection policy (default: loc1)"}),
    (("--format",), {"choices": ("text", "json"), "default": "text", "dest": "output_format",
                     "help": "output format (default: text)"}),
    (("--strict",), {"action": "store_true", "default": False,
                     "help": "exit 1 when a check result is false"}),
    (("--expect",), {"metavar": "PATH",
                     "help": "file of name=true|false assertions; exit 1 on any mismatch"}),
)


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The CLI's parser.  Every subcommand is listed with its help text, but
    only ``command``'s subparser gets its options, so a run builds the
    options of the one command it runs."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hardyworlds",
        description=(
            "Possible-world and counterfactual analysis of Hardy-type "
            "two-qubit experiments."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in COMMANDS.items():
        subparser = commands.add_parser(name, help=help_text)
        if name != command:
            continue
        if name == "model":
            actions = subparser.add_subparsers(dest="action", required=True)
            subparser = actions.add_parser("show", help="list the possible worlds")
        source = subparser.add_mutually_exclusive_group()
        for flags, options in SOURCE_OPTIONS:
            source.add_argument(*flags, **options)
        for flags, options in OPTIONS + arguments:
            subparser.add_argument(*flags, **options)
    return parser


def plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser`` parses from a plain command line, without argparse; None
    for help, abbreviations, ``--opt=value``, ``--``, a repeated option, a value
    that starts with ``-`` or is invalid, two sources, or a missing or extra positional."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command, tokens = argv[0], iter(argv[1:])
    values: dict[str, Any] = {"command": command}
    if command == "model":
        if next(tokens, None) != "show":
            return None
        values["action"] = "show"
    options = {}  # flag, or the positional's name: (dest, keywords)
    positional = None
    for (name,), kwargs in SOURCE_OPTIONS + OPTIONS + COMMANDS[command][2]:
        dest = kwargs.get("dest", name.lstrip("-").replace("-", "_"))
        options[name] = dest, kwargs
        values[dest] = kwargs.get("default")
        if not name.startswith("-"):
            positional = name
    seen = set()
    for token in tokens:
        name = token if token.startswith("-") else positional
        if name not in options or name in seen:
            return None
        seen.add(name)
        dest, kwargs = options[name]
        if kwargs.get("action") == "store_true":
            values[dest] = True
            continue
        text = token if name == positional else next(tokens, "-")
        if text.startswith("-") or text not in kwargs.get("choices", (text,)):
            return None
        try:
            values[dest] = kwargs.get("type", str)(text)
        except Exception:  # ValueError, or the converters' ArgumentTypeError
            return None
    sources = sum(flags[0] in seen for flags, _ in SOURCE_OPTIONS)
    if sources > 1 or positional and positional not in seen:
        return None
    return SimpleNamespace(**values)


class UsageError(Exception):
    pass


def _table(args: Namespace) -> JointProbabilityTable:
    """The probability table of the model named by --model, --family or --file."""
    family, path = args.family, args.file
    source = "canonical" if args.model is None else args.model
    if source.startswith("family:"):
        text = source[len("family:"):]
        try:
            family = float(text)
        except ValueError:
            raise UsageError(f"not a family parameter: {text!r}") from None
    elif source.startswith("file:"):
        path = source[len("file:"):]
    elif source != "canonical":
        raise UsageError(
            f"unknown model source {source!r}; use canonical, family:<x>, or file:<path>"
        )
    if family is not None:
        state, experiment = hardy_family(family)
    elif path is None:
        state, experiment = canonical_hardy_model()
    elif not path:
        raise UsageError("model file path is empty")
    else:
        from . import modelio

        state, experiment = modelio.load_model(path)
    return probability_table(state, experiment)


def _world_model(args: Namespace) -> WorldModel:
    from .worlds import enumerate_worlds

    return enumerate_worlds(_table(args), args.epsilon, FRAMES[args.frame])


def _truth(value: bool) -> str:
    return "true" if value else "false"


def _world_json(world: World) -> Payload:
    return {
        "left_setting": world.left_setting.name,
        "right_setting": world.right_setting.name,
        "left_outcome": world.left_outcome.value,
        "right_outcome": world.right_outcome.value,
        "probability": world.probability,
    }


def _label(world: Payload, separator: str = " ") -> str:
    """Settings and outcomes, joined as World.label (" ") or str(World) (",")."""
    return separator.join(
        world[key]
        for key in ("left_setting", "right_setting", "left_outcome", "right_outcome")
    )


def _world_line(world: Payload) -> str:
    return f"{_label(world)} p={format_probability(world['probability'])}"


def _report_json(report: TruthReport) -> Payload:
    from .formulas import pretty_print

    return {
        "formula": pretty_print(report.formula),
        "holds": report.holds,
        "witnesses": [_world_json(w) for w in report.witnesses],
        "locality": report.locality.value,
        "frame": report.frame.value,
        "vacuous_flags": [
            {
                "world": _world_json(flag.world),
                "counterfactual": pretty_print(flag.counterfactual),
            }
            for flag in report.vacuous_flags
        ],
    }


def _evidence_lines(report: Payload, indent: str) -> list[str]:
    """The witness and vacuous lines of a truth report's payload."""
    return [f"{indent}witness: {_world_line(w)}" for w in report["witnesses"]] + [
        f"{indent}vacuous: {flag['counterfactual']} at ({_label(flag['world'], ',')})"
        for flag in report["vacuous_flags"]
    ]


def _suite_json(suite: SuiteReport) -> Payload:
    return {
        "locality": suite.locality.value,
        "frame": suite.frame.value,
        "statements": {
            name: _report_json(report) for name, report in suite.statements.items()
        },
    }


# name: (help text, its module in hardyworlds.commands, the arguments it adds to
# the common options)
COMMANDS = {
    "model": ("inspect the chosen model", "model", ()),
    "check": ("evaluate one formula", "check", (
        (("formula",), {"help": "formula text, e.g. 'L2 => (R1 []-> R1-)'"}),
    )),
    "suite": ("run the statement suite", "suite", ()),
    "flow": ("left-choice dependence of the right-region statement", "flow", ()),
    "frames": ("compare frames and locality policies", "frames", ()),
    "lhv": ("local deterministic strategy feasibility", "lhv", ()),
    "hardy-scan": ("maximize h4 over the family", "hardy_scan", (
        (("--steps",), {
            "type": _steps_value,
            "default": 1000,
            "help": "grid steps, 10 to 1000000 (default: 1000)",
        }),
    )),
}


def _commands_module(name: str) -> Any:
    """``hardyworlds.commands.<name>``, by ``__import__``: ``-X importtime`` lists it."""
    return __import__(f"{__package__}.commands.{name}", fromlist=["run"])


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = plain_args(argv)
    if args is None:
        try:
            args = build_parser(argv[0] if argv else None).parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    expect = None if args.expect is None else _commands_module("expectations")
    try:
        expectations = {} if expect is None else expect.read_expectations(args.expect)
        payload, lines, checks = _commands_module(COMMANDS[args.command][1]).run(args)
    except (FormulaError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # parse and eval_model recurse once per nesting level of the formula
        print("error: formula is nested too deeply", file=sys.stderr)
        return 2
    except (InvalidModelError, InconsistentModelError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.output_format == "json":
        import json

        lines = [json.dumps(payload, indent=2)]
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:  # stdout is flushed again at exit: point it at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 4
    exit_code = 0 if expect is None else expect.apply_expectations(expectations, checks)
    if args.strict and checks.get("holds") is False:
        exit_code = 1
    return exit_code


def __getattr__(name: str) -> Any:
    """The package functions that perfbench/tracing.py wraps as attributes of
    this module, imported on first access; the commands call their own."""
    module = {"parse": "formulas", "eval_model": "semantics", "hardy_scan": "quantum",
              "enumerate_worlds": "worlds"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)
