"""Command line interface.

Subcommands: model show, check, suite, flow, frames, lhv, hardy-scan.
Exit codes: 0 success, 1 failed expectation or strict false check, 2 usage,
formula parse or depth error, 3 invalid or inconsistent model, 4 closed stdout.
Each subcommand builds one JSON payload and reads its text and checks from it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Any, Mapping

from .errors import DomainError, FormulaError, InconsistentModelError, InvalidModelError
from .labels import FrameOrdering
from .quantum import (
    SCAN_STEPS_MAX,
    JointProbabilityTable,
    canonical_hardy_model,
    check_epsilon,
    hardy_family,
    hardy_scan,
    probability_table,
)
from .worlds import EPSILON_DEFAULT, EPSILON_MAX, World, WorldModel, enumerate_worlds

# Each command imports the other layers it runs when it runs, so a fresh
# hardy-scan or model show process never loads formulas, semantics or
# analysis.  These imports serve the annotations only.
if TYPE_CHECKING:
    from . import analysis
    from .semantics import LocalityCondition, TruthReport

FRAMES = {
    "l-first": FrameOrdering.LEFT_BEFORE_RIGHT,
    "r-first": FrameOrdering.RIGHT_BEFORE_LEFT,
}
LOCALITIES = ("loc1", "lightcone")  # the values of semantics.LocalityCondition
Payload = dict[str, Any]


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


def _epsilon_value(text: str) -> float:
    try:
        return check_epsilon(float(text))
    except DomainError:  # a ValueError too, so caught first
        raise argparse.ArgumentTypeError(
            f"epsilon must lie strictly in (0, {EPSILON_MAX})"
        ) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _steps_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 10:
        raise argparse.ArgumentTypeError("scan needs at least 10 grid steps")
    if value > SCAN_STEPS_MAX:
        raise argparse.ArgumentTypeError(f"scan takes at most {SCAN_STEPS_MAX} steps")
    return value


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--model",
        default="canonical",
        metavar="SOURCE",
        help="canonical, family:<x>, or file:<path> (default: canonical)",
    )
    source.add_argument(
        "--family", type=float, metavar="X", help="shorthand for --model family:<x>"
    )
    source.add_argument(
        "--file", metavar="PATH", help="shorthand for --model file:<path>"
    )
    parser.add_argument(
        "--epsilon",
        type=_epsilon_value,
        default=EPSILON_DEFAULT,
        help=f"possibility threshold in (0, {EPSILON_MAX}) (default: {EPSILON_DEFAULT})",
    )
    parser.add_argument(
        "--frame",
        choices=sorted(FRAMES),
        default="l-first",
        help="time order of the regions (default: l-first)",
    )
    parser.add_argument(
        "--locality",
        choices=sorted(LOCALITIES),
        default="loc1",
        help="outcome protection policy (default: loc1)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when a check result is false",
    )
    parser.add_argument(
        "--expect",
        metavar="PATH",
        help="file of name=true|false assertions; exit 1 on any mismatch",
    )


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The CLI's parser.  Every subcommand is listed with its help text, but
    only ``command``'s subparser gets its options, so a run builds the
    options of the one command it runs."""
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
        _add_common_options(subparser)
        for flags, options in arguments:
            subparser.add_argument(*flags, **options)
    return parser


class UsageError(Exception):
    pass


def _table(args: argparse.Namespace) -> JointProbabilityTable:
    """The probability table of the model named by --model, --family or --file."""
    source = args.model
    if args.family is not None:
        source = f"family:{args.family!r}"
    elif args.file is not None:
        source = f"file:{args.file}"
    if source == "canonical":
        state, experiment = canonical_hardy_model()
    elif source.startswith("family:"):
        text = source[len("family:"):]
        try:
            x = float(text)
        except ValueError:
            raise UsageError(f"not a family parameter: {text!r}") from None
        state, experiment = hardy_family(x)
    elif source.startswith("file:"):
        path = source[len("file:"):]
        if not path:
            raise UsageError("model file path is empty")
        from . import modelio

        state, experiment = modelio.load_model(path)
    else:
        raise UsageError(
            f"unknown model source {source!r}; use canonical, family:<x>, or file:<path>"
        )
    return probability_table(state, experiment)


def _world_model(args: argparse.Namespace) -> WorldModel:
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


def _suite_json(suite: analysis.SuiteReport) -> Payload:
    return {
        "locality": suite.locality.value,
        "frame": suite.frame.value,
        "statements": {
            name: _report_json(report) for name, report in suite.statements.items()
        },
    }


def _strategy_json(strategy: analysis.DeterministicStrategy) -> dict[str, str]:
    return {"L1": strategy.on_l1.value, "L2": strategy.on_l2.value,
            "R1": strategy.on_r1.value, "R2": strategy.on_r2.value}


# A command's payload, then its text lines and its checks, both read from the payload
Result = tuple[Payload, list[str], dict[str, bool]]


def _model_show(args: argparse.Namespace) -> Result:
    model = _world_model(args)
    payload = {
        "epsilon": model.epsilon,
        "frame": model.frame.value,
        "worlds": [_world_json(w) for w in model.worlds],
    }
    return payload, [_world_line(w) for w in payload["worlds"]], {}


def _locality(args: argparse.Namespace) -> LocalityCondition:
    from .semantics import LocalityCondition

    return LocalityCondition(args.locality)


def _check(args: argparse.Namespace) -> Result:
    from .formulas import parse
    from .semantics import eval_model

    formula = parse(args.formula)
    report = eval_model(_world_model(args), formula, _locality(args))
    payload = _report_json(report)
    lines = [
        f"formula: {payload['formula']}",
        f"locality: {payload['locality']}",
        f"frame: {payload['frame']}",
        f"holds: {_truth(payload['holds'])}",
        *_evidence_lines(payload, ""),
    ]
    return payload, lines, {"holds": payload["holds"]}


def _suite(args: argparse.Namespace) -> Result:
    from . import analysis

    suite = analysis.theorem_suite(_world_model(args), _locality(args))
    payload = _suite_json(suite)
    lines: list[str] = []
    for name, report in payload["statements"].items():
        lines.append(f"{name}: holds={_truth(report['holds'])}  {report['formula']}")
        lines.extend(_evidence_lines(report, "  "))
    lines += [f"locality: {payload['locality']}", f"frame: {payload['frame']}"]
    checks = {name: report["holds"] for name, report in payload["statements"].items()}
    return payload, lines, checks


def _flow(args: argparse.Namespace) -> Result:
    from . import analysis

    flow = analysis.information_flow(_world_model(args), _locality(args))
    payload = {
        "f_of_L2": flow.f_of_L2,
        "f_of_L1": flow.f_of_L1,
        "dependent": flow.dependent,
        "witness": _world_json(flow.witness) if flow.witness else None,
        "reports": {
            name: _report_json(report) for name, report in flow.reports.items()
        },
        "interpretation": list(flow.interpretation),
    }
    lines = [
        f"f(L2): {_truth(payload['f_of_L2'])}",
        f"f(L1): {_truth(payload['f_of_L1'])}",
        f"dependent: {_truth(payload['dependent'])}",
    ]
    if payload["witness"] is not None:
        lines.append(f"witness: {_world_line(payload['witness'])}")
    lines.extend(f"note: {note}" for note in payload["interpretation"])
    checks = {key: payload[key] for key in ("f_of_L2", "f_of_L1", "dependent")}
    return payload, lines, checks


def _frames(args: argparse.Namespace) -> Result:
    from . import analysis

    comparison = analysis.frame_comparison(_table(args), args.epsilon)
    div = comparison.divergence
    payload = {
        "suites": {
            key: _suite_json(suite) for key, suite in comparison.suites.items()
        },
        "divergence": None if div is None else {
            "formula": div.text,
            "world": _world_json(div.world),
            "results": dict(div.results),
        },
        "stmt1_frame_dependent": comparison.stmt1_frame_dependent,
        "protection": {
            name: {"rests_on": [r.value for r in regions], "flips": comparison.flips[name]}
            for name, regions in comparison.rests_on.items()
        },
    }
    lines: list[str] = []
    checks: dict[str, bool] = {}
    for key, suite in payload["suites"].items():
        lines.append(f"[{key}]")
        for name, report in suite["statements"].items():
            lines.append(f"{name}: holds={_truth(report['holds'])}")
            checks[f"{key}.{name}"] = report["holds"]
    divergence = payload["divergence"]
    if divergence is not None:
        world = _label(divergence["world"])
        lines.append(f"divergence: {divergence['formula']} at world {world}")
        for key, value in divergence["results"].items():
            lines.append(f"  {key}: {_truth(value)}")
            checks[f"divergence.{key}"] = value
    frame_dependent = payload["stmt1_frame_dependent"]
    lines.append(f"stmt1 frame-dependent under loc1: {_truth(frame_dependent)}")
    checks["stmt1_frame_dependent"] = frame_dependent
    return payload, lines, checks


def _lhv(args: argparse.Namespace) -> Result:
    from . import analysis

    report = analysis.lhv_feasibility(_table(args), args.epsilon)
    payload = {
        "feasible": report.feasible,
        "excluded_strategies": [
            {"strategy": _strategy_json(strategy), "excluded_by": label}
            for strategy, label in report.excluded_strategies
        ],
        "surviving_strategies": [
            _strategy_json(strategy) for strategy in report.surviving_strategies
        ],
        "contradiction_trace": report.contradiction_trace,
    }
    lines = [
        f"feasible: {_truth(payload['feasible'])}",
        f"excluded strategies: {len(payload['excluded_strategies'])} of 16",
        payload["contradiction_trace"],
    ]
    return payload, lines, {"feasible": payload["feasible"]}


def _hardy_scan(args: argparse.Namespace) -> Result:
    x_best, p_best = hardy_scan(args.steps)
    payload = {"steps": args.steps, "x_best": x_best, "p_best": p_best}
    lines = [
        f"steps: {payload['steps']}",
        f"x_best: {payload['x_best']:.9f}",
        f"p_best: {format_probability(payload['p_best'])}",
    ]
    return payload, lines, {}


# name: (help text, run function, the arguments it adds to the common options)
COMMANDS = {
    "model": ("inspect the chosen model", _model_show, ()),
    "check": ("evaluate one formula", _check, (
        (("formula",), {"help": "formula text, e.g. 'L2 => (R1 []-> R1-)'"}),
    )),
    "suite": ("run the statement suite", _suite, ()),
    "flow": ("left-choice dependence of the right-region statement", _flow, ()),
    "frames": ("compare frames and locality policies", _frames, ()),
    "lhv": ("local deterministic strategy feasibility", _lhv, ()),
    "hardy-scan": ("maximize h4 over the family", _hardy_scan, (
        (("--steps",), {
            "type": _steps_value,
            "default": 1000,
            "help": "grid steps, 10 to 1000000 (default: 1000)",
        }),
    )),
}


def read_expectations(path: str) -> dict[str, bool]:
    from pathlib import Path

    if not path:
        # Path('') is the working directory
        raise UsageError("expectation file path is empty")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read expectation file {path}: {exc}") from exc
    expectations: dict[str, bool] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value = (part.strip() for part in line.partition("="))
        if not sep or value not in ("true", "false"):
            raise UsageError(
                f"{path}:{number}: expected 'name=true' or 'name=false', got {raw!r}"
            )
        if name in expectations:
            raise UsageError(f"{path}:{number}: check {name!r} is already expected")
        expectations[name] = value == "true"
    return expectations


def apply_expectations(
    expectations: Mapping[str, bool], checks: Mapping[str, bool]
) -> int:
    failures = 0
    for name, expected in expectations.items():
        if name not in checks:
            print(f"expect: {name}: no such check", file=sys.stderr)
            failures += 1
        elif checks[name] is not expected:
            wanted, actual = _truth(expected), _truth(checks[name])
            print(f"expect: {name}: wanted {wanted}, got {actual}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        expectations = {} if args.expect is None else read_expectations(args.expect)
        payload, lines, checks = COMMANDS[args.command][1](args)
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
    exit_code = apply_expectations(expectations, checks)
    if args.strict and checks.get("holds") is False:
        exit_code = 1
    return exit_code


def __getattr__(name: str) -> Any:
    """``parse`` and ``eval_model`` as attributes of this module, imported on
    first access: perfbench/tracing.py wraps them here."""
    if name == "parse":
        from .formulas import parse as value
    elif name == "eval_model":
        from .semantics import eval_model as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return value
