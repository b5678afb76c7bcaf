"""Command line interface.

Subcommands: model show, check, suite, flow, frames, lhv, hardy-scan.
Exit codes: 0 success, 1 failed expectation or strict false check, 2 usage
or formula parse error, 3 invalid or inconsistent model.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Mapping

from . import analysis, modelio
from .errors import (
    DomainError,
    FormulaError,
    InconsistentModelError,
    InvalidModelError,
)
from .formulas import parse, pretty_print
from .labels import FrameOrdering
from .quantum import (
    BipartiteState,
    ExperimentConfig,
    canonical_hardy_model,
    hardy_family,
    hardy_scan,
    probability_table,
)
from .records import Record
from .semantics import LocalityCondition, TruthReport, eval_model
from .worlds import EPSILON_DEFAULT, EPSILON_MAX, World, WorldModel, enumerate_worlds

FRAMES = {
    "l-first": FrameOrdering.LEFT_BEFORE_RIGHT,
    "r-first": FrameOrdering.RIGHT_BEFORE_LEFT,
}
LOCALITIES = {
    "loc1": LocalityCondition.LOC1,
    "lightcone": LocalityCondition.LIGHT_CONE,
}


class RunConfig(Record):
    model_source: str
    epsilon: float
    frame: FrameOrdering
    locality: LocalityCondition
    output_format: str
    strict: bool
    expect_path: str | None

    def __init__(
        self,
        model_source: str,
        epsilon: float,
        frame: FrameOrdering,
        locality: LocalityCondition,
        output_format: str,
        strict: bool,
        expect_path: str | None,
    ) -> None:
        object.__setattr__(self, "model_source", model_source)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "locality", locality)
        object.__setattr__(self, "output_format", output_format)
        object.__setattr__(self, "strict", strict)
        object.__setattr__(self, "expect_path", expect_path)


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
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < EPSILON_MAX:
        raise argparse.ArgumentTypeError(
            f"epsilon must lie strictly in (0, {EPSILON_MAX})"
        )
    return value


def _steps_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 10:
        raise argparse.ArgumentTypeError("scan needs at least 10 grid steps")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group()
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
    common.add_argument(
        "--epsilon",
        type=_epsilon_value,
        default=EPSILON_DEFAULT,
        help=f"possibility threshold in (0, {EPSILON_MAX}) (default: {EPSILON_DEFAULT})",
    )
    common.add_argument(
        "--frame",
        choices=sorted(FRAMES),
        default="l-first",
        help="time order of the regions (default: l-first)",
    )
    common.add_argument(
        "--locality",
        choices=sorted(LOCALITIES),
        default="loc1",
        help="outcome protection policy (default: loc1)",
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when a check result is false",
    )
    common.add_argument(
        "--expect",
        metavar="PATH",
        help="file of name=true|false assertions; exit 1 on any mismatch",
    )

    parser = argparse.ArgumentParser(
        prog="hardyworlds",
        description=(
            "Possible-world and counterfactual analysis of Hardy-type "
            "two-qubit experiments."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    model_cmd = commands.add_parser("model", help="inspect the chosen model")
    model_actions = model_cmd.add_subparsers(dest="action", required=True)
    model_actions.add_parser(
        "show", parents=[common], help="list the possible worlds"
    )

    check_cmd = commands.add_parser(
        "check", parents=[common], help="evaluate one formula"
    )
    check_cmd.add_argument("formula", help="formula text, e.g. 'L2 => (R1 []-> R1-)'")

    commands.add_parser("suite", parents=[common], help="run the statement suite")
    commands.add_parser(
        "flow", parents=[common], help="left-choice dependence of the right-region statement"
    )
    commands.add_parser(
        "frames", parents=[common], help="compare frames and locality policies"
    )
    commands.add_parser(
        "lhv", parents=[common], help="local deterministic strategy feasibility"
    )
    scan_cmd = commands.add_parser(
        "hardy-scan", parents=[common], help="maximize h4 over the family"
    )
    scan_cmd.add_argument(
        "--steps", type=_steps_value, default=1000, help="grid steps (default: 1000)"
    )
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    source = args.model
    if args.family is not None:
        source = f"family:{args.family!r}"
    elif args.file is not None:
        source = f"file:{args.file}"
    return RunConfig(
        model_source=source,
        epsilon=args.epsilon,
        frame=FRAMES[args.frame],
        locality=LOCALITIES[args.locality],
        output_format=args.output_format,
        strict=args.strict,
        expect_path=args.expect,
    )


class UsageError(Exception):
    pass


def resolve_model(source: str) -> tuple[BipartiteState, ExperimentConfig]:
    if source == "canonical":
        return canonical_hardy_model()
    if source.startswith("family:"):
        text = source[len("family:"):]
        try:
            x = float(text)
        except ValueError:
            raise UsageError(f"not a family parameter: {text!r}") from None
        return hardy_family(x)
    if source.startswith("file:"):
        return modelio.load_model(source[len("file:"):])
    raise UsageError(
        f"unknown model source {source!r}; use canonical, family:<x>, or file:<path>"
    )


def build_world_model(config: RunConfig) -> WorldModel:
    state, experiment = resolve_model(config.model_source)
    table = probability_table(state, experiment)
    return enumerate_worlds(table, config.epsilon, config.frame)


def _world_json(world: World) -> dict[str, Any]:
    return {
        "left_setting": world.left_setting.name,
        "right_setting": world.right_setting.name,
        "left_outcome": world.left_outcome.value,
        "right_outcome": world.right_outcome.value,
        "probability": world.probability,
    }


def _world_line(world: World) -> str:
    return f"{world.label()} p={format_probability(world.probability)}"


def _report_json(report: TruthReport) -> dict[str, Any]:
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


def _report_lines(name: str, report: TruthReport) -> list[str]:
    holds = "true" if report.holds else "false"
    lines = [f"{name}: holds={holds}  {pretty_print(report.formula)}"]
    for witness in report.witnesses:
        lines.append(f"  witness: {_world_line(witness)}")
    for flag in report.vacuous_flags:
        lines.append(f"  vacuous: {flag.describe()}")
    return lines


def _suite_json(suite: analysis.SuiteReport) -> dict[str, Any]:
    return {
        "locality": suite.locality.value,
        "frame": suite.frame.value,
        "statements": {
            name: _report_json(report) for name, report in suite.statements.items()
        },
    }


Handler = Callable[[argparse.Namespace, RunConfig], tuple[Any, str, Mapping[str, bool]]]


def _handle_model_show(args, config):
    model = build_world_model(config)
    worlds = model.sorted_worlds()
    payload = {
        "epsilon": model.epsilon,
        "frame": model.frame.value,
        "worlds": [_world_json(w) for w in worlds],
    }
    text = "\n".join(_world_line(w) for w in worlds)
    return payload, text, {}


def _handle_check(args, config):
    formula = parse(args.formula)
    model = build_world_model(config)
    report = eval_model(model, formula, config.locality)
    payload = _report_json(report)
    holds = "true" if report.holds else "false"
    lines = [
        f"formula: {pretty_print(report.formula)}",
        f"locality: {report.locality.value}",
        f"frame: {report.frame.value}",
        f"holds: {holds}",
    ]
    for witness in report.witnesses:
        lines.append(f"witness: {_world_line(witness)}")
    for flag in report.vacuous_flags:
        lines.append(f"vacuous: {flag.describe()}")
    return payload, "\n".join(lines), {"holds": report.holds}


def _handle_suite(args, config):
    model = build_world_model(config)
    suite = analysis.theorem_suite(model, config.locality)
    payload = _suite_json(suite)
    lines: list[str] = []
    for name, report in suite.statements.items():
        lines.extend(_report_lines(name, report))
    lines.append(f"locality: {suite.locality.value}")
    lines.append(f"frame: {suite.frame.value}")
    return payload, "\n".join(lines), suite.truth_values()


def _handle_flow(args, config):
    model = build_world_model(config)
    flow = analysis.information_flow(model, config.locality)
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
    as_text = lambda value: "true" if value else "false"
    lines = [
        f"f(L2): {as_text(flow.f_of_L2)}",
        f"f(L1): {as_text(flow.f_of_L1)}",
        f"dependent: {as_text(flow.dependent)}",
    ]
    if flow.witness is not None:
        lines.append(f"witness: {_world_line(flow.witness)}")
    for note in flow.interpretation:
        lines.append(f"note: {note}")
    checks = {
        "f_of_L2": flow.f_of_L2,
        "f_of_L1": flow.f_of_L1,
        "dependent": flow.dependent,
    }
    return payload, "\n".join(lines), checks


def _handle_frames(args, config):
    state, experiment = resolve_model(config.model_source)
    table = probability_table(state, experiment)
    comparison = analysis.frame_comparison(table, config.epsilon)
    payload = {
        "suites": {
            key: _suite_json(suite) for key, suite in comparison.suites.items()
        },
        "divergence": None,
        "stmt1_frame_dependent": comparison.stmt1_frame_dependent,
    }
    lines: list[str] = []
    checks: dict[str, bool] = {}
    for key, suite in comparison.suites.items():
        lines.append(f"[{key}]")
        for name, report in suite.statements.items():
            holds = "true" if report.holds else "false"
            lines.append(f"{name}: holds={holds}")
            checks[f"{key}.{name}"] = report.holds
    if comparison.divergence is not None:
        div = comparison.divergence
        payload["divergence"] = {
            "formula": div.text,
            "world": _world_json(div.world),
            "results": dict(div.results),
        }
        lines.append(f"divergence: {div.text} at world {div.world.label()}")
        for key, value in div.results.items():
            lines.append(f"  {key}: {'true' if value else 'false'}")
            checks[f"divergence.{key}"] = value
    frame_dep = comparison.stmt1_frame_dependent
    lines.append(
        f"stmt1 frame-dependent under loc1: {'true' if frame_dep else 'false'}"
    )
    checks["stmt1_frame_dependent"] = frame_dep
    return payload, "\n".join(lines), checks


def _handle_lhv(args, config):
    state, experiment = resolve_model(config.model_source)
    table = probability_table(state, experiment)
    report = analysis.lhv_feasibility(table, config.epsilon)
    payload = {
        "feasible": report.feasible,
        "excluded_strategies": [
            {
                "strategy": {
                    setting.name: outcome.value
                    for setting, outcome in (
                        strategy.left_map | strategy.right_map
                    ).items()
                },
                "excluded_by": label,
            }
            for strategy, label in report.excluded_strategies
        ],
        "surviving_strategies": [
            {
                setting.name: outcome.value
                for setting, outcome in (
                    strategy.left_map | strategy.right_map
                ).items()
            }
            for strategy in report.surviving_strategies
        ],
        "contradiction_trace": report.contradiction_trace,
    }
    lines = [
        f"feasible: {'true' if report.feasible else 'false'}",
        f"excluded strategies: {len(report.excluded_strategies)} of 16",
        report.contradiction_trace,
    ]
    return payload, "\n".join(lines), {"feasible": report.feasible}


def _handle_hardy_scan(args, config):
    x_best, p_best = hardy_scan(args.steps)
    payload = {"steps": args.steps, "x_best": x_best, "p_best": p_best}
    lines = [
        f"steps: {args.steps}",
        f"x_best: {x_best:.9f}",
        f"p_best: {format_probability(p_best)}",
    ]
    return payload, "\n".join(lines), {}


def read_expectations(path: str) -> dict[str, bool]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
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
            actual = "true" if checks[name] else "false"
            wanted = "true" if expected else "false"
            print(f"expect: {name}: wanted {wanted}, got {actual}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


_HANDLERS: dict[str, Handler] = {
    "model": _handle_model_show,
    "check": _handle_check,
    "suite": _handle_suite,
    "flow": _handle_flow,
    "frames": _handle_frames,
    "lhv": _handle_lhv,
    "hardy-scan": _handle_hardy_scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    config = _run_config(args)
    expectations: dict[str, bool] = {}
    try:
        if config.expect_path is not None:
            expectations = read_expectations(config.expect_path)
        payload, text, checks = _HANDLERS[args.command](args, config)
    except FormulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidModelError, InconsistentModelError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if config.output_format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)
    exit_code = apply_expectations(expectations, checks)
    if config.strict and checks.get("holds") is False:
        exit_code = 1
    return exit_code
