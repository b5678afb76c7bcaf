"""``hardyworlds suite``: the three catalogued statements."""

from ..analysis import theorem_suite
from ..cli import Namespace, Result, _evidence_lines, _suite_json, _truth, _world_model
from ..semantics import LocalityCondition


def run(args: Namespace) -> Result:
    suite = theorem_suite(_world_model(args), LocalityCondition(args.locality))
    payload = _suite_json(suite)
    lines: list[str] = []
    for name, report in payload["statements"].items():
        lines.append(f"{name}: holds={_truth(report['holds'])}  {report['formula']}")
        lines.extend(_evidence_lines(report, "  "))
    lines += [f"locality: {payload['locality']}", f"frame: {payload['frame']}"]
    checks = {name: report["holds"] for name, report in payload["statements"].items()}
    return payload, lines, checks
