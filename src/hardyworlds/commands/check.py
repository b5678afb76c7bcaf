"""``hardyworlds check``: one formula's truth report."""

from ..cli import Namespace, Result, _evidence_lines, _report_json, _truth, _world_model
from ..formulas import parse
from ..semantics import LocalityCondition, eval_model


def run(args: Namespace) -> Result:
    formula = parse(args.formula)
    report = eval_model(_world_model(args), formula, LocalityCondition(args.locality))
    payload = _report_json(report)
    lines = [
        f"formula: {payload['formula']}",
        f"locality: {payload['locality']}",
        f"frame: {payload['frame']}",
        f"holds: {_truth(payload['holds'])}",
        *_evidence_lines(payload, ""),
    ]
    return payload, lines, {"holds": payload["holds"]}
