"""``hardyworlds flow``: does the right-region statement follow the left choice?"""

from ..analysis import information_flow
from ..cli import Namespace, Result, _report_json, _truth, _world_json, _world_line, _world_model
from ..semantics import LocalityCondition


def run(args: Namespace) -> Result:
    model = _world_model(args)
    flow = information_flow(model, LocalityCondition(args.locality))
    values = model.table.values
    payload = {
        "f_of_L2": flow.f_of_L2,
        "f_of_L1": flow.f_of_L1,
        "dependent": flow.dependent,
        "witness": _world_json(flow.witness, values) if flow.witness else None,
        "reports": {name: _report_json(report, values) for name, report in flow.reports.items()},
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
