"""``hardyworlds frames``: the suites under both frames and both policies."""

from ..analysis import frame_comparison
from ..cli import Namespace, Result, _label, _suite_json, _table, _truth, _world_json


def run(args: Namespace) -> Result:
    table = _table(args)
    comparison, values = frame_comparison(table, args.epsilon), table.values
    div = comparison.divergence
    payload = {
        "suites": {key: _suite_json(suite, values) for key, suite in comparison.suites.items()},
        "divergence": None if div is None else {
            "formula": div.text,
            "world": _world_json(div.world, values),
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
