"""``hardyworlds lhv``: can local deterministic strategies give the table's support?"""

from ..analysis import DeterministicStrategy, lhv_feasibility
from ..cli import Namespace, Result, _table, _truth


def _strategy_json(strategy: DeterministicStrategy) -> dict[str, str]:
    return {"L1": strategy.on_l1.value, "L2": strategy.on_l2.value,
            "R1": strategy.on_r1.value, "R2": strategy.on_r2.value}


def run(args: Namespace) -> Result:
    report = lhv_feasibility(_table(args), args.epsilon)
    payload = {
        "feasible": report.feasible,
        "excluded_strategies": [
            {"strategy": _strategy_json(strategy), "excluded_by": label}
            for strategy, label in report.excluded_strategies
        ],
        "surviving_strategies": [_strategy_json(s) for s in report.surviving_strategies],
        "contradiction_trace": report.contradiction_trace,
    }
    lines = [
        f"feasible: {_truth(payload['feasible'])}",
        f"excluded strategies: {len(payload['excluded_strategies'])} of 16",
        payload["contradiction_trace"],
    ]
    return payload, lines, {"feasible": payload["feasible"]}
