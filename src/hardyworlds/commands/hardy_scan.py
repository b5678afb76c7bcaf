"""``hardyworlds hardy-scan``: the family member with the largest h4."""

from ..cli import Namespace, Result, format_probability
from ..quantum import hardy_scan


def run(args: Namespace) -> Result:
    x_best, p_best = hardy_scan(args.steps)
    payload = {"steps": args.steps, "x_best": x_best, "p_best": p_best}
    lines = [
        f"steps: {payload['steps']}",
        f"x_best: {payload['x_best']:.9f}",
        f"p_best: {format_probability(payload['p_best'])}",
    ]
    return payload, lines, {}
