"""``hardyworlds model show``: the possible worlds."""

from ..cli import Namespace, Result, _world_json, _world_line, _world_model


def run(args: Namespace) -> Result:
    model = _world_model(args)
    payload = {
        "epsilon": model.epsilon,
        "frame": model.frame.value,
        "worlds": [_world_json(w) for w in model.worlds],
    }
    return payload, [_world_line(w) for w in payload["worlds"]], {}
