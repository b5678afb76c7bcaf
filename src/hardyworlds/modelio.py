"""Reading and writing experiment descriptions as JSON documents.

A model file is a JSON object with the keys

    amplitudes    four [re, im] pairs, computational order 00, 01, 10, 11
    left.basis1   2x2 complex matrix, rows = plus vector then minus vector
    left.basis2   likewise
    right.basis1  likewise
    right.basis2  likewise

where each matrix entry is again an [re, im] pair.  The basis keys may be
spelled either as nested objects ({"left": {"basis1": ...}}) or as flat
dotted keys ("left.basis1").  Validation of normalization and orthogonality
happens in the state and basis constructors.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import InvalidModelError
from .quantum import BipartiteState, ExperimentConfig, MeasurementBasis

_SIDES = ("left", "right")
_BASIS_KEYS = ("basis1", "basis2")


def _as_complex(entry: Any, what: str) -> complex:
    # JSON true and false decode to bool, a subclass of int
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not isinstance(entry[0], (int, float)) or isinstance(entry[0], bool)
        or not isinstance(entry[1], (int, float)) or isinstance(entry[1], bool)
    ):
        raise InvalidModelError(f"{what} must be an [re, im] pair, got {entry!r}")
    try:
        return complex(float(entry[0]), float(entry[1]))
    except OverflowError:
        raise InvalidModelError(f"{what} is too large for a float") from None


def _as_vector(entry: Any, what: str) -> tuple[complex, complex]:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise InvalidModelError(f"{what} must be a 2-component vector")
    return (
        _as_complex(entry[0], f"{what} component 0"),
        _as_complex(entry[1], f"{what} component 1"),
    )


def _basis_document(document: dict[str, Any], side: str, key: str) -> Any:
    nested = document.get(side)
    if isinstance(nested, dict) and key in nested:
        return nested[key]
    flat = f"{side}.{key}"
    if flat in document:
        return document[flat]
    raise InvalidModelError(f"model document is missing key {flat}")


def _parse_basis(entry: Any, what: str) -> MeasurementBasis:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise InvalidModelError(
            f"{what} must be a 2x2 matrix with rows plus then minus"
        )
    return MeasurementBasis(
        plus=_as_vector(entry[0], f"{what} plus row"),
        minus=_as_vector(entry[1], f"{what} minus row"),
    )


def parse_model(document: Any) -> tuple[BipartiteState, ExperimentConfig]:
    """Build a state and configuration from a decoded model document."""
    if not isinstance(document, dict):
        raise InvalidModelError("model document must be a JSON object")
    raw_amps = document.get("amplitudes")
    if not isinstance(raw_amps, (list, tuple)) or len(raw_amps) != 4:
        raise InvalidModelError(
            "model document needs an 'amplitudes' list of four [re, im] pairs"
        )
    amplitudes = tuple(
        _as_complex(entry, f"amplitude {index}") for index, entry in enumerate(raw_amps)
    )
    state = BipartiteState(amplitudes)  # type: ignore[arg-type]
    bases = {
        side: {
            index + 1: _parse_basis(
                _basis_document(document, side, key), f"{side}.{key}"
            )
            for index, key in enumerate(_BASIS_KEYS)
        }
        for side in _SIDES
    }
    config = ExperimentConfig(left=bases["left"], right=bases["right"])
    return state, config


def load_model(path: str | Path) -> tuple[BipartiteState, ExperimentConfig]:
    """Read a model file from ``path``."""
    if path == "":
        # Path('') is the working directory
        raise InvalidModelError("model file path is empty")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidModelError(f"cannot read model file {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a syntax error, an integer past int's digit limit, or nesting past
        # the recursion limit
        raise InvalidModelError(f"model file {path} is not valid JSON: {exc}") from exc
    return parse_model(document)


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def dump_model(state: BipartiteState, config: ExperimentConfig) -> dict[str, Any]:
    """Encode a state and configuration as a nested model document."""
    sides = {
        side: {
            key: [[_pair(v) for v in row] for row in (basis.plus, basis.minus)]
            for key, basis in zip(_BASIS_KEYS, (bases[1], bases[2]))
        }
        for side, bases in zip(_SIDES, (config.left, config.right))
    }
    return {"amplitudes": [_pair(a) for a in state.amplitudes], **sides}


def save_model(
    state: BipartiteState, config: ExperimentConfig, path: str | Path
) -> None:
    """Write a model file to ``path``."""
    Path(path).write_text(
        json.dumps(dump_model(state, config), indent=2) + "\n", encoding="utf-8"
    )
