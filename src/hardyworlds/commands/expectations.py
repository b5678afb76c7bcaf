"""``--expect``: read a file of ``name=true|false`` lines and check a run against it."""

import sys
from pathlib import Path

from ..cli import UsageError, _truth


def read_expectations(path: str) -> dict[str, bool]:
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


def apply_expectations(expectations: dict[str, bool], checks: dict[str, bool]) -> int:
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
