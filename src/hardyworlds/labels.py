"""Labels for the two-region, two-setting, two-outcome experiment.

The left and right regions each choose one of two experiment settings
(labelled 1 and 2) and observe one of two outcomes (plus or minus).  A
frame ordering says which region is earlier in time; it is a property of
the description, not of the statistics.
"""

from __future__ import annotations

import enum


class Region(enum.Enum):
    LEFT = "L"
    RIGHT = "R"

    @property
    def other(self) -> "Region":
        return Region.RIGHT if self is Region.LEFT else Region.LEFT

    def __str__(self) -> str:
        return self.value


class Setting(enum.Enum):
    """One of the four experiment choices: L1, L2, R1, R2."""

    L1 = (Region.LEFT, 1)
    L2 = (Region.LEFT, 2)
    R1 = (Region.RIGHT, 1)
    R2 = (Region.RIGHT, 2)

    def __init__(self, region: Region, index: int) -> None:
        self.region = region
        self.index = index

    @classmethod
    def from_name(cls, name: str) -> "Setting":
        try:
            return cls[name]
        except KeyError:
            raise ValueError(f"unknown setting label {name!r}") from None

    def __str__(self) -> str:
        return self.name


class Outcome(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    @classmethod
    def from_symbol(cls, symbol: str) -> "Outcome":
        for member in cls:
            if member.value == symbol:
                return member
        raise ValueError(f"unknown outcome symbol {symbol!r}")

    def __str__(self) -> str:
        return self.value


class FrameOrdering(enum.Enum):
    """Time order of the two regions in a given frame of reference."""

    LEFT_BEFORE_RIGHT = "l-first"
    RIGHT_BEFORE_LEFT = "r-first"

    @property
    def earlier(self) -> Region:
        if self is FrameOrdering.LEFT_BEFORE_RIGHT:
            return Region.LEFT
        return Region.RIGHT

    def __str__(self) -> str:
        return self.value


LEFT_SETTINGS = (Setting.L1, Setting.L2)
RIGHT_SETTINGS = (Setting.R1, Setting.R2)
SETTING_PAIRS = tuple(
    (ls, rs) for ls in LEFT_SETTINGS for rs in RIGHT_SETTINGS
)
OUTCOMES = (Outcome.PLUS, Outcome.MINUS)
