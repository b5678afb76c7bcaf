"""Possible worlds of an experiment table.

A world fixes both settings and both outcomes and carries the probability
the table assigns to that combination.  Only combinations with probability
strictly above the classification threshold epsilon count as possible.
World identity is the four coordinates; the probability tags along for
reporting but plays no role in equality, so all logic downstream is modal.
"""

from __future__ import annotations

from typing import Any, Iterator

from .errors import DomainError, InconsistentModelError
from .labels import SETTING_PAIRS, FrameOrdering, Outcome, Region, Setting
from .quantum import JointProbabilityTable
from .records import Record

EPSILON_DEFAULT = 1e-9
EPSILON_MAX = 0.1


class World(Record):
    """One setting/outcome combination; ``probability`` is not part of its
    identity, so equality and hashing use the four coordinates alone."""

    left_setting: Setting
    right_setting: Setting
    left_outcome: Outcome
    right_outcome: Outcome
    probability: float

    def __init__(
        self,
        left_setting: Setting,
        right_setting: Setting,
        left_outcome: Outcome,
        right_outcome: Outcome,
        probability: float,
    ) -> None:
        if left_setting.region is not Region.LEFT:
            raise ValueError(f"{left_setting} is not a left setting")
        if right_setting.region is not Region.RIGHT:
            raise ValueError(f"{right_setting} is not a right setting")
        object.__setattr__(self, "left_setting", left_setting)
        object.__setattr__(self, "right_setting", right_setting)
        object.__setattr__(self, "left_outcome", left_outcome)
        object.__setattr__(self, "right_outcome", right_outcome)
        object.__setattr__(self, "probability", probability)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.left_setting,
                self.right_setting,
                self.left_outcome,
                self.right_outcome,
            ) == (
                other.left_setting,
                other.right_setting,
                other.left_outcome,
                other.right_outcome,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            (self.left_setting, self.right_setting, self.left_outcome, self.right_outcome)
        )

    def setting_in(self, region: Region) -> Setting:
        return self.left_setting if region is Region.LEFT else self.right_setting

    def outcome_in(self, region: Region) -> Outcome:
        return self.left_outcome if region is Region.LEFT else self.right_outcome

    @property
    def sort_key(self) -> tuple[int, int, int, int]:
        return (
            self.left_setting.index,
            self.right_setting.index,
            self.left_outcome.sort_index,
            self.right_outcome.sort_index,
        )

    def label(self) -> str:
        return (
            f"{self.left_setting} {self.right_setting} "
            f"{self.left_outcome} {self.right_outcome}"
        )

    def __str__(self) -> str:
        return f"({self.left_setting},{self.right_setting},{self.left_outcome},{self.right_outcome})"


class WorldModel(Record):
    """The possible worlds of a table, with the frame used to order regions."""

    worlds: frozenset[World]
    table: JointProbabilityTable
    epsilon: float
    frame: FrameOrdering

    def sorted_worlds(self) -> list[World]:
        return sorted(self.worlds, key=lambda w: w.sort_key)

    def worlds_for_pair(
        self, left_setting: Setting, right_setting: Setting
    ) -> list[World]:
        return [
            w
            for w in self.sorted_worlds()
            if w.left_setting is left_setting and w.right_setting is right_setting
        ]

    def find(
        self,
        left_setting: Setting,
        right_setting: Setting,
        left_outcome: Outcome,
        right_outcome: Outcome,
    ) -> World | None:
        for w in self.worlds:
            if (
                w.left_setting is left_setting
                and w.right_setting is right_setting
                and w.left_outcome is left_outcome
                and w.right_outcome is right_outcome
            ):
                return w
        return None

    def __iter__(self) -> Iterator[World]:
        return iter(self.sorted_worlds())

    def __len__(self) -> int:
        return len(self.worlds)


def enumerate_worlds(
    table: JointProbabilityTable,
    epsilon: float = EPSILON_DEFAULT,
    frame: FrameOrdering = FrameOrdering.LEFT_BEFORE_RIGHT,
) -> WorldModel:
    """Collect every setting/outcome combination with probability > epsilon.

    Raises InconsistentModelError when some setting pair ends up with no
    possible world at all; free choice of settings demands at least one
    possible outcome for every pair.

    The world set is built once per table and epsilon and kept in the
    table's memo under the epsilon; later calls, in either frame, wrap that
    same set in a new model.  A table that violates free choice keeps
    nothing, so every call raises.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < EPSILON_MAX:
        raise DomainError(
            f"epsilon must lie strictly in (0, {EPSILON_MAX}), got {epsilon!r}"
        )
    memo = table._memo
    worlds = memo.get(epsilon)
    if worlds is None:
        # entries iterate in CELLS order: cell i is bit i, and the four
        # cells of setting pair k are bits 4k..4k+3
        support = 0
        for i, p in enumerate(table.entries.values()):
            if p > epsilon:
                support |= 1 << i
        for k, (ls, rs) in enumerate(SETTING_PAIRS):
            if not support >> 4 * k & 0xF:
                raise InconsistentModelError(
                    f"free-choice violation: settings ({ls}, {rs}) admit no "
                    f"outcome with probability above {epsilon}"
                )
        worlds = memo[epsilon] = frozenset(
            World(ls, rs, lo, ro, probability=p)
            for (ls, rs, lo, ro), p in table.entries.items()
            if p > epsilon
        )
    return WorldModel(worlds=worlds, table=table, epsilon=epsilon, frame=frame)
