"""Possible worlds of an experiment table.

A world is one setting/outcome combination: both settings and both
outcomes, nothing else.  It is the cell ``CELLS[index]``, and the 16 of
them are built once, as ``WORLDS``; every model, report and memo shares
them.  A world carries no probability: the one a table assigns to it is
``model.table.values[world.index]``.  Only combinations with probability
strictly above the classification threshold epsilon count as possible, so
all logic downstream is modal.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from .errors import InconsistentModelError
from .labels import SETTING_PAIRS, FrameOrdering, Outcome, Region, Setting
from .quantum import EPSILON_DEFAULT, EPSILON_MAX  # re-exported
from .quantum import CELL_INDEX, CELLS, JointProbabilityTable, check_epsilon, support
from .records import Record


class World(Record):
    """One setting/outcome combination.  ``index`` is its position in
    ``CELLS``, the order of a model's worlds, and its identity: equality
    and hashing use it alone.  The constructor checks its cell."""

    left_setting: Setting
    right_setting: Setting
    left_outcome: Outcome
    right_outcome: Outcome

    def __init__(
        self,
        left_setting: Setting,
        right_setting: Setting,
        left_outcome: Outcome,
        right_outcome: Outcome,
    ) -> None:
        if left_setting.region is not Region.LEFT:
            raise ValueError(f"{left_setting} is not a left setting")
        if right_setting.region is not Region.RIGHT:
            raise ValueError(f"{right_setting} is not a right setting")
        cell = (left_setting, right_setting, left_outcome, right_outcome)
        for name, value in zip(self._fields, cell):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "index", CELL_INDEX[cell])

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return self.index

    def setting_in(self, region: Region) -> Setting:
        return self.left_setting if region is Region.LEFT else self.right_setting

    def outcome_in(self, region: Region) -> Outcome:
        return self.left_outcome if region is Region.LEFT else self.right_outcome

    def label(self) -> str:
        return (
            f"{self.left_setting} {self.right_setting} "
            f"{self.left_outcome} {self.right_outcome}"
        )

    def __str__(self) -> str:
        return f"({self.left_setting},{self.right_setting},{self.left_outcome},{self.right_outcome})"


# The 16 worlds in CELLS order: WORLDS[i] is the cell CELLS[i]
WORLDS: tuple[World, ...] = tuple(World(*cell) for cell in CELLS)


class WorldModel(Record):
    """The possible worlds of a table, as a tuple in ``CELLS`` order, with
    the frame used to order regions.  Worlds that do not strictly increase
    in ``CELLS`` index, out of order or repeated, raise ``ValueError``.

    ``mask`` is not a field: bit i is set when ``CELLS[i]`` is a world of
    the model, so models with equal masks have equal worlds, whatever
    their table or frame."""

    worlds: tuple[World, ...]
    table: JointProbabilityTable
    epsilon: float
    frame: FrameOrdering

    def __init__(self, worlds: Iterable[World], table: JointProbabilityTable,
                 epsilon: float, frame: FrameOrdering) -> None:
        worlds = tuple(worlds)
        mask = 0
        for w in worlds:
            if mask >> w.index:
                raise ValueError("a model's worlds must be distinct and in CELLS order")
            mask |= 1 << w.index
        self._set(worlds, table, epsilon, frame, mask)

    def _set(self, *values: Any) -> None:
        """Set the fields and then ``mask``, in that order, unchecked."""
        for name, value in zip((*self._fields, "mask"), values):
            object.__setattr__(self, name, value)

    def find(
        self,
        left_setting: Setting,
        right_setting: Setting,
        left_outcome: Outcome,
        right_outcome: Outcome,
    ) -> World | None:
        index = CELL_INDEX[(left_setting, right_setting, left_outcome, right_outcome)]
        return WORLDS[index] if self.mask >> index & 1 else None

    def __iter__(self) -> Iterator[World]:
        return iter(self.worlds)

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

    The worlds are those of ``WORLDS`` in the table's support, in ``CELLS``
    order, the order of the table's ``values``; none is built.
    """
    epsilon = check_epsilon(epsilon)
    possible = support(table, epsilon)
    # the four cells of setting pair k are bits 4k..4k+3
    for k, (ls, rs) in enumerate(SETTING_PAIRS):
        if not possible >> 4 * k & 0xF:
            raise InconsistentModelError(
                f"free-choice violation: settings ({ls}, {rs}) admit no "
                f"outcome with probability above {epsilon}"
            )
    worlds = tuple([w for w in WORLDS if possible >> w.index & 1])
    model = object.__new__(WorldModel)
    model._set(worlds, table, epsilon, frame, possible)
    return model
