"""Possible worlds of an experiment table.

A world fixes both settings and both outcomes and carries the probability
the table assigns to that combination.  Only combinations with probability
strictly above the classification threshold epsilon count as possible.
World identity is the four coordinates; the probability tags along for
reporting but plays no role in equality, so all logic downstream is modal.
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
    ``CELLS``, the order of a model's worlds; ``probability`` is not part of
    its identity, so equality and hashing use the four coordinates alone.
    The constructor checks its cell; ``enumerate_worlds`` skips the checks."""

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
        cell = (left_setting, right_setting, left_outcome, right_outcome)
        self._set(cell, probability, CELL_INDEX[cell])

    def _set(self, cell: tuple, probability: float, index: int) -> None:
        """Set the fields and ``index`` unchecked; not via ``__dict__``, which slows reads."""
        left_setting, right_setting, left_outcome, right_outcome = cell
        object.__setattr__(self, "left_setting", left_setting)
        object.__setattr__(self, "right_setting", right_setting)
        object.__setattr__(self, "left_outcome", left_outcome)
        object.__setattr__(self, "right_outcome", right_outcome)
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "index", index)

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

    def label(self) -> str:
        return (
            f"{self.left_setting} {self.right_setting} "
            f"{self.left_outcome} {self.right_outcome}"
        )

    def __str__(self) -> str:
        return f"({self.left_setting},{self.right_setting},{self.left_outcome},{self.right_outcome})"


class WorldModel(Record):
    """The possible worlds of a table, as a tuple in ``CELLS`` order, with
    the frame used to order regions.  Worlds that do not strictly increase
    in ``CELLS`` index, out of order or repeated, raise ``ValueError``.

    ``mask`` is not a field: bit i is set when ``CELLS[i]`` is a world of
    the model.  Models with equal masks hold each world at the same
    position, whatever its probability, table or frame."""

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
        if not self.mask >> index & 1:
            return None
        # the worlds before it are the mask's lower bits
        return self.worlds[(self.mask & ((1 << index) - 1)).bit_count()]

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

    The worlds come in ``CELLS`` order, the order of the table's ``values``.
    They are built once per table and epsilon, from ``CELLS`` by the unchecked
    ``World._set``, and kept, as one tuple with its support mask, in the
    table's memo under the epsilon; later calls, in either frame, wrap that
    same tuple and mask in a new model.  A table that violates free choice
    keeps nothing, so every call raises.
    """
    epsilon = check_epsilon(epsilon)
    memo = table._memo
    found = memo.get(epsilon)
    if found is None:
        # the four cells of setting pair k are bits 4k..4k+3
        possible = support(table, epsilon)
        for k, (ls, rs) in enumerate(SETTING_PAIRS):
            if not possible >> 4 * k & 0xF:
                raise InconsistentModelError(
                    f"free-choice violation: settings ({ls}, {rs}) admit no "
                    f"outcome with probability above {epsilon}"
                )
        built = []
        for i, p in enumerate(table.values):
            if possible >> i & 1:
                built.append(world := object.__new__(World))
                world._set(CELLS[i], p, i)
        found = memo[epsilon] = (tuple(built), possible)
    model = object.__new__(WorldModel)
    model._set(found[0], table, epsilon, frame, found[1])
    return model
