"""Truth in worlds, accessibility under changed choices, and model checking.

Accessibility
-------------
Evaluating "had choice e been made, C would hold" at a world w picks out the
worlds accessible from w.  If w already performs e, the only accessible
world is w itself.  Otherwise, with X the region of e, they are exactly
the worlds that

  (i)   perform e in X,
  (ii)  keep the other region's choice as it is in w, and
  (iii) keep the other region's outcome as it is in w if fixed[X].

fixed[X] (``fixed``) is all that accessibility asks of the frame and the
locality policy: when the choice in X changes, is the other region's
outcome held fixed?  LOC1 holds it fixed when the other region is earlier,
so it sets fixed[R] alone in the left-first frame and fixed[L] alone in the
right-first frame; the light-cone policy sets both.  A verdict therefore
depends on frame and locality only through the bits of the regions its
counterfactuals change (``changed_regions``).

The counterfactual is true at w when its consequent holds in every
accessible world, false when some accessible world violates it, and vacuous
when no world is accessible at all.  Vacuity is reported as its own value;
it counts as failure during world evaluation and is flagged in reports,
never silently treated as truth.
"""

from __future__ import annotations

import enum

from .errors import EntailmentNestingError, UnknownWorldError
from .formulas import (
    And,
    Counterfactual,
    Entails,
    Formula,
    Implies,
    Not,
    Or,
    OutcomeAtom,
    SettingAtom,
    pretty_print,
    require_entails_free,
    subformulas,
)
from .labels import FrameOrdering, Region, Setting
from .records import Record
from .worlds import World, WorldModel


class LocalityCondition(enum.Enum):
    LOC1 = "loc1"
    LIGHT_CONE = "lightcone"

    def __str__(self) -> str:
        return self.value


class CounterfactualTruth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    VACUOUS = "vacuous"


class AccessibleSet(Record):
    source: World
    changed_region: Region
    new_setting: Setting
    worlds: frozenset[World]


class VacuousFlag(Record):
    """A counterfactual whose accessible set came up empty at ``world``."""

    world: World
    counterfactual: Counterfactual

    def describe(self) -> str:
        return f"{pretty_print(self.counterfactual)} at {self.world}"


class TruthReport(Record):
    """Outcome of checking one formula against a whole model.

    ``witnesses`` lists the worlds that falsify the claim, in deterministic
    order; ``holds`` is true exactly when it is empty.
    """

    formula: Formula
    holds: bool
    witnesses: tuple[World, ...]
    locality: LocalityCondition
    frame: FrameOrdering
    vacuous_flags: tuple[VacuousFlag, ...] = ()

    @property
    def text(self) -> str:
        return pretty_print(self.formula)


def fixed(frame: FrameOrdering, locality: LocalityCondition, region: Region) -> bool:
    """``fixed[region]``: is the other region's outcome held fixed when the
    choice in ``region`` changes?"""
    return locality is LocalityCondition.LIGHT_CONE or frame.earlier is region.other


def changed_regions(formula: Formula) -> tuple[Region, ...]:
    """The regions whose choice some counterfactual in ``formula`` changes,
    in ``Region`` order: the only ``fixed`` bits its verdict consults."""
    found = [f for f in subformulas(formula) if isinstance(f, Counterfactual)]
    return tuple(r for r in Region if any(f.antecedent.region is r for f in found))


def accessible_worlds(
    model: WorldModel,
    world: World,
    new_setting: Setting,
    locality: LocalityCondition = LocalityCondition.LOC1,
) -> AccessibleSet:
    """Worlds reachable from ``world`` by switching to ``new_setting``."""
    if world not in model.worlds:
        raise UnknownWorldError(f"world {world} does not belong to the model")
    region = new_setting.region
    if world.setting_in(region) is new_setting:
        return AccessibleSet(
            source=world,
            changed_region=region,
            new_setting=new_setting,
            worlds=frozenset({world}),
        )
    other = region.other
    protect_other = fixed(model.frame, locality, region)
    members = frozenset(
        w
        for w in model.worlds
        if w.setting_in(region) is new_setting
        and w.setting_in(other) is world.setting_in(other)
        and (not protect_other or w.outcome_in(other) is world.outcome_in(other))
    )
    return AccessibleSet(
        source=world,
        changed_region=region,
        new_setting=new_setting,
        worlds=members,
    )


def eval_counterfactual(
    model: WorldModel,
    world: World,
    new_setting: Setting,
    consequent: Formula,
    locality: LocalityCondition = LocalityCondition.LOC1,
) -> CounterfactualTruth:
    """Three-valued truth of "had ``new_setting`` been chosen, ``consequent``"."""
    require_entails_free(consequent, "a counterfactual consequent")
    reachable = accessible_worlds(model, world, new_setting, locality)
    if not reachable.worlds:
        return CounterfactualTruth.VACUOUS
    if all(
        _eval(model, w, consequent, locality, None) for w in reachable.worlds
    ):
        return CounterfactualTruth.TRUE
    return CounterfactualTruth.FALSE


def _eval(
    model: WorldModel,
    world: World,
    formula: Formula,
    locality: LocalityCondition,
    vacuous_log: list[VacuousFlag] | None,
) -> bool:
    if isinstance(formula, SettingAtom):
        return world.setting_in(formula.setting.region) is formula.setting
    if isinstance(formula, OutcomeAtom):
        region = formula.setting.region
        return (
            world.setting_in(region) is formula.setting
            and world.outcome_in(region) is formula.outcome
        )
    if isinstance(formula, Not):
        return not _eval(model, world, formula.operand, locality, vacuous_log)
    if isinstance(formula, And):
        return _eval(model, world, formula.left, locality, vacuous_log) and _eval(
            model, world, formula.right, locality, vacuous_log
        )
    if isinstance(formula, Or):
        return _eval(model, world, formula.left, locality, vacuous_log) or _eval(
            model, world, formula.right, locality, vacuous_log
        )
    if isinstance(formula, Implies):
        return not _eval(
            model, world, formula.left, locality, vacuous_log
        ) or _eval(model, world, formula.right, locality, vacuous_log)
    if isinstance(formula, Counterfactual):
        verdict = eval_counterfactual(
            model, world, formula.antecedent, formula.consequent, locality
        )
        if verdict is CounterfactualTruth.VACUOUS and vacuous_log is not None:
            vacuous_log.append(VacuousFlag(world=world, counterfactual=formula))
        return verdict is CounterfactualTruth.TRUE
    if isinstance(formula, Entails):
        raise EntailmentNestingError(
            "'=>' cannot be evaluated inside a world; it is a model-level claim"
        )
    raise TypeError(f"not a formula: {formula!r}")


def eval_world(
    model: WorldModel,
    world: World,
    formula: Formula,
    locality: LocalityCondition = LocalityCondition.LOC1,
) -> bool:
    """Truth of an entailment-free formula at one world."""
    if world not in model.worlds:
        raise UnknownWorldError(f"world {world} does not belong to the model")
    require_entails_free(formula, "a world-level formula")
    return _eval(model, world, formula, locality, None)


def eval_model(
    model: WorldModel,
    formula: Formula,
    locality: LocalityCondition = LocalityCondition.LOC1,
) -> TruthReport:
    """Check a formula against every world of the model.

    An "A => C" formula holds when every world satisfying A satisfies C.  A
    formula without "=>" is treated as entailed by the trivial antecedent,
    so it must hold at every world.  Falsifying worlds become witnesses.
    """
    if isinstance(formula, Entails):
        antecedent: Formula | None = formula.antecedent
        consequent = formula.consequent
    else:
        require_entails_free(formula, "a formula")
        antecedent = None
        consequent = formula
    witnesses: list[World] = []
    vacuous_log: list[VacuousFlag] = []
    for world in model.sorted_worlds():
        if antecedent is not None and not _eval(
            model, world, antecedent, locality, vacuous_log
        ):
            continue
        if not _eval(model, world, consequent, locality, vacuous_log):
            witnesses.append(world)
    return TruthReport(
        formula=formula,
        holds=not witnesses,
        witnesses=tuple(witnesses),
        locality=locality,
        frame=model.frame,
        vacuous_flags=tuple(vacuous_log),
    )


def worlds_satisfying(
    model: WorldModel,
    formula: Formula,
    locality: LocalityCondition = LocalityCondition.LOC1,
) -> frozenset[World]:
    """The subset of the model's worlds where the formula is true."""
    require_entails_free(formula, "a satisfaction query")
    return frozenset(
        w for w in model.worlds if _eval(model, w, formula, locality, None)
    )
