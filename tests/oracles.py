"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles in plain Python,
deliberately avoiding the code paths under test: probabilities come from a
literal four-term complex sum, accessibility from a straight filter over
the rules, and formula truth from a precomputed atom valuation.
"""

from __future__ import annotations

import random
from itertools import product

from hardyworlds.formulas import (
    And,
    Counterfactual,
    Entails,
    Formula,
    Implies,
    Not,
    Or,
    OutcomeAtom,
    SettingAtom,
)
from hardyworlds.labels import FrameOrdering, Outcome, Region, Setting
from hardyworlds.semantics import LocalityCondition
from hardyworlds.worlds import World, WorldModel

HARDY_MAX = (5.0 * 5.0 ** 0.5 - 11.0) / 2.0


def born_probability(amplitudes, left_vector, right_vector) -> float:
    """|<lv (x) rv | psi>|^2 as a literal four-term sum."""
    total = 0j
    for l_bit in (0, 1):
        for r_bit in (0, 1):
            total += (
                complex(left_vector[l_bit]).conjugate()
                * complex(right_vector[r_bit]).conjugate()
                * complex(amplitudes[2 * l_bit + r_bit])
            )
    return abs(total) ** 2


def closed_form_h4(x: float) -> float:
    return (1.0 - 2.0 * x) * x * x / ((1.0 - x) * (1.0 - x))


def brute_force_table(state, config) -> dict:
    """All 16 joint probabilities via the plain-Python sum."""
    result = {}
    for ls in (Setting.L1, Setting.L2):
        for rs in (Setting.R1, Setting.R2):
            for lo in Outcome:
                for ro in Outcome:
                    lv = config.basis_for(ls).vector(lo)
                    rv = config.basis_for(rs).vector(ro)
                    result[(ls, rs, lo, ro)] = born_probability(
                        state.amplitudes, lv, rv
                    )
    return result


def accessible_filter(
    model: WorldModel,
    world: World,
    target: Setting,
    locality: LocalityCondition,
) -> set[World]:
    """Second, independent reading of the accessibility rules."""
    if target.region is Region.LEFT:
        already = world.left_setting is target
    else:
        already = world.right_setting is target
    if already:
        return {world}
    picked = set()
    for cand in model.worlds:
        if target.region is Region.LEFT:
            if cand.left_setting is not target:
                continue
            if cand.right_setting is not world.right_setting:
                continue
            far_unchanged = cand.right_outcome is world.right_outcome
            far_is_earlier = model.frame is FrameOrdering.RIGHT_BEFORE_LEFT
        else:
            if cand.right_setting is not target:
                continue
            if cand.left_setting is not world.left_setting:
                continue
            far_unchanged = cand.left_outcome is world.left_outcome
            far_is_earlier = model.frame is FrameOrdering.LEFT_BEFORE_RIGHT
        if locality is LocalityCondition.LIGHT_CONE:
            if not far_unchanged:
                continue
        else:
            if far_is_earlier and not far_unchanged:
                continue
        picked.add(cand)
    return picked


def atom_valuation(world: World) -> dict[str, bool]:
    """Truth of all twelve atoms, read straight off the four coordinates."""
    values: dict[str, bool] = {}
    for setting in Setting:
        if setting.region is Region.LEFT:
            chosen = world.left_setting is setting
            outcome = world.left_outcome
        else:
            chosen = world.right_setting is setting
            outcome = world.right_outcome
        values[setting.name] = chosen
        for o in Outcome:
            values[setting.name + o.value] = chosen and (outcome is o)
    return values


def classical_eval(formula: Formula, values: dict[str, bool]) -> bool:
    """Truth-table evaluation of a counterfactual-free formula."""
    if isinstance(formula, SettingAtom):
        return values[formula.setting.name]
    if isinstance(formula, OutcomeAtom):
        return values[formula.setting.name + formula.outcome.value]
    if isinstance(formula, Not):
        return not classical_eval(formula.operand, values)
    if isinstance(formula, And):
        return classical_eval(formula.left, values) and classical_eval(
            formula.right, values
        )
    if isinstance(formula, Or):
        return classical_eval(formula.left, values) or classical_eval(
            formula.right, values
        )
    if isinstance(formula, Implies):
        return (not classical_eval(formula.left, values)) or classical_eval(
            formula.right, values
        )
    raise AssertionError(f"not a classical formula: {formula!r}")


def random_formula(
    rng: random.Random,
    depth: int,
    allow_entails: bool = False,
    allow_counterfactual: bool = True,
) -> Formula:
    """Random well-formed formula of nesting depth at most ``depth``."""
    if allow_entails and rng.random() < 0.25:
        return Entails(
            random_formula(rng, depth - 1, False, allow_counterfactual),
            random_formula(rng, depth - 1, False, allow_counterfactual),
        )
    return _random_inner(rng, depth, allow_counterfactual)


def _random_inner(rng: random.Random, depth: int, allow_cf: bool) -> Formula:
    settings = list(Setting)
    if depth <= 0 or rng.random() < 0.3:
        setting = rng.choice(settings)
        if rng.random() < 0.5:
            return SettingAtom(setting)
        return OutcomeAtom(setting, rng.choice(list(Outcome)))
    kinds = ["not", "and", "or", "implies"]
    if allow_cf:
        kinds.append("cf")
    kind = rng.choice(kinds)
    if kind == "not":
        return Not(_random_inner(rng, depth - 1, allow_cf))
    if kind == "cf":
        return Counterfactual(
            rng.choice(settings), _random_inner(rng, depth - 1, allow_cf)
        )
    binary = {"and": And, "or": Or, "implies": Implies}[kind]
    return binary(
        _random_inner(rng, depth - 1, allow_cf),
        _random_inner(rng, depth - 1, allow_cf),
    )


HARDY_ZERO_NAMES = {
    ("L2", "R2", "-", "+"): "h1",
    ("L2", "R1", "+", "+"): "h2",
    ("L1", "R1", "+", "-"): "h3",
}


def lhv_by_enumeration(table, epsilon: float):
    """Second reading of the local deterministic strategy check.

    A plain loop over the 16 strategies (outcomes for L1, L2, R1, R2) and
    the 16 cells in setting-then-outcome order, plus before minus.  Returns
    (feasible, [(strategy, label) excluded], [surviving strategy], trace),
    each strategy as its tuple of four outcomes.
    """
    position = {Setting.L1: 0, Setting.L2: 1, Setting.R1: 2, Setting.R2: 3}
    plus_minus = (Outcome.PLUS, Outcome.MINUS)
    cells = [
        (ls, rs, lo, ro)
        for ls in (Setting.L1, Setting.L2)
        for rs in (Setting.R1, Setting.R2)
        for lo in plus_minus
        for ro in plus_minus
    ]
    strategies = list(product(plus_minus, repeat=4))

    def name(cell):
        ls, rs, lo, ro = cell
        return HARDY_ZERO_NAMES.get((ls.name, rs.name, lo.value, ro.value))

    def text(cell):
        ls, rs, lo, ro = cell
        return f"P({ls.name}{lo.value},{rs.name}{ro.value} | {ls.name},{rs.name})"

    def label(cell):
        return f"{name(cell)}: {text(cell)} = 0" if name(cell) else f"{text(cell)} = 0"

    def produces(strategy, cell):
        ls, rs, lo, ro = cell
        return strategy[position[ls]] is lo and strategy[position[rs]] is ro

    def strategy_text(strategy):
        return " ".join(
            f"{s}->{strategy[i].value}" for i, s in enumerate(("L1", "L2", "R1", "R2"))
        )

    zeros = [c for c in cells if table.entries[c] <= epsilon]
    zeros = [c for c in zeros if name(c)] + [c for c in zeros if not name(c)]
    positives = [c for c in cells if table.entries[c] > epsilon]

    def first_zero(strategy):
        for cell in zeros:
            if produces(strategy, cell):
                return cell
        return None

    excluded, survivors = [], []
    for strategy in strategies:
        hit = first_zero(strategy)
        if hit is None:
            survivors.append(strategy)
        else:
            excluded.append((strategy, label(hit)))
    uncovered = [
        c for c in positives if not any(produces(s, c) for s in survivors)
    ]
    if uncovered:
        cell = uncovered[0]
        lines = [
            f"table demands {text(cell)} > 0 (= {table.entries[cell]:.9f}), "
            "but every deterministic strategy producing that pair is excluded:"
        ]
        for strategy in strategies:
            if produces(strategy, cell):
                lines.append(
                    f"  {strategy_text(strategy)} excluded by "
                    f"{label(first_zero(strategy))}"
                )
        lines.append(
            "no mixture of surviving strategies can give this pair positive "
            "probability, so no local deterministic account exists"
        )
        trace = "\n".join(lines)
    else:
        trace = (
            f"all {len(positives)} demanded outcome pairs are covered by the "
            f"{len(survivors)} surviving strategies; a uniform mixture over "
            "them realizes every required positivity"
        )
    return not uncovered, excluded, survivors, trace


def find_world(model: WorldModel, ls: str, rs: str, lo: str, ro: str) -> World:
    world = model.find(
        Setting[ls], Setting[rs], Outcome.from_symbol(lo), Outcome.from_symbol(ro)
    )
    assert world is not None, f"expected world {ls} {rs} {lo} {ro} to be possible"
    return world
