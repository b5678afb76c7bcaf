"""Headline analyses: the statement suite, information flow, frame
comparison, and the search for local deterministic explanations.

The three catalogued statements, over a Hardy experiment, are

    stmt1   L2 => ((R2 & R2+) -> (R1 []-> R1-))
    stmt2   L1 => ((R2 & R2+) -> (R1 []-> R1-))
    stmt3   (L2 & R2 & L2+) => (R1 []-> L2+)

stmt1 and stmt2 share their consequent; only the left choice differs.  That
shared consequent speaks solely about the right region, so the pair doubles
as a probe of whether a statement about one region can depend on the
faraway choice.

Each statement changes only the right choice, so its verdict consults the
frame and locality through fixed[R] alone (see ``semantics``), and the model
through its possible worlds alone: not their probabilities, its table or
epsilon.  One process-wide memo keeps each verdict once per world mask
(``WorldModel.mask``), statement and value of that bit, as the report has
it: ``holds``, the witnesses and the vacuous flags.  A world is its cell and
carries no probability, so those worlds are right for every model with that
mask, enumerated or built by hand, which reads the verdict there under its
own labels; the memo keeps no model or table.  It holds at most
``_MEMO_LIMIT`` entries and is emptied when full.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Mapping

from .formulas import Counterfactual, Formula, OutcomeAtom, parse, pretty_print
from .labels import OUTCOMES, FrameOrdering, Outcome, Region, Setting
from .quantum import CELL_INDEX, CELLS, HARDY_CELLS, JointProbabilityTable
from .quantum import check_epsilon, support
from .records import Record
from .semantics import (
    LocalityCondition, TruthReport, changed_regions, eval_model, eval_world, fixed,
)
from .worlds import EPSILON_DEFAULT, World, WorldModel, enumerate_worlds

SR_TEXT = "(R2 & R2+) -> (R1 []-> R1-)"
STMT1_TEXT = "L2 => ((R2 & R2+) -> (R1 []-> R1-))"
STMT2_TEXT = "L1 => ((R2 & R2+) -> (R1 []-> R1-))"
STMT3_TEXT = "(L2 & R2 & L2+) => (R1 []-> L2+)"
DIVERGENCE_TEXT = "L1 []-> R1-"  # the catalogued divergence example, at _PIVOT
_PIVOT = CELL_INDEX[(Setting.L2, Setting.R1, Outcome.PLUS, Outcome.MINUS)]

LOC1_L_FIRST = "loc1-l-first"
LOC1_R_FIRST = "loc1-r-first"
LIGHT_CONE_KEY = "lightcone"

# a mask takes at most eight entries (three statements times the two values
# of fixed[R], the divergence example and the LHV verdict), so 128 supports
# fit; a sweep meets few, and a full memo costs only re-evaluation
_MEMO_LIMIT = 1024
_memo: dict[tuple, tuple] = {}


class FormulaCatalog(Record):
    """The analysed statements, parsed once from their canonical texts."""

    stmt1: Formula
    stmt2: Formula
    stmt3: Formula
    right_region_statement: Formula

    def statements(self) -> dict[str, Formula]:
        return {"stmt1": self.stmt1, "stmt2": self.stmt2, "stmt3": self.stmt3}


@cache
def catalog() -> FormulaCatalog:
    """The catalogued statements, parsed on the first call and shared by
    every later one; formulas are frozen, so sharing them is safe."""
    return FormulaCatalog(
        stmt1=parse(STMT1_TEXT),
        stmt2=parse(STMT2_TEXT),
        stmt3=parse(STMT3_TEXT),
        right_region_statement=parse(SR_TEXT),
    )


@cache
def _statements_with_regions() -> dict[str, tuple[Formula, tuple[Region, ...]]]:
    """Each catalogued statement and the regions whose ``fixed`` bit it consults."""
    return {name: (f, changed_regions(f)) for name, f in catalog().statements().items()}


@cache
def _statements_with_bits(frame: FrameOrdering, locality: LocalityCondition) -> dict:
    """Each catalogued statement and the ``fixed`` bits it consults, once per pair."""
    return {name: (f, tuple(fixed(frame, locality, r) for r in regions))
            for name, (f, regions) in _statements_with_regions().items()}


class SuiteReport(Record):
    """Truth reports for the catalogued statements, keyed stmt1..stmt3."""

    statements: Mapping[str, TruthReport]
    locality: LocalityCondition
    frame: FrameOrdering


def _memoized(key: tuple, compute, *args) -> tuple:
    """``_memo[key]``, computed as ``compute(*args)`` on a miss; a full memo
    is emptied first."""
    value = _memo.get(key)
    if value is None:
        if len(_memo) >= _MEMO_LIMIT:
            _memo.clear()
        value = _memo[key] = compute(*args)
    return value


def _evidence(model: WorldModel, formula: Formula, locality: LocalityCondition) -> tuple:
    """A fresh verdict as the memo keeps it: ``holds``, the witnesses and
    the vacuous flags."""
    report = eval_model(model, formula, locality)
    return report.holds, report.witnesses, report.vacuous_flags


def _catalogued_reports(
    model: WorldModel, locality: LocalityCondition, names: tuple[str, ...]
) -> list[TruthReport]:
    """The named catalogued statements' reports on ``model``, labelled with
    ``locality`` and its frame, read from the memo under the model's world
    mask, the statement and the ``fixed`` bits it consults."""
    frame = model.frame
    consulted = _statements_with_bits(frame, locality)
    reports = []
    for name in names:
        formula, bits = consulted[name]
        key = (model.mask, name, bits)
        holds, witnesses, flags = _memoized(key, _evidence, model, formula, locality)
        reports.append(TruthReport(formula, holds, witnesses, locality, frame, flags))
    return reports


def theorem_suite(
    model: WorldModel,
    locality: LocalityCondition = LocalityCondition.LOC1,
) -> SuiteReport:
    """Evaluate the three catalogued statements against ``model``."""
    names = ("stmt1", "stmt2", "stmt3")
    reports = dict(zip(names, _catalogued_reports(model, locality, names)))
    return SuiteReport(statements=reports, locality=locality, frame=model.frame)


READING_TRANSFER = (
    "Dependence reading: the same right-region statement changes truth value "
    "with the left choice alone, so any mechanism realizing these truth "
    "conditions must make the left choice available where the right outcome "
    "is settled."
)
READING_REFERENCE = (
    "Reference reading: the statement's counterfactual ranges over worlds "
    "that agree with the actual one outside the changed choice, so the "
    "dependence may only reflect that definitional tie to the far region, "
    "not a physical transfer."
)
READING_NONE = (
    "No dependence: the right-region statement has the same truth value under "
    "both left choices, so there is no dependence to read."
)


class FlowReport(Record):
    """Does the truth of the shared right-region statement track the left
    choice?

    ``f_of_L2`` and ``f_of_L1`` are the truth values of the suite's stmt1
    and stmt2, which are that statement entailed by L2 and by L1;
    ``reports`` holds the same two reports under those names.
    ``interpretation`` holds both readings if ``dependent``, else one line.
    """

    f_of_L2: bool
    f_of_L1: bool
    dependent: bool
    witness: World | None
    reports: Mapping[str, TruthReport]
    interpretation: tuple[str, ...]


def information_flow(
    model: WorldModel,
    locality: LocalityCondition = LocalityCondition.LOC1,
) -> FlowReport:
    """Compare the statement's truth under the two left-side conditionings.

    The statement entailed by L2 is the suite's stmt1 and the one entailed
    by L1 is stmt2, so f_of_L2 and f_of_L1 are the suite's own reports of
    those two statements, shared with ``theorem_suite`` on the same model
    and locality.
    """
    report_l2, report_l1 = _catalogued_reports(model, locality, ("stmt1", "stmt2"))
    dependent = report_l2.holds != report_l1.holds
    witness: World | None = None
    if dependent:
        failing = report_l1 if not report_l1.holds else report_l2
        witness = failing.witnesses[0] if failing.witnesses else None
    return FlowReport(
        f_of_L2=report_l2.holds,
        f_of_L1=report_l1.holds,
        dependent=dependent,
        witness=witness,
        reports={"f_of_L2": report_l2, "f_of_L1": report_l1},
        interpretation=(READING_TRANSFER, READING_REFERENCE) if dependent else (READING_NONE,),
    )


class DivergenceExample(Record):
    """A left-side counterfactual whose truth at ``world`` differs between
    LOC1 and the light-cone policy, in the left-first frame."""

    formula: Formula
    world: World
    results: Mapping[str, bool]

    @property
    def text(self) -> str:
        return pretty_print(self.formula)


class ComparisonReport(Record):
    """Statement suites under both frames and both locality policies, the
    regions X whose fixed[X] each statement consults (``rests_on``), and
    whether its verdict differs between the two LOC1 frames (``flips``)."""

    suites: Mapping[str, SuiteReport]
    divergence: DivergenceExample | None
    rests_on: Mapping[str, tuple[Region, ...]]
    flips: Mapping[str, bool]

    @property
    def stmt1_frame_dependent(self) -> bool:
        return self.flips["stmt1"]


def _divergence(model: WorldModel) -> tuple:
    """The first world, the catalogued pivot and then the rest in ``CELLS``
    order, at which ``Lk []-> Rm ro`` (k the other left setting, Rm and ro
    the world's) differs between LOC1 and the light-cone policy, as (world,
    formula, LOC1 result, light-cone result); () when there is none."""
    for w in sorted(model.worlds, key=lambda w: w.index != _PIVOT):
        other = Setting.L1 if w.left_setting is Setting.L2 else Setting.L2
        formula = Counterfactual(other, OutcomeAtom(w.right_setting, w.right_outcome))
        loc1 = eval_world(model, w, formula, LocalityCondition.LOC1)
        light_cone = eval_world(model, w, formula, LocalityCondition.LIGHT_CONE)
        if loc1 != light_cone:
            return w, formula, loc1, light_cone
    return ()


def frame_comparison(
    table: JointProbabilityTable,
    epsilon: float = EPSILON_DEFAULT,
) -> ComparisonReport:
    """Evaluate the suite under LOC1 in both frames and under light-cone.

    Every catalogued verdict rests on fixed[R] alone, which LOC1 sets in
    the left-first frame and clears in the right-first one, so ``flips``
    compares those two suites.  The light-cone policy sets fixed[R] too, so
    its suite, on the left-first model, reads the LOC1 left-first verdicts
    from the memo.  The report also carries a left-side counterfactual
    that separates the two policies at some world, if one does: the
    catalogued ``DIVERGENCE_TEXT`` at (L2, R1, +, -) when it separates them,
    else the first that ``_divergence`` finds.  The memo keeps it under the
    world mask.
    """
    model_l = enumerate_worlds(table, epsilon, FrameOrdering.LEFT_BEFORE_RIGHT)
    model_r = enumerate_worlds(table, epsilon, FrameOrdering.RIGHT_BEFORE_LEFT)
    suites = {
        LOC1_L_FIRST: theorem_suite(model_l, LocalityCondition.LOC1),
        LOC1_R_FIRST: theorem_suite(model_r, LocalityCondition.LOC1),
        LIGHT_CONE_KEY: theorem_suite(model_l, LocalityCondition.LIGHT_CONE),
    }
    divergence: DivergenceExample | None = None
    found = _memoized((model_l.mask, "divergence"), _divergence, model_l)
    if found:
        world, formula, loc1, light_cone = found
        divergence = DivergenceExample(
            formula=formula,
            world=world,
            results={LOC1_L_FIRST: loc1, LIGHT_CONE_KEY: light_cone},
        )
    l_first, r_first = suites[LOC1_L_FIRST].statements, suites[LOC1_R_FIRST].statements
    return ComparisonReport(
        suites=suites,
        divergence=divergence,
        rests_on={name: regions for name, (_, regions) in _statements_with_regions().items()},
        flips={name: l_first[name].holds != r_first[name].holds for name in l_first},
    )


class DeterministicStrategy(Record):
    """A local hidden assignment: one outcome per choice on each side."""

    on_l1: Outcome
    on_l2: Outcome
    on_r1: Outcome
    on_r2: Outcome

    def label(self) -> str:
        return (
            f"L1->{self.on_l1} L2->{self.on_l2} "
            f"R1->{self.on_r1} R2->{self.on_r2}"
        )


class FeasibilityReport(Record):
    """The possibilistic verdict of the 16 local deterministic strategies.

    A strategy is excluded as soon as it would give positive weight to an
    outcome pair the table forbids.  ``feasible`` says that every demanded
    pair is produced by a surviving strategy.  That checks supports only,
    not whether a mixture reproduces the probabilities, which CHSH can deny.
    ``contradiction_trace`` names the first demanded pair left uncovered.
    """

    feasible: bool
    excluded_strategies: tuple[tuple[DeterministicStrategy, str], ...]
    contradiction_trace: str
    surviving_strategies: tuple[DeterministicStrategy, ...] = ()


def _lowest_index(mask: int) -> int:
    """The position, in CELLS order, of the first cell of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


@cache
def _cell_labels() -> tuple[tuple[str, ...], tuple[str, ...], int]:
    """Each cell's probability text and the label that cites it as a zero,
    in CELLS order, and the mask of the Hardy-named zeros; bit i stands for
    CELLS[i].  Built on the first call, not at import."""
    texts = tuple(f"P({ls}{lo},{rs}{ro} | {ls},{rs})" for ls, rs, lo, ro in CELLS)
    zero_names = {cell: name for name, cell, must_be_zero in HARDY_CELLS if must_be_zero}
    zero_labels = tuple(
        f"{zero_names[key]}: {text} = 0" if key in zero_names else f"{text} = 0"
        for key, text in zip(CELLS, texts)
    )
    named = sum(1 << CELL_INDEX[cell] for cell in zero_names)
    return texts, zero_labels, named


@cache
def _strategy_masks() -> tuple[tuple[DeterministicStrategy, int, str], ...]:
    """Each of the 16 strategies with the mask of the cells it produces and
    its label; bit i stands for CELLS[i].  Built on the first call."""
    entries = []
    for combo in product(OUTCOMES, repeat=4):
        outcome = dict(zip(Setting, combo))  # the fields follow Setting order
        mask = sum(1 << i for i, (ls, rs, lo, ro) in enumerate(CELLS)
                   if outcome[ls] is lo and outcome[rs] is ro)
        strategy = DeterministicStrategy(*combo)
        entries.append((strategy, mask, strategy.label()))
    return tuple(entries)


def _lhv_evidence(positive: int) -> tuple:
    """The verdict on a support as the memo keeps it: the excluded strategies
    with labels, the survivors, the first uncovered cell's position or None,
    and the trace, with a format field for that cell's probability."""
    strategies = _strategy_masks()
    cell_texts, zero_labels, named = _cell_labels()
    zero = ((1 << len(CELLS)) - 1) & ~positive

    def excluded_by(mask: int) -> str:
        # Hardy-named zeros first so canonical traces cite h1..h3
        hits = mask & zero
        return zero_labels[_lowest_index(hits & named or hits)]

    excluded: list[tuple[DeterministicStrategy, str]] = []
    survivors: list[DeterministicStrategy] = []
    coverage = 0
    for strategy, mask, _ in strategies:
        if mask & zero:
            excluded.append((strategy, excluded_by(mask)))
        else:
            survivors.append(strategy)
            coverage |= mask

    uncovered = positive & ~coverage
    index = _lowest_index(uncovered) if uncovered else None
    if uncovered:
        # no label holds a brace, so the trace is a format string
        lines = [
            f"table demands {cell_texts[index]} > 0 "
            "(= {:.9f}), but every deterministic strategy producing that pair is excluded:"
        ]
        for _, mask, label in strategies:
            if mask >> index & 1:
                lines.append(f"  {label} excluded by {excluded_by(mask)}")
        lines.append(
            "no mixture of surviving strategies can give this pair positive "
            "probability, so no local deterministic account exists"
        )
        trace = "\n".join(lines)
    else:
        trace = (
            f"all {positive.bit_count()} demanded outcome pairs are covered by "
            f"the {len(survivors)} surviving strategies; a uniform mixture "
            "over them realizes every required positivity"
        )
    return tuple(excluded), tuple(survivors), index, trace


def lhv_feasibility(
    table: JointProbabilityTable,
    epsilon: float = EPSILON_DEFAULT,
) -> FeasibilityReport:
    """Possibilistic check of the 16 local deterministic strategies, memoized
    by support; only an infeasible trace's probability is read from ``table``."""
    positive = support(table, check_epsilon(epsilon))
    excluded, survivors, index, trace = _memoized((positive, "lhv"), _lhv_evidence, positive)
    trace = trace if index is None else trace.format(table.values[index])
    return FeasibilityReport(index is None, excluded, trace, survivors)
