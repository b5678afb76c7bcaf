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
frame and locality through fixed[R] alone (see ``semantics``).  The table's
memo keeps it once per epsilon, statement and value of that bit, beside the
world set; the suite, flow and frame comparison read it there under their
own labels.  A hand-built model, whose world set is not the one
``enumerate_worlds`` built for its table, is evaluated afresh.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Mapping

from .formulas import Entails, Formula, SettingAtom, parse, pretty_print
from .labels import OUTCOMES, FrameOrdering, Outcome, Region, Setting
from .quantum import CELLS, JointProbabilityTable
from .records import Record
from .semantics import (
    LocalityCondition, TruthReport, changed_regions, eval_model, eval_world, fixed,
)
from .worlds import EPSILON_DEFAULT, World, WorldModel, enumerate_worlds

SR_TEXT = "(R2 & R2+) -> (R1 []-> R1-)"
STMT1_TEXT = "L2 => ((R2 & R2+) -> (R1 []-> R1-))"
STMT2_TEXT = "L1 => ((R2 & R2+) -> (R1 []-> R1-))"
STMT3_TEXT = "(L2 & R2 & L2+) => (R1 []-> L2+)"
DIVERGENCE_TEXT = "L1 []-> R1-"

LOC1_L_FIRST = "loc1-l-first"
LOC1_R_FIRST = "loc1-r-first"
LIGHT_CONE_KEY = "lightcone"


class FormulaCatalog(Record):
    """The analysed statements, parsed once from their canonical texts."""

    stmt1: Formula
    stmt2: Formula
    stmt3: Formula
    right_region_statement: Formula

    def statements(self) -> dict[str, Formula]:
        return {"stmt1": self.stmt1, "stmt2": self.stmt2, "stmt3": self.stmt3}

    def conditioned_on(self, left_setting: Setting) -> Formula:
        """The shared right-region statement entailed by a left choice."""
        if left_setting.region is not Region.LEFT:
            raise ValueError(f"{left_setting} is not a left setting")
        return Entails(SettingAtom(left_setting), self.right_region_statement)


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
def _divergence_formula() -> Formula:
    return parse(DIVERGENCE_TEXT)


class SuiteReport(Record):
    """Truth reports for the catalogued statements, keyed stmt1..stmt3."""

    statements: Mapping[str, TruthReport]
    locality: LocalityCondition
    frame: FrameOrdering

    def truth_values(self) -> dict[str, bool]:
        return {name: report.holds for name, report in self.statements.items()}


def _catalogued_reports(
    model: WorldModel, locality: LocalityCondition, names: tuple[str, ...]
) -> list[TruthReport]:
    """The named catalogued statements' reports on ``model``, labelled with
    ``locality`` and its frame.  The table's memo keys them by epsilon,
    statement and the ``fixed`` bits it consults, and serves only a model
    that holds the table's own world set; else they are evaluated afresh.
    The memo keeps reports, never a model, so it refers back to nothing."""
    memo = model.table._memo
    if memo.get(model.epsilon) is not model.worlds:
        memo = {}
    consulted = _statements_with_regions()
    reports = []
    for name in names:
        formula, regions = consulted[name]
        key = (model.epsilon, name, tuple(fixed(model.frame, locality, r) for r in regions))
        report = memo.get(key)
        if report is None:
            report = memo[key] = eval_model(model, formula, locality)
        elif report.locality is not locality or report.frame is not model.frame:
            report = TruthReport(report.formula, report.holds, report.witnesses,
                                 locality, model.frame, report.vacuous_flags)
        reports.append(report)
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


class FlowReport(Record):
    """Does the truth of the shared right-region statement track the left
    choice?

    ``f_of_L2`` and ``f_of_L1`` are the truth values of the suite's stmt1
    and stmt2, which are that statement entailed by L2 and by L1;
    ``reports`` holds the same two reports under those names.
    """

    f_of_L2: bool
    f_of_L1: bool
    dependent: bool
    witness: World | None
    reports: Mapping[str, TruthReport]
    interpretation: tuple[str, str] = (READING_TRANSFER, READING_REFERENCE)


def information_flow(
    model: WorldModel,
    locality: LocalityCondition = LocalityCondition.LOC1,
) -> FlowReport:
    """Compare the statement's truth under the two left-side conditionings.

    The statement entailed by L2 is the suite's stmt1 and the one entailed
    by L1 is stmt2 (``FormulaCatalog.conditioned_on``), so f_of_L2 and
    f_of_L1 are the suite's own reports of those two statements, shared
    with ``theorem_suite`` on the same model and locality.
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
    )


class DivergenceExample(Record):
    """A single world where LOC1 and the light-cone policy disagree."""

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


def frame_comparison(
    table: JointProbabilityTable,
    epsilon: float = EPSILON_DEFAULT,
) -> ComparisonReport:
    """Evaluate the suite under LOC1 in both frames and under light-cone.

    Every catalogued verdict rests on fixed[R] alone, which LOC1 sets in
    the left-first frame and clears in the right-first one, so ``flips``
    compares those two suites.  The light-cone policy sets fixed[R] too, so
    its suite, on the left-first model, reads the LOC1 left-first verdicts
    from the table's memo.  When the world (L2, R1, +, -) is possible, the
    report also carries the left-side counterfactual that separates the
    two policies at that world.
    """
    model_l = enumerate_worlds(table, epsilon, FrameOrdering.LEFT_BEFORE_RIGHT)
    model_r = enumerate_worlds(table, epsilon, FrameOrdering.RIGHT_BEFORE_LEFT)
    suites = {
        LOC1_L_FIRST: theorem_suite(model_l, LocalityCondition.LOC1),
        LOC1_R_FIRST: theorem_suite(model_r, LocalityCondition.LOC1),
        LIGHT_CONE_KEY: theorem_suite(model_l, LocalityCondition.LIGHT_CONE),
    }
    divergence: DivergenceExample | None = None
    pivot = model_l.find(Setting.L2, Setting.R1, Outcome.PLUS, Outcome.MINUS)
    if pivot is not None:
        formula = _divergence_formula()
        results = {key: eval_world(model_l, pivot, formula, suites[key].locality)
                   for key in (LOC1_L_FIRST, LIGHT_CONE_KEY)}
        divergence = DivergenceExample(formula=formula, world=pivot, results=results)
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

    @property
    def left_map(self) -> dict[Setting, Outcome]:
        return {Setting.L1: self.on_l1, Setting.L2: self.on_l2}

    @property
    def right_map(self) -> dict[Setting, Outcome]:
        return {Setting.R1: self.on_r1, Setting.R2: self.on_r2}

    def outcome_for(self, setting: Setting) -> Outcome:
        if setting.region is Region.LEFT:
            return self.left_map[setting]
        return self.right_map[setting]

    def produces(
        self, left_setting: Setting, right_setting: Setting,
        left_outcome: Outcome, right_outcome: Outcome,
    ) -> bool:
        return (
            self.outcome_for(left_setting) is left_outcome
            and self.outcome_for(right_setting) is right_outcome
        )

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


_HARDY_ZERO_NAMES = {
    (Setting.L2, Setting.R2, Outcome.MINUS, Outcome.PLUS): "h1",
    (Setting.L2, Setting.R1, Outcome.PLUS, Outcome.PLUS): "h2",
    (Setting.L1, Setting.R1, Outcome.PLUS, Outcome.MINUS): "h3",
}


def _lowest_index(mask: int) -> int:
    """The position, in CELLS order, of the first cell of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


@cache
def _cell_labels() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Each cell's probability text and the label that cites it as a zero,
    in CELLS order.  Built on the first call, not at import."""
    texts = tuple(f"P({ls}{lo},{rs}{ro} | {ls},{rs})" for ls, rs, lo, ro in CELLS)
    zero_labels = tuple(
        f"{_HARDY_ZERO_NAMES[key]}: {text} = 0"
        if key in _HARDY_ZERO_NAMES
        else f"{text} = 0"
        for key, text in zip(CELLS, texts)
    )
    return texts, zero_labels


@cache
def _strategy_masks() -> tuple[tuple[tuple[DeterministicStrategy, int, str], ...], int]:
    """Each of the 16 strategies with the mask of the cells it produces and
    its label, and the mask of the Hardy-named zeros; bit i stands for
    CELLS[i].  Built on the first call, not at import."""
    strategies = tuple(
        DeterministicStrategy(*combo)
        for combo in product(OUTCOMES, OUTCOMES, OUTCOMES, OUTCOMES)
    )
    entries = tuple(
        (
            strategy,
            sum(1 << i for i, cell in enumerate(CELLS) if strategy.produces(*cell)),
            strategy.label(),
        )
        for strategy in strategies
    )
    named = sum(1 << CELLS.index(key) for key in _HARDY_ZERO_NAMES)
    return entries, named


def lhv_feasibility(
    table: JointProbabilityTable,
    epsilon: float = EPSILON_DEFAULT,
) -> FeasibilityReport:
    """Possibilistic check of the 16 local deterministic strategies."""
    strategies, named = _strategy_masks()
    cell_texts, zero_labels = _cell_labels()
    # entries iterate in CELLS order, so cell i is bit i
    zero = sum(1 << i for i, p in enumerate(table.entries.values()) if p <= epsilon)
    positive = ((1 << len(CELLS)) - 1) & ~zero

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
    if uncovered:
        index = _lowest_index(uncovered)
        lines = [
            f"table demands {cell_texts[index]} > 0 "
            f"(= {table.entries[CELLS[index]]:.9f}), but every deterministic strategy "
            "producing that pair is excluded:"
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
    return FeasibilityReport(
        feasible=not uncovered,
        excluded_strategies=tuple(excluded),
        contradiction_trace=trace,
        surviving_strategies=tuple(survivors),
    )
