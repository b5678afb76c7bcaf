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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Mapping

from .formulas import Entails, Formula, SettingAtom, parse, pretty_print
from .labels import OUTCOMES, SETTING_PAIRS, FrameOrdering, Outcome, Region, Setting
from .quantum import JointProbabilityTable
from .semantics import LocalityCondition, TruthReport, eval_world, eval_model
from .worlds import EPSILON_DEFAULT, World, WorldModel, enumerate_worlds

SR_TEXT = "(R2 & R2+) -> (R1 []-> R1-)"
STMT1_TEXT = "L2 => ((R2 & R2+) -> (R1 []-> R1-))"
STMT2_TEXT = "L1 => ((R2 & R2+) -> (R1 []-> R1-))"
STMT3_TEXT = "(L2 & R2 & L2+) => (R1 []-> L2+)"
DIVERGENCE_TEXT = "L1 []-> R1-"

LOC1_L_FIRST = "loc1-l-first"
LOC1_R_FIRST = "loc1-r-first"
LIGHT_CONE_KEY = "lightcone"


@dataclass(frozen=True)
class FormulaCatalog:
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
def _divergence_formula() -> Formula:
    return parse(DIVERGENCE_TEXT)


@dataclass(frozen=True)
class SuiteReport:
    """Truth reports for the catalogued statements, keyed stmt1..stmt3."""

    statements: Mapping[str, TruthReport]
    locality: LocalityCondition
    frame: FrameOrdering

    def truth_values(self) -> dict[str, bool]:
        return {name: report.holds for name, report in self.statements.items()}


def theorem_suite(
    model: WorldModel,
    locality: LocalityCondition = LocalityCondition.LOC1,
) -> SuiteReport:
    """Evaluate the three catalogued statements against ``model``."""
    reports = {
        name: eval_model(model, formula, locality)
        for name, formula in catalog().statements().items()
    }
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


@dataclass(frozen=True)
class FlowReport:
    """Does the truth of the shared right-region statement track the left
    choice?"""

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
    """Compare the statement's truth under the two left-side conditionings."""
    shapes = catalog()
    report_l2 = eval_model(model, shapes.conditioned_on(Setting.L2), locality)
    report_l1 = eval_model(model, shapes.conditioned_on(Setting.L1), locality)
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


@dataclass(frozen=True)
class DivergenceExample:
    """A single world where LOC1 and the light-cone policy disagree."""

    formula: Formula
    world: World
    results: Mapping[str, bool]

    @property
    def text(self) -> str:
        return pretty_print(self.formula)


@dataclass(frozen=True)
class ComparisonReport:
    """Statement suites under both frames and both locality policies."""

    suites: Mapping[str, SuiteReport]
    divergence: DivergenceExample | None
    stmt1_frame_dependent: bool


def frame_comparison(
    table: JointProbabilityTable,
    epsilon: float = EPSILON_DEFAULT,
) -> ComparisonReport:
    """Evaluate the suite under LOC1 in both frames and under light-cone.

    The light-cone suite is frame independent, so it is computed once, on
    the left-first model.  When the world (L2, R1, +, -) is possible, the
    report also carries the left-side counterfactual that separates the two
    policies at that world.
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
        divergence = DivergenceExample(
            formula=formula,
            world=pivot,
            results={
                LOC1_L_FIRST: eval_world(
                    model_l, pivot, formula, LocalityCondition.LOC1
                ),
                LIGHT_CONE_KEY: eval_world(
                    model_l, pivot, formula, LocalityCondition.LIGHT_CONE
                ),
            },
        )
    stmt1_frame_dependent = (
        suites[LOC1_L_FIRST].statements["stmt1"].holds
        != suites[LOC1_R_FIRST].statements["stmt1"].holds
    )
    return ComparisonReport(
        suites=suites,
        divergence=divergence,
        stmt1_frame_dependent=stmt1_frame_dependent,
    )


@dataclass(frozen=True)
class DeterministicStrategy:
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


@dataclass(frozen=True)
class FeasibilityReport:
    """Whether any mixture of local deterministic strategies fits the table.

    A strategy is excluded as soon as it would give positive weight to an
    outcome pair the table forbids.  The table is locally explainable only
    if every outcome pair it demands remains covered by some surviving
    strategy; ``contradiction_trace`` spells out the first demanded pair
    that no surviving strategy can produce.
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


def _cell_text(key: tuple[Setting, Setting, Outcome, Outcome]) -> str:
    ls, rs, lo, ro = key
    return f"P({ls}{lo},{rs}{ro} | {ls},{rs})"


def _zero_label(key: tuple[Setting, Setting, Outcome, Outcome]) -> str:
    name = _HARDY_ZERO_NAMES.get(key)
    base = f"{_cell_text(key)} = 0"
    return f"{name}: {base}" if name else base


def _all_strategies() -> list[DeterministicStrategy]:
    return [
        DeterministicStrategy(*combo)
        for combo in product(OUTCOMES, OUTCOMES, OUTCOMES, OUTCOMES)
    ]


def lhv_feasibility(
    table: JointProbabilityTable,
    epsilon: float = EPSILON_DEFAULT,
) -> FeasibilityReport:
    """Exhaustive check of the 16 local deterministic strategies."""
    zero_cells = [key for key, p in _sorted_cells(table) if p <= epsilon]
    # list Hardy-named zeros first so canonical traces cite h1..h3
    zero_cells.sort(key=lambda key: (key not in _HARDY_ZERO_NAMES, _cell_sort(key)))
    positive_cells = [key for key, p in _sorted_cells(table) if p > epsilon]

    excluded: list[tuple[DeterministicStrategy, str]] = []
    survivors: list[DeterministicStrategy] = []
    for strategy in _all_strategies():
        hit = next(
            (key for key in zero_cells if strategy.produces(*key)), None
        )
        if hit is not None:
            excluded.append((strategy, _zero_label(hit)))
        else:
            survivors.append(strategy)

    uncovered = [
        key
        for key in positive_cells
        if not any(s.produces(*key) for s in survivors)
    ]
    if uncovered:
        key = uncovered[0]
        lines = [
            f"table demands {_cell_text(key)} > 0 "
            f"(= {table.entries[key]:.9f}), but every deterministic strategy "
            "producing that pair is excluded:"
        ]
        for strategy in _all_strategies():
            if not strategy.produces(*key):
                continue
            hit = next(k for k in zero_cells if strategy.produces(*k))
            lines.append(f"  {strategy.label()} excluded by {_zero_label(hit)}")
        lines.append(
            "no mixture of surviving strategies can give this pair positive "
            "probability, so no local deterministic account exists"
        )
        trace = "\n".join(lines)
    else:
        trace = (
            f"all {len(positive_cells)} demanded outcome pairs are covered by "
            f"the {len(survivors)} surviving strategies; a uniform mixture "
            "over them realizes every required positivity"
        )
    return FeasibilityReport(
        feasible=not uncovered,
        excluded_strategies=tuple(excluded),
        contradiction_trace=trace,
        surviving_strategies=tuple(survivors),
    )


def _cell_sort(key: tuple[Setting, Setting, Outcome, Outcome]) -> tuple:
    ls, rs, lo, ro = key
    return (ls.index, rs.index, lo.sort_index, ro.sort_index)


def _sorted_cells(table: JointProbabilityTable):
    return sorted(table.entries.items(), key=lambda item: _cell_sort(item[0]))
