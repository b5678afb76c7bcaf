"""Every record class behaves as an immutable value: fields, defaults,
equality, hashing and repr."""

import ast
import inspect
import re
from pathlib import Path

import pytest

from hardyworlds.analysis import (
    ComparisonReport,
    DeterministicStrategy,
    DivergenceExample,
    FeasibilityReport,
    FlowReport,
    FormulaCatalog,
    SuiteReport,
)
from hardyworlds.formulas import (
    And,
    Counterfactual,
    Entails,
    Implies,
    Not,
    Or,
    OutcomeAtom,
    SettingAtom,
    Token,
    parse,
)
from hardyworlds.labels import FrameOrdering, Outcome, Region, Setting
from hardyworlds.quantum import (
    CELLS,
    BipartiteState,
    ExperimentConfig,
    HardyConstraintReport,
    JointProbabilityTable,
    MeasurementBasis,
    canonical_hardy_model,
    probability_table,
)
from hardyworlds.records import Record
from hardyworlds.semantics import (
    AccessibleSet,
    LocalityCondition,
    TruthReport,
    VacuousFlag,
    eval_model,
)
from hardyworlds.worlds import WORLDS, World, WorldModel, enumerate_worlds

STATE, CONFIG = canonical_hardy_model()
TABLE = probability_table(STATE, CONFIG)
MODEL = enumerate_worlds(TABLE)
WORLD = MODEL.worlds[0]
ATOM = SettingAtom(Setting.L1)
OUTCOME_ATOM = OutcomeAtom(Setting.R2, Outcome.PLUS)
COUNTERFACTUAL = Counterfactual(Setting.R1, OUTCOME_ATOM)
REPORT = eval_model(MODEL, parse("L1 => ((R2 & R2+) -> (R1 []-> R1-))"))
STRATEGY = DeterministicStrategy(Outcome.PLUS, Outcome.MINUS, Outcome.PLUS, Outcome.MINUS)
LOC1 = LocalityCondition.LOC1
L_FIRST = FrameOrdering.LEFT_BEFORE_RIGHT

# Each record class with one sample value per field, in field order.
SAMPLES = {
    SettingAtom: {"setting": Setting.L1},
    OutcomeAtom: {"setting": Setting.R2, "outcome": Outcome.PLUS},
    Not: {"operand": ATOM},
    And: {"left": ATOM, "right": OUTCOME_ATOM},
    Or: {"left": ATOM, "right": OUTCOME_ATOM},
    Implies: {"left": ATOM, "right": OUTCOME_ATOM},
    Counterfactual: {"antecedent": Setting.R1, "consequent": OUTCOME_ATOM},
    Entails: {"antecedent": ATOM, "consequent": COUNTERFACTUAL},
    Token: {"kind": "ATOM", "text": "L1", "position": 3},
    FormulaCatalog: {
        "stmt1": ATOM,
        "stmt2": OUTCOME_ATOM,
        "stmt3": COUNTERFACTUAL,
        "right_region_statement": ATOM,
    },
    SuiteReport: {"statements": {"stmt1": REPORT}, "locality": LOC1, "frame": L_FIRST},
    FlowReport: {
        "f_of_L2": True,
        "f_of_L1": False,
        "dependent": True,
        "witness": WORLD,
        "reports": {"f_of_L1": REPORT},
        "interpretation": ("first", "second"),
    },
    DivergenceExample: {
        "formula": COUNTERFACTUAL,
        "world": WORLD,
        "results": {"loc1-l-first": True},
    },
    ComparisonReport: {
        "suites": {},
        "divergence": None,
        "rests_on": {"stmt1": (Region.RIGHT,)},
        "flips": {"stmt1": False},
    },
    DeterministicStrategy: {
        "on_l1": Outcome.PLUS,
        "on_l2": Outcome.MINUS,
        "on_r1": Outcome.MINUS,
        "on_r2": Outcome.PLUS,
    },
    FeasibilityReport: {
        "feasible": False,
        "excluded_strategies": ((STRATEGY, "h1"),),
        "contradiction_trace": "trace",
        "surviving_strategies": (STRATEGY,),
    },
    BipartiteState: {"amplitudes": STATE.amplitudes},
    MeasurementBasis: {"plus": (0j, 1 + 0j), "minus": (1 + 0j, 0j)},
    ExperimentConfig: {"left": dict(CONFIG.left), "right": dict(CONFIG.right)},
    JointProbabilityTable: {"entries": dict(TABLE.entries)},
    HardyConstraintReport: {
        "h1_zero": 0.0,
        "h2_zero": 0.0,
        "h3_zero": 0.0,
        "h4_positive": 0.0,
        "nonvacuous": 0.25,
        "epsilon": 1e-9,
        "satisfied": False,
        "failures": ("h4",),
    },
    AccessibleSet: {
        "source": WORLD,
        "changed_region": Region.LEFT,
        "new_setting": Setting.L2,
        "worlds": frozenset({WORLD}),
    },
    VacuousFlag: {"world": WORLD, "counterfactual": COUNTERFACTUAL},
    TruthReport: {
        "formula": ATOM,
        "holds": False,
        "witnesses": (WORLD,),
        "locality": LOC1,
        "frame": L_FIRST,
        "vacuous_flags": (VacuousFlag(WORLD, COUNTERFACTUAL),),
    },
    World: {
        "left_setting": Setting.L1,
        "right_setting": Setting.R2,
        "left_outcome": Outcome.PLUS,
        "right_outcome": Outcome.MINUS,
    },
    WorldModel: {"worlds": MODEL.worlds, "table": TABLE, "epsilon": 1e-9, "frame": L_FIRST},
}
RECORDS = list(SAMPLES)

DEFAULTS = {
    FeasibilityReport: {"surviving_strategies": ()},
    HardyConstraintReport: {"failures": ()},
    TruthReport: {"vacuous_flags": ()},
}

# records holding a dict or a read-only mapping
UNHASHABLE = {
    SuiteReport,
    FlowReport,
    DivergenceExample,
    ComparisonReport,
    ExperimentConfig,
    JointProbabilityTable,
    WorldModel,
}


def build(cls):
    return cls(**SAMPLES[cls])


def test_every_record_class_is_sampled():
    assert len(RECORDS) == 26
    assert set(Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_fields_and_defaults(self, cls):
        parameters = inspect.signature(cls).parameters
        assert tuple(parameters) == tuple(SAMPLES[cls])
        assert cls.__match_args__ == tuple(SAMPLES[cls])
        defaults = {
            name: p.default
            for name, p in parameters.items()
            if p.default is not inspect.Parameter.empty
        }
        assert defaults == DEFAULTS.get(cls, {})

    def test_positional_and_keyword_agree(self, cls):
        by_keyword = build(cls)
        by_position = cls(*SAMPLES[cls].values())
        assert by_keyword == by_position
        for name in SAMPLES[cls]:
            assert getattr(by_keyword, name) == getattr(by_position, name)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = build(cls)
        before = repr(record)
        for name in (*SAMPLES[cls], "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in SAMPLES[cls]:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == before

    def test_equal_records_hash_equal(self, cls):
        first, second = build(cls), build(cls)
        assert first == second
        assert not first != second
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second)
            assert len({first, second}) == 1

    def test_never_equal_to_another_class(self, cls):
        record = build(cls)
        assert record.__eq__(object()) is NotImplemented
        assert record != object()
        assert record != tuple(SAMPLES[cls].values())


def test_class_decides_equality():
    left, right = ATOM, OUTCOME_ATOM
    nodes = [And(left, right), Or(left, right), Implies(left, right)]
    for i, first in enumerate(nodes):
        for second in nodes[i + 1 :]:
            assert first != second
    assert Entails(left, right) != Implies(left, right)
    assert And(left, right) != And(right, left)


def test_equality_compares_field_values():
    assert Token("ATOM", "L1", 3) != Token("ATOM", "L1", 4)
    report = build(TruthReport)
    assert TruthReport(**{**SAMPLES[TruthReport], "vacuous_flags": ()}) != report
    constraints = build(HardyConstraintReport)
    assert HardyConstraintReport(0.0, 0.0, 0.0, 0.0, 0.25, 1e-9, False) != constraints


def test_world_identity_is_its_cell():
    for i, cell in enumerate(CELLS):
        world = World(*cell)
        assert world == WORLDS[i]
        assert world is not WORLDS[i]
        assert world.index == i
        assert hash(world) == i
        assert {world, WORLDS[i]} == {world}
        assert all(world != other for other in WORLDS if other is not WORLDS[i])


def test_world_rejects_settings_in_the_wrong_region():
    with pytest.raises(ValueError, match="not a left setting"):
        World(Setting.R1, Setting.R2, Outcome.PLUS, Outcome.PLUS)
    with pytest.raises(ValueError, match="not a right setting"):
        World(Setting.L1, Setting.L2, Outcome.PLUS, Outcome.PLUS)


def test_default_tuples_are_empty():
    truth = TruthReport(ATOM, True, (), LOC1, L_FIRST)
    assert truth.vacuous_flags == ()
    constraints = HardyConstraintReport(0.0, 0.0, 0.0, 0.5, 0.5, 1e-9, True)
    assert constraints.failures == ()
    assert FeasibilityReport(True, (), "trace").surviving_strategies == ()


def test_world_repr():
    assert repr(WORLD) == (
        "World(left_setting=<Setting.L1: (<Region.LEFT: 'L'>, 1)>, "
        "right_setting=<Setting.R1: (<Region.RIGHT: 'R'>, 1)>, "
        "left_outcome=<Outcome.PLUS: '+'>, right_outcome=<Outcome.PLUS: '+'>)"
    )


def test_and_repr():
    assert repr(parse("L1 & R2+")) == (
        "And(left=SettingAtom(setting=<Setting.L1: (<Region.LEFT: 'L'>, 1)>), "
        "right=OutcomeAtom(setting=<Setting.R2: (<Region.RIGHT: 'R'>, 2)>, "
        "outcome=<Outcome.PLUS: '+'>))"
    )


def test_truth_report_repr():
    report = eval_model(MODEL, parse("L1 & L1+ & R2+ => (R1 []-> R1-)"))
    l1 = "<Setting.L1: (<Region.LEFT: 'L'>, 1)>"
    r1 = "<Setting.R1: (<Region.RIGHT: 'R'>, 1)>"
    r2 = "<Setting.R2: (<Region.RIGHT: 'R'>, 2)>"
    plus, minus = "<Outcome.PLUS: '+'>", "<Outcome.MINUS: '-'>"
    assert repr(report) == (
        "TruthReport(formula=Entails("
        f"antecedent=And(left=SettingAtom(setting={l1}), "
        f"right=And(left=OutcomeAtom(setting={l1}, outcome={plus}), "
        f"right=OutcomeAtom(setting={r2}, outcome={plus}))), "
        f"consequent=Counterfactual(antecedent={r1}, "
        f"consequent=OutcomeAtom(setting={r1}, outcome={minus}))), "
        "holds=False, "
        f"witnesses=(World(left_setting={l1}, right_setting={r2}, "
        f"left_outcome={plus}, right_outcome={plus}),), "
        "locality=<LocalityCondition.LOC1: 'loc1'>, "
        "frame=<FrameOrdering.LEFT_BEFORE_RIGHT: 'l-first'>, vacuous_flags=())"
    )


WORLD_ARGS = tuple(SAMPLES[World].values())

# And's constructor is built by Record, World's validates its arguments
TYPE_ERRORS = {
    "and-missing": (
        lambda: And(ATOM),
        "And.__init__() missing 1 required positional argument: 'right'",
    ),
    "and-extra": (
        lambda: And(ATOM, ATOM, ATOM),
        "And.__init__() takes 3 positional arguments but 4 were given",
    ),
    "and-keyword": (
        lambda: And(ATOM, ATOM, colour=1),
        "And.__init__() got an unexpected keyword argument 'colour'",
    ),
    "world-missing": (
        lambda: World(*WORLD_ARGS[:-1]),
        "World.__init__() missing 1 required positional argument: 'right_outcome'",
    ),
    "world-extra": (
        lambda: World(*WORLD_ARGS, 1),
        "World.__init__() takes 5 positional arguments but 6 were given",
    ),
    "world-keyword": (
        lambda: World(*WORLD_ARGS, colour=1),
        "World.__init__() got an unexpected keyword argument 'colour'",
    ),
}


@pytest.mark.parametrize("case", TYPE_ERRORS)
def test_constructor_type_errors(case):
    call, message = TYPE_ERRORS[case]
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def test_no_record_writes_a_constructor_that_only_sets_fields():
    """Record builds those; a record's own ``__init__`` validates."""
    package = Path(__file__).resolve().parent.parent / "src" / "hardyworlds"
    records, setters_only = 0, []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef) or "Record" not in [
                ast.unparse(base) for base in node.bases
            ]:
                continue
            records += 1
            setters = {
                f"object.__setattr__(self, {st.target.id!r}, {st.target.id})"
                for st in node.body
                if isinstance(st, ast.AnnAssign)
            }
            for init in node.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__" and all(
                    ast.unparse(st) in setters for st in init.body
                ):
                    setters_only.append(node.name)
    assert records == len(RECORDS)
    assert setters_only == []
