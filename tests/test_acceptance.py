"""Acceptance gate: the headline claims, checked end to end.

Each test prints one pass/fail line; run with -s to see them.  Expected
values marked by oracles in tests/oracles.py are recomputed here through
independent code paths wherever the claim admits one.
"""

import contextlib
import random
import time

import pytest

from hardyworlds.analysis import (
    LIGHT_CONE_KEY,
    LOC1_L_FIRST,
    LOC1_R_FIRST,
    frame_comparison,
    information_flow,
    lhv_feasibility,
    theorem_suite,
)
from hardyworlds.formulas import OutcomeAtom, SettingAtom, parse, pretty_print
from hardyworlds.labels import (
    OUTCOMES,
    SETTING_PAIRS,
    FrameOrdering,
    Outcome,
    Setting,
)
from hardyworlds.quantum import (
    canonical_hardy_model,
    hardy_family,
    hardy_scan,
    probability_table,
)
from hardyworlds.semantics import (
    LocalityCondition,
    accessible_worlds,
    eval_world,
    worlds_satisfying,
)
from hardyworlds.worlds import enumerate_worlds
from oracles import HARDY_MAX, born_probability, random_formula

STMT1 = "L2 => ((R2 & R2+) -> (R1 []-> R1-))"
STMT2 = "L1 => ((R2 & R2+) -> (R1 []-> R1-))"
STMT3 = "(L2 & R2 & L2+) => (R1 []-> L2+)"


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {description}")
        raise
    print(f"[criterion {number}] PASS {description}")


def test_criterion_1_first_statement_true(canonical_model):
    with criterion(1, "statement 1 true under loc1, l-first, within 1 s"):
        start = time.perf_counter()
        state, config = canonical_hardy_model()
        model = enumerate_worlds(probability_table(state, config))
        report = theorem_suite(model).statements["stmt1"]
        elapsed = time.perf_counter() - start
        assert report.holds is True
        assert report.witnesses == ()
        assert report.vacuous_flags == ()
        assert elapsed < 1.0


def test_criterion_2_second_statement_false(canonical_model):
    with criterion(2, "statement 2 false with witness (L1,R2,+,+)"):
        report = theorem_suite(canonical_model).statements["stmt2"]
        assert report.holds is False
        witnesses = [str(w) for w in report.witnesses]
        assert "(L1,R2,+,+)" in witnesses
        assert witnesses == ["(L1,R2,+,+)", "(L1,R2,-,+)"]


def test_criterion_3_third_statement_true(canonical_model):
    with criterion(3, "statement 3 true: the earlier left outcome survives"):
        report = theorem_suite(canonical_model).statements["stmt3"]
        assert report.holds is True
        direct = worlds_satisfying(canonical_model, parse("L2 & R2 & L2+"))
        assert direct
        for world in direct:
            assert eval_world(canonical_model, world, parse("R1 []-> L2+"))


def test_criterion_4_information_flow(canonical_model):
    with criterion(4, "right-region statement tracks the left choice"):
        flow = information_flow(canonical_model)
        assert flow.f_of_L2 is True
        assert flow.f_of_L1 is False
        assert flow.dependent is True


def test_criterion_5_canonical_fractions(canonical_pair, canonical_table):
    with criterion(5, "canonical table fractions match within 1e-9"):
        state, config = canonical_pair
        expected = {
            (Setting.L1, Setting.R2, Outcome.PLUS, Outcome.PLUS): 1.0 / 12.0,
            (Setting.L2, Setting.R2, Outcome.PLUS, Outcome.PLUS): 1.0 / 6.0,
            (Setting.L2, Setting.R2, Outcome.MINUS, Outcome.MINUS): 2.0 / 3.0,
            (Setting.L2, Setting.R1, Outcome.PLUS, Outcome.PLUS): 0.0,
            (Setting.L1, Setting.R1, Outcome.PLUS, Outcome.MINUS): 0.0,
        }
        for (ls, rs, lo, ro), want in expected.items():
            got = canonical_table.entries[(ls, rs, lo, ro)]
            assert got == pytest.approx(want, abs=1e-9), (ls, rs, lo, ro)
            oracle = born_probability(
                state.amplitudes,
                config.vector_for(ls, lo),
                config.vector_for(rs, ro),
            )
            assert oracle == pytest.approx(want, abs=1e-9), (ls, rs, lo, ro)


def test_criterion_6_thirteen_worlds(canonical_table):
    with criterion(6, "canonical model has exactly 13 worlds at eps=1e-9"):
        model = enumerate_worlds(canonical_table, epsilon=1e-9)
        assert len(model) == 13


def test_criterion_7_frame_comparison(canonical_table):
    with criterion(7, "statement 1 frame-dependent; light cone matches l-first"):
        report = frame_comparison(canonical_table)
        assert report.suites[LOC1_L_FIRST].statements["stmt1"].holds is True
        assert report.suites[LOC1_R_FIRST].statements["stmt1"].holds is False
        assert report.stmt1_frame_dependent is True
        light_cone = report.suites[LIGHT_CONE_KEY].statements
        l_first = report.suites[LOC1_L_FIRST].statements
        assert {name: r.holds for name, r in light_cone.items()} == {
            name: r.holds for name, r in l_first.items()
        }


def test_criterion_8_policy_divergence(canonical_model):
    with criterion(8, "(L1 []-> R1-) splits loc1 from light cone at (L2,R1,+,-)"):
        world = canonical_model.find(
            Setting.L2, Setting.R1, Outcome.PLUS, Outcome.MINUS
        )
        assert world is not None
        formula = parse("L1 []-> R1-")
        assert (
            eval_world(canonical_model, world, formula, LocalityCondition.LOC1)
            is False
        )
        assert (
            eval_world(
                canonical_model, world, formula, LocalityCondition.LIGHT_CONE
            )
            is True
        )


def test_criterion_9_no_local_deterministic_account(canonical_table):
    with criterion(9, "local strategies infeasible, trace names all three zeros"):
        start = time.perf_counter()
        report = lhv_feasibility(canonical_table)
        elapsed = time.perf_counter() - start
        assert report.feasible is False
        for name in ("h1:", "h2:", "h3:"):
            assert name in report.contradiction_trace
        assert len(report.excluded_strategies) == 11
        assert len(report.surviving_strategies) == 5
        assert elapsed < 1.0


def test_criterion_10_family_maximum():
    with criterion(10, "scan finds the family maximum within 1e-4, within 1 s"):
        start = time.perf_counter()
        x_best, p_best = hardy_scan(1000)
        elapsed = time.perf_counter() - start
        assert p_best == pytest.approx(HARDY_MAX, abs=1e-4)
        assert p_best > 1.0 / 12.0
        assert 0.0 < x_best < 0.5
        assert elapsed < 1.0


def test_criterion_11_property_suites(canonical_table):
    with criterion(11, "parser, row-sum, refinement, and atom properties hold"):
        rng = random.Random(20240821)
        for _ in range(1000):
            formula = random_formula(rng, depth=6, allow_entails=True)
            assert parse(pretty_print(formula)) == formula

        for _ in range(100):
            x = rng.uniform(0.001, 0.499)
            table = probability_table(*hardy_family(x))
            for ls, rs in SETTING_PAIRS:
                row = [table.entries[(ls, rs, lo, ro)] for lo in OUTCOMES for ro in OUTCOMES]
                assert abs(sum(row) - 1.0) <= 1e-9

        for frame in FrameOrdering:
            model = enumerate_worlds(canonical_table, frame=frame)
            for world in model:
                for setting in Setting:
                    narrow = accessible_worlds(
                        model, world, setting, LocalityCondition.LIGHT_CONE
                    ).worlds
                    wide = accessible_worlds(
                        model, world, setting, LocalityCondition.LOC1
                    ).worlds
                    assert narrow <= wide

        model = enumerate_worlds(canonical_table)
        for world in model:
            for setting in Setting:
                for outcome in OUTCOMES:
                    implication = parse(
                        f"{setting.name}{outcome.value} -> {setting.name}"
                    )
                    assert isinstance(parse(f"{setting.name}{outcome.value}"), OutcomeAtom)
                    assert isinstance(parse(setting.name), SettingAtom)
                    assert eval_world(model, world, implication)
