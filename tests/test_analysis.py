import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyworlds.analysis import (
    DIVERGENCE_TEXT,
    LIGHT_CONE_KEY,
    LOC1_L_FIRST,
    LOC1_R_FIRST,
    SR_TEXT,
    STMT1_TEXT,
    STMT2_TEXT,
    STMT3_TEXT,
    DeterministicStrategy,
    catalog,
    frame_comparison,
    information_flow,
    lhv_feasibility,
    theorem_suite,
)
from hardyworlds.formulas import Entails, SettingAtom, parse, pretty_print
from hardyworlds.labels import FrameOrdering, Outcome, Setting
from hardyworlds.quantum import (
    CELLS,
    BipartiteState,
    JointProbabilityTable,
    canonical_hardy_model,
    hardy_family,
    probability_table,
)
from hardyworlds.semantics import LocalityCondition
from hardyworlds.worlds import enumerate_worlds
from oracles import lhv_by_enumeration

LOC1 = LocalityCondition.LOC1
LIGHT_CONE = LocalityCondition.LIGHT_CONE


class TestCatalog:
    def test_statement_texts(self):
        shapes = catalog()
        assert pretty_print(shapes.stmt1) == pretty_print(parse(STMT1_TEXT))
        assert pretty_print(shapes.stmt2) == pretty_print(parse(STMT2_TEXT))
        assert pretty_print(shapes.stmt3) == pretty_print(parse(STMT3_TEXT))

    def test_first_two_statements_share_their_consequent(self):
        shapes = catalog()
        assert isinstance(shapes.stmt1, Entails)
        assert isinstance(shapes.stmt2, Entails)
        assert shapes.stmt1.consequent == shapes.stmt2.consequent
        assert shapes.stmt1.consequent == shapes.right_region_statement
        assert shapes.stmt1.antecedent == SettingAtom(Setting.L2)
        assert shapes.stmt2.antecedent == SettingAtom(Setting.L1)

    def test_conditioned_on(self):
        shapes = catalog()
        assert shapes.conditioned_on(Setting.L2) == shapes.stmt1
        assert shapes.conditioned_on(Setting.L1) == shapes.stmt2
        with pytest.raises(ValueError):
            shapes.conditioned_on(Setting.R1)

    def test_shared_consequent_mentions_only_the_right_region(self):
        assert "L" not in SR_TEXT.replace("[]->", "")


class TestTheoremSuite:
    def test_canonical_left_first(self, canonical_model):
        suite = theorem_suite(canonical_model)
        assert suite.truth_values() == {
            "stmt1": True, "stmt2": False, "stmt3": True,
        }
        assert suite.locality is LOC1
        assert suite.frame is FrameOrdering.LEFT_BEFORE_RIGHT

    def test_stmt2_witnesses(self, canonical_model):
        report = theorem_suite(canonical_model).statements["stmt2"]
        assert [str(w) for w in report.witnesses] == [
            "(L1,R2,+,+)", "(L1,R2,-,+)",
        ]

    def test_no_vacuous_flags_on_canonical(self, canonical_model):
        suite = theorem_suite(canonical_model)
        for report in suite.statements.values():
            assert report.vacuous_flags == ()

    def test_canonical_right_first(self, canonical_model_rfirst):
        suite = theorem_suite(canonical_model_rfirst)
        assert suite.truth_values() == {
            "stmt1": False, "stmt2": False, "stmt3": False,
        }

    def test_canonical_light_cone(self, canonical_model):
        suite = theorem_suite(canonical_model, LIGHT_CONE)
        assert suite.truth_values() == {
            "stmt1": True, "stmt2": False, "stmt3": True,
        }

    def test_family_members_agree_with_canonical(self):
        rng = random.Random(41)
        for _ in range(10):
            x = rng.uniform(0.01, 0.49)
            table = probability_table(*hardy_family(x))
            suite = theorem_suite(enumerate_worlds(table))
            assert suite.truth_values() == {
                "stmt1": True, "stmt2": False, "stmt3": True,
            }, x
            witnesses = suite.statements["stmt2"].witnesses
            assert [str(w) for w in witnesses] == [
                "(L1,R2,+,+)", "(L1,R2,-,+)",
            ], x

    def test_uniform_table(self, uniform_model):
        suite = theorem_suite(uniform_model)
        assert suite.truth_values() == {
            "stmt1": False, "stmt2": False, "stmt3": True,
        }


class TestInformationFlow:
    def test_canonical_dependence(self, canonical_model):
        flow = information_flow(canonical_model)
        assert flow.f_of_L2 is True
        assert flow.f_of_L1 is False
        assert flow.dependent
        assert str(flow.witness) == "(L1,R2,+,+)"

    def test_dependence_iff_values_differ(self, canonical_model, uniform_model):
        table = probability_table(*hardy_family(0.25))
        models = [canonical_model, uniform_model, enumerate_worlds(table)]
        for model in models:
            flow = information_flow(model)
            assert flow.dependent == (flow.f_of_L2 != flow.f_of_L1)

    def test_uniform_has_no_dependence(self, uniform_model):
        flow = information_flow(uniform_model)
        assert flow.f_of_L2 is False
        assert flow.f_of_L1 is False
        assert not flow.dependent
        assert flow.witness is None

    def test_reports_match_summary_fields(self, canonical_model):
        flow = information_flow(canonical_model)
        assert flow.reports["f_of_L2"].holds == flow.f_of_L2
        assert flow.reports["f_of_L1"].holds == flow.f_of_L1

    def test_both_readings_are_offered(self, canonical_model):
        flow = information_flow(canonical_model)
        assert len(flow.interpretation) == 2
        first, second = flow.interpretation
        assert first != second


class TestFrameComparison:
    def test_canonical_suites(self, canonical_table):
        report = frame_comparison(canonical_table)
        assert set(report.suites) == {LOC1_L_FIRST, LOC1_R_FIRST, LIGHT_CONE_KEY}
        assert report.suites[LOC1_L_FIRST].truth_values() == {
            "stmt1": True, "stmt2": False, "stmt3": True,
        }
        assert report.suites[LOC1_R_FIRST].truth_values() == {
            "stmt1": False, "stmt2": False, "stmt3": False,
        }
        assert report.suites[LIGHT_CONE_KEY].truth_values() == {
            "stmt1": True, "stmt2": False, "stmt3": True,
        }
        assert report.stmt1_frame_dependent is True

    def test_canonical_divergence_example(self, canonical_table):
        divergence = frame_comparison(canonical_table).divergence
        assert divergence is not None
        assert divergence.text == pretty_print(parse(DIVERGENCE_TEXT))
        assert str(divergence.world) == "(L2,R1,+,-)"
        assert divergence.results == {LOC1_L_FIRST: False, LIGHT_CONE_KEY: True}

    def test_uniform_comparison(self, uniform_table):
        report = frame_comparison(uniform_table)
        assert report.suites[LOC1_L_FIRST].truth_values() == {
            "stmt1": False, "stmt2": False, "stmt3": True,
        }
        assert report.suites[LOC1_R_FIRST].truth_values() == {
            "stmt1": False, "stmt2": False, "stmt3": False,
        }
        assert report.stmt1_frame_dependent is False
        assert report.divergence is not None
        assert report.divergence.results == {
            LOC1_L_FIRST: False, LIGHT_CONE_KEY: True,
        }

    def test_light_cone_suite_is_frame_blind(self, canonical_table):
        # light-cone protection never consults the frame, so evaluating on
        # the right-first model must give the same verdicts
        report = frame_comparison(canonical_table)
        model_r = enumerate_worlds(
            canonical_table, frame=FrameOrdering.RIGHT_BEFORE_LEFT
        )
        assert (
            theorem_suite(model_r, LIGHT_CONE).truth_values()
            == report.suites[LIGHT_CONE_KEY].truth_values()
        )


class TestDeterministicStrategy:
    def test_outcome_lookup_and_label(self):
        strategy = DeterministicStrategy(
            Outcome.PLUS, Outcome.MINUS, Outcome.PLUS, Outcome.MINUS
        )
        assert strategy.outcome_for(Setting.L1) is Outcome.PLUS
        assert strategy.outcome_for(Setting.R2) is Outcome.MINUS
        assert strategy.label() == "L1->+ L2->- R1->+ R2->-"

    def test_produces(self):
        strategy = DeterministicStrategy(
            Outcome.PLUS, Outcome.MINUS, Outcome.PLUS, Outcome.MINUS
        )
        assert strategy.produces(
            Setting.L1, Setting.R1, Outcome.PLUS, Outcome.PLUS
        )
        assert not strategy.produces(
            Setting.L2, Setting.R1, Outcome.PLUS, Outcome.PLUS
        )


def zero_cells(table, epsilon=1e-9):
    return [key for key, p in table.entries.items() if p <= epsilon]


class TestLhvFeasibility:
    def test_canonical_is_infeasible(self, canonical_table):
        report = lhv_feasibility(canonical_table)
        assert report.feasible is False
        assert len(report.excluded_strategies) == 11
        assert len(report.surviving_strategies) == 5

    def test_exclusions_are_justified(self, canonical_table):
        # dual route: re-check every verdict against the table itself
        report = lhv_feasibility(canonical_table)
        zeros = zero_cells(canonical_table)
        for strategy, _ in report.excluded_strategies:
            assert any(strategy.produces(*key) for key in zeros)
        for strategy in report.surviving_strategies:
            assert not any(strategy.produces(*key) for key in zeros)
        total = len(report.excluded_strategies) + len(report.surviving_strategies)
        assert total == 16

    def test_canonical_trace_names_the_uncovered_cell(self, canonical_table):
        trace = lhv_feasibility(canonical_table).contradiction_trace
        assert trace.startswith(
            "table demands P(L1+,R2+ | L1,R2) > 0 (= 0.083333333)"
        )
        assert trace.count("excluded by") == 4
        for name in ("h1:", "h2:", "h3:"):
            assert name in trace
        assert "no local deterministic account exists" in trace

    def test_uniform_is_feasible(self, uniform_table):
        report = lhv_feasibility(uniform_table)
        assert report.feasible is True
        assert report.excluded_strategies == ()
        assert len(report.surviving_strategies) == 16
        assert "uniform mixture" in report.contradiction_trace

    def test_product_state_is_feasible(self, canonical_pair):
        # a separable preparation with the same four measurements admits a
        # local account even though it breaks the vanishing-cell pattern
        _, config = canonical_pair
        table = probability_table(BipartiteState((1.0, 0.0, 0.0, 0.0)), config)
        report = lhv_feasibility(table)
        assert report.feasible is True
        assert len(report.excluded_strategies) == 12
        assert len(report.surviving_strategies) == 4

    def test_family_members_are_infeasible(self):
        rng = random.Random(29)
        for _ in range(10):
            x = rng.uniform(0.01, 0.49)
            table = probability_table(*hardy_family(x))
            report = lhv_feasibility(table)
            assert report.feasible is False, x
            assert len(report.excluded_strategies) == 11
            assert len(report.surviving_strategies) == 5

    def test_large_epsilon_moves_the_obstruction(self, canonical_table):
        # at 0.09 the 1/12 cells count as zeros too; the contradiction then
        # surfaces at the first still-demanded cell instead
        report = lhv_feasibility(canonical_table, epsilon=0.09)
        assert report.feasible is False
        assert len(report.excluded_strategies) == 13
        assert len(report.surviving_strategies) == 3
        assert report.contradiction_trace.startswith(
            "table demands P(L1+,R1+ | L1,R1) > 0 (= 0.166666667)"
        )


def outcomes(strategy):
    return (strategy.on_l1, strategy.on_l2, strategy.on_r1, strategy.on_r2)


def assert_matches_enumeration(table, epsilon):
    report = lhv_feasibility(table, epsilon)
    feasible, excluded, survivors, trace = lhv_by_enumeration(table, epsilon)
    assert report.feasible is feasible
    assert [
        (outcomes(strategy), label) for strategy, label in report.excluded_strategies
    ] == excluded
    assert [outcomes(s) for s in report.surviving_strategies] == survivors
    assert report.contradiction_trace == trace


class TestLhvAgainstEnumeration:
    @pytest.mark.parametrize("epsilon", [1e-9, 0.09])
    def test_canonical(self, canonical_table, epsilon):
        assert_matches_enumeration(canonical_table, epsilon)

    def test_family_and_uniform(self, uniform_table):
        assert_matches_enumeration(uniform_table, 1e-9)
        for x in (1e-5, 0.2, 0.45):
            assert_matches_enumeration(probability_table(*hardy_family(x)), 1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        zero_pattern=st.integers(0, (1 << 16) - 1),
        on_threshold=st.integers(0, (1 << 16) - 1),
        positives=st.lists(
            st.floats(min_value=2e-3, max_value=1.0), min_size=16, max_size=16
        ),
        epsilon=st.sampled_from([1e-9, 1e-3]),
        order=st.permutations(range(16)),
    )
    def test_random_zero_patterns(
        self, zero_pattern, on_threshold, positives, epsilon, order
    ):
        # cells in the zero pattern sit at 0 or exactly on the threshold;
        # the table is built in a random key order
        entries = {}
        for i in order:
            if zero_pattern >> i & 1:
                entries[CELLS[i]] = epsilon if on_threshold >> i & 1 else 0.0
            else:
                entries[CELLS[i]] = positives[i]
        assert_matches_enumeration(JointProbabilityTable(entries), epsilon)
