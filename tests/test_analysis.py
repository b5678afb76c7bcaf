import functools
import gc
import itertools
import math
import operator
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyworlds import analysis, semantics
from hardyworlds.analysis import (
    DIVERGENCE_TEXT,
    LIGHT_CONE_KEY,
    LOC1_L_FIRST,
    LOC1_R_FIRST,
    READING_NONE,
    READING_REFERENCE,
    READING_TRANSFER,
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
from hardyworlds.formulas import (
    Counterfactual,
    Entails,
    SettingAtom,
    parse,
    pretty_print,
    subformulas,
)
from hardyworlds.labels import FrameOrdering, Outcome, Region, Setting
from hardyworlds.quantum import (
    CELLS,
    COMPUTATIONAL_BASIS,
    BipartiteState,
    ExperimentConfig,
    JointProbabilityTable,
    MeasurementBasis,
    canonical_hardy_model,
    hardy_family,
    probability_table,
    verify_hardy_constraints,
)
from hardyworlds.errors import DomainError, InconsistentModelError
from hardyworlds.modelio import dump_model, parse_model
from hardyworlds.semantics import (
    LocalityCondition, changed_regions, eval_model, eval_world, fixed,
)
from hardyworlds.worlds import World, WorldModel, enumerate_worlds
from oracles import lhv_by_enumeration, random_formula

LOC1 = LocalityCondition.LOC1
LIGHT_CONE = LocalityCondition.LIGHT_CONE


def truth_values(suite):
    return {name: report.holds for name, report in suite.statements.items()}


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
        # stmt1 and stmt2 are the right-region statement entailed by L2 and L1
        shapes = catalog()
        shared = shapes.right_region_statement
        assert Entails(SettingAtom(Setting.L2), shared) == shapes.stmt1
        assert Entails(SettingAtom(Setting.L1), shared) == shapes.stmt2

    def test_shared_consequent_mentions_only_the_right_region(self):
        assert "L" not in SR_TEXT.replace("[]->", "")

    def test_every_counterfactual_changes_a_right_choice(self):
        # frame_comparison reports the LOC1 left-first suite as the light-cone
        # suite; the two agree only for counterfactuals that change the right
        # choice, where LOC1 in that frame protects the earlier left outcome
        shapes = catalog()
        formulas = [*shapes.statements().values(), shapes.right_region_statement]
        counterfactuals = [
            sub
            for formula in formulas
            for sub in subformulas(formula)
            if isinstance(sub, Counterfactual)
        ]
        assert len(counterfactuals) == 4
        for counterfactual in counterfactuals:
            assert counterfactual.antecedent.region is Region.RIGHT, pretty_print(
                counterfactual
            )


class TestTheoremSuite:
    def test_canonical_left_first(self, canonical_model):
        suite = theorem_suite(canonical_model)
        assert truth_values(suite) == {
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
        assert truth_values(suite) == {
            "stmt1": False, "stmt2": False, "stmt3": False,
        }

    def test_canonical_light_cone(self, canonical_model):
        suite = theorem_suite(canonical_model, LIGHT_CONE)
        assert truth_values(suite) == {
            "stmt1": True, "stmt2": False, "stmt3": True,
        }

    def test_family_members_agree_with_canonical(self):
        rng = random.Random(41)
        for _ in range(10):
            x = rng.uniform(0.01, 0.49)
            table = probability_table(*hardy_family(x))
            suite = theorem_suite(enumerate_worlds(table))
            assert truth_values(suite) == {
                "stmt1": True, "stmt2": False, "stmt3": True,
            }, x
            witnesses = suite.statements["stmt2"].witnesses
            assert [str(w) for w in witnesses] == [
                "(L1,R2,+,+)", "(L1,R2,-,+)",
            ], x

    def test_uniform_table(self, uniform_model):
        suite = theorem_suite(uniform_model)
        assert truth_values(suite) == {
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

    def test_readings_only_for_a_dependence(self, canonical_model):
        # the right-first frame and a family member below the threshold
        # give the same truth value under both left choices
        tiny = enumerate_worlds(probability_table(*hardy_family(1e-5)))
        r_first = enumerate_worlds(canonical_model.table, frame=FrameOrdering.RIGHT_BEFORE_LEFT)
        for model in (r_first, tiny):
            flow = information_flow(model)
            assert not flow.dependent
            assert flow.interpretation == (READING_NONE,)

    def test_uniform_has_no_dependence(self, uniform_model):
        flow = information_flow(uniform_model)
        assert flow.f_of_L2 is False
        assert flow.f_of_L1 is False
        assert not flow.dependent
        assert flow.witness is None
        assert flow.interpretation == (READING_NONE,)

    def test_reports_match_summary_fields(self, canonical_model):
        flow = information_flow(canonical_model)
        assert flow.reports["f_of_L2"].holds == flow.f_of_L2
        assert flow.reports["f_of_L1"].holds == flow.f_of_L1

    def test_both_readings_are_offered(self, canonical_model):
        flow = information_flow(canonical_model)
        assert flow.interpretation == (READING_TRANSFER, READING_REFERENCE)


class TestFrameComparison:
    def test_canonical_suites(self, canonical_table):
        report = frame_comparison(canonical_table)
        assert set(report.suites) == {LOC1_L_FIRST, LOC1_R_FIRST, LIGHT_CONE_KEY}
        assert truth_values(report.suites[LOC1_L_FIRST]) == {
            "stmt1": True, "stmt2": False, "stmt3": True,
        }
        assert truth_values(report.suites[LOC1_R_FIRST]) == {
            "stmt1": False, "stmt2": False, "stmt3": False,
        }
        assert truth_values(report.suites[LIGHT_CONE_KEY]) == {
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
        assert truth_values(report.suites[LOC1_L_FIRST]) == {
            "stmt1": False, "stmt2": False, "stmt3": True,
        }
        assert truth_values(report.suites[LOC1_R_FIRST]) == {
            "stmt1": False, "stmt2": False, "stmt3": False,
        }
        assert report.stmt1_frame_dependent is False
        assert report.divergence is not None
        assert report.divergence.results == {
            LOC1_L_FIRST: False, LIGHT_CONE_KEY: True,
        }

    def test_light_cone_suite_is_frame_blind(self, canonical_table):
        # light-cone protection never consults the frame, so evaluating on
        # the right-first model must give the same verdicts and witnesses
        report = frame_comparison(canonical_table)
        model_r = enumerate_worlds(
            canonical_table, frame=FrameOrdering.RIGHT_BEFORE_LEFT
        )
        def verdicts(suite):
            return {
                name: (r.holds, r.witnesses) for name, r in suite.statements.items()
            }

        assert verdicts(theorem_suite(model_r, LIGHT_CONE)) == verdicts(
            report.suites[LIGHT_CONE_KEY]
        )


def random_support_table(zero_pattern, on_threshold, positives, epsilon, order):
    """A table whose cells in ``zero_pattern`` sit at 0 or exactly on the
    threshold, built in a random key order."""
    entries = {}
    for i in order:
        if zero_pattern >> i & 1:
            entries[CELLS[i]] = epsilon if on_threshold >> i & 1 else 0.0
        else:
            entries[CELLS[i]] = positives[i]
    return JointProbabilityTable(entries)


RANDOM_SUPPORT_ARGS = dict(
    zero_pattern=st.integers(0, (1 << 16) - 1),
    on_threshold=st.integers(0, (1 << 16) - 1),
    positives=st.lists(
        st.floats(min_value=2e-3, max_value=1.0), min_size=16, max_size=16
    ),
    epsilon=st.sampled_from([1e-9, 1e-3]),
    order=st.permutations(range(16)),
)


def free_choice_table(zero_pattern, on_threshold, positives, epsilon, order):
    """``random_support_table`` with one cell of each all-zero row revived.

    Every setting pair keeps at least one possible outcome pair, or the
    table has no world model; sparse rows leave counterfactuals with no
    accessible world, so vacuous flags are covered."""
    for row in range(4):
        if zero_pattern >> 4 * row & 0xF == 0xF:
            zero_pattern &= ~(1 << 4 * row + order[row] % 4)
    return random_support_table(zero_pattern, on_threshold, positives, epsilon, order)


def evidence(report):
    """What a verdict says, without its frame and locality labels."""
    return report.holds, report.witnesses, report.vacuous_flags


class TestLightConeSuiteAgainstEvaluation:
    # the light-cone suite sets fixed[R] as LOC1 does in the left-first
    # frame, so it is read from the LOC1 left-first entries of the memo;
    # both must equal a direct light-cone evaluation
    @settings(max_examples=300, deadline=None)
    @given(**RANDOM_SUPPORT_ARGS)
    def test_random_zero_patterns(
        self, zero_pattern, on_threshold, positives, epsilon, order
    ):
        table = free_choice_table(
            zero_pattern, on_threshold, positives, epsilon, order
        )
        model_l = enumerate_worlds(table, epsilon, FrameOrdering.LEFT_BEFORE_RIGHT)
        loc1_l_first = theorem_suite(model_l, LOC1).statements
        suite = frame_comparison(table, epsilon).suites[LIGHT_CONE_KEY]
        expected = catalogued_reports(model_l, LIGHT_CONE)
        assert suite.statements == expected
        assert suite.locality is LIGHT_CONE
        assert suite.frame is FrameOrdering.LEFT_BEFORE_RIGHT
        for name, report in expected.items():
            assert evidence(loc1_l_first[name]) == evidence(report)

    def test_vacuous_flags_are_kept(self, uniform_table):
        # under (L2, R1) the left outcome is always -, so switching R2 to R1
        # while holding L2+ fixed reaches no world: stmt3 is vacuous there
        plus, minus = Outcome.PLUS, Outcome.MINUS
        entries = dict(uniform_table.entries)
        for lo, ro, p in [(plus, plus, 0.0), (plus, minus, 0.0),
                          (minus, plus, 0.5), (minus, minus, 0.5)]:
            entries[(Setting.L2, Setting.R1, lo, ro)] = p
        table = JointProbabilityTable(entries)
        suite = frame_comparison(table).suites[LIGHT_CONE_KEY]
        assert suite.statements["stmt3"].vacuous_flags
        expected = catalogued_reports(enumerate_worlds(table), LIGHT_CONE)
        assert suite.statements == expected


PAIRS = [(frame, locality) for frame in FrameOrdering for locality in LocalityCondition]


def key(formula, frame, locality):
    """The ``fixed`` bits of the regions the formula's counterfactuals change."""
    return tuple(fixed(frame, locality, region) for region in changed_regions(formula))


class TestProtectionKey:
    def test_fixed_bits(self):
        bits = {
            (frame, locality): (fixed(frame, locality, Region.LEFT),
                                fixed(frame, locality, Region.RIGHT))
            for frame, locality in PAIRS
        }
        assert bits == {
            (FrameOrdering.LEFT_BEFORE_RIGHT, LOC1): (False, True),
            (FrameOrdering.RIGHT_BEFORE_LEFT, LOC1): (True, False),
            (FrameOrdering.LEFT_BEFORE_RIGHT, LIGHT_CONE): (True, True),
            (FrameOrdering.RIGHT_BEFORE_LEFT, LIGHT_CONE): (True, True),
        }

    def test_changed_regions(self):
        for formula in catalog().statements().values():
            assert changed_regions(formula) == (Region.RIGHT,)
        assert changed_regions(parse(DIVERGENCE_TEXT)) == (Region.LEFT,)
        assert changed_regions(parse("L1 & R2+")) == ()
        both = parse("R2 => (R1 []-> (L1 []-> L1+))")
        assert changed_regions(both) == (Region.LEFT, Region.RIGHT)

    @settings(max_examples=200, deadline=None)
    @given(**RANDOM_SUPPORT_ARGS, seed=st.integers(0, 2**32 - 1))
    def test_equal_keys_give_equal_verdicts(
        self, zero_pattern, on_threshold, positives, epsilon, order, seed
    ):
        table = free_choice_table(zero_pattern, on_threshold, positives, epsilon, order)
        formula = random_formula(random.Random(seed), depth=4, allow_entails=True)
        verdicts = {}
        for frame, locality in PAIRS:
            report = eval_model(enumerate_worlds(table, epsilon, frame), formula, locality)
            verdicts.setdefault(key(formula, frame, locality), []).append(evidence(report))
        for same_key in verdicts.values():
            assert all(v == same_key[0] for v in same_key)

    @settings(max_examples=100, deadline=None)
    @given(**RANDOM_SUPPORT_ARGS, pairs=st.permutations(PAIRS))
    def test_memo_reads_equal_fresh_evaluation(
        self, zero_pattern, on_threshold, positives, epsilon, order, pairs
    ):
        # whichever pair fills an entry first, every pair reads its own labels
        table = free_choice_table(zero_pattern, on_threshold, positives, epsilon, order)
        for frame, locality in pairs:
            model = enumerate_worlds(table, epsilon, frame)
            suite = theorem_suite(model, locality)
            assert suite.statements == catalogued_reports(model, locality)
            assert (suite.frame, suite.locality) == (frame, locality)


def fresh(table):
    """An equal table that shares no world tuple with ``table``."""
    return JointProbabilityTable(dict(table.entries))


# the four analyses of a sweep op, each from a table
ANALYSES = (
    lambda t, eps, frame, loc: theorem_suite(enumerate_worlds(t, eps, frame), loc),
    lambda t, eps, frame, loc: information_flow(enumerate_worlds(t, eps, frame), loc),
    lambda t, eps, frame, loc: frame_comparison(t, eps),
    lambda t, eps, frame, loc: lhv_feasibility(t, eps),
)


def catalogued_reports(model, locality):
    """Each catalogued statement evaluated directly on ``model``."""
    return {
        name: eval_model(model, formula, locality)
        for name, formula in catalog().statements().items()
    }


class TestSharedVerdicts:
    @settings(max_examples=200, deadline=None)
    @given(
        **RANDOM_SUPPORT_ARGS,
        frame=st.sampled_from(list(FrameOrdering)),
        locality=st.sampled_from(list(LocalityCondition)),
        analyses=st.permutations(range(len(ANALYSES))),
        dropped=st.integers(0, 15),
    )
    def test_shared_results_equal_fresh_ones(
        self, zero_pattern, on_threshold, positives, epsilon, order,
        frame, locality, analyses, dropped,
    ):
        table = free_choice_table(zero_pattern, on_threshold, positives, epsilon, order)
        for index in analyses:
            shared = ANALYSES[index](table, epsilon, frame, locality)
            analysis._memo.clear()
            alone = ANALYSES[index](fresh(table), epsilon, frame, locality)
            assert shared == alone
            assert repr(shared) == repr(alone)
        # a hand-built model on the same table, epsilon and frame but over
        # fewer worlds has another mask, so it must not read the table's
        # verdicts
        worlds = list(enumerate_worlds(table, epsilon, frame).worlds)
        del worlds[dropped % len(worlds)]
        hand_built = WorldModel(worlds, table, epsilon, frame)
        reports = catalogued_reports(hand_built, locality)
        assert theorem_suite(hand_built, locality).statements == reports
        flow = information_flow(hand_built, locality)
        assert flow.reports == {
            "f_of_L2": reports["stmt1"], "f_of_L1": reports["stmt2"],
        }

    def test_hand_built_model_gets_its_own_verdicts(self, canonical_pair):
        table = probability_table(*canonical_pair)
        model = enumerate_worlds(table)
        shared = theorem_suite(model).statements["stmt2"]
        witness = model.find(Setting.L1, Setting.R2, Outcome.PLUS, Outcome.PLUS)
        hand_built = WorldModel(
            [w for w in model.worlds if w != witness], table, model.epsilon, model.frame
        )
        own = theorem_suite(hand_built).statements["stmt2"]
        assert [str(w) for w in shared.witnesses] == ["(L1,R2,+,+)", "(L1,R2,-,+)"]
        assert [str(w) for w in own.witnesses] == ["(L1,R2,-,+)"]
        assert information_flow(hand_built).reports["f_of_L1"] == own
        # a hand-built model over the same worlds reads the same verdicts,
        # reported on its own worlds, which carry other probabilities
        relabelled = tuple(
            World(w.left_setting, w.right_setting, w.left_outcome, w.right_outcome, 0.5)
            for w in model.worlds
        )
        assert relabelled == model.worlds
        copied = WorldModel(relabelled, table, model.epsilon, model.frame)
        own = theorem_suite(copied).statements["stmt2"]
        assert own == shared
        assert [w.probability for w in own.witnesses] == [0.5, 0.5]

    def test_free_choice_violation_raises_on_every_call(self, canonical_table):
        # the (L1, R2) row sits between the two thresholds: possible at
        # 1e-9, empty at 1e-3
        entries = dict(canonical_table.entries)
        for lo, ro in itertools.product(Outcome, Outcome):
            entries[(Setting.L1, Setting.R2, lo, ro)] = 1e-4
        table = JointProbabilityTable(entries)
        message = r"\(L1, R2\) admit no outcome with probability above 0\.001"
        for _ in range(3):
            assert len(enumerate_worlds(table, 1e-9)) == 13
            for frame in FrameOrdering:
                with pytest.raises(InconsistentModelError, match=message):
                    enumerate_worlds(table, 1e-3, frame)
            with pytest.raises(InconsistentModelError, match=message):
                frame_comparison(table, 1e-3)


def sweep_op(table, frame, locality):
    """What one family-sweep op runs on a table."""
    model = enumerate_worlds(table, 1e-9, frame)
    return (
        model,
        theorem_suite(model, locality),
        information_flow(model, locality),
        frame_comparison(table, 1e-9),
        lhv_feasibility(table, 1e-9),
    )


def memo_objects(value):
    """Every object a memo key or value holds, tuples walked through."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from memo_objects(item)


@pytest.mark.usefixtures("empty_memo")
class TestSharingTripwires:
    @pytest.mark.parametrize("frame", list(FrameOrdering))
    @pytest.mark.parametrize("locality", [LOC1, LIGHT_CONE], ids=["loc1", "lightcone"])
    def test_eval_model_calls_per_sweep_op(
        self, uniform_table, monkeypatch, frame, locality
    ):
        # every catalogued verdict rests on fixed[R]: the op's suite sets it
        # or clears it, the flow reads that suite again, and the frame
        # comparison reads it and adds the other value of the bit.  Verdicts
        # rest on the possible worlds alone, so another family member, with
        # the same support, evaluates nothing; the uniform table, with full
        # support, evaluates all six again
        seen = []

        def counting(model, formula, locality):
            seen.append(formula)
            return eval_model(model, formula, locality)

        # analysis binds eval_model at import, so both names are patched
        monkeypatch.setattr(semantics, "eval_model", counting)
        monkeypatch.setattr(analysis, "eval_model", counting)
        sweep_op(probability_table(*hardy_family(0.3)), frame, locality)
        assert len(seen) == 6
        sweep_op(probability_table(*hardy_family(0.2)), frame, locality)
        assert len(seen) == 6
        sweep_op(uniform_table, frame, locality)
        assert len(seen) == 12

    def test_memo_holds_seven_entries_per_mask(self, canonical_pair, uniform_table):
        # three statements times the two values of fixed[R], and the
        # divergence results; no world, model or table
        tables = [probability_table(*canonical_pair), uniform_table]
        for table in tables:
            for epsilon in (1e-9, 1e-3):
                for frame, locality in PAIRS:
                    model = enumerate_worlds(table, epsilon, frame)
                    theorem_suite(model, locality)
                    information_flow(model, locality)
                frame_comparison(table, epsilon)
        masks = {enumerate_worlds(t, eps).mask for t in tables for eps in (1e-9, 1e-3)}
        per_mask = {
            mask: [key for key in analysis._memo if key[0] == mask] for mask in masks
        }
        assert {len(keys) for keys in per_mask.values()} == {7}
        assert sum(map(len, per_mask.values())) == len(analysis._memo)
        held = [
            obj for item in analysis._memo.items() for obj in memo_objects(item)
        ]
        assert not any(
            isinstance(obj, (World, WorldModel, JointProbabilityTable)) for obj in held
        )

    def test_memo_stays_within_its_bound(self, uniform_table, monkeypatch):
        # each table lacks one cell of the uniform one: twelve supports of
        # three suite entries each, past a bound of ten
        monkeypatch.setattr(analysis, "_MEMO_LIMIT", 10)
        for cell in CELLS[:12]:
            table = JointProbabilityTable({**uniform_table.entries, cell: 0.0})
            model = enumerate_worlds(table)
            suite = theorem_suite(model)
            assert 0 < len(analysis._memo) <= 10
            assert suite.statements == catalogued_reports(model, LOC1)

    def test_table_is_freed_without_the_cycle_collector(self, uniform_table):
        # everything a sweep op returns is held, as the benchmark holds it,
        # then dropped at once.  The memos hold world sets and positions,
        # nothing that refers back to the table, so reference counting alone
        # frees the table, its worlds and every report; a table memo that
        # kept a model would form a table <-> model cycle and keep them all
        state = BipartiteState([0.6, 0.0, 0.0, 0.8])
        config = ExperimentConfig(
            left={1: MeasurementBasis((0.6, 0.8), (0.8, -0.6)), 2: COMPUTATIONAL_BASIS},
            right={1: COMPUTATIONAL_BASIS, 2: MeasurementBasis((0.8, 0.6), (0.6, -0.8))},
        )
        sources = {
            "family": lambda: probability_table(*hardy_family(0.2)),
            "document": lambda: probability_table(*parse_model(dump_model(state, config))),
            "hand-built": lambda: JointProbabilityTable(uniform_table.entries),
        }
        enabled = gc.isenabled()
        gc.disable()
        try:
            for (name, build), (frame, locality) in itertools.product(sources.items(), PAIRS):
                table = build()
                model, suite, *rest = sweep_op(table, frame, locality)
                refs = [weakref.ref(obj) for obj in (
                    table, model, model.worlds[0], suite, suite.statements["stmt1"], *rest
                )]
                del table, model, suite, rest
                assert [ref() for ref in refs] == [None] * len(refs), (name, frame, locality)
        finally:
            if enabled:
                gc.enable()


def same_support(table, epsilon):
    """``table`` with every possible cell at another probability."""
    return JointProbabilityTable(
        {cell: p * 1.5 if p > epsilon else p for cell, p in table.entries.items()}
    )


def relabelled(model):
    """A hand-built model over the same worlds at probability 0.5."""
    worlds = [
        World(w.left_setting, w.right_setting, w.left_outcome, w.right_outcome, 0.5)
        for w in model.worlds
    ]
    return WorldModel(worlds, model.table, model.epsilon, model.frame)


class TestMaskMemo:
    def assert_served(self, report, model, formula, locality):
        # labels included; equal worlds may differ in probability, so each
        # world must be the model's own object
        direct = eval_model(model, formula, locality)
        assert report == direct
        assert all(map(operator.is_, report.witnesses, direct.witnesses))
        assert all(
            a.world is b.world for a, b in zip(report.vacuous_flags, direct.vacuous_flags)
        )

    @settings(max_examples=100, deadline=None)
    @given(**RANDOM_SUPPORT_ARGS)
    def test_served_reports_are_built_on_each_model_s_worlds(
        self, zero_pattern, on_threshold, positives, epsilon, order
    ):
        # the first table fills the memo; the second, with the same support,
        # and the hand-built models read it
        analysis._memo.clear()
        table = free_choice_table(zero_pattern, on_threshold, positives, epsilon, order)
        statements = catalog().statements()
        for source in (table, same_support(table, epsilon)):
            comparison = frame_comparison(source, epsilon)
            for frame, locality in PAIRS:
                model = enumerate_worlds(source, epsilon, frame)
                for candidate in (model, relabelled(model)):
                    suite = theorem_suite(candidate, locality)
                    for name, report in suite.statements.items():
                        self.assert_served(report, candidate, statements[name], locality)
                    flow = information_flow(candidate, locality)
                    assert flow.reports == {
                        "f_of_L2": suite.statements["stmt1"],
                        "f_of_L1": suite.statements["stmt2"],
                    }
                    if flow.witness is not None:
                        assert any(flow.witness is w for w in candidate.worlds)
            for key, suite in comparison.suites.items():
                model = enumerate_worlds(source, epsilon, suite.frame)
                for name, report in suite.statements.items():
                    self.assert_served(report, model, statements[name], suite.locality)
            model_l = enumerate_worlds(source, epsilon)
            if comparison.divergence is not None:
                pivot = comparison.divergence.world
                assert any(pivot is w for w in model_l.worlds)
                formula = parse(DIVERGENCE_TEXT)
                assert comparison.divergence.results == {
                    LOC1_L_FIRST: eval_world(model_l, pivot, formula, LOC1),
                    LIGHT_CONE_KEY: eval_world(model_l, pivot, formula, LIGHT_CONE),
                }


@pytest.mark.parametrize(
    "function",
    [enumerate_worlds, frame_comparison, lhv_feasibility, verify_hardy_constraints],
)
@pytest.mark.parametrize("epsilon", [0.0, -1e-9, 0.1, 0.5, math.nan, math.inf])
def test_one_epsilon_domain(canonical_table, function, epsilon):
    # every reader of a table's possible cells rejects the same thresholds
    # with the same message, rather than reporting on them
    with pytest.raises(DomainError) as excinfo:
        function(canonical_table, epsilon)
    assert str(excinfo.value) == f"epsilon must lie strictly in (0, 0.1), got {epsilon!r}"


class TestDeterministicStrategy:
    def test_outcome_lookup_and_label(self):
        strategy = DeterministicStrategy(
            Outcome.PLUS, Outcome.MINUS, Outcome.PLUS, Outcome.MINUS
        )
        assert strategy.label() == "L1->+ L2->- R1->+ R2->-"


def zero_cells(table, epsilon=1e-9):
    return [key for key, p in table.entries.items() if p <= epsilon]


def produces(strategy, cell):
    """Does the strategy give the outcome pair of ``cell`` under its settings?"""
    left_setting, right_setting, left_outcome, right_outcome = cell
    outcome = {
        Setting.L1: strategy.on_l1,
        Setting.L2: strategy.on_l2,
        Setting.R1: strategy.on_r1,
        Setting.R2: strategy.on_r2,
    }
    return outcome[left_setting] is left_outcome and outcome[right_setting] is right_outcome


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
            assert any(produces(strategy, key) for key in zeros)
        for strategy in report.surviving_strategies:
            assert not any(produces(strategy, key) for key in zeros)
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

    def test_verdict_is_possibilistic_only(self):
        # (|00> + |11>)/sqrt(2) at the CHSH-optimal angles violates CHSH
        # maximally, yet every cell is positive, so no strategy is excluded
        # and the support-only verdict is "feasible"
        def basis(angle):
            c, s = math.cos(angle), math.sin(angle)
            return MeasurementBasis(plus=(c, s), minus=(-s, c))

        root_half = math.sqrt(0.5)
        state = BipartiteState((root_half, 0.0, 0.0, root_half))
        config = ExperimentConfig(
            left={1: basis(0.0), 2: basis(math.pi / 4)},
            right={1: basis(math.pi / 8), 2: basis(-math.pi / 8)},
        )
        table = probability_table(state, config)

        def correlation(ls, rs):
            p = table.entries
            plus, minus = Outcome.PLUS, Outcome.MINUS
            return (
                p[(ls, rs, plus, plus)] + p[(ls, rs, minus, minus)]
                - p[(ls, rs, plus, minus)] - p[(ls, rs, minus, plus)]
            )

        chsh = (
            correlation(Setting.L1, Setting.R1)
            + correlation(Setting.L1, Setting.R2)
            + correlation(Setting.L2, Setting.R1)
            - correlation(Setting.L2, Setting.R2)
        )
        assert chsh == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        report = lhv_feasibility(table)
        assert report.feasible is True
        assert report.excluded_strategies == ()
        assert len(report.surviving_strategies) == 16


def cell_text(cell):
    ls, rs, lo, ro = cell
    return f"P({ls}{lo},{rs}{ro} | {ls},{rs})"


def outcomes(strategy):
    return (strategy.on_l1, strategy.on_l2, strategy.on_r1, strategy.on_r2)


def assert_matches_enumeration(table, epsilon, report=None):
    if report is None:
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
    @given(**RANDOM_SUPPORT_ARGS)
    def test_random_zero_patterns(
        self, zero_pattern, on_threshold, positives, epsilon, order
    ):
        table = random_support_table(
            zero_pattern, on_threshold, positives, epsilon, order
        )
        assert_matches_enumeration(table, epsilon)

    @settings(max_examples=200, deadline=None)
    @given(**RANDOM_SUPPORT_ARGS)
    def test_memoized_reports_equal_enumerated_and_fresh_ones(
        self, zero_pattern, on_threshold, positives, epsilon, order
    ):
        # the first table fills the memo under its support; the second, with
        # the same support at other probabilities, reads it
        analysis._memo.clear()
        table = random_support_table(
            zero_pattern, on_threshold, positives, epsilon, order
        )
        sources = (table, same_support(table, epsilon))
        reports = [lhv_feasibility(source, epsilon) for source in sources]
        assert len(analysis._memo) == 1
        assert not any(
            isinstance(obj, JointProbabilityTable)
            for obj in memo_objects(next(iter(analysis._memo.items())))
        )
        for source, report in zip(sources, reports):
            assert_matches_enumeration(source, epsilon, report)
            analysis._memo.clear()
            assert lhv_feasibility(source, epsilon) == report
        if not reports[0].feasible:
            # each trace quotes its own table's probability of the first
            # uncovered cell, which only the first table's trace holds
            quoted = [
                f"(= {source.entries[cell]:.9f})"
                for source in sources
                for cell in CELLS
                if f"demands {cell_text(cell)} > 0" in reports[0].contradiction_trace
            ]
            assert quoted[0] != quoted[1]
            for text, report in zip(quoted, reports):
                assert text in report.contradiction_trace
            assert reports[1].contradiction_trace == (
                reports[0].contradiction_trace.replace(quoted[0], quoted[1])
            )


def uniform_support_table(row_masks):
    """The table whose setting pair k puts equal weight on the cells of the
    4-bit support ``row_masks[k]``, in ``CELLS`` order, and 0 elsewhere."""
    probabilities = [
        (1.0 / bin(mask).count("1") if mask >> i & 1 else 0.0)
        for mask in row_masks
        for i in range(4)
    ]
    return JointProbabilityTable(dict(zip(CELLS, probabilities)))


@functools.cache
def hardy_patterns():
    """The row masks of every support pattern that satisfies the Hardy
    constraints.  A world model depends only on which cells are possible:
    each of the 4 setting pairs has 15 non-empty supports, 15**4 patterns."""
    return tuple(
        row_masks
        for row_masks in itertools.product(range(1, 16), repeat=4)
        if verify_hardy_constraints(uniform_support_table(row_masks)).satisfied
    )


def signals_in_support(row_masks):
    """Whether some party's set of possible outcomes changes with the far
    choice.  Bits 0..3 of a row are (+,+), (+,-), (-,+), (-,-)."""
    def left(mask):
        return (bool(mask & 0b0011), bool(mask & 0b1100))

    def right(mask):
        return (bool(mask & 0b0101), bool(mask & 0b1010))

    l1r1, l1r2, l2r1, l2r2 = row_masks
    return not (
        left(l1r1) == left(l1r2)
        and left(l2r1) == left(l2r2)
        and right(l1r1) == right(l2r1)
        and right(l1r2) == right(l2r2)
    )


class TestCensus:
    def test_every_hardy_pattern_is_lhv_infeasible(self):
        assert len(hardy_patterns()) == 1568
        for row_masks in hardy_patterns():
            table = uniform_support_table(row_masks)
            assert not lhv_feasibility(table).feasible, row_masks

    def test_flow_over_the_hardy_patterns(self):
        # LOC1, left-first: every Hardy pattern whose supports do not signal
        # is flow-dependent; 672 of the signalling ones are not
        quiet, signalling, independent = 0, 0, 0
        for row_masks in hardy_patterns():
            flow = information_flow(enumerate_worlds(uniform_support_table(row_masks)))
            if signals_in_support(row_masks):
                signalling += 1
                independent += not flow.dependent
            else:
                quiet += 1
                assert flow.dependent, row_masks
        assert (quiet, signalling, independent) == (40, 1528, 672)
