import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hardyworlds.errors import EntailmentNestingError, UnknownWorldError
from hardyworlds.formulas import parse, pretty_print
from hardyworlds.labels import FrameOrdering, Outcome, Region, Setting
from hardyworlds.quantum import JointProbabilityTable, hardy_family, probability_table
from hardyworlds.semantics import (
    CounterfactualTruth,
    LocalityCondition,
    accessible_worlds,
    eval_counterfactual,
    eval_model,
    eval_world,
    worlds_satisfying,
)
from hardyworlds.worlds import World, enumerate_worlds
from oracles import accessible_filter, atom_valuation, classical_eval, random_formula

LOC1 = LocalityCondition.LOC1
LIGHT_CONE = LocalityCondition.LIGHT_CONE


def labels(worlds):
    return sorted(str(w) for w in worlds)


@pytest.fixture(scope="module")
def family_quarter_model():
    state, config = hardy_family(0.25)
    return enumerate_worlds(probability_table(state, config))


class TestAccessibleWorlds:
    def test_same_setting_reaches_only_itself(self, canonical_model):
        w = canonical_model.find(
            Setting.L1, Setting.R1, Outcome.PLUS, Outcome.PLUS
        )
        for locality in (LOC1, LIGHT_CONE):
            acc = accessible_worlds(canonical_model, w, Setting.L1, locality)
            assert acc.worlds == frozenset({w})
            acc = accessible_worlds(canonical_model, w, Setting.R1, locality)
            assert acc.worlds == frozenset({w})

    def test_later_region_outcome_left_free(self, canonical_model):
        # l-first frame, switching the left choice: the right region is
        # later, so its outcome may vary along with the change
        w = canonical_model.find(
            Setting.L1, Setting.R1, Outcome.PLUS, Outcome.PLUS
        )
        acc = accessible_worlds(canonical_model, w, Setting.L2, LOC1)
        assert labels(acc.worlds) == [
            "(L2,R1,+,-)", "(L2,R1,-,+)", "(L2,R1,-,-)",
        ]
        assert acc.changed_region is Region.LEFT
        assert acc.new_setting is Setting.L2

    def test_earlier_region_outcome_protected(self, canonical_model):
        # l-first frame, switching the right choice: the left region is
        # earlier, so its outcome is held fixed
        w = canonical_model.find(
            Setting.L2, Setting.R2, Outcome.PLUS, Outcome.PLUS
        )
        acc = accessible_worlds(canonical_model, w, Setting.R1, LOC1)
        assert labels(acc.worlds) == ["(L2,R1,+,-)"]

    def test_light_cone_always_protects(self, canonical_model):
        w = canonical_model.find(
            Setting.L1, Setting.R1, Outcome.PLUS, Outcome.PLUS
        )
        acc = accessible_worlds(canonical_model, w, Setting.L2, LIGHT_CONE)
        assert labels(acc.worlds) == ["(L2,R1,-,+)"]

    def test_frame_flip_swaps_protection(self, canonical_model_rfirst):
        # r-first frame, switching the left choice: now the right region is
        # the earlier one and its outcome is protected
        w = canonical_model_rfirst.find(
            Setting.L1, Setting.R1, Outcome.PLUS, Outcome.PLUS
        )
        acc = accessible_worlds(canonical_model_rfirst, w, Setting.L2, LOC1)
        assert labels(acc.worlds) == ["(L2,R1,-,+)"]

    def test_unknown_world_rejected(self, canonical_model):
        impossible = World(Setting.L1, Setting.R1, Outcome.PLUS, Outcome.MINUS)
        with pytest.raises(UnknownWorldError):
            accessible_worlds(canonical_model, impossible, Setting.L2)

    def test_matches_independent_filter(self, canonical_model, uniform_model):
        # second implementation of the accessibility rule, written against
        # the region/frame cases directly rather than the protect predicate
        state, config = hardy_family(0.25)
        table = probability_table(state, config)
        models = [
            canonical_model,
            uniform_model,
            enumerate_worlds(table, frame=FrameOrdering.LEFT_BEFORE_RIGHT),
            enumerate_worlds(table, frame=FrameOrdering.RIGHT_BEFORE_LEFT),
            enumerate_worlds(
                probability_table(*hardy_family(1.0 / 3.0)),
                frame=FrameOrdering.RIGHT_BEFORE_LEFT,
            ),
        ]
        for model in models:
            for w in model:
                for s in Setting:
                    for locality in (LOC1, LIGHT_CONE):
                        got = accessible_worlds(model, w, s, locality).worlds
                        want = accessible_filter(model, w, s, locality)
                        assert got == want, (w, s, locality, model.frame)

    def test_light_cone_never_enlarges(self, canonical_model, uniform_model):
        for model in (canonical_model, uniform_model):
            for w in model:
                for s in Setting:
                    narrow = accessible_worlds(model, w, s, LIGHT_CONE).worlds
                    wide = accessible_worlds(model, w, s, LOC1).worlds
                    assert narrow <= wide

    def test_canonical_sets_never_empty(self, canonical_model, canonical_model_rfirst):
        for model in (canonical_model, canonical_model_rfirst):
            for w in model:
                for s in Setting:
                    for locality in (LOC1, LIGHT_CONE):
                        assert accessible_worlds(model, w, s, locality).worlds


class TestEvalCounterfactual:
    def test_divergence_world(self, canonical_model):
        # from (L2,R1,+,-): switching to L1 without protection reaches all
        # of the L1,R1 row, with protection only the row's minus-minus world
        w = canonical_model.find(
            Setting.L2, Setting.R1, Outcome.PLUS, Outcome.MINUS
        )
        consequent = parse("R1-")
        assert (
            eval_counterfactual(canonical_model, w, Setting.L1, consequent, LOC1)
            is CounterfactualTruth.FALSE
        )
        assert (
            eval_counterfactual(
                canonical_model, w, Setting.L1, consequent, LIGHT_CONE
            )
            is CounterfactualTruth.TRUE
        )

    def test_protected_switch_is_true(self, canonical_model):
        w = canonical_model.find(
            Setting.L2, Setting.R2, Outcome.PLUS, Outcome.PLUS
        )
        assert (
            eval_counterfactual(
                canonical_model, w, Setting.R1, parse("R1-"), LOC1
            )
            is CounterfactualTruth.TRUE
        )

    def test_consequent_must_be_entailment_free(self, canonical_model):
        w = canonical_model.worlds[0]
        with pytest.raises(EntailmentNestingError):
            eval_counterfactual(
                canonical_model, w, Setting.L2, parse("L1 => L2"), LOC1
            )


def vacuous_prone_model():
    # a two-outcome-per-row table where protecting the left plus outcome
    # while switching to R1 leaves nothing accessible from (L2,R2,+,+)
    zero_rows = {
        (Setting.L1, Setting.R1): {("-", "-"): 1.0},
        (Setting.L1, Setting.R2): {("-", "-"): 1.0},
        (Setting.L2, Setting.R1): {("-", "+"): 0.5, ("-", "-"): 0.5},
        (Setting.L2, Setting.R2): {("+", "+"): 0.5, ("-", "-"): 0.5},
    }
    entries = {}
    for (ls, rs), row in zero_rows.items():
        for lo in (Outcome.PLUS, Outcome.MINUS):
            for ro in (Outcome.PLUS, Outcome.MINUS):
                entries[(ls, rs, lo, ro)] = row.get((lo.value, ro.value), 0.0)
    return enumerate_worlds(JointProbabilityTable(entries))


class TestVacuity:
    def test_empty_accessible_set_is_vacuous(self):
        model = vacuous_prone_model()
        w = model.find(Setting.L2, Setting.R2, Outcome.PLUS, Outcome.PLUS)
        acc = accessible_worlds(model, w, Setting.R1, LOC1)
        assert acc.worlds == frozenset()
        assert (
            eval_counterfactual(model, w, Setting.R1, parse("R1-"), LOC1)
            is CounterfactualTruth.VACUOUS
        )

    def test_vacuous_counts_as_failure(self):
        model = vacuous_prone_model()
        w = model.find(Setting.L2, Setting.R2, Outcome.PLUS, Outcome.PLUS)
        assert not eval_world(model, w, parse("R1 []-> R1-"), LOC1)
        assert not eval_world(model, w, parse("R1 []-> R1+"), LOC1)

    def test_vacuity_is_flagged_in_reports(self):
        model = vacuous_prone_model()
        report = eval_model(model, parse("L2 & L2+ -> (R1 []-> R1-)"), LOC1)
        assert not report.holds
        flagged = [
            f"{pretty_print(flag.counterfactual)} at {flag.world}"
            for flag in report.vacuous_flags
        ]
        assert "(R1 []-> R1-) at (L2,R2,+,+)" in flagged
        assert [str(w) for w in report.witnesses] == ["(L2,R2,+,+)"]


class TestEvalWorld:
    def test_atom_truth(self, canonical_model):
        w = canonical_model.find(
            Setting.L2, Setting.R1, Outcome.MINUS, Outcome.PLUS
        )
        assert eval_world(canonical_model, w, parse("L2"))
        assert not eval_world(canonical_model, w, parse("L1"))
        assert eval_world(canonical_model, w, parse("L2-"))
        assert not eval_world(canonical_model, w, parse("L2+"))
        assert not eval_world(canonical_model, w, parse("L1-"))

    def test_membership_check(self, canonical_model, uniform_model):
        stranger = uniform_model.find(
            Setting.L1, Setting.R1, Outcome.PLUS, Outcome.MINUS
        )
        with pytest.raises(UnknownWorldError):
            eval_world(canonical_model, stranger, parse("L1"))

    def test_rejects_entailment(self, canonical_model):
        w = canonical_model.worlds[0]
        with pytest.raises(EntailmentNestingError):
            eval_world(canonical_model, w, parse("L1 => L2"))

    def test_classical_fragment_matches_truth_tables(self, canonical_model):
        # counterfactual-free formulas must agree with a plain truth-table
        # evaluation over the world's atom valuation
        rng = random.Random(20240818)
        worlds = canonical_model.worlds
        for _ in range(400):
            formula = random_formula(
                rng, depth=4, allow_entails=False, allow_counterfactual=False
            )
            w = rng.choice(worlds)
            assert eval_world(canonical_model, w, formula) == classical_eval(
                formula, atom_valuation(w)
            )


class TestWorldsSatisfying:
    def test_outcome_atom_implies_setting_atom(self, canonical_model, uniform_model):
        for model in (canonical_model, uniform_model):
            assert worlds_satisfying(model, parse("R2 & R2+")) == worlds_satisfying(
                model, parse("R2+")
            )

    def test_outcome_without_setting_is_unsatisfiable(self, uniform_model):
        assert worlds_satisfying(uniform_model, parse("R1+ & ~R1")) == frozenset()

    def test_selection_examples(self, canonical_model):
        assert labels(worlds_satisfying(canonical_model, parse("L2 & L2-"))) == [
            "(L2,R1,-,+)", "(L2,R1,-,-)", "(L2,R2,-,-)",
        ]
        assert labels(
            worlds_satisfying(canonical_model, parse("L2 & R2 & R2+"))
        ) == ["(L2,R2,+,+)"]

    def test_rejects_entailment(self, canonical_model):
        with pytest.raises(EntailmentNestingError):
            worlds_satisfying(canonical_model, parse("L1 ⇒ L2"))


class TestEvalModel:
    def test_tautology_holds_everywhere(self, canonical_model):
        report = eval_model(canonical_model, parse("L1 | ~L1"))
        assert report.holds
        assert report.witnesses == ()
        assert report.vacuous_flags == ()

    def test_contradiction_fails_everywhere(self, canonical_model):
        report = eval_model(canonical_model, parse("L2 & ~L2"))
        assert not report.holds
        assert len(report.witnesses) == 13
        assert report.witnesses == canonical_model.worlds

    def test_entailment_restricts_to_antecedent_worlds(self, canonical_model):
        report = eval_model(canonical_model, parse("L2 & R2 & R2+ => L2+"))
        assert report.holds

    def test_report_carries_context(self, canonical_model_rfirst):
        report = eval_model(
            canonical_model_rfirst, parse("L1 | ~L1"), LIGHT_CONE
        )
        assert report.locality is LIGHT_CONE
        assert report.frame is FrameOrdering.RIGHT_BEFORE_LEFT
        assert report.text == "(L1 | (~L1))"

    def test_witness_order_is_sorted(self, canonical_model):
        report = eval_model(canonical_model, parse("~R2+"))
        indices = [w.index for w in report.witnesses]
        assert indices == sorted(set(indices))


# Nested counterfactuals over the canonical model and a family member, in both
# frames and both localities, each counted in a fresh process
COUNT_NESTED_CALLS = """
from hardyworlds import semantics
from hardyworlds.formulas import parse
from hardyworlds.labels import FrameOrdering
from hardyworlds.quantum import canonical_hardy_model, hardy_family, probability_table
from hardyworlds.worlds import enumerate_worlds

calls = []
accessible = semantics.accessible_worlds
semantics.accessible_worlds = lambda *args: calls.append(args) or accessible(*args)
texts = {texts!r}
for pair in (canonical_hardy_model(), hardy_family(0.2)):
    for frame in FrameOrdering:
        model = enumerate_worlds(probability_table(*pair), 1e-9, frame)
        for text in texts:
            for locality in semantics.LocalityCondition:
                semantics.eval_model(model, parse(text), locality)
print(len(calls))
"""
NESTED = (
    "L2 & R2 & R2- => (R1 []-> (L1 []-> L1+))",
    "R1 []-> (L1 []-> (R2 []-> R2+))",
    "L1 => (R2 []-> (L2 []-> (R1 []-> R1-)))",
    "(R1 []-> L1+) | (L2 []-> (R2 []-> L2-))",
    "R2 => (L1 []-> ~(R1 []-> (L2 []-> R1+)))",
)


def test_nested_accessibility_does_not_depend_on_the_hash_seed():
    # a counterfactual stops at the first accessible world that fails its
    # consequent; worlds hash by their CELLS index, so every process visits
    # them in the same order and makes the same nested calls
    counts = set()
    for seed in "0123":
        proc = subprocess.run(
            [sys.executable, "-c", COUNT_NESTED_CALLS.format(texts=NESTED)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
                 "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        counts.add(int(proc.stdout))
    assert len(counts) == 1 and min(counts) > 0, counts
