import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyworlds.errors import (
    CounterfactualAntecedentError,
    EntailmentNestingError,
    FormulaSyntaxError,
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
    contains_entails,
    parse,
    pretty_print,
    subformulas,
    tokenize,
)
from hardyworlds.labels import Outcome, Setting
from oracles import random_formula

L1 = SettingAtom(Setting.L1)
L2 = SettingAtom(Setting.L2)
R1 = SettingAtom(Setting.R1)
R2 = SettingAtom(Setting.R2)
R1M = OutcomeAtom(Setting.R1, Outcome.MINUS)
R2P = OutcomeAtom(Setting.R2, Outcome.PLUS)
L2P = OutcomeAtom(Setting.L2, Outcome.PLUS)


class TestAtoms:
    def test_setting_atom(self):
        assert parse("L1") == L1

    def test_outcome_atom(self):
        assert parse("R2+") == R2P
        assert parse("L2-") == OutcomeAtom(Setting.L2, Outcome.MINUS)

    def test_suffix_must_be_adjacent(self):
        # "L1 +" is a choice atom followed by a stray "+"
        with pytest.raises(FormulaSyntaxError) as info:
            parse("L1 +")
        assert info.value.position == 3
        assert "position 3" in str(info.value)


class TestPrecedence:
    def test_not_binds_tightest(self):
        assert parse("~L1 & R2 -> R2+") == Implies(And(Not(L1), R2), R2P)

    def test_and_over_or(self):
        assert parse("L1 | L2 & R1") == Or(L1, And(L2, R1))
        assert parse("L1 & L2 | R1") == Or(And(L1, L2), R1)

    def test_counterfactual_over_implies(self):
        assert parse("R1 []-> R1- -> L2") == Implies(
            Counterfactual(Setting.R1, R1M), L2
        )
        assert parse("L2 -> R1 []-> R1-") == Implies(
            L2, Counterfactual(Setting.R1, R1M)
        )

    def test_implies_over_entails(self):
        assert parse("L2 => R2 -> R2+") == Entails(L2, Implies(R2, R2P))

    def test_parentheses_override(self):
        assert parse("~(L1 & R2)") == Not(And(L1, R2))
        assert parse("(L1 | L2) & R1") == And(Or(L1, L2), R1)


class TestRightAssociativity:
    def test_and(self):
        assert parse("L1 & L2 & R1") == And(L1, And(L2, R1))

    def test_or(self):
        assert parse("L1 | L2 | R1") == Or(L1, Or(L2, R1))

    def test_implies(self):
        assert parse("L1 -> L2 -> R1") == Implies(L1, Implies(L2, R1))

    def test_counterfactual(self):
        assert parse("L1 []-> R1 []-> R1-") == Counterfactual(
            Setting.L1, Counterfactual(Setting.R1, R1M)
        )


class TestAliases:
    def test_box_arrow(self):
        assert parse("R1 □-> R1-") == parse("R1 []-> R1-")

    def test_double_arrow(self):
        assert parse("L2 ⇒ R2") == parse("L2 => R2")


class TestStructuralRules:
    def test_counterfactual_antecedent_must_be_choice(self):
        with pytest.raises(CounterfactualAntecedentError):
            parse("R1- []-> L2")
        with pytest.raises(CounterfactualAntecedentError):
            parse("(L1 & L2) []-> R1")
        with pytest.raises(CounterfactualAntecedentError):
            parse("~L1 []-> R1")

    def test_entailment_root_only(self):
        with pytest.raises(EntailmentNestingError):
            parse("(L1 => L2) & R1")
        with pytest.raises(EntailmentNestingError):
            parse("L1 -> (L2 => R1)")
        with pytest.raises(EntailmentNestingError):
            parse("L1 => L2 => R1")
        with pytest.raises(EntailmentNestingError):
            parse("L1 []-> (L2 => R1)")

    @pytest.mark.parametrize(
        "build, text",
        [
            (
                lambda: Entails(Or(L1, Or(L2, Entails(R1, R1))), R1),
                "(L1 | (L2 | (R1 => R1))) => R1",
            ),
            (
                lambda: Entails(L1, Implies(L2, Entails(R1, R1))),
                "L1 => (L2 -> (R1 => R1))",
            ),
        ],
    )
    def test_hand_built_entailment_rejects_nested_entailment(self, build, text):
        # a hand-built formula fails as its text fails to parse, with the same
        # message, rather than being evaluated with "=>" inside a world
        with pytest.raises(EntailmentNestingError) as built:
            build()
        with pytest.raises(EntailmentNestingError) as parsed:
            parse(text)
        assert str(built.value) == str(parsed.value)
        assert "of '=>' must not contain '=>'" in str(built.value)

    def test_entailment_at_root_is_fine(self):
        formula = parse("L1 & L2 => R1 | R2")
        assert formula == Entails(And(L1, L2), Or(R1, R2))


class TestSyntaxErrors:
    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse("")
        assert info.value.position == 0

    def test_blank_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse("   ")

    def test_unknown_character(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse("L1 @ L2")
        assert info.value.position == 3

    def test_unknown_atom(self):
        with pytest.raises(FormulaSyntaxError):
            parse("L3")

    def test_unbalanced_parens(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(L1 & L2")
        with pytest.raises(FormulaSyntaxError):
            parse("L1 & L2)")

    def test_dangling_operator(self):
        with pytest.raises(FormulaSyntaxError):
            parse("L1 &")
        with pytest.raises(FormulaSyntaxError):
            parse("& L1")

    def test_lone_bracket(self):
        with pytest.raises(FormulaSyntaxError):
            parse("L1 [ R2")


class TestWhitespace:
    def test_spacing_is_free_between_tokens(self):
        dense = parse("L2=>(R2&R2+)->(R1[]->R1-)")
        airy = parse("  L2  =>  ( R2 & R2+ )  ->  ( R1  []->  R1- )  ")
        assert dense == airy

    def test_tokenizer_positions(self):
        tokens = tokenize("L2 => R1")
        assert [t.kind for t in tokens] == ["ATOM", "ENTAILS", "ATOM", "EOF"]
        assert [t.position for t in tokens] == [0, 3, 6, 8]


class TestPrettyPrint:
    def test_statement_renderings(self):
        cases = {
            "L2 => ((R2 & R2+) -> (R1 []-> R1-))":
                "(L2 => ((R2 & R2+) -> (R1 []-> R1-)))",
            "(L2 & R2 & L2+) => (R1 []-> L2+)":
                "((L2 & (R2 & L2+)) => (R1 []-> L2+))",
            "~L1 & R2 -> R2+": "(((~L1) & R2) -> R2+)",
        }
        for text, rendered in cases.items():
            assert pretty_print(parse(text)) == rendered

    def test_atoms_are_bare(self):
        assert pretty_print(L1) == "L1"
        assert pretty_print(R2P) == "R2+"

    def test_round_trip_seeded_sample(self):
        rng = random.Random(7)
        for _ in range(300):
            formula = random_formula(rng, depth=5, allow_entails=True)
            assert parse(pretty_print(formula)) == formula


def _formula_strategy():
    settings_list = list(Setting)
    atoms = st.one_of(
        st.sampled_from(settings_list).map(SettingAtom),
        st.tuples(
            st.sampled_from(settings_list), st.sampled_from(list(Outcome))
        ).map(lambda pair: OutcomeAtom(*pair)),
    )

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda p: And(*p)),
            st.tuples(children, children).map(lambda p: Or(*p)),
            st.tuples(children, children).map(lambda p: Implies(*p)),
            st.tuples(st.sampled_from(settings_list), children).map(
                lambda p: Counterfactual(*p)
            ),
        )

    return st.recursive(atoms, extend, max_leaves=25)


@given(_formula_strategy())
@settings(max_examples=300, deadline=None)
def test_round_trip_property(formula):
    assert parse(pretty_print(formula)) == formula


@given(_formula_strategy(), _formula_strategy())
@settings(max_examples=100, deadline=None)
def test_round_trip_entailment_property(antecedent, consequent):
    formula = Entails(antecedent, consequent)
    assert parse(pretty_print(formula)) == formula


def test_subformulas_enumerates_everything():
    formula = parse("L2 => ((R2 & R2+) -> (R1 []-> R1-))")
    parts = list(subformulas(formula))
    assert formula in parts
    assert SettingAtom(Setting.R2) in parts
    assert Counterfactual(Setting.R1, R1M) in parts
    assert contains_entails(formula)
    assert not contains_entails(parse("L1 & L2"))
