"""Formula language for statements about the experiment.

Grammar (operators by descending precedence, all binary operators
right-associative):

    atom      ::= "L1" | "L2" | "R1" | "R2"            experiment choice
                | atom immediately followed by "+"/"-"  choice plus outcome
    unary     ::= "~" unary | "(" formula ")" | atom
    conj      ::= unary ("&" conj)?
    disj      ::= conj ("|" disj)?
    counter   ::= disj ("[]->" counter)?                would-counterfactual
    implic    ::= counter ("->" implic)?                material conditional
    formula   ::= implic ("=>" formula)?                model-level entailment

"□->" and "⇒" are accepted as aliases for "[]->" and "=>".  An outcome atom
such as "R2+" asserts both that the choice R2 is performed and that its
outcome is plus.  The left side of "[]->" must be a bare choice atom, and
"=>" may only appear at the root of a formula; violations raise
CounterfactualAntecedentError and EntailmentNestingError.  ``pretty_print``
emits the canonical fully parenthesized form, and ``parse`` inverts it.
"""

from __future__ import annotations

import re
from typing import Iterator, Union

from .errors import (
    CounterfactualAntecedentError,
    EntailmentNestingError,
    FormulaSyntaxError,
)
from .labels import Outcome, Setting
from .records import Record


class SettingAtom(Record):
    """The named experiment choice is the one performed in its region."""

    setting: Setting


class OutcomeAtom(Record):
    """The named choice is performed and its region shows this outcome."""

    setting: Setting
    outcome: Outcome


class Not(Record):
    operand: "Formula"


class And(Record):
    left: "Formula"
    right: "Formula"


class Or(Record):
    left: "Formula"
    right: "Formula"


class Implies(Record):
    left: "Formula"
    right: "Formula"


class Counterfactual(Record):
    """Had ``antecedent`` been the choice, ``consequent`` would hold."""

    antecedent: Setting
    consequent: "Formula"


class Entails(Record):
    """Model-level claim: every world satisfying the antecedent satisfies
    the consequent."""

    antecedent: "Formula"
    consequent: "Formula"


Formula = Union[
    SettingAtom, OutcomeAtom, Not, And, Or, Implies, Counterfactual, Entails
]


class Token(Record):
    kind: str
    text: str
    position: int


_ATOM_RE = re.compile(r"[LR][12][+-]?")
_FIXED_TOKENS = (
    ("[]->", "CF"),
    ("□->", "CF"),
    ("->", "IMPLIES"),
    ("=>", "ENTAILS"),
    ("⇒", "ENTAILS"),
    ("~", "NOT"),
    ("&", "AND"),
    ("|", "OR"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        match = _ATOM_RE.match(text, i)
        if match:
            tokens.append(Token("ATOM", match.group(), i))
            i = match.end()
            continue
        for literal, kind in _FIXED_TOKENS:
            if text.startswith(literal, i):
                tokens.append(Token(kind, literal, i))
                i += len(literal)
                break
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind: str, what: str) -> Token:
        if self.current.kind != kind:
            raise FormulaSyntaxError(
                f"expected {what}, found {self.current.text or 'end of input'!r}",
                self.current.position,
            )
        return self.advance()

    def parse(self) -> Formula:
        formula = self.entails()
        if self.current.kind != "EOF":
            raise FormulaSyntaxError(
                f"unexpected trailing input {self.current.text!r}",
                self.current.position,
            )
        return formula

    def entails(self) -> Formula:
        lhs = self.implic()
        if self.current.kind == "ENTAILS":
            self.advance()
            return Entails(lhs, self.entails())
        return lhs

    def implic(self) -> Formula:
        lhs = self.counter()
        if self.current.kind == "IMPLIES":
            self.advance()
            return Implies(lhs, self.implic())
        return lhs

    def counter(self) -> Formula:
        lhs = self.disj()
        if self.current.kind == "CF":
            token = self.advance()
            if not isinstance(lhs, SettingAtom):
                raise CounterfactualAntecedentError(
                    "counterfactual antecedent must be an experiment choice "
                    f"(at position {token.position})"
                )
            return Counterfactual(lhs.setting, self.counter())
        return lhs

    def disj(self) -> Formula:
        lhs = self.conj()
        if self.current.kind == "OR":
            self.advance()
            return Or(lhs, self.disj())
        return lhs

    def conj(self) -> Formula:
        lhs = self.unary()
        if self.current.kind == "AND":
            self.advance()
            return And(lhs, self.conj())
        return lhs

    def unary(self) -> Formula:
        token = self.current
        if token.kind == "NOT":
            self.advance()
            return Not(self.unary())
        if token.kind == "LPAREN":
            self.advance()
            inner = self.entails()
            self.expect("RPAREN", "')'")
            return inner
        if token.kind == "ATOM":
            self.advance()
            setting = Setting.from_name(token.text[:2])
            if len(token.text) == 3:
                return OutcomeAtom(setting, Outcome.from_symbol(token.text[2]))
            return SettingAtom(setting)
        raise FormulaSyntaxError(
            f"expected a formula, found {token.text or 'end of input'!r}",
            token.position,
        )


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Yield ``formula`` and every formula nested inside it."""
    yield formula
    if isinstance(formula, Not):
        yield from subformulas(formula.operand)
    elif isinstance(formula, (And, Or, Implies)):
        yield from subformulas(formula.left)
        yield from subformulas(formula.right)
    elif isinstance(formula, Counterfactual):
        yield from subformulas(formula.consequent)
    elif isinstance(formula, Entails):
        yield from subformulas(formula.antecedent)
        yield from subformulas(formula.consequent)


def contains_entails(formula: Formula) -> bool:
    return any(isinstance(f, Entails) for f in subformulas(formula))


def require_entails_free(formula: Formula, what: str) -> None:
    if contains_entails(formula):
        raise EntailmentNestingError(f"{what} must not contain '=>'")


def _check_structure(formula: Formula) -> Formula:
    if isinstance(formula, Entails):
        require_entails_free(formula.antecedent, "the antecedent of '=>'")
        require_entails_free(formula.consequent, "the consequent of '=>'")
    elif contains_entails(formula):
        raise EntailmentNestingError("'=>' may only appear at the root of a formula")
    return formula


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula, enforcing the structural rules."""
    return _check_structure(_Parser(tokenize(text)).parse())


def pretty_print(formula: Formula) -> str:
    """Canonical fully parenthesized rendering; ``parse`` inverts it."""
    if isinstance(formula, SettingAtom):
        return formula.setting.name
    if isinstance(formula, OutcomeAtom):
        return f"{formula.setting.name}{formula.outcome.value}"
    if isinstance(formula, Not):
        return f"(~{pretty_print(formula.operand)})"
    if isinstance(formula, And):
        return f"({pretty_print(formula.left)} & {pretty_print(formula.right)})"
    if isinstance(formula, Or):
        return f"({pretty_print(formula.left)} | {pretty_print(formula.right)})"
    if isinstance(formula, Implies):
        return f"({pretty_print(formula.left)} -> {pretty_print(formula.right)})"
    if isinstance(formula, Counterfactual):
        return (
            f"({formula.antecedent.name} []-> {pretty_print(formula.consequent)})"
        )
    if isinstance(formula, Entails):
        return (
            f"({pretty_print(formula.antecedent)} => "
            f"{pretty_print(formula.consequent)})"
        )
    raise TypeError(f"not a formula: {formula!r}")
