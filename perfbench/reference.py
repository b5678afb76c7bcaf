"""Independent reference for every output the benchmark checks.

Nothing here imports ``hardyworlds``.  The reference re-derives each result
from the documented rules in plain Python, with its own data types:

* a setting is one of the strings ``L1 L2 R1 R2`` and an outcome ``+``/``-``;
* a world is the tuple ``(left setting, right setting, left outcome,
  right outcome)``, and tuple order is the package's world order;
* a formula is a nested tuple: ``("S", "L1")``, ``("O", "R2", "+")``,
  ``("not", f)``, ``("and", f, g)``, ``("or", f, g)``, ``("imp", f, g)``,
  ``("cf", "R1", f)`` and ``("ent", f, g)``.

Probabilities come from the literal four-term Born sum, accessibility from a
filter over the rules, and truth from a per-world recursion.  Evaluation
short-circuits left to right like the package, so vacuous counterfactuals
are flagged exactly where the package reaches them; a counterfactual inside
another counterfactual's consequent is never flagged.
"""

from __future__ import annotations

import math
from itertools import product

EPSILON = 1e-9
HARDY_MAX = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
SETTINGS = ("L1", "L2", "R1", "R2")
OUTCOMES = ("+", "-")
LEFT_SETTINGS = ("L1", "L2")
RIGHT_SETTINGS = ("R1", "R2")
FRAMES = ("l-first", "r-first")
LOCALITIES = ("loc1", "lightcone")
CELLS = tuple(product(LEFT_SETTINGS, RIGHT_SETTINGS, OUTCOMES, OUTCOMES))


# ---------------------------------------------------------------- quantum

def born(amplitudes, left_vector, right_vector) -> float:
    """|<lv (x) rv | psi>|^2 as a literal four-term sum."""
    total = 0j
    for lb in (0, 1):
        for rb in (0, 1):
            total += (
                left_vector[lb].conjugate()
                * right_vector[rb].conjugate()
                * amplitudes[2 * lb + rb]
            )
    return abs(total) ** 2


def family(x: float):
    """Amplitudes and bases of Hardy family member ``x``, from its definition.

    State (sqrt(1-2x), sqrt(x), sqrt(x), 0); L2 and R1 measure in the
    computational basis with plus = |1>; L1 and R2 use the tilted basis
    plus = (sqrt(x), -sqrt(1-2x)) / sqrt(1-x).
    """
    a, b, s = math.sqrt(1.0 - 2.0 * x), math.sqrt(x), math.sqrt(1.0 - x)
    computational = {"+": (0j, 1 + 0j), "-": (1 + 0j, 0j)}
    tilted = {"+": (complex(b / s), complex(-a / s)), "-": (complex(a / s), complex(b / s))}
    amplitudes = (complex(a), complex(b), complex(b), 0j)
    return amplitudes, {"L1": tilted, "L2": computational, "R1": computational, "R2": tilted}


def family_h4(x: float) -> float:
    return (1.0 - 2.0 * x) * x * x / ((1.0 - x) * (1.0 - x))


def from_document(document):
    """Amplitudes and bases of a model document (nested form)."""
    def c(pair):
        return complex(pair[0], pair[1])

    amplitudes = tuple(c(p) for p in document["amplitudes"])
    bases = {}
    for side, letter in (("left", "L"), ("right", "R")):
        for index in (1, 2):
            plus_row, minus_row = document[side][f"basis{index}"]
            bases[f"{letter}{index}"] = {
                "+": tuple(c(p) for p in plus_row),
                "-": tuple(c(p) for p in minus_row),
            }
    return amplitudes, bases


def table(amplitudes, bases) -> dict:
    """All 16 joint probabilities, keyed by world tuple."""
    return {
        (ls, rs, lo, ro): born(amplitudes, bases[ls][lo], bases[rs][ro])
        for ls, rs, lo, ro in CELLS
    }


def uniform_table() -> dict:
    return {cell: 0.25 for cell in CELLS}


def signalling_table() -> dict:
    """Uniform, except that L1 with R1 always gives (+, +).

    The left marginal then depends on the right choice, so some
    counterfactuals have no accessible world and come out vacuous.
    """
    cells = uniform_table()
    for lo, ro in product(OUTCOMES, OUTCOMES):
        cells[("L1", "R1", lo, ro)] = 1.0 if (lo, ro) == ("+", "+") else 0.0
    return cells


# ----------------------------------------------------------------- worlds

class Model:
    """Possible worlds of a table in one frame, with accessibility memoised."""

    def __init__(self, probabilities: dict, frame: str, epsilon: float = EPSILON):
        self.probabilities = probabilities
        self.frame = frame
        self.worlds = sorted(w for w, p in probabilities.items() if p > epsilon)
        for ls in LEFT_SETTINGS:
            for rs in RIGHT_SETTINGS:
                if not any(w[0] == ls and w[1] == rs for w in self.worlds):
                    raise ValueError(f"no possible world for ({ls}, {rs})")
        self._acc: dict = {}

    def accessible(self, world, target: str, locality: str) -> tuple:
        key = (world, target, locality)
        if key not in self._acc:
            self._acc[key] = self._accessible(world, target, locality)
        return self._acc[key]

    def _accessible(self, world, target, locality):
        ls, rs, lo, ro = world
        if target in (ls, rs):
            return (world,)
        if target[0] == "L":
            far_earlier = self.frame == "r-first"
            keep = [w for w in self.worlds if w[0] == target and w[1] == rs]
            protect = [w for w in keep if w[3] == ro]
        else:
            far_earlier = self.frame == "l-first"
            keep = [w for w in self.worlds if w[1] == target and w[0] == ls]
            protect = [w for w in keep if w[2] == lo]
        if locality == "lightcone" or far_earlier:
            return tuple(protect)
        return tuple(keep)


# -------------------------------------------------------------- semantics

def holds_at(model: Model, world, formula, locality: str, flags) -> bool:
    op = formula[0]
    if op == "S":
        return formula[1] in (world[0], world[1])
    if op == "O":
        if formula[1][0] == "L":
            return world[0] == formula[1] and world[2] == formula[2]
        return world[1] == formula[1] and world[3] == formula[2]
    if op == "not":
        return not holds_at(model, world, formula[1], locality, flags)
    if op == "and":
        return holds_at(model, world, formula[1], locality, flags) and holds_at(
            model, world, formula[2], locality, flags
        )
    if op == "or":
        return holds_at(model, world, formula[1], locality, flags) or holds_at(
            model, world, formula[2], locality, flags
        )
    if op == "imp":
        return not holds_at(model, world, formula[1], locality, flags) or holds_at(
            model, world, formula[2], locality, flags
        )
    if op == "cf":
        reachable = model.accessible(world, formula[1], locality)
        if not reachable:
            if flags is not None:
                flags.append((world, formula))
            return False
        return all(holds_at(model, w, formula[2], locality, None) for w in reachable)
    raise ValueError(f"cannot evaluate {op!r} inside a world")


def check(model: Model, formula, locality: str):
    """(holds, witnesses, vacuous flags) of a formula over the whole model."""
    if formula[0] == "ent":
        antecedent, consequent = formula[1], formula[2]
    else:
        antecedent, consequent = None, formula
    witnesses, flags = [], []
    for world in model.worlds:
        if antecedent is not None and not holds_at(model, world, antecedent, locality, flags):
            continue
        if not holds_at(model, world, consequent, locality, flags):
            witnesses.append(world)
    return (not witnesses, tuple(witnesses), tuple(flags))


# ---------------------------------------------------------------- formulas

def render(formula) -> str:
    """Canonical fully parenthesized text, the package's printed form."""
    op = formula[0]
    if op == "S":
        return formula[1]
    if op == "O":
        return formula[1] + formula[2]
    if op == "not":
        return f"(~{render(formula[1])})"
    if op == "cf":
        return f"({formula[1]} []-> {render(formula[2])})"
    symbol = {"and": "&", "or": "|", "imp": "->", "ent": "=>"}[op]
    return f"({render(formula[1])} {symbol} {render(formula[2])})"


_LEVEL = {"ent": 0, "imp": 1, "cf": 2, "or": 3, "and": 4, "not": 5, "S": 6, "O": 6}


def render_minimal(formula, rng) -> str:
    """Text with only the parentheses precedence needs, random spacing and
    random use of the aliases for ``[]->`` and ``=>``."""
    op = formula[0]
    if op in ("S", "O"):
        return render(formula)
    if op == "not":
        return "~" + _child(formula[1], 5, rng)
    gap = " " if rng.random() < 0.7 else ""
    if op == "cf":
        arrow = "□->" if rng.random() < 0.2 else "[]->"
        return f"{formula[1]}{gap}{arrow}{gap}{_child(formula[2], 2, rng)}"
    level = _LEVEL[op]
    symbol = {"and": "&", "or": "|", "imp": "->", "ent": "=>"}[op]
    if op == "ent" and rng.random() < 0.2:
        symbol = "⇒"
    left = _child(formula[1], level + 1, rng)
    right = _child(formula[2], level, rng)
    # "R1->" would read as the atom "R1-" followed by ">"
    left_gap = " " if op == "imp" else gap
    return f"{left}{left_gap}{symbol}{gap}{right}"


def _child(formula, minimum_level, rng) -> str:
    text = render_minimal(formula, rng)
    if _LEVEL[formula[0]] < minimum_level:
        return f"({text})"
    return text


def _atom(text: str):
    return ("S", text) if len(text) == 2 else ("O", text[:2], text[2])


SR = ("imp", ("and", _atom("R2"), _atom("R2+")), ("cf", "R1", _atom("R1-")))
CATALOG = {
    "stmt1": ("ent", _atom("L2"), SR),
    "stmt2": ("ent", _atom("L1"), SR),
    "stmt3": (
        "ent",
        ("and", _atom("L2"), ("and", _atom("R2"), _atom("L2+"))),
        ("cf", "R1", _atom("L2+")),
    ),
}
DIVERGENCE = ("cf", "L1", _atom("R1-"))
PIVOT = ("L2", "R1", "+", "-")


# --------------------------------------------------------------- analyses

def suite(model: Model, locality: str) -> dict:
    return {name: check(model, f, locality) for name, f in CATALOG.items()}


def flow(model: Model, locality: str) -> dict:
    on_l2 = check(model, ("ent", _atom("L2"), SR), locality)
    on_l1 = check(model, ("ent", _atom("L1"), SR), locality)
    dependent = on_l2[0] != on_l1[0]
    witness = None
    if dependent:
        failing = on_l1 if not on_l1[0] else on_l2
        witness = failing[1][0] if failing[1] else None
    return {
        "f_of_L2": on_l2[0],
        "f_of_L1": on_l1[0],
        "dependent": dependent,
        "witness": witness,
        "reports": {"f_of_L2": on_l2, "f_of_L1": on_l1},
    }


def frames(probabilities: dict, epsilon: float = EPSILON) -> dict:
    model_l = Model(probabilities, "l-first", epsilon)
    model_r = Model(probabilities, "r-first", epsilon)
    suites = {
        "loc1-l-first": suite(model_l, "loc1"),
        "loc1-r-first": suite(model_r, "loc1"),
        "lightcone": suite(model_l, "lightcone"),
    }
    divergence = None
    if PIVOT in model_l.worlds:
        divergence = (
            PIVOT,
            {
                "loc1-l-first": holds_at(model_l, PIVOT, DIVERGENCE, "loc1", None),
                "lightcone": holds_at(model_l, PIVOT, DIVERGENCE, "lightcone", None),
            },
        )
    return {
        "suites": suites,
        "divergence": divergence,
        "stmt1_frame_dependent": suites["loc1-l-first"]["stmt1"][0]
        != suites["loc1-r-first"]["stmt1"][0],
    }


def lhv(probabilities: dict, epsilon: float = EPSILON) -> dict:
    """Which of the 16 deterministic strategies survive the zero cells, and
    whether the survivors still cover every positive cell.

    A strategy is the tuple of outcomes it assigns to L1, L2, R1, R2.
    """
    def produces(strategy, cell):
        ls, rs, lo, ro = cell
        return strategy[LEFT_SETTINGS.index(ls)] == lo and strategy[
            2 + RIGHT_SETTINGS.index(rs)
        ] == ro

    zero = [c for c, p in probabilities.items() if p <= epsilon]
    positive = [c for c, p in probabilities.items() if p > epsilon]
    strategies = list(product(OUTCOMES, repeat=4))
    excluded = [s for s in strategies if any(produces(s, c) for c in zero)]
    survivors = [s for s in strategies if s not in excluded]
    feasible = all(any(produces(s, c) for s in survivors) for c in positive)
    return {"feasible": feasible, "excluded": excluded, "survivors": survivors}
