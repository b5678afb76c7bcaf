"""In-process ops of check-formulas and family-sweep, and their checks.

Package functions are looked up on their modules at call time
(``quantum.probability_table``, not a name bound at import), so the traced
run's wrappers on those module attributes see every call.
"""

from __future__ import annotations

import reference as ref
from hardyworlds import analysis, formulas, labels, modelio, quantum, semantics, worlds
from inputs import Source

EPSILON = ref.EPSILON
FRAME = {
    "l-first": labels.FrameOrdering.LEFT_BEFORE_RIGHT,
    "r-first": labels.FrameOrdering.RIGHT_BEFORE_LEFT,
}
LOCALITY = {
    "loc1": semantics.LocalityCondition.LOC1,
    "lightcone": semantics.LocalityCondition.LIGHT_CONE,
}
SCAN_TOL = 1e-9
TABLE_TOL = 1e-12


# --------------------------------------------------------- package calls

def build_table(source: Source):
    if source.kind in ("uniform", "signalling"):
        return quantum.JointProbabilityTable(
            {
                (labels.Setting[ls], labels.Setting[rs], labels.Outcome(lo), labels.Outcome(ro)): p
                for (ls, rs, lo, ro), p in source.probabilities().items()
            }
        )
    if source.kind == "canonical":
        state, config = quantum.canonical_hardy_model()
    elif source.kind == "family":
        state, config = quantum.hardy_family(source.x)
    else:
        state, config = modelio.parse_model(source.document)
    return quantum.probability_table(state, config)


def build_models(pairs: list) -> list:
    """One world model per (source, frame) pair; a source's table is built
    once and shared by its frames."""
    tables, models = {}, []
    for source, frame in pairs:
        if source.label not in tables:
            tables[source.label] = build_table(source)
        models.append(worlds.enumerate_worlds(tables[source.label], EPSILON, FRAME[frame]))
    return models


def formula_op(text: str, model, locality: str):
    formula = formulas.parse(text)
    return formula, semantics.eval_model(model, formula, LOCALITY[locality])


def sweep_op(source: Source, frame: str, locality: str) -> tuple:
    table = build_table(source)
    model = worlds.enumerate_worlds(table, EPSILON, FRAME[frame])
    return (
        table,
        model,
        analysis.theorem_suite(model, LOCALITY[locality]),
        analysis.information_flow(model, LOCALITY[locality]),
        analysis.frame_comparison(table, EPSILON),
        analysis.lhv_feasibility(table, EPSILON),
    )


def scan_op():
    return quantum.hardy_scan()


CANONICAL = Source("canonical", label="canonical")


def headline_op() -> tuple:
    """The paper's analyses on the canonical model, l-first, under LOC1."""
    return sweep_op(CANONICAL, "l-first", "loc1")


# ------------------------------------------------- package -> reference

def world_key(world) -> tuple:
    return (
        world.left_setting.name,
        world.right_setting.name,
        world.left_outcome.value,
        world.right_outcome.value,
    )


_BINARY = {"And": "and", "Or": "or", "Implies": "imp"}


def formula_tree(f) -> tuple:
    kind = type(f).__name__
    if kind == "SettingAtom":
        return ("S", f.setting.name)
    if kind == "OutcomeAtom":
        return ("O", f.setting.name, f.outcome.value)
    if kind == "Not":
        return ("not", formula_tree(f.operand))
    if kind == "Counterfactual":
        return ("cf", f.antecedent.name, formula_tree(f.consequent))
    if kind == "Entails":
        return ("ent", formula_tree(f.antecedent), formula_tree(f.consequent))
    return (_BINARY[kind], formula_tree(f.left), formula_tree(f.right))


def report_tuple(report) -> tuple:
    return (
        report.holds,
        tuple(world_key(w) for w in report.witnesses),
        tuple((world_key(g.world), formula_tree(g.counterfactual)) for g in report.vacuous_flags),
    )


def strategy_key(strategy) -> tuple:
    return (strategy.on_l1.value, strategy.on_l2.value, strategy.on_r1.value, strategy.on_r2.value)


# ----------------------------------------------------------------- checks
# Each check takes an op's result, which is the exception when the op raised.

def formula_mismatches(result, tree, ref_model, locality) -> list[str]:
    if isinstance(result, Exception):
        return [repr(result)]
    formula, report = result
    problems = []
    if formula_tree(formula) != tree:
        problems.append(f"parsed {formula_tree(formula)} != {tree}")
    want = ref.check(ref_model, tree, locality)
    if report_tuple(report) != want:
        problems.append(f"report {report_tuple(report)} != {want}")
    return problems


def sweep_expected(source: Source, frame: str, locality: str) -> dict:
    probabilities = source.probabilities()
    model = ref.Model(probabilities, frame)
    flow = ref.flow(model, locality)
    frames = ref.frames(probabilities)
    lhv = ref.lhv(probabilities)
    return {
        "table": probabilities,
        "worlds": model.worlds,
        "suite": ref.suite(model, locality),
        "flow": {
            "f_of_L2": flow["f_of_L2"],
            "f_of_L1": flow["f_of_L1"],
            "dependent": flow["dependent"],
            "witness": flow["witness"],
            "reports": flow["reports"],
        },
        "frames": frames,
        "lhv": {
            "feasible": lhv["feasible"],
            "excluded": sorted(lhv["excluded"]),
            "survivors": sorted(lhv["survivors"]),
        },
    }


def sweep_observed(result: tuple) -> dict:
    table, model, suite, flow, comparison, lhv = result
    divergence = comparison.divergence
    return {
        "table": {world_key_of_cell(k): p for k, p in table.entries.items()},
        "worlds": sorted(world_key(w) for w in model.worlds),
        "suite": {name: report_tuple(r) for name, r in suite.statements.items()},
        "flow": {
            "f_of_L2": flow.f_of_L2,
            "f_of_L1": flow.f_of_L1,
            "dependent": flow.dependent,
            "witness": world_key(flow.witness) if flow.witness else None,
            "reports": {name: report_tuple(r) for name, r in flow.reports.items()},
        },
        "frames": {
            "suites": {
                key: {name: report_tuple(r) for name, r in s.statements.items()}
                for key, s in comparison.suites.items()
            },
            "divergence": (
                (world_key(divergence.world), dict(divergence.results)) if divergence else None
            ),
            "stmt1_frame_dependent": comparison.stmt1_frame_dependent,
        },
        "lhv": {
            "feasible": lhv.feasible,
            "excluded": sorted(strategy_key(s) for s, _ in lhv.excluded_strategies),
            "survivors": sorted(strategy_key(s) for s in lhv.surviving_strategies),
        },
    }


def world_key_of_cell(cell) -> tuple:
    ls, rs, lo, ro = cell
    return (ls.name, rs.name, lo.value, ro.value)


def sweep_mismatches(result, want: dict) -> list[str]:
    if isinstance(result, Exception):
        return [repr(result)]
    got = sweep_observed(result)
    problems = []
    if set(got["table"]) != set(want["table"]) or any(
        abs(p - want["table"][k]) > TABLE_TOL for k, p in got["table"].items()
    ):
        problems.append("probability table differs")
    for key in ("worlds", "suite", "flow", "frames", "lhv"):
        if got[key] != want[key]:
            problems.append(f"{key}: {got[key]} != {want[key]}")
    return problems


def headline_mismatches(result) -> list[str]:
    return sweep_mismatches(result, sweep_expected(CANONICAL, "l-first", "loc1"))


def scan_mismatches(result) -> list[str]:
    if isinstance(result, Exception):
        return [repr(result)]
    x_best, p_best = result
    problems = []
    if abs(p_best - ref.HARDY_MAX) > SCAN_TOL:
        problems.append(f"p_best {p_best!r} is not within {SCAN_TOL} of {ref.HARDY_MAX!r}")
    if abs(ref.family_h4(x_best) - p_best) > SCAN_TOL:
        problems.append(f"x_best {x_best!r} does not give p_best")
    return problems
