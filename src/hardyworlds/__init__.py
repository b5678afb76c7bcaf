"""Possible-world and counterfactual analysis of Hardy-type two-qubit
experiments.

The package builds two-region, two-setting, two-outcome quantum experiments
whose statistics contain exact zeros, enumerates the possible worlds those
statistics admit, and model-checks counterfactual statements about changed
experiment choices under configurable locality policies.

``import hardyworlds`` is cheap: it imports none of the submodules.  Each
public name or submodule attribute loads its submodule on first use (a PEP
562 module ``__getattr__``), so a program pays only for the layers it uses.
"""

__version__ = "0.1.0"

# Each submodule and the public names the package takes from it.
_EXPORTS = {
    "analysis": (
        "ComparisonReport", "DeterministicStrategy", "DivergenceExample",
        "FeasibilityReport", "FlowReport", "FormulaCatalog", "SuiteReport",
        "catalog", "frame_comparison", "information_flow", "lhv_feasibility",
        "theorem_suite",
    ),
    "errors": (
        "CounterfactualAntecedentError", "DomainError", "EntailmentNestingError",
        "FormulaError", "FormulaSyntaxError", "HardyWorldsError",
        "InconsistentModelError", "InvalidModelError", "UnknownWorldError",
    ),
    "formulas": (
        "And", "Counterfactual", "Entails", "Formula", "Implies", "Not", "Or",
        "OutcomeAtom", "SettingAtom", "parse", "pretty_print",
    ),
    "labels": ("FrameOrdering", "Outcome", "Region", "Setting"),
    "modelio": ("dump_model", "load_model", "parse_model", "save_model"),
    "quantum": (
        "BipartiteState", "ExperimentConfig", "HardyConstraintReport",
        "JointProbabilityTable", "MeasurementBasis", "canonical_hardy_model",
        "hardy_family", "hardy_scan", "joint_probability", "probability_table",
        "verify_hardy_constraints",
    ),
    "records": (),
    "semantics": (
        "AccessibleSet", "CounterfactualTruth", "LocalityCondition", "TruthReport",
        "VacuousFlag", "accessible_worlds", "eval_counterfactual", "eval_model",
        "eval_world", "worlds_satisfying",
    ),
    "worlds": ("World", "WorldModel", "enumerate_worlds"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing binds the submodule on the package; -X importtime sees __import__
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORIGIN) | set(_EXPORTS))
