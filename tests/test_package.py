"""The package namespace loads each submodule on first use, and still
offers every public name, every submodule attribute and the attributes the
benchmark's tracer wraps."""

import ast
import importlib
import inspect
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hardyworlds
from hardyworlds.modelio import dump_model
from hardyworlds.quantum import canonical_hardy_model

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter on this checkout's src."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Where each public name is defined, written out apart from the package's
# own table so that the two check each other.
PUBLIC_NAMES = {
    "analysis": "ComparisonReport DeterministicStrategy DivergenceExample "
    "FeasibilityReport FlowReport FormulaCatalog SuiteReport catalog "
    "frame_comparison information_flow lhv_feasibility theorem_suite",
    "errors": "CounterfactualAntecedentError DomainError EntailmentNestingError "
    "FormulaError FormulaSyntaxError HardyWorldsError InconsistentModelError "
    "InvalidModelError UnknownWorldError",
    "formulas": "And Counterfactual Entails Formula Implies Not Or OutcomeAtom "
    "SettingAtom parse pretty_print",
    "labels": "FrameOrdering Outcome Region Setting",
    "modelio": "dump_model load_model parse_model save_model",
    "quantum": "BipartiteState ExperimentConfig HardyConstraintReport "
    "JointProbabilityTable MeasurementBasis canonical_hardy_model hardy_family "
    "hardy_scan joint_probability probability_table verify_hardy_constraints",
    "semantics": "AccessibleSet CounterfactualTruth LocalityCondition TruthReport "
    "VacuousFlag accessible_worlds eval_counterfactual eval_model eval_world "
    "worlds_satisfying",
    "worlds": "World WorldModel enumerate_worlds",
}
SUBMODULES = (*PUBLIC_NAMES, "records")


def test_every_public_name_is_its_submodules_object():
    origin = {n: m for m, names in PUBLIC_NAMES.items() for n in names.split()}
    assert len(origin) == 64
    assert sorted(hardyworlds.__all__) == sorted(origin)
    for name, module in origin.items():
        submodule = importlib.import_module(f"hardyworlds.{module}")
        assert getattr(hardyworlds, name) is getattr(submodule, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hardyworlds import *", namespace)
    assert set(hardyworlds.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(hardyworlds, name) for name in hardyworlds.__all__)


def test_submodules_resolve_as_attributes():
    for name in SUBMODULES:
        assert getattr(hardyworlds, name) is sys.modules[f"hardyworlds.{name}"]
    assert callable(hardyworlds.modelio.save_model)


def test_dir_lists_the_public_names_and_submodules():
    listing = dir(hardyworlds)
    assert "__all__" in listing and "__version__" in listing
    assert set(hardyworlds.__all__) | set(SUBMODULES) <= set(listing)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'hardyworlds' has no attribute 'nope'"):
        hardyworlds.nope
    assert not hasattr(hardyworlds, "_nope")


def test_version():
    assert hardyworlds.__version__ == "0.1.0"


def test_names_and_submodules_load_on_first_use_in_a_fresh_process():
    out = run_fresh(
        "import sys, hardyworlds\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('hardyworlds.'))\n"
        "print(loaded())\n"
        "hardyworlds.Setting\n"
        "print(loaded())\n"
        "hardyworlds.modelio.save_model\n"
        "print('hardyworlds.modelio' in loaded())\n"
    )
    assert out.splitlines() == ["[]", "['hardyworlds.labels']", "True"]


def test_tracer_targets_resolve_after_the_cli_childs_imports():
    # perfbench/tracing.py wraps (module, attribute) pairs by getattr; import
    # the package as perfbench/cli_child.py does, then resolve every pair.
    # The tracer is imported without writing bytecode next to it.
    out = run_fresh(
        "import sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from tracing import TARGETS\n"
        "import hardyworlds.cli\n"
        "from hardyworlds import analysis, formulas, modelio, quantum, semantics, worlds\n"
        "unresolved = [(m, a) for m, a, _ in TARGETS\n"
        "              if not callable(getattr(getattr(hardyworlds, m), a, None))]\n"
        "print(len(TARGETS), unresolved)\n"
    )
    count, unresolved = out.split(" ", 1)
    assert int(count) > 0
    assert unresolved.strip() == "[]"


def test_importtime_reports_the_lazily_loaded_layers(tmp_path):
    # the CLI loads a command's module, the layers it calls and modelio on
    # demand, each by an import that -X importtime sees (the benchmark's
    # import.hardyworlds_ms reads that report)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dump_model(*canonical_hardy_model())), encoding="utf-8")
    for argv, modules in (
        (["suite"], {"hardyworlds.analysis", "hardyworlds.commands.suite"}),
        (["model", "show", "--file", str(path)], {"hardyworlds.modelio"}),
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "hardyworlds", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert modules <= set(imported), argv


def test_tracer_targets_are_the_functions_their_spans_name():
    # perfbench/tracing.py wraps each (module, attribute) by getattr and
    # names its span after the function's home; read the table from the
    # file, resolve every pair, and check that it is that function
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS"
    )
    assert targets
    for module, attribute, span in targets:
        home, name = span.split(".")
        resolved = getattr(importlib.import_module(f"hardyworlds.{module}"), attribute)
        assert resolved is getattr(getattr(hardyworlds, home), name), (module, attribute)


# The calls: counts of a traced CLI run per command line, but for
# semantics.accessible_worlds: how many nested calls a counterfactual makes
# follows the hash seed's iteration order.
TABLE_CALLS = {"quantum.hardy_family": 1, "quantum.probability_table": 1}
MODEL_CALLS = {**TABLE_CALLS, "worlds.enumerate_worlds": 1}
CATALOG_CALLS = {**MODEL_CALLS, "analysis.catalog": 1, "formulas.parse": 4}
TRACED_CALLS = {
    "model show": MODEL_CALLS,
    "model show --file {model}": {
        "modelio.parse_model": 1, "quantum.probability_table": 1, "worlds.enumerate_worlds": 1,
    },
    "check 'L2=>(R1[]->R1-)'": {**MODEL_CALLS, "formulas.parse": 1, "semantics.eval_model": 1},
    "suite": {**CATALOG_CALLS, "analysis.theorem_suite": 1, "semantics.eval_model": 3},
    "flow --frame r-first": {
        **CATALOG_CALLS, "analysis.information_flow": 1, "semantics.eval_model": 2,
    },
    "frames": {
        **CATALOG_CALLS, "worlds.enumerate_worlds": 2, "formulas.parse": 5,
        "analysis.frame_comparison": 1, "analysis.theorem_suite": 3, "semantics.eval_model": 6,
    },
    "lhv --family 0.2": {**TABLE_CALLS, "analysis.lhv_feasibility": 1},
    "hardy-scan": {"quantum.hardy_scan": 1},
}


@pytest.mark.parametrize("line", TRACED_CALLS)
def test_a_traced_cli_child_records_one_span_per_call(tmp_path, line):
    # perfbench/cli_child.py wraps the package's functions before it runs
    # cli.main, so each command binds the wrappers when it is imported; a
    # command that bound a function earlier would record no span, and one
    # that also went through a wrapped cli attribute would record two.
    # No bytecode is written next to the child.
    model, spans = tmp_path / "model.json", tmp_path / "spans.json"
    model.write_text(json.dumps(dump_model(*canonical_hardy_model())), encoding="utf-8")
    argv = shlex.split(line.format(model=model))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), str(spans), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(spans.read_text(encoding="utf-8"))["summary"]
    calls = {
        key.partition(":")[2]: count
        for key, count in summary.items()
        if key.startswith("calls:") and key != "calls:semantics.accessible_worlds"
    }
    assert calls == TRACED_CALLS[line]


def test_every_epsilon_parameter_defaults_to_the_one_constant():
    from hardyworlds import quantum

    takers = []
    for name in hardyworlds.__all__:
        value = getattr(hardyworlds, name)
        if inspect.isfunction(value) and "epsilon" in inspect.signature(value).parameters:
            takers.append(name)
            default = inspect.signature(value).parameters["epsilon"].default
            assert default is quantum.EPSILON_DEFAULT, name
    assert sorted(takers) == [
        "enumerate_worlds", "frame_comparison", "lhv_feasibility",
        "verify_hardy_constraints",
    ]


def test_worlds_reexports_the_epsilon_constants():
    from hardyworlds import quantum, worlds

    assert worlds.EPSILON_MAX is quantum.EPSILON_MAX
    assert worlds.EPSILON_DEFAULT is quantum.EPSILON_DEFAULT


def _epsilon_comparisons():
    """(module, enclosing function) of every comparison in the package's
    sources with an operand named like epsilon."""

    def named(node):
        name = getattr(node, "id", None) or getattr(node, "attr", "")
        return "epsilon" in name.lower()

    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare) and any(
            named(operand) for operand in (node.left, *node.comparators)
        ):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted((ROOT / "src" / "hardyworlds").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def test_only_the_table_layer_compares_against_epsilon():
    # which cells are possible at epsilon is decided in one place; every
    # other reader asks check_epsilon and support
    assert _epsilon_comparisons() == {("quantum", "check_epsilon"), ("quantum", "support")}
