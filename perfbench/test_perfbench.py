"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cli_cold  # noqa: E402
import inprocess  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from hardyworlds import analysis, cli, formulas, quantum, semantics  # noqa: E402
from tracing import Tracer, import_breakdown, layer_counts, summarize  # noqa: E402


@pytest.fixture()
def work(request):
    path = run.ROOT / ".perfbench_work" / f"test-{request.node.name}"
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture()
def formula_inputs(work):
    return run.setup("check-formulas", 7, work)


def check_formulas(s, count):
    tally = run.Tally()
    _, outputs = run.formula_ops(s, s.models, s.stream.take(count), 0)
    run.check_formula_outputs(s, outputs, tally)
    return tally


def test_formula_ops_agree_with_reference(formula_inputs):
    tally = check_formulas(formula_inputs, 300)
    assert (tally.attempted, tally.failed) == (300, 0), tally.problems


def test_corrupted_verdict_counts_as_failure(formula_inputs, monkeypatch):
    original = semantics.eval_model

    def flipped(model, formula, locality):
        report = original(model, formula, locality)
        return type(report)(
            formula=report.formula,
            holds=not report.holds,
            witnesses=report.witnesses,
            locality=report.locality,
            frame=report.frame,
            vacuous_flags=report.vacuous_flags,
        )

    monkeypatch.setattr(semantics, "eval_model", flipped)
    tally = check_formulas(formula_inputs, 50)
    assert (tally.attempted, tally.failed) == (50, 50)


def test_corrupted_analysis_counts_as_failure(work, monkeypatch):
    s = run.setup("family-sweep", 7, work)
    original = analysis.lhv_feasibility

    def flipped(table, epsilon):
        report = original(table, epsilon)
        return type(report)(
            feasible=not report.feasible,
            excluded_strategies=report.excluded_strategies,
            contradiction_trace=report.contradiction_trace,
            surviving_strategies=report.surviving_strategies,
        )

    tally = run.Tally()
    _, outputs = run.sweep_ops(s)
    run.check_sweep_outputs(s, outputs, {}, tally)
    assert tally.failed == 0, tally.problems
    monkeypatch.setattr(analysis, "lhv_feasibility", flipped)
    _, outputs = run.sweep_ops(s)
    run.check_sweep_outputs(s, outputs, {}, tally)
    assert tally.failed == len(s.items)


def test_raising_op_counts_as_failure(formula_inputs, monkeypatch):
    def broken(text):
        raise RuntimeError("parser broke")

    monkeypatch.setattr(formulas, "parse", broken)
    assert check_formulas(formula_inputs, 10).failed == 10


def cli_output(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("number", range(3))
def test_cli_outputs_read_back_and_corruption_is_caught(work, number):
    s = run.setup("cli-cold", 5, work)
    cache = {}
    for inv in inputs.cli_round(5, number, s.file_source):
        code, stdout = cli_output(inv.argv(str(work / "model.json")))
        want = cli_cold.expected(inv, cache)
        assert cli_cold.mismatches(inv, want, code, stdout) == [], inv
        assert cli_cold.mismatches(inv, want, code + 1, stdout)
        for good, bad in (("true", "false"), ("false", "true")):
            if good in stdout:
                corrupted = stdout.replace(good, bad, 1)
                assert cli_cold.mismatches(inv, want, code, corrupted), inv
                break


def test_reference_reproduces_the_headline_results():
    model = ref.Model(ref.table(*ref.family(1.0 / 3.0)), "l-first")
    suite = ref.suite(model, "loc1")
    assert suite["stmt1"] == (True, (), ())
    assert suite["stmt2"][:2] == (False, (("L1", "R2", "+", "+"), ("L1", "R2", "-", "+")))
    assert suite["stmt3"][0] is True
    assert len(model.worlds) == 13
    assert ref.flow(model, "loc1")["dependent"] is True
    assert ref.frames(model.probabilities)["stmt1_frame_dependent"] is True
    lhv = ref.lhv(model.probabilities)
    assert lhv["feasible"] is False and len(lhv["excluded"]) == 11


def test_minimal_rendering_parses_to_the_same_formula():
    rng = random.Random(3)
    for _ in range(500):
        tree = inputs.random_claim(rng, rng.randint(1, 6))
        text = ref.render_minimal(tree, rng)
        assert inprocess.formula_tree(formulas.parse(text)) == tree, text


def test_formula_stream_texts_are_distinct():
    stream = inputs.FormulaStream(random.Random(1))
    texts = [text for _, text in stream.take(3000)]
    assert len(set(texts)) == len(texts)


def test_trace_counts_match_the_package_structure():
    modules = {"analysis": analysis, "quantum": quantum, "formulas": formulas, "semantics": semantics}
    tracer = Tracer(modules)
    tracer.install()
    try:
        table = quantum.probability_table(*quantum.canonical_hardy_model())
        analysis.frame_comparison(table)
        quantum.hardy_scan()
    finally:
        tracer.uninstall()
    counts = layer_counts(summarize(tracer.take()))
    assert counts["quantum.joint_probability.per_table"] == 16
    assert counts["quantum.joint_probability.per_scan"] == 1007
    assert counts["formulas.parse.per_frame_comparison"] == 13
    assert counts["analysis.catalog.calls"] == 3
    assert quantum.hardy_scan.__module__ == "hardyworlds.quantum"


def test_import_breakdown_counts_each_package_once():
    sample = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:       200 |        300 |     numpy",
            "import time:        50 |         50 |         scipy._lib",
            "import time:        10 |         60 |       scipy",
            "import time:       400 |        400 |       scipy.optimize",
            "import time:        40 |        800 |     hardyworlds.quantum",
            "import time:        20 |       1200 |   hardyworlds",
        ]
    )
    assert import_breakdown(sample) == {"hardyworlds": 1.2, "numpy": 0.3, "scipy": 0.46}
