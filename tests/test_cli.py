import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyworlds.analysis import READING_NONE, READING_REFERENCE, READING_TRANSFER
from hardyworlds.cli import COMMANDS, build_parser, format_probability, main, plain_args
from hardyworlds.modelio import dump_model, save_model
from hardyworlds.quantum import (
    canonical_hardy_model,
    hardy_family,
    hardy_scan,
    probability_table,
)

CANONICAL_FIRST_LINE = "L1 R1 + + p=0.166666667 (=1/6)"
# child interpreters import the package from this checkout's sources
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatProbability:
    def test_small_fraction(self):
        assert format_probability(1.0 / 6.0) == "0.166666667 (=1/6)"
        assert format_probability(1.0 / 12.0) == "0.083333333 (=1/12)"

    def test_integers(self):
        assert format_probability(0.0) == "0.000000000 (=0)"
        assert format_probability(1.0) == "1.000000000 (=1)"

    def test_no_nearby_fraction(self):
        value = (5.0 * 5.0 ** 0.5 - 11.0) / 2.0
        assert format_probability(value) == "0.090169944"


def format_with_fraction(value):
    """The rendering of earlier releases, built on Fraction.limit_denominator."""
    text = f"{value:.9f}"
    nearest = Fraction(value).limit_denominator(100)
    if abs(float(nearest) - value) <= 1e-9:
        if nearest.denominator == 1:
            return f"{text} (={nearest.numerator})"
        return f"{text} (={nearest.numerator}/{nearest.denominator})"
    return text


class TestFormatProbabilityMatchesFraction:
    def assert_matches(self, values):
        mismatches = [
            (v, format_probability(v), format_with_fraction(v))
            for v in values
            if format_probability(v) != format_with_fraction(v)
        ]
        assert mismatches == []

    def test_every_small_fraction(self):
        self.assert_matches(
            [p / q for q in range(1, 101) for p in range(-q, 2 * q + 1)]
        )

    def test_near_the_tolerance_edge(self):
        # p/q shifted by 0.1e-9 .. 1.5e-9, on both sides of the 1e-9 limit
        self.assert_matches(
            [
                p / q + k * 1e-10
                for q in range(1, 101)
                for p in range(q + 1)
                for k in (-15, -11, -10, -9, 9, 10, 11, 15)
            ]
        )

    def test_random_floats(self):
        rng = random.Random(20261018)
        self.assert_matches(
            [rng.random() for _ in range(20000)]
            + [rng.uniform(-3.0, 3.0) for _ in range(2000)]
            + [rng.random() * 10.0 ** rng.randint(-12, 0) for _ in range(2000)]
        )

    def test_table_cells(self):
        values = list(probability_table(*canonical_hardy_model()).entries.values())
        for j in range(1, 100):
            values.extend(probability_table(*hardy_family(j / 200)).entries.values())
        self.assert_matches(values)

    def test_scan_maximum(self):
        self.assert_matches([hardy_scan(steps)[1] for steps in (10, 50, 1000)])


class TestModelShow:
    def test_canonical_listing(self, capsys):
        code, out, err = run_cli(capsys, "model", "show")
        assert code == 0
        assert err == ""
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 13
        assert lines[0] == CANONICAL_FIRST_LINE
        assert lines[-1] == "L2 R2 - - p=0.666666667 (=2/3)"

    def test_reruns_are_identical(self, capsys):
        _, first, _ = run_cli(capsys, "model", "show")
        _, second, _ = run_cli(capsys, "model", "show")
        assert first == second

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "model", "show", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["frame"] == "l-first"
        assert payload["epsilon"] == pytest.approx(1e-9)
        assert len(payload["worlds"]) == 13
        head = payload["worlds"][0]
        assert head["left_setting"] == "L1"
        assert head["right_setting"] == "R1"
        assert head["left_outcome"] == "+"
        assert head["right_outcome"] == "+"
        assert head["probability"] == pytest.approx(1.0 / 6.0)

    def test_larger_epsilon(self, capsys):
        code, out, _ = run_cli(capsys, "model", "show", "--epsilon", "0.09")
        assert code == 0
        assert len(out.rstrip("\n").split("\n")) == 10

    def test_family_model(self, capsys):
        code, out, _ = run_cli(capsys, "model", "show", "--model", "family:0.25")
        assert code == 0
        assert "p=0.055555556 (=1/18)" in out

    def test_family_flag_shorthand(self, capsys):
        _, via_model, _ = run_cli(capsys, "model", "show", "--model", "family:0.25")
        _, via_flag, _ = run_cli(capsys, "model", "show", "--family", "0.25")
        assert via_model == via_flag

    def test_file_model(self, capsys, tmp_path):
        path = tmp_path / "canonical.json"
        save_model(*canonical_hardy_model(), path)
        _, from_file, _ = run_cli(capsys, "model", "show", "--file", str(path))
        _, builtin, _ = run_cli(capsys, "model", "show")
        assert from_file == builtin


class TestCheck:
    def test_true_statement(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "L2 => ((R2 & R2+) -> (R1 []-> R1-))"
        )
        assert code == 0
        assert "holds: true" in out
        assert "formula: (L2 => ((R2 & R2+) -> (R1 []-> R1-)))" in out

    def test_false_statement_lists_witnesses(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "L1 => ((R2 & R2+) -> (R1 []-> R1-))"
        )
        assert code == 0
        assert "holds: false" in out
        assert "witness: L1 R2 + + p=0.083333333 (=1/12)" in out
        assert "witness: L1 R2 - + p=0.083333333 (=1/12)" in out

    def test_strict_turns_false_into_exit_one(self, capsys):
        code, _, _ = run_cli(
            capsys, "check", "--strict", "L1 => ((R2 & R2+) -> (R1 []-> R1-))"
        )
        assert code == 1

    def test_strict_passes_on_true(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--strict", "L1 | ~L1")
        assert code == 0

    def test_locality_and_frame_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "L2 => ((R2 & R2+) -> (R1 []-> R1-))",
            "--frame", "r-first",
        )
        assert code == 0
        assert "holds: false" in out
        code, out, _ = run_cli(
            capsys,
            "check", "L2 => ((R2 & R2+) -> (R1 []-> R1-))",
            "--locality", "lightcone",
        )
        assert code == 0
        assert "holds: true" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--format", "json",
            "L1 => ((R2 & R2+) -> (R1 []-> R1-))",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["locality"] == "loc1"
        assert payload["frame"] == "l-first"
        assert [w["left_setting"] for w in payload["witnesses"]] == ["L1", "L1"]
        assert payload["vacuous_flags"] == []

    def test_syntax_error_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "L2 => (R1 []->")
        assert code == 2
        assert "error:" in err
        assert "position" in err

    def test_structural_errors_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "L1 => (L2 => R1)")
        assert code == 2
        assert "'=>'" in err
        code, _, err = run_cli(capsys, "check", "(L1 => L2) & R1")
        assert code == 2
        assert "root" in err
        code, _, err = run_cli(capsys, "check", "R1- []-> L2")
        assert code == 2
        assert "choice" in err


class TestSuite:
    def test_canonical_text(self, capsys):
        code, out, _ = run_cli(capsys, "suite")
        assert code == 0
        assert "stmt1: holds=true" in out
        assert "stmt2: holds=false" in out
        assert "stmt3: holds=true" in out
        assert "locality: loc1" in out
        assert "frame: l-first" in out

    def test_right_first_frame(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--frame", "r-first")
        assert code == 0
        assert "stmt1: holds=false" in out
        assert "stmt2: holds=false" in out
        assert "stmt3: holds=false" in out

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["statements"]) == {"stmt1", "stmt2", "stmt3"}
        assert payload["statements"]["stmt1"]["holds"] is True
        assert payload["statements"]["stmt2"]["holds"] is False


class TestFlow:
    def test_canonical_text(self, capsys):
        assert run_cli(capsys, "flow") == (0, (
            "f(L2): true\n"
            "f(L1): false\n"
            "dependent: true\n"
            "witness: L1 R2 + + p=0.083333333 (=1/12)\n"
            f"note: {READING_TRANSFER}\n"
            f"note: {READING_REFERENCE}\n"
        ), "")

    def test_uniform_file_not_needed_family_is_independent(self, capsys):
        code, out, _ = run_cli(capsys, "flow", "--family", "0.25")
        assert code == 0
        assert "dependent: true" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "flow", "--format", "json")
        payload = json.loads(out)
        assert payload["f_of_L2"] is True
        assert payload["f_of_L1"] is False
        assert payload["dependent"] is True
        assert payload["witness"]["left_setting"] == "L1"
        assert len(payload["interpretation"]) == 2

    @pytest.mark.parametrize("source", [("--frame", "r-first"), ("--family", "1e-5")], ids=str)
    def test_no_dependence_has_no_readings(self, capsys, source):
        code, out, _ = run_cli(capsys, "flow", *source)
        assert code == 0
        assert out.splitlines()[2:] == ["dependent: false", f"note: {READING_NONE}"]
        code, out, _ = run_cli(capsys, "flow", *source, "--format", "json")
        payload = json.loads(out)
        assert (payload["dependent"], payload["interpretation"]) == (False, [READING_NONE])


class TestFrames:
    def test_canonical_sections(self, capsys):
        code, out, _ = run_cli(capsys, "frames")
        assert code == 0
        assert "[loc1-l-first]" in out
        assert "[loc1-r-first]" in out
        assert "[lightcone]" in out
        assert "divergence: (L1 []-> R1-) at world L2 R1 + -" in out
        assert "stmt1 frame-dependent under loc1: true" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "frames", "--format", "json")
        payload = json.loads(out)
        assert payload["stmt1_frame_dependent"] is True
        assert payload["divergence"]["results"] == {
            "loc1-l-first": False, "lightcone": True,
        }
        suites = payload["suites"]
        assert suites["loc1-l-first"]["statements"]["stmt1"]["holds"] is True
        assert suites["loc1-r-first"]["statements"]["stmt1"]["holds"] is False
        # every catalogued verdict rests on fixed[R]; stmt1 and stmt3 flip with it
        assert payload["protection"] == {
            "stmt1": {"rests_on": ["R"], "flips": True},
            "stmt2": {"rests_on": ["R"], "flips": False},
            "stmt3": {"rests_on": ["R"], "flips": True},
        }

    @pytest.mark.parametrize("family", ["0.01", "0.2", "0.45"])
    def test_flips_compare_the_two_loc1_frames(self, capsys, family):
        _, out, _ = run_cli(capsys, "frames", "--family", family, "--format", "json")
        payload = json.loads(out)
        l_first, r_first = (
            payload["suites"][key]["statements"] for key in ("loc1-l-first", "loc1-r-first")
        )
        for name, entry in payload["protection"].items():
            assert entry["flips"] == (l_first[name]["holds"] != r_first[name]["holds"])
        assert payload["protection"]["stmt1"]["flips"] == payload["stmt1_frame_dependent"]


class TestLhv:
    def test_canonical_text(self, capsys):
        code, out, _ = run_cli(capsys, "lhv")
        assert code == 0
        assert "feasible: false" in out
        assert "excluded strategies: 11 of 16" in out
        assert "h1:" in out and "h2:" in out and "h3:" in out

    def test_family_member(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--family", "0.25")
        assert code == 0
        assert "feasible: false" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--format", "json")
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert len(payload["excluded_strategies"]) == 11
        assert len(payload["surviving_strategies"]) == 5
        sample = payload["excluded_strategies"][0]
        assert set(sample["strategy"]) == {"L1", "L2", "R1", "R2"}
        assert "excluded_by" in sample


class TestHardyScan:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "hardy-scan", "--steps", "50")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "steps: 50"
        assert lines[1].startswith("x_best: 0.3819660")
        assert lines[2] == "p_best: 0.090169944"

    def test_too_few_steps(self, capsys):
        code, _, err = run_cli(capsys, "hardy-scan", "--steps", "5")
        assert code == 2

    def test_too_many_steps(self, capsys):
        # argparse rejects the value before any scan starts; 1000001 comes
        # first so that a missing bound fails fast
        for steps in ("1000001", str(10**12)):
            code, out, err = run_cli(capsys, "hardy-scan", "--steps", steps)
            assert (code, out) == (2, "")
            assert err.endswith(
                "error: argument --steps: scan takes at most 1000000 steps\n"
            )

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "hardy-scan", "--format", "json")
        payload = json.loads(out)
        assert payload["steps"] == 1000
        assert payload["p_best"] == pytest.approx(
            (5.0 * 5.0 ** 0.5 - 11.0) / 2.0, abs=1e-6
        )


class TestModelSources:
    def test_family_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "model", "show", "--model", "family:0.7")
        assert code == 3
        assert "error:" in err

    def test_family_not_a_number(self, capsys):
        code, _, err = run_cli(capsys, "model", "show", "--model", "family:abc")
        assert code == 2

    def test_unknown_source(self, capsys):
        code, _, err = run_cli(capsys, "model", "show", "--model", "bogus")
        assert code == 2
        assert "unknown model source" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "model", "show", "--file", "/nope/missing.json")
        assert code == 3

    @pytest.mark.parametrize("source", [("--model", "file:"), ("--file", "")], ids=str)
    def test_empty_file_path(self, capsys, source):
        code, out, err = run_cli(capsys, "model", "show", *source)
        assert (code, out, err) == (2, "", "error: model file path is empty\n")

    # source option: exit code and error message (test_empty_file_path pins
    # --file '' and --model file:)
    SOURCE_ERRORS = {
        ("--model", "family:abc"): (2, "not a family parameter: 'abc'"),
        ("--model", "nope"): (
            2, "unknown model source 'nope'; use canonical, family:<x>, or file:<path>"
        ),
        ("--family", "nan"): (3, "family parameter must lie strictly in (0, 1/2), got nan"),
        ("--family", "0.7"): (3, "family parameter must lie strictly in (0, 1/2), got 0.7"),
    }

    @pytest.mark.parametrize("source", SOURCE_ERRORS, ids=" ".join)
    def test_source_errors_keep_their_text_and_exit_code(self, capsys, source):
        code, message = self.SOURCE_ERRORS[source]
        assert run_cli(capsys, "suite", *source) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize("x", ["0.2", "1e-5", "nan"])
    def test_family_shorthand_runs_as_the_model_source(self, capsys, x):
        assert run_cli(capsys, "flow", "--family", x) == run_cli(
            capsys, "flow", "--model", f"family:{x}"
        )

    def test_corrupt_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run_cli(capsys, "model", "show", "--file", str(path))
        assert code == 3

    def test_boolean_amplitude_file(self, capsys, tmp_path):
        document = dump_model(*canonical_hardy_model())
        document["amplitudes"] = [[True, False], [0, 0], [0, 0], [0, 0]]
        path = tmp_path / "booleans.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "model", "show", "--file", str(path))
        assert code == 3
        assert out == ""
        assert "[re, im] pair" in err

    def test_two_sources_conflict_in_process_as_in_a_fresh_one(self, capsys, monkeypatch):
        # an in-process "canonical" is the interned literal a default would be
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["suite", "--model", "canonical", "--family", "0.2"]
        proc = subprocess.run(
            [sys.executable, "-m", "hardyworlds", *argv],
            capture_output=True,
            text=True,
            env={**CHILD_ENV, "COLUMNS": "80"},
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.endswith(
            "error: argument --family: not allowed with argument --model\n"
        )
        assert run_cli(capsys, *argv) == (2, "", proc.stderr)

    def test_epsilon_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "model", "show", "--epsilon", "0.5")
        assert code == 2
        code, _, _ = run_cli(capsys, "model", "show", "--epsilon", "abc")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2
        assert run_cli(capsys, "model")[0] == 2


class TestExpectations:
    def test_matching_expectations(self, capsys, tmp_path):
        path = tmp_path / "expect.txt"
        path.write_text(
            "# canonical statement suite\n"
            "\n"
            "stmt1 = true\n"
            "stmt2=false\n"
            "stmt3=true\n"
        )
        code, _, err = run_cli(capsys, "suite", "--expect", str(path))
        assert code == 0
        assert err == ""

    def test_failed_expectation(self, capsys, tmp_path):
        path = tmp_path / "expect.txt"
        path.write_text("stmt2=true\n")
        code, _, err = run_cli(capsys, "suite", "--expect", str(path))
        assert code == 1
        assert "expect: stmt2: wanted true, got false" in err

    def test_unknown_check_name(self, capsys, tmp_path):
        path = tmp_path / "expect.txt"
        path.write_text("stmt9=true\n")
        code, _, err = run_cli(capsys, "suite", "--expect", str(path))
        assert code == 1
        assert "no such check" in err

    def test_malformed_line(self, capsys, tmp_path):
        path = tmp_path / "expect.txt"
        path.write_text("stmt1: yes\n")
        code, _, err = run_cli(capsys, "suite", "--expect", str(path))
        assert code == 2
        assert "expected 'name=true'" in err

    def test_repeated_name(self, capsys, tmp_path):
        # the later line must not silently win over the earlier one
        path = tmp_path / "expect.txt"
        path.write_text("holds=false\n# again\nholds = true\n")
        code, out, err = run_cli(
            capsys, "check", "L2 => ((R2 & R2+) -> (R1 []-> R1-))", "--expect", str(path)
        )
        assert (code, out) == (2, "")
        assert err == f"error: {path}:3: check 'holds' is already expected\n"

    def test_missing_expect_file(self, capsys):
        code, _, err = run_cli(capsys, "suite", "--expect", "/nope/expect.txt")
        assert code == 2

    def test_empty_expect_path(self, capsys):
        code, out, err = run_cli(capsys, "suite", "--expect", "")
        assert (code, out, err) == (2, "", "error: expectation file path is empty\n")

    def test_unreadable_expect_file_prints_no_report(self, capsys):
        code, out, err = run_cli(capsys, "suite", "--expect", "/nope/expect.txt")
        assert code == 2
        assert out == ""
        assert "cannot read expectation file" in err

    def test_flow_and_frames_checks(self, capsys, tmp_path):
        flow_path = tmp_path / "flow.txt"
        flow_path.write_text("f_of_L2=true\nf_of_L1=false\ndependent=true\n")
        assert run_cli(capsys, "flow", "--expect", str(flow_path))[0] == 0
        frames_path = tmp_path / "frames.txt"
        frames_path.write_text(
            "loc1-l-first.stmt1=true\n"
            "loc1-r-first.stmt1=false\n"
            "divergence.lightcone=true\n"
            "stmt1_frame_dependent=true\n"
        )
        assert run_cli(capsys, "frames", "--expect", str(frames_path))[0] == 0
        lhv_path = tmp_path / "lhv.txt"
        lhv_path.write_text("feasible=false\n")
        assert run_cli(capsys, "lhv", "--expect", str(lhv_path))[0] == 0


class TestBadInputFiles:
    def test_model_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        text = json.dumps(dump_model(*canonical_hardy_model()))
        path.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
        code, out, err = run_cli(capsys, "model", "show", "--file", str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot read model file {path}: ")

    def test_expect_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "expect.txt"
        path.write_bytes(b"\xff\xfestmt1=true\n")
        code, out, err = run_cli(capsys, "suite", "--expect", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read expectation file {path}: ")

    def test_amplitude_too_large_for_a_float(self, capsys, tmp_path):
        document = dump_model(*canonical_hardy_model())
        document["amplitudes"][0] = [10**400, 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "model", "show", "--file", str(path))
        assert (code, out) == (3, "")
        assert err == "error: amplitude 0 is too large for a float\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("amplitudes", [1e200, 0],
             "state is not normalized: |psi| = inf differs from 1 by more than 1e-12"),
            ("basis", [[1e200, 0], [0, 0]], "basis plus vector is not a unit vector (norm inf)"),
        ],
        ids=["amplitude", "basis-vector"],
    )
    def test_component_too_large_to_square(self, capsys, tmp_path, field, value, message):
        # finite, but its square overflows a float
        document = dump_model(*canonical_hardy_model())
        if field == "amplitudes":
            document["amplitudes"][0] = value
        else:
            document["left"]["basis1"][0] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "model", "show", "--file", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"

    def test_model_file_nested_too_deeply(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "model", "show", "--file", str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: model file {path} is not valid JSON: ")


class TestFormulaDepth:
    @pytest.mark.parametrize(
        "formula",
        ["(" * 200 + "L1" + ")" * 200, "L1 []-> " * 300 + "L1+"],
        ids=["parentheses", "counterfactuals"],
    )
    def test_too_deep_formula_exits_two(self, capsys, formula):
        code, out, err = run_cli(capsys, "check", formula)
        assert (code, out, err) == (2, "", "error: formula is nested too deeply\n")


# The complete text output of each subcommand on the canonical model, and of
# a check whose report carries a vacuous counterfactual.
PINNED_TEXT = {
    ("model", "show"): (
        "L1 R1 + + p=0.166666667 (=1/6)\n"
        "L1 R1 - + p=0.166666667 (=1/6)\n"
        "L1 R1 - - p=0.666666667 (=2/3)\n"
        "L1 R2 + + p=0.083333333 (=1/12)\n"
        "L1 R2 + - p=0.083333333 (=1/12)\n"
        "L1 R2 - + p=0.083333333 (=1/12)\n"
        "L1 R2 - - p=0.750000000 (=3/4)\n"
        "L2 R1 + - p=0.333333333 (=1/3)\n"
        "L2 R1 - + p=0.333333333 (=1/3)\n"
        "L2 R1 - - p=0.333333333 (=1/3)\n"
        "L2 R2 + + p=0.166666667 (=1/6)\n"
        "L2 R2 + - p=0.166666667 (=1/6)\n"
        "L2 R2 - - p=0.666666667 (=2/3)\n"
    ),
    ("suite",): (
        "stmt1: holds=true  (L2 => ((R2 & R2+) -> (R1 []-> R1-)))\n"
        "stmt2: holds=false  (L1 => ((R2 & R2+) -> (R1 []-> R1-)))\n"
        "  witness: L1 R2 + + p=0.083333333 (=1/12)\n"
        "  witness: L1 R2 - + p=0.083333333 (=1/12)\n"
        "stmt3: holds=true  ((L2 & (R2 & L2+)) => (R1 []-> L2+))\n"
        "locality: loc1\n"
        "frame: l-first\n"
    ),
    ("flow",): (
        "f(L2): true\n"
        "f(L1): false\n"
        "dependent: true\n"
        "witness: L1 R2 + + p=0.083333333 (=1/12)\n"
        "note: Dependence reading: the same right-region statement changes "
        "truth value with the left choice alone, so any mechanism realizing "
        "these truth conditions must make the left choice available where the "
        "right outcome is settled.\n"
        "note: Reference reading: the statement's counterfactual ranges over "
        "worlds that agree with the actual one outside the changed choice, so "
        "the dependence may only reflect that definitional tie to the far "
        "region, not a physical transfer.\n"
    ),
    ("frames",): (
        "[loc1-l-first]\n"
        "stmt1: holds=true\n"
        "stmt2: holds=false\n"
        "stmt3: holds=true\n"
        "[loc1-r-first]\n"
        "stmt1: holds=false\n"
        "stmt2: holds=false\n"
        "stmt3: holds=false\n"
        "[lightcone]\n"
        "stmt1: holds=true\n"
        "stmt2: holds=false\n"
        "stmt3: holds=true\n"
        "divergence: (L1 []-> R1-) at world L2 R1 + -\n"
        "  loc1-l-first: false\n"
        "  lightcone: true\n"
        "stmt1 frame-dependent under loc1: true\n"
    ),
    ("lhv",): (
        "feasible: false\n"
        "excluded strategies: 11 of 16\n"
        "table demands P(L1+,R2+ | L1,R2) > 0 (= 0.083333333), but every "
        "deterministic strategy producing that pair is excluded:\n"
        "  L1->+ L2->+ R1->+ R2->+ excluded by h2: P(L2+,R1+ | L2,R1) = 0\n"
        "  L1->+ L2->+ R1->- R2->+ excluded by h3: P(L1+,R1- | L1,R1) = 0\n"
        "  L1->+ L2->- R1->+ R2->+ excluded by h1: P(L2-,R2+ | L2,R2) = 0\n"
        "  L1->+ L2->- R1->- R2->+ excluded by h3: P(L1+,R1- | L1,R1) = 0\n"
        "no mixture of surviving strategies can give this pair positive "
        "probability, so no local deterministic account exists\n"
    ),
    ("hardy-scan", "--steps", "50"): (
        "steps: 50\n"
        "x_best: 0.381966011\n"
        "p_best: 0.090169944\n"
    ),
    ("hardy-scan", "--steps", "2000", "--format", "json"): (
        "{\n"
        '  "steps": 2000,\n'
        '  "x_best": 0.38196601422904614,\n'
        '  "p_best": 0.09016994374947428\n'
        "}\n"
    ),
    ("check", "L1 => ((R2 & R2+) -> (R1 []-> R1-))"): (
        "formula: (L1 => ((R2 & R2+) -> (R1 []-> R1-)))\n"
        "locality: loc1\n"
        "frame: l-first\n"
        "holds: false\n"
        "witness: L1 R2 + + p=0.083333333 (=1/12)\n"
        "witness: L1 R2 - + p=0.083333333 (=1/12)\n"
    ),
    ("check", "--family", "0.01", "--epsilon", "0.01", "R2 []-> R2+"): (
        "formula: (R2 []-> R2+)\n"
        "locality: loc1\n"
        "frame: l-first\n"
        "holds: false\n"
        "witness: L1 R1 - - p=0.990000000 (=99/100)\n"
        "witness: L1 R2 - - p=0.999897970\n"
        "witness: L2 R1 + - p=0.010000000 (=1/100)\n"
        "witness: L2 R1 - + p=0.010000000 (=1/100)\n"
        "witness: L2 R1 - - p=0.980000000 (=49/50)\n"
        "witness: L2 R2 - - p=0.990000000 (=99/100)\n"
        "vacuous: (R2 []-> R2+) at (L2,R1,+,-)\n"
    ),
}


@pytest.mark.parametrize("argv", PINNED_TEXT, ids=" ".join)
def test_complete_text_output(capsys, argv):
    assert run_cli(capsys, *argv) == (0, PINNED_TEXT[argv], "")


def checks_from_json(command, payload):
    """Every documented --expect check of a subcommand, valued by the
    matching boolean of its JSON payload."""
    if command == "check":
        return {"holds": payload["holds"]}
    if command == "suite":
        return {name: r["holds"] for name, r in payload["statements"].items()}
    if command == "flow":
        return {key: payload[key] for key in ("f_of_L2", "f_of_L1", "dependent")}
    if command == "frames":
        checks = {
            f"{key}.{name}": report["holds"]
            for key, suite in payload["suites"].items()
            for name, report in suite["statements"].items()
        }
        if payload["divergence"] is not None:
            for key, value in payload["divergence"]["results"].items():
                checks[f"divergence.{key}"] = value
        checks["stmt1_frame_dependent"] = payload["stmt1_frame_dependent"]
        return checks
    assert command == "lhv"
    return {"feasible": payload["feasible"]}


def truth(value):
    return "true" if value else "false"


EXPECT_COMMANDS = [
    ("check", "L1 => ((R2 & R2+) -> (R1 []-> R1-))"),
    ("check", "R2 []-> R2+"),
    ("suite",),
    ("flow",),
    ("frames",),
    ("lhv",),
]
EXPECT_MODELS = {
    "canonical": (),
    "family-0.2": ("--family", "0.2"),
    "family-0.01": ("--family", "0.01", "--epsilon", "0.01"),
}


@pytest.mark.parametrize("model", EXPECT_MODELS.values(), ids=EXPECT_MODELS)
@pytest.mark.parametrize("command", EXPECT_COMMANDS, ids=" ".join)
def test_expect_agrees_with_json(capsys, tmp_path, command, model):
    path = tmp_path / "expect.txt"
    for frame in ("l-first", "r-first"):
        for locality in ("loc1", "lightcone"):
            argv = (*command, *model, "--frame", frame, "--locality", locality)
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert code == 0
            checks = checks_from_json(command[0], json.loads(out))
            path.write_text("".join(f"{k}={truth(v)}\n" for k, v in checks.items()))
            assert run_cli(capsys, *argv, "--expect", str(path))[::2] == (0, "")
            for name, value in checks.items():
                flipped = {**checks, name: not value}
                path.write_text(
                    "".join(f"{k}={truth(v)}\n" for k, v in flipped.items())
                )
                code, _, err = run_cli(capsys, *argv, "--expect", str(path))
                assert code == 1
                assert err == (
                    f"expect: {name}: wanted {truth(not value)}, got {truth(value)}\n"
                )


def argparse_args(argv):
    """build_parser's namespace for argv, or None where it reports an error."""
    try:
        return build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit:
        return None


# values each option accepts; VALUES are other tokens, most of them invalid values
VALID = {
    "--model": ["canonical", "family:0.2", "file:m.json", ""],
    "--family": ["0.2", "1e-3", " 0.3", "nan", "inf"],
    "--file": ["m.json", ""],
    "--epsilon": ["1e-3", "0.05", "1E-9"],
    "--frame": ["l-first", "r-first"],
    "--locality": ["loc1", "lightcone"],
    "--format": ["text", "json"],
    "--expect": ["e.txt", ""],
    "--steps": ["10", "1000", " 20"],
}
FLAGS = [*VALID, "--strict"]
VALUES = ["show", "L1 & L2", "L2 => (R1 []-> R1-)", "0.5", "0", "5", "1000001", "abc",
          "up", "JSON", "-0.1", "-5", "-1e-3", "NaN", "", " ", "-", "--"]
TOKENS = st.one_of(
    st.sampled_from(FLAGS + VALUES + ["-h", "--help", "--fam", "--form", "--st", "--e"]),
    st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    st.floats().map(repr),
    st.integers(-10, 2_000_000).map(str),
    st.text(max_size=6),
)
EDITS = st.one_of(  # each inserted at an index into a well-formed command line
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list),
    st.sampled_from(["L1", "show", "suite", "--strict"]).map(lambda token: [token]),
    TOKENS.map(lambda token: [token]),
)


def well_formed(command):
    """Command lines of ``command`` built from valid options, which may still
    give two or three sources or leave out check's formula."""
    flags = [flag for flag in VALID if flag != "--steps" or command == "hardy-scan"]
    pairs = st.lists(st.sampled_from(flags), unique=True, max_size=4).flatmap(
        lambda chosen: st.tuples(*(st.sampled_from(VALID[flag]) for flag in chosen)).map(
            lambda values: [token for pair in zip(chosen, values) for token in pair]
        )
    )
    formula = st.sampled_from([["L1"], ["L2 => (R1 []-> R1-)"], [""], []])
    return st.builds(
        lambda head, strict, rest: [*command.split(), *head, *strict, *rest],
        formula if command == "check" else st.just([]),
        st.sampled_from([[], ["--strict"]]),
        pairs,
    )


def with_edits(argv, edits):
    for index, tokens in edits:
        index %= len(argv) + 1
        argv[index:index] = tokens
    return argv


ARGV = st.builds(
    with_edits,
    st.sampled_from(["model show", *list(COMMANDS)[1:]]).flatmap(well_formed),
    st.lists(st.tuples(st.integers(0, 20), EDITS), max_size=2),
)


class TestPlainArgs:
    """plain_args reads what argparse reads, or leaves the command line to it."""

    @settings(max_examples=600, deadline=None)
    @given(ARGV)
    def test_agrees_with_argparse(self, argv):
        args = plain_args(argv)
        if args is not None:
            parsed = argparse_args(argv)
            assert parsed is not None
            assert repr(vars(args)) == repr(vars(parsed))

    # the command lines of the cli-cold benchmark: subcommand, [formula],
    # [source], --frame, --locality, --format, [--strict]
    @pytest.mark.parametrize(
        "command", ["model show", "check", "suite", "flow", "frames", "lhv", "hardy-scan"]
    )
    @pytest.mark.parametrize(
        "source",
        [[], ["--model", "canonical"], ["--family", "0.2718281828"], ["--file", "m.json"]],
        ids=["none", "model", "family", "file"],
    )
    def test_takes_every_benchmark_shape(self, command, source):
        formula = ["L2 & (R1 []-> ~R1-)"] if command == "check" else []
        for frame, locality, output, strict in itertools.product(
            ("l-first", "r-first"), ("loc1", "lightcone"), ("text", "json"), ([], ["--strict"])
        ):
            argv = [*command.split(), *formula, *source, "--frame", frame,
                    "--locality", locality, "--format", output, *strict]
            args = plain_args(argv)
            assert args is not None, argv
            assert repr(vars(args)) == repr(vars(argparse_args(argv)))

    @pytest.mark.parametrize("argv", [
        "", "-h", "suite -h", "suite --help", "model", "model --frame r-first show",
        "suite --eps 1e-3", "suite --epsilon=1e-3", "suite --family -0.1",
        "suite --epsilon 0.5", "suite --epsilon nan", "hardy-scan --steps 5",
        "suite --frame up", "suite --strict --strict", "suite --frame r-first --frame r-first",
        "suite --model canonical --family 0.2", "suite extra", "check", "check a b",
        "suite --", "suite --format", "suite --steps 10", "check -- L1",
    ])
    def test_leaves_the_rest_to_argparse(self, argv):
        assert plain_args(argv.split()) is None


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hardyworlds", "model", "show"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == CANONICAL_FIRST_LINE

    def test_module_invocation_error_path(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hardyworlds", "check", "L1 &"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 2

    CLOSED_READER_RUNS = {
        "suite": ["suite"],
        "suite json": ["suite", "--format", "json"],
        "model show": ["model", "show"],
        "strict check": ["check", "L1 & L2", "--strict"],
    }

    @pytest.mark.parametrize("argv", CLOSED_READER_RUNS.values(), ids=CLOSED_READER_RUNS)
    def test_a_closed_reader_gives_exit_4_and_no_traceback(self, argv):
        # the read end is closed before the child starts, so its first write
        # to stdout fails, whatever the scheduling
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hardyworlds", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=CHILD_ENV,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 4
        assert proc.stderr == b""

    # world and witness order comes from CELLS, not from set iteration, so
    # fresh processes under different hash seeds print the same bytes
    HASH_SEED_RUNS = {
        "suite": ["suite"],
        "frames": ["frames"],
        "model show": ["model", "show"],
        "nested check": ["check", "L2 & R2 & R2- => (R1 []-> (L1 []-> L1+))"],
    }

    @pytest.mark.parametrize("argv", HASH_SEED_RUNS.values(), ids=HASH_SEED_RUNS)
    def test_output_does_not_depend_on_the_hash_seed(self, argv):
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "hardyworlds", *argv, "--format", "json"],
                capture_output=True,
                env={**CHILD_ENV, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.usefixtures("empty_memo")
    def test_in_process_runs_print_what_fresh_processes_print(self, capsys):
        # the two family members have the same possible worlds, so the
        # second reads the first one's verdicts; its worlds' probabilities
        # must still be its own
        for family in ("0.3", "0.2"):
            for command in ("flow", "suite", "frames"):
                argv = [command, "--family", family, "--format", "json"]
                proc = subprocess.run(
                    [sys.executable, "-m", "hardyworlds", *argv],
                    capture_output=True,
                    text=True,
                    env=CHILD_ENV,
                )
                fresh = (proc.returncode, proc.stdout, proc.stderr)
                assert run_cli(capsys, *argv) == fresh

    def test_cli_import_loads_no_numeric_libraries(self):
        # nor the slow-to-import stdlib modules the CLI does not need
        unwanted = {"numpy", "scipy", "dataclasses", "inspect", "fractions"}
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import hardyworlds.cli, sys; "
                f"print(sorted({unwanted!r} & set(sys.modules)))",
            ],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # Run in a fresh interpreter: with argv None, only `import hardyworlds`;
    # otherwise cli.main(argv).  Prints the exit code, the hardyworlds
    # submodules then loaded, and which of json and argparse with its
    # gettext and locale the run itself loaded.
    IMPORT_CHILD = """
import sys
before = set(sys.modules)
import hardyworlds
code = 0
if {argv!r} is not None:
    import hardyworlds.cli
    code = hardyworlds.cli.main({argv!r})
print(code)
print(" ".join(m.partition(".")[2] for m in sys.modules if m.startswith("hardyworlds.")))
print(" ".join(sorted({{"argparse", "gettext", "json", "locale"}} & set(sys.modules) - before)))
"""
    CLI_MODULES = {"cli", "errors", "labels", "quantum", "records"}
    WORLD_MODULES = CLI_MODULES | {"worlds"}
    ANALYSIS_MODULES = WORLD_MODULES | {"analysis", "formulas", "semantics"}
    ARGPARSE = {"argparse", "gettext", "locale"}

    @staticmethod
    def command(name):
        """``hardyworlds.commands`` and its module ``name``, as a run loads them."""
        return {"commands", f"commands.{name}"}

    IMPORT_SETS = {
        "import hardyworlds": (None, set()),
        "hardy-scan": (["hardy-scan", "--steps", "10"], CLI_MODULES | command("hardy_scan")),
        "model show": (["model", "show"], WORLD_MODULES | command("model")),
        "check": (
            ["check", "L2 => (R1 []-> R1-)"],
            WORLD_MODULES | {"formulas", "semantics"} | command("check"),
        ),
        "suite": (["suite"], ANALYSIS_MODULES | command("suite")),
        "flow": (["flow", "--frame", "r-first"], ANALYSIS_MODULES | command("flow")),
        "frames": (["frames", "--family", "0.2"], ANALYSIS_MODULES | command("frames")),
        "lhv": (["lhv", "--locality", "lightcone"], ANALYSIS_MODULES | command("lhv")),
        "suite --expect": (
            ["suite", "--expect", os.devnull],
            ANALYSIS_MODULES | command("suite") | {"commands.expectations"},
        ),
        "hardy-scan --expect": (
            ["hardy-scan", "--expect", os.devnull],
            CLI_MODULES | command("hardy_scan") | {"commands.expectations"},
        ),
    }

    def loaded_modules(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", self.IMPORT_CHILD.format(argv=argv)],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        *_, code, modules, stdlib = proc.stdout.splitlines()
        return int(code), set(modules.split()), set(stdlib.split())

    @pytest.mark.parametrize("argv, expected", IMPORT_SETS.values(), ids=IMPORT_SETS)
    def test_each_run_imports_only_the_layers_it_needs(self, argv, expected):
        # a plain command line loads no argparse, and text output no json
        assert self.loaded_modules(argv) == (0, expected, set())

    @pytest.mark.parametrize("command", ["model show", "hardy-scan", "suite"])
    def test_json_output_loads_json(self, command):
        code, _, stdlib = self.loaded_modules([*command.split(), "--format", "json"])
        assert (code, stdlib) == (0, {"json"})

    def test_model_file_loads_modelio(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(*canonical_hardy_model(), path)
        loaded = self.loaded_modules(["model", "show", "--file", str(path)])
        expected = self.WORLD_MODULES | self.command("model") | {"modelio"}
        assert loaded == (0, expected, {"json"})

    # argv: exit code
    ARGPARSE_RUNS = {
        "suite --help": 0,
        "check -h": 0,
        "suite --epsilon 0.5": 2,
        "hardy-scan --steps 5": 2,
        "suite --model canonical --file x": 2,
    }

    @pytest.mark.parametrize("argv", ARGPARSE_RUNS)
    def test_help_and_usage_errors_load_argparse(self, argv):
        loaded = self.loaded_modules(argv.split())
        assert loaded == (self.ARGPARSE_RUNS[argv], self.CLI_MODULES, self.ARGPARSE)
