"""The CLI's help and usage texts, byte for byte.

argparse wraps help to the terminal width, so every test fixes COLUMNS=80.
"""

import pytest

from hardyworlds.cli import main

TOP_USAGE = "usage: hardyworlds [-h] {model,check,suite,flow,frames,lhv,hardy-scan} ...\n"

TOP_HELP = TOP_USAGE + """
Possible-world and counterfactual analysis of Hardy-type two-qubit
experiments.

positional arguments:
  {model,check,suite,flow,frames,lhv,hardy-scan}
    model               inspect the chosen model
    check               evaluate one formula
    suite               run the statement suite
    flow                left-choice dependence of the right-region statement
    frames              compare frames and locality policies
    lhv                 local deterministic strategy feasibility
    hardy-scan          maximize h4 over the family

options:
  -h, --help            show this help message and exit
"""

MODEL_USAGE = "usage: hardyworlds model [-h] {show} ...\n"

MODEL_HELP = MODEL_USAGE + """
positional arguments:
  {show}
    show      list the possible worlds

options:
  -h, --help  show this help message and exit
"""

COMMON_OPTIONS = """\
  -h, --help            show this help message and exit
  --model SOURCE        canonical, family:<x>, or file:<path> (default:
                        canonical)
  --family X            shorthand for --model family:<x>
  --file PATH           shorthand for --model file:<path>
  --epsilon EPSILON     possibility threshold in (0, 0.1) (default: 1e-09)
  --frame {l-first,r-first}
                        time order of the regions (default: l-first)
  --locality {lightcone,loc1}
                        outcome protection policy (default: loc1)
  --format {text,json}  output format (default: text)
  --strict              exit 1 when a check result is false
  --expect PATH         file of name=true|false assertions; exit 1 on any
                        mismatch
"""

MODEL_SHOW_HELP = """\
usage: hardyworlds model show [-h] [--model SOURCE | --family X | --file PATH]
                              [--epsilon EPSILON] [--frame {l-first,r-first}]
                              [--locality {lightcone,loc1}]
                              [--format {text,json}] [--strict]
                              [--expect PATH]

options:
""" + COMMON_OPTIONS

CHECK_HELP = """\
usage: hardyworlds check [-h] [--model SOURCE | --family X | --file PATH]
                         [--epsilon EPSILON] [--frame {l-first,r-first}]
                         [--locality {lightcone,loc1}] [--format {text,json}]
                         [--strict] [--expect PATH]
                         formula

positional arguments:
  formula               formula text, e.g. 'L2 => (R1 []-> R1-)'

options:
""" + COMMON_OPTIONS


def plain_help(command):
    """The help of a subcommand that takes only the common options."""
    usage = f"usage: hardyworlds {command} "
    indent = " " * len(usage)
    return (
        f"{usage}[-h] [--model SOURCE | --family X | --file PATH]\n"
        f"{indent}[--epsilon EPSILON] [--frame {{l-first,r-first}}]\n"
        f"{indent}[--locality {{lightcone,loc1}}] [--format {{text,json}}]\n"
        f"{indent}[--strict] [--expect PATH]\n"
        "\noptions:\n" + COMMON_OPTIONS
    )


HARDY_SCAN_HELP = """\
usage: hardyworlds hardy-scan [-h] [--model SOURCE | --family X | --file PATH]
                              [--epsilon EPSILON] [--frame {l-first,r-first}]
                              [--locality {lightcone,loc1}]
                              [--format {text,json}] [--strict]
                              [--expect PATH] [--steps STEPS]

options:
""" + COMMON_OPTIONS + """\
  --steps STEPS         grid steps, 10 to 1000000 (default: 1000)
"""

# argv -> (exit code, stdout, stderr)
CASES = {
    "--help": (0, TOP_HELP, ""),
    "-h": (0, TOP_HELP, ""),
    "model --help": (0, MODEL_HELP, ""),
    "model show --help": (0, MODEL_SHOW_HELP, ""),
    "check --help": (0, CHECK_HELP, ""),
    "suite --help": (0, plain_help("suite"), ""),
    "flow --help": (0, plain_help("flow"), ""),
    "frames --help": (0, plain_help("frames"), ""),
    "lhv --help": (0, plain_help("lhv"), ""),
    "hardy-scan --help": (0, HARDY_SCAN_HELP, ""),
    "": (
        2,
        "",
        TOP_USAGE + "hardyworlds: error: the following arguments are required: command\n",
    ),
    "nope": (
        2,
        "",
        TOP_USAGE + "hardyworlds: error: argument command: invalid choice: 'nope' "
        "(choose from 'model', 'check', 'suite', 'flow', 'frames', 'lhv', "
        "'hardy-scan')\n",
    ),
    "model": (
        2,
        "",
        MODEL_USAGE + "hardyworlds model: error: the following arguments are "
        "required: action\n",
    ),
    "--epsilon 1e-3 suite": (
        2,
        "",
        TOP_USAGE + "hardyworlds: error: argument command: invalid choice: '1e-3' "
        "(choose from 'model', 'check', 'suite', 'flow', 'frames', 'lhv', "
        "'hardy-scan')\n",
    ),
}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: argv or "no-arguments")
def test_help_and_usage_texts(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == CASES[argv]
