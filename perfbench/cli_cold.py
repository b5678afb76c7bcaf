"""cli-cold: expected results of one CLI invocation and the parsing of what
the CLI printed, in both output formats.

``expected`` works from the reference alone; ``observed`` reads the CLI's
stdout into the same shape.  A field the text format does not print is left
out of the observation and so not compared.
"""

from __future__ import annotations

import json
import re

import reference as ref
from inputs import Invocation

PROBABILITY_TOL = 1e-9  # text prints nine decimals; JSON is compared as text too


def expected(inv: Invocation, cache: dict) -> dict:
    if inv.command == "hardy-scan":
        return {"exit": 0, "p_best": ref.HARDY_MAX}
    key = inv.source.label
    if key not in cache:
        cache[key] = inv.source.probabilities()
    probabilities = cache[key]
    model = ref.Model(probabilities, inv.frame)
    if inv.command == "model show":
        return {"exit": 0, "worlds": [(w, probabilities[w]) for w in model.worlds]}
    if inv.command == "check":
        holds, witnesses, flags = ref.check(model, inv.formula, inv.locality)
        return {
            "exit": 1 if inv.strict and not holds else 0,
            "formula": ref.render(inv.formula),
            "report": _report(holds, witnesses, flags),
        }
    if inv.command == "suite":
        return {
            "exit": 0,
            "statements": {
                name: _report(*r) for name, r in ref.suite(model, inv.locality).items()
            },
        }
    if inv.command == "flow":
        flow = ref.flow(model, inv.locality)
        return {
            "exit": 0,
            "f_of_L2": flow["f_of_L2"],
            "f_of_L1": flow["f_of_L1"],
            "dependent": flow["dependent"],
            "witness": flow["witness"],
        }
    if inv.command == "frames":
        frames = ref.frames(probabilities)
        return {
            "exit": 0,
            "suites": {
                key: {name: _report(*r) for name, r in suite.items()}
                for key, suite in frames["suites"].items()
            },
            "divergence": frames["divergence"],
            "stmt1_frame_dependent": frames["stmt1_frame_dependent"],
        }
    if inv.command == "lhv":
        lhv = ref.lhv(probabilities)
        return {
            "exit": 0,
            "feasible": lhv["feasible"],
            "excluded": len(lhv["excluded"]),
            "survivors": sorted(lhv["survivors"]),
        }
    raise ValueError(f"unknown subcommand {inv.command!r}")


def _report(holds, witnesses, flags) -> dict:
    return {
        "holds": holds,
        "witnesses": list(witnesses),
        "vacuous": [(w, ref.render(cf)) for w, cf in flags],
    }


def mismatches(inv: Invocation, want: dict, returncode: int, stdout: str) -> list[str]:
    """Differences between the expected and the printed result."""
    if returncode != want["exit"]:
        return [f"exit code {returncode}, expected {want['exit']}"]
    try:
        got = observed(inv, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    return list(_diff(want, got, inv.command))


def _diff(want, got, path):
    if isinstance(got, dict):
        for key, value in got.items():
            if key not in want:
                yield f"{path}.{key}: not expected"
            else:
                yield from _diff(want[key], value, f"{path}.{key}")
    elif isinstance(got, float):
        if abs(got - want) > PROBABILITY_TOL:
            yield f"{path}: {got!r} != {want!r}"
    elif isinstance(got, list) and got and isinstance(got[0], tuple) and isinstance(got[0][1], float):
        if [w for w, _ in got] != [w for w, _ in want]:
            yield f"{path}: worlds {got} != {want}"
        elif any(abs(p - q) > PROBABILITY_TOL for (_, p), (_, q) in zip(got, want)):
            yield f"{path}: probabilities differ"
    elif got != want:
        yield f"{path}: {got!r} != {want!r}"


# ------------------------------------------------------------ observation

def observed(inv: Invocation, stdout: str) -> dict:
    if inv.output_format == "json":
        return _from_json(inv.command, json.loads(stdout))
    return _from_text(inv.command, stdout.splitlines())


def _world(doc) -> tuple:
    return (doc["left_setting"], doc["right_setting"], doc["left_outcome"], doc["right_outcome"])


def _report_json(doc) -> dict:
    return {
        "holds": doc["holds"],
        "witnesses": [_world(w) for w in doc["witnesses"]],
        "vacuous": [(_world(f["world"]), f["counterfactual"]) for f in doc["vacuous_flags"]],
    }


def _from_json(command: str, doc: dict) -> dict:
    if command == "hardy-scan":
        return {"p_best": float(doc["p_best"])}
    if command == "model show":
        return {"worlds": [(_world(w), float(w["probability"])) for w in doc["worlds"]]}
    if command == "check":
        return {"formula": doc["formula"], "report": _report_json(doc)}
    if command == "suite":
        return {"statements": {n: _report_json(r) for n, r in doc["statements"].items()}}
    if command == "flow":
        witness = doc["witness"]
        return {
            "f_of_L2": doc["f_of_L2"],
            "f_of_L1": doc["f_of_L1"],
            "dependent": doc["dependent"],
            "witness": _world(witness) if witness else None,
        }
    if command == "frames":
        divergence = doc["divergence"]
        return {
            "suites": {
                key: {n: _report_json(r) for n, r in suite["statements"].items()}
                for key, suite in doc["suites"].items()
            },
            "divergence": (
                (_world(divergence["world"]), dict(divergence["results"]))
                if divergence
                else None
            ),
            "stmt1_frame_dependent": doc["stmt1_frame_dependent"],
        }
    if command == "lhv":
        survivors = [
            tuple(s[k] for k in ("L1", "L2", "R1", "R2")) for s in doc["surviving_strategies"]
        ]
        return {
            "feasible": doc["feasible"],
            "excluded": len(doc["excluded_strategies"]),
            "survivors": sorted(survivors),
        }
    raise ValueError(command)


_BOOL = {"true": True, "false": False}
_WORLD_LINE = re.compile(r"(L[12]) (R[12]) ([+-]) ([+-]) p=([0-9.]+)")
_VACUOUS = re.compile(r"vacuous: (.*) at \((L[12]),(R[12]),([+-]),([+-])\)$")


def _value(lines: list[str], prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise KeyError(f"no line starting {prefix!r}")


def _world_of(text: str) -> tuple:
    match = _WORLD_LINE.match(text)
    if not match:
        raise ValueError(f"not a world line: {text!r}")
    return match.group(1, 2, 3, 4)


def _text_report(lines: list[str]) -> dict:
    """Witness and vacuous lines (indented or not) that follow a verdict."""
    witnesses, vacuous = [], []
    for line in lines:
        line = line.strip()
        if line.startswith("witness: "):
            witnesses.append(_world_of(line[len("witness: "):]))
        elif line.startswith("vacuous: "):
            match = _VACUOUS.match(line)
            if not match:
                raise ValueError(f"not a vacuous line: {line!r}")
            vacuous.append((match.group(2, 3, 4, 5), match.group(1)))
    return {"witnesses": witnesses, "vacuous": vacuous}


def _from_text(command: str, lines: list[str]) -> dict:
    if command == "hardy-scan":
        return {"p_best": float(_value(lines, "p_best:").split()[0])}
    if command == "model show":
        worlds = []
        for line in lines:
            match = _WORLD_LINE.match(line)
            if not match:
                raise ValueError(f"not a world line: {line!r}")
            worlds.append((match.group(1, 2, 3, 4), float(match.group(5))))
        return {"worlds": worlds}
    if command == "check":
        report = {"holds": _BOOL[_value(lines, "holds:")], **_text_report(lines)}
        return {"formula": _value(lines, "formula:"), "report": report}
    if command == "suite":
        statements, current = {}, None
        for line in lines:
            match = re.match(r"(stmt\d): holds=(true|false)", line)
            if match:
                current = match.group(1)
                statements[current] = {"holds": _BOOL[match.group(2)], "lines": []}
            elif current and line.startswith("  "):
                statements[current]["lines"].append(line)
        if set(statements) != {"stmt1", "stmt2", "stmt3"}:
            raise ValueError(f"suite printed {sorted(statements)}")
        return {
            "statements": {
                name: {"holds": s["holds"], **_text_report(s["lines"])}
                for name, s in statements.items()
            }
        }
    if command == "flow":
        witness = [line for line in lines if line.startswith("witness: ")]
        return {
            "f_of_L2": _BOOL[_value(lines, "f(L2):")],
            "f_of_L1": _BOOL[_value(lines, "f(L1):")],
            "dependent": _BOOL[_value(lines, "dependent:")],
            "witness": _world_of(witness[0][len("witness: "):]) if witness else None,
        }
    if command == "frames":
        suites, current, results = {}, None, {}
        divergence = None
        for line in lines:
            header = re.match(r"\[(.+)\]$", line)
            verdict = re.match(r"(stmt\d): holds=(true|false)$", line)
            if header:
                current = header.group(1)
                suites[current] = {}
            elif verdict and current:
                suites[current][verdict.group(1)] = {"holds": _BOOL[verdict.group(2)]}
            elif line.startswith("divergence: "):
                at = line.rsplit(" at world ", 1)[1].split()
                divergence = (tuple(at), results)
            elif divergence and line.startswith("  "):
                key, value = line.strip().split(": ")
                results[key] = _BOOL[value]
        return {
            "suites": suites,
            "divergence": divergence,
            "stmt1_frame_dependent": _BOOL[_value(lines, "stmt1 frame-dependent under loc1:")],
        }
    if command == "lhv":
        excluded = _value(lines, "excluded strategies:").split()
        return {"feasible": _BOOL[_value(lines, "feasible:")], "excluded": int(excluded[0])}
    raise ValueError(command)
