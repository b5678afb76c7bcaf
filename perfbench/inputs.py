"""Seeded inputs for the three workloads.

Every generator takes a ``random.Random`` built from the workload name and
the run's seed, so one seed always gives the same inputs.  Nothing here
imports ``hardyworlds``: the package only ever sees the generated values.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

from reference import (
    EPSILON,
    FRAMES,
    LEFT_SETTINGS,
    LOCALITIES,
    RIGHT_SETTINGS,
    SETTINGS,
    family,
    family_h4,
    from_document,
    render,
    render_minimal,
    signalling_table,
    table,
    uniform_table,
)

ATOMS = tuple(("S", s) for s in SETTINGS) + tuple(
    ("O", s, o) for s in SETTINGS for o in ("+", "-")
)
# a cell this close to epsilon could fall on either side of it through
# rounding alone, so generated models keep every cell away from it
EPSILON_MARGIN = 1e-6


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


# --------------------------------------------------------------- formulas

def random_formula(rng: random.Random, depth: int):
    """Entailment-free formula whose deepest path has exactly ``depth``
    connectives."""
    if depth == 0:
        return rng.choice(ATOMS)
    kind = rng.choice(("not", "and", "or", "imp", "cf"))
    if kind == "not":
        return ("not", random_formula(rng, depth - 1))
    if kind == "cf":
        return ("cf", rng.choice(SETTINGS), random_formula(rng, depth - 1))
    deep = random_formula(rng, depth - 1)
    other = random_formula(rng, rng.randint(0, depth - 1))
    return (kind, deep, other) if rng.random() < 0.5 else (kind, other, deep)


def random_claim(rng: random.Random, depth: int):
    """A formula of ``depth`` 1-6; about a third are ``A => C`` claims."""
    if rng.random() < 0.35:
        return (
            "ent",
            random_formula(rng, rng.randint(0, depth - 1)),
            random_formula(rng, depth - 1),
        )
    return random_formula(rng, depth)


def claim_text(rng: random.Random, formula) -> str:
    if rng.random() < 0.5:
        return render(formula)
    return render_minimal(formula, rng)


class FormulaStream:
    """Endless stream of (formula, text) pairs with pairwise distinct texts.

    Depth is drawn uniformly from 1-6.  A text already seen is redrawn one
    level deeper, since the small depths hold only a few hundred texts.
    Only text hashes are kept, so memory grows by one int per formula.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[int] = set()

    def take(self, count: int) -> list:
        items = []
        while len(items) < count:
            depth = self.rng.randint(1, 6)
            while True:
                formula = random_claim(self.rng, depth)
                text = claim_text(self.rng, formula)
                if hash(text) not in self.seen:
                    break
                depth = min(depth + 1, 6)
            self.seen.add(hash(text))
            items.append((formula, text))
        return items


# ----------------------------------------------------------------- models

@dataclass(frozen=True)
class Source:
    """Where a model comes from: ``canonical``, a family member ``x``, a
    model document, or one of the ``uniform`` and ``signalling`` tables,
    which have no state."""

    kind: str
    x: float = 0.0
    document: dict | None = field(default=None, compare=False, hash=False)
    label: str = ""

    def probabilities(self) -> dict:
        if self.kind == "canonical":
            return table(*family(1.0 / 3.0))
        if self.kind == "family":
            return table(*family(self.x))
        if self.kind == "document":
            return table(*from_document(self.document))
        if self.kind == "signalling":
            return signalling_table()
        return uniform_table()


def well_separated(probabilities: dict) -> bool:
    """No cell within EPSILON_MARGIN (relative) of epsilon, and every
    setting pair keeps a possible world."""
    if any(abs(p - EPSILON) <= EPSILON_MARGIN * EPSILON for p in probabilities.values()):
        return False
    return all(
        any(p > EPSILON for (a, b, _, _), p in probabilities.items() if (a, b) == (ls, rs))
        for ls in LEFT_SETTINGS
        for rs in RIGHT_SETTINGS
    )


def family_source(rng: random.Random, low: float, high: float) -> Source:
    while True:
        x = rng.uniform(low, high)
        if 0.0 < x < 0.5 and well_separated(table(*family(x))):
            return Source("family", x=x, label=f"family:{x!r}")


def near_threshold_source(rng: random.Random, low: float, high: float) -> Source:
    """Family member whose Hardy cell h4 lies in [low, high] * epsilon."""
    while True:
        target = rng.uniform(low, high) * EPSILON
        lo, hi = 1e-9, 0.01  # h4 rises monotonically on this interval
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if family_h4(mid) < target else (lo, mid)
        x = 0.5 * (lo + hi)
        if well_separated(table(*family(x))):
            return Source("family", x=x, label=f"family:{x!r}")


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def _basis(theta: float, phi: float):
    plus = (complex(math.cos(theta)), cmath.exp(1j * phi) * math.sin(theta))
    minus = (-cmath.exp(-1j * phi) * math.sin(theta), complex(math.cos(theta)))
    return plus, minus


def document(amplitudes, bases) -> dict:
    """Model document (nested form) for amplitudes and a setting->basis map
    whose values are (plus, minus) vector pairs."""
    doc = {"amplitudes": [_pair(a) for a in amplitudes]}
    for side, letter in (("left", "L"), ("right", "R")):
        doc[side] = {
            f"basis{i}": [[_pair(v) for v in vec] for vec in bases[f"{letter}{i}"]]
            for i in (1, 2)
        }
    return doc


def random_document_source(rng: random.Random, index: int) -> Source:
    """A generic entangled state with random complex bases."""
    while True:
        raw = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
        amplitudes = [a / norm for a in raw]
        bases = {
            s: _basis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            for s in SETTINGS
        }
        doc = document(amplitudes, bases)
        if well_separated(table(*from_document(doc))):
            return Source("document", document=doc, label=f"document:{index}")


def chsh_document_source() -> Source:
    """(|00>+|11>)/sqrt(2) with left angles 0, pi/4 and right angles
    +-pi/8: the table reaches CHSH S = 2 sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    amplitudes = [complex(r), 0j, 0j, complex(r)]
    angles = {"L1": 0.0, "L2": math.pi / 4, "R1": math.pi / 8, "R2": -math.pi / 8}
    bases = {s: _basis(theta, 0.0) for s, theta in angles.items()}
    return Source("document", document=document(amplitudes, bases), label="document:chsh")


def family_document(x: float) -> dict:
    """Family member ``x`` written out as a full-precision model document."""
    amplitudes, bases = family(x)
    return document(amplitudes, {s: (bases[s]["+"], bases[s]["-"]) for s in SETTINGS})


# -------------------------------------------------------------- workloads

def formula_models(seed: int) -> list[tuple[Source, str]]:
    """check-formulas: six sources, each in both frames."""
    rng = rng_for("check-formulas", seed, "models")
    sources = [
        Source("canonical", label="canonical"),
        family_source(rng, 0.05, 0.45),
        near_threshold_source(rng, 1.5, 6.0),
        Source("uniform", label="uniform"),
        Source("signalling", label="signalling"),
        random_document_source(rng, 0),
    ]
    return [(source, frame) for source in sources for frame in FRAMES]


def sweep_items(seed: int) -> list[tuple[Source, str, str]]:
    """family-sweep: (source, frame, locality) for 76 models.

    48 family members, one in each 1/96-wide slice of (0, 1/2), the
    canonical member, two near-threshold members (h4 just above and just
    below epsilon), 24 random documents and the CHSH document.  Frames and
    localities are spread evenly over the shuffled list.
    """
    rng = rng_for("family-sweep", seed, "items")
    sources = [family_source(rng, j / 96, (j + 1) / 96) for j in range(48)]
    sources.append(Source("canonical", label="canonical"))
    sources.append(near_threshold_source(rng, 1.5, 6.0))
    sources.append(near_threshold_source(rng, 0.2, 0.7))
    sources.extend(random_document_source(rng, i) for i in range(24))
    sources.append(chsh_document_source())
    rng.shuffle(sources)
    return [
        (source, FRAMES[k % 2], LOCALITIES[(k // 2) % 2])
        for k, source in enumerate(sources)
    ]


SUBCOMMANDS = ("model show", "check", "suite", "flow", "frames", "lhv", "hardy-scan")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: subcommand, model source, and the common flags."""

    command: str
    source: Source | None
    source_flag: str
    frame: str
    locality: str
    output_format: str
    formula: tuple | None = None
    formula_text: str = ""
    strict: bool = False

    def argv(self, model_path: str) -> list[str]:
        args = self.command.split()
        if self.formula is not None:
            args.append(self.formula_text)
        if self.source_flag == "--model canonical":
            args += ["--model", "canonical"]
        elif self.source_flag == "--family":
            args += ["--family", repr(self.source.x)]
        elif self.source_flag == "--file":
            args += ["--file", model_path]
        args += ["--frame", self.frame, "--locality", self.locality]
        args += ["--format", self.output_format]
        if self.strict:
            args.append("--strict")
        return args


def cli_file_x(seed: int) -> float:
    return rng_for("cli-cold", seed, "file").uniform(0.1, 0.4)


def cli_round(seed: int, number: int, file_source: Source) -> list[Invocation]:
    """Round ``number`` of the cli-cold mix: every subcommand once, in a
    seeded order.  The six model-reading subcommands get each of the
    sources canonical (default or explicit), --family and --file twice."""
    rng = rng_for("cli-cold", seed, f"round{number}")
    flags = ["", "--model canonical", "--family", "--family", "--file", "--file"]
    rng.shuffle(flags)
    invocations = []
    for command in SUBCOMMANDS:
        flag = "" if command == "hardy-scan" else flags.pop()
        if flag == "--family":
            source = family_source(rng, 0.05, 0.45)
        elif flag == "--file":
            source = file_source
        else:
            source = Source("canonical", label="canonical")
        formula, text = None, ""
        if command == "check":
            formula = random_claim(rng, rng.randint(2, 5))
            text = claim_text(rng, formula)
        invocations.append(
            Invocation(
                command=command,
                source=source,
                source_flag=flag,
                frame=rng.choice(FRAMES),
                locality=rng.choice(LOCALITIES),
                output_format=rng.choice(("text", "json")),
                formula=formula,
                formula_text=text,
                strict=command == "check" and rng.random() < 0.5,
            )
        )
    rng.shuffle(invocations)
    return invocations
