"""The benchmark's seeded models get the divergence example its independent
reference expects, so a change to how the package picks that example fails
here rather than as failed benchmark operations."""

import sys
from pathlib import Path

import pytest

from hardyworlds.analysis import frame_comparison
from hardyworlds.modelio import parse_model
from hardyworlds.quantum import canonical_hardy_model, hardy_family, probability_table

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (1, 2, 3, 7)
ROUNDS = 40  # more than a 25 s cli-cold run reaches


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``inputs`` and ``reference`` modules, imported without
    writing bytecode next to them."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        import inputs
        import reference
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    return inputs, reference


def package_table(source):
    if source.kind == "canonical":
        return probability_table(*canonical_hardy_model())
    if source.kind == "family":
        return probability_table(*hardy_family(source.x))
    return probability_table(*parse_model(source.document))


def sources(inputs, seed):
    """The seed's family-sweep sources and cli-cold's file and family sources."""
    found = [source for source, _, _ in inputs.sweep_items(seed)]
    file_source = inputs.Source(
        "document", document=inputs.family_document(inputs.cli_file_x(seed)), label="file"
    )
    found.append(file_source)
    for number in range(ROUNDS):
        for inv in inputs.cli_round(seed, number, file_source):
            if inv.source_flag == "--family":
                found.append(inv.source)
    return found


@pytest.mark.parametrize("seed", SEEDS)
def test_divergence_matches_the_reference(bench, seed):
    inputs, reference = bench
    for source in sources(inputs, seed):
        want = reference.frames(source.probabilities())["divergence"]
        divergence = frame_comparison(package_table(source)).divergence
        got = divergence and (tuple(divergence.world.label().split()), dict(divergence.results))
        assert got == want, source.label
