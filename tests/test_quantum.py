import math
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardyworlds.errors import DomainError, InvalidModelError
from hardyworlds.labels import OUTCOMES, SETTING_PAIRS, Outcome, Setting
from hardyworlds import quantum
from hardyworlds.quantum import (
    CELL_INDEX,
    CELLS,
    COMPUTATIONAL_BASIS,
    BipartiteState,
    ExperimentConfig,
    JointProbabilityTable,
    MeasurementBasis,
    canonical_hardy_model,
    hardy_family,
    hardy_scan,
    _family_h4,
    joint_probability,
    probability_table,
    verify_hardy_constraints,
)
from oracles import HARDY_MAX, born_probability, brute_force_table, closed_form_h4

HARDY_ARGMAX = (3.0 - math.sqrt(5.0)) / 2.0

SQRT3 = math.sqrt(3.0)
SQRT2 = math.sqrt(2.0)
D_PLUS = (1.0 / SQRT2, -1.0 / SQRT2)
D_MINUS = (1.0 / SQRT2, 1.0 / SQRT2)


def normalized(parts):
    """Unit complex vector from interleaved real and imaginary parts."""
    vector = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
    norm = math.sqrt(sum(abs(v) ** 2 for v in vector))
    assume(norm > 1e-3)
    return tuple(v / norm for v in vector)


def unit_parts(components):
    return st.lists(
        st.floats(min_value=-1.0, max_value=1.0),
        min_size=2 * components,
        max_size=2 * components,
    )


def random_basis(parts):
    """Orthonormal basis whose plus vector is normalized(parts)."""
    a, b = normalized(parts)
    return MeasurementBasis(plus=(a, b), minus=(-b.conjugate(), a.conjugate()))


def row_sum(table, left_setting, right_setting):
    return sum(
        table.entries[(left_setting, right_setting, lo, ro)]
        for lo in OUTCOMES
        for ro in OUTCOMES
    )


def product_state(left_vector, right_vector):
    return BipartiteState(
        tuple(
            complex(left_vector[l]) * complex(right_vector[r])
            for l in (0, 1)
            for r in (0, 1)
        )
    )


class TestBipartiteState:
    def test_canonical_amplitudes(self, canonical_pair):
        state, _ = canonical_pair
        expected = (1 / SQRT3, 1 / SQRT3, 1 / SQRT3, 0.0)
        for got, want in zip(state.amplitudes, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidModelError):
            BipartiteState((1.0, 1.0, 0.0, 0.0))

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidModelError):
            BipartiteState((1.0, 0.0, 0.0))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidModelError):
            BipartiteState((float("nan"), 0.0, 0.0, 0.0))

    def test_accepts_tiny_rounding(self):
        BipartiteState((math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0))


class TestMeasurementBasis:
    def test_rejects_non_unit(self):
        with pytest.raises(InvalidModelError):
            MeasurementBasis(plus=(1.0, 1.0), minus=(1.0, -1.0))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(InvalidModelError):
            MeasurementBasis(plus=(1.0, 0.0), minus=(1 / SQRT2, 1 / SQRT2))

    def test_complex_phases_allowed(self):
        MeasurementBasis(plus=(1 / SQRT2, 1j / SQRT2), minus=(1 / SQRT2, -1j / SQRT2))


NAN = float("nan")
INF = float("inf")
STATE = BipartiteState((1.0, 0.0, 0.0, 0.0))

# Each fault once, with the exact message it raises.  A norm 2e-12 off 1 is
# rejected and 5e-13 off is accepted, either side of the 1e-12 tolerance.
VALIDATION_MESSAGES = {
    "state length": (
        lambda: BipartiteState((1.0, 0.0, 0.0)),
        "a bipartite state needs exactly 4 amplitudes",
    ),
    "state nan": (
        lambda: BipartiteState((1.0, NAN, 0.0, 0.0)),
        "state amplitude is not finite",
    ),
    "state inf": (
        lambda: BipartiteState((1.0, 0.0, complex(0.0, INF), 0.0)),
        "state amplitude is not finite",
    ),
    "state norm high": (
        lambda: BipartiteState((1.0 + 2e-12, 0.0, 0.0, 0.0)),
        "state is not normalized: |psi| = 1.000000000002 differs from 1 "
        "by more than 1e-12",
    ),
    "state norm low": (
        lambda: BipartiteState((0.0, 0.0, 0.0, 1.0 - 2e-12)),
        "state is not normalized: |psi| = 0.999999999998 differs from 1 "
        "by more than 1e-12",
    ),
    "basis plus length": (
        lambda: MeasurementBasis(plus=(1.0,), minus=(0.0, 1.0)),
        "basis plus vector must have exactly 2 components",
    ),
    "basis minus length": (
        lambda: MeasurementBasis(plus=(1.0, 0.0), minus=(0.0, 1.0, 0.0)),
        "basis minus vector must have exactly 2 components",
    ),
    "basis plus nan": (
        lambda: MeasurementBasis(plus=(NAN, 0.0), minus=(0.0, 1.0)),
        "basis plus vector has a non-finite component",
    ),
    "basis minus inf": (
        lambda: MeasurementBasis(plus=(1.0, 0.0), minus=(0.0, complex(0.0, INF))),
        "basis minus vector has a non-finite component",
    ),
    "basis plus norm": (
        lambda: MeasurementBasis(plus=(1.0 + 2e-12, 0.0), minus=(0.0, 1.0)),
        "basis plus vector is not a unit vector (norm 1.000000000002)",
    ),
    "basis minus norm": (
        lambda: MeasurementBasis(plus=(1.0, 0.0), minus=(0.0, 1.0 + 2e-12)),
        "basis minus vector is not a unit vector (norm 1.000000000002)",
    ),
    "basis overlap": (
        lambda: MeasurementBasis(plus=(1.0, 0.0), minus=(2e-12, 1.0)),
        "basis vectors are not orthogonal (overlap 2e-12)",
    ),
    "joint left length": (
        lambda: joint_probability(STATE, (1.0,), (0.0, 1.0)),
        "left vector must have exactly 2 components",
    ),
    "joint right length": (
        lambda: joint_probability(STATE, (1.0, 0.0), (0.0, 1.0, 0.0)),
        "right vector must have exactly 2 components",
    ),
    "joint left nan": (
        lambda: joint_probability(STATE, (NAN, 0.0), (0.0, 1.0)),
        "left vector has a non-finite component",
    ),
    "joint right inf": (
        lambda: joint_probability(STATE, (1.0, 0.0), (INF, 1.0)),
        "right vector has a non-finite component",
    ),
    "joint left norm": (
        lambda: joint_probability(STATE, (1.0 + 2e-12, 0.0), (0.0, 1.0)),
        "left vector is not a unit vector (norm 1.000000000002)",
    ),
    "joint right norm": (
        lambda: joint_probability(STATE, (1.0, 0.0), (0.0, 1.0 + 2e-12)),
        "right vector is not a unit vector (norm 1.000000000002)",
    ),
    # A finite component above about 1.3e154 overflows the sum of squares
    # (or abs itself, for a complex one); the norm then reads inf.  Below
    # that, a huge norm is still computed and printed.
    "state large": (
        lambda: BipartiteState((1e150, 0.0, 0.0, 0.0)),
        "state is not normalized: |psi| = 1e+150 differs from 1 by more than 1e-12",
    ),
    "state huge": (
        lambda: BipartiteState((1e200, 0.0, 0.0, 0.0)),
        "state is not normalized: |psi| = inf differs from 1 by more than 1e-12",
    ),
    "state huge complex": (
        lambda: BipartiteState((0.0, 0.0, 0.0, complex(1e300, 1e300))),
        "state is not normalized: |psi| = inf differs from 1 by more than 1e-12",
    ),
    "basis plus huge": (
        lambda: MeasurementBasis(plus=(1e200, 0.0), minus=(0.0, 1.0)),
        "basis plus vector is not a unit vector (norm inf)",
    ),
    "basis minus huge": (
        lambda: MeasurementBasis(plus=(1.0, 0.0), minus=(0.0, 1e200)),
        "basis minus vector is not a unit vector (norm inf)",
    ),
    "joint left huge": (
        lambda: joint_probability(STATE, (1e200, 0.0), (0.0, 1.0)),
        "left vector is not a unit vector (norm inf)",
    ),
    "joint right huge": (
        lambda: joint_probability(STATE, (1.0, 0.0), (0.0, 1e200)),
        "right vector is not a unit vector (norm inf)",
    ),
}


@pytest.mark.parametrize(
    "build, message", VALIDATION_MESSAGES.values(), ids=VALIDATION_MESSAGES
)
def test_validation_message(build, message):
    with pytest.raises(InvalidModelError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_validation_accepts_values_within_tolerance():
    BipartiteState((1.0 + 5e-13, 0.0, 0.0, 0.0))
    BipartiteState((0.0, 0.0, 0.0, 1.0 - 5e-13))
    MeasurementBasis(plus=(1.0 + 5e-13, 0.0), minus=(0.0, 1.0 - 5e-13))
    MeasurementBasis(plus=(1.0, 0.0), minus=(5e-13, 1.0))
    joint_probability(STATE, (1.0 + 5e-13, 0.0), (0.0, 1.0 - 5e-13))
    # the two vectors belong to different regions, so they need not be
    # orthogonal to each other
    assert joint_probability(STATE, (1.0, 0.0), (1.0, 0.0)) == 1.0


class TestExperimentConfig:
    def test_requires_both_labels(self):
        with pytest.raises(InvalidModelError):
            ExperimentConfig(
                left={1: COMPUTATIONAL_BASIS},
                right={1: COMPUTATIONAL_BASIS, 2: COMPUTATIONAL_BASIS},
            )

    def test_basis_lookup(self, canonical_pair):
        _, config = canonical_pair
        assert config.basis_for(Setting.L2) == COMPUTATIONAL_BASIS
        assert config.basis_for(Setting.R1) == COMPUTATIONAL_BASIS


class TestJointProbability:
    def test_projecting_onto_itself(self):
        state = product_state(D_PLUS, (0.0, 1.0))
        assert joint_probability(state, D_PLUS, (0.0, 1.0)) == pytest.approx(1.0)

    def test_canonical_diagonal_pair(self, canonical_pair):
        state, _ = canonical_pair
        assert joint_probability(state, D_PLUS, D_PLUS) == pytest.approx(
            1.0 / 12.0, abs=1e-12
        )

    def test_matches_oracle_on_canonical(self, canonical_pair):
        state, config = canonical_pair
        for ls, rs in SETTING_PAIRS:
            for lo in OUTCOMES:
                for ro in OUTCOMES:
                    lv = config.vector_for(ls, lo)
                    rv = config.vector_for(rs, ro)
                    assert joint_probability(state, lv, rv) == pytest.approx(
                        born_probability(state.amplitudes, lv, rv), abs=1e-12
                    )

    @settings(max_examples=300, deadline=None)
    @given(unit_parts(4), unit_parts(2), unit_parts(2))
    def test_matches_oracle_on_random_states(self, amps, left, right):
        state = BipartiteState(normalized(amps))
        lv, rv = normalized(left), normalized(right)
        assert joint_probability(state, lv, rv) == pytest.approx(
            born_probability(state.amplitudes, lv, rv), abs=1e-15
        )

    def test_rejects_non_unit_vector(self, canonical_pair):
        state, _ = canonical_pair
        with pytest.raises(InvalidModelError):
            joint_probability(state, (1.0, 1.0), (0.0, 1.0))
        with pytest.raises(InvalidModelError):
            joint_probability(state, (0.0, 1.0), (0.5, 0.5))

    def test_within_unit_interval(self, canonical_pair):
        state, config = canonical_pair
        for ls, rs in SETTING_PAIRS:
            for lo in OUTCOMES:
                for ro in OUTCOMES:
                    p = joint_probability(
                        state, config.vector_for(ls, lo), config.vector_for(rs, ro)
                    )
                    assert 0.0 <= p <= 1.0


CANONICAL_ROWS = {
    (Setting.L1, Setting.R1): {
        ("+", "+"): 1 / 6, ("+", "-"): 0.0, ("-", "+"): 1 / 6, ("-", "-"): 2 / 3,
    },
    (Setting.L1, Setting.R2): {
        ("+", "+"): 1 / 12, ("+", "-"): 1 / 12, ("-", "+"): 1 / 12, ("-", "-"): 3 / 4,
    },
    (Setting.L2, Setting.R1): {
        ("+", "+"): 0.0, ("+", "-"): 1 / 3, ("-", "+"): 1 / 3, ("-", "-"): 1 / 3,
    },
    (Setting.L2, Setting.R2): {
        ("+", "+"): 1 / 6, ("+", "-"): 1 / 6, ("-", "+"): 0.0, ("-", "-"): 2 / 3,
    },
}


class TestProbabilityTable:
    def test_canonical_values(self, canonical_table):
        for (ls, rs), row in CANONICAL_ROWS.items():
            for (lo, ro), expected in row.items():
                got = canonical_table.entries[
                    (ls, rs, Outcome.from_symbol(lo), Outcome.from_symbol(ro))
                ]
                assert got == pytest.approx(expected, abs=1e-9), (ls, rs, lo, ro)

    def test_matches_brute_force_oracle(self, canonical_pair, canonical_table):
        state, config = canonical_pair
        oracle = brute_force_table(state, config)
        for key, expected in oracle.items():
            assert canonical_table.entries[key] == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(unit_parts(4), unit_parts(2), unit_parts(2), unit_parts(2), unit_parts(2))
    def test_cells_equal_joint_probability_exactly(self, amps, l1, l2, r1, r2):
        state = BipartiteState(normalized(amps))
        config = ExperimentConfig(
            left={1: random_basis(l1), 2: random_basis(l2)},
            right={1: random_basis(r1), 2: random_basis(r2)},
        )
        self.assert_cells_equal_joint_probability(state, config)

    @staticmethod
    def assert_cells_equal_joint_probability(state, config):
        table = probability_table(state, config)
        for key in CELLS:
            ls, rs, lo, ro = key
            assert table.entries[key] == joint_probability(
                state, config.vector_for(ls, lo), config.vector_for(rs, ro)
            ), key

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True))
    def test_family_cells_equal_joint_probability_exactly(self, x):
        # probability_table conjugates the amplitudes once per table,
        # joint_probability once per call; both sum through _born
        self.assert_cells_equal_joint_probability(*hardy_family(x))

    def test_family_grid_cells_equal_joint_probability_exactly(self):
        # hardy_scan's default grid
        for j in range(1000):
            self.assert_cells_equal_joint_probability(*hardy_family(0.5 * (j + 1) / 1001))

    def test_entries_iterate_in_cell_order(self, canonical_table):
        assert tuple(canonical_table.entries) == CELLS
        shuffled = list(canonical_table.entries.items())
        random.Random(4).shuffle(shuffled)
        rebuilt = JointProbabilityTable(dict(shuffled))
        assert tuple(rebuilt.entries) == CELLS
        assert rebuilt == canonical_table

    def test_entries_is_a_read_only_view_of_values(self, canonical_table):
        entries, values = canonical_table.entries, canonical_table.values
        assert len(values) == len(entries) == 16
        assert all(entries[cell] is values[i] for i, cell in enumerate(CELLS))
        assert list(entries.keys()) == list(CELLS)
        missing = (Setting.L1, Setting.L2, Outcome.PLUS, Outcome.PLUS)
        assert missing not in entries and CELLS[5] in entries
        assert entries.get(missing) is None and entries.get(CELLS[5]) is values[5]
        with pytest.raises(KeyError) as raised:
            entries[missing]
        assert raised.value.args == (missing,)
        with pytest.raises(TypeError):
            entries[CELLS[0]] = 0.5
        with pytest.raises(TypeError):
            hash(entries)
        assert entries != dict(zip(CELLS, values[::-1]))

    def test_a_view_is_checked_like_a_mapping(self, canonical_table):
        values = (-0.5, *canonical_table.values[1:])
        with pytest.raises(InvalidModelError, match="is negative: -0.5"):
            JointProbabilityTable(quantum.TableEntries(values))

    def test_cells_are_in_lexicographic_order(self):
        # left setting, right setting, left outcome, right outcome; plus
        # before minus
        keys = [
            (ls.index, rs.index, OUTCOMES.index(lo), OUTCOMES.index(ro))
            for ls, rs, lo, ro in CELLS
        ]
        assert keys == sorted(keys) and len(set(CELLS)) == 16
        assert OUTCOMES == (Outcome.PLUS, Outcome.MINUS)
        assert list(CELL_INDEX) == list(CELLS)
        assert list(CELL_INDEX.values()) == list(range(16))

    def test_rows_sum_to_one(self, canonical_table):
        for ls, rs in SETTING_PAIRS:
            assert row_sum(canonical_table, ls, rs) == pytest.approx(1.0, abs=1e-9)

    def test_exact_zeros(self, canonical_table):
        assert canonical_table.entries[
            (Setting.L2, Setting.R2, Outcome.MINUS, Outcome.PLUS)
        ] < 1e-12
        assert canonical_table.entries[
            (Setting.L2, Setting.R1, Outcome.PLUS, Outcome.PLUS)
        ] < 1e-12
        assert canonical_table.entries[
            (Setting.L1, Setting.R1, Outcome.PLUS, Outcome.MINUS)
        ] < 1e-12

    def test_side_swap_symmetry(self, canonical_table):
        # swapping regions while transposing the setting indices 1<->2 and
        # the outcome slots leaves the table invariant
        flip = {Setting.L1: Setting.R2, Setting.L2: Setting.R1,
                Setting.R1: Setting.L2, Setting.R2: Setting.L1}
        for (ls, rs, lo, ro), p in canonical_table.entries.items():
            mirrored = canonical_table.entries[(flip[rs], flip[ls], ro, lo)]
            assert p == pytest.approx(mirrored, abs=1e-12)

    def test_constructor_rejects_incomplete(self):
        with pytest.raises(InvalidModelError):
            JointProbabilityTable(
                {(Setting.L1, Setting.R1, Outcome.PLUS, Outcome.PLUS): 1.0}
            )

    def test_constructor_rejects_negative(self, canonical_table):
        entries = dict(canonical_table.entries)
        key = next(iter(entries))
        entries[key] = -0.5
        with pytest.raises(InvalidModelError):
            JointProbabilityTable(entries)

    def test_validate_rows_flags_degenerate(self, canonical_table):
        entries = {key: 0.0 for key in canonical_table.entries}
        degenerate = JointProbabilityTable(entries)
        with pytest.raises(InvalidModelError):
            degenerate.validate_rows()


class TestHardyFamily:
    def test_one_third_reproduces_canonical(self, canonical_table):
        state, config = hardy_family(1.0 / 3.0)
        table = probability_table(state, config)
        for key, p in canonical_table.entries.items():
            assert table.entries[key] == pytest.approx(p, abs=1e-12)

    def test_quarter_h4(self):
        state, config = hardy_family(0.25)
        table = probability_table(state, config)
        h4 = table.entries[(Setting.L1, Setting.R2, Outcome.PLUS, Outcome.PLUS)]
        assert h4 == pytest.approx(1.0 / 18.0, abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, 0.5, -0.1, 0.7, 1.0])
    def test_domain_errors(self, x):
        with pytest.raises(DomainError):
            hardy_family(x)

    def test_exact_zeros_across_family(self):
        rng = random.Random(20240817)
        for _ in range(100):
            x = rng.uniform(1e-6, 0.5 - 1e-6)
            state, config = hardy_family(x)
            table = probability_table(state, config)
            assert table.entries[
                (Setting.L2, Setting.R2, Outcome.MINUS, Outcome.PLUS)
            ] < 1e-12
            assert table.entries[
                (Setting.L2, Setting.R1, Outcome.PLUS, Outcome.PLUS)
            ] < 1e-12
            assert table.entries[
                (Setting.L1, Setting.R1, Outcome.PLUS, Outcome.MINUS)
            ] < 1e-12

    def test_h4_closed_form_agreement(self):
        rng = random.Random(97)
        for _ in range(100):
            x = rng.uniform(0.01, 0.49)
            state, config = hardy_family(x)
            table = probability_table(state, config)
            h4 = table.entries[(Setting.L1, Setting.R2, Outcome.PLUS, Outcome.PLUS)]
            assert h4 == pytest.approx(closed_form_h4(x), abs=1e-9)

    def test_row_sums_across_family(self):
        rng = random.Random(3)
        for _ in range(100):
            x = rng.uniform(0.001, 0.499)
            state, config = hardy_family(x)
            table = probability_table(state, config)
            for ls, rs in SETTING_PAIRS:
                assert row_sum(table, ls, rs) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_across_family(self):
        flip = {Setting.L1: Setting.R2, Setting.L2: Setting.R1,
                Setting.R1: Setting.L2, Setting.R2: Setting.L1}
        for x in (0.05, 0.25, 0.45):
            state, config = hardy_family(x)
            table = probability_table(state, config)
            for (ls, rs, lo, ro), p in table.entries.items():
                assert p == pytest.approx(
                    table.entries[(flip[rs], flip[ls], ro, lo)], abs=1e-12
                )


class TestVerifyHardyConstraints:
    def test_canonical_satisfied(self, canonical_table):
        report = verify_hardy_constraints(canonical_table, 1e-9)
        assert report.satisfied
        assert report.failures == ()
        assert report.h1_zero < 1e-12
        assert report.h2_zero < 1e-12
        assert report.h3_zero < 1e-12
        assert report.h4_positive == pytest.approx(1.0 / 12.0, abs=1e-9)
        assert report.nonvacuous == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_family_satisfied(self):
        rng = random.Random(11)
        for _ in range(25):
            x = rng.uniform(0.01, 0.49)
            state, config = hardy_family(x)
            report = verify_hardy_constraints(probability_table(state, config))
            assert report.satisfied, x

    def test_product_state_fails(self, canonical_pair):
        # |00> with the canonical bases: h1 = 1/2 breaks first, h4 = 1/4
        _, config = canonical_pair
        table = probability_table(product_state((1.0, 0.0), (1.0, 0.0)), config)
        report = verify_hardy_constraints(table)
        assert not report.satisfied
        assert report.failures[0] == "h1"
        oracle_h1 = born_probability(
            (1.0, 0.0, 0.0, 0.0),
            COMPUTATIONAL_BASIS.minus,
            config.basis_for(Setting.R2).plus,
        )
        assert report.h1_zero == pytest.approx(oracle_h1, abs=1e-12)
        assert report.h1_zero == pytest.approx(0.5, abs=1e-9)

    def test_uniform_table_fails(self, uniform_table):
        report = verify_hardy_constraints(uniform_table)
        assert not report.satisfied
        assert report.failures == ("h1", "h2", "h3")

    def test_epsilon_must_be_positive(self, canonical_table):
        with pytest.raises(DomainError):
            verify_hardy_constraints(canonical_table, 0.0)
        with pytest.raises(DomainError):
            verify_hardy_constraints(canonical_table, -1e-3)


# (x_best, p_best) of earlier releases, which the scan must keep bit for bit
SCAN_PINS = {
    10: (0.3819660105314106, 0.09016994374947428),
    50: (0.38196601125010515, 0.09016994374947428),
    1000: (0.3819660135246769, 0.09016994374947428),
    2000: (0.38196601422904614, 0.09016994374947428),
}


def sampled_grid_sizes(count, rng):
    """``count`` grid sizes drawn log-uniformly from about 400 to 100,000."""
    return sorted(int(10 ** rng.uniform(2.6, 5.0)) for _ in range(count))


def exhaustive_scan(steps):
    """The scan as it was before bisection: every grid point evaluated,
    the first maximal one kept, then the same bracket and refinement."""
    grid = [0.5 * (j + 1) / (steps + 1) for j in range(steps)]
    values = [_family_h4(x) for x in grid]
    best = max(range(steps), key=values.__getitem__)
    lo = grid[best - 1] if best > 0 else grid[0] / 2.0
    hi = grid[best + 1] if best < steps - 1 else (grid[-1] + 0.5) / 2.0
    refined_x, refined_p = quantum._golden_section_max(_family_h4, lo, hi, 1e-10)
    x_best, p_best = grid[best], values[best]
    if refined_p > p_best:
        x_best, p_best = refined_x, refined_p
    return x_best, p_best


class TestHardyScan:
    def test_rejects_small_grids(self):
        for steps in (0, 1, 9):
            with pytest.raises(DomainError):
                hardy_scan(steps)

    @pytest.mark.parametrize("steps", [10.9, 50.0, "50", True, None, 1e3])
    def test_rejects_steps_that_are_not_ints(self, steps):
        with pytest.raises(DomainError) as excinfo:
            hardy_scan(steps)
        assert str(excinfo.value) == (
            f"scan steps must be an integer, got {steps!r}"
        )

    def test_bisection_equals_the_exhaustive_scan_on_small_grids(self):
        for steps in range(10, 401):
            assert hardy_scan(steps) == exhaustive_scan(steps), steps

    @pytest.mark.parametrize(
        "steps",
        sampled_grid_sizes(20, random.Random(9)) + [100_000],
    )
    def test_bisection_equals_the_exhaustive_scan(self, steps):
        assert hardy_scan(steps) == exhaustive_scan(steps)

    def test_coarse_grid_still_converges(self):
        x_best, p_best = hardy_scan(10)
        assert p_best >= 0.08
        assert p_best == pytest.approx(HARDY_MAX, abs=1e-4)
        assert 0.0 < x_best < 0.5

    def test_fine_grid_hits_analytic_maximum(self):
        start = time.perf_counter()
        x_best, p_best = hardy_scan(1000)
        elapsed = time.perf_counter() - start
        assert p_best == pytest.approx(HARDY_MAX, abs=1e-4)
        assert closed_form_h4(x_best) == pytest.approx(p_best, abs=1e-9)
        assert elapsed < 1.0

    def test_deterministic(self):
        assert hardy_scan(50) == hardy_scan(50)

    def test_scan_h4_equals_joint_probability_exactly(self):
        rng = random.Random(17)
        grid = [0.5 * (j + 1) / 1001 for j in range(0, 1000, 37)]
        for x in grid + [rng.uniform(1e-6, 0.5 - 1e-6) for _ in range(50)]:
            state, config = hardy_family(x)
            expected = joint_probability(
                state,
                config.vector_for(Setting.L1, Outcome.PLUS),
                config.vector_for(Setting.R2, Outcome.PLUS),
            )
            assert _family_h4(x) == expected, x

    @pytest.mark.parametrize("steps", [10, 1000])
    def test_refinement_reaches_the_analytic_optimum(self, steps):
        x_best, p_best = hardy_scan(steps)
        assert abs(p_best - HARDY_MAX) <= 1e-12
        assert abs(x_best - HARDY_ARGMAX) <= 1e-8

    @pytest.mark.parametrize("steps, expected", SCAN_PINS.items(), ids=str)
    def test_scan_is_pinned_bit_for_bit(self, steps, expected):
        assert hardy_scan(steps) == expected

    @pytest.mark.parametrize("x", [0.0, 0.5, -1.0, math.nan, math.inf])
    def test_family_h4_domain_errors(self, x):
        with pytest.raises(DomainError):
            _family_h4(x)

    def test_rejects_large_grids_before_allocating(self):
        # were the bound missing, the bisecting scan would return within
        # milliseconds and the DomainError check would fail; the memory peak
        # guards against per-point lists coming back
        for steps in (1_000_001, 10**12):
            tracemalloc.start()
            try:
                with pytest.raises(DomainError) as excinfo:
                    hardy_scan(steps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(excinfo.value) == (
                f"scan takes at most 1000000 steps, got {steps}"
            )
            assert peak < 64 * 1024

    def test_float_path_equals_the_table_cell(self, monkeypatch):
        evaluated = []
        family_h4 = quantum._family_h4

        def recording(x):
            evaluated.append(x)
            return family_h4(x)

        monkeypatch.setattr(quantum, "_family_h4", recording)
        hardy_scan(1000)
        monkeypatch.undo()
        assert len(evaluated) == 57
        h4 = (Setting.L1, Setting.R2, Outcome.PLUS, Outcome.PLUS)
        for x in evaluated:
            assert _family_h4(x) == probability_table(*hardy_family(x)).entries[h4], x

    def test_scan_builds_no_records(self, monkeypatch):
        built = {BipartiteState: 0, MeasurementBasis: 0}
        for record in built:
            init = record.__init__

            def counting(self, *args, _init=init, _record=record, **kwargs):
                built[_record] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(record, "__init__", counting)
        hardy_scan(1000)
        assert built == {BipartiteState: 0, MeasurementBasis: 0}
        hardy_family(0.2)
        assert built == {BipartiteState: 1, MeasurementBasis: 1}
