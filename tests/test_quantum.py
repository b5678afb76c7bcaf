import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardyworlds.errors import DomainError, InvalidModelError
from hardyworlds.labels import OUTCOMES, SETTING_PAIRS, Outcome, Setting
from hardyworlds.quantum import (
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
                got = canonical_table.prob(
                    ls, rs, Outcome.from_symbol(lo), Outcome.from_symbol(ro)
                )
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
        table = probability_table(state, config)
        for key in CELLS:
            ls, rs, lo, ro = key
            assert table.entries[key] == joint_probability(
                state, config.vector_for(ls, lo), config.vector_for(rs, ro)
            ), key

    def test_entries_iterate_in_cell_order(self, canonical_table):
        assert tuple(canonical_table.entries) == CELLS
        shuffled = list(canonical_table.entries.items())
        random.Random(4).shuffle(shuffled)
        rebuilt = JointProbabilityTable(dict(shuffled))
        assert tuple(rebuilt.entries) == CELLS
        assert rebuilt == canonical_table

    def test_cells_are_in_sort_key_order(self):
        keys = [
            (ls.index, rs.index, lo.sort_index, ro.sort_index)
            for ls, rs, lo, ro in CELLS
        ]
        assert keys == sorted(keys) and len(set(CELLS)) == 16

    def test_rows_sum_to_one(self, canonical_table):
        for ls, rs in SETTING_PAIRS:
            assert canonical_table.row_sum(ls, rs) == pytest.approx(1.0, abs=1e-9)

    def test_exact_zeros(self, canonical_table):
        assert canonical_table.prob(
            Setting.L2, Setting.R2, Outcome.MINUS, Outcome.PLUS
        ) < 1e-12
        assert canonical_table.prob(
            Setting.L2, Setting.R1, Outcome.PLUS, Outcome.PLUS
        ) < 1e-12
        assert canonical_table.prob(
            Setting.L1, Setting.R1, Outcome.PLUS, Outcome.MINUS
        ) < 1e-12

    def test_side_swap_symmetry(self, canonical_table):
        # swapping regions while transposing the setting indices 1<->2 and
        # the outcome slots leaves the table invariant
        flip = {Setting.L1: Setting.R2, Setting.L2: Setting.R1,
                Setting.R1: Setting.L2, Setting.R2: Setting.L1}
        for (ls, rs, lo, ro), p in canonical_table.entries.items():
            mirrored = canonical_table.prob(flip[rs], flip[ls], ro, lo)
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
        h4 = table.prob(Setting.L1, Setting.R2, Outcome.PLUS, Outcome.PLUS)
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
            assert table.prob(Setting.L2, Setting.R2, Outcome.MINUS, Outcome.PLUS) < 1e-12
            assert table.prob(Setting.L2, Setting.R1, Outcome.PLUS, Outcome.PLUS) < 1e-12
            assert table.prob(Setting.L1, Setting.R1, Outcome.PLUS, Outcome.MINUS) < 1e-12

    def test_h4_closed_form_agreement(self):
        rng = random.Random(97)
        for _ in range(100):
            x = rng.uniform(0.01, 0.49)
            state, config = hardy_family(x)
            table = probability_table(state, config)
            h4 = table.prob(Setting.L1, Setting.R2, Outcome.PLUS, Outcome.PLUS)
            assert h4 == pytest.approx(closed_form_h4(x), abs=1e-9)

    def test_row_sums_across_family(self):
        rng = random.Random(3)
        for _ in range(100):
            x = rng.uniform(0.001, 0.499)
            state, config = hardy_family(x)
            table = probability_table(state, config)
            for ls, rs in SETTING_PAIRS:
                assert table.row_sum(ls, rs) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_across_family(self):
        flip = {Setting.L1: Setting.R2, Setting.L2: Setting.R1,
                Setting.R1: Setting.L2, Setting.R2: Setting.L1}
        for x in (0.05, 0.25, 0.45):
            state, config = hardy_family(x)
            table = probability_table(state, config)
            for (ls, rs, lo, ro), p in table.entries.items():
                assert p == pytest.approx(
                    table.prob(flip[rs], flip[ls], ro, lo), abs=1e-12
                )


class TestVerifyHardyConstraints:
    def test_canonical_satisfied(self, canonical_table):
        report = verify_hardy_constraints(canonical_table, 1e-9)
        assert report.satisfied
        assert report.failures == ()
        assert report.first_failure is None
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
        assert report.first_failure == "h1"
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


class TestHardyScan:
    def test_rejects_small_grids(self):
        for steps in (0, 1, 9):
            with pytest.raises(DomainError):
                hardy_scan(steps)

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
