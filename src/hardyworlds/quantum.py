"""Two-qubit Hardy experiments: states, bases, and joint outcome statistics.

Conventions
-----------
A bipartite state is four complex amplitudes in the product computational
basis, ordered 00, 01, 10, 11; the first bit belongs to the left region and
the second to the right region.  A two-outcome measurement is an orthonormal
basis (plus, minus) of C^2.  An experiment configuration assigns one basis
to each setting label 1 and 2 on each side.  The joint probability of a pair
of outcomes is the Born rule value |<lv (x) rv|psi>|^2.

The Hardy family
----------------
``hardy_family(x)`` builds, for x in (0, 1/2), the state with amplitudes

    (sqrt(1-2x), sqrt(x), sqrt(x), 0)

measured as follows: setting 2 on the left and setting 1 on the right use
the computational basis with plus identified with |1>; setting 1 on the left
and setting 2 on the right use a tilted basis whose plus vector

    (sqrt(x), -sqrt(1-2x)) / sqrt(1-x)

is orthogonal to the reduced vector the far side leaves behind with a
computational minus outcome.  That orthogonality makes three joint
probabilities vanish identically in x:

    h1  P(L2-, R2+ | L2, R2) = 0
    h2  P(L2+, R1+ | L2, R1) = 0
    h3  P(L1+, R1- | L1, R1) = 0

while h4 = P(L1+, R2+ | L1, R2) = (1-2x) x^2 / (1-x)^2 stays strictly
positive, as does P(L2+, R2+ | L2, R2) = x^2 / (1-x).  These five facts are
exactly what the possible-world analysis downstream consumes.  The canonical
model is the member x = 1/3, with amplitudes (1, 1, 1, 0)/sqrt(3) and
h4 = 1/12.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, InvalidModelError
from .labels import (
    LEFT_SETTINGS,
    OUTCOMES,
    RIGHT_SETTINGS,
    SETTING_PAIRS,
    Outcome,
    Region,
    Setting,
)

NORMALIZATION_TOL = 1e-12
ROW_SUM_TOL = 1e-9

ComplexVector = tuple[complex, complex]
TableKey = tuple[Setting, Setting, Outcome, Outcome]

# The 16 table cells in sort_key order: left setting, right setting, left
# outcome, right outcome, plus before minus.  Cell i of a table is CELLS[i],
# and the four cells of setting pair k are CELLS[4k:4k+4].
CELLS: tuple[TableKey, ...] = tuple(
    product(LEFT_SETTINGS, RIGHT_SETTINGS, OUTCOMES, OUTCOMES)
)
_CELL_SET = frozenset(CELLS)


def _as_complex_pair(vector: Sequence[complex], what: str) -> ComplexVector:
    values = tuple(complex(v) for v in vector)
    if len(values) != 2:
        raise InvalidModelError(f"{what} must have exactly 2 components")
    if not all(cmath.isfinite(v) for v in values):
        raise InvalidModelError(f"{what} has a non-finite component")
    return values


def _norm(vector: Iterable[complex]) -> float:
    return math.sqrt(sum(abs(v) ** 2 for v in vector))


@dataclass(frozen=True)
class BipartiteState:
    """Pure state of the left-right qubit pair.

    ``amplitudes`` holds the four computational-basis amplitudes in the
    order 00, 01, 10, 11 and must be normalized within 1e-12.
    """

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        values = tuple(complex(v) for v in self.amplitudes)
        if len(values) != 4:
            raise InvalidModelError("a bipartite state needs exactly 4 amplitudes")
        if not all(cmath.isfinite(v) for v in values):
            raise InvalidModelError("state amplitude is not finite")
        norm = _norm(values)
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise InvalidModelError(
                f"state is not normalized: |psi| = {norm!r} differs from 1 "
                f"by more than {NORMALIZATION_TOL}"
            )
        object.__setattr__(self, "amplitudes", values)

    def amplitude(self, left_bit: int, right_bit: int) -> complex:
        return self.amplitudes[2 * left_bit + right_bit]


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal two-outcome basis; ``plus`` and ``minus`` are unit vectors."""

    plus: ComplexVector
    minus: ComplexVector

    def __post_init__(self) -> None:
        plus = _as_complex_pair(self.plus, "basis plus vector")
        minus = _as_complex_pair(self.minus, "basis minus vector")
        for name, vec in (("plus", plus), ("minus", minus)):
            norm = _norm(vec)
            if abs(norm - 1.0) > NORMALIZATION_TOL:
                raise InvalidModelError(
                    f"basis {name} vector is not a unit vector (norm {norm!r})"
                )
        overlap = abs(plus[0].conjugate() * minus[0] + plus[1].conjugate() * minus[1])
        if overlap > NORMALIZATION_TOL:
            raise InvalidModelError(
                f"basis vectors are not orthogonal (overlap {overlap!r})"
            )
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def vector(self, outcome: Outcome) -> ComplexVector:
        return self.plus if outcome is Outcome.PLUS else self.minus


COMPUTATIONAL_BASIS = MeasurementBasis(plus=(0, 1), minus=(1, 0))


@dataclass(frozen=True)
class ExperimentConfig:
    """Basis assignment for both regions, keyed by setting label 1 and 2."""

    left: Mapping[int, MeasurementBasis]
    right: Mapping[int, MeasurementBasis]

    def __post_init__(self) -> None:
        for side, mapping in (("left", self.left), ("right", self.right)):
            if set(mapping) != {1, 2}:
                raise InvalidModelError(
                    f"{side} bases must be keyed by setting labels 1 and 2"
                )
            if not all(isinstance(b, MeasurementBasis) for b in mapping.values()):
                raise InvalidModelError(f"{side} bases must be MeasurementBasis values")
        object.__setattr__(self, "left", MappingProxyType(dict(self.left)))
        object.__setattr__(self, "right", MappingProxyType(dict(self.right)))

    def basis_for(self, setting: Setting) -> MeasurementBasis:
        side = self.left if setting.region is Region.LEFT else self.right
        return side[setting.index]

    def vector_for(self, setting: Setting, outcome: Outcome) -> ComplexVector:
        return self.basis_for(setting).vector(outcome)


@dataclass(frozen=True)
class JointProbabilityTable:
    """Conditional outcome distribution for each of the four setting pairs.

    ``entries`` maps (left setting, right setting, left outcome, right
    outcome) to a probability and iterates in ``CELLS`` order.  The
    constructor checks completeness and nonnegativity; ``validate_rows``
    additionally checks that each setting pair's four probabilities sum to 1,
    which holds for every table produced by ``probability_table`` but can be
    skipped for deliberately degenerate tables used to exercise error paths.
    """

    entries: Mapping[TableKey, float]

    def __post_init__(self) -> None:
        entries = dict(self.entries)
        if set(entries) != _CELL_SET:
            raise InvalidModelError(
                "table must contain exactly the 16 setting/outcome combinations"
            )
        if tuple(entries) != CELLS:
            entries = {key: entries[key] for key in CELLS}
        for key, value in entries.items():
            p = float(value)
            if not math.isfinite(p):
                raise InvalidModelError(f"probability for {key} is not finite")
            if p < 0.0:
                raise InvalidModelError(f"probability for {key} is negative: {p!r}")
            # storing hashes the tuple-of-enum key again, so only converted
            # values are stored back
            if type(value) is not float:
                entries[key] = p
        object.__setattr__(self, "entries", MappingProxyType(entries))

    def prob(
        self,
        left_setting: Setting,
        right_setting: Setting,
        left_outcome: Outcome,
        right_outcome: Outcome,
    ) -> float:
        return self.entries[(left_setting, right_setting, left_outcome, right_outcome)]

    def row(
        self, left_setting: Setting, right_setting: Setting
    ) -> dict[tuple[Outcome, Outcome], float]:
        return {
            (lo, ro): self.prob(left_setting, right_setting, lo, ro)
            for lo in OUTCOMES
            for ro in OUTCOMES
        }

    def row_sum(self, left_setting: Setting, right_setting: Setting) -> float:
        return sum(self.row(left_setting, right_setting).values())

    def validate_rows(self, tol: float = ROW_SUM_TOL) -> None:
        values = tuple(self.entries.values())
        for k, (ls, rs) in enumerate(SETTING_PAIRS):
            total = sum(values[4 * k : 4 * k + 4])
            if abs(total - 1.0) > tol:
                raise InvalidModelError(
                    f"outcome probabilities for ({ls}, {rs}) sum to {total!r}, "
                    f"not 1 within {tol}"
                )


@dataclass(frozen=True)
class HardyConstraintReport:
    """The three zeros and two strict positivities of a Hardy experiment.

    ``failures`` lists the names of violated constraints in the fixed order
    h1, h2, h3, h4, nonvacuous; ``satisfied`` is true when it is empty.
    """

    h1_zero: float
    h2_zero: float
    h3_zero: float
    h4_positive: float
    nonvacuous: float
    epsilon: float
    satisfied: bool
    failures: tuple[str, ...] = field(default=())

    @property
    def first_failure(self) -> str | None:
        return self.failures[0] if self.failures else None


def _born(
    amplitudes: tuple[complex, complex, complex, complex],
    left_vector: ComplexVector,
    right_vector: ComplexVector,
) -> float:
    """|<lv (x) rv|psi>|^2 for already validated amplitudes and vectors."""
    l0, l1 = left_vector[0].conjugate(), left_vector[1].conjugate()
    r0, r1 = right_vector[0].conjugate(), right_vector[1].conjugate()
    a00, a01, a10, a11 = amplitudes
    # grouped by left bit, the order numpy.einsum summed in, so tables match
    # earlier releases bit for bit
    amplitude = (l0 * r0 * a00 + l0 * r1 * a01) + (l1 * r0 * a10 + l1 * r1 * a11)
    return min(max(abs(amplitude) ** 2, 0.0), 1.0)


def joint_probability(
    state: BipartiteState,
    left_vector: Sequence[complex],
    right_vector: Sequence[complex],
) -> float:
    """Born rule probability of projecting ``state`` onto lv (x) rv.

    Both vectors must be unit vectors within 1e-12.
    """
    lv = _as_complex_pair(left_vector, "left vector")
    rv = _as_complex_pair(right_vector, "right vector")
    for name, vec in (("left", lv), ("right", rv)):
        norm = _norm(vec)
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise InvalidModelError(
                f"{name} vector is not a unit vector (norm {norm!r})"
            )
    return _born(state.amplitudes, lv, rv)


def probability_table(
    state: BipartiteState, config: ExperimentConfig
) -> JointProbabilityTable:
    """Full conditional outcome table of ``state`` under ``config``.

    The state and the bases validated their vectors when they were built,
    so each cell is a bare Born sum.
    """
    left = [[config.vector_for(s, o) for o in OUTCOMES] for s in LEFT_SETTINGS]
    right = [[config.vector_for(s, o) for o in OUTCOMES] for s in RIGHT_SETTINGS]
    # the same nesting as CELLS: setting pair, then outcome pair
    probabilities = (
        _born(state.amplitudes, lv, rv)
        for lvs, rvs in product(left, right)
        for lv, rv in product(lvs, rvs)
    )
    table = JointProbabilityTable(dict(zip(CELLS, probabilities)))
    table.validate_rows()
    return table


def _family_state_and_tilt(x: float) -> tuple[BipartiteState, MeasurementBasis]:
    """The state of member x and its tilted basis, both validated."""
    x = float(x)
    if not 0.0 < x < 0.5:
        raise DomainError(f"family parameter must lie strictly in (0, 1/2), got {x!r}")
    alpha = math.sqrt(1.0 - 2.0 * x)
    beta = math.sqrt(x)
    state = BipartiteState((alpha, beta, beta, 0.0))
    scale = math.sqrt(1.0 - x)
    tilted = MeasurementBasis(
        plus=(beta / scale, -alpha / scale),
        minus=(alpha / scale, beta / scale),
    )
    return state, tilted


def hardy_family(x: float) -> tuple[BipartiteState, ExperimentConfig]:
    """Member x of the one-parameter Hardy family; requires 0 < x < 1/2.

    The three h-zeros hold exactly by construction and
    h4 = (1-2x) x^2 / (1-x)^2 > 0.
    """
    state, tilted = _family_state_and_tilt(x)
    config = ExperimentConfig(
        left={1: tilted, 2: COMPUTATIONAL_BASIS},
        right={1: COMPUTATIONAL_BASIS, 2: tilted},
    )
    return state, config


def canonical_hardy_model() -> tuple[BipartiteState, ExperimentConfig]:
    """The x = 1/3 family member: amplitudes (1, 1, 1, 0)/sqrt(3).

    Left setting 2 and right setting 1 measure in the computational basis
    with plus identified with |1>; left setting 1 and right setting 2 use
    the tilted basis with plus proportional to |0> - |1>.
    """
    return hardy_family(1.0 / 3.0)


def verify_hardy_constraints(
    table: JointProbabilityTable, epsilon: float = 1e-9
) -> HardyConstraintReport:
    """Check the table against the Hardy conditions at threshold ``epsilon``.

    The zeros h1, h2, h3 must not exceed epsilon; h4 and the nonvacuity
    probability P(L2+, R2+ | L2, R2) must strictly exceed it.
    """
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    h1 = table.prob(Setting.L2, Setting.R2, Outcome.MINUS, Outcome.PLUS)
    h2 = table.prob(Setting.L2, Setting.R1, Outcome.PLUS, Outcome.PLUS)
    h3 = table.prob(Setting.L1, Setting.R1, Outcome.PLUS, Outcome.MINUS)
    h4 = table.prob(Setting.L1, Setting.R2, Outcome.PLUS, Outcome.PLUS)
    nonvacuous = table.prob(Setting.L2, Setting.R2, Outcome.PLUS, Outcome.PLUS)
    failures: list[str] = []
    if h1 > epsilon:
        failures.append("h1")
    if h2 > epsilon:
        failures.append("h2")
    if h3 > epsilon:
        failures.append("h3")
    if not h4 > epsilon:
        failures.append("h4")
    if not nonvacuous > epsilon:
        failures.append("nonvacuous")
    return HardyConstraintReport(
        h1_zero=h1,
        h2_zero=h2,
        h3_zero=h3,
        h4_positive=h4,
        nonvacuous=nonvacuous,
        epsilon=epsilon,
        satisfied=not failures,
        failures=tuple(failures),
    )


def _family_h4(x: float) -> float:
    """h4 = P(L1+, R2+ | L1, R2) of member x: both settings use the tilted
    basis, so this is the table cell without building the configuration."""
    state, tilted = _family_state_and_tilt(x)
    return _born(state.amplitudes, tilted.plus, tilted.plus)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Maximum of a unimodal ``f`` on [lo, hi], bracketed to width ``xtol``.

    Each step keeps the golden-ratio interior point with the larger value,
    so it costs one evaluation of ``f``.
    """
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xtol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc > fd else (d, fd)


def hardy_scan(steps: int = 1000) -> tuple[float, float]:
    """Maximize h4 over the family by grid search plus golden-section
    refinement around the best grid point.

    Returns (x_best, p_best).  ``steps`` is the number of interior grid
    points and must be at least 10.
    """
    steps = int(steps)
    if steps < 10:
        raise DomainError(f"scan needs at least 10 grid steps, got {steps}")
    grid = [0.5 * (j + 1) / (steps + 1) for j in range(steps)]
    values = [_family_h4(x) for x in grid]
    best = max(range(steps), key=values.__getitem__)
    lo = grid[best - 1] if best > 0 else grid[0] / 2.0
    hi = grid[best + 1] if best < steps - 1 else (grid[-1] + 0.5) / 2.0
    refined_x, refined_p = _golden_section_max(_family_h4, lo, hi, 1e-10)
    x_best, p_best = grid[best], values[best]
    if refined_p > p_best:
        x_best, p_best = refined_x, refined_p
    return x_best, p_best

