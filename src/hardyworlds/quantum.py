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
exactly what the possible-world analysis downstream consumes; ``HARDY_CELLS``
lists their cells once, in that order.  The canonical
model is the member x = 1/3, with amplitudes (1, 1, 1, 0)/sqrt(3) and
h4 = 1/12.  ``hardy_scan`` maximizes h4 over x; it evaluates each member from
checked float tuples through ``_born``, the Born sum behind every table cell.
h4 rises to its peak (5 sqrt(5) - 11)/2 at x = (3 - sqrt(5))/2 and then
falls, so the scan bisects its grid for the point where h4 stops rising.
That needs the float values to be unimodal too, which has been checked on
grids of up to 1,000,000 points, the largest the scan accepts.
"""

from __future__ import annotations

import math
from cmath import isfinite
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from itertools import product
from types import MappingProxyType
from typing import Sequence

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
from .records import Record

EPSILON_DEFAULT = 1e-9
EPSILON_MAX = 0.1
NORMALIZATION_TOL = 1e-12
ROW_SUM_TOL = 1e-9
SCAN_STEPS_MAX = 1_000_000

ComplexVector = tuple[complex, complex]
TableKey = tuple[Setting, Setting, Outcome, Outcome]

# The 16 table cells, ordered by left setting, right setting, left outcome,
# right outcome, plus before minus.  Cell i of a table is CELLS[i], the four
# cells of setting pair k are CELLS[4k:4k+4], and CELL_INDEX[CELLS[i]] is i.
# This is the one order of cells and of worlds.
CELLS: tuple[TableKey, ...] = tuple(
    product(LEFT_SETTINGS, RIGHT_SETTINGS, OUTCOMES, OUTCOMES)
)
CELL_INDEX: dict[TableKey, int] = {cell: i for i, cell in enumerate(CELLS)}

# (name, cell, must be zero) for the Hardy conditions, in report order: the
# three zeros, then the two cells that must be possible.  Which cells are
# possible at epsilon is decided here alone, by check_epsilon and support.
HARDY_CELLS: tuple[tuple[str, TableKey, bool], ...] = (
    ("h1", (Setting.L2, Setting.R2, Outcome.MINUS, Outcome.PLUS), True),
    ("h2", (Setting.L2, Setting.R1, Outcome.PLUS, Outcome.PLUS), True),
    ("h3", (Setting.L1, Setting.R1, Outcome.PLUS, Outcome.MINUS), True),
    ("h4", (Setting.L1, Setting.R2, Outcome.PLUS, Outcome.PLUS), False),
    ("nonvacuous", (Setting.L2, Setting.R2, Outcome.PLUS, Outcome.PLUS), False),
)


def check_epsilon(epsilon: float) -> float:
    """``epsilon`` as a float, if 0 < epsilon < EPSILON_MAX; else DomainError."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon < EPSILON_MAX:
        raise DomainError(
            f"epsilon must lie strictly in (0, {EPSILON_MAX}), got {epsilon!r}"
        )
    return epsilon


def _as_complex_pair(vector: Sequence[complex], what: str) -> ComplexVector:
    values = tuple(complex(v) for v in vector)
    if len(values) != 2:
        raise InvalidModelError(f"{what} must have exactly 2 components")
    return values


def _check_state(amplitudes: tuple[complex, complex, complex, complex]) -> None:
    """Raise unless the four amplitudes are finite and normalized.  Unrolled,
    like ``_check_units``: plain floats or complex numbers, summed in order."""
    a, b, c, d = amplitudes
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
        raise InvalidModelError("state amplitude is not finite")
    try:
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2)
    except OverflowError:  # a component above about 1.3e154
        norm = math.inf
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise InvalidModelError(
            f"state is not normalized: |psi| = {norm!r} differs from 1 "
            f"by more than {NORMALIZATION_TOL}"
        )


def _check_units(u: ComplexVector, v: ComplexVector, u_name: str, v_name: str) -> None:
    """Raise unless both 2-vectors are finite unit vectors."""
    (a, b), (c, d) = u, v
    if not (isfinite(a) and isfinite(b)):
        raise InvalidModelError(f"{u_name} has a non-finite component")
    if not (isfinite(c) and isfinite(d)):
        raise InvalidModelError(f"{v_name} has a non-finite component")
    try:
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    except OverflowError:  # as in _check_state
        norm = math.inf
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise InvalidModelError(f"{u_name} is not a unit vector (norm {norm!r})")
    try:
        norm = math.sqrt(abs(c) ** 2 + abs(d) ** 2)
    except OverflowError:
        norm = math.inf
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise InvalidModelError(f"{v_name} is not a unit vector (norm {norm!r})")


def _check_basis(plus: ComplexVector, minus: ComplexVector) -> None:
    """Raise unless ``plus`` and ``minus`` are finite orthonormal 2-vectors."""
    _check_units(plus, minus, "basis plus vector", "basis minus vector")
    overlap = abs(plus[0].conjugate() * minus[0] + plus[1].conjugate() * minus[1])
    if overlap > NORMALIZATION_TOL:
        raise InvalidModelError(
            f"basis vectors are not orthogonal (overlap {overlap!r})"
        )


class BipartiteState(Record):
    """Pure state of the left-right qubit pair.

    ``amplitudes`` holds the four computational-basis amplitudes in the
    order 00, 01, 10, 11 and must be normalized within 1e-12.
    """

    amplitudes: tuple[complex, complex, complex, complex]

    def __init__(self, amplitudes: Sequence[complex]) -> None:
        values = tuple(complex(v) for v in amplitudes)
        if len(values) != 4:
            raise InvalidModelError("a bipartite state needs exactly 4 amplitudes")
        _check_state(values)
        object.__setattr__(self, "amplitudes", values)


class MeasurementBasis(Record):
    """Orthonormal two-outcome basis; ``plus`` and ``minus`` are unit vectors."""

    plus: ComplexVector
    minus: ComplexVector

    def __init__(self, plus: Sequence[complex], minus: Sequence[complex]) -> None:
        plus = _as_complex_pair(plus, "basis plus vector")
        minus = _as_complex_pair(minus, "basis minus vector")
        _check_basis(plus, minus)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def vector(self, outcome: Outcome) -> ComplexVector:
        return self.plus if outcome is Outcome.PLUS else self.minus


COMPUTATIONAL_BASIS = MeasurementBasis(plus=(0, 1), minus=(1, 0))


class ExperimentConfig(Record):
    """Basis assignment for both regions, keyed by setting label 1 and 2."""

    left: Mapping[int, MeasurementBasis]
    right: Mapping[int, MeasurementBasis]

    def __init__(
        self,
        left: Mapping[int, MeasurementBasis],
        right: Mapping[int, MeasurementBasis],
    ) -> None:
        for side, mapping in (("left", left), ("right", right)):
            if set(mapping) != {1, 2}:
                raise InvalidModelError(
                    f"{side} bases must be keyed by setting labels 1 and 2"
                )
            if not all(isinstance(b, MeasurementBasis) for b in mapping.values()):
                raise InvalidModelError(f"{side} bases must be MeasurementBasis values")
        object.__setattr__(self, "left", MappingProxyType(dict(left)))
        object.__setattr__(self, "right", MappingProxyType(dict(right)))

    def basis_for(self, setting: Setting) -> MeasurementBasis:
        side = self.left if setting.region is Region.LEFT else self.right
        return side[setting.index]

    def vector_for(self, setting: Setting, outcome: Outcome) -> ComplexVector:
        return self.basis_for(setting).vector(outcome)


class TableEntries(Mapping):
    """A table's ``values`` as a read-only mapping from ``CELLS``, in order."""

    def __init__(self, values: tuple[float, ...]) -> None:
        self._values = values

    def __getitem__(self, cell: TableKey) -> float:
        return self._values[CELL_INDEX[cell]]

    def __iter__(self) -> Iterator[TableKey]:
        return iter(CELLS)

    def __len__(self) -> int:
        return len(CELLS)

    def items(self) -> ItemsView[TableKey, float]:
        return _CellItems(self)

    def values(self) -> ValuesView[float]:
        return _CellValues(self)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({dict(self.items())!r})"


# Mapping's views look each cell up again (64 Enum.__hash__ calls); these zip CELLS
class _CellItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[TableKey, float]]:
        return zip(CELLS, self._mapping._values)


class _CellValues(ValuesView):
    def __iter__(self) -> Iterator[float]:
        return iter(self._mapping._values)


class JointProbabilityTable(Record):
    """Conditional outcome distribution for each of the four setting pairs.

    ``entries`` maps (left setting, right setting, left outcome, right
    outcome) to a probability; the table keeps it as a ``TableEntries`` view
    of ``values``, not a field: the probabilities in ``CELLS`` order.  The
    constructor checks nonnegativity and completeness, comparing key sets
    (64 enum hashes) only for a mapping not in ``CELLS`` order.
    ``validate_rows`` checks that each setting pair's four probabilities sum to 1,
    which holds for every table produced by ``probability_table`` but can be
    skipped for deliberately degenerate tables used to exercise error paths.
    """

    entries: Mapping[TableKey, float]

    def __init__(self, entries: Mapping[TableKey, float]) -> None:
        if entries.__class__ is TableEntries:  # its values are in CELLS order
            given = entries._values
        else:
            entries = dict(entries)
            if tuple(entries) != CELLS:
                if entries.keys() != CELL_INDEX.keys():
                    raise InvalidModelError(
                        "table must contain exactly the 16 setting/outcome combinations"
                    )
                entries = {key: entries[key] for key in CELLS}
            given = entries.values()
        values = []
        for key, value in zip(CELLS, given):
            p = float(value)
            if not math.isfinite(p):
                raise InvalidModelError(f"probability for {key} is not finite")
            if p < 0.0:
                raise InvalidModelError(f"probability for {key} is negative: {p!r}")
            values.append(p)
        values = tuple(values)
        object.__setattr__(self, "entries", TableEntries(values))
        object.__setattr__(self, "values", values)

    def validate_rows(self) -> None:
        for k, (ls, rs) in enumerate(SETTING_PAIRS):
            total = sum(self.values[4 * k : 4 * k + 4])
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise InvalidModelError(
                    f"outcome probabilities for ({ls}, {rs}) sum to {total!r}, "
                    f"not 1 within {ROW_SUM_TOL}"
                )


def support(table: JointProbabilityTable, epsilon: float) -> int:
    """The cells possible at an ``epsilon`` that ``check_epsilon`` accepted:
    bit i is set when CELLS[i], the table's ``values[i]``, is above it."""
    return sum(1 << i for i, p in enumerate(table.values) if p > epsilon)


class HardyConstraintReport(Record):
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
    failures: tuple[str, ...] = ()


def _born(
    conjugate_amplitudes: tuple[complex, complex, complex, complex],
    left_vector: ComplexVector,
    right_vector: ComplexVector,
) -> float:
    """|<psi|lv (x) rv>|^2, the Born value, from psi's conjugated amplitudes."""
    (l0, l1), (r0, r1) = left_vector, right_vector
    a00, a01, a10, a11 = conjugate_amplitudes
    # grouped by left bit, as numpy.einsum summed; conjugating psi, not the
    # vectors, is exact, so tables match earlier releases bit for bit
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
    _check_units(lv, rv, "left vector", "right vector")
    return _born(tuple(a.conjugate() for a in state.amplitudes), lv, rv)


def probability_table(
    state: BipartiteState, config: ExperimentConfig
) -> JointProbabilityTable:
    """Full conditional outcome table of ``state`` under ``config``.

    The state and the bases validated their vectors when they were built,
    so each cell is a bare Born sum; the amplitudes are conjugated once.
    """
    amplitudes = tuple(a.conjugate() for a in state.amplitudes)
    left = [[config.vector_for(s, o) for o in OUTCOMES] for s in LEFT_SETTINGS]
    right = [[config.vector_for(s, o) for o in OUTCOMES] for s in RIGHT_SETTINGS]
    # the same nesting as CELLS: setting pair, then outcome pair
    probabilities = [
        _born(amplitudes, lv, rv)
        for lvs, rvs in product(left, right)
        for lv, rv in product(lvs, rvs)
    ]
    table = JointProbabilityTable(TableEntries(tuple(probabilities)))
    table.validate_rows()
    return table


def _family_vectors(x: float) -> tuple[tuple[float, ...], ComplexVector, ComplexVector]:
    """Member x as float tuples: amplitudes, tilted plus and minus, all checked."""
    x = float(x)
    if not 0.0 < x < 0.5:
        raise DomainError(f"family parameter must lie strictly in (0, 1/2), got {x!r}")
    alpha, beta, scale = math.sqrt(1.0 - 2.0 * x), math.sqrt(x), math.sqrt(1.0 - x)
    amplitudes = (alpha, beta, beta, 0.0)
    _check_state(amplitudes)
    plus, minus = (beta / scale, -alpha / scale), (alpha / scale, beta / scale)
    _check_basis(plus, minus)
    return amplitudes, plus, minus


def hardy_family(x: float) -> tuple[BipartiteState, ExperimentConfig]:
    """Member x of the one-parameter Hardy family; requires 0 < x < 1/2.

    The three h-zeros hold exactly by construction and
    h4 = (1-2x) x^2 / (1-x)^2 > 0.
    """
    amplitudes, plus, minus = _family_vectors(x)
    tilted = MeasurementBasis(plus, minus)
    config = ExperimentConfig(
        left={1: tilted, 2: COMPUTATIONAL_BASIS},
        right={1: COMPUTATIONAL_BASIS, 2: tilted},
    )
    return BipartiteState(amplitudes), config


def canonical_hardy_model() -> tuple[BipartiteState, ExperimentConfig]:
    """The x = 1/3 family member: amplitudes (1, 1, 1, 0)/sqrt(3).

    Left setting 2 and right setting 1 measure in the computational basis
    with plus identified with |1>; left setting 1 and right setting 2 use
    the tilted basis with plus proportional to |0> - |1>.
    """
    return hardy_family(1.0 / 3.0)


def verify_hardy_constraints(
    table: JointProbabilityTable, epsilon: float = EPSILON_DEFAULT
) -> HardyConstraintReport:
    """Check the table against the Hardy conditions at threshold ``epsilon``.

    The zeros h1, h2, h3 must not exceed epsilon; h4 and the nonvacuity
    probability P(L2+, R2+ | L2, R2) must strictly exceed it (``HARDY_CELLS``).
    """
    epsilon = check_epsilon(epsilon)
    possible = support(table, epsilon)
    failures = tuple(
        name
        for name, cell, must_be_zero in HARDY_CELLS
        if (possible >> CELL_INDEX[cell] & 1) == must_be_zero
    )
    return HardyConstraintReport(
        *(table.values[CELL_INDEX[cell]] for _, cell, _ in HARDY_CELLS),
        epsilon=epsilon,
        satisfied=not failures,
        failures=failures,
    )


def _family_h4(x: float) -> float:
    """h4 = P(L1+, R2+ | L1, R2) of member x: both settings use the tilted
    basis, so this is the table cell, from the checked real float tuples."""
    amplitudes, plus, _ = _family_vectors(x)
    return _born(amplitudes, plus, plus)


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
    """Maximize h4 over the family: find the best point of a grid by
    bisection, then refine around it by golden-section search.

    Returns (x_best, p_best).  ``steps`` is the number of interior grid
    points x_j = 0.5 (j + 1) / (steps + 1), an ``int`` from 10 to 1,000,000.
    On every grid up to that cap the float values of h4 rise strictly to
    their first maximum and never rise after it, so the first j with
    h4(x_j) >= h4(x_{j+1}) is the grid's argmax, the first one on ties.
    Bisection on that predicate finds it in about 2 log2(steps) evaluations
    instead of ``steps``.  The cap stays because on much finer grids
    neighbouring values near the peak come within an ulp of each other, and
    a plateau could mislead the bisection.  The refined point is kept only
    if it beats the grid's best.  Each point is evaluated on the checked
    float tuples of ``_family_vectors``, with no records built.
    """
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise DomainError(f"scan steps must be an integer, got {steps!r}")
    if steps < 10:
        raise DomainError(f"scan needs at least 10 grid steps, got {steps}")
    if steps > SCAN_STEPS_MAX:
        raise DomainError(f"scan takes at most {SCAN_STEPS_MAX} steps, got {steps}")

    def point(j: int) -> float:
        return 0.5 * (j + 1) / (steps + 1)

    best, last = 0, steps - 1
    while best < last:
        mid = (best + last) // 2
        if _family_h4(point(mid)) >= _family_h4(point(mid + 1)):
            last = mid
        else:
            best = mid + 1
    lo = point(best - 1) if best > 0 else point(0) / 2.0
    hi = point(best + 1) if best < steps - 1 else (point(steps - 1) + 0.5) / 2.0
    refined_x, refined_p = _golden_section_max(_family_h4, lo, hi, 1e-10)
    x_best, p_best = point(best), _family_h4(point(best))
    if refined_p > p_best:
        x_best, p_best = refined_x, refined_p
    return x_best, p_best
