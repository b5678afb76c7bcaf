import pytest

from hardyworlds import analysis
from hardyworlds.labels import OUTCOMES, SETTING_PAIRS, FrameOrdering
from hardyworlds.quantum import (
    JointProbabilityTable,
    canonical_hardy_model,
    probability_table,
)
from hardyworlds.worlds import enumerate_worlds


@pytest.fixture(scope="session")
def canonical_pair():
    return canonical_hardy_model()


@pytest.fixture(scope="session")
def canonical_table(canonical_pair):
    state, config = canonical_pair
    return probability_table(state, config)


@pytest.fixture(scope="session")
def canonical_model(canonical_table):
    return enumerate_worlds(canonical_table, 1e-9, FrameOrdering.LEFT_BEFORE_RIGHT)


@pytest.fixture(scope="session")
def canonical_model_rfirst(canonical_table):
    return enumerate_worlds(canonical_table, 1e-9, FrameOrdering.RIGHT_BEFORE_LEFT)


@pytest.fixture(scope="session")
def uniform_table():
    return JointProbabilityTable(
        {
            (ls, rs, lo, ro): 0.25
            for ls, rs in SETTING_PAIRS
            for lo in OUTCOMES
            for ro in OUTCOMES
        }
    )


@pytest.fixture(scope="session")
def uniform_model(uniform_table):
    return enumerate_worlds(uniform_table, 1e-9, FrameOrdering.LEFT_BEFORE_RIGHT)


@pytest.fixture
def empty_memo():
    """The process-wide memo of catalogued verdicts, emptied before and after
    the test, so that what it holds does not depend on test order."""
    analysis._memo.clear()
    yield analysis._memo
    analysis._memo.clear()
