import numpy as np
import pytest

import resgrow as rg
from resgrow import linalg


@pytest.fixture(autouse=True)
def _cold_operator_slot():
    """Every test starts with no Operator kept for plain matrices, so one that
    counts spectra or SVDs counts from a cold start whatever ran before it."""
    linalg._last_operator.cache_clear()


@pytest.fixture(scope="session")
def diag03():
    return np.diag([0.0 + 0j, 3.0 + 0j])


@pytest.fixture(scope="session")
def shift2():
    """Weighted cyclic shift with weights (2, 1), built through its inverse."""
    return rg.weighted_shift([2, 1])


@pytest.fixture(scope="session")
def shift4():
    return rg.weighted_shift([2, 1, 1, 1])


@pytest.fixture(scope="session")
def zigzag2():
    return rg.zigzag_diagonal(2)


@pytest.fixture(scope="session")
def zigzag4():
    return rg.zigzag_diagonal(4)
