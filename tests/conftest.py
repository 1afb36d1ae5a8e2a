import numpy as np
import pytest
from hypothesis import settings

from nanolab import potentials

# derandomized: every run draws the same examples, so the suite stays
# deterministic; no example database is written
settings.register_profile("nanolab", derandomize=True, database=None, deadline=None)
settings.load_profile("nanolab")


@pytest.fixture(scope="session")
def pots_soft():
    return potentials.default_soft()


@pytest.fixture(scope="session")
def pots_stiff():
    return potentials.default_stiff()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
