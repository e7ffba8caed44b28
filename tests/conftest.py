import numpy as np
import pytest

from hermkit.manifold import SamplePlan
from hermkit.numdiff import DiffConfig


@pytest.fixture(scope="session")
def cfg():
    return DiffConfig()


@pytest.fixture(scope="session")
def plan():
    return SamplePlan(seed=7, count=5)


@pytest.fixture(scope="session")
def plan20():
    return SamplePlan(seed=7, count=20)


@pytest.fixture
def rng():
    return np.random.default_rng(42)

