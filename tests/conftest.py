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


@pytest.fixture
def memo_builds(monkeypatch):
    """``memo_builds(module, kind)`` records, per point, the distinct values of
    ``kind`` that ``module`` computes into a memo: a dict from the point's
    bytes to the ids of those values.  One entry per point means the value
    was built there once, however often it was read.  A list of row keys
    counts as one key per row."""
    def record(module, kind):
        built = {}
        memoized = module.memoized

        def recording(memo, key, compute):
            keys = [k for k in (key if isinstance(key, list) else [key])
                    if k[0] == kind and k not in memo]
            value = memoized(memo, key, compute)
            for k in keys:
                built.setdefault(k[1], set()).add(id(memo[k]))
            return value

        monkeypatch.setattr(module, "memoized", recording)
        return built
    return record
