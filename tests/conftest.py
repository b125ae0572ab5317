"""Shared corpus builders; everything is seeded and deterministic."""

import random

import pytest
from hypothesis import settings

from bmcircuits.generators import random_eulerian

# property tests replay the same examples on every run and never time out
settings.register_profile(
    "bmcircuits", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("bmcircuits")


def eulerian_corpus(count, seed, n_range=(3, 14), size_cap=40):
    """Deterministic list of random Eulerian matroids."""
    picker = random.Random(seed)
    out = []
    for i in range(count):
        n = picker.randint(*n_range)
        hi = min(size_cap, (1 << n) - 1)
        size = picker.randint(3, hi)
        out.append(random_eulerian(n, size, seed * 100_003 + i))
    return out


@pytest.fixture(scope="session")
def small_corpus():
    return eulerian_corpus(40, seed=7)
