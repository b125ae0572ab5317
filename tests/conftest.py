"""Shared corpus builders; everything is seeded and deterministic."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import settings

from bmcircuits.generators import complete_matroid, independent_copies, random_eulerian
from bmcircuits.gf2core import BinaryMatroid

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


def dense_core():
    """Complete core on the leading 6 of 10 coordinates, symmetric difference
    with random_eulerian(10, 12, seed=1): 74 elements, a = 11."""
    core = {k << 4 for k in range(1, 64)}
    return BinaryMatroid.from_keys(10, core ^ random_eulerian(10, 12, seed=1).key_set)


@pytest.fixture(scope="session")
def small_corpus():
    return eulerian_corpus(40, seed=7)


#: Inputs whose peel-family outputs are pinned in data/peel_family_pins.json.
#: independent_copies(4, 3) loses rank in the middle of a peel.
PIN_INPUTS = {
    "complete_8": lambda: complete_matroid(8),
    "random_10_100_3": lambda: random_eulerian(10, 100, seed=3),
    "random_12_300_1": lambda: random_eulerian(12, 300, seed=1),
    "copies_4_3": lambda: independent_copies(4, 3),
}


def peel_family_pins():
    """Per input name and routine: circuit key lists (each ascending), plus
    branch/phase1/phase2 for decompositions; null where the routine refuses
    the input (dense_decompose on a sparse matroid)."""
    path = Path(__file__).parent / "data" / "peel_family_pins.json"
    return json.loads(path.read_text())


def circuit_keys(circuits):
    return [[v.key for v in c.elements] for c in circuits]
