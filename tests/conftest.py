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


#: verify mode -> key blocks that pass its checker on complete_matroid(3), keys 1..7
GOOD_KEY_BLOCKS = {
    "decomposition": ((1, 2, 3), (4, 5, 6, 7)),
    "oddcover": ((1, 2, 3), (4, 5, 6, 7)),
    "partition": ((1, 2, 4), (3, 5, 7), (6,)),
}

#: corruptions of those blocks that every checker must reject with a reason
KEY_BLOCK_FAULTS = {
    "zero key": lambda b: ((0,) + b[0][1:],) + b[1:],
    "key of 2**dim": lambda b: ((8,) + b[0][1:],) + b[1:],
    "negative key": lambda b: ((-1,) + b[0][1:],) + b[1:],
    "duplicate key in a block": lambda b: (b[0] + b[0][:1],) + b[1:],
    "overlapping blocks": lambda b: b + (b[0],),
    "non-circuit block": lambda b: (b[0] + b[1],) + b[2:],
    "dependent part": lambda b: (tuple(range(1, 8)),),
    # a circuit of keys 1, 8, 9 twice: it cancels in an odd-cover's parity
    "out-of-range circuit twice": lambda b: b + ((1, 8, 9), (1, 8, 9)),
}


def dense_core():
    """Complete core on the leading 6 of 10 coordinates, symmetric difference
    with random_eulerian(10, 12, seed=1): 74 elements, a = 11."""
    core = {k << 4 for k in range(1, 64)}
    return BinaryMatroid(10, core ^ random_eulerian(10, 12, seed=1).key_set)


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
    return [list(c.keys) for c in circuits]
