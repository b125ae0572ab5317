import tracemalloc

import numpy as np
import pytest

from bmcircuits.errors import OutOfRangeError
from bmcircuits.gf2core import BinaryMatroid, is_eulerian, rank
from bmcircuits.generators import (
    MAX_ELEMENTS,
    InstanceSpec,
    complete_matroid,
    independent_copies,
    random_eulerian,
)
from bmcircuits.oracle import enumerate_circuits


class TestCompleteMatroid:
    def test_sizes(self):
        assert len(complete_matroid(2)) == 3
        assert len(complete_matroid(3)) == 7
        assert rank(complete_matroid(3)) == 3

    def test_dim1_not_eulerian(self):
        m = complete_matroid(1)
        assert len(m) == 1
        assert not is_eulerian(m)

    def test_eulerian_from_dim2(self):
        for n in range(2, 8):
            assert is_eulerian(complete_matroid(n))

    def test_range(self):
        with pytest.raises(OutOfRangeError):
            complete_matroid(0)
        with pytest.raises(OutOfRangeError):
            complete_matroid(25)


class TestIndependentCopies:
    def test_shape(self):
        m = independent_copies(5, 2)
        assert len(m) == 15
        assert m.dim == 10
        assert rank(m) == 10

    def test_two_copies_dim3(self):
        m = independent_copies(2, 3)
        assert len(m) == 14
        assert rank(m) == 6

    def test_single_copy_is_complete(self):
        assert independent_copies(1, 3) == complete_matroid(3)

    def test_circuits_stay_in_blocks(self):
        # each block contributes its own circuits; none cross
        m = independent_copies(2, 2)
        masks = enumerate_circuits(m).masks
        assert len(masks) == 2
        block_a = {k for k in m.keys if k >= 1 << 2}
        for c in enumerate_circuits(m).circuits():
            keys = set(c.key_set)
            assert keys <= block_a or not (keys & block_a)

    def test_eulerian(self):
        assert is_eulerian(independent_copies(3, 2))
        assert is_eulerian(independent_copies(2, 4))


class TestRandomEulerian:
    def test_deterministic(self):
        a = random_eulerian(6, 12, seed=99)
        b = random_eulerian(6, 12, seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_eulerian(10, 30, seed=1)
        b = random_eulerian(10, 30, seed=2)
        assert a != b

    def test_always_eulerian_and_near_size(self):
        for seed in range(25):
            m = random_eulerian(7, 16, seed)
            assert is_eulerian(m)
            assert 15 <= len(m) <= 17

    def test_minimal_case_is_triangle(self):
        m = random_eulerian(2, 3, seed=0)
        assert m.keys == (1, 2, 3)

    def test_range_checks(self):
        with pytest.raises(OutOfRangeError):
            random_eulerian(3, 2, seed=0)
        with pytest.raises(OutOfRangeError):
            random_eulerian(3, 8, seed=0)
        with pytest.raises(OutOfRangeError, match="seed -1 is negative"):
            random_eulerian(4, 5, seed=-1)


def reference_random_eulerian(n: int, size: int, seed: int) -> BinaryMatroid:
    """random_eulerian with one rng.integers call per 64-bit word, as it drew
    its keys before the draws were batched."""
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen: set[int] = set()
    while len(chosen) < size:
        key = 0
        for _ in range((n + 63) // 64):
            key = (key << 64) | int(rng.integers(0, 1 << 64, dtype=np.uint64))
        key &= (1 << n) - 1
        if key:
            chosen.add(key)
    defect = 0
    for key in chosen:
        defect ^= key
    if defect:
        chosen ^= {defect}
    return BinaryMatroid(n, chosen)


@pytest.mark.parametrize("n, size", [
    (2, 3), (5, 3), (5, 17), (5, 30), (10, 1022), (16, 3), (16, 4097), (16, 20000),
    (64, 3), (64, 5000), (65, 3), (65, 5000), (130, 3), (130, 2000),
])
def test_batched_draws_match_the_per_word_draws(n, size):
    """At size 2^n - 2 (n = 5 and 10) most draws repeat a key and many
    batches are consumed; sizes over 4096 cross a batch boundary."""
    for seed in (0, 7):
        assert random_eulerian(n, size, seed) == reference_random_eulerian(n, size, seed)


class TestElementCap:
    """Every generator refuses an instance of more than 2^24 - 1 elements
    before it builds anything. Instances at the cap are never built here."""

    @pytest.mark.parametrize("make", [
        lambda: complete_matroid(25),
        lambda: independent_copies(1, 25),
        lambda: independent_copies(2, 24),
        lambda: independent_copies(1, 40),
        lambda: random_eulerian(25, MAX_ELEMENTS + 1, seed=0),
        lambda: random_eulerian(40, 10**12, seed=0),
        # the parity repair could add one element to a draw at the cap
        lambda: random_eulerian(40, MAX_ELEMENTS, seed=0),
    ], ids=["complete-25", "copies-1x25", "copies-2x24", "copies-1x40",
            "random-25-cap+1", "random-40-1e12", "random-40-cap"])
    def test_refused_before_building(self, make):
        assert MAX_ELEMENTS == 2**24 - 1
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRangeError):
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestInstanceSpec:
    def test_header(self):
        spec = InstanceSpec("random-eulerian", {"n": 6, "size": 12, "seed": 3})
        assert spec.header() == "random-eulerian n=6 seed=3 size=12"
