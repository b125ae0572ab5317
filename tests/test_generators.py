import pytest

from bmcircuits.errors import OutOfRangeError
from bmcircuits.gf2core import is_eulerian, rank
from bmcircuits.generators import (
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


class TestInstanceSpec:
    def test_header(self):
        spec = InstanceSpec("random-eulerian", {"n": 6, "size": 12, "seed": 3})
        assert spec.header() == "random-eulerian n=6 seed=3 size=12"
