import gc
import tracemalloc
from functools import reduce
from operator import xor

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bmcircuits.circuits import (
    Circuit,
    WorkingSet,
    guaranteed_circuit_size,
    is_circuit,
    largest_fundamental_circuit,
    peel,
)
from bmcircuits.errors import EmptyMatroidError, NotEulerianError, OutOfRangeError
from bmcircuits.gf2core import BinaryMatroid, Gf2Eliminator, _mask_indices, rank
from bmcircuits.generators import complete_matroid
from bmcircuits.oddcover import complete_to_circuit
from bmcircuits.orbit import build_even_weight_model, orbit_decompose

from conftest import basis_eliminator


@st.composite
def circuit_elements(draw):
    """A dim and the keys of a circuit, in a drawn order: independent keys plus their XOR."""
    dim = draw(st.integers(2, 10))
    drawn = draw(st.lists(st.integers(1, (1 << dim) - 1), min_size=2, max_size=dim, unique=True))
    elim = Gf2Eliminator(track_witnesses=False)
    independent = [k for k in drawn if elim.insert(k) is None]
    assume(len(independent) >= 2)
    keys = independent + [reduce(xor, independent)]
    return dim, draw(st.permutations(keys))


class TestIsCircuit:
    def test_triangle(self):
        assert is_circuit([0b10, 0b01, 0b11])

    def test_union_of_two_disjoint_triangles_is_not_minimal(self):
        keys = [0b1000, 0b0100, 0b1100, 0b0010, 0b0001, 0b0011]
        # zero sum but rank 4 != 6 - 1
        assert not is_circuit(keys)

    def test_pair_is_not_a_circuit(self):
        assert not is_circuit([0b10, 0b01])

    def test_empty_and_singleton(self):
        assert not is_circuit([])
        assert not is_circuit([0b1])

    def test_key_blocks(self):
        assert is_circuit((1, 2, 3)) and is_circuit([8, 4, 2, 1, 15])
        assert not is_circuit((1, 2, 3, 3))
        assert not is_circuit((1, 2, 4))
        # zero sum and rank size - 1 under the elimination, but no vectors
        assert not is_circuit((0,))
        assert not is_circuit((-1, -2, 1))


class TestCircuitType:
    def test_validates(self):
        with pytest.raises(OutOfRangeError):
            Circuit(2, [0b10, 0b01])
        with pytest.raises(OutOfRangeError):
            Circuit(2, [0b01, 0b10, 0b111, 0b100])  # a key of 2**dim or more

    def test_int_keys_without_their_dim_are_refused(self):
        """The dim is a required argument, first as in BinaryMatroid(dim, keys)."""
        with pytest.raises(TypeError):
            Circuit([1, 2, 3])
        with pytest.raises(TypeError):
            complete_to_circuit([1, 2])
        assert Circuit(2, [1, 2, 3]) == complete_to_circuit([1, 2], 2)

    def test_proper_subsets_independent(self):
        c = Circuit(4, [0b1000, 0b0100, 0b0010, 0b0001, 0b1111])
        for x in c.keys:
            elim = Gf2Eliminator(track_witnesses=False)
            for key in c.keys:
                if key != x:
                    elim.insert(key)
            assert elim.rank == len(c) - 1

    @given(circuit_elements(), st.data())
    def test_keys_do_not_depend_on_the_order_given(self, drawn, data):
        dim, keys = drawn
        c = Circuit(dim, keys)
        other = Circuit(dim, data.draw(st.permutations(keys)))
        assert c.keys == other.keys == tuple(sorted(keys))
        assert all(a < b for a, b in zip(c.keys, c.keys[1:]))
        assert c.key_set == frozenset(c.keys) == frozenset(keys)
        assert c == other and hash(c) == hash(other)
        assert c != Circuit(c.dim + 1, c.keys)

    def test_orbit_circuits_hold_no_key_set(self):
        """The 315 orbits of p = 13 hold their keys in a tuple: about 370 bytes
        a circuit on CPython 3.11, against about 950 with a frozenset each."""
        orbit_decompose(13)  # one-off allocations of a first call
        gc.collect()
        tracemalloc.start()
        try:
            model = build_even_weight_model(13)
            model_bytes = tracemalloc.get_traced_memory()[0]
            del model
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            dec = orbit_decompose(13)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(dec.circuits) == 315
        assert (held - model_bytes) / 315 < 600


def fundamental(dim, key, basis):
    """{key} plus the basis keys in its Gf2Eliminator witness mask."""
    residual, mask = basis_eliminator(basis).reduce(key)
    assert residual == 0
    return Circuit(dim, [key] + [basis[i] for i in _mask_indices(mask)])


class TestFundamentalCircuit:
    def test_triangle(self):
        c = fundamental(2, 0b11, (0b10, 0b01))
        assert c.key_set == {1, 2, 3}

    def test_four_element(self):
        c = fundamental(3, 0b111, (0b100, 0b010, 0b001))
        assert len(c) == 4

    def test_all_ones_over_standard_basis(self):
        basis = tuple(1 << (3 - i) for i in range(4))
        c = fundamental(4, 0b1111, basis)
        assert len(c) == 5
        assert is_circuit(c.keys)


class TestGuaranteedCircuitSize:
    def test_complete_dim4_value(self):
        # sum_{i=1}^{3} C(4,i) = 14 < 15 <= sum_{i=1}^{4} C(4,i) = 15
        assert guaranteed_circuit_size(15, 4) == 5

    def test_triangle(self):
        assert guaranteed_circuit_size(3, 2) == 3

    def test_log_lower_bound(self):
        # c with sum_{i<c} C(r,i) >= size implies r^(c-1) >= size,
        # so c - 1 >= log(size)/log(r) up to the r >= 2 fudge
        import math

        for r in (2, 3, 5, 8):
            for size in (3, 10, 50, (1 << r) - 1):
                if size > (1 << r) - 1 or size < 3:
                    continue
                c = guaranteed_circuit_size(size, r)
                assert c >= math.floor(math.log(size) / math.log(max(r, 2)))

    def test_bad_args(self):
        with pytest.raises(OutOfRangeError):
            guaranteed_circuit_size(2, 4)
        with pytest.raises(OutOfRangeError):
            guaranteed_circuit_size(100, 2)


class TestLargestFundamentalCircuit:
    def test_triangle_returns_itself(self):
        m = BinaryMatroid(2, [0b10, 0b01, 0b11])
        assert largest_fundamental_circuit(m).key_set == {1, 2, 3}

    def test_complete_dim4(self):
        c = largest_fundamental_circuit(complete_matroid(4))
        assert len(c) == 5
        assert 0b1111 in c.keys

    def test_requires_eulerian(self):
        with pytest.raises(NotEulerianError):
            largest_fundamental_circuit(BinaryMatroid(2, [0b10, 0b01]))

    def test_subset_of_input_and_pigeonhole(self, small_corpus):
        for m in small_corpus:
            c = largest_fundamental_circuit(m)
            assert c.key_set <= m.key_set
            assert is_circuit(c.keys)
            assert len(c) >= guaranteed_circuit_size(len(m), rank(m))


class TestWorkingSet:
    def test_searches_on_a_working_set_match_the_matroid(self, small_corpus):
        for m in small_corpus:
            work = WorkingSet(m)
            assert largest_fundamental_circuit(work) == largest_fundamental_circuit(m)
            assert len(work.rows) == rank(m)

    def test_extract_all_empties_the_set(self, small_corpus):
        """peel removes disjoint circuits of the set until nothing is left,
        and removing them from a working set empties its state."""
        for m in small_corpus:
            circuits = peel(m)
            assert sum(len(c) for c in circuits) == len(m)
            assert set().union(*(c.key_set for c in circuits)) == m.key_set
            work = WorkingSet(m)
            for c in circuits:
                work.remove(c)
            assert len(work) == 0 and work.rows == {}
            with pytest.raises(EmptyMatroidError):
                largest_fundamental_circuit(work)

    def test_a_circuit_no_longer_present_is_refused_and_changes_nothing(self):
        m = complete_matroid(3)
        work = WorkingSet(m)
        c = Circuit(3, [1, 2, 3])
        work.remove(c)
        rows = dict(work.rows)
        assert len(work) == 4
        for _ in range(2):
            with pytest.raises(OutOfRangeError):
                work.remove(c)
            assert len(work) == 4 and work.rows == rows and work

    def test_only_a_fundamental_circuit_of_the_current_basis_is_removed(self):
        # {3, 4, 7} and {1, 6, 7} are circuits of complete(3), but each holds
        # two keys outside the first-seen basis {1, 2, 4}
        work = WorkingSet(complete_matroid(3))
        for keys in ([3, 4, 7], [1, 6, 7]):
            with pytest.raises(OutOfRangeError):
                work.remove(Circuit(3, keys))
        assert len(work) == 7 and work.rows == WorkingSet(complete_matroid(3)).rows

    def test_compaction_keeps_the_keys_left_and_a_fresh_state(self):
        """Once three quarters of the positions are gone, the positions are
        renumbered over the keys left and the rows are a fresh build's."""
        m = complete_matroid(7)
        work = WorkingSet(m)
        left = set(m.keys)
        while work.left * 4 > len(m):
            c = largest_fundamental_circuit(work)
            work.remove(c)
            left -= c.key_set
        assert work.at == tuple(sorted(left)) and len(work.at) < len(m)
        assert work.rows == WorkingSet(BinaryMatroid(7, left)).rows

    def test_non_eulerian_working_set_rejected(self):
        m = BinaryMatroid(3, [0b100, 0b010, 0b110, 0b001])
        with pytest.raises(NotEulerianError):
            WorkingSet(m)
        with pytest.raises(NotEulerianError):
            peel(m)
