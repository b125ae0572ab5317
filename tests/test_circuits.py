import pytest

from bmcircuits.circuits import (
    Circuit,
    WorkingSet,
    extract_all,
    extract_any_circuit,
    fundamental_circuit,
    guaranteed_circuit_size,
    is_circuit,
    largest_fundamental_circuit,
)
from bmcircuits.errors import (
    DegenerateMemberError,
    EmptyMatroidError,
    NotEulerianError,
    OutOfRangeError,
)
from bmcircuits.gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    Gf2Vector,
    is_eulerian,
    max_independent_subset,
    rank,
)
from bmcircuits.generators import complete_matroid, independent_copies
from bmcircuits.oddcover import complete_to_circuit


def vec(bits):
    return Gf2Vector.from_bits(bits)


class TestIsCircuit:
    def test_triangle(self):
        assert is_circuit([vec("10"), vec("01"), vec("11")])

    def test_union_of_two_disjoint_triangles_is_not_minimal(self):
        vs = [vec("1000"), vec("0100"), vec("1100"), vec("0010"), vec("0001"), vec("0011")]
        # zero sum but rank 4 != 6 - 1
        assert not is_circuit(vs)

    def test_pair_is_not_a_circuit(self):
        assert not is_circuit([vec("10"), vec("01")])

    def test_empty_and_singleton(self):
        assert not is_circuit([])
        assert not is_circuit([vec("1")])

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
            Circuit([vec("10"), vec("01")])

    def test_proper_subsets_independent(self):
        c = Circuit([vec("1000"), vec("0100"), vec("0010"), vec("0001"), vec("1111")])
        for x in c.elements:
            rest = [v for v in c.elements if v != x]
            elim = Gf2Eliminator(track_witnesses=False)
            for v in rest:
                elim.insert(v.key)
            assert elim.rank == len(c) - 1


class TestFundamentalCircuit:
    def test_triangle(self):
        c = fundamental_circuit(vec("11"), (vec("10"), vec("01")))
        assert c.key_set == {1, 2, 3}

    def test_four_element(self):
        c = fundamental_circuit(vec("111"), (vec("100"), vec("010"), vec("001")))
        assert c.size == 4

    def test_all_ones_over_standard_basis(self):
        basis = tuple(Gf2Vector.unit(4, i) for i in range(4))
        c = fundamental_circuit(vec("1111"), basis)
        assert c.size == 5
        assert is_circuit(c.elements)

    def test_degenerate_member(self):
        with pytest.raises(DegenerateMemberError):
            fundamental_circuit(vec("10"), (vec("10"), vec("01")))


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
        m = BinaryMatroid(2, [vec("10"), vec("01"), vec("11")])
        assert largest_fundamental_circuit(m).key_set == {1, 2, 3}

    def test_complete_dim4(self):
        c = largest_fundamental_circuit(complete_matroid(4))
        assert c.size == 5
        assert vec("1111") in c

    def test_requires_eulerian(self):
        with pytest.raises(NotEulerianError):
            largest_fundamental_circuit(BinaryMatroid(2, [vec("10"), vec("01")]))

    def test_subset_of_input_and_pigeonhole(self, small_corpus):
        for m in small_corpus:
            c = largest_fundamental_circuit(m)
            assert all(v in m for v in c)
            assert is_circuit(c.elements)
            assert c.size >= guaranteed_circuit_size(len(m), rank(m))


class TestExtractAnyCircuit:
    def test_triangle(self):
        m = BinaryMatroid(2, [vec("10"), vec("01"), vec("11")])
        assert extract_any_circuit(m).key_set == {1, 2, 3}

    def test_two_disjoint_triangles_yields_one_triangle(self):
        m = independent_copies(2, 2)
        c = extract_any_circuit(m)
        assert c.size == 3
        assert all(v in m for v in c)

    def test_complete_dim3_small_circuit(self):
        c = extract_any_circuit(complete_matroid(3))
        assert 3 <= c.size <= 4
        assert all(v in complete_matroid(3) for v in c)

    def test_removal_leaves_eulerian(self, small_corpus):
        for m in small_corpus:
            c = extract_any_circuit(m)
            assert is_eulerian(m.difference(c))


class TestWorkingSet:
    def test_toggle_and_remove_keep_keys_ascending(self):
        m = BinaryMatroid.from_keys(3, [2, 4, 6])
        work = WorkingSet(m)
        completion = Circuit.from_keys(3, [1, 2, 3])
        work.toggle(completion)
        assert work.keys == [1, 3, 4, 6]
        assert work.vectors([4])[0] is m.elements[1]  # the source's own vector
        assert work.vectors([1])[0] is next(v for v in completion if v.key == 1)
        assert [v.key for v in work.elements] == work.keys
        assert work.circuit([1, 3, 4, 6]).key_set == {1, 3, 4, 6}
        work.remove(Circuit.from_keys(3, [1, 3, 4, 6]))
        assert work.keys == [] and work.elements == [] and len(m) == 3

    def test_searches_on_a_working_set_match_the_matroid(self, small_corpus):
        for m in small_corpus:
            work = WorkingSet(m)
            assert largest_fundamental_circuit(work) == largest_fundamental_circuit(m)
            assert work.bound == rank(m)
            assert extract_any_circuit(work) == extract_any_circuit(m)
            assert work.keys == [v.key for v in m.elements]

    def test_search_after_toggle_matches_a_fresh_matroid(self, small_corpus):
        """toggle moves positions, so it must drop the state the first search built."""
        for m in small_corpus:
            work = WorkingSet(m)
            largest_fundamental_circuit(work)
            work.toggle(complete_to_circuit(max_independent_subset(m)))
            if work:
                fresh = BinaryMatroid.from_keys(m.dim, work.keys)
                assert largest_fundamental_circuit(work) == largest_fundamental_circuit(fresh)

    def test_extract_all_empties_the_set(self, small_corpus):
        for m in small_corpus:
            work = WorkingSet(m)
            circuits = extract_all(work)
            assert len(work) == 0
            assert sum(c.size for c in circuits) == len(m)
            with pytest.raises(EmptyMatroidError):
                extract_any_circuit(work)

    def test_non_eulerian_working_set_rejected(self):
        work = WorkingSet(BinaryMatroid(3, [vec("100"), vec("010"), vec("110"), vec("001")]))
        with pytest.raises(NotEulerianError):
            largest_fundamental_circuit(work)
        with pytest.raises(NotEulerianError):
            extract_any_circuit(work)
