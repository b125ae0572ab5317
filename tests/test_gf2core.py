import copy
import itertools
import pickle
import random

import pytest

from bmcircuits.errors import NotInSpanError, OutOfRangeError
from bmcircuits.gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    Gf2Vector,
    _mask_indices,
    column_rref,
    express_in_basis,
    greedy_basis,
    is_eulerian,
    max_independent_subset,
    rank,
)
from bmcircuits.generators import complete_matroid


def vec(bits):
    return Gf2Vector.from_bits(bits)


class TestGf2Vector:
    def test_key_layout_is_big_endian(self):
        v = vec("100")
        assert v.coord(0) == 1 and v.coord(1) == 0 and v.coord(2) == 0
        assert v.key == 4
        assert vec("001").key == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(OutOfRangeError):
            Gf2Vector(3, 0)
        with pytest.raises(OutOfRangeError):
            vec("000")

    def test_sort_order_matches_bit_strings(self):
        vs = [vec(b) for b in ("110", "011", "101")]
        assert [v.bits() for v in sorted(vs)] == ["011", "101", "110"]

    def test_xor_and_weight(self):
        assert (vec("110") ^ vec("011")).bits() == "101"
        assert vec("1101").weight == 3
        with pytest.raises(OutOfRangeError):
            vec("110") ^ vec("110")

    def test_unit_and_coords(self):
        assert Gf2Vector.unit(5, 0).bits() == "10000"
        assert Gf2Vector.from_coords(4, (1, 3)).bits() == "0101"

    @pytest.mark.parametrize("bits", ["", "1_01", "+101", "0b11", "\uff11\uff10\uff11\uff10", "10 1"])
    def test_from_bits_rejects_what_only_int_accepts(self, bits):
        with pytest.raises(OutOfRangeError):
            vec(bits)

    def test_slotted_and_frozen(self):
        v = vec("101")
        assert not hasattr(v, "__dict__")
        with pytest.raises(AttributeError):
            v.key = 3

    def test_pickle_and_deepcopy_round_trip(self):
        v = vec("0110")
        for w in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
            assert w == v and hash(w) == hash(v)
            assert (w.n, w.key) == (4, 6)


class TestRank:
    def test_triangle(self):
        m = BinaryMatroid(2, [vec("10"), vec("01"), vec("11")])
        assert rank(m) == 2

    def test_complete_matroid_has_full_rank(self):
        for n in (2, 3, 4, 6):
            m = complete_matroid(n)
            assert rank(m) == n
            assert len(m) == (1 << n) - 1

    def test_empty(self):
        assert rank(BinaryMatroid(3)) == 0

    def test_size_bounded_by_rank(self, small_corpus):
        for m in small_corpus:
            assert len(m) <= (1 << rank(m)) - 1


class TestEulerian:
    def test_triangle_true(self):
        m = BinaryMatroid(2, [vec("10"), vec("01"), vec("11")])
        assert is_eulerian(m)

    def test_pair_false(self):
        m = BinaryMatroid(2, [vec("10"), vec("01")])
        assert not is_eulerian(m)

    def test_complete_dim3(self):
        # XOR of all 7 nonzero 3-bit values is 0: each bit appears 4 times
        assert is_eulerian(complete_matroid(3))

    def test_empty_true(self):
        assert is_eulerian(BinaryMatroid(4))

    def test_preserved_by_circuit_symmetric_difference(self, small_corpus):
        triangle = [Gf2Vector(14, 1 << 13), Gf2Vector(14, 1 << 12), Gf2Vector(14, 3 << 12)]
        for m in small_corpus:
            if m.dim != 14:
                continue
            flipped = m.symmetric_difference(triangle)
            assert is_eulerian(flipped) == is_eulerian(m)


class TestMaxIndependentSubset:
    def test_triangle_first_seen(self):
        m = BinaryMatroid(2, [vec("10"), vec("01"), vec("11")])
        assert [v.bits() for v in max_independent_subset(m)] == ["01", "10"]

    def test_empty(self):
        assert max_independent_subset(BinaryMatroid(5)) == ()

    def test_complete_dim4_gives_standard_basis(self):
        # canonical scan meets 0001, 0010, (0011 dependent), 0100, ... 1000
        basis = max_independent_subset(complete_matroid(4))
        assert sorted(v.bits() for v in basis) == ["0001", "0010", "0100", "1000"]

    def test_output_independent_and_full_rank(self, small_corpus):
        for m in small_corpus:
            basis = max_independent_subset(m)
            elim = Gf2Eliminator(track_witnesses=False)
            for b in basis:
                assert elim.insert(b.key) is None
            assert elim.rank == rank(m)


class TestExpressInBasis:
    def test_simple_sum(self):
        basis = (vec("10"), vec("01"))
        assert express_in_basis(vec("11"), basis) == {0, 1}

    def test_basis_member(self):
        basis = (vec("100"), vec("010"), vec("001"))
        assert express_in_basis(vec("001"), basis) == {2}

    def test_chain_basis_brute_forced(self):
        # oracle: scan all 2^4 index subsets for the one summing to the target
        basis = (vec("1000"), vec("1100"), vec("0110"), vec("0011"))
        target = vec("1111")
        expected = None
        for size in range(1, 5):
            for combo in itertools.combinations(range(4), size):
                acc = 0
                for i in combo:
                    acc ^= basis[i].key
                if acc == target.key:
                    expected = frozenset(combo)
        assert expected is not None
        assert express_in_basis(target, basis) == expected

    def test_not_in_span(self):
        with pytest.raises(NotInSpanError):
            express_in_basis(vec("001"), (vec("100"), vec("010")))

    def test_dependent_basis_rejected(self):
        with pytest.raises(OutOfRangeError):
            express_in_basis(vec("100"), (vec("110"), vec("010"), vec("100")))

    def test_round_trip(self, small_corpus):
        for m in small_corpus:
            basis = max_independent_subset(m)
            for v in m.elements:
                indices = express_in_basis(v, basis)
                acc = 0
                for i in indices:
                    acc ^= basis[i].key
                assert acc == v.key


class TestEliminatorUndo:
    def test_undo_takes_what_insert_returned(self):
        e = Gf2Eliminator()
        first = e.insert(0b01)
        second = e.insert(0b10)
        dependent = e.insert(0b11)
        assert (first, second, dependent) == (None, None, 0b11)
        e.undo(dependent)
        assert e.rank == 2
        e.undo(second)
        assert e.rank == 1 and not e.contains(0b10)
        # the freed insertion index is reused
        assert e.insert(0b11) is None
        assert e.insert(0b10) == 0b11


class TestBinaryMatroid:
    def test_duplicates_rejected(self):
        with pytest.raises(OutOfRangeError):
            BinaryMatroid(2, [vec("10"), vec("10")])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(OutOfRangeError):
            BinaryMatroid(3, [vec("10")])

    def test_dimension_mismatch_names_the_smallest_n_key_mismatch(self):
        # by key alone the 5-dimensional vector comes first; by (n, key) the 4-dimensional one
        vs = [Gf2Vector(4, 9), Gf2Vector(3, 1), Gf2Vector(5, 2)]
        with pytest.raises(OutOfRangeError) as exc:
            BinaryMatroid(3, vs)
        assert str(exc.value) == "vector of dimension 4 in matroid of dimension 3"

    def test_difference_and_symmetric_difference(self):
        m = complete_matroid(2)
        smaller = m.difference([vec("11")])
        assert len(smaller) == 2
        back = smaller.symmetric_difference([vec("11")])
        assert back == m

    def test_immutable(self):
        m = complete_matroid(2)
        with pytest.raises(AttributeError):
            m.dim = 5


def _low_rank_keys(dim, r, size, seed):
    """Ascending distinct nonzero keys drawn from the span of r random vectors."""
    rng = random.Random(seed)
    gens = [rng.randrange(1, 1 << dim) for _ in range(r)]
    keys = set()
    for _ in range(4 * size):
        acc = 0
        for g in gens:
            if rng.random() < 0.5:
                acc ^= g
        if acc:
            keys.add(acc)
    return sorted(keys)[:size]


class TestGreedyBasisAndExpansionMasks:
    """column_rref's rows, read by columns, against one Gf2Eliminator.reduce
    per key over greedy_basis.

    The cases hold the empty key list, dimension 1, dimensions that are not
    multiples of 8 (so the transpose pads), rank below the dimension, and
    more dimensions than keys.
    """

    CASES = [(1, 1, 1), (3, 3, 7), (8, 8, 60), (9, 9, 60), (17, 6, 50),
             (17, 17, 80), (40, 12, 80), (40, 40, 80), (5, 3, 0), (1, 1, 0),
             (40, 40, 12), (200, 30, 25)]

    @pytest.mark.parametrize("dim,r,size", CASES)
    def test_masks_match_per_key_reduce(self, dim, r, size):
        keys = _low_rank_keys(dim, r, size, seed=dim * 100 + r)
        assert len(keys) == size
        basis = greedy_basis(keys, dim)
        elim = Gf2Eliminator()
        for b in basis:
            assert elim.insert(b) is None
        position = {key: j for j, key in enumerate(keys)}
        expected = {position[b]: 0 for b in basis}
        for j, key in enumerate(keys):
            residual, mask = elim.reduce(key)
            assert residual == 0
            for i in _mask_indices(mask):  # the witness mask, transposed
                expected[position[basis[i]]] |= 1 << j
        assert column_rref(keys, dim) == expected

    @pytest.mark.parametrize("dim,r,size", CASES)
    def test_bound_at_rank_gives_the_full_scan_basis(self, dim, r, size):
        keys = _low_rank_keys(dim, r, size, seed=dim * 100 + r)
        m = BinaryMatroid.from_keys(dim, keys)
        full = [v.key for v in max_independent_subset(m)]
        assert greedy_basis(keys, dim) == full
        assert greedy_basis(keys, rank(m)) == full
