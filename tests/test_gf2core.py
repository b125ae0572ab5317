import copy
import itertools
import pickle
import random

import pytest

from bmcircuits.circuits import Circuit, WorkingSet
from bmcircuits.errors import FormatError, OutOfRangeError
from bmcircuits.formats import _parse_key, format_bm, parse_bm
from bmcircuits.gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    _mask_indices,
    column_rref,
    greedy_basis,
    is_eulerian,
    rank,
)
from bmcircuits.generators import complete_matroid
from bmcircuits.oddcover import complete_to_circuit

from conftest import basis_eliminator


class TestGf2Vector:
    """Vectors as int keys, which replaced the Gf2Vector class, held to its
    checks: the bit layout, the range, the order, the XOR, the line parser,
    immutability and pickling, now of the objects that hold the keys."""

    def test_key_layout_is_big_endian(self):
        m = parse_bm("dim 3\n100\n001\n")
        assert m.keys == (0b001, 0b100) == (1, 4)
        assert format_bm(m) == "dim 3\n001\n100\n"

    def test_zero_vector_rejected(self):
        with pytest.raises(OutOfRangeError):
            BinaryMatroid(3, [0])
        with pytest.raises(FormatError):
            parse_bm("dim 3\n000\n")

    def test_sort_order_matches_bit_strings(self):
        m = BinaryMatroid(3, [0b110, 0b011, 0b101])
        assert [format(k, "03b") for k in m.keys] == ["011", "101", "110"]

    def test_xor_and_weight(self):
        assert complete_to_circuit([0b110, 0b011], 3).keys == (0b011, 0b101, 0b110)
        with pytest.raises(OutOfRangeError):  # the sum of equal keys is zero
            complete_to_circuit([0b110, 0b110], 3)

    def test_unit_and_coords(self):
        # unit vector i is the key 1 << (n - 1 - i); coordinates 1 and 3 of 4 are 0b0101
        assert parse_bm("dim 5\n10000\n").keys == (1 << 4,)
        assert parse_bm("dim 4\n0101\n").keys == (0b0101,)

    @pytest.mark.parametrize("bits", ["", "1_01", "+101", "0b11", "\uff11\uff10\uff11\uff10", "10 1"])
    def test_from_bits_rejects_what_only_int_accepts(self, bits):
        with pytest.raises(FormatError):
            _parse_key(bits, 4, 1)

    def test_slotted_and_frozen(self):
        for obj in (complete_matroid(2), Circuit(2, [1, 2, 3])):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(AttributeError):
                obj.keys = (1, 2, 3)

    def test_pickle_and_deepcopy_round_trip(self):
        for obj in (complete_matroid(3), Circuit(4, [0b0110, 0b0011, 0b0101])):
            for other in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert other == obj and hash(other) == hash(obj)
                assert (other.dim, other.keys) == (obj.dim, obj.keys)


class TestRank:
    def test_triangle(self):
        m = BinaryMatroid(2, [0b10, 0b01, 0b11])
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
        m = BinaryMatroid(2, [0b10, 0b01, 0b11])
        assert is_eulerian(m)

    def test_pair_false(self):
        m = BinaryMatroid(2, [0b10, 0b01])
        assert not is_eulerian(m)

    def test_complete_dim3(self):
        # XOR of all 7 nonzero 3-bit values is 0: each bit appears 4 times
        assert is_eulerian(complete_matroid(3))

    def test_empty_true(self):
        assert is_eulerian(BinaryMatroid(4))

    def test_preserved_by_circuit_symmetric_difference(self, small_corpus):
        triangle = {1 << 13, 1 << 12, 3 << 12}
        for m in small_corpus:
            if m.dim != 14:
                continue
            flipped = BinaryMatroid(m.dim, m.key_set ^ triangle)
            assert is_eulerian(flipped) == is_eulerian(m)


class TestMaxIndependentSubset:
    """greedy_basis(m.keys, m.dim): the first-seen basis, a largest
    independent subset."""

    def test_triangle_first_seen(self):
        m = BinaryMatroid(2, [0b10, 0b01, 0b11])
        assert greedy_basis(m.keys, m.dim) == [0b01, 0b10]

    def test_empty(self):
        assert greedy_basis(BinaryMatroid(5).keys, 5) == []

    def test_complete_dim4_gives_standard_basis(self):
        # canonical scan meets 0001, 0010, (0011 dependent), 0100, ... 1000
        m = complete_matroid(4)
        assert greedy_basis(m.keys, m.dim) == [0b0001, 0b0010, 0b0100, 0b1000]

    def test_output_independent_and_full_rank(self, small_corpus):
        for m in small_corpus:
            basis = greedy_basis(m.keys, m.dim)
            elim = Gf2Eliminator(track_witnesses=False)
            for b in basis:
                assert elim.insert(b) is None
            assert elim.rank == rank(m)


class TestExpressInBasis:
    """Expansions in an independent basis: the witness mask of
    Gf2Eliminator.reduce over the basis."""

    def test_simple_sum(self):
        residual, mask = basis_eliminator((0b10, 0b01)).reduce(0b11)
        assert (residual, set(_mask_indices(mask))) == (0, {0, 1})

    def test_basis_member(self):
        residual, mask = basis_eliminator((0b100, 0b010, 0b001)).reduce(0b001)
        assert (residual, set(_mask_indices(mask))) == (0, {2})

    def test_chain_basis_brute_forced(self):
        # oracle: scan all 2^4 index subsets for the one summing to the target
        basis = (0b1000, 0b1100, 0b0110, 0b0011)
        target = 0b1111
        expected = None
        for size in range(1, 5):
            for combo in itertools.combinations(range(4), size):
                acc = 0
                for i in combo:
                    acc ^= basis[i]
                if acc == target:
                    expected = frozenset(combo)
        assert expected is not None
        residual, mask = basis_eliminator(basis).reduce(target)
        assert (residual, frozenset(_mask_indices(mask))) == (0, expected)

    def test_round_trip(self, small_corpus):
        for m in small_corpus:
            basis = greedy_basis(m.keys, m.dim)
            elim = basis_eliminator(basis)
            for key in m.keys:
                residual, mask = elim.reduce(key)
                assert residual == 0
                indices = list(_mask_indices(mask))
                acc = 0
                for i in indices:
                    acc ^= basis[i]
                assert acc == key


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
        assert e.rank == 1 and e.reduce(0b10)[0] != 0
        # the freed insertion index is reused
        assert e.insert(0b11) is None
        assert e.insert(0b10) == 0b11


class TestBinaryMatroid:
    def test_duplicates_rejected(self):
        with pytest.raises(OutOfRangeError):
            BinaryMatroid(2, [0b10, 0b10])

    def test_dimension_mismatch_rejected(self):
        for keys in ([0b1000], [-1], [3, 0, 1]):  # a key of a greater dimension, or none
            with pytest.raises(OutOfRangeError):
                BinaryMatroid(3, keys)

    def test_out_of_range_names_the_first_bad_key_given(self):
        # in key order 0 comes first; in the order given, 9
        with pytest.raises(OutOfRangeError) as exc:
            BinaryMatroid(3, [9, 1, 0])
        assert str(exc.value) == "key 9 not a nonzero 3-bit value"

    def test_elements_is_the_key_tuple(self):
        m = complete_matroid(3)
        assert m.elements is m.keys

    def test_difference_and_symmetric_difference(self):
        """A WorkingSet's remove is the difference with a circuit, and leaves
        the matroid it was built from as it was."""
        m = complete_matroid(2)
        work = WorkingSet(m)
        work.remove(Circuit(2, m.keys))
        assert len(work) == 0 and work.rows == {}
        assert m.keys == (1, 2, 3) and work.at is m.keys

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
        m = BinaryMatroid(dim, keys)
        elim = Gf2Eliminator(track_witnesses=False)
        full = [key for key in keys if elim.insert(key) is None]
        assert greedy_basis(keys, dim) == full
        assert greedy_basis(keys, rank(m)) == full
