import math

import pytest

from bmcircuits import oddcover
from bmcircuits.arboricity import arboricity
from bmcircuits.circuits import Circuit
from bmcircuits.errors import EmptyMatroidError, OutOfRangeError, TooLargeError, TooSmallError
from bmcircuits.gf2core import BinaryMatroid, greedy_basis, rank
from bmcircuits.generators import complete_matroid, independent_copies, random_eulerian
from bmcircuits.formats import check_oddcover
from bmcircuits.oddcover import (
    OddCover,
    complete_to_circuit,
    density_lower_bound,
    oddcover_via_arboricity,
    symdiff_reduce,
)

from conftest import PIN_INPUTS, basis_eliminator, circuit_keys, eulerian_corpus, peel_family_pins


def triangle():
    return BinaryMatroid(2, [0b10, 0b01, 0b11])


def check_cover(m, cover):
    parity = set()
    for c in cover.circuits:
        parity ^= c.key_set
    assert parity == set(m.key_set)


class TestCompleteToCircuit:
    def test_pair(self):
        c = complete_to_circuit([0b10, 0b01], 2)
        assert c.key_set == {1, 2, 3}

    def test_three_elements(self):
        c = complete_to_circuit([0b100, 0b010, 0b001], 3)
        assert c.size == 4
        assert 0b111 in c.keys

    def test_singleton_too_small(self):
        with pytest.raises(TooSmallError):
            complete_to_circuit([0b10], 2)

    def test_dependent_rejected(self):
        with pytest.raises(OutOfRangeError):
            complete_to_circuit([0b10, 0b01, 0b11], 2)

    def test_dependent_with_new_nonzero_sum_rejected(self):
        # the sum 0011 is nonzero and outside the set, but the set has rank 4
        dependent = [0b1000, 0b0100, 0b1100, 0b0010, 0b0001]
        with pytest.raises(OutOfRangeError):
            complete_to_circuit(dependent, 4)

    def test_keys_with_their_dim(self):
        c = complete_to_circuit([0b100, 0b010, 0b001], 3)
        assert (c.dim, c.keys) == (3, (1, 2, 4, 7))
        assert complete_to_circuit([0b100, 0b010, 0b001], 5).dim == 5
        with pytest.raises(OutOfRangeError):  # a key of 2**dim
            complete_to_circuit([0b1000, 0b0001], 3)


class TestSymdiffReduce:
    def test_triangle_single_step(self):
        cover = symdiff_reduce(triangle())
        assert len(cover.circuits) == 1

    def test_empty(self):
        assert len(symdiff_reduce(BinaryMatroid(3)).circuits) == 0

    def test_complete_dim5_first_step_accounting(self):
        # one manual step: the completion removes rank(M) elements and the sum
        # lands inside the complete matroid, so 31 drops to exactly 25
        m = complete_matroid(5)
        c = complete_to_circuit(greedy_basis(m.keys, m.dim), m.dim)
        after = m.key_set ^ c.key_set
        assert len(after) == 25
        cover = symdiff_reduce(m)
        check_cover(m, cover)

    def test_corpus_validity(self, small_corpus):
        for m in small_corpus:
            check_cover(m, symdiff_reduce(m))

    def test_tail_peels_largest_fundamental_circuits(self):
        assert len(symdiff_reduce(complete_matroid(9))) == 59

    @pytest.mark.parametrize("name", sorted(PIN_INPUTS))
    def test_pinned(self, name):
        cover = symdiff_reduce(PIN_INPUTS[name]())
        assert circuit_keys(cover.circuits) == peel_family_pins()[name]["symdiff_reduce"]["circuits"]


class TestOddcoverViaArboricity:
    def test_triangle_collapses(self):
        _, cover = oddcover_via_arboricity(triangle())
        check_cover(triangle(), cover)
        assert len(cover.circuits) <= 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyMatroidError):
            oddcover_via_arboricity(BinaryMatroid(2))

    def test_complete_dim4_bound(self):
        m = complete_matroid(4)
        a, cover = oddcover_via_arboricity(m)
        check_cover(m, cover)
        assert a == 4
        assert len(cover.circuits) <= math.ceil(4 * a / 3)

    def test_two_copies_lower_bound_context(self):
        # any circuit meets this matroid in at most rank(M) elements, so a
        # cover needs at least ceil(14/6) = 3 = a(M) circuits
        m = independent_copies(2, 3)
        a, _ = arboricity(m)
        assert a == 3
        _, cover = oddcover_via_arboricity(m)
        check_cover(m, cover)
        assert len(cover.circuits) >= 3

    def test_four_thirds_bound_on_corpus(self, small_corpus):
        for m in small_corpus:
            a, _ = arboricity(m)
            a_cover, cover = oddcover_via_arboricity(m)
            assert a_cover == a
            check_cover(m, cover)
            assert len(cover.circuits) <= math.ceil(4 * a / 3)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_overspent_reduction_falls_back_to_peeling(self, n, monkeypatch):
        # three circuits whose XOR is empty: {e1, e2, e1+e2}, {e1+e2, e3,
        # e1+e2+e3} and {e1, e2, e3, e1+e2+e3} push the reduction greedy
        # past ceil(4a/3) without changing what it covers
        padding = [Circuit(n, keys) for keys in ((1, 2, 3), (3, 4, 7), (1, 2, 4, 7))]
        reduced, peeled = [], []
        real_reduce, real_peel = oddcover.symdiff_reduce, oddcover.peel_decompose

        def padded_reduce(remainder):
            reduced.append(remainder.key_set)
            return OddCover(remainder, real_reduce(remainder).circuits + tuple(padding))

        def recorded_peel(remainder):
            peeled.append(remainder.key_set)
            return real_peel(remainder)

        monkeypatch.setattr(oddcover, "symdiff_reduce", padded_reduce)
        monkeypatch.setattr(oddcover, "peel_decompose", recorded_peel)
        m = complete_matroid(n)
        a, cover = oddcover_via_arboricity(m)
        assert peeled == reduced and len(peeled) == 1  # the remainder was peeled
        assert check_oddcover(m, m.dim, cover.circuits) is None
        assert len(cover.circuits) <= math.ceil(4 * a / 3)

    def test_parity_counting_matches_definition(self):
        # count occurrences per vector: odd inside M, even outside
        from collections import Counter

        m = independent_copies(2, 2)
        _, cover = oddcover_via_arboricity(m)
        counts = Counter()
        for c in cover.circuits:
            for key in c.keys:
                counts[key] += 1
        for key in range(1, 1 << m.dim):
            assert (counts[key] % 2 == 1) == (key in m.key_set)


class TestDensityLowerBound:
    def test_triangle(self):
        assert density_lower_bound(triangle()) == 1

    def test_two_copies_dim3(self):
        # exhaustive: N = M gives ceil(14/7) = 2; one block gives ceil(7/4) = 2
        assert density_lower_bound(independent_copies(2, 3)) == 2

    def test_complete_dim4_exhaustive(self):
        assert density_lower_bound(complete_matroid(4)) == 3

    def test_heuristic_path_is_still_a_bound(self):
        # force the heuristic by setting the exhaustive limit below |M|
        m = complete_matroid(4)
        exact = density_lower_bound(m, exhaustive_limit=20)
        heur = density_lower_bound(m, exhaustive_limit=4)
        assert heur <= exact
        assert heur >= math.ceil(len(m) / (rank(m) + 1))

    def test_prefix_bound_matches_per_element_expansion(self):
        # reference: the bound above the exhaustive limit with one basis
        # expansion per element
        corpus = eulerian_corpus(24, seed=31, n_range=(4, 9), size_cap=60)
        corpus += [complete_matroid(6), independent_copies(3, 3), random_eulerian(12, 300, 1)]
        for m in corpus:
            basis = greedy_basis(m.keys, m.dim)
            elim = basis_eliminator(basis)
            counts = [0] * (len(basis) + 1)
            for key in m.keys:
                residual, mask = elim.reduce(key)
                assert residual == 0
                counts[mask.bit_length()] += 1  # the last basis index it needs, plus one
            expected = max(
                -(-sum(counts[: k + 1]) // (k + 1)) for k in range(1, len(basis) + 1)
            )
            assert density_lower_bound(m, exhaustive_limit=0) == expected

    def test_exhaustive_limit_cannot_lift_the_scan_cap(self):
        # 27 elements, above the 22-element cap of the exact subset scan
        with pytest.raises(TooLargeError):
            density_lower_bound(independent_copies(9, 2), exhaustive_limit=30)

    def test_bounds_both_cover_builders(self, small_corpus):
        for m in small_corpus:
            lb = density_lower_bound(m, exhaustive_limit=16)
            assert lb <= len(symdiff_reduce(m).circuits)
            assert lb <= len(oddcover_via_arboricity(m)[1].circuits)


class TestOddCoverType:
    def test_rejects_wrong_parity(self):
        from bmcircuits.circuits import Circuit

        tri = Circuit(2, [0b10, 0b01, 0b11])
        with pytest.raises(OutOfRangeError):
            OddCover(BinaryMatroid(2), (tri,))
