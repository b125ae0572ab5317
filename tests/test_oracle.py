import itertools
import random

import pytest

from bmcircuits.circuits import fundamental_circuit, is_circuit
from bmcircuits.errors import NotEulerianError, TooLargeError
from bmcircuits.gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    Gf2Vector,
    max_independent_subset,
)
from bmcircuits.generators import complete_matroid, independent_copies
from bmcircuits.oracle import (
    _components,
    c2_search_is_restricted,
    enumerate_circuits,
    exact_c,
    exact_c2,
    intersection_lower_bound,
    probe_conjectures,
)
from bmcircuits.oddcover import density_lower_bound


def vec(bits):
    return Gf2Vector.from_bits(bits)


def triangle():
    return BinaryMatroid(2, [vec("10"), vec("01"), vec("11")])


def circuits_by_scan(m):
    """Direct oracle: test every subset for sum zero and rank size-1."""
    elems = list(m.elements)
    found = set()
    for size in range(3, len(elems) + 1):
        for combo in itertools.combinations(range(len(elems)), size):
            vs = [elems[i] for i in combo]
            acc = 0
            for v in vs:
                acc ^= v.key
            if acc != 0:
                continue
            elim = Gf2Eliminator(track_witnesses=False)
            for v in vs:
                elim.insert(v.key)
            if elim.rank == size - 1:
                found.add(frozenset(v.key for v in vs))
    return found


class TestEnumerateCircuits:
    def test_triangle(self):
        assert enumerate_circuits(triangle()).masks == (0b111,)

    def test_complete_dim3_matches_direct_scan(self):
        m = complete_matroid(3)
        catalog = enumerate_circuits(m)
        direct = circuits_by_scan(m)
        listed = {frozenset(c.key_set) for c in catalog.circuits()}
        assert listed == direct
        assert len(listed) == 14  # 7 triangles plus 7 quadruples
        sizes = sorted(mask.bit_count() for mask in catalog.masks)
        assert sizes.count(3) == 7 and sizes.count(4) == 7

    def test_five_disjoint_triangles(self):
        masks = enumerate_circuits(independent_copies(5, 2)).masks
        assert masks == tuple(0b111 << 3 * i for i in range(5))

    def test_empty(self):
        assert enumerate_circuits(BinaryMatroid(3)).masks == ()

    def test_one_spanning_circuit_of_rank_23(self):
        # unit vectors of F_2^23 and their sum: one circuit of 24 elements,
        # out of reach of a walk over the 2^23 independent subsets
        m = BinaryMatroid.from_keys(23, [1 << i for i in range(23)] + [(1 << 23) - 1])
        assert enumerate_circuits(m).masks == ((1 << 24) - 1,)

    def test_every_entry_is_a_circuit(self, small_corpus):
        for m in small_corpus:
            if len(m) > 18:
                continue
            catalog = enumerate_circuits(m)
            for c in catalog.circuits():
                assert is_circuit(c.elements)

    def test_contains_all_fundamental_circuits(self, small_corpus):
        for m in small_corpus:
            if len(m) > 18:
                continue
            listed = {frozenset(c.key_set) for c in enumerate_circuits(m).circuits()}
            basis = max_independent_subset(m)
            basis_keys = {b.key for b in basis}
            for v in m.elements:
                if v.key in basis_keys:
                    continue
                fc = fundamental_circuit(v, basis)
                assert frozenset(fc.key_set) in listed

    def test_size_limit(self):
        with pytest.raises(TooLargeError):
            enumerate_circuits(complete_matroid(5))


class TestComponents:
    def test_independent_copies_split_into_their_blocks(self):
        for k, s in ((1, 2), (3, 2), (8, 2), (2, 3), (3, 3)):
            blocks = {
                BinaryMatroid.from_keys(k * s, (key << shift for key in range(1, 1 << s)))
                for shift in range(0, k * s, s)
            }
            components = _components(independent_copies(k, s))
            assert len(components) == k and set(components) == blocks

    def test_complete_matroid_is_connected(self):
        for n in (2, 3, 4, 6):
            assert _components(complete_matroid(n)) == [complete_matroid(n)]


class TestExactC:
    def test_disjoint_triangles(self):
        for k in (1, 3, 6, 8):
            assert exact_c(independent_copies(k, 2)) == k

    def test_cap_is_on_the_whole_input(self):
        # 9 triangles: every component is tiny, but 27 elements exceed the cap
        with pytest.raises(TooLargeError, match=r"\|M\| = 27 exceeds 24"):
            exact_c(independent_copies(9, 2))

    def test_complete_dim2(self):
        assert exact_c(complete_matroid(2)) == 1

    def test_complete_dim4(self):
        assert exact_c(complete_matroid(4)) == 3

    def test_empty(self):
        assert exact_c(BinaryMatroid(3)) == 0

    def test_not_eulerian(self):
        with pytest.raises(NotEulerianError):
            exact_c(BinaryMatroid(2, [vec("10")]))

    def test_quotient_bound_respected(self, small_corpus):
        import math

        from bmcircuits.gf2core import rank

        for m in small_corpus:
            if len(m) > 16:
                continue
            c = exact_c(m)
            assert c >= density_lower_bound(m, exhaustive_limit=16)
            assert c >= math.ceil(len(m) / (rank(m) + 1))


def cycle_space_distances(d):
    """Fewest circuits of the complete matroid of F_2^d whose XOR is each
    Eulerian subset (bit i = key i + 1), by breadth-first search from the
    empty set; and the largest circuit size."""
    catalog = enumerate_circuits(complete_matroid(d))
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for state in frontier:
            for mk in catalog.masks:
                if state ^ mk not in dist:
                    dist[state ^ mk] = dist[state] + 1
                    nxt.append(state ^ mk)
        frontier = nxt
    return dist, catalog.max_size()


class TestExactC2:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_no_failed_budget_is_worth_remembering(self, d):
        # the facts exact_c2's docstring rests on: c2 <= 3, circuits have at
        # most 5 elements, and every set with c2 = 3 is over twice that size
        dist, max_size = cycle_space_distances(d)
        assert len(dist) == 2 ** ((1 << d) - 1 - d)  # every Eulerian subset
        assert max(dist.values()) <= 3 and max_size <= 5
        assert all(s.bit_count() > 2 * max_size for s, c2 in dist.items() if c2 == 3)

    def test_matches_breadth_first_search(self):
        dist, _ = cycle_space_distances(4)
        hardest = [s for s, c2 in dist.items() if c2 == 3]
        others = sorted(s for s, c2 in dist.items() if 0 < c2 < 3)
        assert len(hardest) == 141
        for s in hardest + random.Random(0).sample(others, 50):
            keys = [i + 1 for i in range(15) if s >> i & 1]
            assert exact_c2(BinaryMatroid.from_keys(4, keys)) == dist[s]

    def test_triangle(self):
        assert exact_c2(triangle()) == 1

    def test_two_copies_of_dim2(self):
        m = independent_copies(2, 2)
        assert not c2_search_is_restricted(m)
        assert exact_c2(m) == 2

    def test_complete_dim3(self):
        # a triangle plus the complementary quadruple decompose it, so 2
        # suffice; no single ambient circuit equals all 7 elements
        m = complete_matroid(3)
        v = exact_c2(m)
        assert v == 2
        assert v <= exact_c(m)

    def test_restricted_flag(self):
        # dim 6 exceeds the ambient cap but rank 4 allows the span search
        embedded = BinaryMatroid.from_keys(
            6, [k << 2 for k in complete_matroid(4).key_set]
        )
        assert c2_search_is_restricted(embedded)
        assert exact_c2(embedded) == exact_c2(complete_matroid(4)) == 3

    def test_out_of_range(self):
        with pytest.raises(TooLargeError):
            c2_search_is_restricted(independent_copies(2, 3))

    def test_c2_at_most_c(self, small_corpus):
        for m in small_corpus:
            if m.dim > 4 or len(m) > 15:
                continue
            assert exact_c2(m) <= exact_c(m)


class TestIntersectionLowerBound:
    def test_two_copies_dim3(self):
        # no circuit inside M exceeds 4 elements and rank(M) = 6, so any
        # cover circuit touches at most 6 of the 14 elements
        m = independent_copies(2, 3)
        assert intersection_lower_bound(m) == 3

    def test_triangle(self):
        assert intersection_lower_bound(triangle()) == 1

    def test_disjoint_triangles(self):
        # rank 16 exceeds the largest circuit, a triangle: ceil(24 / 16)
        assert intersection_lower_bound(independent_copies(8, 2)) == 2

    def test_cap_is_on_the_whole_input(self):
        with pytest.raises(TooLargeError, match="27 exceeds 24"):
            intersection_lower_bound(independent_copies(9, 2))


class TestProbeConjectures:
    def test_triangle(self):
        rep = probe_conjectures(triangle())
        assert rep.c == 1
        assert rep.complete_quotient_bound == 1
        assert rep.decomposition_status == "CONSISTENT"
        assert rep.c2 == 1 and rep.a == 2
        assert rep.oddcover_status == "CONSISTENT"

    def test_complete_dim4(self):
        rep = probe_conjectures(complete_matroid(4))
        assert rep.c == 3 and rep.complete_quotient_bound == 3
        assert rep.decomposition_status == "CONSISTENT"

    def test_two_copies_dim2(self):
        rep = probe_conjectures(independent_copies(2, 2))
        assert rep.c2 == 2 and rep.a == 2
        assert rep.oddcover_status == "CONSISTENT"

    def test_skips_oversized_c2(self):
        rep = probe_conjectures(independent_copies(2, 3))
        assert rep.c2 is None
        assert rep.oddcover_status == "SKIPPED"
