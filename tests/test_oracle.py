import gc
import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from bmcircuits import oracle
from bmcircuits.circuits import Circuit, is_circuit
from bmcircuits.decompose import peel_decompose
from bmcircuits.errors import NotEulerianError, TooLargeError
from bmcircuits.gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    _mask_indices,
    greedy_basis,
    rank,
)
from bmcircuits.generators import complete_matroid, independent_copies, random_eulerian
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

from conftest import basis_eliminator


def triangle():
    return BinaryMatroid(2, [0b10, 0b01, 0b11])


def circuits_by_scan(m):
    """Direct oracle: test every subset for sum zero and rank size-1."""
    elems = m.keys
    found = set()
    for size in range(3, len(elems) + 1):
        for combo in itertools.combinations(range(len(elems)), size):
            keys = [elems[i] for i in combo]
            acc = 0
            for key in keys:
                acc ^= key
            if acc != 0:
                continue
            elim = Gf2Eliminator(track_witnesses=False)
            for key in keys:
                elim.insert(key)
            if elim.rank == size - 1:
                found.add(frozenset(keys))
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

    def test_rank_6_matches_direct_scan(self):
        # 15 cycles of 6 or 7 elements here hold a triangle, so the
        # size-ordered filter decides which cycles are circuits
        m = random_eulerian(6, 12, 0)
        listed = {frozenset(c.key_set) for c in enumerate_circuits(m).circuits()}
        assert listed == circuits_by_scan(m)
        assert len(listed) == 71 and max(len(c) for c in listed) == 7

    def test_five_disjoint_triangles(self):
        masks = enumerate_circuits(independent_copies(5, 2)).masks
        assert masks == tuple(0b111 << 3 * i for i in range(5))

    def test_empty(self):
        assert enumerate_circuits(BinaryMatroid(3)).masks == ()

    def test_one_spanning_circuit_of_rank_23(self):
        # unit vectors of F_2^23 and their sum: one circuit of 24 elements,
        # out of reach of a walk over the 2^23 independent subsets
        m = BinaryMatroid(23, [1 << i for i in range(23)] + [(1 << 23) - 1])
        assert enumerate_circuits(m).masks == ((1 << 24) - 1,)

    def test_every_entry_is_a_circuit(self, small_corpus):
        for m in small_corpus:
            if len(m) > 18:
                continue
            catalog = enumerate_circuits(m)
            for c in catalog.circuits():
                assert is_circuit(c.keys)

    def test_contains_all_fundamental_circuits(self, small_corpus):
        for m in small_corpus:
            if len(m) > 18:
                continue
            listed = {frozenset(c.key_set) for c in enumerate_circuits(m).circuits()}
            basis = greedy_basis(m.keys, m.dim)
            elim = basis_eliminator(basis)
            for key in m.keys:
                if key in basis:
                    continue
                _, mask = elim.reduce(key)
                fc = Circuit(m.dim, [key] + [basis[i] for i in _mask_indices(mask)])
                assert frozenset(fc.key_set) in listed

    def test_size_limit(self):
        with pytest.raises(TooLargeError):
            enumerate_circuits(complete_matroid(5))


class TestComponents:
    def test_independent_copies_split_into_their_blocks(self):
        for k, s in ((1, 2), (3, 2), (8, 2), (2, 3), (3, 3)):
            blocks = {
                BinaryMatroid(k * s, (key << shift for key in range(1, 1 << s)))
                for shift in range(0, k * s, s)
            }
            components = _components(independent_copies(k, s))
            assert len(components) == k and set(components) == blocks

    def test_complete_matroid_is_connected(self):
        for n in (2, 3, 4, 6):
            assert _components(complete_matroid(n)) == [complete_matroid(n)]


#: random_eulerian(dim, size, seed) -> exact_c, on connected inputs where
#: peel misses the quotient floor, so the exact-cover search runs: (6, 20, 22)
#: peels 5 against a floor of 3, so two levels branch; (7, 16, 39) peels 4
#: against 2; the last three end one above their floor of 3, so the root is
#: searched to the end. tests/test_properties.py's reference_exact_c agrees.
SEARCHED = {
    (6, 20, 22): 3,
    (7, 16, 39): 2,
    (6, 20, 16): 4,
    (6, 20, 39): 4,
    (6, 22, 24): 4,
}


def quotient_floor(m):
    return math.ceil(len(m) / (rank(m) + 1))


class TestExactC:
    def test_disjoint_triangles(self):
        for k in (1, 3, 6, 8):
            assert exact_c(independent_copies(k, 2)) == k

    def test_cap_is_per_component(self):
        # 9 triangles: 27 elements in all, but every component has 3
        assert exact_c(independent_copies(9, 2)) == 9
        with pytest.raises(TooLargeError, match=r"\|M\| = 31 exceeds 24"):
            exact_c(complete_matroid(5))

    def test_complete_dim2(self):
        assert exact_c(complete_matroid(2)) == 1

    def test_complete_dim4(self):
        assert exact_c(complete_matroid(4)) == 3

    def test_empty(self):
        assert exact_c(BinaryMatroid(3)) == 0

    def test_not_eulerian(self):
        with pytest.raises(NotEulerianError):
            exact_c(BinaryMatroid(2, [0b10]))

    def test_quotient_bound_respected(self, small_corpus):
        # the exact bound up to 16 elements, the basis-prefix bound on 21 and 24
        above = [independent_copies(7, 2), random_eulerian(9, 23, 0)]
        for m in [m for m in small_corpus if len(m) <= 16] + above:
            c = exact_c(m)
            assert c >= density_lower_bound(m)
            assert c >= quotient_floor(m)

    @pytest.mark.parametrize("args", list(SEARCHED))
    def test_search_below_the_peel_count(self, args):
        m = random_eulerian(*args)
        assert len(_components(m)) == 1
        assert len(peel_decompose(m)) > quotient_floor(m)
        assert exact_c(m) == SEARCHED[args]

    def test_inflated_upper_bound(self, monkeypatch):
        # |C| circuits bounds every cover of C from above, but no cover
        # reaches it: the value must come from the search's own leaves
        monkeypatch.setattr(
            oracle, "peel_decompose", lambda sub: SimpleNamespace(circuits=sub.keys)
        )
        assert exact_c(complete_matroid(4)) == 3
        assert exact_c(independent_copies(3, 2)) == 3
        for args, c in SEARCHED.items():
            assert exact_c(random_eulerian(*args)) == c

    def test_peel_at_the_floor_enumerates_nothing(self, monkeypatch):
        def refuse(sub):
            raise AssertionError("enumerated a component that peel settles")

        monkeypatch.setattr(oracle, "enumerate_circuits", refuse)
        assert exact_c(complete_matroid(3)) == 2
        assert exact_c(independent_copies(8, 2)) == 8

    def test_search_frees_its_catalogue_on_return(self):
        # the recursive search's closure refers to itself; left as a cycle,
        # the catalogue would stay allocated until a full collection
        m = random_eulerian(6, 20, 22)  # in SEARCHED: peel misses the floor
        gc.collect()
        gc.disable()
        try:
            assert exact_c(m) == 3
            assert gc.collect() == 0
        finally:
            gc.enable()


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
        # facts of the ambient spaces, checked on the reference search; the
        # table exact_c2 reads does not rest on them: c2 <= 3, circuits have
        # at most 5 elements, and every set with c2 = 3 is over twice that size
        dist, max_size = cycle_space_distances(d)
        assert len(dist) == 2 ** ((1 << d) - 1 - d)  # every Eulerian subset
        assert max(dist.values()) <= 3 and max_size <= 5
        assert all(s.bit_count() > 2 * max_size for s, c2 in dist.items() if c2 == 3)

    def test_matches_breadth_first_search(self):
        # every Eulerian subset of each ambient space, the empty one included
        for d in (2, 3, 4):
            dist, _ = cycle_space_distances(d)
            for s, c2 in dist.items():
                keys = [i + 1 for i in range((1 << d) - 1) if s >> i & 1]
                assert exact_c2(BinaryMatroid(d, keys)) == c2
        assert sum(c2 == 3 for c2 in dist.values()) == 141  # of complete(4)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cover_distances_mark_nonzero_sums(self, d):
        xors = [0]  # the XOR of each subset, bit i standing for key i + 1
        for i in range((1 << d) - 1):
            xors += [x ^ (i + 1) for x in xors]
        table = oracle._cover_distances(d)
        assert np.array_equal(table == -1, np.array(xors) != 0)

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
        embedded = BinaryMatroid(
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

    def test_cap_is_per_component(self):
        # rank 18 exceeds the largest circuit, a triangle: ceil(27 / 18)
        assert intersection_lower_bound(independent_copies(9, 2)) == 2
        with pytest.raises(TooLargeError, match="31 exceeds 24"):
            intersection_lower_bound(complete_matroid(5))


class TestProbeConjectures:
    def test_triangle(self):
        rep = probe_conjectures(triangle())
        assert rep.c == 1
        assert rep.conj1_bound == 1
        assert rep.conj1 == "CONSISTENT"
        assert rep.c2 == 1 and rep.a == 2
        assert rep.conj2 == "CONSISTENT"

    def test_complete_dim4(self):
        rep = probe_conjectures(complete_matroid(4))
        assert rep.c == 3 and rep.conj1_bound == 3
        assert rep.conj1 == "CONSISTENT"

    def test_two_copies_dim2(self):
        rep = probe_conjectures(independent_copies(2, 2))
        assert rep.c2 == 2 and rep.a == 2
        assert rep.conj2 == "CONSISTENT"

    def test_skips_oversized_c2(self):
        rep = probe_conjectures(independent_copies(2, 3))
        assert rep.c2 is None
        assert rep.conj2 == "SKIPPED"

    def test_leaves_no_cyclic_garbage(self):
        # every exact search frees what it built on return: none leaves a
        # reference cycle for the collector (dim 4, sizes 5-12, as the
        # benchmark's probes)
        probe_conjectures(complete_matroid(4))  # builds the cached tables
        sizes = random.Random(0).choices(range(5, 13), k=40)
        inputs = [random_eulerian(4, size, seed) for seed, size in enumerate(sizes)]
        gc.collect()
        gc.disable()
        try:
            for m in inputs:
                probe_conjectures(m)
                assert gc.collect() == 0
        finally:
            gc.enable()
