import hashlib
import importlib
import math
import random

import pytest

from bmcircuits.arboricity import (
    IndependentPartition,
    Infeasible,
    arboricity,
    can_partition,
    max_quotient_exhaustive,
)
from bmcircuits.errors import EmptyMatroidError, TooLargeError
from bmcircuits.gf2core import BinaryMatroid, Gf2Eliminator, rank
from bmcircuits.generators import complete_matroid, independent_copies, random_eulerian

from conftest import dense_core, eulerian_corpus


def triangle():
    return BinaryMatroid(2, [0b10, 0b01, 0b11])


def quotient_scan(m):
    """Direct oracle: iterate every nonempty subset."""
    elems = m.keys
    best = 0
    for mask in range(1, 1 << len(elems)):
        subset = [elems[i] for i in range(len(elems)) if (mask >> i) & 1]
        elim = Gf2Eliminator(track_witnesses=False)
        for key in subset:
            elim.insert(key)
        best = max(best, math.ceil(len(subset) / elim.rank))
    return best


# exact parts as key tuples: speed-ups of the augmenting search and of the
# k loop must keep these tie-breaks
RANDOM_10_60_PARTS = (
    (14, 54, 59, 90, 149, 154, 157, 263, 272, 516),
    (255, 269, 270, 285, 289, 303, 311, 315, 330, 541),
    (344, 350, 359, 371, 405, 482, 487, 550, 556, 578),
    (585, 591, 607, 609, 621, 639, 663, 672, 705, 782),
    (637, 669, 696, 697, 725, 743, 760, 804, 807, 820),
    (818, 847, 858, 902, 903, 945, 1004, 1010, 1013),
    (1005, 1017),
)
DENSE_CORE_PARTS = (
    (16, 32, 64, 72, 102, 128, 164, 205, 256, 512),
    (48, 96, 112, 144, 255, 272, 292, 528, 554, 610),
    (160, 176, 192, 224, 288, 544, 565, 681, 714, 978),
    (208, 240, 304, 320, 336, 560),
    (352, 368, 384, 416, 448, 576),
    (400, 432, 464, 480, 592, 640),
    (496, 608, 624, 656, 672, 704),
    (688, 720, 736, 752, 768, 896),
    (784, 800, 816, 832, 912),
    (848, 864, 880, 928, 960),
    (944, 976, 992, 1008),
)


class TestCanPartition:
    def test_triangle_two_parts(self):
        result = can_partition(triangle(), 2)
        assert isinstance(result, IndependentPartition)
        assert len(result.parts) <= 2

    def test_triangle_one_part_infeasible(self):
        result = can_partition(triangle(), 1)
        assert isinstance(result, Infeasible)
        assert result.quotient == 2
        assert len(result.certificate) == 3

    def test_complete_dim3_two_parts_infeasible_with_certificate(self):
        result = can_partition(complete_matroid(3), 2)
        assert isinstance(result, Infeasible)
        cert = result.certificate
        assert math.ceil(len(cert) / rank(cert)) > 2

    def test_k_above_the_size_is_clamped(self, monkeypatch):
        # the package re-exports arboricity(), which shadows the module name
        module = importlib.import_module("bmcircuits.arboricity")
        sizes = []
        state = module._PartState

        def recording(k):
            sizes.append(k)
            return state(k)

        monkeypatch.setattr(module, "_PartState", recording)
        for m in (triangle(), dense_core()):
            assert can_partition(m, 10**6).parts == can_partition(m, len(m)).parts
        assert can_partition(BinaryMatroid(3), 10**6).parts == ()
        assert sizes == [3, 3, 74, 74, 1]


class TestArboricity:
    def test_triangle(self):
        a, partition = arboricity(triangle())
        assert a == 2
        assert len(partition.parts) == 2

    def test_complete_dim3(self):
        # oracle: direct scan over all 127 subsets
        assert quotient_scan(complete_matroid(3)) == 3
        a, _ = arboricity(complete_matroid(3))
        assert a == 3

    @pytest.mark.parametrize("k,s", [(1, 3), (2, 3), (3, 2), (2, 4)])
    def test_block_copies_closed_form(self, k, s):
        a, _ = arboricity(independent_copies(k, s))
        assert a == math.ceil(((1 << s) - 1) / s)

    def test_partition_parts_count_matches_k(self):
        m = complete_matroid(4)
        a, partition = arboricity(m)
        assert len(partition.parts) == a

    def test_empty_rejected(self):
        with pytest.raises(EmptyMatroidError):
            arboricity(BinaryMatroid(3))

    def test_monotone_under_subsets(self):
        picker = random.Random(5)
        for m in eulerian_corpus(10, seed=11, n_range=(4, 8), size_cap=18):
            a_full, _ = arboricity(m)
            keys = list(m.keys)
            picker.shuffle(keys)
            for cut in (len(keys) // 2, len(keys) - 1):
                if cut < 1:
                    continue
                sub = BinaryMatroid(m.dim, keys[:cut])
                a_sub, _ = arboricity(sub)
                assert a_sub <= a_full


class TestTieBreaks:
    def test_random_parts_pinned(self):
        a, partition = arboricity(random_eulerian(10, 60, seed=3))
        assert a == 7
        assert partition.parts == RANDOM_10_60_PARTS

    def test_dense_core_parts_pinned(self):
        m = dense_core()
        assert len(m) == 74
        a, partition = arboricity(m)
        assert a == 11
        assert partition.parts == DENSE_CORE_PARTS

    def test_parts_and_certificate_at_scale_pinned(self):
        # a = 143: k = 143 keeps 143 parts in the search, k = 142 fails
        # with the whole input as its certificate
        m = random_eulerian(14, 2000, seed=1)
        parts = can_partition(m, 143).parts
        assert len(parts) == 143
        assert hashlib.sha256(repr(parts).encode()).hexdigest() == (
            "83fde79b3ff1b7ca40f9e92d3d236658e87f5ae4586cc101a59cbb902b2c1a17")
        result = can_partition(m, 142)
        assert result.quotient == 143 and len(result.certificate) == len(m) == 2001
        digest = hashlib.sha256(repr((result.certificate.keys, result.quotient)).encode())
        assert digest.hexdigest() == (
            "c64dcd37ac780d0b01ddd4c87d05654a4ed721a4d3386f25144b05c0c2b63755")

    def test_dense_core_jumps_to_certificate_quotient(self, monkeypatch):
        # the package re-exports arboricity(), which shadows the module name
        module = importlib.import_module("bmcircuits.arboricity")
        tried = []

        def counting(m, k):
            tried.append(k)
            return can_partition(m, k)

        monkeypatch.setattr(module, "can_partition", counting)
        a, _ = arboricity(dense_core())
        assert a == 11
        assert tried == [8, 11]


def count_reduces(monkeypatch):
    """Count Gf2Eliminator.reduce calls: the search's expansions, the only
    span tests that build a witness mask, and the certificate's membership
    tests."""
    calls = []
    reduce = Gf2Eliminator.reduce

    def counted(self, key):
        calls.append(key)
        return reduce(self, key)

    monkeypatch.setattr(Gf2Eliminator, "reduce", counted)
    return calls


class TestSearchReadsOnlyWhatItNeeds:
    @pytest.mark.parametrize("m", [triangle(), dense_core(), complete_matroid(5),
                                   random_eulerian(12, 500, seed=1)],
                             ids=["triangle", "dense_core", "complete5", "random12x500"])
    def test_k_at_the_size_never_builds_a_mask(self, monkeypatch, m):
        # with i keys placed part i is empty, so every search ends at a free
        # slot for its own key, tested in place, and expands nothing
        calls = count_reduces(monkeypatch)
        result = can_partition(m, len(m))
        assert isinstance(result, IndependentPartition)
        assert calls == []

    def test_infeasible_k_still_expands(self, monkeypatch):
        calls = count_reduces(monkeypatch)
        result = can_partition(dense_core(), 8)
        assert isinstance(result, Infeasible) and result.quotient == 11
        assert calls

    def test_infeasible_k_reduces_every_key_for_the_certificate(self, monkeypatch):
        # cl(R) ∩ M is read off one reduce per key of M, in key order, after
        # the search's expansions
        m = dense_core()
        calls = count_reduces(monkeypatch)
        assert isinstance(can_partition(m, 8), Infeasible)
        assert len(calls) >= len(m) and calls[-len(m):] == list(m.keys)


class TestEdmondsBruteforce:
    def test_triangle(self):
        assert max_quotient_exhaustive(triangle()) == 2

    def test_complete_dim3_matches_direct_scan(self):
        assert max_quotient_exhaustive(complete_matroid(3)) == quotient_scan(
            complete_matroid(3)
        )

    def test_complete_dim4(self):
        assert max_quotient_exhaustive(complete_matroid(4)) == 4

    def test_two_disjoint_triangles(self):
        assert max_quotient_exhaustive(independent_copies(2, 2)) == 2

    def test_size_limit(self):
        with pytest.raises(TooLargeError):
            max_quotient_exhaustive(complete_matroid(5))

    def test_min_max_equality_on_corpus(self):
        for m in eulerian_corpus(25, seed=23, n_range=(3, 9), size_cap=18):
            a, partition = arboricity(m)
            assert a == max_quotient_exhaustive(m)
            assert len(partition.parts) == a
