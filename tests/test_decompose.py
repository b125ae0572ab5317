import math
from fractions import Fraction

import pytest

from bmcircuits.decompose import (
    Decomposition,
    DenseParams,
    _meets_pow2,
    _peel,
    auto_decompose,
    binary_entropy,
    entropy_bound_holds,
    peel_decompose,
)
from bmcircuits.errors import NotEulerianError, OutOfRangeError
from bmcircuits.gf2core import BinaryMatroid, rank
from bmcircuits.generators import complete_matroid, independent_copies
from bmcircuits.oracle import enumerate_circuits

from conftest import PIN_INPUTS, circuit_keys, peel_family_pins


def triangle():
    return BinaryMatroid(2, [0b10, 0b01, 0b11])


def check_valid(m, dec):
    seen = set()
    for c in dec.circuits:
        assert not (seen & c.key_set)
        seen |= c.key_set
    assert seen == set(m.key_set)
    assert sum(len(c) for c in dec.circuits) == len(m)
    if len(m):
        assert len(dec.circuits) >= math.ceil(len(m) / (rank(m) + 1))
        assert 3 * len(dec.circuits) <= len(m)


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(Fraction(1, 2)) == pytest.approx(1.0)

    def test_endpoints_zero(self):
        assert binary_entropy(0) == 0.0
        assert binary_entropy(1) == 0.0

    def test_quarter(self):
        # -(1/4)log2(1/4) - (3/4)log2(3/4), evaluated independently
        assert binary_entropy(Fraction(1, 4)) == pytest.approx(0.8112781244591328)

    def test_monotone_on_lower_half(self):
        values = [binary_entropy(Fraction(k, 20)) for k in range(11)]
        assert values == sorted(values)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            binary_entropy(1.5)


class TestEntropyBound:
    def test_r10_half(self):
        # sum_{i=0}^{5} C(10,i) = 638 <= 2^10 = 1024
        assert sum(math.comb(10, i) for i in range(6)) == 638
        assert entropy_bound_holds(10, Fraction(1, 2))

    def test_r1_zero(self):
        assert entropy_bound_holds(1, 0)

    def test_exhaustive_r30(self):
        for k in range(16):
            assert entropy_bound_holds(30, Fraction(k, 30))

    def test_a_above_half_rejected(self):
        with pytest.raises(OutOfRangeError):
            entropy_bound_holds(10, Fraction(2, 3))


class TestDenseParams:
    def test_eps_half(self):
        p = DenseParams.from_epsilon(Fraction(1, 2))
        assert p.alpha == Fraction(4, 9)
        assert 0 < p.delta < 0.01

    def test_positive_epsilon_required(self):
        with pytest.raises(OutOfRangeError):
            DenseParams.from_epsilon(0)


class TestPeel:
    def test_empty(self):
        d = peel_decompose(BinaryMatroid(4))
        assert len(d.circuits) == 0

    def test_triangle(self):
        d = peel_decompose(triangle())
        assert len(d.circuits) == 1

    def test_complete_dim6(self):
        m = complete_matroid(6)
        d = peel_decompose(m)
        check_valid(m, d)
        assert len(d.circuits) <= 63 // 3

    def test_not_eulerian(self):
        with pytest.raises(NotEulerianError):
            peel_decompose(BinaryMatroid(2, [0b10]))


class TestPeelLoop:
    def test_phase1_ends_at_the_first_rejected_step_and_never_resumes(self):
        m = complete_matroid(6)
        seen = []
        d = _peel(m, "x", lambda size: seen.append(size) or len(seen) != 2)
        assert seen == [len(m), len(m) - len(d.circuits[0])]  # not asked after the rejection
        assert (d.phase1, d.phase2) == (1, len(d) - 1)
        assert d.circuits == peel_decompose(m).circuits


class TestLogGreedy:
    """The sparse regime: phase 1 while at least |M| / ln^2 |M| elements are left."""

    def test_five_blocks_forced_triangles(self):
        m = independent_copies(5, 2)
        # every circuit of this matroid is one of the 5 block triangles
        assert len(enumerate_circuits(m).masks) == 5
        d = auto_decompose(m)
        check_valid(m, d)
        assert d.branch == "sparse"
        assert len(d.circuits) == 5

    def test_triangle(self):
        d = auto_decompose(triangle())
        assert (d.branch, len(d.circuits)) == ("trivial", 1)

    def test_complete_dim8_ceiling(self):
        m = complete_matroid(8)
        d = peel_decompose(m)
        check_valid(m, d)
        assert len(d.circuits) <= 2 * 255 * 3 / 8

    def test_reports_phases(self):
        d = auto_decompose(complete_matroid(5))
        assert d.phase1 + d.phase2 == len(d.circuits)
        assert d.branch == "sparse"


class TestDense:
    @pytest.mark.parametrize("n, floor_size, smallest", [(9, 4, 10), (11, 5, 12)],
                             ids=["complete_9", "complete_11"])
    def test_phase1_circuits_exceed_the_floor(self, n, floor_size, smallest):
        m = complete_matroid(n)
        params = DenseParams.from_epsilon(Fraction(1, 2))
        d = auto_decompose(m)
        check_valid(m, d)
        assert d.branch == "dense" and d.phase1 > 0
        assert math.ceil(params.alpha * n) == floor_size
        assert min(len(c) for c in d.circuits[: d.phase1]) == smallest

    def test_triangle_not_dense_enough(self):
        # 3 < 2^((1-delta)*2) for the epsilon = 1/2 delta, and the dispatcher
        # labels the triangle trivial before any density test
        params = DenseParams.from_epsilon(Fraction(1, 2))
        assert not _meets_pow2(3, (1 - params.delta) * 2)
        assert auto_decompose(triangle()).branch == "trivial"

    def test_complete_dim12_validity_and_finite_ceiling(self):
        m = complete_matroid(12)
        params = DenseParams.from_epsilon(Fraction(1, 2))
        d = peel_decompose(m)
        check_valid(m, d)
        # honest finite accounting: phase 1 uses at most |M|/(alpha r) circuits,
        # phase 2 at most one circuit per 3 remaining elements
        phase1_cap = len(m) / (params.alpha * 12)
        phase2_cap = 2 ** ((1 - 2 * params.delta) * 12) / 3 + 1
        assert len(d.circuits) <= phase1_cap + phase2_cap


class TestAuto:
    def test_complete_dim10_orbit_branch(self):
        d = auto_decompose(complete_matroid(10))
        assert d.branch == "orbit"
        assert len(d.circuits) == 93

    @pytest.mark.parametrize("n", [4, 10, 12])
    def test_admissible_complete_meets_quotient_bound(self, n):
        m = complete_matroid(n)
        d = auto_decompose(m)
        check_valid(m, d)
        assert d.branch == "orbit"
        assert len(d.circuits) == math.ceil(len(m) / (n + 1))
        assert (d.phase1, d.phase2) == (len(d.circuits), 0)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8, 9, 11])
    def test_other_complete_dimensions_are_peeled(self, n):
        m = complete_matroid(n)
        d = auto_decompose(m)
        assert d.branch != "orbit"
        assert circuit_keys(d.circuits) == circuit_keys(peel_decompose(m).circuits)

    def test_complete_minus_a_triangle_is_peeled(self):
        # one short of complete: the orbit branch needs the whole matroid
        m = BinaryMatroid(4, complete_matroid(4).key_set - {1, 2, 3})
        d = auto_decompose(m)
        assert d.branch != "orbit"
        assert circuit_keys(d.circuits) == circuit_keys(peel_decompose(m).circuits)

    def test_sparse_branch_for_block_triangles(self):
        d = auto_decompose(independent_copies(5, 2))
        assert d.branch == "sparse"
        assert len(d.circuits) == 5

    def test_bad_epsilon_refused_on_a_trivial_input(self):
        with pytest.raises(OutOfRangeError):
            auto_decompose(complete_matroid(2), 0)

    def test_empty_trivial(self):
        d = auto_decompose(BinaryMatroid(3))
        assert d.branch == "trivial"
        assert len(d.circuits) == 0

    def test_corpus_validity(self, small_corpus):
        for m in small_corpus:
            check_valid(m, auto_decompose(m))


class TestDecompositionType:
    def test_rejects_overlap(self):
        m = complete_matroid(2)
        from bmcircuits.circuits import Circuit

        c = Circuit(m.dim, m.keys)
        with pytest.raises(OutOfRangeError):
            Decomposition(m, (c, c))

    def test_rejects_partial_union(self):
        m = complete_matroid(3)
        from bmcircuits.circuits import Circuit

        c = Circuit(3, [0b001, 0b010, 0b011])
        with pytest.raises(OutOfRangeError):
            Decomposition(m, (c,))

    def test_rejects_circuit_of_another_dimension(self):
        # same keys as the matroid's elements, but vectors of F_2^2, not F_2^3
        m = BinaryMatroid(3, [0b001, 0b010, 0b011])
        from bmcircuits.circuits import Circuit

        with pytest.raises(OutOfRangeError):
            Decomposition(m, (Circuit(2, triangle().keys),))


DECOMPOSERS = {"peel": peel_decompose, "auto": auto_decompose}


#: one non-Eulerian input per route of auto_decompose to circuits.WorkingSet
NON_EULERIAN = {
    "trivial": lambda: BinaryMatroid(2, [0b10]),
    "sparse": lambda: BinaryMatroid(10, independent_copies(5, 2).key_set - {1}),
    # 126 elements: not complete, and dense-sized, so the density test runs first
    "dense": lambda: BinaryMatroid(7, complete_matroid(7).key_set - {1}),
}


@pytest.mark.parametrize("route", sorted(NON_EULERIAN))
@pytest.mark.parametrize("routine", sorted(DECOMPOSERS))
def test_non_eulerian_input_refused(routine, route):
    with pytest.raises(NotEulerianError):
        DECOMPOSERS[routine](NON_EULERIAN[route]())


class TestTieBreaks:
    """Exact circuits, branch and phases on four inputs: a change of circuit
    choice or tie-break anywhere in the peel family shows here."""

    @pytest.mark.parametrize("name", sorted(PIN_INPUTS))
    @pytest.mark.parametrize("routine", sorted(DECOMPOSERS))
    def test_pinned(self, name, routine):
        m = PIN_INPUTS[name]()
        pin = peel_family_pins()[name][routine]
        d = DECOMPOSERS[routine](m)
        assert (d.branch, d.phase1, d.phase2) == (pin["branch"], pin["phase1"], pin["phase2"])
        assert circuit_keys(d.circuits) == pin["circuits"]

    def test_rank_drops_mid_peel(self):
        # the first circuit empties one block, so later steps run at a lower rank
        m = independent_copies(4, 3)
        first = peel_decompose(m).circuits[0]
        assert rank(BinaryMatroid(m.dim, m.key_set - first.key_set)) < rank(m)
