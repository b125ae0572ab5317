import pytest

from bmcircuits.circuits import is_circuit
from bmcircuits.decompose import auto_decompose
from bmcircuits.errors import (
    NotCoprimeError,
    NotPrimeError,
    OrderConditionError,
    OutOfRangeError,
)
from bmcircuits.formats import Decomposition
from bmcircuits.generators import complete_matroid
from bmcircuits.gf2core import rank
from bmcircuits.orbit import (
    _rotations,
    build_even_weight_model,
    demonstrate_order_failure,
    is_admissible,
    multiplicative_order,
    orbit_decompose,
)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(2, 5) == 4  # 2, 4, 3, 1
        assert multiplicative_order(2, 7) == 3  # 2, 4, 1
        assert multiplicative_order(2, 3) == 2

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            multiplicative_order(6, 9)


class TestEvenWeightModel:
    def test_p3(self):
        m = build_even_weight_model(3)
        assert [format(k, "03b") for k in m.keys] == ["011", "101", "110"]

    def test_p5_size_and_rank(self):
        m = build_even_weight_model(5)
        assert len(m) == 15
        assert rank(m) == 4

    def test_p7_count(self):
        m = build_even_weight_model(7)
        assert len(m) == 63
        assert rank(m) == 6
        assert all(k.bit_count() % 2 == 0 for k in m.keys)

    def test_layout_puts_key_k_at_index_k_shifted_minus_one(self):
        model = build_even_weight_model(11)
        assert all(model.keys[(k >> 1) - 1] is k for k in model.keys)

    def test_not_prime(self):
        with pytest.raises(NotPrimeError):
            build_even_weight_model(9)
        with pytest.raises(NotPrimeError):
            build_even_weight_model(2)


class TestCyclicShift:
    """_rotations(key, p)[j] moves coordinate i to coordinate i + j (mod p)."""

    def test_basic_rotation(self):
        assert _rotations(0b10000, 5)[1] == 0b01000
        assert _rotations(0b11000, 5)[2] == 0b00110

    def test_identity(self):
        key = 0b10110
        assert _rotations(key, 5)[0] == key
        for _ in range(5):  # five shifts by one are a shift by 5 = 0 (mod 5)
            key = _rotations(key, 5)[1]
        assert key == 0b10110

    def test_group_action_laws_exhaustive_p5(self):
        model = build_even_weight_model(5)
        for key in model.keys:
            for j in range(5):
                for k in range(5):
                    shifted = _rotations(key, 5)[k]
                    assert _rotations(shifted, 5)[j] == _rotations(key, 5)[(j + k) % 5]


class TestOrbitDecompose:
    def test_p3_single_orbit(self):
        od = orbit_decompose(3)
        assert len(od.circuits) == 1
        assert od.circuits[0].key_set == {0b110, 0b011, 0b101}

    def test_p5_three_orbits(self):
        od = orbit_decompose(5)
        assert len(od.circuits) == 3
        assert all(len(o) == 5 for o in od.circuits)

    def test_p7_order_condition_fails(self):
        with pytest.raises(OrderConditionError) as exc:
            orbit_decompose(7)
        assert exc.value.order == 3

    def test_non_prime_rejected_before_order_check(self):
        # the order of 2 mod 9 is 6, so only the primality check can reject 9
        with pytest.raises(NotPrimeError):
            orbit_decompose(9)

    @pytest.mark.parametrize("p", [23, 29, 31])
    def test_primes_over_cap_rejected_before_building(self, p):
        with pytest.raises(OutOfRangeError):
            orbit_decompose(p)

    def test_huge_p_rejected_by_the_cap_before_any_primality_test(self):
        # trial division of a 30-digit prime would not return, so the cap comes
        # first: these 30-digit composites would otherwise raise NotPrimeError
        for p in (10**29 + 57, 10**29 + 1):
            with pytest.raises(OutOfRangeError):
                orbit_decompose(p)
            with pytest.raises(OutOfRangeError):
                build_even_weight_model(p)

    def test_admissible_primes_up_to_the_cap(self):
        # 7, 17 and 23 fail the order test, 9 is not prime, 29 is over the cap
        assert [p for p in range(-1, 40) if is_admissible(p)] == [3, 5, 11, 13, 19]

    @pytest.mark.parametrize("p", [3, 5, 11, 13])
    def test_counts_and_optimality(self, p):
        od = orbit_decompose(p)
        expected = ((1 << (p - 1)) - 1) // p
        assert len(od.circuits) == expected
        assert len(od.circuits) * p == (1 << (p - 1)) - 1
        # the count meets the quotient lower bound exactly
        model = od.source
        assert expected == -(-len(model) // (rank(model) + 1))

    @pytest.mark.parametrize("p", [5, 11])
    def test_orbit_vectors_are_the_models_own(self, p):
        od = orbit_decompose(p)
        keys = od.source.keys
        for orbit in od.circuits:
            for key in orbit.keys:
                assert key is keys[(key >> 1) - 1]

    @pytest.mark.parametrize("p", [5, 11, 13])
    def test_compresses_to_auto_on_the_complete_matroid(self, p):
        od = orbit_decompose(p)
        auto = auto_decompose(complete_matroid(p - 1))
        assert isinstance(od, Decomposition)
        assert od.source == build_even_weight_model(p)
        assert od.branch == auto.branch == "orbit"
        assert (od.phase1, od.phase2) == (auto.phase1, auto.phase2) == (len(od), 0)
        compressed = [frozenset(k >> 1 for k in c.key_set) for c in od.circuits]
        assert compressed == [c.key_set for c in auto.circuits]

    def test_orbits_are_shift_closed(self):
        od = orbit_decompose(5)
        for orbit in od.circuits:
            keys = orbit.key_set
            for key in orbit.keys:
                assert _rotations(key, 5)[1] in keys


class TestOrderFailureDemo:
    def test_full_report(self):
        rep = demonstrate_order_failure()
        assert rep.order == 3
        assert len(rep.orbit) == 7 and rep.orbit == tuple(sorted(rep.orbit))
        assert 0b1110100 in rep.orbit  # coordinates 0, 1, 2 and 4
        assert rep.orbit_is_circuit is False
        sizes = sorted(len(c) for c in rep.parts)
        assert sizes == [3, 4]
        for c in rep.parts:
            assert is_circuit(c.keys)
        combined = rep.parts[0].key_set | rep.parts[1].key_set
        assert combined == set(rep.orbit)


class TestCompression:
    def test_round_shape(self):
        """Dropping the parity bit maps the model onto complete_matroid(p - 1)."""
        model = build_even_weight_model(5)
        compressed = complete_matroid(4)
        assert [k >> 1 for k in model.keys] == list(compressed.keys)
        assert len(compressed) == len(model) == 15
        assert rank(compressed) == rank(model) == 4
