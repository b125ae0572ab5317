"""Cyclic-shift orbit decomposition of the even-weight model.

For an odd prime p, the nonzero even-weight vectors of F_2^p form a copy of
the complete binary matroid of dimension p - 1 (size 2^(p-1) - 1, rank p - 1).
When 2 has multiplicative order p - 1 modulo p, the orbits of the coordinate
rotation partition the model into (2^(p-1) - 1) / p circuits of size p, which
meets the quotient lower bound exactly. The order condition matters: p = 7
fails, and demonstrate_order_failure exhibits the breaking orbit.

orbit_decompose returns a formats.Decomposition with branch "orbit", as
decompose.auto_decompose does for the compressed orbits. Each check runs
once: Circuit checks each orbit's circuit law, _rotation_orbits its size p,
and the Decomposition that the orbits partition the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .circuits import Circuit, extract_any_circuit, is_circuit
from .errors import (
    BmcError,
    NotCoprimeError,
    NotPrimeError,
    OrderConditionError,
    OutOfRangeError,
)
from .formats import Decomposition
from .gf2core import BinaryMatroid, Gf2Vector

#: the model holds 2^(p-1) - 1 vectors as Python objects; orbit_decompose(19)
#: peaks at about 108 MB resident and `orbit --p 19`, which also writes,
#: re-reads (as int keys) and re-checks them, at about 136 MB (Python 3.11,
#: ru_maxrss of one process); the next admissible prime, 29, would need 2^28
#: of them
MAX_P = 19


def multiplicative_order(a: int, p: int) -> int:
    """Least k >= 1 with a^k = 1 (mod p); requires gcd(a, p) = 1."""
    if a < 2 or p < 2:
        raise OutOfRangeError("need a >= 2 and p >= 2")
    if gcd(a, p) != 1:
        raise NotCoprimeError(f"gcd({a}, {p}) != 1")
    k = 1
    value = a % p
    while value != 1:
        value = (value * a) % p
        k += 1
    return k


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _require_capped_prime(p: int) -> None:
    if not _is_odd_prime(p):
        raise NotPrimeError(f"{p} is not an odd prime")
    if p > MAX_P:
        raise OutOfRangeError(f"p = {p} exceeds the cap {MAX_P}")


def _require_admissible(p: int) -> None:
    _require_capped_prime(p)
    order = multiplicative_order(2, p)
    if order != p - 1:
        raise OrderConditionError(p, order)


def is_admissible(p: int) -> bool:
    """p is an odd prime no larger than MAX_P and 2 has order p - 1 mod p."""
    try:
        _require_admissible(p)
    except BmcError:
        return False
    return True


def _model_key(y: int) -> int:
    """The even-weight key with leading bits y; the last bit fixes the parity."""
    return (y << 1) | (y.bit_count() & 1)


def build_even_weight_model(p: int) -> BinaryMatroid:
    """All nonzero even-weight vectors of F_2^p: 2^(p-1) - 1 elements, rank p - 1.

    The leading p - 1 bits of a key, k >> 1, run through 1 .. 2^(p-1) - 1 in
    canonical order, so the element with key k sits at index (k >> 1) - 1.
    """
    _require_capped_prime(p)
    return BinaryMatroid.from_keys(p, map(_model_key, range(1, 1 << (p - 1))))


def cyclic_shift(x: Gf2Vector, j: int) -> Gf2Vector:
    """Rotate coordinates by j: coordinate i moves to coordinate i + j (mod p)."""
    p = x.n
    j %= p
    if j == 0:
        return x
    mask = (1 << p) - 1
    key = ((x.key >> j) | (x.key << (p - j))) & mask
    return Gf2Vector(p, key)


def _rotations(key: int, p: int) -> list[int]:
    mask = (1 << p) - 1
    return [((key >> j) | (key << (p - j))) & mask if j else key for j in range(p)]


def _rotation_orbits(p: int, elements: Sequence[Gf2Vector]) -> list[Circuit]:
    """The rotation orbits of the even-weight model for an admissible p, each
    a Circuit of the elements[(k >> 1) - 1] for its model keys k: the model's
    own vectors, or their compressions when elements is complete_matroid(p - 1).
    Representatives are the smallest keys, found by a scan over k >> 1;
    Circuit validates each orbit's circuit law.
    """
    visited = bytearray(1 << (p - 1))
    orbits: list[Circuit] = []
    for y in range(1, 1 << (p - 1)):
        if visited[y]:
            continue
        distinct = {k >> 1 for k in _rotations(_model_key(y), p)}
        if len(distinct) != p:
            raise OutOfRangeError(f"orbit of {_model_key(y):0{p}b} has {len(distinct)} elements")
        for x in distinct:
            visited[x] = 1
        orbits.append(Circuit(elements[x - 1] for x in distinct))
    return orbits


def orbit_decompose(p: int) -> Decomposition:
    """Partition the even-weight model into rotation orbits, each a circuit.

    The source is build_even_weight_model(p); every orbit is labelled
    phase 1 of branch "orbit". Preconditions, checked before anything is
    built: p is an odd prime (NotPrimeError) no larger than MAX_P
    (OutOfRangeError), and the multiplicative order of 2 mod p equals
    p - 1 (OrderConditionError).
    """
    _require_admissible(p)
    model = build_even_weight_model(p)
    orbits = tuple(_rotation_orbits(p, model.elements))
    return Decomposition(model, orbits, branch="orbit", phase1=len(orbits))


def compress_even_weight(m: BinaryMatroid) -> BinaryMatroid:
    """Drop the last coordinate after checking every vector has even weight.

    The projection is a linear bijection from the even-weight subspace onto
    F_2^(p-1), so matroid structure is preserved. On even-weight keys it is
    also strictly increasing, so element i of m maps to element i of the result.
    """
    for v in m.elements:
        if v.weight % 2 != 0:
            raise OutOfRangeError(f"{v.bits()} has odd weight")
    return BinaryMatroid.from_keys(m.dim - 1, (v.key >> 1 for v in m.elements))


@dataclass(frozen=True)
class OrderFailureReport:
    """Artifacts of the p = 7 counterexample orbit."""

    p: int
    order: int
    orbit: tuple[Gf2Vector, ...]
    orbit_is_circuit: bool
    parts: tuple[Circuit, Circuit]


def demonstrate_order_failure() -> OrderFailureReport:
    """Show the rotation method break at p = 7.

    The orbit of 1110100 (coordinates 0, 1, 2, 4) has 7 elements but is not a
    circuit; extraction splits it into two circuits whose sizes sum to 7.
    """
    p = 7
    order = multiplicative_order(2, p)
    seed = Gf2Vector.from_coords(p, (0, 1, 2, 4))
    keys = _rotations(seed.key, p)
    orbit = tuple(sorted(Gf2Vector(p, k) for k in set(keys)))
    whole = is_circuit(orbit)
    as_matroid = BinaryMatroid(p, orbit)
    first = extract_any_circuit(as_matroid)
    second = Circuit(as_matroid.difference(first).elements)
    return OrderFailureReport(p, order, orbit, whole, (first, second))
