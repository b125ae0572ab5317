"""Cyclic-shift orbit decomposition of the even-weight model.

For an odd prime p, the nonzero even-weight vectors of F_2^p form a copy of
the complete binary matroid of dimension p - 1 (size 2^(p-1) - 1, rank p - 1).
When 2 has multiplicative order p - 1 modulo p, the orbits of the coordinate
rotation partition the model into (2^(p-1) - 1) / p circuits of size p, which
meets the quotient lower bound exactly. The order condition matters: p = 7
fails, and demonstrate_order_failure exhibits the breaking orbit.

_rotation_orbits builds the one formats.Decomposition with branch "orbit":
orbit_decompose returns it on the model, and decompose.auto_decompose and
`orbit --compress` on its compression. Each check runs once: Circuit checks
each orbit's circuit law, which includes that its p keys are distinct, and
the Decomposition that the orbits partition the model. No size check is
needed on top: a rotation orbit of a prime p has 1 or p elements, and
neither fixed point, all zeros or all ones (odd weight p), is a nonzero
even-weight key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd
from operator import or_

from .circuits import Circuit, is_circuit, largest_fundamental_circuit
from .errors import (
    BmcError,
    NotCoprimeError,
    NotPrimeError,
    OrderConditionError,
    OutOfRangeError,
)
from .formats import Decomposition
from .gf2core import BinaryMatroid

#: the model holds 2^(p-1) - 1 int keys as Python objects; orbit_decompose(19)
#: peaks at about 64 MB resident and `orbit --p 19`, which also writes them
#: one block at a time, re-reads them a run of vector lines (at most about
#: 64 KB) at a time and re-checks them, at about 76 MB in about 0.68 s
#: (median of five; Python 3.11, 2-core Xeon, ru_maxrss of one process); the
#: next admissible prime, 29, would need 2^28 of them
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
    """The cap first: trial division takes time proportional to sqrt(p)."""
    if p > MAX_P:
        raise OutOfRangeError(f"p = {p} exceeds the cap {MAX_P}")
    if not _is_odd_prime(p):
        raise NotPrimeError(f"{p} is not an odd prime")


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


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def build_even_weight_model(p: int) -> BinaryMatroid:
    """All nonzero even-weight vectors of F_2^p: 2^(p-1) - 1 elements, rank p - 1.

    The leading p - 1 bits of a key, k >> 1, run through 1 .. 2^(p-1) - 1 in
    canonical order, so the element with key k sits at index (k >> 1) - 1.
    The keys are _model_key's, built in bulk: parity[y] is the parity of y,
    doubled a block at a time (for y < 2^j, y + 2^j has the parity of y
    flipped), and the key of y is y << 1 | parity[y].
    """
    _require_capped_prime(p)
    parity = bytearray(1)
    while len(parity) < 1 << (p - 1):
        parity += parity.translate(_FLIP)
    return BinaryMatroid(p, map(or_, range(2, 1 << p, 2), islice(parity, 1, None)))


def _rotations(key: int, p: int) -> list[int]:
    """The p rotations of a p-bit key: entry j moves coordinate i to i + j (mod p)."""
    mask = (1 << p) - 1
    return [((key >> j) | (key << (p - j))) & mask if j else key for j in range(p)]


def _rotation_orbits(p: int, m: BinaryMatroid) -> Decomposition:
    """The rotation orbits of the even-weight model for an admissible p, as a
    Decomposition of m, every orbit phase 1 of branch "orbit". Each orbit is
    a Circuit of the m.keys[(k >> 1) - 1] for its model keys k: the model's
    own keys when m is the model, or their compressions k >> 1 when m is
    complete_matroid(p - 1). The circuits share m's int objects.
    Representatives are the smallest keys: visited.find jumps from one to the
    next unvisited k >> 1. The compressions of the p rotations of k are
    (doubled >> j) & half for j = 1 .. p, with doubled = k | k << p, and an
    even-weight key is fixed by its compression. Ascending k >> 1 is ascending
    key order in both cases, so Circuit gets each orbit already sorted, and
    validates its circuit law.

    The p compressions of an orbit are distinct, so none is tested here. The
    rotation group of a prime p has order p, so an orbit has 1 or p
    elements, and an orbit of 1 is a vector whose coordinates are all equal:
    all zeros, which is no key, or all ones, whose weight p is odd. A model
    key is neither, and two distinct even-weight keys have distinct
    compressions. Were an orbit to repeat a key all the same, Circuit would
    refuse it: is_circuit's rank test refuses repeated keys.
    """
    keys = m.keys
    half = (1 << (p - 1)) - 1
    shifts = range(1, p + 1)
    visited = bytearray(1 << (p - 1))
    visited[0] = 1  # no model key compresses to 0
    orbits: list[Circuit] = []
    y = visited.find(0)
    while y > 0:
        k = _model_key(y)
        doubled = k | k << p
        xs = sorted([(doubled >> j) & half for j in shifts])
        for x in xs:
            visited[x] = 1
        orbits.append(Circuit(m.dim, [keys[x - 1] for x in xs]))
        y = visited.find(0, y)
    return Decomposition(m, tuple(orbits), branch="orbit", phase1=len(orbits))


def orbit_decompose(p: int) -> Decomposition:
    """Partition the even-weight model into rotation orbits, each a circuit.

    The source is build_even_weight_model(p); every orbit is labelled
    phase 1 of branch "orbit". Preconditions, checked before anything is
    built: p is no larger than MAX_P (OutOfRangeError), an odd prime
    (NotPrimeError), and the multiplicative order of 2 mod p equals
    p - 1 (OrderConditionError).
    """
    _require_admissible(p)
    return _rotation_orbits(p, build_even_weight_model(p))


@dataclass(frozen=True)
class OrderFailureReport:
    """Artifacts of the p = 7 counterexample orbit."""

    p: int
    order: int
    orbit: tuple[int, ...]
    orbit_is_circuit: bool
    parts: tuple[Circuit, Circuit]


def demonstrate_order_failure() -> OrderFailureReport:
    """Show the rotation method break at p = 7.

    The orbit of 1110100 (coordinates 0, 1, 2, 4) has 7 elements, held as
    ascending int keys, but is not a circuit; its largest fundamental circuit
    (4 elements) and the other 3 elements split it into two circuits.
    """
    p = 7
    order = multiplicative_order(2, p)
    orbit = tuple(sorted(set(_rotations(0b1110100, p))))
    whole = is_circuit(orbit)
    first = largest_fundamental_circuit(BinaryMatroid(p, orbit))
    second = Circuit(p, set(orbit).difference(first.keys))
    return OrderFailureReport(p, order, orbit, whole, (first, second))
