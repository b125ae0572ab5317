"""Circuit decompositions of Eulerian binary matroids.

peel_decompose and auto_decompose return the circuits of circuits.peel,
which removes the largest fundamental circuit until nothing is left.
peel_decompose labels every step phase 1. auto_decompose is the one
dispatcher that picks labels: it returns the rotation orbits of orbit.py on
an admissible complete matroid, which meet the quotient bound, and otherwise
labels the peel trivial, dense or sparse, by the size guarantee that applies
to the input.

Each run peels its own circuits.WorkingSet, built as gf2core.column_rref
of the matroid's keys, the one elimination kernel; each removal updates
only the rows that hold a removed position, read from the search that found
the circuit: a fundamental circuit's pivot rows hold its one position
outside the basis and no pivot but their own, so each loses its lowest bit
and that one. Once three quarters of the elements are gone, the state is
rebuilt over the keys left; a reduced echelon form with lowest-bit pivots
is unique, and renumbering the positions in their order keeps every pivot,
so the rows are the same ones, shorter. The pivots stay the first-seen
basis of the elements left, so every tie-break is the one a fresh scan of
them would find. Separate runs may proceed in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .circuits import peel
from .errors import OutOfRangeError
from .formats import Decomposition
from .gf2core import BinaryMatroid, rank
from .orbit import _rotation_orbits, is_admissible

#: log-comparison slack; ties resolve toward staying in the dense phase
_LOG2_MARGIN = 2.0 ** -30


def binary_entropy(a: Union[Fraction, float, int]) -> float:
    """H(a) = -a log2 a - (1-a) log2 (1-a), with H(0) = H(1) = 0."""
    x = float(a)
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"entropy argument {a} not in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class DenseParams:
    """Parameters of the dense-regime greedy.

    alpha = 1 / (2 + epsilon/2) is the per-circuit size factor and
    delta = (1 - H(alpha)) / 2 the density exponent margin.
    """

    epsilon: Fraction
    alpha: Fraction
    delta: float

    @classmethod
    def from_epsilon(cls, epsilon: Union[Fraction, float, str]) -> DenseParams:
        eps = Fraction(epsilon)
        if eps <= 0:
            raise OutOfRangeError("epsilon must be positive")
        alpha = 1 / (2 + eps / 2)
        delta = (1.0 - binary_entropy(alpha)) / 2.0
        if not (0 < alpha < Fraction(1, 2)) or delta <= 0:
            raise OutOfRangeError(f"degenerate parameters for epsilon={eps}")
        return cls(eps, alpha, delta)


def _meets_pow2(size: int, exponent: float) -> bool:
    """size >= 2**exponent for size >= 1, ties within the log margin counting
    as yes. Callers pass nonempty sets only."""
    return math.log2(size) >= exponent - _LOG2_MARGIN


def _peel(m: BinaryMatroid, branch: str, in_phase1=lambda size: True) -> Decomposition:
    """circuits.peel on m, with branch and phase labels.

    in_phase1(size) sees the number of elements left before a step. Phase 1
    ends at the first step it rejects and never resumes; the predicate only
    labels steps and never changes the circuits.
    """
    circuits = peel(m)
    phase1, left = 0, len(m)
    for c in circuits:
        if not in_phase1(left):
            break
        phase1 += 1
        left -= len(c)
    return Decomposition(m, tuple(circuits), branch, phase1, len(circuits) - phase1)


def peel_decompose(m: BinaryMatroid) -> Decomposition:
    """Peel largest fundamental circuits, every step labelled phase 1.
    Raises NotEulerianError unless m is Eulerian (circuits.WorkingSet)."""
    return _peel(m, "peel")


def auto_decompose(
    m: BinaryMatroid, epsilon: Union[Fraction, float, str] = Fraction(1, 2)
) -> Decomposition:
    """peel_decompose's circuits, labelled with the regime that applies to m,
    or the rotation orbits where they meet the quotient bound.

    DenseParams comes first, so a bad epsilon is refused on every input.
    Then one branch:

    - ``trivial``: at most 3 elements, all phase 1.
    - ``orbit``: the whole complete matroid of dimension p - 1 for an
      admissible p (orbit.is_admissible); the compressed rotation orbits
      meet ceil(|M| / (rank(M) + 1)) exactly.
    - ``dense``: |M| >= 2^((1 - delta) * r), r = rank(M). Phase 1 lasts
      while at least 2^((1 - 2*delta) * r) elements are left.
    - ``sparse``: every other input. Phase 1 lasts while at least
      |M| / ln^2 |M| elements are left.

    Every dense phase-1 circuit has more than ceil(alpha * r) elements, so
    the label needs no size test. 1 - 2*delta = H(alpha), so phase 1 has
    |work| >= 2^(H(alpha) * r - 2^-30). largest_fundamental_circuit returns
    at least guaranteed_circuit_size(|work|, rank(work)) elements, which is
    at least guaranteed_circuit_size(|work|, r), as rank(work) <= r. With
    k = floor(alpha * r), sum_{i<=k} C(r, i) <= 2^(H(alpha) * r)
    (TestEntropyBound in tests/test_decompose.py); for |work| below about
    1.5e9 the slack of 2^-30 is under one element, so |work| exceeds
    sum_{1<=i<=k} C(r, i): the circuit has at least k + 2 > ceil(alpha * r).

    Every circuit of a simple binary matroid has at least 3 elements, so
    phase 2 of either regime has at most a third as many circuits as
    elements. Raises NotEulerianError unless m is Eulerian.
    """
    params = DenseParams.from_epsilon(epsilon)
    if len(m) <= 3:
        return _peel(m, "trivial")
    if len(m) == (1 << m.dim) - 1 and is_admissible(m.dim + 1):
        return _rotation_orbits(m.dim + 1, m)
    r = rank(m)
    if _meets_pow2(len(m), (1.0 - params.delta) * r):
        phase1_exp = (1.0 - 2.0 * params.delta) * r
        return _peel(m, "dense", lambda size: _meets_pow2(size, phase1_exp))
    threshold = len(m) / math.log(len(m)) ** 2
    return _peel(m, "sparse", lambda size: size >= threshold)
