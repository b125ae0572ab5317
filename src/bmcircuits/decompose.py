"""Circuit decompositions of Eulerian binary matroids.

peel_decompose, log_greedy_decompose and dense_decompose all return the
circuits of circuits.peel, which removes the largest fundamental circuit
until nothing is left; they differ in precondition and in the branch and
phase labels that record which size guarantee applies. auto_decompose
returns the rotation orbits of orbit.py on an admissible complete matroid,
which meet the quotient bound, and otherwise lets a density test pick the
labels.

Each run peels its own circuits.WorkingSet, built once as
gf2core.column_rref of the matroid's keys, the one elimination kernel; each
removal updates only the rows that hold a removed position. The pivots stay
the first-seen basis of the elements left, so every tie-break is the one a
fresh scan of them would find. Separate runs may proceed in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .circuits import peel
from .errors import NotDenseEnoughError, OutOfRangeError
from .formats import Decomposition
from .gf2core import BinaryMatroid, rank, require_eulerian
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


def entropy_bound_holds(r: int, a: Union[Fraction, float, int]) -> bool:
    """Exact check that sum_{i=0}^{floor(a*r)} C(r, i) <= 2^(H(a) * r).

    For rational a = p/q the right side is (q^q / (p^p (q-p)^(q-p)))^(r/q),
    so the comparison cross-multiplies to pure big-integer arithmetic. Used
    as a self-test: it must return True for every r >= 1 and a in [0, 1/2].
    """
    if r < 1:
        raise OutOfRangeError("r must be positive")
    frac = Fraction(a)
    if not 0 <= frac <= Fraction(1, 2):
        raise OutOfRangeError(f"a = {a} not in [0, 1/2]")
    if frac.denominator > 4096:
        raise OutOfRangeError("pass a small rational (denominator <= 4096)")
    p, q = frac.numerator, frac.denominator
    k = (p * r) // q
    lhs = sum(math.comb(r, i) for i in range(k + 1))
    if p == 0:
        return lhs <= 1
    # lhs <= (q^q / (p^p (q-p)^(q-p)))^(r/q)  iff  lhs^q * (p^p (q-p)^(q-p))^r <= q^(q*r)
    denom_base = p**p * (q - p) ** (q - p)
    return lhs**q * denom_base**r <= q ** (q * r)


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
    """Peel largest fundamental circuits, every step labelled phase 1."""
    require_eulerian(m)
    return _peel(m, "peel")


def log_greedy_decompose(m: BinaryMatroid) -> Decomposition:
    """peel_decompose's circuits, labelled phase 1 while the working set
    still has at least |M| / ln^2 |M| elements. Every circuit of a simple
    binary matroid has at least 3 elements, so phase 2 has at most a third
    as many circuits as elements."""
    require_eulerian(m)
    return _peel(m, "sparse", lambda size: size >= len(m) / math.log(len(m)) ** 2)


def dense_decompose(m: BinaryMatroid, params: DenseParams) -> Decomposition:
    """peel_decompose's circuits, labelled phase 1 while the working set is
    larger than 2^((1 - 2*delta) * r). Phase 2 has at most a third as many
    circuits as elements, as in log_greedy_decompose.

    Every phase-1 circuit has more than ceil(alpha * r) elements, so the
    label needs no size test. 1 - 2*delta = H(alpha), so phase 1 has
    |work| >= 2^(H(alpha) * r - 2^-30). largest_fundamental_circuit returns
    at least guaranteed_circuit_size(|work|, rank(work)) elements, which is
    at least guaranteed_circuit_size(|work|, r), as rank(work) <= r. With
    k = floor(alpha * r), sum_{i<=k} C(r, i) <= 2^(H(alpha) * r)
    (entropy_bound_holds), and for |work| below about 1.5e9 the slack of
    2^-30 is less than one element, so |work| exceeds sum_{1<=i<=k} C(r, i)
    and the circuit has at least k + 2 > ceil(alpha * r) elements.

    Requires |M| >= 2^((1 - delta) * rank(M)). Raises NotDenseEnoughError
    when that fails; callers should fall back to log_greedy_decompose. A
    nonempty Eulerian M holds a circuit, so r >= 2.
    """
    require_eulerian(m)
    if len(m) == 0:
        return _peel(m, "dense")
    r = rank(m)
    if not _meets_pow2(len(m), (1.0 - params.delta) * r):
        raise NotDenseEnoughError(
            f"|M| = {len(m)} below 2^((1-delta)*r) for r = {r}, delta = {params.delta:.6g}"
        )
    phase1_exp = (1.0 - 2.0 * params.delta) * r
    return _peel(m, "dense", lambda size: _meets_pow2(size, phase1_exp))


def auto_decompose(
    m: BinaryMatroid, epsilon: Union[Fraction, float, str] = Fraction(1, 2)
) -> Decomposition:
    """Dispatch. Trivially small inputs are peeled directly. The whole
    complete matroid of dimension p - 1, for an admissible p (see
    orbit.is_admissible), gets the compressed rotation orbits, which meet
    ceil(|M| / (rank(M) + 1)) exactly. Otherwise dense_decompose labels the
    circuits, or log_greedy_decompose when its density test fails; both
    return peel_decompose's circuits."""
    require_eulerian(m)
    if len(m) <= 3:
        return _peel(m, "trivial")
    params = DenseParams.from_epsilon(epsilon)
    if len(m) == (1 << m.dim) - 1 and is_admissible(m.dim + 1):
        return _rotation_orbits(m.dim + 1, m)
    try:
        return dense_decompose(m, params)
    except NotDenseEnoughError:
        return log_greedy_decompose(m)
