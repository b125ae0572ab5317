"""Circuit decompositions of Eulerian binary matroids.

Three strategies plus a dispatcher:

* peel_decompose: repeatedly remove the largest fundamental circuit.
* log_greedy_decompose: same peel while the working set is large, then a
  cheap extraction loop on the small remainder.
* dense_decompose: for matroids whose size is close to 2^rank, peel circuits
  of size at least alpha * rank until an entropy threshold, then extract.
* auto_decompose: density test picks the dense or sparse routine.

Each run is a single-threaded state machine over its own circuits.WorkingSet,
an ascending list of int keys: a peeled circuit leaves it by bisect deletion,
and a Circuit is built once per emitted circuit. Peeling never raises the
rank, so each step's greedy basis stops at the previous step's rank; the
basis, and with it every tie-break, is the one a full scan would find.
Separate runs may proceed in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .circuits import (
    Circuit,
    WorkingSet,
    extract_all,
    largest_fundamental_circuit,
)
from .errors import NotDenseEnoughError, NotEulerianError, OutOfRangeError
from .formats import check_decomposition
from .gf2core import BinaryMatroid, is_eulerian, rank

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


@dataclass(frozen=True)
class Decomposition:
    """Pairwise-disjoint circuits whose union is the source matroid.

    The circuit count witnesses an upper bound on the minimum decomposition
    size. branch/phase1/phase2 record which strategy produced it.
    """

    source: BinaryMatroid
    circuits: tuple[Circuit, ...]
    branch: str = "peel"
    phase1: int = 0
    phase2: int = 0

    def __post_init__(self):
        reason = check_decomposition(self.source, self.source.dim, self.circuits)
        if reason is not None:
            raise OutOfRangeError(reason)

    def __len__(self) -> int:
        return len(self.circuits)


def _meets_pow2(size: int, exponent: float) -> bool:
    """size >= 2**exponent, ties within the log margin counting as yes."""
    if size <= 0:
        return False
    lg = math.log2(size)
    return lg >= exponent - _LOG2_MARGIN


def _require_eulerian(m: BinaryMatroid) -> None:
    if not is_eulerian(m):
        raise NotEulerianError("matroid is not Eulerian")


def peel_decompose(m: BinaryMatroid) -> Decomposition:
    """Remove the largest fundamental circuit until nothing is left.

    Each step is largest_fundamental_circuit on the working set: a greedy
    basis that stops at the previous step's rank, then one byte-table
    expansion scan of every element (see gf2core.expansion_masks).
    """
    _require_eulerian(m)
    work = WorkingSet(m)
    circuits: list[Circuit] = []
    while work:
        c = largest_fundamental_circuit(work)
        circuits.append(c)
        work.remove(c)
    return Decomposition(m, tuple(circuits), branch="peel", phase1=len(circuits))


def log_greedy_decompose(m: BinaryMatroid) -> Decomposition:
    """Peel large fundamental circuits, then extract from the small remainder.

    Phase 1 runs while the working set still has at least |M| / ln^2 |M|
    elements, with the steps of peel_decompose; phase 2 pulls arbitrary
    circuits out of what remains. The total never exceeds |M| / 3 plus the
    phase-1 count.
    """
    _require_eulerian(m)
    if len(m) == 0:
        return Decomposition(m, (), branch="sparse")
    threshold = len(m) / (math.log(len(m)) ** 2)
    work = WorkingSet(m)
    circuits: list[Circuit] = []
    while work and len(work) >= threshold:
        c = largest_fundamental_circuit(work)
        circuits.append(c)
        work.remove(c)
    phase1 = len(circuits)
    circuits += extract_all(work)
    phase2 = len(circuits) - phase1
    return Decomposition(m, tuple(circuits), branch="sparse", phase1=phase1, phase2=phase2)


def dense_decompose(m: BinaryMatroid, params: DenseParams) -> Decomposition:
    """Greedy for dense matroids: phase-1 circuits have size >= ceil(alpha * r).

    Requires |M| >= 2^((1 - delta) * rank(M)). Phase 1 peels while the working
    set is larger than 2^((1 - 2*delta) * r); the counting bound guarantees a
    fundamental circuit of size at least alpha * r exists there. Raises
    NotDenseEnoughError when the density precondition fails; callers should
    fall back to log_greedy_decompose.
    """
    _require_eulerian(m)
    if len(m) == 0:
        return Decomposition(m, (), branch="dense")
    r = rank(m)
    if r < 2:
        raise NotDenseEnoughError("rank below 2")
    if not _meets_pow2(len(m), (1.0 - params.delta) * r):
        raise NotDenseEnoughError(
            f"|M| = {len(m)} below 2^((1-delta)*r) for r = {r}, delta = {params.delta:.6g}"
        )
    floor_size = math.ceil(params.alpha * r)
    phase1_exp = (1.0 - 2.0 * params.delta) * r
    work = WorkingSet(m)
    circuits: list[Circuit] = []
    while work and _meets_pow2(len(work), phase1_exp):
        c = largest_fundamental_circuit(work)
        if c.size < floor_size:
            break  # entropy margin exhausted at the float boundary
        circuits.append(c)
        work.remove(c)
    phase1 = len(circuits)
    circuits += extract_all(work)
    phase2 = len(circuits) - phase1
    return Decomposition(m, tuple(circuits), branch="dense", phase1=phase1, phase2=phase2)


def auto_decompose(
    m: BinaryMatroid, epsilon: Union[Fraction, float, str] = Fraction(1, 2)
) -> Decomposition:
    """Dispatch: dense greedy when the density precondition holds, else the
    log greedy; trivially small inputs are peeled directly."""
    _require_eulerian(m)
    if len(m) <= 3:
        d = peel_decompose(m)
        return Decomposition(m, d.circuits, branch="trivial", phase1=d.phase1)
    params = DenseParams.from_epsilon(epsilon)
    if _meets_pow2(len(m), (1.0 - params.delta) * rank(m)):
        return dense_decompose(m, params)
    return log_greedy_decompose(m)
