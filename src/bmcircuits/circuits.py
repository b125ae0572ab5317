"""Circuit construction and search.

A circuit is a minimal nonempty zero-sum subset: XOR of its elements is zero
and its rank is size - 1. In a simple binary matroid every circuit has at
least 3 elements. All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

from .errors import (
    DegenerateMemberError,
    EmptyMatroidError,
    NotEulerianError,
    NotInSpanError,
    OutOfRangeError,
    TooSmallError,
)
from .gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    Gf2Vector,
    _mask_indices,
    express_in_basis,
    is_eulerian,
    max_independent_subset,
    xor_key,
)


def is_circuit(vectors: Iterable[Gf2Vector]) -> bool:
    """True iff the vectors form a circuit (zero sum and rank = size - 1)."""
    vs = list(vectors)
    if not vs:
        return False
    n = vs[0].n
    if any(v.n != n for v in vs):
        raise OutOfRangeError("mixed dimensions")
    if len({v.key for v in vs}) != len(vs):
        return False
    if xor_key(vs) != 0:
        return False
    elim = Gf2Eliminator(track_witnesses=False)
    for v in vs:
        elim.insert(v.key)
    return elim.rank == len(vs) - 1


class Circuit:
    """An immutable, validated circuit. Construction checks the invariants."""

    __slots__ = ("dim", "elements", "_key_set")

    def __init__(self, elements: Iterable[Gf2Vector]):
        elems = tuple(sorted(elements))
        if not is_circuit(elems):
            raise OutOfRangeError("not a circuit")
        object.__setattr__(self, "dim", elems[0].n)
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_key_set", frozenset(v.key for v in elems))

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    @classmethod
    def from_keys(cls, dim: int, keys: Iterable[int]) -> Circuit:
        return cls(Gf2Vector(dim, k) for k in keys)

    @property
    def key_set(self) -> frozenset[int]:
        return self._key_set

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, v: Gf2Vector) -> bool:
        return v.key in self._key_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Circuit)
            and self.dim == other.dim
            and self._key_set == other._key_set
        )

    def __hash__(self) -> int:
        return hash((self.dim, self._key_set))

    def __repr__(self) -> str:
        return f"Circuit({[v.bits() for v in self.elements]})"


def fundamental_circuit(m: Gf2Vector, basis: Sequence[Gf2Vector]) -> Circuit:
    """The circuit {m} plus the basis vectors in m's unique expansion.

    Requires m in span(basis) and m not itself a basis member (that would
    yield a 2-element set, which is never a circuit here).
    """
    if any(b.key == m.key for b in basis):
        raise DegenerateMemberError(f"{m.bits()} is a basis member")
    indices = express_in_basis(m, basis)  # raises NotInSpanError if outside
    return Circuit([m] + [basis[i] for i in indices])


def guaranteed_circuit_size(size: int, r: int) -> int:
    """Smallest c >= 3 with sum_{i=1}^{c-1} C(r, i) >= size.

    Any set of `size` distinct nonzero vectors of rank r must contain a
    fundamental circuit with at least this many elements: each non-basis
    element is determined by its expansion support, and supports of size
    up to c - 2 can only account for sum_{i=1}^{c-2} C(r, i) elements.
    Exact big-integer arithmetic throughout.
    """
    if size < 3 or r < 2:
        raise OutOfRangeError("need size >= 3 and r >= 2")
    total = 0
    for i in range(1, r + 1):
        total += comb(r, i)
        if i + 1 >= 3 and total >= size:
            return i + 1
    raise OutOfRangeError(f"size {size} exceeds 2^{r} - 1")


def largest_fundamental_circuit(n: BinaryMatroid) -> Circuit:
    """Largest fundamental circuit over the canonical basis of n.

    The basis is max_independent_subset(n); the maximum runs over all
    fundamental circuits of elements outside it, ties going to the smallest
    element in canonical order. The result has at least
    guaranteed_circuit_size(|n|, rank(n)) elements.
    """
    if len(n) == 0:
        raise EmptyMatroidError("empty matroid has no circuits")
    if not is_eulerian(n):
        raise NotEulerianError("input must be Eulerian")
    if len(n) < 3:
        raise TooSmallError("need at least 3 elements")
    basis = max_independent_subset(n)
    elim = Gf2Eliminator()
    for b in basis:
        elim.insert(b.key)
    basis_keys = {b.key for b in basis}
    best_m = None
    best_mask = 0
    best_size = 0
    for v in n.elements:  # canonical order fixes the tie-break
        if v.key in basis_keys:
            continue
        residual, mask = elim.reduce(v.key)
        if residual != 0:
            raise NotInSpanError("basis does not span the matroid")
        c_size = mask.bit_count() + 1
        if c_size > best_size:
            best_m, best_mask, best_size = v, mask, c_size
    if best_m is None:
        # Eulerian and nonempty implies a dependent element exists.
        raise NotEulerianError("no dependent element found")
    support = [basis[i] for i in _mask_indices(best_mask)]
    return Circuit([best_m] + support)


def extract_any_circuit(n: BinaryMatroid) -> Circuit:
    """Some circuit contained in n, found at the first elimination dependency.

    Elements are inserted in canonical order. The first dependent element
    together with its witness set is a circuit: the witnesses are drawn from
    the independent prefix, so the dependent element's expansion in them is
    unique and no proper subset sums to zero. Circuit() re-checks the law.
    """
    if len(n) == 0:
        raise EmptyMatroidError("empty matroid has no circuits")
    if not is_eulerian(n):
        raise NotEulerianError("input must be Eulerian")
    elim = Gf2Eliminator()
    inserted: list[Gf2Vector] = []
    for v in n.elements:
        witness = elim.insert(v.key)
        if witness is not None:
            return Circuit([v] + [inserted[i] for i in _mask_indices(witness)])
        inserted.append(v)
    raise NotEulerianError("independent set cannot be Eulerian")
