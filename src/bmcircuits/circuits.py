"""Circuit construction and search.

A circuit is a minimal nonempty zero-sum subset: XOR of its elements is zero
and its rank is size - 1. In a simple binary matroid every circuit has at
least 3 elements. All functions here are pure and safe to call concurrently,
except that largest_fundamental_circuit lowers the rank bound of a
WorkingSet it is given, which the set's single owner then reuses.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from math import comb
from operator import xor
from typing import Iterable, Sequence

from .errors import (
    DegenerateMemberError,
    EmptyMatroidError,
    NotEulerianError,
    OutOfRangeError,
    TooSmallError,
)
from .gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    Gf2Vector,
    _key_of,
    _mask_indices,
    expansion_masks,
    express_in_basis,
    greedy_basis,
    xor_key,
)


def is_circuit(vectors: Iterable[Gf2Vector]) -> bool:
    """True iff the vectors form a circuit (zero sum and rank = size - 1).

    A Circuit is one without a further check: its constructor ran this test
    and the object is immutable. Any other iterable, such as a block parsed
    from a file, is checked in full.
    """
    if isinstance(vectors, Circuit):
        return True
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
        elems = tuple(sorted(elements, key=_key_of))
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


class WorkingSet:
    """The elements a peeling loop has yet to cover, as ascending int keys.

    Single-owner and mutable. ``keys`` and ``elements`` run in parallel: a
    circuit leaves both by bisect deletion (remove) or is XORed in (toggle),
    and a Circuit is built once per emitted circuit, from the source's own
    vectors. ``bound`` is an upper bound on the rank of the keys, which
    stops greedy_basis early; the loops lower it to each rank they find.
    Removing elements never raises the rank, and neither does toggling a
    circuit whose elements lie in the span of the keys. ``total``, the XOR
    of the keys, never changes: circuits sum to zero, and keys change only
    through remove and toggle.
    """

    __slots__ = ("dim", "keys", "elements", "bound", "total")

    def __init__(self, m: BinaryMatroid):
        self.dim = m.dim
        self.keys = [v.key for v in m.elements]
        self.elements = list(m.elements)
        self.bound = m.dim
        self.total = reduce(xor, self.keys, 0)

    def __len__(self) -> int:
        return len(self.keys)

    def vectors(self, keys: Iterable[int]) -> list[Gf2Vector]:
        """The vectors of keys, all of which must be present."""
        return [self.elements[bisect_left(self.keys, key)] for key in keys]

    def circuit(self, keys: Iterable[int]) -> Circuit:
        return Circuit(self.vectors(keys))

    def remove(self, c: Circuit) -> None:
        for key in c.key_set:
            i = bisect_left(self.keys, key)
            del self.keys[i], self.elements[i]

    def toggle(self, c: Circuit) -> None:
        """Symmetric difference with c, in place."""
        keys = self.keys
        for v in c:
            i = bisect_left(keys, v.key)
            if i < len(keys) and keys[i] == v.key:
                del keys[i], self.elements[i]
            else:
                keys.insert(i, v.key)
                self.elements.insert(i, v)


def _working_set(n: BinaryMatroid | WorkingSet) -> WorkingSet:
    work = n if isinstance(n, WorkingSet) else WorkingSet(n)
    if not work.keys:
        raise EmptyMatroidError("empty matroid has no circuits")
    if work.total:
        raise NotEulerianError("input must be Eulerian")
    return work


def largest_fundamental_circuit(n: BinaryMatroid | WorkingSet) -> Circuit:
    """Largest fundamental circuit over the canonical basis of n.

    The basis is the first-seen one in canonical order (greedy_basis, as in
    max_independent_subset); the maximum runs over all fundamental circuits
    of elements outside it, ties going to the smallest element in canonical
    order. The result has at least guaranteed_circuit_size(|n|, rank(n))
    elements.

    Peeling loops pass their WorkingSet. Its bound stops the greedy basis
    early, which gives the same basis as a full scan, and is lowered to the
    rank found here. Every element is expanded at once through one byte
    table per 8 bits of the basis rows (gf2core.expansion_masks).
    Basis elements need no skipping: their expansions have one term, a
    non-basis element's at least two.
    """
    work = _working_set(n)
    if len(work) < 3:
        raise TooSmallError("need at least 3 elements")
    keys = work.keys
    basis, rows = greedy_basis(keys, work.dim, work.bound)
    work.bound = len(basis)
    masks = expansion_masks(keys, rows, work.dim)
    best = max(masks, key=int.bit_count)  # the first of the largest
    if best.bit_count() < 2:
        raise NotEulerianError("no dependent element found")
    support = [b for j, b in enumerate(basis) if best >> j & 1]
    return work.circuit(support + [keys[masks.index(best)]])


def extract_any_circuit(n: BinaryMatroid | WorkingSet) -> Circuit:
    """Some circuit contained in n, found at the first elimination dependency.

    Elements are inserted in canonical order. The first dependent element
    together with its witness set is a circuit: the witnesses are drawn from
    the independent prefix, so the dependent element's expansion in them is
    unique and no proper subset sums to zero. Circuit() re-checks the law.
    """
    work = _working_set(n)
    keys = work.keys
    elim = Gf2Eliminator()
    for key in keys:
        witness = elim.insert(key)
        if witness is not None:
            return work.circuit([keys[i] for i in _mask_indices(witness)] + [key])
    raise NotEulerianError("independent set cannot be Eulerian")


def extract_all(work: WorkingSet) -> list[Circuit]:
    """Remove first-dependency circuits from work until it is empty."""
    circuits = []
    while work:
        c = extract_any_circuit(work)
        circuits.append(c)
        work.remove(c)
    return circuits
