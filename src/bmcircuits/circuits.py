"""Circuit construction and search.

A circuit is a minimal nonempty zero-sum subset: XOR of its elements is zero
and its rank is size - 1. In a simple binary matroid every circuit has at
least 3 elements. All functions here are pure and safe to call concurrently,
except that largest_fundamental_circuit builds the peel state of a
WorkingSet it is given, and lowers its rank bound, which the set's single
owner then reuses.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from math import comb
from operator import xor
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateMemberError,
    EmptyMatroidError,
    NotEulerianError,
    OutOfRangeError,
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
)


def is_circuit(block: Iterable[Gf2Vector] | Iterable[int]) -> bool:
    """True iff the block is a circuit: distinct nonzero members, zero sum and
    rank = size - 1.

    The block is a Circuit, an iterable of Gf2Vectors of one dimension, or
    one of int keys, such as a block parsed from a .bmdec file. A Circuit is
    one without a further check: its constructor ran this test and the
    object is immutable. The others are checked in full, on their keys; a
    key below 1 is no vector, so a key block that holds one is no circuit.
    """
    if isinstance(block, Circuit):
        return True
    keys = list(block)
    if keys and isinstance(keys[0], Gf2Vector):
        n = keys[0].n
        if any(v.n != n for v in keys):
            raise OutOfRangeError("mixed dimensions")
        keys = [v.key for v in keys]
    if not keys or min(keys) < 1 or len(set(keys)) != len(keys) or reduce(xor, keys):
        return False
    elim = Gf2Eliminator(track_witnesses=False)
    for key in keys:
        elim.insert(key)
    return elim.rank == len(keys) - 1


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

    The first largest_fundamental_circuit call also builds the peel state
    (see rref), which remove then keeps current and toggle drops; a set
    that is never searched, such as symdiff_reduce's, never builds it.
    """

    __slots__ = ("dim", "keys", "elements", "bound", "total", "_at", "_rows")

    def __init__(self, m: BinaryMatroid):
        self.dim = m.dim
        self.keys = [v.key for v in m.elements]
        self.elements = list(m.elements)
        self.bound = m.dim
        self.total = reduce(xor, self.keys, 0)
        self._rows: dict[int, int] | None = None  # the peel state, with _at; see rref

    def __len__(self) -> int:
        return len(self.keys)

    def vectors(self, keys: Iterable[int]) -> list[Gf2Vector]:
        """The vectors of keys, all of which must be present."""
        return [self.elements[bisect_left(self.keys, key)] for key in keys]

    def circuit(self, keys: Iterable[int]) -> Circuit:
        return Circuit(self.vectors(keys))

    def rref(self) -> tuple[list[int], dict[int, int]]:
        """The peel state: positions and the reduced row-echelon form over them.

        Position j is index j of the keys at the first call, and the first
        list returned maps positions back to keys. The dict maps each pivot
        position to its row, an int whose bit j is element j's coefficient
        on the basis element at the pivot. The pivot is the row's lowest set
        bit and is set in no other row. The rows are those of the transposed
        matrix of elements, restricted to the positions still present, so
        the pivots are its column rank profile (Dumas, Pernet, Sultan, ISSAC
        2015): the first-seen basis of the keys, as greedy_basis finds it.
        A position still present is set in some row, since its key is
        nonzero, and a removed one in none.

        Built once from greedy_basis and expansion_masks: row i gathers bit
        i of every expansion mask, a bit-matrix transpose done on numpy bit
        arrays, little-endian on both sides.
        """
        if self._rows is None:
            keys = self.keys
            basis, rows = greedy_basis(keys, self.dim, self.bound)
            self.bound = r = len(basis)
            width = (r + 7) // 8
            masks = b"".join(mask.to_bytes(width, "little")
                             for mask in expansion_masks(keys, rows, self.dim))
            bits = np.unpackbits(np.frombuffer(masks, np.uint8).reshape(len(keys), width),
                                 axis=1, count=r, bitorder="little")
            packed = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
            flat, stride = packed.tobytes(), packed.shape[1]
            self._at = list(keys)
            self._rows = {}
            for i in range(0, len(flat), stride):
                row = int.from_bytes(flat[i:i + stride], "little")
                self._rows[(row & -row).bit_length() - 1] = row
        return self._at, self._rows

    def remove(self, c: Circuit) -> None:
        """Delete c's elements, and project the peel state off their positions.

        No row holds another row's pivot, and masking only clears bits. So
        a row that holds no removed position stays as it is, and the rows
        that do, once masked, hold no pivot of a kept row: they are reduced
        among themselves, and each new pivot is then cleared from the kept
        rows. For a fundamental circuit of position j, the rows hit are those
        that hold j, and a step costs O(|c| * rank) big-int operations.
        """
        for key in c.key_set:
            i = bisect_left(self.keys, key)
            del self.keys[i], self.elements[i]
        rows = self._rows
        if rows is None:
            return
        gone = sum(1 << bisect_left(self._at, key) for key in c.key_set)
        keep = ~gone
        fresh: dict[int, int] = {}  # new pivot -> row, reduced among themselves
        pivots = 0  # the new pivots' bits
        for p in [p for p, row in rows.items() if row & gone]:
            row = rows.pop(p) & keep
            for q in _mask_indices(row & pivots):
                row ^= fresh[q]
            if row:
                low = row & -row
                for q, other in fresh.items():
                    if other & low:
                        fresh[q] = other ^ row
                fresh[low.bit_length() - 1] = row
                pivots |= low
        for p, row in rows.items():
            if row & pivots:
                for q in _mask_indices(row & pivots):
                    row ^= fresh[q]
                rows[p] = row
        rows.update(fresh)

    def toggle(self, c: Circuit) -> None:
        """Symmetric difference with c, in place. Positions move, so the
        peel state is dropped; the next search rebuilds it."""
        keys = self.keys
        for v in c:
            i = bisect_left(keys, v.key)
            if i < len(keys) and keys[i] == v.key:
                del keys[i], self.elements[i]
            else:
                keys.insert(i, v.key)
                self.elements.insert(i, v)
        self._rows = None


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
    elements. A nonempty Eulerian set of distinct nonzero keys has at least
    three elements and a dependent one, whose expansion has at least two
    terms; a basis element's has one.

    The search reads the working set's reduced row-echelon form (see
    WorkingSet.rref): element j's fundamental circuit is j plus the pivots
    of the rows that hold bit j. Vertical bit-sliced counters over the rows
    (Knuth, TAOCP 4A, 7.1.3) hold every column's count at once: counts[k]
    has bit j set when bit k of column j's count is. Narrowing from the top
    counter down leaves the columns of the largest count, and the lowest of
    them is the first of the largest. A peeling loop passes its WorkingSet,
    so the elimination runs once per decomposition and each step costs
    O(rank * log rank) big-int operations here, plus the upkeep in remove.
    """
    work = _working_set(n)
    at, rows = work.rref()
    counts: list[int] = []
    for carry in rows.values():
        for k, count in enumerate(counts):
            counts[k] = count ^ carry
            carry &= count
            if not carry:
                break
        else:
            counts.append(carry)
    best = counts.pop()
    for count in reversed(counts):
        if best & count:
            best &= count
    low = best & -best
    support = [at[p] for p, row in rows.items() if row & low]
    return work.circuit(support + [at[low.bit_length() - 1]])


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
