"""Circuit construction and search.

A circuit is a minimal nonempty zero-sum subset: XOR of its elements is zero
and its rank is size - 1. In a simple binary matroid every circuit has at
least 3 elements. The one circuit search is largest_fundamental_circuit, and
peel repeats it on a WorkingSet until the set is empty; every decomposition
and every odd-cover remainder comes from that loop. All functions here are
pure and safe to call concurrently, except that largest_fundamental_circuit
builds the peel state of a WorkingSet it is given and peel empties the set,
which its single owner then reuses.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from math import comb
from operator import xor
from typing import Iterable

from .errors import EmptyMatroidError, NotEulerianError, OutOfRangeError
from .gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    _gauss_jordan,
    _mask_indices,
    _sorted_keys,
    column_rref,
)


def is_circuit(keys: Iterable[int]) -> bool:
    """True iff the keys form a circuit: distinct nonzero keys, zero sum and
    rank = size - 1.

    The keys may be a Circuit, which is one without a further check: its
    constructor ran this test and the object is immutable. Other keys, such
    as a block parsed from a .bmdec file, are checked in full; a key below 1
    is no vector, so a block that holds one is no circuit.

    Distinct nonzero keys need no test of their own: the rank test refuses
    the rest. With n >= 3 keys, a zero sum and rank n - 1, the coefficient
    vectors whose keys sum to zero form a kernel of dimension 1, spanned by
    all ones. A repeated pair i, j (e_i + e_j) or a zero key i (e_i) would
    be a second kernel vector, so no such input passes. With n <= 2 keys,
    distinct nonzero keys never sum to zero, so fewer than 3 is no circuit.
    """
    if isinstance(keys, Circuit):
        return True
    keys = list(keys)
    if len(keys) < 3 or min(keys) < 1 or reduce(xor, keys):
        return False
    elim = Gf2Eliminator(track_witnesses=False)
    for key in keys:
        elim.insert(key)
    return elim.rank == len(keys) - 1


class Circuit:
    """An immutable, validated circuit of F_2^dim. Construction checks the
    invariants.

    ``keys`` holds the elements as int keys in ascending order. A circuit's
    keys are distinct, so two circuits are equal exactly when their dims and
    key tuples are.
    """

    __slots__ = ("dim", "keys")

    def __init__(self, dim: int, keys: Iterable[int]):
        keys = _sorted_keys(dim, keys)
        if not is_circuit(keys):
            raise OutOfRangeError("not a circuit")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "keys", keys)

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    def __reduce__(self):  # pickle and copy rebuild rather than set slots
        return Circuit, (self.dim, self.keys)

    @property
    def key_set(self) -> frozenset[int]:
        """The keys as a set, built on each call."""
        return frozenset(self.keys)

    @property
    def size(self) -> int:
        return len(self.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Circuit)
            and self.dim == other.dim
            and self.keys == other.keys
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.keys))

    def __repr__(self) -> str:
        return f"Circuit({[format(k, f'0{self.dim}b') for k in self.keys]})"


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

    Single-owner and mutable. A circuit leaves the keys by bisect deletion
    (remove) or is XORed in (toggle), and a Circuit is built from keys once
    per emitted circuit. ``total``, the XOR of the keys, never changes:
    circuits sum to zero, and keys change only through remove and toggle.

    The first largest_fundamental_circuit call also builds the peel state
    (see rref), which remove then keeps current and toggle drops; the next
    search rebuilds it, so symdiff_reduce, which toggles and then peels,
    builds it once.
    """

    __slots__ = ("dim", "keys", "total", "_at", "_rows")

    def __init__(self, m: BinaryMatroid):
        self.dim = m.dim
        self.keys = list(m.keys)
        self.total = reduce(xor, self.keys, 0)
        self._rows: dict[int, int] | None = None  # the peel state, with _at; see rref

    def __len__(self) -> int:
        return len(self.keys)

    def rref(self) -> tuple[list[int], dict[int, int]]:
        """The peel state: positions and the reduced row-echelon form over them.

        Position j is index j of the keys at the first call, and the first
        list returned maps positions back to keys. The dict is
        gf2core.column_rref of those keys, restricted to the positions still
        present: each pivot position maps to its row, an int whose bit j is
        element j's coefficient on the basis element at the pivot. The
        pivot is the row's lowest set bit and is set in no other row, so
        the pivots are the first-seen basis of the keys. A position still
        present is set in some row, since its key is nonzero, and a removed
        one in none.
        """
        if self._rows is None:
            self._at = list(self.keys)
            self._rows = column_rref(self._at, self.dim)
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
        for key in c.keys:
            del self.keys[bisect_left(self.keys, key)]
        rows = self._rows
        if rows is None:
            return
        gone = sum(1 << bisect_left(self._at, key) for key in c.keys)
        keep = ~gone
        hit = [p for p, row in rows.items() if row & gone]
        fresh, pivots = _gauss_jordan([rows.pop(p) & keep for p in hit])
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
        for key in c.keys:
            i = bisect_left(keys, key)
            if i < len(keys) and keys[i] == key:
                del keys[i]
            else:
                keys.insert(i, key)
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

    The basis is the first-seen one in canonical order (as greedy_basis
    finds it); the maximum runs over all fundamental circuits
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
    return Circuit(work.dim, support + [at[low.bit_length() - 1]])


def peel(work: WorkingSet) -> list[Circuit]:
    """Remove the largest fundamental circuit from work until it is empty.

    Each step is largest_fundamental_circuit, which reads the set's peel
    state, and remove, which updates the rows that held the circuit; the
    first step builds the state (see WorkingSet.rref). The circuits are
    disjoint and their union is the set as given, so they decompose it.
    """
    circuits = []
    while work:
        c = largest_fundamental_circuit(work)
        circuits.append(c)
        work.remove(c)
    return circuits
