"""Circuit construction and search.

A circuit is a minimal nonempty zero-sum subset: XOR of its elements is zero
and its rank is size - 1. In a simple binary matroid every circuit has at
least 3 elements. The one circuit search is largest_fundamental_circuit, and
peel builds one WorkingSet, the column RREF of a matroid's keys, and repeats
it on that state until the set is empty; every decomposition and every
odd-cover remainder comes from that loop. All functions here are pure and
safe to call concurrently; a WorkingSet is mutable and has a single owner.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from math import comb
from operator import xor
from typing import Iterable

from .errors import EmptyMatroidError, OutOfRangeError
from .gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    _gauss_jordan,
    _mask_indices,
    _sorted_keys,
    column_rref,
    require_eulerian,
)


def is_circuit(keys: Iterable[int]) -> bool:
    """True iff the keys form a circuit: distinct nonzero keys, zero sum and
    rank = size - 1. A key below 1 is no vector, so keys that hold one are
    no circuit.

    Distinct nonzero keys need no test of their own: the rank test refuses
    the rest. With n >= 3 keys, a zero sum and rank n - 1, the coefficient
    vectors whose keys sum to zero form a kernel of dimension 1, spanned by
    all ones. A repeated pair i, j (e_i + e_j) or a zero key i (e_i) would
    be a second kernel vector, so no such input passes. With n <= 2 keys,
    distinct nonzero keys never sum to zero, so fewer than 3 is no circuit.
    """
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
    """The peel state of an Eulerian matroid: what a peeling loop has left.

    Single-owner and mutable; built once, from a matroid, and emptied by
    remove. Position j is index j of ``at``, the matroid's own ascending key
    tuple, shared and never copied. ``rows`` is gf2core.column_rref of those
    keys, restricted to the positions still present: each pivot position
    maps to its row, an int whose bit j is element j's coefficient on the
    basis element at the pivot. The pivot is the row's lowest set bit and
    is set in no other row, so the pivots are the first-seen basis of the
    keys left. A position still present is set in some row, since its key
    is nonzero, and a removed one in none. ``left`` counts the positions
    still present.
    """

    __slots__ = ("dim", "at", "rows", "left")

    def __init__(self, m: BinaryMatroid):
        require_eulerian(m)
        self.dim = m.dim
        self.at = m.keys
        self.rows = column_rref(m.keys, m.dim)
        self.left = len(m.keys)

    def __len__(self) -> int:
        return self.left

    def remove(self, c: Circuit) -> None:
        """Project the rows off the positions of c's elements.

        No row holds another row's pivot, and masking only clears bits. So
        a row that holds no removed position stays as it is, and the rows
        that do, once masked, hold no pivot of a kept row: they are reduced
        among themselves, and each new pivot is then cleared from the kept
        rows. For a fundamental circuit of position j, the rows hit are those
        that hold j, and a step costs O(|c| * rank) big-int operations.
        """
        rows = self.rows
        gone = sum(1 << bisect_left(self.at, key) for key in c.keys)
        keep = ~gone
        hit = [p for p, row in rows.items() if row & gone]
        fresh, pivots = _gauss_jordan([rows.pop(p) & keep for p in hit])
        for p, row in rows.items():
            if row & pivots:
                for q in _mask_indices(row & pivots):
                    row ^= fresh[q]
                rows[p] = row
        rows.update(fresh)
        self.left -= len(c.keys)


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
    WorkingSet), built here from a matroid: element j's fundamental circuit
    is j plus the pivots of the rows that hold bit j. Vertical bit-sliced
    counters over the rows (Knuth, TAOCP 4A, 7.1.3) hold every column's
    count at once: counts[k] has bit j set when bit k of column j's count
    is. Narrowing from the top counter down leaves the columns of the
    largest count, and the lowest of them is the first of the largest.
    peel passes its WorkingSet, so the elimination runs once per
    decomposition and each step costs O(rank * log rank) big-int operations
    here, plus the upkeep in remove.
    """
    if not n:
        raise EmptyMatroidError("empty matroid has no circuits")
    work = n if isinstance(n, WorkingSet) else WorkingSet(n)
    at, rows = work.at, work.rows
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


def peel(m: BinaryMatroid) -> list[Circuit]:
    """Remove the largest fundamental circuit from m's WorkingSet until it is empty.

    The state is built once; each step is largest_fundamental_circuit, which
    reads it, and remove, which updates the rows that held the circuit. The
    circuits are disjoint and their union is m, so they decompose it.
    Raises NotEulerianError unless m is Eulerian.
    """
    work = WorkingSet(m)
    circuits = []
    while work:
        c = largest_fundamental_circuit(work)
        circuits.append(c)
        work.remove(c)
    return circuits
