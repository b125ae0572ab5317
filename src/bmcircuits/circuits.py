"""Circuit construction and search.

A circuit is a minimal nonempty zero-sum subset: XOR of its elements is zero
and its rank is size - 1. In a simple binary matroid every circuit has at
least 3 elements. The one circuit search is largest_fundamental_circuit, and
peel builds one WorkingSet, the column RREF of a matroid's keys, and repeats
it on that state until the set is empty; every decomposition and every
odd-cover remainder comes from that loop.

Each peel step reads each row once in the search and touches only the rows
that hold the circuit in remove. The search records the circuit with its
position j outside the basis and the pivots of the rows that hold j, which
are the circuit's other positions, so removing that circuit finds none of
them again; a pivot is set in its own row only, so each of those rows loses
exactly its lowest bit and bit j. Once three quarters of the positions are
gone, the state is rebuilt over the keys left, and later rows are shorter;
the reduced echelon form is unique, so the rows, and every circuit found
after, are the same as without it.

All functions here are pure and safe to call concurrently, except that the
search records its result on a WorkingSet it is given; a WorkingSet is
mutable and has a single owner.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import compress
from math import comb
from operator import or_, xor
from typing import Iterable

from .errors import EmptyMatroidError, OutOfRangeError
from .gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    _gauss_jordan,
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
    remove. Position j is index j of ``at``, an ascending key tuple that
    starts as the matroid's own, shared and never copied, until the first
    compaction (see remove). ``rows`` is gf2core.column_rref of those keys,
    restricted to the positions still present: each pivot position maps to
    its row, an int whose bit j is element j's coefficient on the basis
    element at the pivot. The pivot is the row's lowest set bit and is set
    in no other row, so the pivots are the first-seen basis of the keys
    left. A position still present is set in some row, since its key is
    nonzero, and a removed one in none. ``left`` counts the positions still
    present. ``_found`` is what the last largest_fundamental_circuit on this
    state saw, (circuit, bit of its position outside the basis, pivots of
    the rows that hold that bit), or None; remove reads and clears it.
    """

    __slots__ = ("dim", "at", "rows", "left", "_found")

    def __init__(self, m: BinaryMatroid):
        require_eulerian(m)
        self.dim = m.dim
        self.at = m.keys
        self.rows = column_rref(m.keys, m.dim)
        self.left = len(m.keys)
        self._found: tuple[Circuit, int, list[int]] | None = None

    def __len__(self) -> int:
        return self.left

    def _locate(self, c: Circuit) -> tuple[int, list[int]]:
        """The bit of c's position outside the basis and c's pivot positions,
        when c is that position's fundamental circuit.

        Every key must be present, exactly one position must be outside the
        pivots, and every pivot row among the positions must hold that one,
        j. Then c is j plus some of the pivots in j's expansion, and since c
        sums to zero (the circuit law) and the expansion over a basis is
        unique, it is all of them: c is j's fundamental circuit. Anything
        else, including a circuit already removed, raises OutOfRangeError.
        """
        at, rows = self.at, self.rows
        low, hit = 0, []
        for key in c.keys:
            p = bisect_left(at, key)
            if p == len(at) or at[p] != key:
                raise OutOfRangeError("circuit holds a key outside the working set")
            if p in rows:
                hit.append(p)
            elif low:
                raise OutOfRangeError("not a fundamental circuit of the working set")
            else:
                low = 1 << p
        if any(not rows[p] & low for p in hit):
            raise OutOfRangeError("not a fundamental circuit of the working set")
        return low, hit

    def remove(self, c: Circuit) -> None:
        """Project the rows off the positions of c, a fundamental circuit of
        the current basis; any other circuit raises OutOfRangeError and
        leaves the state as it was.

        c is the circuit of the position j outside the basis, with bit low,
        and its pivots are those of the rows that hold j: the last search
        recorded both when it returned c itself, and _locate finds them for
        any other object. A row that does not hold j holds no removed
        position, since no row holds another row's pivot, so it stays as it
        is. A row that does holds its own pivot as its lowest bit, j, and no
        other removed position, so its projection is (row & (row - 1)) ^ low.
        Those projections hold no pivot of a kept row: they are reduced among
        themselves, and each new pivot is then cleared from the kept rows. A
        step costs O(|c| * rank) big-int operations.

        Once three quarters of the positions are gone, ``at`` becomes the
        ascending keys still present (the positions the rows' OR holds) and
        the rows are rebuilt by column_rref. They come out as the projected
        ones, renumbered: the kept rows span the projection of the row space
        onto the live positions, a reduced echelon form with lowest-bit
        pivots is unique, and renumbering the positions in their order keeps
        every pivot. So the searches that follow find the same circuits on
        shorter rows.
        """
        found, self._found = self._found, None
        if found is not None and found[0] is c:
            _, low, hit = found
        else:
            low, hit = self._locate(c)
        rows = self.rows
        fresh, pivots = _gauss_jordan([(row & (row - 1)) ^ low for row in map(rows.pop, hit)])
        for p, row in rows.items():
            mask = row & pivots
            if mask:
                while mask:  # inline, not _mask_indices, as in _gauss_jordan
                    bit = mask & -mask
                    row ^= fresh[bit.bit_length() - 1]
                    mask ^= bit
                rows[p] = row
        rows.update(fresh)
        self.left -= len(c.keys)
        if 0 < self.left * 4 <= len(self.at):
            live = reduce(or_, rows.values())
            self.at = tuple(compress(self.at, map(int, bin(live)[:1:-1])))
            self.rows = column_rref(self.at, self.dim)


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
    decomposition (and at each compaction, on the keys left) and each step
    costs O(rank * log rank) big-int operations here, plus the upkeep in
    remove. The circuit, j's bit and the pivots
    that hold it go to the working set's ``_found``, so remove of this very
    circuit reads its positions instead of finding them again.
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
    hit = [p for p, row in rows.items() if row & low]
    c = Circuit(work.dim, [at[p] for p in hit] + [at[low.bit_length() - 1]])
    work._found = (c, low, hit)
    return c


def peel(m: BinaryMatroid) -> list[Circuit]:
    """Remove the largest fundamental circuit from m's WorkingSet until it is empty.

    The state is built once; each step is largest_fundamental_circuit, which
    reads it and records where the circuit lies, and remove, which updates
    the rows that held the circuit and compacts the state as it empties. The
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
