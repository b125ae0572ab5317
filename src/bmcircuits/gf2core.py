"""GF(2) vectors as int keys, binary matroids, and Gaussian elimination.

Gf2Eliminator eliminates incrementally, with undo and witnesses, and
greedy_basis runs on it; column_rref reduces a whole key list at once, and
every fundamental circuit of its first-seen basis is read from that one form.

Vectors live in F_2^n and are stored as Python ints: coordinate 0 is the most
significant of the n bits, so sorting by the int value equals sorting by the
bit string. Every algorithm in the package iterates elements in this canonical
ascending order, which makes greedy choices and bases reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from operator import xor
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NotEulerianError, OutOfRangeError

MAX_DIM = 4096


class Gf2Eliminator:
    """Incremental Gaussian elimination over GF(2) with dependency witnesses.

    Rows are kept in row-echelon form in a flat list indexed by bit length:
    entry b holds the reduced row whose highest set bit is bit b - 1, or 0
    when that pivot is free. Entry 0 is always 0, so a reduction that
    reaches zero and one that meets a free pivot stop at the same test. The
    list starts with 65 entries and grows for longer keys. ``insert``
    returns None when the vector was independent of everything inserted so
    far, otherwise a bitmask over insertion indices: the XOR of the vectors
    at those indices equals the inserted vector. The witness masks live in
    a parallel list, kept only when witnesses are tracked; hot search loops
    that only need ranks can disable them.

    Single-owner mutable builder; not meant to be shared across threads.
    """

    __slots__ = ("_rows", "_masks", "_stack", "n_inserted")

    def __init__(self, track_witnesses: bool = True):
        self._rows = [0] * 65  # bit length -> row key
        self._masks = [0] * 65 if track_witnesses else None  # bit length -> witness mask
        self._stack: list[int] = []  # pivot bit lengths in insertion order, for undo
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self._stack)

    def reduce(self, key: int) -> tuple[int, int]:
        """Reduce key by the current rows; no state change.

        Returns (residual, mask). residual == 0 means key is in the span and
        mask identifies the inserted vectors whose XOR equals key.
        """
        rows, masks = self._rows, self._masks
        cur = key
        mask = 0
        try:
            while True:
                length = cur.bit_length()
                row = rows[length]
                if not row:
                    break
                cur ^= row
                if masks is not None:
                    mask ^= masks[length]
        except IndexError:  # a key longer than every row: its top bit is a free pivot
            pass
        return cur, mask

    def contains(self, key: int) -> bool:
        return self.reduce(key)[0] == 0

    def insert(self, key: int) -> int | None:
        """Insert a vector; returns None if independent, else the witness mask.

        The reduction is reduce's loop, inlined and split by tracking mode:
        this is the hot call. Each row cleared lowers the bit length, so only
        the first lookup can fall off the end of the list.
        """
        rows, masks = self._rows, self._masks
        cur = key
        mask = 0
        try:
            if masks is None:
                while True:
                    row = rows[cur.bit_length()]
                    if not row:
                        break
                    cur ^= row
            else:
                while True:
                    length = cur.bit_length()
                    row = rows[length]
                    if not row:
                        break
                    cur ^= row
                    mask ^= masks[length]
        except IndexError:  # a key longer than every row: grow both lists for it
            grow = [0] * (key.bit_length() + 1 - len(rows))
            rows += grow
            if masks is not None:
                masks += grow
        idx = self.n_inserted
        self.n_inserted = idx + 1
        if cur:
            length = cur.bit_length()
            rows[length] = cur
            if masks is not None:
                masks[length] = mask | (1 << idx)
            self._stack.append(length)
            return None
        return mask

    def undo(self, inserted: int | None) -> None:
        """Undo the most recent insert, given what that insert returned.

        None (an independent insert) also drops the row it added; a witness
        mask only frees the insertion index. Undos must come in LIFO order,
        as in depth-first searches that insert on the way down.
        """
        if inserted is None:
            self._rows[self._stack.pop()] = 0
        self.n_inserted -= 1


def _mask_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sorted_keys(dim: int, keys: Iterable[int]) -> tuple[int, ...]:
    """The ascending keys, each a nonzero dim-bit value.

    A key out of range is named by its first occurrence in the order given.
    Duplicates are left to the caller.
    """
    if not 1 <= dim <= MAX_DIM:
        raise OutOfRangeError(f"dimension {dim} not in 1..{MAX_DIM}")
    items = list(keys)
    ordered = tuple(sorted(items))
    if ordered and (ordered[0] < 1 or ordered[-1] >> dim):
        bad = next(k for k in items if not 0 < k < 1 << dim)
        raise OutOfRangeError(f"key {bad} not a nonzero {dim}-bit value")
    return ordered


class BinaryMatroid:
    """A finite set of distinct nonzero vectors of F_2^dim, held as int keys.

    Immutable after construction and safe to share read-only. ``keys`` holds
    the elements in canonical (ascending) order and ``key_set`` the same
    keys as a set.
    """

    __slots__ = ("dim", "keys", "key_set", "_rank_cache")

    def __init__(self, dim: int, keys: Iterable[int] = ()):
        keys = _sorted_keys(dim, keys)
        key_set = frozenset(keys)
        if len(key_set) != len(keys):
            dup = next(a for a, b in zip(keys, keys[1:]) if a == b)
            raise OutOfRangeError(f"duplicate vector {dup:0{dim}b}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "key_set", key_set)
        object.__setattr__(self, "_rank_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryMatroid is immutable")

    def __reduce__(self):  # pickle and copy rebuild rather than set slots
        return BinaryMatroid, (self.dim, self.keys)

    @property
    def elements(self) -> tuple[int, ...]:
        """The keys again: the name the benchmark's tracer reads (bmbench/spans.py)."""
        return self.keys

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatroid)
            and self.dim == other.dim
            and self.keys == other.keys
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.key_set))

    def __repr__(self) -> str:
        return f"BinaryMatroid(dim={self.dim}, size={len(self)})"


def rank(m: BinaryMatroid) -> int:
    """Size of a largest linearly independent subset; 0 for the empty matroid."""
    if m._rank_cache is None:
        elim = Gf2Eliminator(track_witnesses=False)
        for key in m.keys:
            elim.insert(key)
        object.__setattr__(m, "_rank_cache", elim.rank)
    return m._rank_cache


def is_eulerian(m: BinaryMatroid) -> bool:
    """True iff the XOR of all elements is zero; vacuously true when empty."""
    return reduce(xor, m.keys, 0) == 0


def require_eulerian(m: BinaryMatroid) -> None:
    """Raise NotEulerianError unless is_eulerian(m)."""
    if not is_eulerian(m):
        raise NotEulerianError("matroid is not Eulerian")


def greedy_basis(keys: Sequence[int], bound: int) -> list[int]:
    """The first-seen basis of ascending keys: each key independent of all before it.

    ``keys`` must be ascending. The scan stops once ``bound`` keys are taken,
    so any upper bound on the rank of the keys (the dimension, or the rank
    of a set whose span holds them) returns the same basis as a full scan:
    once the basis has rank-many vectors, every later key is dependent.
    When the basis has as many vectors as its largest key has bits, it spans
    every key below 2**bits, so the scan bisects past those keys.
    """
    elim = Gf2Eliminator(track_witnesses=False)
    basis: list[int] = []
    i, n = 0, len(keys)
    while i < n and len(basis) < bound:
        key = keys[i]
        i += 1
        if elim.insert(key) is not None:
            continue
        basis.append(key)
        top = key.bit_length()
        if len(basis) == top:
            i = bisect_left(keys, 1 << top, i)
    return basis


def column_rref(keys: Sequence[int], dim: int) -> dict[int, int]:
    """The reduced row-echelon form of the keys' coordinate slices.

    Position j is index j of ``keys``. Slice b is the int whose bit j is
    bit b of key j; the slices span the row space of the dim x |keys|
    matrix whose columns are the keys. The result maps each pivot position
    to its row: the pivot is the row's lowest set bit and is set in no
    other row. So the pivots are the matrix's column rank profile (Dumas,
    Pernet, Sultan, ISSAC 2015), the first-seen basis of the keys (for
    ascending keys, the one greedy_basis finds), and bit j of the row at
    pivot p is the coefficient of basis element p in the unique expansion
    of key j. Read by columns, the rows hold every fundamental circuit of
    that basis: key j's is j plus the pivots of the rows that hold bit j.
    Each position of a nonzero key is set in some row.

    The slices come from one bit-matrix transpose on numpy bit arrays,
    little-endian on both sides, and are reduced in order by _gauss_jordan.
    """
    if not keys:
        return {}
    width = (dim + 7) // 8
    raw = b"".join([key.to_bytes(width, "little") for key in keys])
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(keys), width),
                         axis=1, count=dim, bitorder="little")
    packed = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
    flat, stride = packed.tobytes(), packed.shape[1]
    return _gauss_jordan(int.from_bytes(flat[i:i + stride], "little")
                         for i in range(0, len(flat), stride))[0]


def _gauss_jordan(rows: Iterable[int]) -> tuple[dict[int, int], int]:
    """Reduce rows Gauss-Jordan style, pivoting on the lowest set bit.

    Each row is cleared of the pivots so far; what is left, if anything,
    pivots on its lowest bit, which is cleared from every other row. Returns
    pivot position -> row, each pivot set in its own row only, and the
    pivots' bits.
    """
    reduced: dict[int, int] = {}
    pivots = 0
    for row in rows:
        for q in _mask_indices(row & pivots):
            row ^= reduced[q]
        if row:
            low = row & -row
            for q, other in reduced.items():
                if other & low:
                    reduced[q] = other ^ row
            reduced[low.bit_length() - 1] = row
            pivots |= low
    return reduced, pivots
