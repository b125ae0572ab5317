"""Bit-packed GF(2) vectors, binary matroids, and incremental Gaussian elimination.

Vectors live in F_2^n and are stored as Python ints: coordinate 0 is the most
significant of the n bits, so sorting by the int value equals sorting by the
bit string. Every algorithm in the package iterates elements in this canonical
ascending order, which makes greedy choices and bases reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import NotEulerianError, NotInSpanError, OutOfRangeError

MAX_DIM = 4096


@dataclass(frozen=True, order=True, slots=True)
class Gf2Vector:
    """A nonzero vector of F_2^n.

    ``key`` holds the bit string read as a big-endian integer, so coordinate i
    sits at bit position n - 1 - i. Instances are immutable and totally
    ordered by (n, key); vectors from one matroid share n, so the order is
    simply the canonical key order. Slotted: no per-instance ``__dict__``.
    """

    n: int
    key: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise OutOfRangeError(f"dimension {self.n} not in 1..{MAX_DIM}")
        if not 0 < self.key < (1 << self.n):
            raise OutOfRangeError(
                f"key {self.key} not a nonzero {self.n}-bit value"
            )

    @classmethod
    def from_bits(cls, bits: str) -> Gf2Vector:
        """Build from a string over {0,1}; leftmost character is coordinate 0."""
        if not bits or bits.strip("01"):
            raise OutOfRangeError(f"not a bit string: {bits!r}")
        return cls(len(bits), int(bits, 2))

    @classmethod
    def from_coords(cls, n: int, coords: Iterable[int]) -> Gf2Vector:
        """Build from the set of coordinates that are 1."""
        key = 0
        for i in coords:
            if not 0 <= i < n:
                raise OutOfRangeError(f"coordinate {i} not in 0..{n - 1}")
            key |= 1 << (n - 1 - i)
        return cls(n, key)

    @classmethod
    def unit(cls, n: int, i: int) -> Gf2Vector:
        """Standard basis vector with coordinate i set."""
        return cls.from_coords(n, (i,))

    def bits(self) -> str:
        return format(self.key, f"0{self.n}b")

    def coord(self, i: int) -> int:
        return (self.key >> (self.n - 1 - i)) & 1

    @property
    def weight(self) -> int:
        return self.key.bit_count()

    def __xor__(self, other: Gf2Vector) -> Gf2Vector:
        if self.n != other.n:
            raise OutOfRangeError("cannot XOR vectors of different dimension")
        k = self.key ^ other.key
        if k == 0:
            raise OutOfRangeError("XOR of equal vectors is the zero vector")
        return Gf2Vector(self.n, k)

    def __str__(self) -> str:
        return self.bits()

    def __repr__(self) -> str:
        return f"Gf2Vector({self.bits()!r})"


# sort key for vectors of one dimension: compares ints, not generated (n, key) tuples
_key_of = attrgetter("key")


def xor_key(vectors: Iterable[Gf2Vector]) -> int:
    """Raw XOR of the keys; 0 means the vectors sum to the zero vector."""
    acc = 0
    for v in vectors:
        acc ^= v.key
    return acc


class Gf2Eliminator:
    """Incremental Gaussian elimination over GF(2) with dependency witnesses.

    Rows are kept in row-echelon form keyed by pivot bit (the highest set bit
    of the reduced row). ``insert`` returns None when the vector was
    independent of everything inserted so far, otherwise a bitmask over
    insertion indices: the XOR of the vectors at those indices equals the
    inserted vector. Witness tracking can be disabled for hot search loops
    that only need ranks.

    Single-owner mutable builder; not meant to be shared across threads.
    """

    __slots__ = ("_rows", "_stack", "_track", "n_inserted")

    def __init__(self, track_witnesses: bool = True):
        self._rows: dict[int, tuple[int, int]] = {}  # pivot -> (row key, mask)
        self._stack: list[int] = []  # pivots in insertion order, for undo
        self._track = track_witnesses
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, key: int) -> tuple[int, int]:
        """Reduce key by the current rows; no state change.

        Returns (residual, mask). residual == 0 means key is in the span and
        mask identifies the inserted vectors whose XOR equals key.
        """
        cur = key
        mask = 0
        rows = self._rows
        while cur:
            row = rows.get(cur.bit_length() - 1)
            if row is None:
                break
            cur ^= row[0]
            if self._track:
                mask ^= row[1]
        return cur, mask

    def contains(self, key: int) -> bool:
        return self.reduce(key)[0] == 0

    def insert(self, key: int) -> int | None:
        """Insert a vector; returns None if independent, else the witness mask."""
        cur, mask = self.reduce(key)
        idx = self.n_inserted
        self.n_inserted += 1
        if cur:
            pivot = cur.bit_length() - 1
            self._rows[pivot] = (cur, (mask | (1 << idx)) if self._track else 0)
            self._stack.append(pivot)
            return None
        return mask

    def undo(self, inserted: int | None) -> None:
        """Undo the most recent insert, given what that insert returned.

        None (an independent insert) also drops the row it added; a witness
        mask only frees the insertion index. Undos must come in LIFO order,
        as in depth-first searches that insert on the way down.
        """
        if inserted is None:
            del self._rows[self._stack.pop()]
        self.n_inserted -= 1


def _mask_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BinaryMatroid:
    """A finite set of distinct nonzero vectors of F_2^dim.

    Immutable after construction and safe to share read-only. Elements are
    stored sorted in canonical (ascending key) order.
    """

    __slots__ = ("dim", "elements", "_key_set", "_rank_cache")

    def __init__(self, dim: int, elements: Iterable[Gf2Vector] = ()):
        if not 1 <= dim <= MAX_DIM:
            raise OutOfRangeError(f"dimension {dim} not in 1..{MAX_DIM}")
        elems = sorted(elements, key=_key_of)
        for v in elems:
            if v.n != dim:
                # name the dimension an (n, key) sort would meet first
                bad = min(u.n for u in elems if u.n != dim)
                raise OutOfRangeError(
                    f"vector of dimension {bad} in matroid of dimension {dim}"
                )
        for a, b in zip(elems, elems[1:]):
            if a.key == b.key:
                raise OutOfRangeError(f"duplicate vector {a.bits()}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "_key_set", frozenset(v.key for v in elems))
        object.__setattr__(self, "_rank_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryMatroid is immutable")

    @classmethod
    def from_keys(cls, dim: int, keys: Iterable[int]) -> BinaryMatroid:
        return cls(dim, (Gf2Vector(dim, k) for k in keys))

    @property
    def key_set(self) -> frozenset[int]:
        return self._key_set

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Gf2Vector]:
        return iter(self.elements)

    def __contains__(self, v: Gf2Vector) -> bool:
        return v.key in self._key_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatroid)
            and self.dim == other.dim
            and self._key_set == other._key_set
        )

    def __hash__(self) -> int:
        return hash((self.dim, self._key_set))

    def __repr__(self) -> str:
        return f"BinaryMatroid(dim={self.dim}, size={len(self)})"

    def difference(self, removed: Iterable[Gf2Vector]) -> BinaryMatroid:
        gone = {v.key for v in removed}
        return BinaryMatroid(self.dim, (v for v in self.elements if v.key not in gone))

    def symmetric_difference(self, other: Iterable[Gf2Vector]) -> BinaryMatroid:
        keys = set(self._key_set)
        for v in other:
            if v.key in keys:
                keys.remove(v.key)
            else:
                keys.add(v.key)
        return BinaryMatroid.from_keys(self.dim, keys)


def rank(m: BinaryMatroid) -> int:
    """Size of a largest linearly independent subset; 0 for the empty matroid."""
    if m._rank_cache is None:
        elim = Gf2Eliminator(track_witnesses=False)
        for v in m.elements:
            elim.insert(v.key)
        object.__setattr__(m, "_rank_cache", elim.rank)
    return m._rank_cache


def is_eulerian(m: BinaryMatroid) -> bool:
    """True iff the XOR of all elements is zero; vacuously true when empty."""
    return xor_key(m.elements) == 0


def require_eulerian(m: BinaryMatroid) -> None:
    """Raise NotEulerianError unless is_eulerian(m)."""
    if not is_eulerian(m):
        raise NotEulerianError("matroid is not Eulerian")


def greedy_basis(
    keys: Sequence[int], dim: int, bound: int
) -> tuple[list[int], dict[int, int]]:
    """The first-seen basis of ascending keys: each key independent of all before it.

    ``keys`` must be ascending. The scan stops once ``bound`` keys are taken,
    so any upper bound on the rank of the keys (the dimension, or the rank
    of a set whose span holds them) returns the same basis as a full scan:
    once the basis has rank-many vectors, every later key is dependent.
    When the basis has as many vectors as its largest key has bits, it spans
    every key below 2**bits, so the scan bisects past those keys.

    Also returns the basis in row-echelon form, as expansion_masks takes it:
    pivot -> ``row key | mask << dim``, where the pivot is the highest bit of
    the row key and mask marks the basis positions whose XOR is the row.
    This is Gf2Eliminator's elimination on packed rows, without a method
    call per key.
    """
    rows: dict[int, int] = {}
    low = (1 << dim) - 1
    basis: list[int] = []
    i, n = 0, len(keys)
    while i < n and len(basis) < bound:
        key = keys[i]
        i += 1
        acc = cur = key
        while cur:
            row = rows.get(cur.bit_length() - 1)
            if row is None:
                break
            acc ^= row
            cur = acc & low
        if not cur:
            continue
        rows[cur.bit_length() - 1] = acc ^ 1 << (dim + len(basis))
        basis.append(key)
        top = key.bit_length()
        if len(basis) == top:
            i = bisect_left(keys, 1 << top, i)
    return basis, rows


def max_independent_subset(m: BinaryMatroid) -> tuple[Gf2Vector, ...]:
    """A basis of M, chosen by first-seen pivots in canonical element order."""
    basis = set(greedy_basis([v.key for v in m.elements], m.dim, m.dim)[0])
    return tuple(v for v in m.elements if v.key in basis)


def express_in_basis(
    x: Gf2Vector, basis: Sequence[Gf2Vector]
) -> frozenset[int]:
    """Indices I into basis (0-based) with x equal to the XOR of basis[i] for i in I.

    The basis must be linearly independent; the index set is then unique.
    Raises NotInSpanError when x lies outside the span.
    """
    elim = Gf2Eliminator()
    for b in basis:
        if elim.insert(b.key) is not None:
            raise OutOfRangeError("basis is not linearly independent")
    residual, mask = elim.reduce(x.key)
    if residual != 0:
        raise NotInSpanError(f"{x.bits()} is not in the span of the basis")
    return frozenset(_mask_indices(mask))


def expansion_masks(keys: Sequence[int], rows: dict[int, int], dim: int) -> list[int]:
    """For each key, the mask of its unique expansion in the basis behind rows.

    ``rows`` is the row-echelon form that greedy_basis returns, and every key
    must lie in its span (NotInSpanError otherwise). The masks are every
    fundamental circuit of that basis at once: a peel builds its state from
    one call (circuits.WorkingSet.rref), and the oracles and the density
    bound make one call per input. The scan follows the Method of Four
    Russians (Arlazarov, Dinic, Kronrod, Faradzev 1970; Albrecht, Bard,
    Hart, ACM TOMS 2010).
    Each 8-bit slice of the key that holds a pivot gets one table, mapping
    the slice to the XOR of rows that clears its pivot bits top down. That
    map is linear, so the table is built by doubling: each row is first
    cleared of the lower pivots of its slice through the table so far, and
    the new half is that row XOR the old half. No row has a bit above its
    pivot, so the table entries touch no higher slice: applied from the top
    slice down, the tables end at the residual, which is zero exactly in
    the span, with the mask above it. A table is sized to the highest pivot
    in its slice, so a call builds at most 32 entries per key bit and keeps
    one table alive at a time; a key costs one lookup per table.
    """
    entries = [0] * dim  # per key bit: its row, 0 off the pivots
    for pivot, row in rows.items():
        entries[pivot] = row
    acc = list(keys)
    for shift in range((dim - 1) & ~7, -1, -8):
        chunk = entries[shift:shift + 8]
        while chunk and not chunk[-1]:
            chunk.pop()
        if not chunk:
            continue
        table = [0]
        for row in chunk:  # table doubles per bit; the new half has this bit set
            if row:
                row ^= table[row >> shift & (len(table) - 1)]  # clear lower pivots
                table += [row ^ t for t in table]
            else:
                table += table
        sel = len(table) - 1
        acc = [a ^ table[a >> shift & sel] for a in acc]
    low = (1 << dim) - 1
    if any([a & low for a in acc]):
        raise NotInSpanError("a key lies outside the span")
    return [a >> dim for a in acc]
