"""Test-instance generators: complete matroids, block copies, random Eulerian sets.

Randomness comes from numpy's PCG64 so corpora are reproducible bit for bit
from a 64-bit seed; the algorithm identifier is recorded in file headers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import OutOfRangeError
from .gf2core import MAX_DIM, BinaryMatroid

PRNG_ID = "pcg64"

#: the most elements a generated instance may hold, complete_matroid(24)'s;
#: each generator refuses a larger instance before it builds anything
MAX_ELEMENTS = (1 << 24) - 1

#: the most keys random_eulerian draws words for in one numpy call
_BATCH = 1 << 12


def _require_elements(count: int) -> None:
    if count > MAX_ELEMENTS:
        raise OutOfRangeError(f"{count} elements exceed the cap 2^24 - 1")


@dataclass(frozen=True)
class InstanceSpec:
    """What was generated and how; serialized into '# spec:' file headers."""

    kind: str  # complete | copies | random-eulerian
    params: dict = field(default_factory=dict)

    def header(self) -> str:
        items = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind} {items}".strip()


def complete_matroid(n: int) -> BinaryMatroid:
    """All 2^n - 1 nonzero vectors of F_2^n; Eulerian for n >= 2."""
    top = MAX_ELEMENTS.bit_length()  # 2^n - 1 elements fit the cap up to n = 24
    if not 1 <= n <= top:
        raise OutOfRangeError(f"complete matroid dimension {n} not in 1..{top}")
    return BinaryMatroid(n, range(1, 1 << n))


def independent_copies(k: int, s: int) -> BinaryMatroid:
    """k complete matroids of dimension s on disjoint coordinate blocks.

    Rank is k*s and size k * (2^s - 1); every circuit stays inside one block.
    """
    if k < 1 or s < 1:
        raise OutOfRangeError("k and s must be positive")
    if k * s > MAX_DIM:
        raise OutOfRangeError(f"k*s = {k * s} exceeds the dimension cap {MAX_DIM}")
    _require_elements(k * ((1 << s) - 1))
    dim = k * s
    keys = []
    for block in range(k):
        shift = dim - (block + 1) * s  # block 0 occupies the leading coordinates
        keys.extend(key << shift for key in range(1, 1 << s))
    return BinaryMatroid(dim, keys)


def _random_keys(rng: np.random.Generator, n: int, batch: int) -> Iterator[int]:
    """Uniform nonzero n-bit keys, each from the next (n + 63) // 64 64-bit
    words of rng, first word most significant; zero keys are skipped.

    The words are drawn batch keys' worth at a time. Full-range uint64 draws
    are the generator's raw 64-bit outputs, so a batched draw gives the same
    words in the same order as one call per word.
    """
    width = (n + 63) // 64  # words per key
    top = np.uint64((1 << (n - 64 * (width - 1))) - 1)  # mask of the first word
    while True:
        drawn = rng.integers(0, 1 << 64, size=(batch, width), dtype=np.uint64)
        drawn[:, 0] &= top
        keys = drawn[:, 0].tolist()
        for column in drawn.T[1:]:
            keys = [key << 64 | word for key, word in zip(keys, column.tolist())]
        yield from filter(None, keys)


def random_eulerian(n: int, size: int, seed: int) -> BinaryMatroid:
    """A random Eulerian matroid of roughly the requested size.

    Draws `size` distinct nonzero vectors, then repairs the XOR defect s by
    toggling membership of s, so the result has size - 1, size, or size + 1
    elements. The toggle always yields a valid set: removing s from
    {a, b, c} would need b = c, and adding s to a set that holds every
    nonzero key would need s = 0. A size whose result could exceed
    MAX_ELEMENTS is refused. Deterministic per nonnegative seed.
    """
    if n < 2 or n > MAX_DIM:
        raise OutOfRangeError(f"need 2 <= n <= {MAX_DIM}")
    if not 3 <= size <= (1 << n) - 1:
        raise OutOfRangeError(f"size {size} not in 3..2^{n}-1")
    _require_elements(min(size + 1, (1 << n) - 1))  # the repair may add one
    if seed < 0:  # PCG64 takes only nonnegative seeds
        raise OutOfRangeError(f"seed {seed} is negative")
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen: set[int] = set()
    keys = _random_keys(rng, n, min(size, _BATCH))
    while len(chosen) < size:
        chosen.add(next(keys))
    defect = 0
    for key in chosen:
        defect ^= key
    if defect:
        chosen ^= {defect}
    return BinaryMatroid(n, chosen)
