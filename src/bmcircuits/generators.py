"""Test-instance generators: complete matroids, block copies, random Eulerian sets.

Randomness comes from numpy's PCG64 so corpora are reproducible bit for bit
from a 64-bit seed; the algorithm identifier is recorded in file headers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, OutOfRangeError
from .gf2core import MAX_DIM, BinaryMatroid

PRNG_ID = "pcg64"
_REDRAW_LIMIT = 1000


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
    if not 1 <= n <= 24:
        raise OutOfRangeError(f"complete matroid dimension {n} not in 1..24")
    return BinaryMatroid(n, range(1, 1 << n))


def independent_copies(k: int, s: int) -> BinaryMatroid:
    """k complete matroids of dimension s on disjoint coordinate blocks.

    Rank is k*s and size k * (2^s - 1); every circuit stays inside one block.
    """
    if k < 1 or s < 1:
        raise OutOfRangeError("k and s must be positive")
    if k * s > MAX_DIM:
        raise OutOfRangeError(f"k*s = {k * s} exceeds the dimension cap {MAX_DIM}")
    dim = k * s
    keys = []
    for block in range(k):
        shift = dim - (block + 1) * s  # block 0 occupies the leading coordinates
        keys.extend(key << shift for key in range(1, 1 << s))
    return BinaryMatroid(dim, keys)


def _random_key(rng: np.random.Generator, n: int) -> int:
    """Uniform nonzero n-bit key, assembled from 64-bit words for large n."""
    while True:
        key = 0
        for _ in range((n + 63) // 64):
            key = (key << 64) | int(rng.integers(0, 1 << 64, dtype=np.uint64))
        key &= (1 << n) - 1
        if key:
            return key


def random_eulerian(n: int, size: int, seed: int) -> BinaryMatroid:
    """A random Eulerian matroid of roughly the requested size.

    Draws `size` distinct nonzero vectors, then repairs the XOR defect s by
    toggling membership of s, so the result has size - 1, size, or size + 1
    elements. Deterministic per nonnegative seed. Raises InfeasibleError if
    the repair keeps failing (only possible at the extreme size bounds).
    """
    if n < 2 or n > MAX_DIM:
        raise OutOfRangeError(f"need 2 <= n <= {MAX_DIM}")
    if not 3 <= size <= (1 << n) - 1:
        raise OutOfRangeError(f"size {size} not in 3..2^{n}-1")
    if seed < 0:  # PCG64 takes only nonnegative seeds
        raise OutOfRangeError(f"seed {seed} is negative")
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(_REDRAW_LIMIT):
        chosen: set[int] = set()
        while len(chosen) < size:
            chosen.add(_random_key(rng, n))
        defect = 0
        for key in chosen:
            defect ^= key
        if defect == 0:
            return BinaryMatroid(n, chosen)
        if defect in chosen and len(chosen) > 3:
            chosen.remove(defect)
            return BinaryMatroid(n, chosen)
        if defect not in chosen and len(chosen) < (1 << n) - 1:
            chosen.add(defect)
            return BinaryMatroid(n, chosen)
    raise InfeasibleError(
        f"no Eulerian repair found for n={n} size={size} after {_REDRAW_LIMIT} redraws"
    )
