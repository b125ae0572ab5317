"""Circuit odd-covers: collections of circuits whose symmetric difference is M.

Cover circuits live in the ambient space and may use vectors outside M, so
each step can erase a whole independent set at once: complete a basis I of
the working set with its sum x and XOR the circuit I + {x} away. The
arboricity-based construction does this for all parts of a minimum
independent partition simultaneously, leaving a remainder no bigger than the
part count. What the completions leave is peeled into contained circuits
by circuits.peel, the loop every decomposition runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import Iterable

from .arboricity import arboricity, max_quotient
from .circuits import Circuit, peel
from .decompose import peel_decompose
from .errors import EmptyMatroidError, OutOfRangeError, TooSmallError
from .formats import check_oddcover
from .gf2core import BinaryMatroid, column_rref, greedy_basis, require_eulerian


@dataclass(frozen=True)
class OddCover:
    """Circuits with C_1 xor ... xor C_t = target.

    Elements of the target appear in an odd number of circuits, all other
    vectors in an even number. Circuits need not be subsets of the target.
    """

    target: BinaryMatroid
    circuits: tuple[Circuit, ...]

    def __post_init__(self):
        reason = check_oddcover(self.target, self.target.dim, self.circuits)
        if reason is not None:
            raise OutOfRangeError(reason)

    def __len__(self) -> int:
        return len(self.circuits)


def complete_to_circuit(independent: Iterable[int], dim: int) -> Circuit:
    """Close an independent set I of int keys of dimension dim with its own
    sum x, built by Circuit like any other input.

    x is nonzero and outside I (both would contradict independence), so the
    result has |I| + 1 >= 3 elements and is a circuit. A dependent I raises
    OutOfRangeError from Circuit: from its key range when the sum is zero,
    else from its circuit test, as then rank(I + {x}) <= |I| - 1 < size - 1.
    """
    items = list(independent)
    if len(items) <= 1:
        raise TooSmallError("need at least 2 independent vectors")
    return Circuit(dim, items + [reduce(xor, items)])


def symdiff_reduce(m: BinaryMatroid) -> OddCover:
    """Greedy odd-cover: XOR away a completed basis while the set is large.

    Each main step removes rank(N) elements and adds at most one, so the size
    drops by at least two while rank(N) >= 3. Once the working set falls
    under |M| / ln^2 |M| elements (or its rank reaches 2, leaving at most a
    triangle), circuits.peel removes the rest as largest fundamental
    circuits.

    The working set is an ascending key list, toggled in place by bisect.
    The completion lies in the span of the basis, so a step never raises the
    rank, and each step's greedy basis stops at the previous step's rank:
    the basis is still the one a full scan finds, computed once per step.
    The scan bisects past each run of keys that share their high bits with
    a scanned key once its span holds every vector of their low bits
    (gf2core.greedy_basis), so late steps, whose working set is mostly
    such runs, insert far fewer keys than the set holds.
    What the steps leave is peeled as a matroid of its own, whose peel
    state is built once.
    """
    require_eulerian(m)
    if len(m) == 0:
        return OddCover(m, ())
    threshold = len(m) / (math.log(len(m)) ** 2)
    keys = list(m.keys)
    cover: list[Circuit] = []
    bound = m.dim
    while len(keys) >= threshold:
        basis = greedy_basis(keys, bound)
        bound = len(basis)
        if bound <= 2:
            break
        c = complete_to_circuit(basis, m.dim)
        for key in c.keys:
            i = bisect_left(keys, key)
            if i < len(keys) and keys[i] == key:
                del keys[i]
            else:
                keys.insert(i, key)
        cover.append(c)
    cover += peel(BinaryMatroid(m.dim, keys))
    return OddCover(m, tuple(cover))


def _cancel_pairs(circuits: Iterable[Circuit]) -> tuple[Circuit, ...]:
    """Drop circuits occurring an even number of times; XOR is unchanged."""
    items = list(circuits)
    parity: dict[tuple[int, ...], int] = {}
    for c in items:
        parity[c.keys] = parity.get(c.keys, 0) ^ 1
    out = []
    for c in items:
        if parity.get(c.keys, 0):
            out.append(c)
            parity[c.keys] = 0
    return tuple(out)


def _smallest_other_key(avoid: int) -> int:
    return 2 if avoid == 1 else 1


def oddcover_via_arboricity(m: BinaryMatroid) -> tuple[int, OddCover]:
    """a(M) and an odd-cover of size at most ceil(4/3 * a(M)).

    Computes a minimum independent partition, completes every part to a
    circuit, and covers the leftover symmetric difference with the reduction
    greedy. Parts of size one cannot be completed; they either borrow an
    element from a part that can spare one, or get covered by an auxiliary
    triangle {y, z, y + z} whose alien elements flow into the remainder.

    The remainder holds completion keys only, so it needs no check of its
    own. Each base circuit C_i is its part P_i plus completion keys X_i
    disjoint from P_i: the sum of an independent part lies outside it, and
    z and y + z differ from y. The parts partition M, so
    M Δ P_1 Δ ... Δ P_t is empty and M Δ C_1 Δ ... Δ C_t = X_1 Δ ... Δ X_t.
    OddCover re-checks the final cover.
    """
    if len(m) == 0:
        raise EmptyMatroidError("nothing to cover")
    require_eulerian(m)
    t, partition = arboricity(m)
    parts = [list(p) for p in partition.parts]

    # rebalance: singletons borrow from any part that keeps >= 2 elements
    for part in parts:
        if len(part) != 1:
            continue
        donor = max(parts, key=len)
        if len(donor) >= 3:
            part.append(donor.pop())

    base: list[Circuit] = []
    for part in parts:
        if len(part) >= 2:
            base.append(complete_to_circuit(part, m.dim))
        else:
            y = part[0]
            z = _smallest_other_key(y)
            base.append(Circuit(m.dim, (y, z, y ^ z)))

    left = set(m.key_set)
    for c in base:
        left.symmetric_difference_update(c.keys)
    remainder = BinaryMatroid(m.dim, left)

    cover = list(base) + list(symdiff_reduce(remainder).circuits)
    final = _cancel_pairs(cover)
    bound = -(-4 * t // 3)
    if len(final) > bound:
        # the reduction greedy overspent; disjoint peeling of the remainder
        # uses at most |remainder| / 3 <= (t + 1) / 3 circuits and restores
        # the guarantee
        final = _cancel_pairs(list(base) + list(peel_decompose(remainder).circuits))
    return t, OddCover(m, final)


def density_lower_bound(m: BinaryMatroid, exhaustive_limit: int = 20) -> int:
    """Lower bound on the odd-cover size: max of ceil(|N| / (rank(N) + 1)).

    Exact (the max over every nonempty N, as a matroid-union rank by
    arboricity.max_quotient) up to exhaustive_limit elements; above that,
    the max is taken over M itself and the restrictions of M to the spans of
    canonical basis prefixes, which is a valid bound but possibly loose. The
    exact path keeps the cap of the subset scan that cross-checks it, so an
    exhaustive_limit above that cap raises TooLargeError on larger inputs.
    """
    if len(m) == 0:
        raise EmptyMatroidError("no nonempty subsets")
    require_eulerian(m)
    if len(m) <= exhaustive_limit:
        return max_quotient(m, denom_offset=1)
    rows = column_rref(m.keys, m.dim)
    pivots = sorted(rows)  # the basis in canonical order
    # the span of the first i basis elements holds exactly the elements that
    # no row from pivot i on holds
    best = 0
    outside = 0  # the OR of the rows past the prefix
    for length in range(len(pivots), 0, -1):
        inside = len(m) - outside.bit_count()
        best = max(best, -(-inside // (length + 1)))
        outside |= rows[pivots[length - 1]]
    return best
