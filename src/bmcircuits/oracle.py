"""Exhaustive ground truth on tiny instances.

Everything here is exponential by design and guarded by size limits: full
circuit enumeration, exact minimum circuit decompositions, exact minimum
odd-covers over a small ambient space, and conjecture probes that compare
the exact values against the closed-form bounds.

Circuit enumeration, the component split and exact_c2's coordinates all
read one gf2core.column_rref of the input: the reduced row-echelon form
of its coordinate slices, whose pivots are the first-seen basis and whose
rows hold every fundamental circuit of that basis. Enumeration lists the
cycle space of that basis: every XOR of the fundamental circuits of the
|M| - rank elements outside it, kept by size when it holds no smaller
circuit. exact_c and intersection_lower_bound work on each connected
component on its own; exact_c2 reads one table of odd-cover sizes per
ambient dimension, built once per process by breadth-first search over the
subsets of the complete matroid. exact_c peels each component first and
enumerates it only when the peel count misses the quotient floor
ceil(|C| / (rank(C) + 1)), which settles the minimum otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import numpy as np

from .arboricity import arboricity
from .circuits import Circuit
from .decompose import peel_decompose
from .errors import TooLargeError
from .gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    _mask_indices,
    column_rref,
    rank,
    require_eulerian,
)
from .generators import complete_matroid
from .oddcover import density_lower_bound

ENUMERATION_LIMIT = 24
C2_DIMENSION_LIMIT = 4


@dataclass(frozen=True)
class CircuitCatalog:
    """Every circuit inside a ground set, as element-index bitmasks."""

    universe: BinaryMatroid
    masks: tuple[int, ...]

    def to_circuit(self, mask: int) -> Circuit:
        keys = self.universe.keys
        return Circuit(self.universe.dim, (keys[i] for i in _mask_indices(mask)))

    def circuits(self):
        return [self.to_circuit(mask) for mask in self.masks]

    def max_size(self) -> int:
        return max((mask.bit_count() for mask in self.masks), default=0)


def _require_enumerable(m: BinaryMatroid) -> None:
    """Raise TooLargeError when m has more than ENUMERATION_LIMIT elements."""
    if len(m) > ENUMERATION_LIMIT:
        raise TooLargeError(f"|M| = {len(m)} exceeds {ENUMERATION_LIMIT}")


def enumerate_circuits(m: BinaryMatroid) -> CircuitCatalog:
    """All minimal zero-sum subsets of m, from the cycle space of one basis.

    Let r be the rank of m, B the positions of its first-seen basis and N
    the other positions. Each e in N has a fundamental circuit f_e: e plus
    the positions of B in its expansion. Both come from the one
    gf2core.column_rref of m: B is its pivots, and f_e has bit p for each
    row p that holds e. The f_e are a basis of the cycle space, the
    zero-sum subsets of m, so XORing each new f_e into every cycle listed
    so far lists all 2^|N| cycles, one uint32 mask each. Under
    ENUMERATION_LIMIT, |N| is at most 19 (24 keys need rank 5), so the
    list stays within 2 MB.

    A cycle S that is not a circuit holds a circuit T other than S, and
    S ^ T is a nonempty cycle too, so S splits into two disjoint nonempty
    cycles; the smaller holds a circuit of at most |S| / 2 elements. The
    keys are distinct and nonzero, so every circuit has at least 3
    elements, and at most r + 1. So the cycles are taken by size from 3 to
    r + 1, and one of size s is a circuit iff it holds none of the circuits
    of at most s // 2 elements kept before it: every cycle of at most 5
    elements is one.
    """
    _require_enumerable(m)
    rows = column_rref(m.keys, m.dim)
    fundamental = [1 << e for e in range(len(m))]
    for p, row in rows.items():
        for e in _mask_indices(row):
            fundamental[e] |= 1 << p
    cycles = np.zeros(1, dtype=np.uint32)
    for e, f in enumerate(fundamental):
        if e not in rows:
            cycles = np.concatenate((cycles, cycles ^ f))
    sizes = np.bitwise_count(cycles)
    found = cycles[(sizes > 0) & (sizes <= min(5, len(rows) + 1))]
    for s in range(6, len(rows) + 2):
        candidates = cycles[sizes == s]
        for t in found[np.bitwise_count(found) <= s // 2].tolist():
            candidates = candidates[candidates & t != t]
        found = np.concatenate((found, candidates))
    return CircuitCatalog(m, tuple(np.sort(found).tolist()))


def _components(m: BinaryMatroid) -> list[BinaryMatroid]:
    """The connected components of a nonempty simple Eulerian m.

    Elements share a component when a circuit holds both, and the
    fundamental circuits of one basis already relate them: the components
    are the classes of the transitive closure (Oxley, Matroid Theory,
    ch. 4). In the one gf2core.column_rref of m, row p holds basis element
    p and every element whose fundamental circuit holds p, and every
    element lies in some row. So rows that share a bit are merged, and
    each merged class of positions is a component. The components span a
    direct sum, so the zero sum of m splits into one per component: each
    is Eulerian, nonempty and has no coloop.
    """
    keys = m.keys
    classes: list[int] = []  # disjoint masks of element positions
    for mk in column_rref(keys, m.dim).values():
        for c in [c for c in classes if c & mk]:
            classes.remove(c)
            mk |= c
        classes.append(mk)
    return [BinaryMatroid(m.dim, (keys[j] for j in _mask_indices(c)))
            for c in classes]


def _min_disjoint_cover(sub: BinaryMatroid) -> int:
    """Fewest disjoint circuits covering sub: peel, then exact cover if needed.

    Floor. A circuit C inside sub has |C| = rank(C) + 1 <= rank(sub) + 1
    elements, so any cover of the n elements of sub needs at least
    floor = ceil(n / (rank(sub) + 1)) circuits. The same bound holds on any
    set U of elements still to cover, with rank(U) in place of rank(sub).

    Upper bound. peel_decompose(sub) is a cover, so its count is achievable.
    When it equals the floor it is the minimum, and nothing is enumerated.

    Otherwise the search branches on the least uncovered element and tries
    each catalogue circuit inside the uncovered set U that holds it, largest
    first (Knuth, "Dancing Links", 2000). With best the least count found
    so far, a node at count circuits keeps only what can beat best:
    - U empty is a leaf: count circuits cover sub, so best takes count.
    - count + 2 >= best: a cover of U by k >= 2 circuits ends at
      count + k >= best, so only k = 1 can beat best. U has a one-circuit
      cover iff U is a circuit, and then the catalogue, which holds every
      circuit inside sub, holds U. One set lookup settles the node, with no
      rank and no loop.
    - otherwise the floor of U, count + ceil(|U| / (rank(U) + 1)) >= best,
      prunes the node. This is the only place rank_of runs, so it runs
      only where the search may still branch.
    - best == floor: the floor bounds every cover of sub from below, so
      best is the minimum, and every open loop returns.
    Each rule cuts only branches that cannot beat best, so the result is
    the minimum. A sub over ENUMERATION_LIMIT is refused before any of it.
    """
    _require_enumerable(sub)
    n = len(sub)
    floor = ceil(n / (rank(sub) + 1))
    best = len(peel_decompose(sub).circuits)
    if best == floor:
        return best
    keys = sub.keys
    masks = enumerate_circuits(sub).masks
    catalogue = set(masks)
    ordered = np.array(sorted(masks, key=int.bit_count, reverse=True),  # stable: largest first
                       dtype=np.uint32)
    by_element = [ordered[ordered >> e & 1 == 1].tolist() for e in range(n)]

    def rank_of(mask: int) -> int:
        elim = Gf2Eliminator(track_witnesses=False)
        for b in _mask_indices(mask):
            elim.insert(keys[b])
        return elim.rank

    def dfs(uncovered: int, count: int) -> None:
        nonlocal best
        if not uncovered:
            best = min(best, count)
        elif count + 2 >= best:
            if uncovered in catalogue:
                best = min(best, count + 1)
        elif count + ceil(uncovered.bit_count() / (rank_of(uncovered) + 1)) < best:
            e = (uncovered & -uncovered).bit_length() - 1
            for mk in by_element[e]:
                if mk & ~uncovered == 0:
                    dfs(uncovered ^ mk, count + 1)
                    if best == floor:
                        return

    dfs((1 << n) - 1, 0)
    del dfs  # its closure holds it: free the catalogue now, not at a full collection
    return best


def exact_c(m: BinaryMatroid) -> int:
    """Minimum number of pairwise-disjoint circuits partitioning m.

    Circuits never straddle connected components, so the value is the sum
    over the components of _components, each covered on its own by
    _min_disjoint_cover, so the ENUMERATION_LIMIT cap applies to each
    component.
    """
    require_eulerian(m)
    if len(m) == 0:
        return 0
    return sum(_min_disjoint_cover(sub) for sub in _components(m))


def c2_search_is_restricted(m: BinaryMatroid) -> bool:
    """False when the exact odd-cover search scans the true ambient space,
    True when it only scans circuits inside span(M). Raises TooLargeError
    when neither search is within reach."""
    if m.dim <= C2_DIMENSION_LIMIT:
        return False
    if rank(m) <= C2_DIMENSION_LIMIT:
        return True
    raise TooLargeError(
        f"odd-cover search needs dim <= {C2_DIMENSION_LIMIT} "
        f"or rank <= {C2_DIMENSION_LIMIT}"
    )


@lru_cache(maxsize=C2_DIMENSION_LIMIT)
def _cover_distances(d: int) -> np.ndarray:
    """Fewest circuits of complete_matroid(d) whose XOR is each subset of it.

    Index bit i stands for key i + 1. A breadth-first search from the empty
    set, whose moves each XOR in one circuit, reaches exactly the subsets of
    zero sum: every circuit has zero sum, and every zero-sum subset is a
    disjoint union of circuits. The table holds the distance of each, and
    -1 on every subset whose XOR is nonzero: 2^(2^d - 1) int8 entries, 32 KB
    at d = C2_DIMENSION_LIMIT, built once per d and read-only.
    """
    masks = enumerate_circuits(complete_matroid(d)).masks
    dist = np.full(1 << ((1 << d) - 1), -1, dtype=np.int8)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.intp)
    step = 0
    while frontier.size:
        step += 1
        for mk in masks:  # one circuit at a time: no |frontier| x |masks| array
            reached = frontier ^ mk
            dist[reached[dist[reached] < 0]] = step
        frontier = np.flatnonzero(dist == step)
    dist.flags.writeable = False
    return dist


def exact_c2(m: BinaryMatroid) -> int:
    """Minimum odd-cover size: the entry of M's subset in _cover_distances.

    An odd-cover is a set of circuits of the ambient complete matroid whose
    XOR is M, so its least size is the distance of M's subset of the ambient
    elements in the table of its dimension.

    When the search is restricted to span(M)
    (see c2_search_is_restricted) the result is still an upper bound for the
    restricted problem and at most exact_c(m). The restricted search takes
    each element's expansion in the first-seen basis as its coordinates in
    F_2^rank, read from the rows of gf2core.column_rref in pivot order:
    any order of the basis permutes those coordinates, which maps the
    ambient circuits onto themselves and leaves the value unchanged.
    """
    require_eulerian(m)
    if len(m) == 0:
        return 0
    keys = m.keys
    ambient_dim = m.dim
    if c2_search_is_restricted(m):
        # element j's coordinates: bit i is j's bit in the row of pivot i
        rows = [row for _, row in sorted(column_rref(keys, m.dim).items())]
        keys = [sum((row >> j & 1) << i for i, row in enumerate(rows))
                for j in range(len(keys))]
        ambient_dim = len(rows)
    # ambient elements are the keys 1..2^d-1 in order, so index = key - 1
    return int(_cover_distances(ambient_dim)[sum(1 << (k - 1) for k in keys)])


def intersection_lower_bound(m: BinaryMatroid) -> int:
    """Lower bound on the odd-cover size from per-circuit coverage.

    A circuit not contained in M meets it in an independent set, so in at
    most rank(M) elements; a circuit inside M has at most the size of the
    largest internal circuit. Dividing |M| by the larger of the two bounds
    the number of circuits any odd-cover needs. Sharper than the plain
    quotient bound when no internal circuit spans M.

    Every circuit lies in one connected component, so the largest circuit
    of M is the largest over _components(m), each enumerated on its own.
    The ENUMERATION_LIMIT cap applies to each component, as in exact_c.
    """
    require_eulerian(m)
    if len(m) == 0:
        return 0
    largest = max(enumerate_circuits(sub).max_size() for sub in _components(m))
    return ceil(len(m) / max(rank(m), largest))


@dataclass(frozen=True)
class ConjectureReport:
    """Exact values next to the conjectured bounds, with per-conjecture status.

    Statuses are CONSISTENT, VIOLATION, SKIPPED (oracle out of range), or
    INCONCLUSIVE (restricted c2 exceeded the bound; the true value may not).
    A VIOLATION is never asserted impossible; it is surfaced for inspection.
    """

    n: int
    size: int
    rank: int
    c: int
    complete_quotient_bound: int
    decomposition_status: str
    c2: int | None
    c2_restricted: bool | None
    a: int
    oddcover_status: str
    prop4: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "size": self.size,
            "rank": self.rank,
            "c": self.c,
            "conj1_bound": self.complete_quotient_bound,
            "conj1": self.decomposition_status,
            "c2": self.c2,
            "c2_restricted": self.c2_restricted,
            "a": self.a,
            "conj2": self.oddcover_status,
            "prop4": self.prop4,
        }


def probe_conjectures(m: BinaryMatroid) -> ConjectureReport:
    """Test the conjectured inequalities on one instance.

    Checks c(M) against ceil((2^rank - 1) / (rank + 1)) and c2(M) against
    a(M). Both are conjectures: the report states consistency on this
    instance only, never a theorem.
    """
    r = rank(m)
    c_value = exact_c(m)
    a_value, _ = arboricity(m)
    bound1 = ceil(((1 << r) - 1) / (r + 1))
    status1 = "CONSISTENT" if c_value <= bound1 else "VIOLATION"
    try:
        restricted = c2_search_is_restricted(m)
        c2_value = exact_c2(m)
    except TooLargeError:
        restricted = None
        c2_value = None
        status2 = "SKIPPED"
    else:
        if c2_value <= a_value:
            status2 = "CONSISTENT"
        elif not restricted:
            status2 = "VIOLATION"
        else:
            status2 = "INCONCLUSIVE"
    return ConjectureReport(
        n=m.dim,
        size=len(m),
        rank=r,
        c=c_value,
        complete_quotient_bound=bound1,
        decomposition_status=status1,
        c2=c2_value,
        c2_restricted=restricted,
        a=a_value,
        oddcover_status=status2,
        prop4=density_lower_bound(m),
    )
