"""Exhaustive ground truth on tiny instances.

Everything here is exponential by design and guarded by size limits: full
circuit enumeration, exact minimum circuit decompositions, exact minimum
odd-covers over a small ambient space, and conjecture probes that compare
the exact values against the closed-form bounds.

Circuit enumeration, the component split and exact_c2's coordinates all
read one gf2core.column_rref of the input: the reduced row-echelon form
of its coordinate slices, whose pivots are the first-seen basis and whose
rows hold every fundamental circuit of that basis. Enumeration walks the
cycle space of that basis: subsets of the |M| - rank elements outside it,
up to rank + 1 of them, each tested by a short reduction over their
expansion masks. exact_c and intersection_lower_bound enumerate each
connected component on its own; exact_c2 enumerates each ambient
complete matroid once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

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
C2_DEPTH_CAP = 6


@dataclass(frozen=True)
class CircuitCatalog:
    """Every circuit inside a ground set, as element-index bitmasks."""

    universe: BinaryMatroid
    masks: tuple[int, ...]

    def to_circuit(self, mask: int) -> Circuit:
        keys = self.universe.keys
        return Circuit.from_keys(self.universe.dim, (keys[i] for i in _mask_indices(mask)))

    def circuits(self):
        return [self.to_circuit(mask) for mask in self.masks]

    def max_size(self) -> int:
        return max((mask.bit_count() for mask in self.masks), default=0)


def enumerate_circuits(m: BinaryMatroid) -> CircuitCatalog:
    """All minimal zero-sum subsets of m, from the cycle space of one basis.

    Let r be the rank of m, B the positions of its first-seen basis, N the
    other positions, and u_e (e in N) the mask of the positions in B of
    e's expansion: its fundamental circuit minus e. Both come from the one
    gf2core.column_rref of m: B is its pivots, and u_e has bit p for each
    row p that holds e. B is independent, so a zero-sum subset S
    is fixed by A = S & N: S is A plus the basis positions in P, the XOR of
    u_e over A. The search walks the subsets A of N depth-first in position
    order, carrying P, and tests each one.

    S is a circuit iff the vectors {u_e & ~P : e in A} have rank |A| - 1.
    Proof: a subset S' of S is zero-sum iff A' = S' & N has its own P'
    inside P, that is iff the u_e of A' XOR to zero outside P. Those A' are
    the kernel of the map that sends A' to the XOR of u_e & ~P over A', so
    the cycle space of S has dimension |A| minus that rank. A itself is in
    the kernel, since P & ~P = 0; S is minimal iff the kernel holds nothing
    else but the empty set. So the rank is at most |A| - 1, and it is
    |A| - 1 iff no nonempty proper subset of A is in the kernel, iff the
    vectors of A minus its last element are independent. The test reduces
    those |A| - 1 vectors, masks over the r positions of B, against each
    other.

    A circuit has at most r + 1 elements, so a subset is tested only when
    |A| + |P| <= r + 1, and the walk stops at |A| = r + 1. Each circuit C
    is found once, at A = C & N, which is nonempty because B is independent.
    """
    if len(m) > ENUMERATION_LIMIT:
        raise TooLargeError(f"|M| = {len(m)} exceeds {ENUMERATION_LIMIT}")
    rows = column_rref(m.keys, m.dim)
    expansion = [0] * len(m)  # u_e over the basis positions
    for p, row in rows.items():
        for e in _mask_indices(row):
            expansion[e] |= 1 << p
    others = [(1 << e, u) for e, u in enumerate(expansion) if e not in rows]
    limit = len(rows) + 1
    masks: list[int] = []

    def independent(vecs: list[int], keep: int) -> bool:
        pivots: dict[int, int] = {}
        for v in vecs:
            v &= keep
            while v:
                top = v.bit_length()
                row = pivots.get(top)
                if row is None:
                    pivots[top] = v
                    break
                v ^= row
            else:
                return False
        return True

    def dfs(start: int, chosen: int, vecs: list[int], p: int, size: int) -> None:
        # vecs holds u_e of the chosen A; size is |A| once one more is added
        for j in range(start, len(others)):
            bit, u = others[j]
            q = p ^ u
            if size + q.bit_count() <= limit and independent(vecs, ~q):
                masks.append(chosen | bit | q)
            if size < limit:
                vecs.append(u)
                dfs(j + 1, chosen | bit, vecs, q, size + 1)
                vecs.pop()

    dfs(0, 0, [], 0, 1)
    return CircuitCatalog(m, tuple(sorted(masks)))


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
    return [BinaryMatroid.from_keys(m.dim, (keys[j] for j in _mask_indices(c)))
            for c in classes]


def _min_disjoint_cover(sub: BinaryMatroid) -> int:
    """Branch and bound exact cover: fewest disjoint circuits covering sub."""
    n = len(sub)
    keys = sub.keys
    by_element: list[list[int]] = [[] for _ in range(n)]
    for mk in enumerate_circuits(sub).masks:
        for b in _mask_indices(mk):
            by_element[b].append(mk)
    for lst in by_element:
        lst.sort(key=lambda mk: -mk.bit_count())  # largest first

    def rank_of(mask: int) -> int:
        elim = Gf2Eliminator(track_witnesses=False)
        for b in _mask_indices(mask):
            elim.insert(keys[b])
        return elim.rank

    best = len(peel_decompose(sub).circuits)  # achievable upper bound

    def dfs(uncovered: int, count: int) -> None:
        nonlocal best
        if uncovered == 0:
            best = min(best, count)
            return
        lower = count + ceil(uncovered.bit_count() / (rank_of(uncovered) + 1))
        if lower >= best:
            return
        e = (uncovered & -uncovered).bit_length() - 1
        for mk in by_element[e]:
            if mk & ~uncovered == 0:
                dfs(uncovered ^ mk, count + 1)

    dfs((1 << n) - 1, 0)
    return best


def exact_c(m: BinaryMatroid) -> int:
    """Minimum number of pairwise-disjoint circuits partitioning m.

    Circuits never straddle connected components, so the value is the sum
    over the components of _components, each enumerated and covered on its
    own, so the ENUMERATION_LIMIT cap applies to each component.
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
def _ambient_catalog(d: int) -> CircuitCatalog:
    """The circuits of complete_matroid(d), for d <= C2_DIMENSION_LIMIT. The
    catalog is immutable, so every exact_c2 call shares one per d."""
    return enumerate_circuits(complete_matroid(d))


def exact_c2(m: BinaryMatroid) -> int:
    """Minimum odd-cover size by iterative deepening over XOR states, up to
    C2_DEPTH_CAP circuits.

    States are bitmasks over the ambient complete matroid; moves XOR in one
    ambient circuit. No state needs a memo of failed budgets: the ambient
    dimension is at most 4, where breadth-first search over the cycle space
    gives every Eulerian set an odd-cover of at most 3 circuits of at most 5
    elements, and every set that needs 3 has at least 11 > 2 * 5 elements. So
    a node with two or more circuits left either fails the size bound or
    succeeds, and no node exhausts its children.

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
    catalog = _ambient_catalog(ambient_dim)
    masks = catalog.masks
    mask_set = set(masks)
    max_size = catalog.max_size()
    # ambient elements are the keys 1..2^d-1 in order, so index = key - 1
    target = 0
    for k in keys:
        target |= 1 << (k - 1)

    def dfs(state: int, remaining: int) -> bool:
        diff = state ^ target
        if diff == 0:
            return True
        if remaining == 0:
            return False
        if ceil(diff.bit_count() / max_size) > remaining:
            return False
        if remaining == 1:
            return diff in mask_set
        return any(dfs(state ^ mk, remaining - 1) for mk in masks)

    for t in range(C2_DEPTH_CAP + 1):
        if dfs(0, t):
            return t
    raise TooLargeError(f"no odd-cover found within depth {C2_DEPTH_CAP}")


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
