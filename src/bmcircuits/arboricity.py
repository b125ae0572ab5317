"""Arboricity: partition a matroid into the minimum number of independent sets.

The constructive side is a matroid-union style augmenting search: to place an
element into one of k parts, look for a breadth-first alternating chain of
exchanges ending at a part that does not span the moved element. On failure
every part spans the reachable set R, so the flat N = cl(R) ∩ M certifies
infeasibility: its quotient ceil(|N| / rank(N)) exceeds k, matching the
max-side of the min-max formula; arboricity() jumps k straight to it.

The search tests for a free slot only the parts that can have one (a part
as large as part 0 spans every element placed so far), x's own slot before
any breadth-first state is built, and skips part 0's test for a key below
2**low once part 0 fills every pivot below bit low. It runs each span test
in place over the part eliminator's row list, with no method call and no
witness mask, and records a spanned key so that it is tested once per part;
a chain keeps those marks, since it keeps each part's span. Only an
expansion reads a mask (Gf2Eliminator.reduce), so each is computed at its
first use and kept until a chain moves the part's members. A search that
expands keeps a live list of the parts with at least two members not yet
queued and expands only against those. k above |M| is clamped to |M|. None
of this changes a partition, a certificate or a tie-break (proofs on
_PartState, _augment and can_partition).

max_quotient computes the exact max over nonempty N of
ceil(|N| / (rank(N) + offset)) with the same search: by the matroid union
theorem it is the least q at which q parts place all but at most
q * offset keys. Offset 1 is the odd-cover bound prop4, offset 0 the
arboricity. max_quotient_exhaustive (and edmonds_max_bruteforce, its
offset 0) evaluates that max by a subset scan on tiny instances and is the
module's independent correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Union

from .errors import EmptyMatroidError, OutOfRangeError, TooLargeError
from .formats import check_partition
from .gf2core import BinaryMatroid, Gf2Eliminator, rank

_BRUTEFORCE_LIMIT = 22


@dataclass(frozen=True)
class IndependentPartition:
    """Disjoint independent sets covering the source matroid, each an
    ascending tuple of int keys."""

    source: BinaryMatroid
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        reason = check_partition(self.source, self.source.dim, self.parts)
        if reason is not None:
            raise OutOfRangeError(reason)


@dataclass(frozen=True)
class Infeasible:
    """Witness that no partition into k independent sets exists.

    certificate N is a flat of M with ceil(|N| / rank(N)) = quotient > k;
    quotient <= a(M), so every k' < quotient is infeasible as well.
    """

    k: int
    certificate: BinaryMatroid
    quotient: int


class _PartState:
    """Working partition of int keys with per-part elimination caches
    (None: rebuild).

    Part 0 spans every element placed so far, so it holds rank(placed)
    members. _augment tries part 0 first, so an element outside its span is
    appended to it. A chain step replaces a member of part j by an element
    that part j spans and whose expansion there holds that member, which
    keeps the part independent with the same span; spans only grow by
    appends. A part with as many members as part 0 therefore spans the placed
    elements too. Once x is in part 0's span, every element a search queues
    (x, or a member of a part) lies in the span of each such part, so only the
    parts in open can be free: ascending, the parts j >= 1 with fewer members
    than part 0. A part leaves open when an append fills it, and open is
    rebuilt when part 0 grows; a chain never changes sizes (each step removes
    one member and appends one).

    low counts the filled pivots of part 0 from bit 0 up (rows 1 .. low of
    its eliminator are nonzero), so part 0 spans every key below 2**low, as
    in greedy_basis. The pivot bits of an echelon form are the leading bits
    of the vectors in its span, a property of the span alone, so low stays
    true when a chain keeps part 0's span and its eliminator is rebuilt, and
    it is raised only after an append to part 0.

    spanned[j] maps a key that part j spans to its expansion mask over the
    part's positions, or to None until an expansion needs that mask (the
    free-slot scans test spans in place and build none); residuals are never
    cached. An append keeps it: the old members stay independent at their
    positions, so each cached expansion is still the unique one, and a mask
    computed later over the grown part is that same expansion, since the key
    was already in the old span. A chain keeps every key of spanned[j]
    spanned too: its steps keep each part's span (above), and the part that
    takes its free-slot key grows as by an append. Only the masks go stale,
    since remove moves positions, so a chain resets the masks of each part
    it touches to None and keeps the keys.
    """

    def __init__(self, k: int):
        self.members: list[list[int]] = [[] for _ in range(k)]
        self.elims: list[Gf2Eliminator | None] = [None] * k
        self.spanned: list[dict[int, int | None]] = [{} for _ in range(k)]
        self.open: list[int] = []
        self.low = 0

    def elim(self, j: int) -> Gf2Eliminator:
        if self.elims[j] is None:
            e = Gf2Eliminator()
            for key in self.members[j]:
                e.insert(key)
            self.elims[j] = e
        return self.elims[j]


def _augment(state: _PartState, x: int) -> list[int] | None:
    """Place key x via a shortest exchange chain. Returns None on success, else
    the reachable keys. Member positions only move when a chain is applied,
    which ends the search.

    x's own scan runs first: part 0, unless x < 2**state.low (then part 0
    spans x without a test; see _PartState), then the open parts, in index
    order. x goes to the first of them that does not span it, which is the
    first free part (see _PartState). This is the full search's scan of its
    first dequeue, and it reads no BFS state, so parent, queue, unseen and
    live are built after it: a search that ends at x's free slot builds
    none. It reads no span marks either: keys are queued only once placed,
    so no part has recorded x. Each later dequeued y goes to the first open
    part that does not span it, skipping the parts that recorded it.

    Every span test reduces the key over the part eliminator's row list in
    place: the loop of Gf2Eliminator.contains without its method call or
    its negative-key test (every key here is a key of a BinaryMatroid), and
    no witness mask. A spanned key is recorded in spanned[j] as None.

    Failing a free slot, y is expanded against the parts in live, in index
    order, each expansion's mask computed by Gf2Eliminator.reduce at its
    first use. unseen[j] masks the members of part j not queued yet, and
    live holds the parts with at least two of them. A part leaves live once
    it has at most one: unseen only shrinks within a search (sizes stay
    fixed until a chain ends it), so at every dequeue live is exactly the
    set of parts that the full scan over all k parts would not skip.

    The skip itself: with no unseen member, a part could queue nothing new.
    With one, z, compare the search that expands every part: from that part
    it queues at most z, when y's expansion there holds z. Then z is y XOR
    members queued before it. That search dequeues each of them before z,
    and each finds no free slot (else the search ends first) and queues its
    whole expansion in every part, so z, in their span, finds no free slot
    and queues nothing new. The skipping search therefore dequeues the
    other keys in the same order with the same parents (by induction: a
    skipped z is never queued, so its part keeps one unseen member and is
    skipped from then on), and the free slot, the chain and the span cl(R)
    of the queue are those of the full search.
    """
    members, elims, spanned, open_ = state.members, state.elims, state.spanned, state.open
    first = members[0]
    for j in ([0, *open_] if x >> state.low else open_):
        rows = (elims[j] or state.elim(j))._rows
        cur = x
        try:
            while True:
                row = rows[cur.bit_length()]
                if not row:
                    break
                cur ^= row
        except IndexError:  # a key longer than every row: its top bit is a free pivot
            pass
        if cur:
            members[j].append(x)
            elims[j].insert(x)
            if not j:
                filled = state.low
                while filled + 1 < len(rows) and rows[filled + 1]:
                    filled += 1
                state.low = filled
                state.open = [i for i in range(1, len(members)) if len(members[i]) < len(first)]
            elif len(members[j]) == len(first):
                open_.remove(j)
            return None
        spanned[j][x] = None
    parent: dict[int, tuple[int, int]] = {}
    queue = [x]
    unseen = [(1 << len(part)) - 1 for part in members]
    live = [j for j, left in enumerate(unseen) if left & (left - 1)]
    y, head = x, 1
    while True:
        exhausted = False
        for j in live:
            mask = spanned[j].get(y)
            if mask is None:  # first use: a part outside open, or a mask-free span test
                mask = spanned[j][y] = (elims[j] or state.elim(j)).reduce(y)[1]
            mask &= unseen[j]
            if not mask:
                continue
            left = unseen[j] = unseen[j] ^ mask
            exhausted |= not left & (left - 1)
            part = members[j]
            # inline, not gf2core._mask_indices: the generator cost arboricity 5-8 % (2-core host)
            while mask:
                low = mask & -mask
                z = part[low.bit_length() - 1]
                parent[z] = (y, j)
                queue.append(z)
                mask ^= low
        if exhausted:
            live = [j for j in live if unseen[j] & (unseen[j] - 1)]
        if head == len(queue):
            return queue
        y = queue[head]
        head += 1
        for j in open_:
            marks = spanned[j]
            if y in marks:
                continue
            rows = (elims[j] or state.elim(j))._rows
            cur = y
            try:
                while True:
                    row = rows[cur.bit_length()]
                    if not row:
                        break
                    cur ^= row
            except IndexError:  # as in x's scan
                pass
            if cur:
                # free slot found: append keeps insertion index = list position,
                # then apply the chain back to x; each part it touches keeps its
                # span and its span marks, and drops its eliminator and masks
                members[j].append(y)
                elims[j].insert(y)
                if len(members[j]) == len(first):
                    open_.remove(j)
                while y != x:
                    pred, jj = parent[y]
                    members[jj].remove(y)
                    members[jj].append(pred)
                    elims[jj] = None
                    spanned[jj] = dict.fromkeys(spanned[jj])
                    y = pred
                return None
            marks[y] = None


def can_partition(
    m: BinaryMatroid, k: int
) -> Union[IndependentPartition, Infeasible]:
    """Partition m into at most k independent sets, or return a certificate.

    Elements are inserted in canonical order; each insertion runs one
    breadth-first augmenting search over the exchange structure. On failure
    the certificate is cl(R) ∩ M for the reachable set R.

    k is clamped to max(|M|, 1), which changes no result: the nonempty parts
    are always a prefix (an element goes to the first free part, and an empty
    part is free; chains keep sizes), so with i elements placed part i is
    empty and the search for the next element ends at BFS level 0 in a part of
    index <= i < |M|. No part of index >= |M| is ever used, and no search
    with k >= |M| fails.
    """
    if k < 1:
        raise OutOfRangeError("k must be positive")
    state = _PartState(min(k, max(len(m), 1)))
    for x in m.keys:
        reachable = _augment(state, x)
        if reachable is not None:
            span = Gf2Eliminator(track_witnesses=False)
            for key in reachable:
                span.insert(key)
            cert = BinaryMatroid(m.dim, [key for key in m.keys if span.contains(key)])
            quotient = ceil(len(cert) / span.rank)
            if quotient <= k:  # would contradict the exchange argument
                raise OutOfRangeError("augmentation failed without a certificate")
            return Infeasible(k, cert, quotient)
    parts = tuple(tuple(sorted(p)) for p in state.members if p)
    return IndependentPartition(m, parts)


def arboricity(m: BinaryMatroid) -> tuple[int, IndependentPartition]:
    """Least k admitting a partition into k independent sets, plus a witness.

    Search starts at the quotient lower bound ceil(|M| / rank(M)) and jumps
    from an infeasible k to its certificate's quotient, also a lower bound.
    """
    if len(m) == 0:
        raise EmptyMatroidError("arboricity of the empty matroid is undefined")
    k = ceil(len(m) / rank(m))
    while True:
        result = can_partition(m, k)
        if isinstance(result, IndependentPartition):
            return k, result
        k = result.quotient


def _require_exact(m: BinaryMatroid) -> None:
    if len(m) == 0:
        raise EmptyMatroidError("no nonempty subsets")
    if len(m) > _BRUTEFORCE_LIMIT:
        raise TooLargeError(f"|M| = {len(m)} exceeds the scan limit {_BRUTEFORCE_LIMIT}")


def max_quotient(m: BinaryMatroid, denom_offset: int) -> int:
    """Exact max over nonempty N of ceil(|N| / (rank(N) + denom_offset)), by
    matroid union.

    For q >= 1 the max is at most q iff |N| - q * rank(N) <= q * denom_offset
    for every N. The matroid union theorem (Edmonds, J. Res. NBS 69B, 1965;
    Nash-Williams, 1966) gives the rank of the union of q copies of M as
    U_q = min over N of |M| - |N| + q * rank(N), so the max over N of
    |N| - q * rank(N) is |M| - U_q. The union is a matroid, so inserting
    m.keys greedily into a fresh _PartState with q parts places U_q of them,
    and _augment is Edmonds' exact test of whether I + x is independent in
    it. A failed _augment moves no member, so the placed set stays I, and the
    spanned keys and expansions it cached are against unchanged parts, so they
    stay valid.
    |M| - U_q - q * denom_offset does not grow with q, so the answer is the
    first feasible q counting up from ceil(|M| / (rank(M) + denom_offset)),
    the value at N = M; at q = |M| every key is placed. denom_offset 0 gives
    the arboricity.

    Capped at _BRUTEFORCE_LIMIT elements like max_quotient_exhaustive, so
    every value it returns is within reach of that cross-check.
    """
    _require_exact(m)
    n = len(m)
    q = ceil(n / (rank(m) + denom_offset))
    while True:
        state = _PartState(min(q, n))
        placed = sum(_augment(state, x) is None for x in m.keys)
        if n - placed <= q * denom_offset:
            return q
        q += 1


def max_quotient_exhaustive(m: BinaryMatroid, denom_offset: int = 0) -> int:
    """Exact max over nonempty N of ceil(|N| / (rank(N) + denom_offset)), by
    scanning subsets: the independent oracle for max_quotient.

    Depth-first scan over all subsets with an incremental eliminator;
    branches die once even a rank-preserving completion cannot beat the
    incumbent. Exponential by design, hence the cap of _BRUTEFORCE_LIMIT
    elements (TooLargeError above it), which max_quotient shares.
    """
    _require_exact(m)
    keys = m.keys
    n = len(keys)
    elim = Gf2Eliminator(track_witnesses=False)
    best = ceil(n / (rank(m) + denom_offset))  # N = M is always a candidate

    def dfs(i: int, size: int) -> None:
        nonlocal best
        r = elim.rank
        if size:
            value = -(-size // (r + denom_offset))
            if value > best:
                best = value
        if i == n:
            return
        # adding everything left cannot shrink the rank below r
        bound = -(-(size + n - i) // (max(r, 1) + denom_offset))
        if bound <= best:
            return
        inserted = elim.insert(keys[i])
        dfs(i + 1, size + 1)
        elim.undo(inserted)
        dfs(i + 1, size)

    dfs(0, 0)
    return best


def edmonds_max_bruteforce(m: BinaryMatroid) -> int:
    """Exhaustive arboricity value: max over nonempty N of ceil(|N|/rank(N))."""
    return max_quotient_exhaustive(m, denom_offset=0)
