"""Hypothesis properties on small random Eulerian matroids.

Every constructive output must pass its single checker in formats, the
checkers must reject simple corruptions of a valid artifact, and the CLI's
re-check of a file it just wrote, which reuses the written Circuits, must
give the verdict and reason of the check on the parsed keys alone. On at most
14 elements, arboricity and its infeasibility certificates are tied to the
exhaustive max of ceil(|N| / rank(N)); the matroid-union max_quotient, on
up to 22 elements, to that subset scan at offsets 0 and 1; can_partition,
on up to 40 elements and on mid-size inputs, to the augmenting search
without its shortcuts; every decomposer and odd-cover builder to the exact
oracles, the peel family to reference loops that rebuild a
BinaryMatroid per step and to a per-step scan on Gf2Eliminator witnesses
(sparse high-rank inputs included), the peel state after each removal to
a fresh build, density_lower_bound above its exact limit of 20 elements
to a per-prefix span count, exact_c and its component split to a
union-find over the whole circuit catalogue, intersection_lower_bound to
that catalogue's largest circuit, and the restricted exact_c2 to the
ambient search on an injective copy. Every decomposer returns
peel_decompose's circuits; they differ only in their branch and phase
labels. A key list builds a BinaryMatroid or Circuit, or raises, as the
range, duplicate and circuit rules say, and is_circuit is the circuit law
on any key multiset. Gf2Eliminator, in both tracking modes and on keys
longer than its presized row list, agrees with column_rref's rank, with its
own witnesses and with its LIFO undo. rank, which inserts the differences
of consecutive keys once per key, agrees with column_rref, and greedy_basis,
which also skips the runs of keys its span holds, with a first-seen scan
that inserts every key itself. On any ints (negative, zero, bools, wider
than the dimension), the eliminator, greedy_basis and column_rref raise a
BmcError or give a reference's answer, under a SIGALRM deadline, so a hang
fails rather than stalls the suite.
"""

import contextlib
import importlib
import io
import math
import random
import signal
from functools import cache, reduce
from operator import xor

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from bmcircuits import cli
from bmcircuits.arboricity import (
    Infeasible,
    arboricity,
    can_partition,
    max_quotient,
    max_quotient_exhaustive,
)
from bmcircuits.circuits import Circuit, WorkingSet, is_circuit, largest_fundamental_circuit
from bmcircuits.decompose import DenseParams, auto_decompose, peel_decompose
from bmcircuits.errors import BmcError, OutOfRangeError
from bmcircuits.formats import (
    ARTIFACT_KINDS,
    check_decomposition,
    check_oddcover,
    check_partition,
    format_bmdec,
)
from bmcircuits.gf2core import (
    MAX_DIM,
    BinaryMatroid,
    Gf2Eliminator,
    _mask_indices,
    column_rref,
    greedy_basis,
    rank,
)
from bmcircuits.generators import complete_matroid, random_eulerian
from bmcircuits.oddcover import density_lower_bound, oddcover_via_arboricity, symdiff_reduce
from bmcircuits.orbit import build_even_weight_model
from bmcircuits.oracle import (
    _components,
    c2_search_is_restricted,
    enumerate_circuits,
    exact_c,
    exact_c2,
    intersection_lower_bound,
)

from conftest import (
    DENSE_EPSILON,
    check_auto_against_references,
    dense_core,
    decomposition_outcome,
    fundamental_circuits,
    outcome,
    reference_basis,
    reference_decompose,
    reference_dense,
)


@st.composite
def eulerian_matroids(draw):
    n = draw(st.integers(3, 7))
    size = draw(st.integers(3, min(24, (1 << n) - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_eulerian(n, size, seed)


@st.composite
def tiny_eulerian_matroids(draw):
    """At most 14 elements, within reach of max_quotient_exhaustive.

    Half the draws add a complete core on the leading 3 coordinates (an
    Eulerian Fano plane, quotient 3), so that arboricity sees infeasible k.
    """
    core = draw(st.booleans())
    n = draw(st.integers(6 if core else 3, 7))
    size = draw(st.integers(3, 6 if core else min(13, (1 << n) - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    m = random_eulerian(n, size, seed)
    if core:
        fano = {k << (n - 3) for k in range(1, 8)}
        m = BinaryMatroid(n, fano ^ m.key_set)
    assume(len(m) > 0)
    return m


def infeasible_rounds(m, a):
    """can_partition(m, k) for every k below the arboricity a."""
    out = []
    for k in range(1, a):
        result = can_partition(m, k)
        assert isinstance(result, Infeasible)
        out.append(result)
    return out


def artifacts(m):
    """(checker, blocks) for one output of every constructive routine."""
    _, cover = oddcover_via_arboricity(m)
    return [
        (check_decomposition, peel_decompose(m).circuits),
        (check_decomposition, auto_decompose(m).circuits),
        (check_oddcover, symdiff_reduce(m).circuits),
        (check_oddcover, cover.circuits),
        (check_partition, arboricity(m)[1].parts),
    ]


@given(eulerian_matroids())
def test_constructive_outputs_pass_their_checker(m):
    for checker, blocks in artifacts(m):
        assert checker(m, m.dim, blocks) is None


@given(eulerian_matroids(), st.data())
def test_checkers_reject_corrupted_blocks(m, data):
    outside = [k for k in range(1, 1 << m.dim) if k not in m.key_set]
    assume(outside)
    for checker, blocks in artifacts(m):
        blocks = [b.keys if isinstance(b, Circuit) else b for b in blocks]
        i = data.draw(st.integers(0, len(blocks) - 1))
        dropped = blocks[:i] + blocks[i + 1:]
        assert checker(m, m.dim, dropped) is not None
        duplicated = blocks + [blocks[i]]
        assert checker(m, m.dim, duplicated) is not None
        # odd-cover blocks may hold vectors outside m; the swap must change the block
        aliens = [k for k in outside if k not in blocks[i]]
        if aliens:
            j = data.draw(st.integers(0, len(blocks[i]) - 1))
            alien = data.draw(st.sampled_from(aliens))
            swapped = blocks[i][:j] + (alien,) + blocks[i][j + 1:]
            corrupted = blocks[:i] + [swapped] + blocks[i + 1:]
            assert checker(m, m.dim, corrupted) is not None


def file_verdict(kind, m, path, written=()):
    """cli._check_file's verdict on the file at path and the reason it printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        _, passed = cli._check_file(kind, m, str(path), written)
    return passed, err.getvalue()


@given(st.integers(3, 8), st.integers(0, 2**32 - 1),
       st.sampled_from(["decomposition", "oddcover"]),
       st.sampled_from(["untouched", "bit flipped", "swapped", "dropped", "duplicated"]),
       st.data())
def test_reusing_written_circuits_keeps_verdict_and_reason(tmp_path_factory, n, seed, kind,
                                                           mutation, data):
    size = data.draw(st.integers(3, min(40, (1 << n) - 1)))
    m = random_eulerian(n, size, seed)
    build = auto_decompose if kind == "decomposition" else symdiff_reduce
    written = build(m).circuits
    blocks = [c.keys for c in written]
    i = data.draw(st.integers(0, len(blocks) - 1))
    if mutation == "bit flipped":
        j = data.draw(st.integers(0, len(blocks[i]) - 1))
        key = blocks[i][j] ^ 1 << data.draw(st.integers(0, n - 1))
        assume(key)  # an all-zeros line is a format error before any check
        blocks[i] = blocks[i][:j] + (key,) + blocks[i][j + 1:]
    elif mutation == "swapped":
        assume(len(blocks) > 1)
        j = data.draw(st.integers(0, len(blocks) - 1).filter(lambda j: j != i))
        blocks[i], blocks[j] = blocks[j], blocks[i]
    elif mutation == "dropped":
        del blocks[i]
    elif mutation == "duplicated":
        blocks.insert(i, blocks[i])
    path = tmp_path_factory.getbasetemp() / "artifact.bmdec"
    # format_bmdec writes the header count of the blocks it is given
    path.write_text(format_bmdec(ARTIFACT_KINDS[kind].dec_kind, n, blocks))
    verdict = file_verdict(kind, m, path, written)
    assert verdict == file_verdict(kind, m, path)
    if mutation == "untouched":
        assert verdict == (True, "")


@given(tiny_eulerian_matroids())
def test_arboricity_equals_exhaustive_max(m):
    assert arboricity(m)[0] == max_quotient_exhaustive(m)


@given(tiny_eulerian_matroids())
def test_infeasible_certificate_is_closed(m):
    for result in infeasible_rounds(m, max_quotient_exhaustive(m)):
        span = Gf2Eliminator(track_witnesses=False)
        for key in result.certificate.keys:
            span.insert(key)
        assert {key for key in m.keys if span.reduce(key)[0] == 0} == result.certificate.key_set


@given(tiny_eulerian_matroids())
def test_certificate_quotient_is_a_lower_bound_above_k(m):
    a = max_quotient_exhaustive(m)
    for result in infeasible_rounds(m, a):
        cert = result.certificate
        assert result.quotient == -(-len(cert) // rank(cert))
        assert result.k < result.quotient <= a


@given(tiny_eulerian_matroids())
def test_arboricity_cover_within_four_thirds(m):
    a = max_quotient_exhaustive(m)
    assert len(oddcover_via_arboricity(m)[1].circuits) <= -(-4 * a // 3)


# -- max_quotient against the subset scan ------------------------------------


@given(st.one_of(tiny_eulerian_matroids(), eulerian_matroids()))
def test_max_quotient_matches_the_subset_scan(m):
    assume(len(m) <= 22)
    for offset in (0, 1):
        assert max_quotient(m, offset) == max_quotient_exhaustive(m, offset)
    assert max_quotient(m, 0) == arboricity(m)[0]


def test_max_quotient_climbs_to_a_dense_flat_in_a_sparse_set():
    """Seeded sweep of 11 to 22 elements: complete(3) or complete(4) on the
    leading coordinates plus random keys of dimension 11-14, so the max sits
    on the flat and q must climb above ceil(|M| / (rank(M) + offset))."""
    rng = random.Random(23)
    climbed = [0, 0]
    for _ in range(40):
        n = rng.randint(11, 14)
        core = rng.choice((3, 4))
        keys = {k << (n - core) for k in range(1, 1 << core)}
        size = rng.randint(len(keys) + 4, 22)
        while len(keys) < size:
            keys.add(rng.randrange(1, 1 << n))
        m = BinaryMatroid(n, keys)
        for offset in (0, 1):
            q = max_quotient(m, offset)
            assert q == max_quotient_exhaustive(m, offset)
            climbed[offset] += q > math.ceil(len(m) / (rank(m) + offset))
        assert max_quotient(m, 0) == arboricity(m)[0]
    assert min(climbed) > 0, climbed


# -- can_partition against the search before its shortcuts -------------------


def reference_can_partition(m, k):
    """can_partition without the open parts, x's scan before the BFS state,
    the part-0 skip, the in-place span tests, the exhausted-part skip and
    its live list, and the spanned cache with the span marks that chains
    keep: each dequeued element is reduced against every part in index
    order, goes to the first part that does not span it, and is otherwise
    expanded against each part. Returns the parts as key tuples, or the
    certificate's key set and its quotient."""
    members = [[] for _ in range(k)]
    elims = [None] * k

    def elim(j):
        if elims[j] is None:
            elims[j] = Gf2Eliminator()
            for key in members[j]:
                elims[j].insert(key)
        return elims[j]

    def place(x):
        parent, seen, queue, head = {}, [0] * k, [x], 0
        while head < len(queue):
            y = queue[head]
            head += 1
            for j in range(k):
                residual, mask = elim(j).reduce(y)
                if residual:
                    members[j].append(y)
                    elims[j].insert(y)
                    while y in parent:
                        pred, jj = parent[y]
                        members[jj].remove(y)
                        members[jj].append(pred)
                        elims[jj] = None
                        y = pred
                    return None
                mask &= ~seen[j]
                seen[j] |= mask
                for i in _mask_indices(mask):
                    parent[members[j][i]] = (y, j)
                    queue.append(members[j][i])
        return queue

    for x in m.keys:
        reachable = place(x)
        if reachable is not None:
            span = Gf2Eliminator(track_witnesses=False)
            for key in reachable:
                span.insert(key)
            cert = frozenset(key for key in m.keys if span.reduce(key)[0] == 0)
            return cert, -(-len(cert) // span.rank)
    return tuple(tuple(sorted(p)) for p in members if p)


def partition_outcome(result):
    if isinstance(result, Infeasible):
        return result.certificate.key_set, result.quotient
    return result.parts


@st.composite
def partition_inputs(draw):
    """Eulerian matroids of up to 40 elements, a third of them with a complete
    core on the leading 3 or 4 coordinates (so that some k are infeasible),
    and a third non-Eulerian sets of distinct vectors."""
    kind = draw(st.sampled_from(("eulerian", "core", "any")))
    n = draw(st.integers(5 if kind == "core" else 3, 8))
    if kind == "any":
        keys = draw(st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=40))
        return BinaryMatroid(n, keys)
    size = draw(st.integers(3, min(40, (1 << n) - 1)))
    m = random_eulerian(n, size, draw(st.integers(0, 2**32 - 1)))
    if kind == "core":
        c = draw(st.integers(3, 4))
        core = {key << (n - c) for key in range(1, 1 << c)}
        m = BinaryMatroid(n, core ^ m.key_set)
    assume(len(m) > 0)
    return m


def check_partition_matches_reference(m, ks):
    for k in ks:
        expected = reference_can_partition(m, k)
        assert partition_outcome(can_partition(m, k)) == expected


@given(partition_inputs())
def test_can_partition_matches_the_reference_search(m):
    a = arboricity(m)[0]
    check_partition_matches_reference(m, [*range(1, a + 1), len(m) + 3])


def test_can_partition_matches_the_reference_search_mid_size(monkeypatch):
    """Deep searches: their chains run through parts with cached expansions
    and kept span marks. On the full-rank inputs part 0 ends with every
    pivot filled, so the part-0 skip fires; on the shifted rank-deficient
    ones bits 0-3 are no pivot, so it never does."""
    # the package re-exports arboricity(), which shadows the module name
    module = importlib.import_module("bmcircuits.arboricity")
    state_cls = module._PartState
    states = []

    def recording(k):
        states.append(state_cls(k))
        return states[-1]

    monkeypatch.setattr(module, "_PartState", recording)

    def part0_lows(m, ks):
        states.clear()
        check_partition_matches_reference(m, ks)
        return {state.low for state in states}

    dense = dense_core()
    check_partition_matches_reference(dense, range(1, arboricity(dense)[0] + 1))
    for seed in (1, 2):
        m = random_eulerian(12, 500, seed)
        a = arboricity(m)[0]
        check_partition_matches_reference(m, (math.ceil(len(m) / rank(m)), a - 1, a))
        full = random_eulerian(14, 450, seed)
        assert rank(full) == 14
        ks = range(math.ceil(len(full) / 14), arboricity(full)[0] + 1)
        assert part0_lows(full, ks) == {14}
        shifted = BinaryMatroid(14, {key << 4 for key in random_eulerian(10, 300, seed).keys})
        ks = range(math.ceil(len(shifted) / rank(shifted)), arboricity(shifted)[0] + 1)
        assert part0_lows(shifted, ks) == {0}


# -- the peel family against reference loops ---------------------------------
#
# Each reference step rebuilds the working set as a BinaryMatroid, takes the
# first-seen basis over all of it, and expands every element on its own.

@st.composite
def near_complete_matroids(draw):
    """A complete matroid of rank 5 or 6 minus a small random Eulerian set:
    auto_decompose labels most of them dense at DENSE_EPSILON."""
    k = draw(st.integers(5, 6))
    size = draw(st.integers(3, 7 if k == 5 else 19))
    seed = draw(st.integers(0, 2**32 - 1))
    cut = random_eulerian(k, size, seed).key_set
    return BinaryMatroid(k, complete_matroid(k).key_set - cut)


def reference_first_circuit(m):
    """The circuit of the first key that depends on the keys before it, from
    the witness mask its insert returns: every earlier insert was independent,
    so the mask indexes the keys."""
    elim = Gf2Eliminator()
    for key in m.keys:
        mask = elim.insert(key)
        if mask is not None:
            return Circuit(m.dim, [key] + [m.keys[i] for i in _mask_indices(mask)])


def reference_symdiff(m):
    threshold = len(m) / math.log(len(m)) ** 2
    work, cover, peeling = m, [], False
    while len(work):
        if not peeling and (rank(work) <= 2 or len(work) < threshold):
            peeling = True
        if peeling:
            c = reference_first_circuit(work)
            work = BinaryMatroid(work.dim, work.key_set - c.key_set)
        else:
            basis = reference_basis(work.keys, work.dim)
            total = 0
            for key in basis:
                total ^= key
            c = Circuit(m.dim, basis + [total])
            work = BinaryMatroid(work.dim, work.key_set ^ c.key_set)
        cover.append(c)
    return cover


@given(tiny_eulerian_matroids())
def test_peel_family_matches_reference_loops(m):
    peeled = reference_decompose(m, lambda work: True)
    assert decomposition_outcome(peel_decompose(m)) == outcome(*peeled)
    check_auto_against_references(m)
    expected = [list(c.keys) for c in reference_symdiff(m)]
    assert [list(c.keys) for c in symdiff_reduce(m).circuits] == expected


@given(near_complete_matroids())
def test_dense_matches_reference_loop(m):
    assume(reference_dense(m, DenseParams.from_epsilon(DENSE_EPSILON)) is not None)
    check_auto_against_references(m, DENSE_EPSILON)


@given(near_complete_matroids())
def test_dense_phase1_circuits_exceed_the_floor(m):
    # the size proof in auto_decompose's docstring, so the label needs no size test
    d = auto_decompose(m, DENSE_EPSILON)
    assume(d.branch == "dense")
    floor_size = math.ceil(DenseParams.from_epsilon(DENSE_EPSILON).alpha * rank(m))
    assert all(len(c) > floor_size for c in d.circuits[: d.phase1])


@st.composite
def sparse_high_rank_matroids(draw):
    """Fewer elements than coordinates, so the rank is close to the size and
    the peel state has about as many rows as columns."""
    size = draw(st.integers(3, 24))
    n = draw(st.integers(size + 1, 40))
    return random_eulerian(n, size, draw(st.integers(0, 2**32 - 1)))


def scan_decompose(m):
    """Peel with a per-step scan on Gf2Eliminator: each step inserts the keys
    left in order, the independent ones being the first-seen basis, and
    reduces every key over them; a key's witness mask is its expansion."""
    keys, circuits = list(m.keys), []
    while keys:
        elim = Gf2Eliminator()
        for key in keys:
            elim.insert(key)
        masks = [elim.reduce(key)[1] for key in keys]
        # the first of the largest expansions
        j = max(range(len(keys)), key=lambda j: masks[j].bit_count())
        circuit = sorted([keys[i] for i in _mask_indices(masks[j])] + [keys[j]])
        circuits.append(circuit)
        keys = [k for k in keys if k not in circuit]
    return circuits


@given(sparse_high_rank_matroids())
def test_peel_matches_the_scan_and_the_reference_at_high_rank(m):
    circuits = [list(c.keys) for c in peel_decompose(m).circuits]
    assert circuits == scan_decompose(m)
    assert circuits == outcome(*reference_decompose(m, lambda work: True))[0]


@st.composite
def matroids_above_the_exact_limit(draw):
    """At least 21 elements, so density_lower_bound takes its basis-prefix
    path: dense ones of dimension 5 to 8, and sparse ones with fewer
    elements than coordinates."""
    if draw(st.booleans()):
        n = draw(st.integers(5, 8))
        size = draw(st.integers(22, min(60, (1 << n) - 1)))
    else:
        size = draw(st.integers(22, 32))
        n = draw(st.integers(size + 1, 40))
    return random_eulerian(n, size, draw(st.integers(0, 2**32 - 1)))


@given(matroids_above_the_exact_limit())
def test_density_bound_is_the_best_basis_prefix(m):
    """Above 20 elements, the bound is the max over the prefixes of the
    first-seen basis of ceil(inside / (length + 1)), where inside counts the
    elements an eliminator finds in the prefix's span."""
    assert len(m) > 20
    keys = list(m.keys)
    basis = greedy_basis(keys, m.dim)
    best = 0
    for length in range(1, len(basis) + 1):
        elim = Gf2Eliminator(track_witnesses=False)
        for b in basis[:length]:
            elim.insert(b)
        inside = sum(elim.reduce(key)[0] == 0 for key in keys)
        best = max(best, math.ceil(inside / (length + 1)))
    assert density_lower_bound(m) == best


def state_row_sets(work):
    """The peel state's rows, each as the set of keys it holds."""
    return {frozenset(work.at[j] for j in _mask_indices(row)) for row in work.rows.values()}


@given(st.one_of(tiny_eulerian_matroids(), near_complete_matroids(),
                 sparse_high_rank_matroids()), st.booleans())
def test_removal_keeps_the_peel_state_a_fresh_one(m, last_non_basis):
    """After each remove, the pivots are the greedy basis of the keys left and
    the rows are those a fresh build finds, whether the removed circuit is
    the largest fundamental one or that of the last key outside the basis."""
    work = WorkingSet(m)
    left = list(m.keys)
    while work:
        if last_non_basis:
            basis = greedy_basis(left, m.dim)
            last = max(set(left) - set(basis))
            c = next(fundamental_circuits(m.dim, [last], basis))
        else:
            c = largest_fundamental_circuit(work)
        work.remove(c)
        left = sorted(set(left) - c.key_set)
        assert len(work) == len(left)
        assert sorted(work.at[p] for p in work.rows) == greedy_basis(left, m.dim)
        if left:
            fresh = WorkingSet(BinaryMatroid(m.dim, left))
            assert state_row_sets(work) == state_row_sets(fresh)


@given(st.one_of(tiny_eulerian_matroids(), near_complete_matroids(),
                 sparse_high_rank_matroids()))
def test_removing_the_searched_circuit_or_an_equal_one_leaves_one_state(m):
    """remove reads the positions the search recorded for the very circuit
    it returned, and locates those of any other object; an equal Circuit
    built separately leaves the same state, compactions included."""
    searched, rebuilt = WorkingSet(m), WorkingSet(m)
    while searched:
        c = largest_fundamental_circuit(searched)
        assert largest_fundamental_circuit(rebuilt) == c
        searched.remove(c)
        rebuilt.remove(Circuit(c.dim, c.keys))
        assert (searched.at, searched.left) == (rebuilt.at, rebuilt.left)
        assert state_row_sets(searched) == state_row_sets(rebuilt)


def check_peel_circuits_everywhere(m):
    peeled = peel_decompose(m)
    for d in (peeled, auto_decompose(m), auto_decompose(m, DENSE_EPSILON)):
        assert d.phase1 + d.phase2 == len(d)
        assert d.circuits == peeled.circuits
    assert [list(c.keys) for c in peeled.circuits] == scan_decompose(m)
    check_auto_against_references(m, DENSE_EPSILON)


@given(tiny_eulerian_matroids())
def test_every_decomposer_returns_the_peel_circuits(m):
    check_peel_circuits_everywhere(m)


@given(near_complete_matroids())
def test_every_decomposer_returns_the_peel_circuits_near_complete(m):
    check_peel_circuits_everywhere(m)


@given(tiny_eulerian_matroids())
def test_dense_refuses_where_reference_refuses(m):
    check_auto_against_references(m, DENSE_EPSILON)


@given(tiny_eulerian_matroids())
def test_exact_c_bounds_every_decomposition(m):
    c = exact_c(m)
    check_auto_against_references(m, DENSE_EPSILON)
    sizes = [len(peel_decompose(m)), len(auto_decompose(m)), len(auto_decompose(m, DENSE_EPSILON))]
    assert all(c <= size for size in sizes)


def reference_components(m):
    """Classes of elements that share a circuit, by union-find over the
    whole catalogue, as element-index masks."""
    masks = enumerate_circuits(m).masks
    parent = list(range(len(m)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for mk in masks:
        low = (mk & -mk).bit_length() - 1
        for i in range(len(m)):
            if mk >> i & 1:
                parent[find(i)] = find(low)
    groups = {}
    for i in range(len(m)):
        groups[find(i)] = groups.get(find(i), 0) | 1 << i
    return masks, list(groups.values())


def reference_exact_c(masks, groups):
    """Fewest disjoint catalogue circuits covering each class, memoised on
    the uncovered mask, summed over the classes."""

    @cache
    def cover(uncovered):
        if uncovered == 0:
            return 0
        low = uncovered & -uncovered
        return 1 + min(
            cover(uncovered ^ mk) for mk in masks if mk & low and mk & ~uncovered == 0
        )

    return sum(cover(g) for g in groups)


def with_triangle(m):
    """The direct sum of m and a triangle on two new trailing coordinates."""
    return BinaryMatroid(m.dim + 2, [k << 2 for k in m.key_set] + [1, 2, 3])


@given(tiny_eulerian_matroids())
def test_exact_c_matches_catalogue_reference(m):
    for sample in (m, with_triangle(m)):
        masks, groups = reference_components(sample)
        expected = {
            BinaryMatroid(sample.dim, (k for i, k in enumerate(sample.keys) if g >> i & 1))
            for g in groups
        }
        components = _components(sample)
        assert len(components) == len(groups) and set(components) == expected
        assert exact_c(sample) == reference_exact_c(masks, groups)


def brute_force_circuits(m):
    """Minimal zero-sum subsets by a scan of every subset in size order: a
    zero-sum subset is a circuit iff no circuit found before lies inside it,
    since a smaller zero-sum subset inside it would hold one."""
    keys = list(m.keys)
    found = []
    for subset in sorted(range(1, 1 << len(keys)), key=int.bit_count):
        acc = 0
        for i in _mask_indices(subset):
            acc ^= keys[i]
        if acc == 0 and all(c & ~subset for c in found):
            found.append(subset)
    return tuple(sorted(found))


def independent_set_walk(m):
    """The enumeration enumerate_circuits replaced: each circuit C is found
    once as S + {x}, where S is the independent set C minus its largest
    element x and x equals the XOR of S, walking independent sets only."""
    keys = list(m.keys)
    index_of = {k: i for i, k in enumerate(keys)}
    masks = []
    elim = Gf2Eliminator(track_witnesses=False)

    def dfs(start, acc, chosen, size, last):
        if size >= 2:
            xi = index_of.get(acc)
            if xi is not None and xi > last:
                masks.append(chosen | (1 << xi))
        for j in range(start, len(keys)):
            inserted = elim.insert(keys[j])
            if inserted is None:
                dfs(j + 1, acc ^ keys[j], chosen | (1 << j), size + 1, j)
            elim.undo(inserted)

    dfs(0, 0, 0, 0, -1)
    return tuple(sorted(masks))


@st.composite
def tiny_matroids(draw):
    """Up to 13 distinct nonzero vectors of F_2^n, n <= 6, Eulerian or not.

    Half the draws drop 2 to 4 vectors from complete_matroid(4), where a
    circuit of rank + 1 elements can lie wholly outside the greedy basis.
    """
    if draw(st.booleans()):
        dropped = draw(st.sets(st.integers(1, 15), min_size=2, max_size=4))
        return BinaryMatroid(4, set(range(1, 16)) - dropped)
    n = draw(st.integers(1, 6))
    keys = draw(st.sets(st.integers(1, (1 << n) - 1), max_size=12))
    return BinaryMatroid(n, keys)


@given(tiny_matroids())
def test_enumerate_circuits_matches_brute_force_and_the_old_walk(m):
    masks = enumerate_circuits(m).masks
    assert masks == brute_force_circuits(m)
    assert masks == independent_set_walk(m)


@given(tiny_eulerian_matroids())
def test_intersection_lower_bound_matches_the_whole_catalogue(m):
    for sample in (m, with_triangle(m)):
        largest = enumerate_circuits(sample).max_size()
        expected = math.ceil(len(sample) / max(rank(sample), largest))
        assert intersection_lower_bound(sample) == expected


@st.composite
def dim4_eulerian_matroids(draw):
    """Dimension at most 4, where exact_c2 searches the whole ambient space."""
    n = draw(st.integers(2, 4))
    size = draw(st.integers(3, (1 << n) - 1))
    return random_eulerian(n, size, draw(st.integers(0, 2**32 - 1)))


@given(dim4_eulerian_matroids())
def test_exact_c2_bounds_every_odd_cover(m):
    c2 = exact_c2(m)
    assert c2 <= len(symdiff_reduce(m))
    assert c2 <= len(oddcover_via_arboricity(m)[1])


@given(dim4_eulerian_matroids(), st.lists(st.integers(1, 63), min_size=4, max_size=4))
def test_restricted_exact_c2_matches_the_ambient_search(m, images):
    """A full-rank m mapped injectively into F_2^6 has the same c2: the
    restricted search over its span sees a copy of the ambient space of m."""
    assume(rank(m) == m.dim)
    images = images[:m.dim]
    assume(rank(BinaryMatroid(6, set(images))) == m.dim)

    def image(key):
        out = 0
        for j, b in enumerate(images):
            if key >> j & 1:
                out ^= b
        return out

    embedded = BinaryMatroid(6, (image(k) for k in m.key_set))
    assert c2_search_is_restricted(embedded)
    assert exact_c2(embedded) == exact_c2(m)


@st.composite
def dims_and_key_lists(draw):
    """A dimension, sometimes outside 1..MAX_DIM, and a list of keys that may
    hold 0, negative keys, keys of 2**dim and duplicates; closed by their
    XOR half the time, so that some lists are circuits."""
    dim = draw(st.one_of(st.integers(1, 6), st.sampled_from([0, -1, MAX_DIM, MAX_DIM + 1, 5000])))
    top = 1 << min(max(dim, 1), 6)
    keys = draw(st.lists(st.integers(-1, top), max_size=7))
    if draw(st.booleans()):
        keys.append(reduce(xor, keys, 0))
    return dim, keys


def built_or_raised(build):
    try:
        return build()
    except OutOfRangeError as exc:
        return str(exc)


def expected_build(dim, keys, circuit):
    """The keys of what BinaryMatroid (or Circuit) builds from dim and keys,
    or the message it raises: the dimension is tested first, then each key
    in the order given, then duplicates or, for a Circuit, the circuit law
    on a Gf2Eliminator."""
    if not 1 <= dim <= MAX_DIM:
        return f"dimension {dim} not in 1..{MAX_DIM}"
    bad = [k for k in keys if not 0 < k < 1 << dim]
    if bad:
        return f"key {bad[0]} not a nonzero {dim}-bit value"
    ordered = tuple(sorted(keys))
    if circuit:
        elim = Gf2Eliminator(track_witnesses=False)
        independent = sum(elim.insert(k) is None for k in ordered)
        law = len(set(ordered)) == len(ordered) > 0 and not reduce(xor, ordered, 0)
        return ordered if law and independent == len(ordered) - 1 else "not a circuit"
    dups = [a for a, b in zip(ordered, ordered[1:]) if a == b]
    return f"duplicate vector {dups[0]:0{dim}b}" if dups else ordered


@given(dims_and_key_lists())
def test_key_lists_build_or_raise_as_the_rules_say(dim_keys):
    dim, keys = dim_keys
    for cls in (BinaryMatroid, Circuit):
        built = built_or_raised(lambda: cls(dim, keys))
        expected = expected_build(dim, keys, cls is Circuit)
        if isinstance(built, str):
            assert built == expected
        else:
            assert built.keys == expected and built.dim == dim
            assert built == cls(dim, reversed(keys)) and hash(built) == hash(cls(dim, keys))


@st.composite
def eliminator_keys(draw):
    """Keys of bit lengths 1-130, on both sides of the eliminator's 65-entry
    presize, followed by nonzero XORs of up to four of them, so that
    dependent inserts (repeats included) occur too; shuffled."""
    key = st.integers(1, 130).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))
    keys = draw(st.lists(key, min_size=1, max_size=10))
    sums = st.lists(st.sampled_from(keys), min_size=1, max_size=4).map(lambda s: reduce(xor, s))
    keys += [k for k in draw(st.lists(sums, max_size=10)) if k]
    return draw(st.permutations(keys))


@given(eliminator_keys(), st.booleans())
def test_eliminator_matches_greedy_basis_and_undoes_lifo(keys, track):
    elim = Gf2Eliminator(track_witnesses=track)

    def state():
        return elim.rank, elim.n_inserted, [elim.reduce(k)[0] == 0 for k in keys]

    before, returned = [], []
    for key in keys:
        residual, mask = elim.reduce(key)
        before.append(state())
        got = elim.insert(key)
        assert (got is None) == (elim.rank == before[-1][0] + 1) == (residual != 0)
        if got is not None:
            assert got == mask
            if track:
                assert reduce(xor, (keys[i] for i in _mask_indices(got)), 0) == key
            else:
                assert got == 0
        returned.append(got)
    assert elim.rank == len(column_rref(sorted(set(keys)), 200))
    for i in reversed(range(len(keys))):
        elim.undo(returned[i])
        assert state() == before[i]
        assert elim.insert(keys[i]) == returned[i]
        elim.undo(returned[i])


@st.composite
def subspace_keys(draw, max_dim=40):
    """(dim, ascending distinct keys) drawn from the span of at most 8
    random vectors of F_2^dim, so the rank is often below dim."""
    dim = draw(st.integers(1, max_dim))
    gens = draw(st.lists(st.integers(1, (1 << dim) - 1), min_size=1, max_size=min(dim, 8)))
    picks = draw(st.lists(st.integers(1, (1 << len(gens)) - 1), max_size=60))
    keys = {reduce(xor, (g for i, g in enumerate(gens) if pick >> i & 1), 0) for pick in picks}
    return dim, sorted(keys - {0})


@st.composite
def keys_and_bounds(draw):
    """(ascending keys, bound from 1 to dim). A third of the draws keep the
    subspace keys. A third add every key of a low block 1 .. 2^low - 1, so
    that greedy_basis bisects past every key below 2^low once the block is
    scanned. A third add that block and some prefix blocks, keys
    (c << low) | r that share their bits above low, so that the scan skips
    the rest of each prefix block after its first key, mid-scan."""
    dim, keys = draw(subspace_keys(max_dim=12))
    kind = draw(st.integers(0, 2))
    if kind:
        low = draw(st.integers(1, min(dim, 7)))
        keys = set(keys) | set(range(1, 1 << low))
        if kind == 2 and low < dim:
            prefixes = st.lists(st.integers(1, (1 << (dim - low)) - 1), max_size=6)
            for c in draw(prefixes):
                block = draw(st.sets(st.integers(0, (1 << low) - 1), min_size=1))
                keys |= {(c << low) | r for r in block}
        keys = sorted(keys)
    return keys, draw(st.integers(1, dim))


@given(keys_and_bounds())
def test_greedy_basis_is_the_first_seen_scan_of_the_keys(keys_bound):
    keys, bound = keys_bound
    assert greedy_basis(keys, bound) == reference_basis(keys, bound)


def test_greedy_basis_skips_the_prefix_blocks_its_span_holds(monkeypatch):
    """Keys 1 .. 15 fill the pivots of bits 0-3, so after the first key of a
    block of 16 keys that share their bits above bit 3 the span holds the
    whole block: 4 inserts for the low block, then one for each of 48 .. 63,
    80 .. 95 and 96 .. 111. A skip that only fires once the basis spans
    every key below the last one's top bit inserts all 48 block keys."""
    keys = list(range(1, 16)) + list(range(48, 64)) + list(range(80, 112))
    inserted = []
    insert = Gf2Eliminator.insert

    def counted(self, key):
        inserted.append(key)
        return insert(self, key)

    monkeypatch.setattr(Gf2Eliminator, "insert", counted)
    assert greedy_basis(keys, 7) == [1, 2, 4, 8, 48, 80]
    assert len(inserted) <= 8


@st.composite
def key_multisets(draw):
    """Up to seven keys of F_2^dim, closed by their XOR half the time so that
    some sums are zero, then repeats, zeros and negative ints mixed in;
    shuffled."""
    dim = draw(st.integers(1, 6))
    keys = draw(st.lists(st.integers(1, (1 << dim) - 1), max_size=7))
    if draw(st.booleans()):
        keys.append(reduce(xor, keys, 0))
    if keys:
        keys += draw(st.lists(st.sampled_from(keys), max_size=2))
    keys += draw(st.lists(st.integers(-3, 0), max_size=2))
    return dim, draw(st.permutations(keys))


@given(key_multisets())
def test_is_circuit_is_the_circuit_law_on_any_key_multiset(dim_keys):
    """is_circuit tests only the size, that every key is at least 1, the sum
    and the rank; the reference also asks for distinct keys, which the rank
    test implies."""
    dim, keys = dim_keys
    law = (len(set(keys)) == len(keys) and all(k >= 1 for k in keys)
           and reduce(xor, keys, 0) == 0 and len(column_rref(keys, dim)) == len(keys) - 1)
    assert is_circuit(keys) == law


class Hung(Exception):
    """A call ran past its deadline."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise Hung in the block once it has run for seconds, from a SIGALRM
    interval timer: a hang fails the test, and no thread or process starts."""
    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def hostile_ints(draw):
    """(dim, keys): up to eight ints, each negative, zero, a bool, a nonzero
    dim-bit value or wider than dim bits."""
    dim = draw(st.integers(1, 8))
    key = st.one_of(st.integers(-(1 << 70), -1), st.just(0), st.booleans(),
                    st.integers(1, (1 << dim) - 1), st.integers(1 << dim, 1 << (dim + 70)))
    return dim, draw(st.lists(key, max_size=8))


def span_residual(rows, key):
    """key reduced by echelon rows held as top bit -> row."""
    for top in sorted(rows, reverse=True):
        if key >> top & 1:
            key ^= rows[top]
    return key


def refused(call):
    """True when call raises a BmcError; any other exception propagates."""
    try:
        call()
    except BmcError:
        return True
    return False


@example((2, [-2, 3]))  # once the eliminator held -2, inserting 3 never returned
@given(hostile_ints())
def test_exported_eliminations_refuse_or_answer_hostile_ints(dim_keys):
    """Gf2Eliminator.insert and reduce, greedy_basis and column_rref either
    raise a BmcError or give the reference's answer on any ints, within a
    deadline. A refused call leaves the eliminator as it was. The reference
    reduces by a top-bit table; reduce's residual is zero exactly when the
    reference's is, and the witness masks name the inserted keys whose XOR
    is the key less its residual."""
    dim, keys = dim_keys
    with deadline(2.0):
        elim = Gf2Eliminator()
        inserted, rows = [], {}
        for key in keys:
            before = elim.rank, elim.n_inserted
            if key < 0:
                assert refused(lambda: elim.reduce(key)) and refused(lambda: elim.insert(key))
                assert (elim.rank, elim.n_inserted) == before
                continue
            residual, mask = elim.reduce(key)
            expected = span_residual(rows, key)
            assert (residual == 0) == (expected == 0)
            assert reduce(xor, (inserted[i] for i in _mask_indices(mask)), residual) == key
            got = elim.insert(key)
            inserted.append(key)
            if expected:
                assert got is None
                rows[expected.bit_length() - 1] = expected
            else:
                assert got == mask

        ordered = sorted(keys)
        if ordered and ordered[0] < 0:
            assert refused(lambda: greedy_basis(ordered, dim))
        else:
            assert greedy_basis(ordered, dim) == reference_basis(ordered, dim)

        if any(not 0 <= k < 1 << dim for k in keys):
            assert refused(lambda: column_rref(keys, dim))
        else:
            echelon = column_rref(keys, dim)
            first_seen, seen = [], {}
            for j, key in enumerate(keys):
                residual = span_residual(seen, key)
                if residual:
                    first_seen.append(j)
                    seen[residual.bit_length() - 1] = residual
            assert sorted(echelon) == first_seen
            for p, row in echelon.items():
                assert row & -row == 1 << p
                assert all(other >> p & 1 == 0 for q, other in echelon.items() if q != p)
            for j, key in enumerate(keys):
                assert reduce(xor, (keys[p] for p, row in echelon.items() if row >> j & 1), 0) == key


@given(subspace_keys())
def test_rank_is_the_column_rref_rank_below_full_rank(dim_keys):
    dim, keys = dim_keys
    assert rank(BinaryMatroid(dim, keys)) == len(column_rref(keys, dim))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_rank_of_the_even_weight_model_is_its_column_rref_rank(p):
    m = build_even_weight_model(p)
    assert rank(m) == len(column_rref(m.keys, m.dim)) == p - 1


@pytest.mark.parametrize("m", [
    complete_matroid(3),
    complete_matroid(8),
    build_even_weight_model(7),
    random_eulerian(10, 40, 3),
    BinaryMatroid(30, [3 << 20, 5 << 20, 6 << 20, 7]),
    BinaryMatroid(4),
])
def test_rank_inserts_once_per_key_and_independent_keys_return_none(monkeypatch, m):
    """One insert per key, and the insert of key j returns None exactly when
    key j is independent of the keys before it. The tier-1 mirror of the
    benchmark's tracer pin: complete(3) gives 7 inserts, 3 of them
    independent."""
    basis = set(reference_basis(m.keys, len(m)))
    returned = []
    insert = Gf2Eliminator.insert

    def counted(self, key):
        got = insert(self, key)
        returned.append(got)
        return got

    monkeypatch.setattr(Gf2Eliminator, "insert", counted)
    r = rank(BinaryMatroid(m.dim, m.keys))  # a fresh matroid: no cached rank
    assert len(returned) == len(m) and returned.count(None) == r
    assert [got is None for got in returned] == [key in basis for key in m.keys]
    if m == complete_matroid(3):
        assert (len(returned), r) == (7, 3)
