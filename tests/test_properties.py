"""Hypothesis properties on small random Eulerian matroids.

Every constructive output must pass its single checker in formats, the
checkers must reject simple corruptions of a valid artifact, and
extract_any_circuit must return the first elimination dependency. On at most
14 elements, arboricity and its infeasibility certificates are tied to the
exhaustive max of ceil(|N| / rank(N)), every decomposer and odd-cover builder
to the exact oracles, the peel family to reference loops that rebuild a
BinaryMatroid per step and to the per-step basis-and-expansion scan that
the peel state replaced (sparse high-rank inputs included), the peel
state after each removal to a fresh build, exact_c and its component split to a
union-find over the whole circuit catalogue, intersection_lower_bound to
that catalogue's largest circuit, and the restricted exact_c2 to the
ambient search on an injective copy. Every decomposer returns
peel_decompose's circuits; they differ only in their branch and phase
labels.
"""

import math
from functools import cache

from hypothesis import assume, given
from hypothesis import strategies as st

from bmcircuits.arboricity import (
    Infeasible,
    arboricity,
    can_partition,
    edmonds_max_bruteforce,
)
from bmcircuits.circuits import (
    Circuit,
    WorkingSet,
    extract_any_circuit,
    fundamental_circuit,
    largest_fundamental_circuit,
)
from bmcircuits.decompose import (
    DenseParams,
    _meets_pow2,
    auto_decompose,
    dense_decompose,
    log_greedy_decompose,
    peel_decompose,
)
from bmcircuits.errors import NotDenseEnoughError, NotInSpanError
from bmcircuits.formats import check_decomposition, check_oddcover, check_partition
from bmcircuits.gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    Gf2Vector,
    _mask_indices,
    expansion_masks,
    express_in_basis,
    greedy_basis,
    rank,
)
from bmcircuits.generators import complete_matroid, random_eulerian
from bmcircuits.oddcover import oddcover_via_arboricity, symdiff_reduce
from bmcircuits.oracle import (
    _components,
    c2_search_is_restricted,
    enumerate_circuits,
    exact_c,
    exact_c2,
    intersection_lower_bound,
)


@st.composite
def eulerian_matroids(draw):
    n = draw(st.integers(3, 7))
    size = draw(st.integers(3, min(24, (1 << n) - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_eulerian(n, size, seed)


@st.composite
def tiny_eulerian_matroids(draw):
    """At most 14 elements, within reach of edmonds_max_bruteforce.

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
        m = BinaryMatroid.from_keys(n, fano ^ m.key_set)
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
        (check_decomposition, log_greedy_decompose(m).circuits),
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
        blocks = [tuple(b) for b in blocks]
        i = data.draw(st.integers(0, len(blocks) - 1))
        dropped = blocks[:i] + blocks[i + 1:]
        assert checker(m, m.dim, dropped) is not None
        duplicated = blocks + [blocks[i]]
        assert checker(m, m.dim, duplicated) is not None
        # odd-cover blocks may hold vectors outside m; the swap must change the block
        aliens = [k for k in outside if all(v.key != k for v in blocks[i])]
        if aliens:
            j = data.draw(st.integers(0, len(blocks[i]) - 1))
            alien = Gf2Vector(m.dim, data.draw(st.sampled_from(aliens)))
            swapped = blocks[i][:j] + (alien,) + blocks[i][j + 1:]
            corrupted = blocks[:i] + [swapped] + blocks[i + 1:]
            assert checker(m, m.dim, corrupted) is not None


@given(eulerian_matroids())
def test_extract_any_circuit_is_first_dependency_plus_witness(m):
    prefix = []
    for v in m.elements:
        try:
            support = express_in_basis(v, prefix)
        except NotInSpanError:
            prefix.append(v)
            continue
        break
    expected = {v.key} | {prefix[i].key for i in support}
    assert extract_any_circuit(m).key_set == expected


@given(tiny_eulerian_matroids())
def test_arboricity_equals_exhaustive_max(m):
    assert arboricity(m)[0] == edmonds_max_bruteforce(m)


@given(tiny_eulerian_matroids())
def test_infeasible_certificate_is_closed(m):
    for result in infeasible_rounds(m, edmonds_max_bruteforce(m)):
        span = Gf2Eliminator(track_witnesses=False)
        for v in result.certificate:
            span.insert(v.key)
        assert {v.key for v in m if span.contains(v.key)} == result.certificate.key_set


@given(tiny_eulerian_matroids())
def test_certificate_quotient_is_a_lower_bound_above_k(m):
    a = edmonds_max_bruteforce(m)
    for result in infeasible_rounds(m, a):
        cert = result.certificate
        assert result.quotient == -(-len(cert) // rank(cert))
        assert result.k < result.quotient <= a


@given(tiny_eulerian_matroids())
def test_arboricity_cover_within_four_thirds(m):
    a = edmonds_max_bruteforce(m)
    assert len(oddcover_via_arboricity(m)[1].circuits) <= -(-4 * a // 3)


# -- the peel family against reference loops ---------------------------------
#
# Each reference step rebuilds the working set as a BinaryMatroid, takes the
# first-seen basis over all of it, and expands every element on its own.

#: epsilon = 4 gives delta ~ 0.094, so tiny near-complete matroids are dense
DENSE_EPSILON = 4


@st.composite
def near_complete_matroids(draw):
    """A complete matroid of rank 5 or 6 minus a small random Eulerian set:
    dense enough for dense_decompose at DENSE_EPSILON."""
    k = draw(st.integers(5, 6))
    size = draw(st.integers(3, 7 if k == 5 else 19))
    seed = draw(st.integers(0, 2**32 - 1))
    cut = random_eulerian(k, size, seed).key_set
    return BinaryMatroid.from_keys(k, complete_matroid(k).key_set - cut)


def reference_basis(m):
    elim = Gf2Eliminator(track_witnesses=False)
    return [v for v in m.elements if elim.insert(v.key) is None]


def reference_largest_circuit(m):
    basis = reference_basis(m)
    best = None
    for v in m.elements:  # ties go to the first
        if v not in basis:
            c = fundamental_circuit(v, basis)
            if best is None or len(c) > len(best):
                best = c
    return best


def reference_first_circuit(m):
    prefix = []
    for v in m.elements:
        try:
            support = express_in_basis(v, prefix)
        except NotInSpanError:
            prefix.append(v)
            continue
        return Circuit([v] + [prefix[i] for i in support])


def reference_decompose(m, in_phase1, floor_size=0):
    """(circuits, phase1, phase2) of: peel largest fundamental circuits until
    nothing is left; phase 1 ends at the first step where in_phase1(work)
    fails or the circuit falls short of floor_size."""
    work, circuits, phase1 = m, [], None
    while len(work):
        c = reference_largest_circuit(work)
        if phase1 is None and not (in_phase1(work) and len(c) >= floor_size):
            phase1 = len(circuits)
        circuits.append(c)
        work = work.difference(c)
    if phase1 is None:
        phase1 = len(circuits)
    return circuits, phase1, len(circuits) - phase1


def reference_log_greedy(m):
    threshold = len(m) / math.log(len(m)) ** 2
    return reference_decompose(m, lambda work: len(work) >= threshold)


def reference_dense(m, params):
    """None where dense_decompose must refuse m."""
    r = rank(m)
    if r < 2 or not _meets_pow2(len(m), (1.0 - params.delta) * r):
        return None
    exponent = (1.0 - 2.0 * params.delta) * r
    return reference_decompose(
        m, lambda work: _meets_pow2(len(work), exponent), math.ceil(params.alpha * r)
    )


def reference_symdiff(m):
    threshold = len(m) / math.log(len(m)) ** 2
    work, cover, peeling = m, [], False
    while len(work):
        if not peeling and (rank(work) <= 2 or len(work) < threshold):
            peeling = True
        if peeling:
            c = reference_first_circuit(work)
            work = work.difference(c)
        else:
            basis = reference_basis(work)
            total = 0
            for v in basis:
                total ^= v.key
            c = Circuit(basis + [Gf2Vector(m.dim, total)])
            work = work.symmetric_difference(c)
        cover.append(c)
    return cover


def outcome(circuits, phase1, phase2):
    return [[v.key for v in c] for c in circuits], phase1, phase2


def decomposition_outcome(d):
    return outcome(d.circuits, d.phase1, d.phase2)


@given(tiny_eulerian_matroids())
def test_peel_family_matches_reference_loops(m):
    peeled = reference_decompose(m, lambda work: True)
    assert decomposition_outcome(peel_decompose(m)) == outcome(*peeled)
    assert decomposition_outcome(log_greedy_decompose(m)) == outcome(*reference_log_greedy(m))
    expected = [[v.key for v in c] for c in reference_symdiff(m)]
    assert [[v.key for v in c] for c in symdiff_reduce(m).circuits] == expected


@given(near_complete_matroids())
def test_dense_matches_reference_loop(m):
    params = DenseParams.from_epsilon(DENSE_EPSILON)
    expected = reference_dense(m, params)
    assume(expected is not None)
    assert decomposition_outcome(dense_decompose(m, params)) == outcome(*expected)
    assert decomposition_outcome(auto_decompose(m, DENSE_EPSILON)) == outcome(*expected)


@st.composite
def sparse_high_rank_matroids(draw):
    """Fewer elements than coordinates, so the rank is close to the size and
    the peel state has about as many rows as columns."""
    size = draw(st.integers(3, 24))
    n = draw(st.integers(size + 1, 40))
    return random_eulerian(n, size, draw(st.integers(0, 2**32 - 1)))


def scan_decompose(m):
    """Peel with the per-step scan the peel state replaced: each step takes
    the greedy basis of the keys left and expands every key in it."""
    keys, circuits = [v.key for v in m.elements], []
    while keys:
        basis, rows = greedy_basis(keys, m.dim, m.dim)
        masks = expansion_masks(keys, rows, m.dim)
        best = max(masks, key=int.bit_count)  # the first of the largest
        circuit = sorted([b for i, b in enumerate(basis) if best >> i & 1]
                         + [keys[masks.index(best)]])
        circuits.append(circuit)
        keys = [k for k in keys if k not in circuit]
    return circuits


@given(sparse_high_rank_matroids())
def test_peel_matches_the_scan_and_the_reference_at_high_rank(m):
    circuits = [[v.key for v in c] for c in peel_decompose(m).circuits]
    assert circuits == scan_decompose(m)
    assert circuits == outcome(*reference_decompose(m, lambda work: True))[0]


def state_row_sets(work):
    """The peel state's rows, each as the set of keys it holds."""
    at, rows = work.rref()
    return {frozenset(at[j] for j in _mask_indices(row)) for row in rows.values()}


@given(st.one_of(tiny_eulerian_matroids(), near_complete_matroids(),
                 sparse_high_rank_matroids()), st.booleans())
def test_removal_keeps_the_peel_state_a_fresh_one(m, first_dependency):
    """After each remove, the pivots are the greedy basis of the keys left and
    the rows are those a fresh build finds, whether the removed circuit is
    the largest fundamental one or the first dependency."""
    work = WorkingSet(m)
    largest_fundamental_circuit(work)  # builds the state
    while work:
        c = extract_any_circuit(work) if first_dependency else largest_fundamental_circuit(work)
        work.remove(c)
        at, rows = work.rref()
        assert sorted(at[p] for p in rows) == greedy_basis(work.keys, m.dim, m.dim)[0]
        if work:
            fresh = WorkingSet(BinaryMatroid.from_keys(m.dim, work.keys))
            assert state_row_sets(work) == state_row_sets(fresh)


def check_peel_circuits_everywhere(m):
    peeled = peel_decompose(m)
    labelled = [log_greedy_decompose(m), auto_decompose(m), auto_decompose(m, DENSE_EPSILON)]
    try:
        labelled.append(dense_decompose(m, DenseParams.from_epsilon(DENSE_EPSILON)))
    except NotDenseEnoughError:
        pass
    for d in [peeled] + labelled:
        assert d.phase1 + d.phase2 == len(d)
        assert d.circuits == peeled.circuits
    assert [[v.key for v in c] for c in peeled.circuits] == scan_decompose(m)


@given(tiny_eulerian_matroids())
def test_every_decomposer_returns_the_peel_circuits(m):
    check_peel_circuits_everywhere(m)


@given(near_complete_matroids())
def test_every_decomposer_returns_the_peel_circuits_near_complete(m):
    check_peel_circuits_everywhere(m)


@given(tiny_eulerian_matroids())
def test_dense_refuses_where_reference_refuses(m):
    params = DenseParams.from_epsilon(DENSE_EPSILON)
    expected = reference_dense(m, params)
    if expected is None:
        try:
            dense_decompose(m, params)
        except NotDenseEnoughError:
            return
        raise AssertionError("dense_decompose accepted a sparse matroid")
    assert decomposition_outcome(dense_decompose(m, params)) == outcome(*expected)


@given(tiny_eulerian_matroids())
def test_exact_c_bounds_every_decomposition(m):
    c = exact_c(m)
    sizes = [len(peel_decompose(m)), len(log_greedy_decompose(m)), len(auto_decompose(m)),
             len(auto_decompose(m, DENSE_EPSILON))]
    try:
        sizes.append(len(dense_decompose(m, DenseParams.from_epsilon(DENSE_EPSILON))))
    except NotDenseEnoughError:
        pass
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
    return BinaryMatroid.from_keys(m.dim + 2, [k << 2 for k in m.key_set] + [1, 2, 3])


@given(tiny_eulerian_matroids())
def test_exact_c_matches_catalogue_reference(m):
    for sample in (m, with_triangle(m)):
        masks, groups = reference_components(sample)
        expected = {
            BinaryMatroid(sample.dim, (v for i, v in enumerate(sample.elements) if g >> i & 1))
            for g in groups
        }
        components = _components(sample)
        assert len(components) == len(groups) and set(components) == expected
        assert exact_c(sample) == reference_exact_c(masks, groups)


def brute_force_circuits(m):
    """Minimal zero-sum subsets by a scan of every subset in size order: a
    zero-sum subset is a circuit iff no circuit found before lies inside it,
    since a smaller zero-sum subset inside it would hold one."""
    keys = [v.key for v in m.elements]
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
    keys = [v.key for v in m.elements]
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
        return BinaryMatroid.from_keys(4, set(range(1, 16)) - dropped)
    n = draw(st.integers(1, 6))
    keys = draw(st.sets(st.integers(1, (1 << n) - 1), max_size=12))
    return BinaryMatroid.from_keys(n, keys)


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
    assume(rank(BinaryMatroid.from_keys(6, set(images))) == m.dim)

    def image(key):
        out = 0
        for j, b in enumerate(images):
            if key >> j & 1:
                out ^= b
        return out

    embedded = BinaryMatroid.from_keys(6, (image(k) for k in m.key_set))
    assert c2_search_is_restricted(embedded)
    assert exact_c2(embedded) == exact_c2(m)
