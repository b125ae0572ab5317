"""Hypothesis properties on small random Eulerian matroids.

Every constructive output must pass its single checker in formats, the
checkers must reject simple corruptions of a valid artifact, and
extract_any_circuit must return the first elimination dependency. On at most
14 elements, arboricity and its infeasibility certificates are tied to the
exhaustive max of ceil(|N| / rank(N)).
"""

from hypothesis import assume, given
from hypothesis import strategies as st

from bmcircuits.arboricity import (
    Infeasible,
    arboricity,
    can_partition,
    edmonds_max_bruteforce,
)
from bmcircuits.circuits import extract_any_circuit
from bmcircuits.decompose import auto_decompose, log_greedy_decompose, peel_decompose
from bmcircuits.errors import NotInSpanError
from bmcircuits.formats import check_decomposition, check_oddcover, check_partition
from bmcircuits.gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    Gf2Vector,
    express_in_basis,
    rank,
)
from bmcircuits.generators import random_eulerian
from bmcircuits.oddcover import oddcover_via_arboricity, symdiff_reduce


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
