"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either exact combinatorics checked here or a
bound the construction must meet with zero tolerance.
"""

import math
import time
from fractions import Fraction

import pytest

from bmcircuits.arboricity import arboricity, edmonds_max_bruteforce
from bmcircuits.circuits import (
    guaranteed_circuit_size,
    is_circuit,
    largest_fundamental_circuit,
)
from bmcircuits.decompose import (
    DenseParams,
    auto_decompose,
    dense_decompose,
    entropy_bound_holds,
    log_greedy_decompose,
    peel_decompose,
)
from bmcircuits.errors import NotDenseEnoughError, OrderConditionError, TooLargeError
from bmcircuits.formats import format_bm, format_bmdec, parse_bm, parse_bmdec
from bmcircuits.gf2core import BinaryMatroid, Gf2Vector, rank
from bmcircuits.generators import complete_matroid, independent_copies, random_eulerian
from bmcircuits.oddcover import oddcover_via_arboricity, symdiff_reduce
from bmcircuits.oracle import (
    enumerate_circuits,
    exact_c,
    exact_c2,
    intersection_lower_bound,
    probe_conjectures,
)
from bmcircuits.orbit import (
    build_even_weight_model,
    demonstrate_order_failure,
    multiplicative_order,
    orbit_decompose,
)

from conftest import eulerian_corpus


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def decomposition_is_valid(m, dec):
    seen = set()
    for c in dec.circuits:
        if not is_circuit(c.elements):
            return False
        if seen & c.key_set:
            return False
        seen |= c.key_set
    if seen != set(m.key_set):
        return False
    if len(m) and len(dec.circuits) < math.ceil(len(m) / (rank(m) + 1)):
        return False
    return True


def cover_is_valid(m, cover):
    parity = set()
    for c in cover.circuits:
        if not is_circuit(c.elements):
            return False
        parity ^= c.key_set
    return parity == set(m.key_set)


def test_criterion_1_orbit_counts():
    expected = {3: 1, 5: 3, 11: 93, 13: 315}
    timings = {}
    for p, count in expected.items():
        start = time.perf_counter()
        od = orbit_decompose(p)
        timings[p] = time.perf_counter() - start
        assert len(od.circuits) == count == ((1 << (p - 1)) - 1) // p
        assert all(len(o) == p and is_circuit(o.elements) for o in od.circuits)
        assert timings[p] < 10.0
    report(1, True, f"orbit counts {expected}, slowest {max(timings.values()):.2f}s")


def test_criterion_2_p7_failure():
    assert multiplicative_order(2, 7) == 3
    with pytest.raises(OrderConditionError) as exc:
        orbit_decompose(7)
    assert exc.value.order == 3
    rep = demonstrate_order_failure()
    sizes = sorted(len(c) for c in rep.parts)
    ok = (
        len(rep.orbit) == 7
        and rep.orbit_is_circuit is False
        and sizes == [3, 4]
        and all(is_circuit(c.elements) for c in rep.parts)
        and (rep.parts[0].key_set | rep.parts[1].key_set)
        == {v.key for v in rep.orbit}
    )
    report(2, ok, f"order 3, orbit of size 7 splits into circuits of sizes {sizes}")


def test_criterion_3_orbit_count_is_optimal():
    start = time.perf_counter()
    values = {}
    for p in (3, 5):
        model = build_even_weight_model(p)
        values[p] = (exact_c(model), len(orbit_decompose(p).circuits))
        assert values[p][0] == values[p][1]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, True, f"exact minimum equals orbit count: {values} in {elapsed:.2f}s")


def test_criterion_4_disjoint_triangle_blocks():
    for k in range(1, 9):
        assert exact_c(independent_copies(k, 2)) == k
    report(4, True, "exact_c(k triangle blocks) = k for k in 1..8")


def test_criterion_5_two_copies_cover_lower_bound():
    m = independent_copies(2, 3)
    a = edmonds_max_bruteforce(m)
    a_constructive, _ = arboricity(m)
    assert a == a_constructive == 3 == math.ceil(7 / 3)
    # every circuit inside M has at most rank(M) = 6 elements (none spans),
    # so any odd-cover needs at least ceil(14/6) = 3 circuits
    internal_max = enumerate_circuits(m).max_size()
    assert internal_max <= rank(m)
    lb = intersection_lower_bound(m)
    assert lb >= a
    report(5, True, f"cover lower bound {lb} >= a(M) = {a} for two rank-3 blocks")


@pytest.fixture(scope="module")
def corpus_200():
    return eulerian_corpus(200, seed=2024, n_range=(3, 14), size_cap=40)


def test_criterion_6_decomposition_validity_suite(corpus_200):
    failures = 0
    runs = 0
    for m in corpus_200:
        methods = [peel_decompose(m), log_greedy_decompose(m), auto_decompose(m)]
        try:
            methods.append(dense_decompose(m, DenseParams.from_epsilon(Fraction(1, 2))))
        except NotDenseEnoughError:
            pass
        for dec in methods:
            runs += 1
            if not decomposition_is_valid(m, dec):
                failures += 1
    report(6, failures == 0, f"{runs} decompositions over 200 instances, {failures} failures")


def test_criterion_7_pigeonhole_bound(corpus_200):
    failures = 0
    for m in corpus_200:
        c = largest_fundamental_circuit(m)
        if c.size < guaranteed_circuit_size(len(m), rank(m)):
            failures += 1
    report(7, failures == 0, f"largest fundamental circuit met the bound on all 200, {failures} failures")


def test_criterion_8_entropy_bound():
    start = time.perf_counter()
    checks = 0
    for r in range(1, 31):
        for k in range(r // 2 + 1):
            assert entropy_bound_holds(r, Fraction(k, r))
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, True, f"{checks} exact entropy comparisons in {elapsed:.2f}s")


def test_criterion_9_cover_bound_and_minmax():
    corpus = eulerian_corpus(100, seed=515, n_range=(4, 9), size_cap=21)
    failures = 0
    for m in corpus:
        a, partition = arboricity(m)
        _, cover = oddcover_via_arboricity(m)
        if not cover_is_valid(m, cover):
            failures += 1
        if len(cover.circuits) > math.ceil(4 * a / 3):
            failures += 1
        if len(m) <= 22 and a != edmonds_max_bruteforce(m):
            failures += 1
        if len(partition.parts) != a:
            failures += 1
    report(9, failures == 0, f"100 covers within ceil(4a/3) and min-max equality held, {failures} failures")


def test_criterion_10_oracle_dominance():
    instances = [
        BinaryMatroid.from_keys(2, [1, 2, 3]),
        independent_copies(2, 2),
        independent_copies(3, 2),
        complete_matroid(3),
        complete_matroid(4),
        independent_copies(2, 3),
        random_eulerian(4, 9, seed=3),
        random_eulerian(4, 12, seed=4),
    ]
    for m in instances:
        c = exact_c(m)
        for dec in (peel_decompose(m), log_greedy_decompose(m), auto_decompose(m)):
            assert len(dec.circuits) >= c
        try:
            c2 = exact_c2(m)
        except TooLargeError:
            c2 = None
        if c2 is not None:
            assert c2 <= c
            assert len(symdiff_reduce(m).circuits) >= c2
            assert len(oddcover_via_arboricity(m)[1].circuits) >= c2
        rep = probe_conjectures(m)
        assert rep.decomposition_status == "CONSISTENT"
        assert rep.oddcover_status in ("CONSISTENT", "SKIPPED"), (
            "conjecture VIOLATION: halt for human inspection"
        )
    report(10, True, f"c2 <= c and greedy >= exact on {len(instances)} instances, all probes CONSISTENT")


def test_criterion_11_round_trip(tmp_path):
    matroids = [
        complete_matroid(4),
        independent_copies(2, 3),
        random_eulerian(10, 25, seed=8),
        BinaryMatroid(6),
    ]
    for m in matroids:
        text = format_bm(m, comments=("spec: round-trip",))
        path = tmp_path / "m.bm"
        path.write_text(text)
        again = parse_bm(path.read_text())
        assert again == m
        assert format_bm(again, comments=("spec: round-trip",)) == text

    m = complete_matroid(5)
    artifacts = [
        ("circuits", [c.elements for c in auto_decompose(m).circuits],
         {"branch": "dense"}),
        ("oddcover", [c.elements for c in oddcover_via_arboricity(m)[1].circuits], None),
        ("indsets", [p for p in arboricity(m)[1].parts], None),
        ("circuits", [c.elements for c in orbit_decompose(5).circuits], {"p": "5"}),
    ]
    for kind, blocks, meta in artifacts:
        dim = blocks[0][0].n
        text = format_bmdec(kind, dim, blocks, meta=meta)
        path = tmp_path / "x.bmdec"
        path.write_text(text)
        parsed = parse_bmdec(path.read_text())
        assert [list(b) for b in parsed.blocks] == [[v.key for v in b] for b in blocks]
        vectors = [[Gf2Vector(parsed.dim, k) for k in b] for b in parsed.blocks]
        assert format_bmdec(parsed.kind, parsed.dim, vectors,
                            meta=parsed.meta or None) == text
    report(11, True, "all emitted .bm/.bmdec artifacts re-parse bit-identically")
