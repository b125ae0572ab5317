"""Shared corpus builders; everything is seeded and deterministic."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from bmcircuits.circuits import Circuit
from bmcircuits.decompose import DenseParams, _meets_pow2, auto_decompose
from bmcircuits.generators import complete_matroid, independent_copies, random_eulerian
from bmcircuits.gf2core import BinaryMatroid, Gf2Eliminator, _mask_indices, rank

# property tests replay the same examples on every run and never time out
settings.register_profile(
    "bmcircuits", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("bmcircuits")


def eulerian_corpus(count, seed, n_range=(3, 14), size_cap=40):
    """Deterministic list of random Eulerian matroids."""
    picker = random.Random(seed)
    out = []
    for i in range(count):
        n = picker.randint(*n_range)
        hi = min(size_cap, (1 << n) - 1)
        size = picker.randint(3, hi)
        out.append(random_eulerian(n, size, seed * 100_003 + i))
    return out


#: verify mode -> key blocks that pass its checker on complete_matroid(3), keys 1..7
GOOD_KEY_BLOCKS = {
    "decomposition": ((1, 2, 3), (4, 5, 6, 7)),
    "oddcover": ((1, 2, 3), (4, 5, 6, 7)),
    "partition": ((1, 2, 4), (3, 5, 7), (6,)),
}

#: corruptions of those blocks that every checker must reject with a reason
KEY_BLOCK_FAULTS = {
    "zero key": lambda b: ((0,) + b[0][1:],) + b[1:],
    "key of 2**dim": lambda b: ((8,) + b[0][1:],) + b[1:],
    "negative key": lambda b: ((-1,) + b[0][1:],) + b[1:],
    "duplicate key in a block": lambda b: (b[0] + b[0][:1],) + b[1:],
    "overlapping blocks": lambda b: b + (b[0],),
    "non-circuit block": lambda b: (b[0] + b[1],) + b[2:],
    "dependent part": lambda b: (tuple(range(1, 8)),),
    # a circuit of keys 1, 8, 9 twice: it cancels in an odd-cover's parity
    "out-of-range circuit twice": lambda b: b + ((1, 8, 9), (1, 8, 9)),
}


def basis_eliminator(basis):
    """A witness-tracking Gf2Eliminator holding the keys of an independent
    basis: reduce(key) then returns key's residual and the mask of the basis
    indices whose keys XOR to key, its expansion when the residual is 0."""
    elim = Gf2Eliminator()
    for key in basis:
        assert elim.insert(key) is None
    return elim


def dense_core():
    """Complete core on the leading 6 of 10 coordinates, symmetric difference
    with random_eulerian(10, 12, seed=1): 74 elements, a = 11."""
    core = {k << 4 for k in range(1, 64)}
    return BinaryMatroid(10, core ^ random_eulerian(10, 12, seed=1).key_set)


@pytest.fixture(scope="session")
def small_corpus():
    return eulerian_corpus(40, seed=7)


#: Inputs whose peel-family outputs are pinned in data/peel_family_pins.json.
#: independent_copies(4, 3) loses rank in the middle of a peel.
PIN_INPUTS = {
    "complete_8": lambda: complete_matroid(8),
    "random_10_100_3": lambda: random_eulerian(10, 100, seed=3),
    "random_12_300_1": lambda: random_eulerian(12, 300, seed=1),
    "copies_4_3": lambda: independent_copies(4, 3),
}


def peel_family_pins():
    """Per input name and routine: circuit key lists (each ascending), plus
    branch/phase1/phase2 for decompositions."""
    path = Path(__file__).parent / "data" / "peel_family_pins.json"
    return json.loads(path.read_text())


def circuit_keys(circuits):
    return [list(c.keys) for c in circuits]


# -- the peel family against reference loops ---------------------------------
#
# Each reference step rebuilds the working set as a BinaryMatroid, takes the
# first-seen basis over all of it, and expands every element on its own.

#: epsilon = 4 gives delta ~ 0.094, so tiny near-complete matroids are dense
DENSE_EPSILON = 4


def reference_basis(keys, bound):
    """Each key that is independent of every key before it, inserted as
    itself, until bound keys are taken."""
    elim = Gf2Eliminator(track_witnesses=False)
    basis = []
    for key in keys:
        if len(basis) < bound and elim.insert(key) is None:
            basis.append(key)
    return basis


def fundamental_circuits(dim, keys, basis):
    """The fundamental circuit of each of the keys outside the basis, in order:
    the key plus the basis keys in its Gf2Eliminator witness mask."""
    elim = basis_eliminator(basis)
    for key in keys:
        if key not in basis:
            residual, mask = elim.reduce(key)
            assert residual == 0
            yield Circuit(dim, [key] + [basis[i] for i in _mask_indices(mask)])


def reference_largest_circuit(m):
    best = None
    basis = reference_basis(m.keys, m.dim)
    for c in fundamental_circuits(m.dim, m.keys, basis):  # ties go to the first
        if best is None or len(c) > len(best):
            best = c
    return best


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
        work = BinaryMatroid(work.dim, work.key_set - c.key_set)
    if phase1 is None:
        phase1 = len(circuits)
    return circuits, phase1, len(circuits) - phase1


def reference_log_greedy(m):
    threshold = len(m) / math.log(len(m)) ** 2
    return reference_decompose(m, lambda work: len(work) >= threshold)


def reference_dense(m, params):
    """None where m is not dense: auto_decompose labels it sparse or trivial."""
    r = rank(m)
    if r < 2 or not _meets_pow2(len(m), (1.0 - params.delta) * r):
        return None
    exponent = (1.0 - 2.0 * params.delta) * r
    return reference_decompose(
        m, lambda work: _meets_pow2(len(work), exponent), math.ceil(params.alpha * r)
    )


def outcome(circuits, phase1, phase2):
    return [list(c.keys) for c in circuits], phase1, phase2


def decomposition_outcome(d):
    return outcome(d.circuits, d.phase1, d.phase2)


def check_auto_against_references(m, epsilon=Fraction(1, 2)):
    """auto_decompose(m, epsilon) on a matroid that is not complete: labelled
    dense with the dense loop's outcome where reference_dense accepts m, and
    otherwise sparse (trivial up to 3 elements) with the log-greedy loop's."""
    d = auto_decompose(m, epsilon)
    expected = reference_dense(m, DenseParams.from_epsilon(epsilon))
    if expected is not None:
        assert d.branch == "dense"
    else:
        assert d.branch == ("trivial" if len(m) <= 3 else "sparse")
        expected = reference_log_greedy(m)
    assert decomposition_outcome(d) == outcome(*expected)
