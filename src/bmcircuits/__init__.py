"""Circuit decompositions, odd covers, and arboricity for binary matroids."""

from .arboricity import (
    IndependentPartition,
    Infeasible,
    arboricity,
    can_partition,
    edmonds_max_bruteforce,
)
from .circuits import (
    Circuit,
    guaranteed_circuit_size,
    is_circuit,
    largest_fundamental_circuit,
)
from .decompose import (
    Decomposition,
    DenseParams,
    auto_decompose,
    binary_entropy,
    dense_decompose,
    entropy_bound_holds,
    log_greedy_decompose,
    peel_decompose,
)
from .gf2core import (
    BinaryMatroid,
    Gf2Eliminator,
    is_eulerian,
    rank,
)
from .generators import complete_matroid, independent_copies, random_eulerian
from .oddcover import (
    OddCover,
    complete_to_circuit,
    density_lower_bound,
    oddcover_via_arboricity,
    symdiff_reduce,
)
from .oracle import (
    CircuitCatalog,
    enumerate_circuits,
    exact_c,
    exact_c2,
    intersection_lower_bound,
    probe_conjectures,
)
from .orbit import (
    build_even_weight_model,
    demonstrate_order_failure,
    multiplicative_order,
    orbit_decompose,
)

__version__ = "0.1.0"
