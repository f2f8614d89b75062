"""Exact and approximate solvers for the independence-domination number.

The independence-domination number of a graph is the maximum, over its
independent sets A, of the minimum number of vertices needed to dominate A.
This package computes it exactly for cographs, distance-hereditary graphs,
permutation graphs (given a diagram), graphs of small treewidth and, via an
exponential-time algorithm, arbitrary graphs; planar graphs get a shifting
approximation scheme. A brute-force oracle backs every solver in the tests.
"""

from .graph import (
    Graph,
    GraphError,
    FormatError,
    ClassMismatchError,
    CapacityError,
    build_graph,
    bits,
    mask_from,
    mask_to_list,
    closed_neighborhood,
    dominates,
    is_independent,
    complement,
    induced_subgraph,
    connected_components,
    cartesian_product,
    strong_product,
    edge_clique_graph,
    parse,
    serialize,
)
from .oracle import (
    DominationCertificate,
    verify_certificate,
    gamma,
    gamma_of_set,
    gamma_of_set_exhaustive,
    gamma_i_oracle,
    enumerate_maximal_independent_sets,
)
from .cograph import (
    Cotree,
    P4Witness,
    build_cotree,
    is_cograph,
    cotree_to_graph,
    gamma_cograph,
    gamma_i_cograph,
    parse_cotree,
    serialize_cotree,
)
from .distance_hereditary import (
    PruningSequence,
    DHFailure,
    DHStats,
    DHDecomposition,
    recognize_dh,
    replay_sequence,
    build_dh_decomposition,
    gamma_i_dh,
    edge_tables,
    parse_sequence,
    serialize_sequence,
)
from .permutation import (
    PermutationDiagram,
    GammaSets,
    diagram_to_graph,
    gamma_i_permutation,
    gamma_sets,
    parse_diagram,
    serialize_diagram,
    cotree_to_diagram,
)
from .treewidth import (
    TreeDecomposition,
    DPStats,
    validate_decomposition,
    heuristic_decomposition,
    path_decomposition,
    planned_cost,
    choose_decomposition,
    make_nice,
    gamma_i_treewidth,
    parse_decomposition,
    serialize_decomposition,
)
from .exactexp import (
    BranchStats,
    DEFAULT_BETA,
    maximum_matching_general,
    gamma_of_independent_set_fast,
    gamma_i_exact,
)
from .planar import Layering, PtasResult, bfs_layering, shifted_subgraph, ptas_gamma_i
from .dispatch import ALGORITHMS, gamma_i
from . import generators

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
