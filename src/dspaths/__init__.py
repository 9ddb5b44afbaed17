"""Library and CLI for deciding whether a weighted digraph has k shortest
s-t paths with pairwise arc-set Hamming distance at least d, with an exact
brute-force oracle and hard-instance generators."""

from .colorcode import (
    EXHAUSTIVE,
    SEEDED,
    HashFamily,
    ball_search,
    build_hash_family,
    select_dissimilar_color_sets,
)
from .farthest import arc_label_vector, farthest_path
from .generators import (
    BinPackingInstance,
    GeneratedInstance,
    gen_binpack,
    gen_grid,
    gen_layered,
    validate_path_decomposition,
)
from .graph import (
    Arc,
    ArcWeightedDigraph,
    GraphParseError,
    NoShortestPathError,
    Path,
    SpDag,
    build_sp_dag,
    format_graph,
    graph_hash,
    hamming_distance,
    parse_graph,
    shortest_distances,
)
from .oracle import (
    OracleBudgetError,
    PathCatalog,
    brute_ball,
    brute_farthest,
    brute_max_min,
    brute_solve,
    enumerate_st_paths,
    minimal_bypass_decomposition,
)
from .solver import (
    Certificate,
    CertificateError,
    SolveConfig,
    SolveResult,
    greedy_phase,
    solve,
    verify_certificate,
)

__version__ = "0.1.0"
