"""Library and CLI for deciding whether a weighted digraph has k shortest
s-t paths with pairwise arc-set Hamming distance at least d.

``solve`` runs the paper's pipeline (shortest-path DAG, greedy farthest
paths, color-coded ball search); its default ``hybrid`` mode runs the
exact path-enumeration engine of ``oracle`` instead where the shortest
paths are few.  ``verify_certificate`` checks a "yes" independently; the
generators build grid, layered and bin-packing hardness instances.
"""

from .colorcode import (
    EXHAUSTIVE,
    SEEDED,
    HashFamily,
    ball_search,
    build_hash_family,
    select_dissimilar_color_sets,
)
from .farthest import farthest_path
from .generators import (
    BinPackingInstance,
    GeneratedInstance,
    gen_binpack,
    gen_grid,
    gen_layered,
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
    parse_graph,
    shortest_distances,
)
from .oracle import (
    PathCatalog,
    brute_solve,
    enumerate_st_paths,
)
from .solver import (
    Certificate,
    CertificateError,
    SolveResult,
    greedy_phase,
    solve,
    verify_certificate,
)

__version__ = "0.1.0"
