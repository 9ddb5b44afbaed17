"""Exact brute-force reference implementations.

These enumerate every s-t path of a shortest-path DAG and decide instances
over that catalog.  The selection step, k paths whose arc sets are pairwise
>= d apart, is the same kernel the ball search uses
(``colorcode.select_dissimilar_color_sets``) run on the paths' arc-set
masks, so a certificate is the first k paths in catalog order that are
pairwise >= d apart.  They are the ground truth for the equivalence tests
and back the oracle and hybrid solver modes.  Exactness matters here;
speed is secondary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .colorcode import MinimalBypass, select_dissimilar_color_sets
from .graph import Path, SpDag, hamming_distance


class OracleBudgetError(RuntimeError):
    """Enumeration exceeded its budget; the instance is too large here."""


@dataclass(frozen=True)
class PathCatalog:
    """All s-t paths of a dag in deterministic (lexicographic arc-id) order."""

    paths: tuple[Path, ...]
    count: int  # DP-counted, may exceed len(paths) when truncated
    truncated: bool


def count_st_paths(dag: SpDag, cap: int | None = None) -> int:
    """Number of s-t paths by dynamic programming, saturated at cap."""
    ways = [0] * (dag.n + 1)
    ways[dag.n] = 1
    for v in range(dag.n - 1, 0, -1):
        total = sum(ways[a.head] for a in dag.outgoing[v])
        if cap is not None and total > cap:
            total = cap
        ways[v] = total
    return ways[1]


def enumerate_st_paths(dag: SpDag, budget: int = 10**5) -> PathCatalog:
    """Depth-first enumeration in arc-id order, stopping at the budget.

    The walk keeps an explicit stack of outgoing-arc iterators, so its
    depth is not bounded by the interpreter's recursion limit.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    # s == t makes the empty path the only s-t path.
    paths: list[Path] = [Path(())] if dag.n == 1 else []
    truncated = False
    prefix: list[int] = []
    stack = [] if dag.n == 1 else [iter(dag.outgoing[1])]
    while stack:
        arc = next(stack[-1], None)
        if arc is None:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        prefix.append(arc.id)
        if arc.head != dag.n:
            stack.append(iter(dag.outgoing[arc.head]))
            continue
        if len(paths) >= budget:
            truncated = True
            break
        paths.append(Path(tuple(prefix)))
        prefix.pop()
    return PathCatalog(
        paths=tuple(paths), count=count_st_paths(dag), truncated=truncated
    )


def _require_complete(catalog: PathCatalog) -> None:
    if catalog.truncated:
        raise OracleBudgetError("instance too large for oracle")


def _select_paths(paths: Sequence[Path], k: int, d: int) -> list[Path] | None:
    """First k paths in catalog order pairwise >= d apart, via the kernel.

    Distinct s-t paths of a DAG have distinct arc sets, so mapping each
    chosen mask back to its path is one-to-one.
    """
    by_mask = {sum(1 << aid for aid in p.arcs): p for p in paths}
    chosen = select_dissimilar_color_sets(list(by_mask), k, d)
    return None if chosen is None else [by_mask[m] for m in chosen]


def brute_farthest(
    dag: SpDag, refs: Sequence[Path], q: int, budget: int = 10**5
) -> Path | None:
    """First catalog path at distance >= q from every reference path."""
    catalog = enumerate_st_paths(dag, budget)
    _require_complete(catalog)
    for p in catalog.paths:
        if all(hamming_distance(p, ref) >= q for ref in refs):
            return p
    return None


def brute_ball(
    dag: SpDag, center: Path, q: int, r: int, d: int, budget: int = 10**5
) -> list[Path] | None:
    """r paths within distance q of center, pairwise at distance >= d."""
    if r == 0:
        return []
    catalog = enumerate_st_paths(dag, budget)
    _require_complete(catalog)
    ball = [p for p in catalog.paths if hamming_distance(p, center) <= q]
    return _select_paths(ball, r, d)


def brute_solve(
    dag: SpDag, k: int, d: int, budget: int = 10**5
) -> list[Path] | None:
    """k shortest paths pairwise at distance >= d, or None.

    At d = 0 paths need not be distinct, so any s-t path answers yes.
    """
    if k == 0:
        return []
    catalog = enumerate_st_paths(dag, budget)
    _require_complete(catalog)
    return _select_paths(catalog.paths, k, d)


def brute_max_min(dag: SpDag, k: int, budget: int = 10**5) -> float:
    """Max over k-subsets of the min pairwise distance (inf for k <= 1)."""
    catalog = enumerate_st_paths(dag, budget)
    _require_complete(catalog)
    if k <= 1:
        return math.inf if catalog.paths else -math.inf
    if len(catalog.paths) < k:
        return -math.inf
    # Feasibility is antitone in d and distinct paths are >= 1 apart, so
    # the last d that still selects k paths is the max-min distance.
    d = 1
    while _select_paths(catalog.paths, k, d + 1) is not None:
        d += 1
    return d


def minimal_bypass_decomposition(
    dag: SpDag, center: Path, other: Path
) -> list[MinimalBypass]:
    """Split center XOR other into its minimal components.

    Scans both paths from s, emitting one component per maximal stretch on
    which they differ; the union of components is the symmetric difference
    and component windows overlap at most at their endpoint vertices.
    """
    if not dag.is_st_path(center) or not dag.is_st_path(other):
        raise ValueError("both inputs must be s-t paths of the dag")
    common = set(dag.path_vertices(center)) & set(dag.path_vertices(other))
    components: list[MinimalBypass] = []
    ci = oi = 0
    v = 1
    while v != dag.n:
        ca, oa = center.arcs[ci], other.arcs[oi]
        if ca == oa:
            v = dag.arc_by_id[ca].head
            ci += 1
            oi += 1
            continue
        start = v
        arcs: set[int] = set()
        while True:
            arc = dag.arc_by_id[center.arcs[ci]]
            arcs.add(arc.id)
            ci += 1
            if arc.head in common:
                end = arc.head
                break
        while True:
            arc = dag.arc_by_id[other.arcs[oi]]
            arcs.add(arc.id)
            oi += 1
            if arc.head in common:
                assert arc.head == end
                break
        components.append(MinimalBypass(arcs=frozenset(arcs), window=(start, end)))
        v = end
    return components
