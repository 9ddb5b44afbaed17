"""Exact engine behind the oracle and hybrid solver modes.

It enumerates every s-t path of a shortest-path DAG, each with its
arc-set mask, and decides an instance over that catalog.  The selection
step, k paths whose arc sets are pairwise >= d apart, is the same kernel
the ball search uses (``colorcode.select_dissimilar_color_sets``) run on
the paths' masks.  The kernel is given the catalog farthest first from its
first path, so a certificate is the first k paths in that far-first order
that are pairwise >= d apart.  Exactness matters here; speed is
secondary.  The enumeration is complete: ``solver.solve`` counts the
paths with ``count_st_paths`` first and alone decides whether the oracle
runs, so nothing here stops early.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colorcode import select_dissimilar_color_sets
from .graph import Path, SpDag


@dataclass(frozen=True)
class PathCatalog:
    """All s-t paths of a dag in deterministic (lexicographic arc-id) order,
    with masks[i] the arc-set mask of paths[i] (arc id a is bit a)."""

    paths: tuple[Path, ...]
    masks: tuple[int, ...]


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


def enumerate_st_paths(dag: SpDag) -> PathCatalog:
    """Depth-first enumeration of every s-t path in arc-id order.

    The walk keeps an explicit stack of outgoing-arc iterators, so its
    depth is not bounded by the interpreter's recursion limit.  The
    prefix's arc-set mask is updated on every push and pop.
    """
    if dag.n == 1:  # s == t: the empty path is the only s-t path
        return PathCatalog(paths=(Path(()),), masks=(0,))
    paths: list[Path] = []
    masks: list[int] = []
    prefix: list[int] = []
    mask = 0
    stack = [iter(dag.outgoing[1])]
    while stack:
        arc = next(stack[-1], None)
        if arc is None:
            stack.pop()
            if prefix:
                mask ^= 1 << prefix.pop()
            continue
        prefix.append(arc.id)
        mask ^= 1 << arc.id
        if arc.head != dag.n:
            stack.append(iter(dag.outgoing[arc.head]))
            continue
        paths.append(Path(tuple(prefix)))
        masks.append(mask)
        mask ^= 1 << prefix.pop()
    return PathCatalog(paths=tuple(paths), masks=tuple(masks))


def brute_solve(dag: SpDag, k: int, d: int) -> list[Path] | None:
    """k shortest paths pairwise at distance >= d, or None.

    The answer is the first k paths pairwise >= d apart in far-first
    order: the catalog stably sorted by descending distance from its first
    path, the lexicographically smallest one (also the greedy phase's
    first path).  Far paths are the likely members of a d-apart set, so
    the kernel finds one early; whether one exists does not depend on the
    order.  At d = 0 paths need not be distinct, so any s-t path answers
    yes.  Distinct s-t paths of a DAG have distinct arc sets, so mapping
    each chosen mask back to its path is one-to-one.
    """
    if k == 0:
        return []
    catalog = enumerate_st_paths(dag)
    first = catalog.masks[0]
    masks = sorted(catalog.masks, key=lambda m: (m ^ first).bit_count(), reverse=True)
    chosen = select_dissimilar_color_sets(masks, k, d)
    if chosen is None:
        return None
    by_mask = dict(zip(catalog.masks, catalog.paths))
    return [by_mask[m] for m in chosen]
