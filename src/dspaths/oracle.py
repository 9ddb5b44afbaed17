"""Exact engine behind the oracle and hybrid solver modes.

It enumerates every s-t path of a shortest-path DAG, each with its
arc-set mask, and decides an instance over that catalog.  The selection
step, k paths whose arc sets are pairwise >= d apart, is the same kernel
the ball search uses (``colorcode.select_dissimilar_color_sets``) run on
the paths' masks.  The kernel is given the catalog farthest first from its
first path, so a certificate is the first k paths in that far-first order
that are pairwise >= d apart.  Exactness matters here; speed is
secondary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .colorcode import select_dissimilar_color_sets
from .graph import Path, SpDag


class OracleBudgetError(RuntimeError):
    """Enumeration exceeded its budget; the instance is too large here."""


@dataclass(frozen=True)
class PathCatalog:
    """All s-t paths of a dag in deterministic (lexicographic arc-id) order,
    with masks[i] the arc-set mask of paths[i] (arc id a is bit a)."""

    paths: tuple[Path, ...]
    masks: tuple[int, ...]
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
    depth is not bounded by the interpreter's recursion limit.  The
    prefix's arc-set mask is updated on every push and pop.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    # s == t makes the empty path the only s-t path.
    paths: list[Path] = [Path(())] if dag.n == 1 else []
    masks: list[int] = [0] if dag.n == 1 else []
    truncated = False
    prefix: list[int] = []
    mask = 0
    stack = [] if dag.n == 1 else [iter(dag.outgoing[1])]
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
        if len(paths) >= budget:
            truncated = True
            break
        paths.append(Path(tuple(prefix)))
        masks.append(mask)
        mask ^= 1 << prefix.pop()
    return PathCatalog(paths=tuple(paths), masks=tuple(masks), truncated=truncated)


def _require_complete(catalog: PathCatalog) -> None:
    if catalog.truncated:
        raise OracleBudgetError("instance too large for oracle")


def _select_paths(
    paths: Sequence[Path], masks: Sequence[int], k: int, d: int
) -> list[Path] | None:
    """First k paths in the order given pairwise >= d apart, via the kernel.

    Distinct s-t paths of a DAG have distinct arc sets, so mapping each
    chosen mask back to its path is one-to-one.
    """
    chosen = select_dissimilar_color_sets(masks, k, d)
    if chosen is None:
        return None
    by_mask = dict(zip(masks, paths))
    return [by_mask[m] for m in chosen]


def brute_solve(
    dag: SpDag, k: int, d: int, budget: int = 10**5
) -> list[Path] | None:
    """k shortest paths pairwise at distance >= d, or None.

    The answer is the first k paths pairwise >= d apart in far-first
    order: the catalog stably sorted by descending distance from its first
    path, the lexicographically smallest one (also the greedy phase's
    first path).  Far paths are the likely members of a d-apart set, so
    the kernel finds one early; whether one exists does not depend on the
    order.  At d = 0 paths need not be distinct, so any s-t path answers
    yes.
    """
    if k == 0:
        return []
    catalog = enumerate_st_paths(dag, budget)
    _require_complete(catalog)
    first = catalog.masks[0]
    order = sorted(
        range(len(catalog.masks)),
        key=lambda i: (catalog.masks[i] ^ first).bit_count(),
        reverse=True,
    )
    return _select_paths(
        [catalog.paths[i] for i in order], [catalog.masks[i] for i in order], k, d
    )
