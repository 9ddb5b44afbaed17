"""Exact engine that the hybrid solver mode runs on few shortest paths.

It enumerates the arc-set mask of every s-t path of a shortest-path DAG
and decides an instance over those masks.  The enumeration is a suffix DP
in reverse topological order, so a chain shared by many paths is walked
once, not once per path, and no path is built as an arc sequence.  The
selection step, k paths whose arc sets are pairwise >= d apart, is the
same kernel the ball search uses (``colorcode.select_dissimilar_color_sets``)
run on the masks.  The kernel is given the masks farthest first from the
first path, so a certificate is the first k paths in that far-first order
that are pairwise >= d apart; only those k masks are decoded into paths
(``path_of_mask``).  Exactness matters here; speed is secondary.  The
enumeration is complete: ``solver.solve`` counts the paths with
``count_st_paths`` first and alone decides whether the oracle runs, so
nothing here stops early.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .colorcode import select_dissimilar_color_sets
from .graph import Path, SpDag


@dataclass(frozen=True)
class PathCatalog:
    """The arc-set masks of all s-t paths of a dag (arc id a is bit a), in
    the lexicographic arc-id order of the paths.  Distinct s-t paths of a
    DAG have distinct arc sets, so each mask stands for one path; ``paths``
    decodes all of them, on first use."""

    dag: SpDag
    masks: tuple[int, ...]

    @cached_property
    def paths(self) -> tuple[Path, ...]:
        return tuple([path_of_mask(self.dag, m) for m in self.masks])


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
    """The arc-set masks of every s-t path, by a suffix DP.

    Vertices are taken in reverse topological order.  ``suffix[v]`` is a
    pair ``(bits, masks)``: the v-t paths are ``bits | m`` for each m in
    masks.  A vertex with one outgoing arc ORs that arc's bit into its
    head's ``bits`` and shares the head's list, so a chain costs one step
    per arc whatever the number of paths through it.  A vertex with
    several outgoing arcs concatenates, arc by arc in id order, each
    head's paths with the arc's bit, which keeps the masks in the
    lexicographic arc-id order of their paths.  A vertex's entry is
    dropped once its last predecessor has read it.
    """
    outgoing = dag.outgoing
    unread = [len(arcs) for arcs in dag.incoming]
    suffix: list[tuple[int, list[int]] | None] = [None] * (dag.n + 1)
    suffix[dag.n] = (0, [0])  # the empty t-t path
    for v in range(dag.n - 1, 0, -1):
        arcs = outgoing[v]
        if len(arcs) == 1:
            bits, masks = suffix[arcs[0].head]
            suffix[v] = (bits | 1 << arcs[0].id, masks)
        else:
            masks = []
            for arc in arcs:
                bits, head_masks = suffix[arc.head]
                bits |= 1 << arc.id
                masks += [bits | m for m in head_masks]
            suffix[v] = (0, masks)
        for arc in arcs:
            unread[arc.head] -= 1
            if not unread[arc.head]:
                suffix[arc.head] = None
    bits, masks = suffix[1]
    return PathCatalog(dag, tuple([bits | m for m in masks]) if bits else tuple(masks))


def path_of_mask(dag: SpDag, mask: int) -> Path:
    """The s-t path whose arc-set mask is mask: from s, take the arc of
    the mask out of each vertex.  Raises ``ValueError`` if mask is not the
    arc set of an s-t path of the dag.  The mask's bits are read once,
    into a digit string, so a path costs its width plus its length, not
    their product."""
    bits = f"{mask:0{dag.base.m}b}"[::-1]  # bits[a] is bit a of mask
    t, outgoing = dag.n, dag.outgoing
    arcs: list[int] = []
    v = 1
    while v != t:
        for arc in outgoing[v]:
            if bits[arc.id] == "1":
                break
        else:
            raise ValueError(f"mask leaves vertex {v} by no arc")
        arcs.append(arc.id)
        v = arc.head
    if len(arcs) != mask.bit_count():
        raise ValueError("mask holds arcs off its s-t path")
    return tuple(arcs)


def brute_solve(dag: SpDag, k: int, d: int) -> list[Path] | None:
    """k shortest paths pairwise at distance >= d, or None.

    The answer is the first k paths pairwise >= d apart in far-first
    order: the catalog stably sorted by descending distance from its first
    path, the lexicographically smallest one (also the greedy phase's
    first path).  Far paths are the likely members of a d-apart set, so
    the kernel finds one early; whether one exists does not depend on the
    order.  At d = 0 paths need not be distinct, so any s-t path answers
    yes.  Only the chosen masks are decoded, each distinct one once.
    Raises ``ValueError`` on a negative k or d, as ``solver.solve`` does.
    """
    if k < 0 or d < 0:
        raise ValueError("k and d must be nonnegative")
    if k == 0:
        return []
    catalog = enumerate_st_paths(dag)
    first = catalog.masks[0]
    masks = sorted(catalog.masks, key=lambda m: (m ^ first).bit_count(), reverse=True)
    chosen = select_dissimilar_color_sets(masks, k, d)
    if chosen is None:
        return None
    paths = {m: path_of_mask(dag, m) for m in set(chosen)}
    return [paths[m] for m in chosen]
