"""Known answers and the certificate check, independent of dspaths.

Nothing here calls ``dspaths.oracle`` or ``verify_certificate``: graph
files are read with this module's own parser and checked with networkx.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import networkx as nx


class GraphFile:
    """A graph file as the solver reads it: vertices, terminals and arcs
    (id = position among the ``a`` lines)."""

    def __init__(self, text: str):
        self.arcs: list[tuple[int, int, Fraction]] = []
        for raw in text.splitlines():
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            if fields[0] == "p":
                self.n = int(fields[2])
            elif fields[0] == "s":
                self.s = int(fields[1])
            elif fields[0] == "t":
                self.t = int(fields[1])
            elif fields[0] == "a":
                self.arcs.append((int(fields[1]), int(fields[2]), Fraction(fields[3])))
        self.digraph = nx.DiGraph()
        self.digraph.add_nodes_from(range(1, self.n + 1))
        for tail, head, w in self.arcs:
            if not self.digraph.has_edge(tail, head) or w < self.digraph[tail][head]["w"]:
                self.digraph.add_edge(tail, head, w=w)
        self._dist = None

    @property
    def dist(self) -> Fraction:
        if self._dist is None:
            self._dist = nx.shortest_path_length(self.digraph, self.s, self.t, weight="w")
        return self._dist

    def arc_id_paths(self) -> list[frozenset[int]]:
        """Arc-id sets of all shortest s-t paths (requires no parallel arcs)."""
        ids = {}
        for i, (tail, head, _) in enumerate(self.arcs):
            if (tail, head) in ids:
                raise ValueError("parallel arcs: vertex paths do not name arc paths")
            ids[(tail, head)] = i
        return [
            frozenset(ids[(u, v)] for u, v in zip(p, p[1:]))
            for p in nx.all_shortest_paths(self.digraph, self.s, self.t, weight="w")
        ]

    def check_certificate(self, doc: dict, k: int, d: int) -> str | None:
        """None if the certificate holds k shortest s-t paths pairwise at
        least d apart; otherwise the first violation."""
        paths = doc.get("paths")
        if not isinstance(paths, list) or len(paths) != k:
            return f"expected {k} paths, got {paths if not isinstance(paths, list) else len(paths)}"
        for idx, path in enumerate(paths, start=1):
            v, weight = self.s, Fraction(0)
            for aid in path:
                if not isinstance(aid, int) or not 0 <= aid < len(self.arcs):
                    return f"path {idx}: unknown arc {aid!r}"
                tail, head, w = self.arcs[aid]
                if tail != v:
                    return f"path {idx}: arc {aid} does not continue at vertex {v}"
                v, weight = head, weight + w
            if v != self.t:
                return f"path {idx} ends at {v}, not at t={self.t}"
            if weight != self.dist:
                return f"path {idx} has weight {weight}, shortest is {self.dist}"
        sets = [set(p) for p in paths]
        for i, j in itertools.combinations(range(k), 2):
            if len(sets[i] ^ sets[j]) < d:
                return f"paths {i + 1},{j + 1} are {len(sets[i] ^ sets[j])} < {d} apart"
        return None


def binpack_packs(items, bins: int, capacity: int) -> bool:
    """Whether the items split into `bins` bins of sum exactly `capacity`,
    by trying every item-to-bin assignment."""
    for assignment in itertools.product(range(bins), repeat=len(items)):
        sums = [0] * bins
        for item, b in zip(items, assignment):
            sums[b] += item
        if all(x == capacity for x in sums):
            return True
    return False


def has_dissimilar_paths(paths: list[frozenset[int]], k: int, d: int) -> bool:
    """Whether k of the given shortest paths are pairwise at least d apart
    (at d = 0 a path may repeat)."""
    if k == 0:
        return True
    if not paths:
        return False
    if d == 0 or k == 1:
        return True
    return any(
        all(len(a ^ b) >= d for a, b in itertools.combinations(chosen, 2))
        for chosen in itertools.combinations(paths, k)
    )


def known_answer(spec: dict, graph: GraphFile, k: int, d: int) -> str:
    """'yes' or 'no' for one ask on one graph of a workload spec."""
    kind = spec["truth"]
    if kind == "yes":
        # Grids, chains and the fixed layered graphs of greedy-grid are yes
        # by construction; the certificate check is what verifies them.
        return "yes"
    if kind == "binpack":
        p = spec["params"]
        return "yes" if binpack_packs(p["items"], p["bins"], p["capacity"]) else "no"
    if kind == "paths":
        return "yes" if has_dissimilar_paths(graph.arc_id_paths(), k, d) else "no"
    raise ValueError(f"unknown truth kind {kind!r}")
