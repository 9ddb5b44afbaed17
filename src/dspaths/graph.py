"""Input graph model, file parsing, shortest-path DAG preprocessing, and
arc-set Hamming distance.

Weights are read as decimal text and scaled to exact integers (factor
10**6) so that the tight-arc test of the preprocessing step is an exact
integer comparison.  All types are immutable after construction.
"""

from __future__ import annotations

import hashlib
import heapq
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

WEIGHT_SCALE = 10**6

_WEIGHT_RE = re.compile(r"^(\d+)(?:\.(\d{1,6}))?$")


class GraphParseError(ValueError):
    """Malformed graph file; message names the offending line."""


class NoShortestPathError(ValueError):
    """Raised when t is unreachable from s."""


class Arc(NamedTuple):
    id: int
    tail: int
    head: int
    weight: int  # scaled by WEIGHT_SCALE, always > 0


@dataclass(frozen=True)
class ArcWeightedDigraph:
    """Directed graph with positive arc weights and two terminals.

    Vertices are 1..n.  Arc ids are 0..m-1 in input order; parallel arcs
    are permitted and distinguished by id.
    """

    n: int
    arcs: tuple[Arc, ...]
    s: int
    t: int

    @property
    def m(self) -> int:
        return len(self.arcs)

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        if not (1 <= self.s <= self.n and 1 <= self.t <= self.n):
            raise ValueError("terminal out of range")
        seen = set()
        for arc in self.arcs:
            if arc.weight <= 0:
                raise ValueError(f"arc {arc.id}: non-positive weight")
            if not (1 <= arc.tail <= self.n and 1 <= arc.head <= self.n):
                raise ValueError(f"arc {arc.id}: endpoint out of range")
            if arc.id in seen:
                raise ValueError(f"duplicate arc id {arc.id}")
            seen.add(arc.id)


@dataclass(frozen=True)
class Path:
    """An s-v path as an ordered arc-id sequence."""

    arcs: tuple[int, ...]

    @cached_property
    def arc_set(self) -> frozenset[int]:
        return frozenset(self.arcs)

    def __len__(self) -> int:
        return len(self.arcs)


def hamming_distance(p: Path, p2: Path) -> int:
    """Cardinality of the symmetric difference of the two arc sets."""
    return len(p.arc_set ^ p2.arc_set)


def _parse_weight(token: str) -> int:
    m = _WEIGHT_RE.match(token)
    if m is None:
        raise ValueError(f"bad weight {token!r}")
    whole, frac = m.group(1), m.group(2) or ""
    return int(whole) * WEIGHT_SCALE + (int(frac.ljust(6, "0")) if frac else 0)


def parse_graph(source: str | Iterable[str]) -> ArcWeightedDigraph:
    """Parse the line-oriented graph format.

    Lines: ``p dsp <n> <m>`` header (first non-comment line, exactly once),
    ``s <id>`` and ``t <id>`` terminals (exactly once each), and exactly m
    ``a <tail> <head> <weight>`` arc lines.  ``#`` starts a comment.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    n = m = None
    s = t = None
    arcs: list[Arc] = []

    def fail(lineno: int, msg: str) -> GraphParseError:
        return GraphParseError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if n is None and kind != "p":
            raise fail(lineno, "expected 'p dsp <n> <m>' header first")
        if kind == "p":
            if n is not None:
                raise fail(lineno, "duplicate header")
            if len(fields) != 4 or fields[1] != "dsp":
                raise fail(lineno, "malformed header")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise fail(lineno, "malformed header") from None
            if n < 1 or m < 0:
                raise fail(lineno, "header counts out of range")
        elif kind in ("s", "t"):
            if len(fields) != 2:
                raise fail(lineno, f"malformed '{kind}' line")
            try:
                v = int(fields[1])
            except ValueError:
                raise fail(lineno, f"malformed '{kind}' line") from None
            if not 1 <= v <= n:
                raise fail(lineno, f"vertex id {v} out of range")
            if kind == "s":
                if s is not None:
                    raise fail(lineno, "duplicate 's' line")
                s = v
            else:
                if t is not None:
                    raise fail(lineno, "duplicate 't' line")
                t = v
        elif kind == "a":
            if len(fields) != 4:
                raise fail(lineno, "malformed arc line")
            try:
                tail, head = int(fields[1]), int(fields[2])
            except ValueError:
                raise fail(lineno, "malformed arc line") from None
            if not (1 <= tail <= n and 1 <= head <= n):
                raise fail(lineno, "vertex id out of range")
            try:
                weight = _parse_weight(fields[3])
            except ValueError as exc:
                raise fail(lineno, str(exc)) from None
            if weight <= 0:
                raise fail(lineno, "non-positive weight")
            if len(arcs) >= m:
                raise fail(lineno, f"more than {m} arc lines")
            arcs.append(Arc(len(arcs), tail, head, weight))
        else:
            raise fail(lineno, f"unknown line type {kind!r}")

    if n is None:
        raise GraphParseError("missing 'p dsp' header")
    if s is None or t is None:
        raise GraphParseError("missing 's' or 't' line")
    if len(arcs) != m:
        raise GraphParseError(f"expected {m} arcs, found {len(arcs)}")
    g = ArcWeightedDigraph(n=n, arcs=tuple(arcs), s=s, t=t)
    g.validate()
    return g


def format_weight(scaled: int) -> str:
    whole, frac = divmod(scaled, WEIGHT_SCALE)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:06d}".rstrip("0")


def format_graph(g: ArcWeightedDigraph) -> str:
    """Serialize a graph in the file format accepted by parse_graph."""
    out = [f"p dsp {g.n} {g.m}", f"s {g.s}", f"t {g.t}"]
    out.extend(f"a {a.tail} {a.head} {format_weight(a.weight)}" for a in g.arcs)
    return "\n".join(out) + "\n"


def graph_hash(g: ArcWeightedDigraph) -> str:
    """Content digest of a graph, stable across runs."""
    payload = f"{g.n} {g.m} {g.s} {g.t};" + ";".join(
        f"{a.id},{a.tail},{a.head},{a.weight}" for a in g.arcs
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class SpDag:
    """Shortest-path DAG of an input graph.

    Vertices are renumbered 1..n in topological order (so s = 1 and
    t = n, the unique source and sink); ``orig_vertex`` maps back to the
    input numbering.  Arc ids are the original input ids, so Hamming
    distances and certificates are expressed in terms of the input file.
    """

    base: ArcWeightedDigraph
    dist: tuple[int, ...]  # dist[v - 1] = shortest distance from s
    orig_vertex: tuple[int, ...]  # orig_vertex[v - 1] = input vertex id

    @property
    def n(self) -> int:
        return self.base.n

    @cached_property
    def arc_by_id(self) -> dict[int, Arc]:
        return {a.id: a for a in self.base.arcs}

    @cached_property
    def incoming(self) -> tuple[tuple[Arc, ...], ...]:
        inc: list[list[Arc]] = [[] for _ in range(self.n + 1)]
        for a in self.base.arcs:
            inc[a.head].append(a)
        return tuple(tuple(sorted(l, key=lambda a: a.id)) for l in inc)

    @cached_property
    def outgoing(self) -> tuple[tuple[Arc, ...], ...]:
        out: list[list[Arc]] = [[] for _ in range(self.n + 1)]
        for a in self.base.arcs:
            out[a.tail].append(a)
        return tuple(tuple(sorted(l, key=lambda a: a.id)) for l in out)

    def path_vertices(self, p: Path) -> list[int]:
        """Vertex sequence of a path starting at s; raises if arcs do not chain."""
        v = 1
        verts = [v]
        for aid in p.arcs:
            arc = self.arc_by_id.get(aid)
            if arc is None or arc.tail != v:
                raise ValueError(f"arc {aid} does not extend path at vertex {v}")
            v = arc.head
            verts.append(v)
        return verts

    def is_st_path(self, p: Path) -> bool:
        try:
            verts = self.path_vertices(p)
        except ValueError:
            return False
        return verts[-1] == self.n and len(set(verts)) == len(verts)


def shortest_distances(g: ArcWeightedDigraph) -> list[int | None]:
    """Dijkstra from g.s: ``dist[v]`` is the shortest s-v distance, or None
    if v is unreachable (index 0 is unused)."""
    out: list[list[Arc]] = [[] for _ in range(g.n + 1)]
    for a in g.arcs:
        out[a.tail].append(a)
    dist: list[int | None] = [None] * (g.n + 1)
    pq: list[tuple[int, int]] = [(0, g.s)]
    while pq:
        d, v = heapq.heappop(pq)
        if dist[v] is not None:
            continue
        dist[v] = d
        for a in out[v]:
            if dist[a.head] is None:
                heapq.heappush(pq, (d + a.weight, a.head))
    return dist


def build_sp_dag(g: ArcWeightedDigraph) -> SpDag:
    """Restrict g to arcs and vertices lying on some shortest s-t path.

    Keeps exactly the arcs (u, v) with dist(v) = dist(u) + weight and the
    vertices on some tight s-t chain; the s-t paths of the result are
    exactly the shortest s-t paths of g.
    """
    dist = shortest_distances(g)
    if dist[g.t] is None:
        raise NoShortestPathError("no shortest path exists")

    tight = [
        a
        for a in g.arcs
        if dist[a.tail] is not None and dist[a.head] == dist[a.tail] + a.weight
    ]

    # Vertices must be reachable from s and co-reachable to t over tight arcs.
    fwd = {g.s}
    stack = [g.s]
    out_adj: dict[int, list[int]] = {}
    in_adj: dict[int, list[int]] = {}
    for a in tight:
        out_adj.setdefault(a.tail, []).append(a.head)
        in_adj.setdefault(a.head, []).append(a.tail)
    while stack:
        v = stack.pop()
        for w in out_adj.get(v, ()):
            if w not in fwd:
                fwd.add(w)
                stack.append(w)
    bwd = {g.t}
    stack = [g.t]
    while stack:
        v = stack.pop()
        for w in in_adj.get(v, ()):
            if w not in bwd:
                bwd.add(w)
                stack.append(w)

    alive = fwd & bwd
    surviving = [a for a in tight if a.tail in alive and a.head in alive]

    # Positive weights make dist strictly increase along tight arcs, so
    # ordering by (dist, original id) is a topological order with s first
    # and t last.
    order = sorted(alive, key=lambda v: (dist[v], v))
    renum = {orig: i + 1 for i, orig in enumerate(order)}
    arcs = tuple(
        Arc(a.id, renum[a.tail], renum[a.head], a.weight)
        for a in sorted(surviving, key=lambda a: a.id)
    )
    base = ArcWeightedDigraph(n=len(order), arcs=arcs, s=1, t=len(order))
    return SpDag(
        base=base,
        dist=tuple(dist[v] for v in order),
        orig_vertex=tuple(order),
    )
