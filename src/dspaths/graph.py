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
from itertools import compress
from typing import NamedTuple

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

    Vertices are 1..n.  Arc ids are 0..m-1 in input order, so ``arcs[i]``
    is arc i; parallel arcs are permitted and distinguished by id.
    """

    n: int
    arcs: tuple[Arc, ...]
    s: int
    t: int

    @property
    def m(self) -> int:
        return len(self.arcs)


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


def parse_graph(text: str) -> ArcWeightedDigraph:
    """Parse the line-oriented graph format.

    Lines: ``p dsp <n> <m>`` header (first non-comment line, exactly once),
    ``s <id>`` and ``t <id>`` terminals (exactly once each), and exactly m
    ``a <tail> <head> <weight>`` arc lines.  ``#`` starts a comment.
    Every rule on counts, ids and weights is checked here, with the line
    that breaks it.
    """
    n = m = None
    s = t = None
    arcs: list[Arc] = []
    weights: dict[str, int] = {}  # weight token -> scaled weight

    def fail(lineno: int, msg: str) -> GraphParseError:
        return GraphParseError(f"line {lineno}: {msg}")

    new = tuple.__new__  # an Arc without the named tuple's Python-level __new__
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        fields = raw.split()
        if not fields:
            continue
        kind = fields[0]
        # Arc lines are nearly all of a file: test them first, once the
        # header is read.
        if kind == "a" and n is not None:
            if len(fields) != 4:
                raise fail(lineno, "malformed arc line")
            try:
                tail, head = int(fields[1]), int(fields[2])
            except ValueError:
                raise fail(lineno, "malformed arc line") from None
            if not (1 <= tail <= n and 1 <= head <= n):
                raise fail(lineno, "vertex id out of range")
            token = fields[3]
            weight = weights.get(token)
            if weight is None:
                try:
                    weight = weights[token] = _parse_weight(token)
                except ValueError as exc:
                    raise fail(lineno, str(exc)) from None
            if weight <= 0:
                raise fail(lineno, "non-positive weight")
            if len(arcs) >= m:
                raise fail(lineno, f"more than {m} arc lines")
            arcs.append(new(Arc, (len(arcs), tail, head, weight)))
        elif n is None and kind != "p":
            raise fail(lineno, "expected 'p dsp <n> <m>' header first")
        elif kind == "p":
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
        else:
            raise fail(lineno, f"unknown line type {kind!r}")

    if n is None:
        raise GraphParseError("missing 'p dsp' header")
    if s is None or t is None:
        raise GraphParseError("missing 's' or 't' line")
    if len(arcs) != m:
        raise GraphParseError(f"expected {m} arcs, found {len(arcs)}")
    return ArcWeightedDigraph(n=n, arcs=tuple(arcs), s=s, t=t)


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
        "%d,%d,%d,%d" % a for a in g.arcs
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class SpDag:
    """Shortest-path DAG of an input graph.

    Vertices are renumbered 1..n in topological order (so s = 1 and
    t = n, the unique source and sink).  The surviving arcs are numbered
    0..m-1 in ascending input id, so ``base.arcs[i]`` is arc i, and
    ``input_arc[i]`` is its id in the input file.  Every path the
    package computes on a dag (``farthest_path``, ``greedy_phase``,
    ``ball_search``, ``brute_solve``) is in this numbering; ``solve``
    maps its answer back to input ids once.  The renumbering is monotone,
    so every smallest-id tie-break is the same in either numbering.
    Each tuple of ``incoming`` and ``outgoing`` is in ascending id order.
    ``dist`` is the list ``shortest_distances`` returns for the input
    graph, in input vertex ids: the s-v distance, or None where v is
    unreachable.  ``solve`` hands it to ``verify_certificate``, so a solve
    runs one Dijkstra.
    """

    base: ArcWeightedDigraph
    input_arc: tuple[int, ...]  # input_arc[i] = input id of arc i
    dist: list[int | None]  # dist[v] for input vertex v; index 0 unused

    @property
    def n(self) -> int:
        return self.base.n

    @cached_property
    def incoming(self) -> tuple[tuple[Arc, ...], ...]:
        inc: list[list[Arc]] = [[] for _ in range(self.n + 1)]
        for a in self.base.arcs:
            inc[a.head].append(a)
        return tuple(map(tuple, inc))

    @cached_property
    def outgoing(self) -> tuple[tuple[Arc, ...], ...]:
        out: list[list[Arc]] = [[] for _ in range(self.n + 1)]
        for a in self.base.arcs:
            out[a.tail].append(a)
        return tuple(map(tuple, out))

    @cached_property
    def first_out(self) -> list[Arc | None]:
        """Each vertex's smallest-id out-arc, None at t.  Sweeping the arcs
        in descending id leaves each vertex its smallest-id out-arc, so
        ``outgoing`` is not built."""
        first: list[Arc | None] = [None] * (self.n + 1)
        for arc in reversed(self.base.arcs):
            first[arc.tail] = arc
        return first

    def path_vertices(self, p: Path) -> list[int]:
        """Vertex sequence of a path starting at s; raises if arcs do not chain."""
        v = 1
        verts = [v]
        arcs = self.base.arcs
        for aid in p.arcs:
            if not 0 <= aid < len(arcs) or arcs[aid].tail != v:
                raise ValueError(f"arc {aid} does not extend path at vertex {v}")
            v = arcs[aid].head
            verts.append(v)
        return verts


def _dijkstra(
    g: ArcWeightedDigraph,
) -> tuple[list[int | None], list[int], list[list[Arc]]]:
    """Dijkstra from g.s: the distances ``shortest_distances`` returns,
    the reachable vertices in the order the search settles them, and the
    out-arcs of each vertex in ascending id order.

    ``dist`` holds the tentative distances while the search runs.  A
    vertex is pushed only when its tentative distance strictly falls, and
    a popped entry that no longer holds it is skipped; weights are
    positive, so the entry that does pops once, after every shorter one,
    and settles the vertex.  Every push is farther than the entry popped
    before it, so entries pop in (distance, id) order: the settling order.
    """
    out: list[list[Arc]] = [[] for _ in range(g.n + 1)]
    for a in g.arcs:
        out[a.tail].append(a)
    dist: list[int | None] = [None] * (g.n + 1)
    dist[g.s] = 0
    settled: list[int] = []
    pq: list[tuple[int, int]] = [(0, g.s)]
    push, pop = heapq.heappush, heapq.heappop
    while pq:
        d, v = pop(pq)
        if d != dist[v]:
            continue
        settled.append(v)
        for _, _, head, weight in out[v]:
            nd = d + weight
            known = dist[head]
            if known is None or nd < known:
                dist[head] = nd
                push(pq, (nd, head))
    return dist, settled, out


def shortest_distances(g: ArcWeightedDigraph) -> list[int | None]:
    """Dijkstra from g.s: ``dist[v]`` is the shortest s-v distance, or None
    if v is unreachable (index 0 is unused)."""
    return _dijkstra(g)[0]


def build_sp_dag(g: ArcWeightedDigraph) -> SpDag:
    """Restrict g to arcs and vertices lying on some shortest s-t path.

    Keeps exactly the arcs (u, v) with dist(v) = dist(u) + weight and the
    vertices on some tight s-t chain; the s-t paths of the result are
    exactly the shortest s-t paths of g.
    """
    dist, settled, out = _dijkstra(g)
    if dist[g.t] is None:
        raise NoShortestPathError("no shortest path exists")

    # Dijkstra reaches each vertex over a tight arc, so every settled
    # vertex is reachable from s over tight arcs; the live vertices are
    # the ones that also reach t over tight arcs.  Positive weights make
    # dist strictly increase along a tight arc, so the settling order is
    # topological and one sweep against it marks every live vertex after
    # the heads of its tight out-arcs.
    alive = bytearray(g.n + 1)
    alive[g.t] = 1
    keep = bytearray(g.m)
    for v in reversed(settled):
        dv = dist[v]
        for aid, _, head, weight in out[v]:
            if alive[head] and dist[head] == dv + weight:
                keep[aid] = alive[v] = 1
    surviving = list(compress(g.arcs, keep))

    # The settling order, (dist, original id), has s first and t last
    # among the live vertices.
    order = [v for v in settled if alive[v]]
    renum = [0] * (g.n + 1)
    for i, orig in enumerate(order, start=1):
        renum[orig] = i
    # g.arcs, and so the surviving arcs, ascend by input id: numbering
    # them in this order keeps every tie-break on arc ids the same.
    new = tuple.__new__
    arcs = tuple([
        new(Arc, (i, renum[tail], renum[head], weight))
        for i, (_, tail, head, weight) in enumerate(surviving)
    ])
    base = ArcWeightedDigraph(n=len(order), arcs=arcs, s=1, t=len(order))
    return SpDag(base=base, input_arc=tuple([a.id for a in surviving]), dist=dist)
