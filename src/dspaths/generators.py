"""Instance generators: grid and layered DAG families, and the bin-packing
reduction that produces hard unit-weight instances together with a
path decomposition of width at most 4.

The reduction chains hub-to-hub segments of uniform arc length M: first
2k-2 blocks of k parallel routes, then one gadget per item.  An item
gadget offers 2k-2 parallel routes plus a branch that forks after a_i
shared arcs; items equal to the capacity get a single dedicated route
instead (a fork would need negative-length continuations).  Items larger
than the capacity are rejected, because the gadget has no route for them.
Every s-t path has exactly (n + 2k-2) * M arcs, so all of them are shortest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .graph import WEIGHT_SCALE, Arc, ArcWeightedDigraph


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class BinPackingInstance:
    items: tuple[int, ...]
    bins: int
    capacity: int

    def validate(self) -> None:
        """Raise GeneratorError unless this is an input the reduction encodes.

        The rules are checked in this order, and the first one broken is the
        one reported: bins >= 2; items nonempty; every item positive; item
        sum == bins * capacity; every item <= capacity.
        """
        if self.bins < 2:
            raise GeneratorError("bins must be at least 2")
        if not self.items:
            raise GeneratorError("items must be nonempty")
        if any(a < 1 for a in self.items):
            raise GeneratorError("items must be positive")
        if sum(self.items) != self.bins * self.capacity:
            raise GeneratorError("item sum must equal bins * capacity")
        if any(a > self.capacity for a in self.items):
            raise GeneratorError("item exceeds capacity")


@dataclass(frozen=True)
class GeneratedInstance:
    graph: ArcWeightedDigraph
    ask_k: int
    ask_d: int
    meta: dict
    decomposition: tuple[tuple[int, ...], ...] | None


class _Builder:
    def __init__(self) -> None:
        self.n = 0
        self.arcs: list[tuple[int, int]] = []

    def vertex(self) -> int:
        self.n += 1
        return self.n

    def arc(self, u: int, v: int) -> None:
        self.arcs.append((u, v))

    def chain(self, length: int) -> tuple[int, int, list[int]]:
        """A directed path of `length` arcs; returns (first, last, vertices)."""
        first = self.vertex()
        verts = [first]
        v = first
        for _ in range(length):
            w = self.vertex()
            self.arc(v, w)
            verts.append(w)
            v = w
        return first, v, verts

    def graph(self, s: int, t: int) -> ArcWeightedDigraph:
        arcs = tuple(
            Arc(i, u, v, WEIGHT_SCALE) for i, (u, v) in enumerate(self.arcs)
        )
        return ArcWeightedDigraph(n=self.n, arcs=arcs, s=s, t=t)


def gen_grid(w: int, h: int) -> ArcWeightedDigraph:
    """(w+1) x (h+1) lattice with unit east/south arcs, corner to corner."""
    if w < 1 or h < 1:
        raise GeneratorError("grid dimensions must be at least 1")
    cols = w + 1

    def vid(row: int, col: int) -> int:
        return row * cols + col + 1

    arcs: list[Arc] = []
    for row in range(h + 1):
        for col in range(cols):
            if col < w:
                arcs.append(Arc(len(arcs), vid(row, col), vid(row, col + 1), WEIGHT_SCALE))
            if row < h:
                arcs.append(Arc(len(arcs), vid(row, col), vid(row + 1, col), WEIGHT_SCALE))
    return ArcWeightedDigraph(
        n=(w + 1) * (h + 1), arcs=tuple(arcs), s=1, t=(w + 1) * (h + 1)
    )


def gen_layered(
    layers: int, width: int, arc_prob: float, seed: int
) -> ArcWeightedDigraph:
    """Random layered DAG with unit weights, re-sampled until t is reachable."""
    if layers < 1 or width < 1:
        raise GeneratorError("layers and width must be at least 1")
    if not 0 < arc_prob <= 1:
        raise GeneratorError("arc_prob must be in (0, 1]")
    rng = random.Random(seed)
    n = 2 + layers * width
    t = n

    def layer_vertices(layer: int) -> range:
        base = 2 + (layer - 1) * width
        return range(base, base + width)

    for _ in range(100_000):
        pairs: list[tuple[int, int]] = []
        for v in layer_vertices(1):
            if rng.random() < arc_prob:
                pairs.append((1, v))
        for layer in range(1, layers):
            for u in layer_vertices(layer):
                for v in layer_vertices(layer + 1):
                    if rng.random() < arc_prob:
                        pairs.append((u, v))
        for u in layer_vertices(layers):
            if rng.random() < arc_prob:
                pairs.append((u, t))
        # The pairs run layer by layer, so one pass in order finds every
        # vertex that s reaches.
        seen = {1}
        for u, v in pairs:
            if u in seen:
                seen.add(v)
        if t in seen:
            arcs = tuple(
                Arc(i, u, v, WEIGHT_SCALE) for i, (u, v) in enumerate(pairs)
            )
            return ArcWeightedDigraph(n=n, arcs=arcs, s=1, t=t)
    raise GeneratorError("could not sample a connected layered graph")


def _path_bags(vertices: Sequence[int]) -> list[set[int]]:
    if len(vertices) == 1:
        return [set(vertices)]
    return [{vertices[i], vertices[i + 1]} for i in range(len(vertices) - 1)]


def gen_binpack(inst: BinPackingInstance) -> GeneratedInstance:
    """Reduce a bin-packing instance to a dissimilar-shortest-paths instance.

    The graph admits 2k shortest s-t paths with pairwise distance at least
    2*ell - 2M exactly when the items pack into k bins of equal sum M.
    Item values are doubled (with M) whenever a fork continuation would
    need negative length.
    """
    inst.validate()
    items = list(inst.items)
    k = inst.bins
    m_cap = inst.capacity
    doubled = False
    if any(m_cap - a - 2 < 0 for a in items):
        items = [2 * a for a in items]
        m_cap *= 2
        doubled = True

    n_items = len(items)
    b = _Builder()
    bags: list[set[int]] = []

    s = b.vertex()
    hub = s
    for _ in range(2 * k - 2):
        nxt = b.vertex()
        block_bags: list[set[int]] = []
        for _ in range(k):
            first, last, verts = b.chain(m_cap - 2)
            b.arc(hub, first)
            b.arc(last, nxt)
            block_bags.extend(_path_bags(verts))
        for bag in block_bags:
            bag.update((hub, nxt))
        bags.extend(block_bags)
        hub = nxt

    for a in items:
        qi = b.vertex()
        block_bags = []
        extra: set[int] = {hub, qi}
        for _ in range(2 * k - 2):
            first, last, verts = b.chain(m_cap - 2)
            b.arc(hub, first)
            b.arc(last, qi)
            block_bags.extend(_path_bags(verts))
        if a == m_cap:
            # Dedicated full-length route; the designated path pair shares
            # all M of its arcs.
            first, last, verts = b.chain(m_cap - 2)
            b.arc(hub, first)
            b.arc(last, qi)
            block_bags.extend(_path_bags(verts))
        else:
            q_first, q_last, q_verts = b.chain(a - 1)
            b.arc(hub, q_first)
            fork = q_last
            extra.add(fork)
            if len(q_verts) > 1:
                block_bags.extend(_path_bags(q_verts[:-1]))
            for _ in range(2):
                c_first, c_last, c_verts = b.chain(m_cap - a - 2)
                b.arc(fork, c_first)
                b.arc(c_last, qi)
                block_bags.extend(_path_bags(c_verts))
        for bag in block_bags:
            bag.update(extra)
        bags.extend(block_bags)
        hub = qi

    graph = b.graph(s=s, t=hub)
    ell = (n_items + 2 * k - 2) * m_cap
    path_count = k ** (2 * k - 2)
    for a in items:
        path_count *= (2 * k - 1) if a == m_cap else 2 * k
    meta = {
        "ell": ell,
        "capacity": m_cap,
        "items": tuple(items),
        "bins": k,
        "n_items": n_items,
        "doubled": doubled,
        "path_count": path_count,
    }
    return GeneratedInstance(
        graph=graph,
        ask_k=2 * k,
        ask_d=2 * ell - 2 * m_cap,
        meta=meta,
        decomposition=tuple(tuple(sorted(bag)) for bag in bags),
    )


def sidecar_dict(inst: GeneratedInstance) -> dict:
    """Sidecar JSON document written next to generated graph files."""
    return {
        "ask_k": inst.ask_k,
        "ask_d": inst.ask_d,
        "ell": inst.meta.get("ell"),
        "doubled": inst.meta.get("doubled", False),
        "decomposition": [list(bag) for bag in inst.decomposition]
        if inst.decomposition is not None
        else None,
    }
