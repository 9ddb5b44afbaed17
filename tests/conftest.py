import itertools
import random

import pytest

from dspaths.generators import gen_layered
from dspaths.graph import (
    Arc,
    ArcWeightedDigraph,
    Path,
    SpDag,
    WEIGHT_SCALE,
    build_sp_dag,
    parse_graph,
)

DIAMOND_TEXT = """\
p dsp 4 4
s 1
t 4
a 1 2 1
a 1 3 1
a 2 4 1
a 3 4 1
"""

TRIANGLE_TEXT = """\
p dsp 3 3
s 1
t 3
a 1 2 1
a 2 3 1
a 1 3 3
"""


@pytest.fixture
def diamond() -> ArcWeightedDigraph:
    return parse_graph(DIAMOND_TEXT)


@pytest.fixture
def diamond_dag(diamond) -> SpDag:
    return build_sp_dag(diamond)


@pytest.fixture
def upper() -> Path:
    return Path((0, 2))


@pytest.fixture
def lower() -> Path:
    return Path((1, 3))


@pytest.fixture
def triangle() -> ArcWeightedDigraph:
    return parse_graph(TRIANGLE_TEXT)


def unit_chain(n_arcs: int) -> ArcWeightedDigraph:
    """s = 1 -> 2 -> ... -> n_arcs + 1 = t with unit weights."""
    n = n_arcs + 1
    arcs = "".join(f"a {v} {v + 1} 1\n" for v in range(1, n))
    return parse_graph(f"p dsp {n} {n_arcs}\ns 1\nt {n}\n{arcs}")


def parallel_routes(routes: int, length: int, diamonds: int) -> ArcWeightedDigraph:
    """`routes` unit-weight s-t routes that share only s = 1 and t = 2.

    Each route opens with `diamonds` unit diamonds in series and continues
    as a unit chain, so each of its 2**diamonds paths has `length` arcs.
    """
    assert length > 2 * diamonds
    pairs: list[tuple[int, int]] = []
    n = 2
    for _ in range(routes):
        v = 1
        for _ in range(diamonds):
            pairs += [(v, n + 1), (v, n + 2), (n + 1, n + 3), (n + 2, n + 3)]
            v = n = n + 3
        for _ in range(length - 2 * diamonds - 1):
            pairs.append((v, n + 1))
            v = n = n + 1
        pairs.append((v, 2))
    arcs = tuple(Arc(i, u, v, WEIGHT_SCALE) for i, (u, v) in enumerate(pairs))
    return ArcWeightedDigraph(n=n, arcs=arcs, s=1, t=2)


def random_layered_dag(seed: int, max_arcs: int = 12) -> SpDag:
    """Small random shortest-path DAG, deterministic per seed."""
    rng = random.Random(seed)
    for bump in itertools.count():
        layers = rng.randint(1, 3)
        width = rng.randint(1, 3)
        prob = rng.uniform(0.4, 0.9)
        g = gen_layered(layers, width, prob, seed=seed * 1009 + bump)
        dag = build_sp_dag(g)
        if dag.base.m <= max_arcs:
            return dag


def random_multidigraph(rng: random.Random) -> ArcWeightedDigraph:
    """Up to 9 vertices with self-loops, parallel arcs of equal and of
    different weights, dead ends, an unreachable t or s == t."""
    n = rng.randint(2, 9)
    arcs: list[Arc] = []
    for _ in range(rng.randint(0, 4 * n)):
        u, v = rng.randint(1, n), rng.randint(1, n)
        for _ in range(rng.choice((1, 1, 1, 2))):
            w = rng.choice((1, 1, 2, 3)) * WEIGHT_SCALE
            arcs.append(Arc(len(arcs), u, v, w))
    s, t = rng.sample(range(1, n + 1), 2)
    if rng.random() < 0.05:
        t = s
    return ArcWeightedDigraph(n=n, arcs=tuple(arcs), s=s, t=t)


def random_weighted_digraph(seed: int) -> ArcWeightedDigraph:
    """Random weighted digraph (cycles allowed) with t reachable from s."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, 8)
        arcs = []
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u != v and rng.random() < 0.35:
                    w = rng.choice((1, 1, 2, 3)) * WEIGHT_SCALE
                    arcs.append(Arc(len(arcs), u, v, w))
        g = ArcWeightedDigraph(n=n, arcs=tuple(arcs), s=1, t=n)
        if _reachable(g):
            return g


def _reachable(g: ArcWeightedDigraph) -> bool:
    adj: dict[int, list[int]] = {}
    for a in g.arcs:
        adj.setdefault(a.tail, []).append(a.head)
    seen = {g.s}
    stack = [g.s]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return g.t in seen


def raw_st_paths(g: ArcWeightedDigraph) -> list[tuple[tuple[int, ...], int]]:
    """All simple s-t paths of a raw graph with their total weights.

    Independent of the SpDag machinery; used to cross-check preprocessing.
    """
    out_arcs: dict[int, list[Arc]] = {}
    for a in g.arcs:
        out_arcs.setdefault(a.tail, []).append(a)
    for lst in out_arcs.values():
        lst.sort(key=lambda a: a.id)
    results: list[tuple[tuple[int, ...], int]] = []

    def dfs(v, visited, arcs, weight):
        if v == g.t:
            results.append((tuple(arcs), weight))
            return
        for a in out_arcs.get(v, ()):
            if a.head not in visited:
                visited.add(a.head)
                arcs.append(a.id)
                dfs(a.head, visited, arcs, weight + a.weight)
                arcs.pop()
                visited.remove(a.head)

    dfs(g.s, {g.s}, [], 0)
    return results


def binpack_feasible(items: tuple[int, ...], bins: int, capacity: int) -> bool:
    """Exhaustive bin-packing feasibility, independent of the generators."""
    loads = [0] * bins

    def assign(i: int) -> bool:
        if i == len(items):
            return all(load == capacity for load in loads)
        tried = set()
        for b in range(bins):
            if loads[b] in tried or loads[b] + items[i] > capacity:
                continue
            tried.add(loads[b])
            loads[b] += items[i]
            if assign(i + 1):
                loads[b] -= items[i]
                return True
            loads[b] -= items[i]
        return False

    return assign(0)
