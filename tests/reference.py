"""Exact references the tests compare the package against.

Each one enumerates every s-t path of a shortest-path DAG (or scans one
pair of paths, or a whole decomposition) and answers by brute force;
``reference_enumerate`` is that enumeration, a depth-first walk that
builds every path arc by arc, which the oracle's suffix DP must match;
``reference_select`` is the selection search with every row built by a
per-pair loop, and ``reference_farthest_path`` is the farthest-path DP
with each capped label sum held as a tuple (``reference_fronts`` is its
forward pass, run over every vertex), its labels built one reference at
a time and its walks to t taken along ``dag.outgoing``.
``reference_ball_phase`` is the solver's ball phase as a search over
every split of k among the greedy balls.  ``is_st_path`` checks
that a path found by the package is a simple s-t path of its dag, and
``hamming_distance`` is the distance the certificates are judged by.
They are small and obviously correct; speed does not matter here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from operator import add
from typing import Iterable, Sequence

from dspaths.colorcode import ball_search
from dspaths.graph import ArcWeightedDigraph, Path, SpDag
from dspaths.solver import _threshold


@dataclass(frozen=True)
class MinimalBypass:
    """One minimal component: its arcs and the center window it replaces."""

    arcs: frozenset[int]
    window: tuple[int, int]  # (divergence vertex, reconvergence vertex)


def reference_enumerate(dag: SpDag) -> tuple[list[Path], list[int]]:
    """Every s-t path and its arc-set mask (arc id a is bit a), in
    lexicographic arc-id order, by depth-first search.

    The walk keeps an explicit stack of outgoing-arc iterators, so its
    depth is not bounded by the interpreter's recursion limit.  The
    prefix's arc-set mask is updated on every push and pop.
    """
    if dag.n == 1:  # s == t: the empty path is the only s-t path
        return [()], [0]
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
        paths.append(tuple(prefix))
        masks.append(mask)
        mask ^= 1 << prefix.pop()
    return paths, masks


def hamming_distance(p: Path, q: Path) -> int:
    """Size of the symmetric difference of the two paths' arc sets."""
    return len(set(p) ^ set(q))


def is_st_path(dag: SpDag, p: Path) -> bool:
    """Whether p's arcs chain from s to t without repeating a vertex."""
    try:
        verts = dag.path_vertices(p)
    except ValueError:
        return False
    return verts[-1] == dag.n and len(set(verts)) == len(verts)


def brute_farthest(dag: SpDag, refs: Sequence[Path], q: int) -> Path | None:
    """First catalog path at distance >= q from every reference path."""
    for p in reference_enumerate(dag)[0]:
        if all(hamming_distance(p, ref) >= q for ref in refs):
            return p
    return None


def _maximal_tuples(vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The nondominated vectors.  In descending lexicographic order no
    vector is dominated by a later one, so one scan suffices."""
    kept: list[tuple[int, ...]] = []
    for vec in sorted(set(vectors), reverse=True):
        if not any(all(k >= x for k, x in zip(top, vec)) for top in kept):
            kept.append(vec)
    return kept


def _label_columns(dag: SpDag, refs: Sequence[Path]) -> list[list[int]]:
    """Label components of every arc, one column per reference:
    ``columns[k][i]`` is component k of arc i.  Each column comes from
    one prefix count of reference-arc heads.

    For arc e = (v_i, v_j), component k is the size of the symmetric
    difference between {e} and the arcs of reference k whose head lies in
    topological positions i+1..j.
    """
    arcs = dag.base.arcs
    columns = []
    for ref in refs:
        heads = [0] * (dag.n + 1)
        for aid in ref:
            heads[arcs[aid].head] += 1
        cnt = list(accumulate(heads))
        mem = frozenset(ref)
        columns.append(
            [cnt[h] - cnt[t] + (-1 if aid in mem else 1) for aid, t, h, _ in arcs]
        )
    return columns


def reference_walk(dag: SpDag, v: int) -> list[int]:
    """The walk from v to t along each vertex's first out-arc in
    ``dag.outgoing``."""
    arcs = []
    while v != dag.n:
        arc = dag.outgoing[v][0]
        arcs.append(arc.id)
        v = arc.head
    return arcs


def reference_first_path(dag: SpDag) -> Path:
    """The walk from s: the lexicographically smallest s-t arc-id
    sequence."""
    return tuple(reference_walk(dag, 1))


def arc_labels(dag: SpDag, refs: Sequence[Path]) -> list[tuple[int, ...]]:
    """Uncapped label vectors of every arc: entry i is arc i's."""
    columns = _label_columns(dag, refs)
    return [tuple(col[i] for col in columns) for i in range(dag.base.m)]


def reference_fronts(
    dag: SpDag, refs: Sequence[Path], q: int
) -> tuple[list[tuple[int, ...]], list[list[tuple[int, ...]]]]:
    """The forward pass on label tuples: every arc's label, and each
    vertex's maximal capped label sums in descending lexicographic order
    (``front[0]`` is unused).  Needs r >= 1 and q >= 1."""
    r = len(refs)
    labels = arc_labels(dag, refs)
    cap = (q,) * r
    front: list[list[tuple[int, ...]]] = [[] for _ in range(dag.n + 1)]
    front[1] = [(0,) * r]
    for v in range(2, dag.n + 1):
        front[v] = _maximal_tuples([
            tuple(map(min, map(add, vec, labels[arc.id]), cap))
            for arc in dag.incoming[v]
            for vec in front[arc.tail]
        ])
    return labels, front


def reference_stop(
    front: list[list[tuple[int, ...]]], cap: tuple[int, ...]
) -> int | None:
    """The first vertex, in topological order, whose front holds cap;
    None if no vertex's does."""
    return next((v for v in range(1, len(front)) if cap in front[v]), None)


def reference_farthest_path(
    dag: SpDag, refs: Sequence[Path], q: int
) -> Path | None:
    """The farthest-path DP on label tuples, with the full fronts of
    ``reference_fronts``: the prefix traced back from the first vertex
    whose front holds (q, ..., q), smallest arc id first, then the walk
    along each vertex's first out-arc to t, as ``farthest_path`` does
    with no packed arithmetic."""
    r = len(refs)
    if r == 0 or q <= 0:
        return reference_first_path(dag)

    labels, front = reference_fronts(dag, refs, q)
    cap = (q,) * r
    stop = reference_stop(front, cap)
    if stop is None:
        return None

    def reaches(v, gamma):
        return any(all(x >= g for x, g in zip(vec, gamma)) for vec in front[v])

    arcs_rev = []
    v, gamma = stop, cap
    while v != 1:
        for arc in dag.incoming[v]:
            prev = tuple(max(0, g - l) for g, l in zip(gamma, labels[arc.id]))
            if reaches(arc.tail, prev):
                arcs_rev.append(arc.id)
                v, gamma = arc.tail, prev
                break
        else:
            raise AssertionError("traceback failed")
    return tuple(reversed(arcs_rev)) + tuple(reference_walk(dag, stop))


def brute_ball(
    dag: SpDag, center: Path, q: int, r: int, d: int
) -> list[Path] | None:
    """r paths within distance q of center, pairwise at distance >= d: the
    first such r in catalog order, picked by ``reference_select``."""
    if r == 0:
        return []
    ball = {
        m: p
        for p, m in zip(*reference_enumerate(dag))
        if hamming_distance(p, center) <= q
    }
    chosen = reference_select(list(ball), r, d)
    return None if chosen is None else [ball[m] for m in chosen]


def reference_select(masks: Sequence[int], r: int, d: int) -> list[int] | None:
    """The selection kernel with every row built by a per-pair loop: the
    bitset branch and bound that the bit-parallel rows must reproduce.
    It returns the first r-subset in the order given, so it also pins the
    order in which the ball search and the oracle hand over candidates."""
    if r == 0:
        return []
    if not masks:
        return None
    if d == 0 or r == 1:
        return [masks[0]] * r
    n = len(masks)
    rows = {}
    chosen = []

    def row(i):
        bits = rows.get(i)
        if bits is None:
            mi = masks[i]
            bits = 0
            for j in range(i + 1, n):
                if (mi ^ masks[j]).bit_count() >= d:
                    bits |= 1 << j
            rows[i] = bits
        return bits

    def extend(cand):
        if len(chosen) == r:
            return True
        while cand:
            if len(chosen) + cand.bit_count() < r:
                return False
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            chosen.append(i)
            if extend(cand & row(i)):
                return True
            chosen.pop()
        return False

    if not extend((1 << n) - 1):
        return None
    return [masks[i] for i in chosen]


def reference_ball_phase(
    dag: SpDag, greedy_paths: Sequence[Path], k: int, d: int
) -> tuple[str, list[Path] | None]:
    """The ball phase of ``solve`` after a greedy phase that stopped at
    ``greedy_paths``, as a composition search: every split of k into one
    count per ball, in lexicographic order, each ball's paths found by
    ``ball_search`` and placed in ball order.  A split stops at its first
    ball that fails.  A ball is searched at most once per count, and
    never at a count at or above one it failed at.  Returns the decision
    and, on yes, the paths in dag arc ids."""
    radius = _threshold(dag, k, d, len(greedy_paths) + 1) - 1
    found: dict[tuple[int, int], list[Path] | None] = {}
    failed: dict[int, int] = {}  # ball -> smallest count it failed at

    def search(i: int, r: int) -> list[Path] | None:
        if r >= failed.get(i, r + 1):
            return None
        if (i, r) not in found:
            found[i, r] = ball_search(dag, greedy_paths[i], radius, r, d)
            if found[i, r] is None:
                failed[i] = r
        return found[i, r]

    for split in product(range(k + 1), repeat=len(greedy_paths)):
        if sum(split) != k:
            continue
        paths: list[Path] = []
        for i, r in enumerate(split):
            part = search(i, r) if r else []
            if part is None:
                break
            paths += part
        else:
            return "yes", paths
    return "no", None


def brute_realizations(
    dag: SpDag, center: Path, coloring: Sequence[int], q: int
) -> dict[int, Path]:
    """Color sets of the colorful bypasses P XOR center with at most q
    colors, over every s-t path P, each mapped to the P that realizes it
    whose arc ids, read from t back to s, are lexicographically smallest;
    ``coloring[i]`` is arc i's color."""
    found: dict[int, Path] = {}
    for p in reference_enumerate(dag)[0]:
        bypass = frozenset(center) ^ frozenset(p)
        colors = {coloring[aid] for aid in bypass}
        if len(colors) == len(bypass) <= q:
            c = sum(1 << (c - 1) for c in colors)
            if c not in found or p[::-1] < found[c][::-1]:
                found[c] = p
    return found


def minimal_bypass_decomposition(
    dag: SpDag, center: Path, other: Path
) -> list[MinimalBypass]:
    """Split center XOR other into its minimal components.

    Scans both paths from s, emitting one component per maximal stretch on
    which they differ; the union of components is the symmetric difference
    and component windows overlap at most at their endpoint vertices.
    """
    if not is_st_path(dag, center) or not is_st_path(dag, other):
        raise ValueError("both inputs must be s-t paths of the dag")
    common = set(dag.path_vertices(center)) & set(dag.path_vertices(other))
    components: list[MinimalBypass] = []
    ci = oi = 0
    v = 1
    while v != dag.n:
        ca, oa = center[ci], other[oi]
        if ca == oa:
            v = dag.base.arcs[ca].head
            ci += 1
            oi += 1
            continue
        start = v
        arcs: set[int] = set()
        while True:
            arc = dag.base.arcs[center[ci]]
            arcs.add(arc.id)
            ci += 1
            if arc.head in common:
                end = arc.head
                break
        while True:
            arc = dag.base.arcs[other[oi]]
            arcs.add(arc.id)
            oi += 1
            if arc.head in common:
                assert arc.head == end
                break
        components.append(MinimalBypass(arcs=frozenset(arcs), window=(start, end)))
        v = end
    return components


def validate_path_decomposition(
    g: ArcWeightedDigraph, bags: Sequence[Iterable[int]]
) -> tuple[bool, int]:
    """Check bag contiguity per vertex and arc coverage; returns (ok, width)."""
    bag_sets = [set(bag) for bag in bags]
    width = max((len(bag) for bag in bag_sets), default=0) - 1
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for idx, bag in enumerate(bag_sets):
        for v in bag:
            first.setdefault(v, idx)
            last[v] = idx
    for v in range(1, g.n + 1):
        if v not in first:
            return False, width
        if any(v not in bag_sets[i] for i in range(first[v], last[v] + 1)):
            return False, width
    for arc in g.arcs:
        if not any(arc.tail in bag and arc.head in bag for bag in bag_sets):
            return False, width
    return True, width
