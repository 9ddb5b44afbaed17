"""Farthest-path dynamic program: find a shortest path whose arc-set
Hamming distance to each of r reference paths is at least q.

Each arc carries a label vector (one component per reference) whose sums
along an s-v path telescope to the path's prefix distances.  Labels are
nonnegative, so capping a sum at q commutes with adding further labels:
one forward pass over the SP-DAG in topological order keeps, at each
vertex, only the maximal capped label sums of the s-v paths.  A vertex v
reaches a demand vector gamma <= q exactly when one of its maximal sums
is >= gamma in every component.  This is the multicriteria labeling
method (Hansen 1980; Martins 1984).  Results are deterministic: traceback
prefers the smallest arc id.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add
from typing import Sequence

from .graph import Path, SpDag

Vector = tuple[int, ...]


def arc_label_vector(dag: SpDag, refs: Sequence[Path], arc_id: int) -> Vector:
    """Per-reference demand decrement of one arc.

    For arc e = (v_i, v_j), component k is the size of the symmetric
    difference between {e} and the arcs of reference k whose head lies in
    topological positions i+1..j.
    """
    if arc_id not in dag.arc_by_id:
        raise ValueError(f"arc {arc_id} not in dag")
    return _labels(dag, refs)[arc_id]


def _labels(dag: SpDag, refs: Sequence[Path]) -> dict[int, Vector]:
    """Label vectors of every arc, from one prefix count of reference-arc
    heads per reference."""
    arcs = dag.base.arcs
    columns = []
    for ref in refs:
        heads = [0] * (dag.n + 1)
        for aid in ref.arcs:
            heads[dag.arc_by_id[aid].head] += 1
        cnt = list(accumulate(heads))
        mem = ref.arc_set
        columns.append(
            [cnt[a.head] - cnt[a.tail] + (-1 if a.id in mem else 1) for a in arcs]
        )
    rows = zip(*columns) if columns else repeat(())
    return {a.id: row for a, row in zip(arcs, rows)}


def _maximal(vectors: list[Vector]) -> list[Vector]:
    """The nondominated vectors.  In descending lexicographic order no
    vector is dominated by a later one, so one scan suffices."""
    kept: list[Vector] = []
    for vec in sorted(set(vectors), reverse=True):
        if not any(all(k >= x for k, x in zip(top, vec)) for top in kept):
            kept.append(vec)
    return kept


def _lex_smallest_path(dag: SpDag) -> Path:
    # Every vertex reaches t, so the greedy smallest-arc walk is the
    # lexicographically smallest arc-id sequence from s.
    arcs = []
    v = 1
    while v != dag.n:
        arc = dag.outgoing[v][0]
        arcs.append(arc.id)
        v = arc.head
    return Path(tuple(arcs))


def farthest_path(dag: SpDag, refs: Sequence[Path], q: int) -> Path | None:
    """Return a shortest path at distance >= q from every reference path,
    or None if none exists.
    """
    r = len(refs)
    if r == 0 or q == 0:
        return _lex_smallest_path(dag)

    labels = _labels(dag, refs)
    cap = (q,) * r
    front: list[list[Vector]] = [[] for _ in range(dag.n + 1)]
    front[1] = [(0,) * r]
    for v in range(2, dag.n + 1):
        # componentwise min(q, x + l) over every arc into v and every
        # maximal sum at its tail
        front[v] = _maximal([
            tuple(map(min, map(add, vec, labels[arc.id]), cap))
            for arc in dag.incoming[v]
            for vec in front[arc.tail]
        ])

    def reaches(v: int, gamma: Vector) -> bool:
        return any(all(x >= g for x, g in zip(vec, gamma)) for vec in front[v])

    if not reaches(dag.n, cap):
        return None

    # Traceback, smallest arc id first.
    arcs_rev: list[int] = []
    v, gamma = dag.n, cap
    while v != 1:
        for arc in dag.incoming[v]:
            lab = labels[arc.id]
            prev = tuple(max(0, g - l) for g, l in zip(gamma, lab))
            if reaches(arc.tail, prev):
                arcs_rev.append(arc.id)
                v, gamma = arc.tail, prev
                break
        else:  # pragma: no cover - the DP guarantees a predecessor
            raise AssertionError("traceback failed")
    path = Path(tuple(reversed(arcs_rev)))

    assert _check_prefix_decomposition(dag, refs, labels, path)
    assert all(len(path.arc_set ^ ref.arc_set) >= q for ref in refs)
    return path


def _check_prefix_decomposition(
    dag: SpDag,
    refs: Sequence[Path],
    labels: dict[int, Vector],
    path: Path,
) -> bool:
    """Debug check: prefix distances telescope through the arc labels."""
    ref_heads = []
    for ref in refs:
        ref_heads.append({dag.arc_by_id[aid].head: aid for aid in ref.arcs})
    prefix: set[int] = set()
    prev_dist = [0] * len(refs)
    for aid in path.arcs:
        head = dag.arc_by_id[aid].head
        prefix.add(aid)
        for k, heads in enumerate(ref_heads):
            ref_prefix = {a for h, a in heads.items() if h <= head}
            d = len(prefix ^ ref_prefix)
            if d != prev_dist[k] + labels[aid][k]:
                return False
            prev_dist[k] = d
    return True
