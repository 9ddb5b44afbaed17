"""Farthest-path dynamic program: find a shortest path whose arc-set
Hamming distance to each of r reference paths is at least q.

Each arc carries a label vector (one component per reference) whose sums
along an s-v path telescope to the path's prefix distances.  Labels are
nonnegative, so capping a sum at q commutes with adding further labels:
one forward pass over the SP-DAG in topological order keeps, at each
vertex, only the maximal capped label sums of the s-v paths.  A vertex v
reaches a demand vector gamma <= q exactly when one of its maximal sums
is >= gamma in every component.  This is the multicriteria labeling
method (Hansen 1980; Martins 1984).  With one reference the sums are
totally ordered, so a front is its maximum alone.

The pass stops at the first vertex v whose front holds (q, ..., q).
Labels are nonnegative, so a saturated prefix stays saturated: every
v-t continuation keeps the path >= q from every reference.  The path
returned is the s-v prefix traced back from v with demand (q, ..., q),
smallest arc id first, then the walk from v along each vertex's
smallest-id out-arc.  Every vertex reaches t, so t's full front would
hold (q, ..., q) exactly when some vertex does: the answer is None
exactly when no vertex up to t saturates.

Component k of the label of arc e = (u, v) is the size of the symmetric
difference between {e} and the arcs of reference k whose head lies in
topological positions u+1..v.  A label is computed, from the data of
``_packed_labels``, only where the pass or the traceback reads it: a
call's Python-level work is O(sum of |refs| + the in-arcs of the
vertices up to the stop vertex), plus two C-level O(n) list passes.

Every vector is held as one int of r fields, w bits each (SIMD within a
register, Lamport 1975), with w = (q + L + 1).bit_length() + 1 and L the
longest reference.  Reference 0 sits in the most significant field, so
int order is the lexicographic order of the vectors.  Labels are packed
uncapped, which changes no capped sum: for x, g <= q,
min(q, x + l) = min(q, x + min(q, l)) and max(0, g - l) = max(0, g - min(q, l)).
A count field is at most L, a label field at most L + 1 and a stored
field at most q, so every sum is below 2**(w-1): the top bit of every
field, its guard bit, stays clear, and no field carries into the next.
With H the guard bit of every field, CAP = q in every field and
FIELD = 2**w - 1:

- saturating add, min(q, x + l) in every field:
  ``s = x + l; s ^= (s ^ CAP) & (((((s | H) - CAP) & H) >> (w-1)) * FIELD)``.
  The guard bit of ``(s | H) - CAP`` survives exactly in the fields where
  s >= q, and those fields are replaced by q.
- dominance, a >= b in every field: ``((a | H) - b) & H == H``.
- saturating subtract, max(0, g - l) in every field:
  ``t = (g | H) - l; t & ((t & H) - ((t & H) >> (w-1)))`` keeps the
  fields whose guard bit survived, without it, and zeroes the rest.

In each subtraction every field of the minuend, guard bit set, is at
least 2**(w-1) and every field of the subtrahend is smaller, so no field
borrows from the next.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .graph import Path, SpDag


def _packed_labels(
    dag: SpDag, refs: Sequence[Path], q: int
) -> tuple[int, int, int, list[int], int, dict[int, int]]:
    """The field width w, the guard bits H and CAP of the module docstring,
    then ``cnt``, ONES and ``fix``: arc (aid, u, v) has the packed label
    ``cnt[v] - cnt[u] + ONES - fix.get(aid, 0)``, component k in field
    r-1-k.  ``cnt`` is the packed prefix count of reference-arc heads per
    vertex, built at C level; ONES, one in every field, counts aid itself;
    and ``fix[aid]``, held for reference arcs only, is two in the field of
    each reference aid is on, whose head count holds aid.
    """
    arcs = dag.base.arcs
    w = (q + max(map(len, refs)) + 1).bit_length() + 1
    heads = [0] * (dag.n + 1)
    fix: dict[int, int] = {}
    for k, ref in enumerate(reversed(refs)):  # field k: reference r-1-k
        unit = 1 << (w * k)
        for aid in ref:
            heads[arcs[aid].head] += unit
            fix[aid] = fix.get(aid, 0) + 2 * unit
    ones = sum(1 << (w * k) for k in range(len(refs)))
    return w, ones << (w - 1), ones * q, list(accumulate(heads)), ones, fix


def _maximal(vectors: list[int], guard: int) -> list[int]:
    """The nondominated packed vectors.  In descending int order, which
    is descending lexicographic order, no vector is dominated by a later
    one, so one scan suffices."""
    kept: list[int] = []
    for vec in sorted(set(vectors), reverse=True):
        for top in kept:
            if ((top | guard) - vec) & guard == guard:
                break
        else:
            kept.append(vec)
    return kept


def _smallest_id_walk(dag: SpDag, v: int) -> list[int]:
    """The walk from v to t along each vertex's smallest-id out-arc.
    Every vertex reaches t, so from s it is the lexicographically
    smallest s-t arc-id sequence."""
    first = dag.first_out
    arcs = []
    while v != dag.n:
        arc = first[v]
        arcs.append(arc.id)
        v = arc.head
    return arcs


def _forward_pass(
    dag: SpDag, refs: Sequence[Path], q: int
) -> tuple[tuple[int, int, int, list[int], int, dict[int, int]], list[list[int]], int]:
    """What ``_packed_labels`` returns; each vertex's front: its maximal
    capped label sums, in descending int order, over the s-v paths; and
    the stop vertex.  ``front[0]`` is unused.  Needs r >= 1 and q >= 1.

    The pass stops at the first vertex, in topological order, whose front
    holds CAP, and returns it as the stop vertex, or t when none does.
    CAP is the largest capped vector, so that front is exactly [CAP] and
    the check is one comparison.  ``front`` ends at the stop vertex, and
    only the in-arcs of the vertices up to it are labelled.
    """
    packed = w, guard, cap, cnt, ones, fix = _packed_labels(dag, refs, q)
    shift = w - 1
    field = (1 << w) - 1
    get = fix.get

    front: list[list[int]] = [[], [0]]  # front[v], appended in order
    incoming = dag.incoming
    for v in range(2, dag.n + 1):
        sums = []
        top = cnt[v] + ones
        for aid, tail, _, _ in incoming[v]:
            lab = top - cnt[tail] - get(aid, 0)
            for x in front[tail]:
                s = x + lab
                s ^= (s ^ cap) & (((((s | guard) - cap) & guard) >> shift) * field)
                sums.append(s)
        if len(sums) == 2:  # most vertices: skip _maximal's sort
            a, b = sums
            if a < b:
                a, b = b, a
            sums = [a] if ((a | guard) - b) & guard == guard else [a, b]
        elif len(sums) > 1:
            sums = _maximal(sums, guard)
        front.append(sums)
        if sums[0] == cap:
            return packed, front, v
    return packed, front, dag.n


def farthest_path(dag: SpDag, refs: Sequence[Path], q: int) -> Path | None:
    """Return a shortest path at distance >= q from every reference path,
    or None if none exists.  Every path meets a q <= 0, and then the
    smallest-id walk from s is returned.

    Otherwise the path is traced back from the stop vertex v of
    ``_forward_pass`` with demand CAP, smallest arc id first, and goes on
    along the smallest-id walk from v to t.  Labels are nonnegative, so a
    path's label sums only grow along it: its s-v prefix at CAP keeps it
    >= q from every reference, whatever its v-t part.  The answer is None
    exactly when t's front lacks CAP, since every vertex reaches t.
    Labels are computed where they are read (see the module docstring).
    Two paths of an m-arc dag are at most m apart, so with a reference a
    q above m is met by no path, and no pass is run.
    """
    if not refs or q <= 0:
        return tuple(_smallest_id_walk(dag, 1))
    if q > dag.base.m:
        return None

    (w, guard, cap, cnt, ones, fix), front, stop = _forward_pass(dag, refs, q)
    if front[stop][0] != cap:
        return None
    shift = w - 1
    incoming = dag.incoming

    def reaches(v: int, gamma: int) -> bool:
        return any(((x | guard) - gamma) & guard == guard for x in front[v])

    # Traceback from the stop vertex, smallest arc id first.
    arcs_rev: list[int] = []
    v, gamma = stop, cap
    while v != 1:
        top = cnt[v] + ones
        for aid, tail, _, _ in incoming[v]:
            t = (gamma | guard) - (top - cnt[tail] - fix.get(aid, 0))
            kept = t & guard
            prev = t & (kept - (kept >> shift))
            if reaches(tail, prev):
                arcs_rev.append(aid)
                v, gamma = tail, prev
                break
        else:  # pragma: no cover - the DP guarantees a predecessor
            raise AssertionError("traceback failed")
    arcs_rev.reverse()
    return tuple(arcs_rev + _smallest_id_walk(dag, stop))
