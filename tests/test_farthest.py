import copy
import random
from dataclasses import replace
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_layered_dag
from dspaths.farthest import (
    _forward_pass,
    _packed_labels,
    farthest_path,
)
from dspaths.generators import gen_grid, gen_layered
from dspaths.graph import (
    WEIGHT_SCALE,
    Arc,
    ArcWeightedDigraph,
    Path,
    build_sp_dag,
    hamming_distance,
    parse_graph,
)
from dspaths.oracle import enumerate_st_paths
from dspaths.solver import greedy_phase
from reference import (
    arc_labels,
    brute_farthest,
    is_st_path,
    reference_farthest_path,
    reference_first_path,
    reference_fronts,
    reference_stop,
)

FORKED_TEXT = """\
p dsp 5 5
s 1
t 5
a 1 2 1
a 1 3 1
a 2 5 2
a 3 4 1
a 4 5 1
"""


def unclamped_reference(dag, refs, q):
    """The demand DP with the strict convention: any negative residual
    demand makes a state false.  Used to show what clamping fixes."""
    labels = arc_labels(dag, refs)
    memo = {}

    def rec(v, gamma):
        if any(c < 0 for c in gamma):
            return False
        key = (v, gamma)
        if key in memo:
            return memo[key]
        if v == 1:
            result = all(c == 0 for c in gamma)
        else:
            result = any(
                rec(a.tail, tuple(g - l for g, l in zip(gamma, labels[a.id])))
                for a in dag.incoming[v]
            )
        memo[key] = result
        return result

    capped = tuple(min(q, c) for c in [q] * len(refs))
    return rec(dag.n, capped)


# Greedy paths under the stop rule: each traced back from the first
# vertex whose front holds (q, ..., q), then the smallest-id walk to t.
# (graph, k, d, arc lists); the greedy phase completes on each.
GREEDY_PINNED = {
    "grid12": (
        gen_grid(12, 12),
        4,
        4,
        [
            [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22,
             24, 49, 74, 99, 124, 149, 174, 199, 224, 249, 274, 299],
            [1, 25, 27, 29, 31, 33, 35, 37, 39, 41, 43, 45,
             48, 73, 98, 123, 148, 172, 174, 199, 224, 249, 274, 299],
            [0, 3, 27, 30, 54, 56, 58, 60, 62, 64, 66, 68,
             70, 72, 74, 99, 124, 149, 174, 199, 224, 249, 274, 299],
            [1, 26, 50, 52, 54, 56, 58, 60, 62, 64, 66, 68,
             70, 72, 74, 99, 124, 149, 174, 199, 224, 249, 274, 299],
        ],
    ),
    "layered0": (
        gen_layered(10, 6, 0.4, 0),
        3,
        4,
        [
            [0, 5, 13, 22, 48, 51, 72, 81, 94, 119, 123],
            [0, 5, 15, 29, 33, 53, 67, 78, 94, 119, 123],
            [0, 5, 14, 28, 48, 51, 72, 81, 94, 119, 123],
        ],
    ),
    "layered1": (
        gen_layered(10, 6, 0.4, 1),
        3,
        4,
        [
            [0, 2, 21, 32, 40, 57, 73, 99, 108, 130, 142],
            [1, 9, 19, 31, 52, 62, 73, 99, 108, 130, 142],
            [1, 10, 21, 32, 40, 57, 73, 99, 108, 130, 142],
        ],
    ),
}


def random_walks(dag, count, rng):
    """count random s-t paths of dag, each step a uniform outgoing arc."""
    walks = []
    for _ in range(count):
        v, arcs = 1, []
        while v != dag.n:
            arc = rng.choice(dag.outgoing[v])
            arcs.append(arc.id)
            v = arc.head
        walks.append(Path(tuple(arcs)))
    return walks


def diamond_pair(span):
    """Two diamonds in series.  Each joins its ends by a chain of span unit
    arcs and by one arc of weight span.  Returns the graph and, per
    diamond, the chain's arc ids and the long arc's id in a tuple."""
    arcs = []
    sides = []
    for base in (1, 1 + span):
        chain = tuple(range(len(arcs), len(arcs) + span))
        arcs += [Arc(i, base + j, base + j + 1, WEIGHT_SCALE)
                 for j, i in enumerate(chain)]
        arcs.append(Arc(len(arcs), base, base + span, span * WEIGHT_SCALE))
        sides.append((chain, (arcs[-1].id,)))
    g = ArcWeightedDigraph(n=2 * span + 1, arcs=tuple(arcs), s=1, t=2 * span + 1)
    return g, sides


# Layered DAGs and grids, r references drawn as random walks.
FARTHEST_ASKS = st.tuples(
    st.booleans(),
    st.integers(1, 7),
    st.integers(1, 7),
    st.integers(0, 10**6),
    st.integers(1, 5),
)


class TestArcLabels:
    def test_in_path_window_only_self(self, diamond_dag, upper):
        # arc (a, t) is on the reference and its window holds no other ref arc
        assert arc_labels(diamond_dag, [upper])[2] == (0,)

    def test_not_in_path_empty_window(self):
        dag = build_sp_dag(parse_graph(FORKED_TEXT))
        # arc 3 = (3, 4): its head window contains no arc of the upper route
        assert arc_labels(dag, [Path((0, 2))])[3] == (1,)

    def test_window_with_foreign_ref_arc(self, diamond_dag, upper):
        # arc (b, t): window is all arcs into t, one of which is on the ref
        assert arc_labels(diamond_dag, [upper])[3] == (2,)

    def test_multiple_refs(self, diamond_dag, upper, lower):
        assert arc_labels(diamond_dag, [upper, lower])[3] == (2, 0)


def decoded(w, label, r):
    """Each packed label as its r fields, reference 0's field first."""
    field = (1 << w) - 1
    return [tuple(lab >> (w * (r - 1 - k)) & field for k in range(r)) for lab in label]


def packed_arc_labels(dag, refs, q):
    """Every arc's label, decoded, rebuilt from what ``_packed_labels``
    returns by the formula its docstring states."""
    w, _, _, cnt, ones, fix = _packed_labels(dag, refs, q)
    label = [cnt[v] - cnt[u] + ones - fix.get(aid, 0) for aid, u, v, _ in dag.base.arcs]
    return decoded(w, label, len(refs))


class NoIterArcs(tuple):
    """An arc tuple that can be indexed but not iterated."""

    def __iter__(self):
        raise AssertionError("iterated every arc")


def width_edge_refs(span):
    """diamond_pair(span) and five references, each sharing a whole side
    with the far path long1 + long2, the one path they leave."""
    g, ((chain1, long1), (chain2, long2)) = diamond_pair(span)
    refs = [
        Path(chain1 + chain2),
        Path(long1 + chain2),
        Path(chain1 + long2),
        Path(chain1 + chain2),
        Path(long1 + chain2),
    ]
    return build_sp_dag(g), refs, Path(long1 + long2)


class TestPackedLabels:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(FARTHEST_ASKS)
    def test_fields_decode_to_reference_columns(self, case):
        # q runs from 1 to m + 1; at small q the references are far
        # longer than 2q.
        grid, a, b, seed, r = case
        g = gen_grid(a, b) if grid else gen_layered(a, b, 0.5, seed)
        dag = build_sp_dag(g)
        refs = random_walks(dag, r, random.Random(seed))
        expected = arc_labels(dag, refs)
        for q in range(1, dag.base.m + 2):
            assert packed_arc_labels(dag, refs, q) == expected
        # Prefix label sums are prefix distances: after each arc (u, v) of
        # an s-t path, to the reference arcs with head <= v.
        arcs = dag.base.arcs
        sums, prefix = [0] * r, set()
        for aid in random_walks(dag, 1, random.Random(seed + 1))[0].arcs:
            v = arcs[aid].head
            prefix.add(aid)
            sums = list(map(add, sums, expected[aid]))
            assert sums == [
                len(prefix ^ {e for e in ref.arcs if arcs[e].head <= v}) for ref in refs
            ]

    @pytest.mark.parametrize(
        "span, q", [(7, 1), (12, 7), (12, 6), (30, 3), (30, 2), (20, 22), (20, 23)]
    )
    def test_width_edges(self, span, q):
        # The longest reference has L = 2 * span arcs, and q + L + 1 is a
        # power of two, or one less: the widest sum a field must hold.
        # The far path is span + 1 from two references, so a larger q
        # has no path.
        dag, refs, far = width_edge_refs(span)
        assert packed_arc_labels(dag, refs, q) == arc_labels(dag, refs)
        expected = far if q <= span + 1 else None
        assert farthest_path(dag, refs, q) == expected
        assert reference_farthest_path(dag, refs, q) == expected

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_no_call_iterates_the_arcs(self, r):
        # With incoming and first_out built, a call reads only the arcs it
        # reaches, and single reference arcs by index: the same answers
        # from a dag whose arc tuple refuses iteration.
        for dag in (build_sp_dag(gen_grid(7, 7)), build_sp_dag(gen_layered(8, 5, 0.5, r))):
            dag.incoming, dag.first_out
            blind = copy.copy(dag)
            base = copy.copy(dag.base)
            object.__setattr__(base, "arcs", NoIterArcs(dag.base.arcs))
            object.__setattr__(blind, "base", base)
            with pytest.raises(AssertionError):
                list(blind.base.arcs)
            refs = random_walks(dag, r, random.Random(r))
            for q in range(2 * len(refs[0]) + 2):
                found = farthest_path(blind, refs, q)
                assert found == farthest_path(dag, refs, q)
                assert found == reference_farthest_path(dag, refs, q)


def stop_rule_asks(case):
    """The graph of a FARTHEST_ASKS case, its references, and every q
    from 1 to m + 1 with the full reference fronts at that q."""
    grid, a, b, seed, r = case
    g = gen_grid(a, b) if grid else gen_layered(a, b, 0.5, seed)
    dag = build_sp_dag(g)
    refs = random_walks(dag, r, random.Random(seed))
    for q in range(1, dag.base.m + 2):
        yield dag, refs, q, reference_fronts(dag, refs, q)[1]


class TestFronts:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(FARTHEST_ASKS.filter(lambda case: case[4] <= 4))
    def test_packed_fronts_match_reference(self, case):
        # The pass stops at the first vertex whose reference front holds
        # (q, ..., q), or at t, and every front up to there, decoded
        # field by field, is the reference's tuple front in the same
        # order: nondominated and descending.
        for dag, refs, q, expected in stop_rule_asks(case):
            r = len(refs)
            (w, *_), front, stop = _forward_pass(dag, refs, q)
            assert stop == (reference_stop(expected, (q,) * r) or dag.n)
            assert [decoded(w, f, r) for f in front] == expected[: stop + 1]


class TestStopRule:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(FARTHEST_ASKS.filter(lambda case: case[4] <= 4))
    def test_none_exactly_when_t_front_lacks_cap(self, case):
        # The full t-front decides, although the pass may stop early; a
        # path found lies >= q from every reference.
        for dag, refs, q, expected in stop_rule_asks(case):
            found = farthest_path(dag, refs, q)
            assert (found is None) == ((q,) * len(refs) not in expected[dag.n])
            if found is not None:
                assert is_st_path(dag, found)
                assert all(hamming_distance(found, ref) >= q for ref in refs)


class TestFarthestPath:
    def test_no_refs_returns_lex_smallest(self, diamond_dag):
        assert farthest_path(diamond_dag, [], 5).arcs == (0, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_first_path_matches_outgoing_walk(self, seed):
        # Input arcs in random order, so arc ids do not follow the tails.
        g = gen_layered(6, 4, 0.5, seed)
        order = list(g.arcs)
        random.Random(seed).shuffle(order)
        arcs = tuple(Arc(i, a.tail, a.head, a.weight) for i, a in enumerate(order))
        dag = build_sp_dag(replace(g, arcs=arcs))
        assert farthest_path(dag, [], 0) == reference_first_path(dag)

    def test_greedy_phase_builds_no_outgoing(self):
        dag = build_sp_dag(gen_grid(6, 6))
        greedy_phase(dag, 4, 4)
        assert "outgoing" not in dag.__dict__

    def test_single_path_graph(self):
        dag = build_sp_dag(parse_graph("p dsp 3 2\ns 1\nt 3\na 1 2 1\na 2 3 1\n"))
        only = Path((0, 1))
        assert farthest_path(dag, [only], 1) is None
        assert farthest_path(dag, [only], 0) == only

    @pytest.mark.parametrize("q", [-1, -5])
    def test_non_positive_q_met_by_lex_smallest(self, diamond_dag, upper, lower, q):
        # every path is at distance >= 0 > q from each reference
        assert farthest_path(diamond_dag, [upper, lower], q) == upper
        assert farthest_path(diamond_dag, [lower], q) == upper

    def test_diamond_opposite(self, diamond_dag, upper, lower):
        assert farthest_path(diamond_dag, [upper], 4) == lower

    def test_two_refs_infeasible(self, diamond_dag, upper, lower):
        assert farthest_path(diamond_dag, [upper, lower], 1) is None

    def test_clamping_beats_unclamped_on_diamond(self, diamond_dag, upper, lower):
        # the first detour arc overshoots the residual demand in one step
        assert not unclamped_reference(diamond_dag, [upper], 1)
        assert farthest_path(diamond_dag, [upper], 1) == lower

    @pytest.mark.parametrize("seed", range(30))
    def test_clamping_matches_oracle_where_unclamped_may_not(self, seed):
        dag = random_layered_dag(seed * 31 + 5)
        catalog = enumerate_st_paths(dag)
        rng = random.Random(seed)
        refs = [rng.choice(catalog.paths)]
        for q in (1, 2, 3):
            expected = brute_farthest(dag, refs, q)
            got = farthest_path(dag, refs, q)
            assert (got is None) == (expected is None)
            if (
                got is not None
                and not unclamped_reference(dag, refs, q)
            ):
                # an overshoot instance: the strict convention loses the path
                assert hamming_distance(got, refs[0]) >= q

    @pytest.mark.parametrize("seed", range(120))
    def test_oracle_equivalence(self, seed):
        # q runs past 2L, the largest distance two s-t paths can have.
        dag = random_layered_dag(seed)
        catalog = enumerate_st_paths(dag)
        rng = random.Random(seed + 999)
        r = rng.randint(0, 4)
        refs = [rng.choice(catalog.paths) for _ in range(r)]
        length = len(catalog.paths[0])
        for q in range(2 * length + 2):
            got = farthest_path(dag, refs, q)
            expected = brute_farthest(dag, refs, q)
            assert (got is None) == (expected is None)
            if got is not None:
                assert is_st_path(dag, got)
                assert all(hamming_distance(got, ref) >= q for ref in refs)

    @pytest.mark.parametrize("seed", range(25))
    def test_monotone_in_q(self, seed):
        dag = random_layered_dag(seed + 4000)
        catalog = enumerate_st_paths(dag)
        rng = random.Random(seed)
        refs = [rng.choice(catalog.paths) for _ in range(rng.randint(1, 2))]
        feasible_q = [
            q for q in range(7) if farthest_path(dag, refs, q) is not None
        ]
        assert feasible_q == list(range(len(feasible_q)))

    def test_deterministic(self, diamond_dag, upper):
        first = farthest_path(diamond_dag, [upper], 2)
        assert all(
            farthest_path(diamond_dag, [upper], 2) == first for _ in range(3)
        )

    @pytest.mark.parametrize("name", sorted(GREEDY_PINNED))
    def test_greedy_paths_pinned(self, name):
        # Pinned in input arc ids; the greedy phase works in the dag's.
        g, k, d, expected = GREEDY_PINNED[name]
        dag = build_sp_dag(g)
        outcome = greedy_phase(dag, k, d)
        assert outcome.complete
        assert [[dag.input_arc[a] for a in p.arcs] for p in outcome.paths] == expected

    def test_four_references_on_15x15_grid(self):
        # q = 59 is a no-instance: a search over demand states visits all
        # of them here, which takes seconds.
        dag = build_sp_dag(gen_grid(15, 15))
        refs = random_walks(dag, 4, random.Random(0))
        found = farthest_path(dag, refs, 58)
        assert found is not None and is_st_path(dag, found)
        assert min(hamming_distance(found, ref) for ref in refs) >= 58
        assert farthest_path(dag, refs, 59) is None


class TestAgainstTupleDp:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(FARTHEST_ASKS)
    def test_same_path_as_reference(self, case):
        # q runs from 0 to 2L+1, past the largest distance two paths have.
        grid, a, b, seed, r = case
        g = gen_grid(a, b) if grid else gen_layered(a, b, 0.5, seed)
        dag = build_sp_dag(g)
        refs = random_walks(dag, r, random.Random(seed))
        for q in range(2 * len(refs[0]) + 2):
            assert farthest_path(dag, refs, q) == reference_farthest_path(
                dag, refs, q
            )

    def test_every_q_on_a_grid(self):
        dag = build_sp_dag(gen_grid(6, 6))
        refs = random_walks(dag, 3, random.Random(0))
        for q in range(1, dag.base.m + 2):
            assert farthest_path(dag, refs, q) == reference_farthest_path(
                dag, refs, q
            )

    @pytest.mark.parametrize("q", [1, 2, 4, 32, 64])
    def test_field_width_edge(self, q):
        # The far path's long arcs have labels of 8q + 1, far above q,
        # and a sum of q and such a label must not reach a guard bit.
        # Five references leave only that path.
        dag, refs, far = width_edge_refs(8 * q)
        long2 = far.arcs[1]
        assert max(arc_labels(dag, refs)[long2]) == 8 * q + 1
        assert farthest_path(dag, refs, q) == far
        assert reference_farthest_path(dag, refs, q) == far
