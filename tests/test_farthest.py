import random

import pytest

from conftest import random_layered_dag
from dspaths.farthest import arc_label_vector, farthest_path
from dspaths.generators import gen_grid, gen_layered
from dspaths.graph import Path, build_sp_dag, hamming_distance, parse_graph
from dspaths.oracle import brute_farthest, enumerate_st_paths
from dspaths.solver import greedy_phase

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
    labels = {a.id: arc_label_vector(dag, refs, a.id) for a in dag.base.arcs}
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


# Greedy paths recorded with the backward demand-state search that the
# forward pass replaced: (graph, k, d, arc lists).  The greedy phase
# completes on each.
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
            [0, 2, 4, 6, 8, 10, 12, 15, 39, 41, 43, 45,
             47, 49, 74, 99, 124, 149, 174, 199, 224, 249, 274, 299],
            [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 23,
             47, 49, 74, 99, 124, 149, 174, 199, 224, 249, 274, 299],
        ],
    ),
    "layered0": (
        gen_layered(10, 6, 0.4, 0),
        3,
        4,
        [
            [0, 5, 13, 22, 48, 51, 72, 81, 94, 119, 123],
            [0, 5, 15, 29, 33, 53, 67, 79, 95, 111, 123],
            [0, 5, 14, 26, 37, 53, 67, 79, 95, 111, 123],
        ],
    ),
    "layered1": (
        gen_layered(10, 6, 0.4, 1),
        3,
        4,
        [
            [0, 2, 21, 32, 40, 57, 73, 99, 108, 130, 142],
            [0, 2, 21, 32, 40, 59, 79, 93, 104, 126, 141],
            [1, 10, 21, 32, 40, 59, 79, 93, 104, 126, 141],
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


class TestArcLabels:
    def test_in_path_window_only_self(self, diamond_dag, upper):
        # arc (a, t) is on the reference and its window holds no other ref arc
        assert arc_label_vector(diamond_dag, [upper], 2) == (0,)

    def test_not_in_path_empty_window(self):
        dag = build_sp_dag(parse_graph(FORKED_TEXT))
        # arc 3 = (3, 4): its head window contains no arc of the upper route
        assert arc_label_vector(dag, [Path((0, 2))], 3) == (1,)

    def test_window_with_foreign_ref_arc(self, diamond_dag, upper):
        # arc (b, t): window is all arcs into t, one of which is on the ref
        assert arc_label_vector(diamond_dag, [upper], 3) == (2,)

    def test_unknown_arc(self, diamond_dag, upper):
        with pytest.raises(ValueError, match="not in dag"):
            arc_label_vector(diamond_dag, [upper], 99)

    def test_multiple_refs(self, diamond_dag, upper, lower):
        assert arc_label_vector(diamond_dag, [upper, lower], 3) == (2, 0)


class TestFarthestPath:
    def test_no_refs_returns_lex_smallest(self, diamond_dag):
        assert farthest_path(diamond_dag, [], 5).arcs == (0, 2)

    def test_single_path_graph(self):
        dag = build_sp_dag(parse_graph("p dsp 3 2\ns 1\nt 3\na 1 2 1\na 2 3 1\n"))
        only = Path((0, 1))
        assert farthest_path(dag, [only], 1) is None
        assert farthest_path(dag, [only], 0) == only

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
                assert dag.is_st_path(got)
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
        g, k, d, expected = GREEDY_PINNED[name]
        outcome = greedy_phase(build_sp_dag(g), k, d)
        assert outcome.complete
        assert [list(p.arcs) for p in outcome.paths] == expected

    def test_four_references_on_15x15_grid(self):
        # q = 59 is a no-instance: a search over demand states visits all
        # of them here, which takes seconds.
        dag = build_sp_dag(gen_grid(15, 15))
        refs = random_walks(dag, 4, random.Random(0))
        found = farthest_path(dag, refs, 58)
        assert found is not None and dag.is_st_path(found)
        assert min(hamming_distance(found, ref) for ref in refs) >= 58
        assert farthest_path(dag, refs, 59) is None
