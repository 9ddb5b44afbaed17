import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_layered_dag, unit_chain
from dspaths.generators import BinPackingInstance, gen_binpack, gen_grid, gen_layered
from dspaths.graph import (
    WEIGHT_SCALE,
    Arc,
    ArcWeightedDigraph,
    Path,
    build_sp_dag,
    hamming_distance,
    parse_graph,
)
from dspaths.oracle import (
    brute_solve,
    count_st_paths,
    enumerate_st_paths,
    path_of_mask,
)
from dspaths.solver import solve
from reference import (
    brute_ball,
    brute_farthest,
    minimal_bypass_decomposition,
    reference_enumerate,
    reference_select,
)

# three diamonds in series; arcs 0..11, upper/lower choice per diamond
CHAIN_TEXT = """\
p dsp 10 12
s 1
t 10
a 1 2 1
a 1 3 1
a 2 4 1
a 3 4 1
a 4 5 1
a 4 6 1
a 5 7 1
a 6 7 1
a 7 8 1
a 7 9 1
a 8 10 1
a 9 10 1
"""


def _binpack(items, bins):
    return gen_binpack(BinPackingInstance(items, bins, sum(items) // bins)).graph


# Certificates recorded once the oracle handed the kernel its catalog far
# first: (graph, k, d, path count, arc lists).  Each catalog is long
# enough that the kernel builds its early rows bit-parallel.
ORACLE_PINNED = {
    "binpack111_3": (
        lambda: _binpack((1, 1, 1), 3),
        6,
        24,
        10125,
        [
            [2, 3, 8, 9, 14, 15, 20, 21, 26, 27, 36, 37, 46, 47],
            [2, 3, 10, 11, 16, 17, 22, 23, 28, 29, 38, 39, 48, 49],
            [4, 5, 6, 7, 14, 15, 22, 23, 30, 31, 40, 41, 50, 51],
            [0, 1, 8, 9, 16, 17, 18, 19, 30, 31, 42, 43, 52, 53],
            [4, 5, 10, 11, 12, 13, 18, 19, 32, 33, 34, 35, 46, 47],
            [0, 1, 6, 7, 12, 13, 20, 21, 24, 25, 38, 39, 44, 45],
        ],
    ),
    "binpack1111_2": (
        lambda: _binpack((1, 1, 1, 1), 2),
        4,
        40,
        1024,
        [
            [6, 4, 5, 7, 14, 12, 13, 15, 22, 20, 21, 23,
             36, 34, 35, 37, 53, 52, 54, 55, 67, 66, 68, 69],
            [2, 0, 1, 3, 14, 12, 13, 15, 25, 24, 26, 27,
             39, 38, 40, 41, 50, 48, 49, 51, 64, 62, 63, 65],
            [6, 4, 5, 7, 10, 8, 9, 11, 25, 24, 28, 29,
             39, 38, 42, 43, 46, 44, 45, 47, 60, 58, 59, 61],
            [2, 0, 1, 3, 10, 8, 9, 11, 18, 16, 17, 19,
             32, 30, 31, 33, 53, 52, 56, 57, 67, 66, 70, 71],
        ],
    ),
    "grid7": (
        lambda: gen_grid(7, 7),
        4,
        6,
        3432,
        [
            [1, 15, 17, 19, 21, 23, 25, 28, 43, 58, 73, 88, 103, 111],
            [1, 15, 17, 19, 21, 23, 26, 41, 55, 58, 73, 88, 103, 111],
            [1, 15, 17, 19, 21, 23, 26, 41, 56, 71, 85, 88, 103, 111],
            [1, 15, 17, 19, 21, 23, 26, 41, 56, 71, 86, 101, 110, 111],
        ],
    ),
}


def _series(*parts: tuple[str, int]) -> ArcWeightedDigraph:
    """Unit-weight parts in series from s = 1: ("chain", n) is n arcs in a
    row, ("diamonds", n) n diamonds in a row, ("parallel", n) n parallel
    arcs.  Arc ids follow the order the parts are listed in."""
    pairs: list[tuple[int, int]] = []
    v = 1
    for kind, count in parts:
        if kind == "chain":
            pairs += [(v + i, v + i + 1) for i in range(count)]
            v += count
        elif kind == "parallel":
            pairs += [(v, v + 1)] * count
            v += 1
        else:
            for _ in range(count):
                pairs += [(v, v + 1), (v, v + 2), (v + 1, v + 3), (v + 2, v + 3)]
                v += 3
    arcs = tuple(Arc(i, a, b, WEIGHT_SCALE) for i, (a, b) in enumerate(pairs))
    return ArcWeightedDigraph(n=v, arcs=arcs, s=1, t=v)


# Shapes on which the suffix DP must reproduce the depth-first walk:
# chains share one mask list, parallel arcs read one head twice, and
# diamond ladders put chains before, after and between the branchings.
SERIES_SHAPES = {
    "one_arc": [("chain", 1)],
    "chain": [("chain", 40)],
    "parallel": [("parallel", 3)],
    "parallel_in_series": [("chain", 2), ("parallel", 2), ("diamonds", 1), ("parallel", 3)],
    "diamonds": [("diamonds", 6)],
    "chain_before": [("chain", 30), ("diamonds", 5)],
    "chain_after": [("diamonds", 5), ("chain", 30)],
    "chain_between": [("diamonds", 3), ("chain", 12), ("diamonds", 3)],
    "chains_around": [("chain", 7), ("diamonds", 2), ("chain", 5), ("parallel", 2), ("chain", 9)],
}


@pytest.fixture
def chain_dag():
    return build_sp_dag(parse_graph(CHAIN_TEXT))


class TestEnumerate:
    def test_diamond(self, diamond_dag):
        catalog = enumerate_st_paths(diamond_dag)
        assert [p.arcs for p in catalog.paths] == [(0, 2), (1, 3)]
        assert catalog.masks == (0b0101, 0b1010)

    def test_grid(self):
        dag = build_sp_dag(gen_grid(2, 2))
        catalog = enumerate_st_paths(dag)
        assert len(catalog.paths) == 6 == count_st_paths(dag)

    def test_source_is_sink(self):
        dag = build_sp_dag(parse_graph("p dsp 2 1\ns 1\nt 1\na 1 2 1\n"))
        catalog = enumerate_st_paths(dag)
        assert catalog.paths == (Path(()),) and catalog.masks == (0,)
        assert count_st_paths(dag) == 1

    def test_count_saturates(self, chain_dag):
        assert count_st_paths(chain_dag) == 8
        assert count_st_paths(chain_dag, cap=3) == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_masks_are_arc_sets(self, seed):
        dag = random_layered_dag(seed + 8000)
        catalog = enumerate_st_paths(dag)
        assert len(catalog.paths) == count_st_paths(dag)
        assert catalog.masks == tuple(
            sum(1 << aid for aid in p.arcs) for p in catalog.paths
        )

    def test_deterministic_order(self, chain_dag):
        a = enumerate_st_paths(chain_dag)
        b = enumerate_st_paths(chain_dag)
        assert a.paths == b.paths

    @staticmethod
    def _assert_matches_reference(dag):
        paths, masks = reference_enumerate(dag)
        catalog = enumerate_st_paths(dag)
        assert list(catalog.masks) == masks
        assert list(catalog.paths) == paths

    @pytest.mark.parametrize("shape", list(SERIES_SHAPES))
    def test_series_matches_reference(self, shape):
        self._assert_matches_reference(build_sp_dag(_series(*SERIES_SHAPES[shape])))

    def test_source_is_sink_matches_reference(self):
        dag = build_sp_dag(parse_graph("p dsp 2 1\ns 1\nt 1\na 1 2 1\n"))
        self._assert_matches_reference(dag)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        st.integers(1, 5), st.integers(1, 4), st.floats(0.3, 1.0),
        st.integers(0, 10**6), st.booleans(),
    )
    def test_layered_matches_reference(self, layers, width, prob, seed, shuffle):
        # Shuffled arc ids put the lexicographic order out of step with
        # the topological one.
        g = gen_layered(layers, width, prob, seed)
        if shuffle:
            order = list(g.arcs)
            random.Random(seed).shuffle(order)
            arcs = tuple(Arc(i, a.tail, a.head, a.weight) for i, a in enumerate(order))
            g = ArcWeightedDigraph(n=g.n, arcs=arcs, s=g.s, t=g.t)
        self._assert_matches_reference(build_sp_dag(g))

    def test_chain_after_diamonds_stays_small(self):
        # 10 diamonds then a 300-arc chain: 1,024 paths of 320 arcs.  A
        # catalog that holds each path as an arc tuple needs about
        # 1,024 x 320 x 8 B = 2.6 MB; the masks need about 1,024 x 72 B.
        dag = build_sp_dag(_series(("diamonds", 10), ("chain", 300)))
        tracemalloc.start()
        try:
            catalog = enumerate_st_paths(dag)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(catalog.masks) == reference_enumerate(dag)[1]
        assert peak < 1_000_000

    def test_path_of_mask_round_trip(self):
        # 10 diamonds then a 300-arc chain: 1,024 paths of 320 arcs, each
        # decoded from its 340-bit mask.
        dag = build_sp_dag(_series(("diamonds", 10), ("chain", 300)))
        paths, masks = reference_enumerate(dag)
        assert [path_of_mask(dag, m) for m in masks] == paths

    def test_path_of_mask_rejects_non_paths(self, diamond_dag):
        assert path_of_mask(diamond_dag, 0b1010) == Path((1, 3))
        with pytest.raises(ValueError, match="by no arc"):
            path_of_mask(diamond_dag, 0b0011)  # both arcs out of s
        with pytest.raises(ValueError, match="off its s-t path"):
            path_of_mask(diamond_dag, 0b0111)  # upper path plus arc 1


class TestBruteSolve:
    def test_diamond_yes(self, diamond_dag):
        found = brute_solve(diamond_dag, 2, 4)
        assert found is not None
        assert {p.arcs for p in found} == {(0, 2), (1, 3)}

    def test_diamond_no(self, diamond_dag):
        assert brute_solve(diamond_dag, 2, 5) is None

    def test_k1_always_yes(self, diamond_dag):
        assert brute_solve(diamond_dag, 1, 10**6) is not None

    def test_k0_vacuous(self, diamond_dag):
        assert brute_solve(diamond_dag, 0, 3) == []

    def test_d0_allows_repetition(self):
        dag = build_sp_dag(parse_graph("p dsp 2 1\ns 1\nt 2\na 1 2 1\n"))
        found = brute_solve(dag, 3, 0)
        assert found is not None and len(found) == 3

    def test_long_chain(self):
        # deeper than the interpreter's default recursion limit
        found = brute_solve(build_sp_dag(unit_chain(1500)), 1, 0)
        assert found is not None and found[0].arcs == tuple(range(1500))

    @pytest.mark.parametrize("name", list(ORACLE_PINNED))
    def test_certificates_pinned(self, name):
        build, k, d, count, expected = ORACLE_PINNED[name]
        dag = build_sp_dag(build())
        assert count_st_paths(dag) == count
        found = brute_solve(dag, k, d)
        assert found is not None
        assert [list(p.arcs) for p in found] == expected

    FAR_FIRST_DAGS = {
        "layered": lambda: [random_layered_dag(seed + 9000, max_arcs=20) for seed in range(20)],
        "grid": lambda: [build_sp_dag(gen_grid(w, h)) for w, h in ((2, 2), (3, 3), (4, 3))],
        "binpack": lambda: [
            build_sp_dag(_binpack(items, 2)) for items in ((1, 1, 2), (1, 2, 3), (1, 1, 1, 1))
        ],
    }

    @pytest.mark.parametrize("kind", sorted(FAR_FIRST_DAGS))
    def test_far_first_order(self, kind):
        # The answer is the kernel's first selection over the catalog
        # stably sorted by descending distance from its first path.
        # Catalog order picks other paths on some of these asks, so the
        # order is what is tested.
        other_paths = 0
        for idx, dag in enumerate(self.FAR_FIRST_DAGS[kind]()):
            rng = random.Random(idx)
            catalog = enumerate_st_paths(dag)
            by_mask = dict(zip(catalog.masks, catalog.paths))
            first = catalog.masks[0]
            far_first = sorted(catalog.masks, key=lambda m: -(m ^ first).bit_count())
            length = len(catalog.paths[0].arcs)
            for _ in range(4):
                k = rng.randint(2, 4)
                d = rng.randint(1, 2 * length)
                chosen = reference_select(far_first, k, d)
                expected = None if chosen is None else [by_mask[m] for m in chosen]
                assert brute_solve(dag, k, d) == expected, (idx, k, d)
                if chosen is not None:
                    in_catalog_order = reference_select(catalog.masks, k, d)
                    other_paths += set(chosen) != set(in_catalog_order)
        assert other_paths

    def test_binpack_222_2_no(self):
        # (2, 2, 2) does not pack into two bins of 3: no 4 paths 48 apart
        assert brute_solve(build_sp_dag(_binpack((2, 2, 2), 2)), 4, 48) is None


class TestBruteFarthest:
    def test_no_refs(self, diamond_dag):
        assert brute_farthest(diamond_dag, [], 0).arcs == (0, 2)

    def test_diamond(self, diamond_dag, upper, lower):
        assert brute_farthest(diamond_dag, [upper], 4) == lower

    def test_infeasible(self, diamond_dag, upper, lower):
        assert brute_farthest(diamond_dag, [upper, lower], 1) is None


class TestBruteBall:
    def test_center_only(self, diamond_dag, upper):
        assert brute_ball(diamond_dag, upper, 0, 1, 0) == [upper]

    def test_diamond_pair(self, diamond_dag, upper, lower):
        found = brute_ball(diamond_dag, upper, 4, 2, 4)
        assert found is not None and {p.arcs for p in found} == {(0, 2), (1, 3)}

    def test_radius_zero_two_paths(self, diamond_dag, upper):
        assert brute_ball(diamond_dag, upper, 0, 2, 1) is None


class TestAntitone:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(0, 10**4), st.integers(1, 4), st.integers(1, 6))
    def test_decisions_antitone_in_k_and_d(self, seed, k, d):
        # A yes at (k, d) stays a yes with one path fewer or a smaller d,
        # and the fpt pipeline says yes only where the oracle does.
        dag = random_layered_dag(seed)
        yes = brute_solve(dag, k, d) is not None
        if yes:
            assert brute_solve(dag, k - 1, d) is not None
            assert brute_solve(dag, k, d - 1) is not None
        fpt = solve(dag.base, k, d, "fpt")
        assert fpt.decision != "yes" or yes


class TestDecomposition:
    def test_identical_paths(self, diamond_dag, upper):
        assert minimal_bypass_decomposition(diamond_dag, upper, upper) == []

    def test_diamond_single_component(self, diamond_dag, upper, lower):
        comps = minimal_bypass_decomposition(diamond_dag, upper, lower)
        assert len(comps) == 1
        assert comps[0].window == (1, 4)
        assert comps[0].arcs == frozenset({0, 1, 2, 3})

    def test_chain_two_detours(self, chain_dag):
        center = Path((0, 2, 4, 6, 8, 10))
        other = Path((1, 3, 4, 6, 9, 11))
        comps = minimal_bypass_decomposition(chain_dag, center, other)
        assert [c.window for c in comps] == [(1, 4), (7, 10)]
        assert comps[0].arcs == frozenset({0, 1, 2, 3})
        assert comps[1].arcs == frozenset({8, 9, 10, 11})

    def test_rejects_non_paths(self, diamond_dag, upper):
        with pytest.raises(ValueError, match="s-t paths"):
            minimal_bypass_decomposition(diamond_dag, upper, Path((0,)))

    @pytest.mark.parametrize("seed", range(40))
    def test_recombination_and_minimality(self, seed):
        dag = random_layered_dag(seed + 300)
        catalog = enumerate_st_paths(dag)
        if len(catalog.paths) > 20:
            return
        rng = random.Random(seed)
        pairs = [
            (a, b) for a in catalog.paths for b in catalog.paths
        ]
        rng.shuffle(pairs)
        for center, other in pairs[:25]:
            comps = minimal_bypass_decomposition(dag, center, other)
            union = set()
            for c in comps:
                assert not (union & c.arcs)  # components are arc-disjoint
                union |= c.arcs
            assert union == set(center.arc_set ^ other.arc_set)
            # windows overlap at most at endpoints
            spans = sorted(c.window for c in comps)
            for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                assert b1 <= a2
            for comp in comps:
                self._check_minimal(dag, center, comp)

    @staticmethod
    def _check_minimal(dag, center, comp):
        center_side = [a for a in comp.arcs if a in center.arc_set]
        detour_side = [a for a in comp.arcs if a not in center.arc_set]
        assert center_side and detour_side
        lo, hi = comp.window

        def chain_vertices(arc_ids):
            by_tail = {dag.base.arcs[a].tail: a for a in arc_ids}
            v, seen = lo, [lo]
            while v != hi:
                arc = dag.base.arcs[by_tail[v]]
                v = arc.head
                seen.append(v)
            assert len(seen) == len(arc_ids) + 1
            return seen

        center_verts = chain_vertices(center_side)
        detour_verts = chain_vertices(detour_side)
        shared = set(center_verts[1:-1]) & set(detour_verts[1:-1])
        assert not shared  # internally vertex-disjoint: a single cycle
