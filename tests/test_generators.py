import pytest

from conftest import binpack_feasible
from dspaths.generators import (
    BinPackingInstance,
    GeneratorError,
    gen_binpack,
    gen_grid,
    gen_layered,
    sidecar_dict,
)
from dspaths.graph import WEIGHT_SCALE, build_sp_dag, parse_graph
from dspaths.oracle import brute_solve, count_st_paths, enumerate_st_paths
from reference import validate_path_decomposition
from conftest import DIAMOND_TEXT


def assert_uniform_path_length(graph, expected):
    """Longest and shortest s-t arc counts coincide (all paths shortest)."""
    dag = build_sp_dag(graph)
    assert dag.base.m == graph.m  # unit weights: preprocessing is the identity
    longest = [None] * (dag.n + 1)
    shortest = [None] * (dag.n + 1)
    longest[1] = shortest[1] = 0
    for v in range(2, dag.n + 1):
        lo, hi = None, None
        for a in dag.incoming[v]:
            if longest[a.tail] is None:
                continue
            cand_hi = longest[a.tail] + 1
            cand_lo = shortest[a.tail] + 1
            hi = cand_hi if hi is None else max(hi, cand_hi)
            lo = cand_lo if lo is None else min(lo, cand_lo)
        longest[v], shortest[v] = hi, lo
    assert longest[dag.n] == shortest[dag.n] == expected


class TestGrid:
    def test_unit_square(self):
        g = gen_grid(1, 1)
        assert g.n == 4 and g.m == 4
        assert count_st_paths(build_sp_dag(g)) == 2

    def test_two_by_two(self):
        assert count_st_paths(build_sp_dag(gen_grid(2, 2))) == 6

    @pytest.mark.parametrize("w,h", [(1, 1), (2, 3), (3, 2)])
    def test_uniform_length(self, w, h):
        assert_uniform_path_length(gen_grid(w, h), w + h)

    def test_bad_dims(self):
        with pytest.raises(GeneratorError):
            gen_grid(0, 2)


class TestLayered:
    def test_width_one_single_path(self):
        g = gen_layered(3, 1, 1.0, seed=0)
        assert count_st_paths(build_sp_dag(g)) == 1

    def test_same_seed_identical(self):
        a = gen_layered(3, 3, 0.5, seed=7)
        b = gen_layered(3, 3, 0.5, seed=7)
        assert a == b

    def test_count_matches_enumeration(self):
        g = gen_layered(3, 3, 0.5, seed=7)
        dag = build_sp_dag(g)
        catalog = enumerate_st_paths(dag)
        assert count_st_paths(dag) == len(catalog.paths)

    def test_bad_prob(self):
        with pytest.raises(GeneratorError):
            gen_layered(2, 2, 0.0, seed=1)


class TestBinpack:
    def test_two_twos_meta(self):
        inst = gen_binpack(BinPackingInstance(items=(2, 2), bins=2, capacity=2))
        assert inst.meta["doubled"] is True
        assert inst.meta["capacity"] == 4
        assert inst.meta["items"] == (4, 4)
        assert inst.meta["ell"] == 16
        assert inst.ask_k == 4 and inst.ask_d == 24

    def test_three_twos_meta(self):
        inst = gen_binpack(BinPackingInstance(items=(2, 2, 2), bins=2, capacity=3))
        assert inst.meta["doubled"] is True
        assert inst.meta["capacity"] == 6
        assert inst.meta["ell"] == 30
        assert inst.ask_d == 48

    @pytest.mark.parametrize(
        "items,bins,capacity",
        [
            ((2, 2), 2, 2),
            ((1, 1, 1, 1), 2, 2),
            ((2, 2, 2), 2, 3),
            ((1, 1, 2), 2, 2),
            ((3, 3, 2), 2, 4),
        ],
    )
    def test_uniform_length_and_count(self, items, bins, capacity):
        inst = gen_binpack(BinPackingInstance(items=items, bins=bins, capacity=capacity))
        assert_uniform_path_length(inst.graph, inst.meta["ell"])
        assert count_st_paths(build_sp_dag(inst.graph)) == inst.meta["path_count"]

    def test_all_paths_unit_weight(self):
        inst = gen_binpack(BinPackingInstance(items=(2, 2), bins=2, capacity=2))
        assert all(a.weight == WEIGHT_SCALE for a in inst.graph.arcs)

    @pytest.mark.parametrize(
        "items,bins,capacity",
        [
            ((2, 2), 2, 2),        # degenerate items, feasible
            ((1, 1, 2), 2, 2),     # mixed fork/degenerate, feasible
            ((3, 3, 2), 2, 4),     # forks only, infeasible
        ],
    )
    def test_reduction_matches_feasibility(self, items, bins, capacity):
        inst = gen_binpack(BinPackingInstance(items=items, bins=bins, capacity=capacity))
        dag = build_sp_dag(inst.graph)
        found = brute_solve(dag, inst.ask_k, inst.ask_d)
        expected = binpack_feasible(items, bins, capacity)
        assert (found is not None) == expected

    @pytest.mark.parametrize(
        "items,bins,capacity,fragment",
        [
            ((2, 2), 1, 4, "bins"),
            ((), 2, 0, "nonempty"),
            ((0, 4), 2, 2, "positive"),
            ((5, 3), 2, 4, "exceeds capacity"),
            ((2, 3), 2, 2, "sum"),
            ((1, 1, 1, 3), 3, 2, "exceeds capacity"),
        ],
    )
    def test_precondition_errors(self, items, bins, capacity, fragment):
        with pytest.raises(GeneratorError, match=fragment):
            gen_binpack(
                BinPackingInstance(items=items, bins=bins, capacity=capacity)
            )

    def test_sidecar_shape(self):
        inst = gen_binpack(BinPackingInstance(items=(2, 2), bins=2, capacity=2))
        doc = sidecar_dict(inst)
        assert set(doc) == {"ask_k", "ask_d", "ell", "doubled", "decomposition"}
        assert doc["ask_k"] == 4 and doc["decomposition"]


class TestPathDecomposition:
    def test_single_bag_diamond(self):
        g = parse_graph(DIAMOND_TEXT)
        ok, width = validate_path_decomposition(g, [{1, 2, 3, 4}])
        assert ok and width == 3

    def test_contiguity_violation(self):
        g = parse_graph(DIAMOND_TEXT)
        bags = [{1, 2, 3, 4}, {2, 3, 4}, {1, 2, 3, 4}]
        ok, _ = validate_path_decomposition(g, bags)
        assert not ok

    def test_uncovered_arc(self):
        g = parse_graph(DIAMOND_TEXT)
        bags = [{1, 2}, {2, 4}, {3, 4}]  # misses arc (1, 3)
        ok, _ = validate_path_decomposition(g, bags)
        assert not ok

    def test_missing_vertex(self):
        g = parse_graph(DIAMOND_TEXT)
        ok, _ = validate_path_decomposition(g, [{1, 2, 4}])
        assert not ok

    @pytest.mark.parametrize(
        "items,bins,capacity",
        [
            ((2, 2), 2, 2),
            ((1, 1, 1, 1), 2, 2),
            ((2, 2, 2), 2, 3),
            ((1, 2, 3), 2, 3),
            ((3, 3), 2, 3),
            ((1, 1, 2, 2), 2, 3),
            ((2, 3, 4, 3), 2, 6),
            ((2, 2, 2), 3, 2),
            ((1, 1, 1, 1, 2), 3, 2),
            ((4, 2, 2), 2, 4),
        ],
    )
    def test_generated_decomposition_width_at_most_4(self, items, bins, capacity):
        inst = gen_binpack(BinPackingInstance(items=items, bins=bins, capacity=capacity))
        ok, width = validate_path_decomposition(inst.graph, inst.decomposition)
        assert ok and width <= 4
