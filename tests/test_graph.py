import random

import pytest

from conftest import (
    DIAMOND_TEXT,
    random_weighted_digraph,
    raw_st_paths,
)
from dspaths.graph import (
    GraphParseError,
    NoShortestPathError,
    Path,
    WEIGHT_SCALE,
    build_sp_dag,
    format_graph,
    graph_hash,
    hamming_distance,
    parse_graph,
)
from dspaths.oracle import enumerate_st_paths


class TestParse:
    def test_minimal_file(self):
        g = parse_graph("p dsp 2 1\ns 1\nt 2\na 1 2 1.0\n")
        assert g.n == 2 and g.m == 1
        assert g.arcs[0].weight == WEIGHT_SCALE

    def test_diamond(self, diamond):
        assert diamond.m == 4
        assert [a.tail for a in diamond.arcs] == [1, 1, 2, 3]

    def test_weight_scaling(self):
        g = parse_graph("p dsp 2 3\ns 1\nt 2\na 1 2 2.5\na 1 2 0.000001\na 1 2 3\n")
        assert [a.weight for a in g.arcs] == [2_500_000, 1, 3 * WEIGHT_SCALE]

    def test_comments_and_blanks(self):
        g = parse_graph(
            "# intro\n\np dsp 2 1  # header\ns 1\nt 2\n\na 1 2 1 # arc\n"
        )
        assert g.m == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("p dsp 2 1\ns 1\nt 2\na 1 2 0\n", "non-positive"),
            ("p dsp 2 1\ns 1\nt 2\na 1 2 0.0\n", "non-positive"),
            ("p dsp 2 1\np dsp 2 1\ns 1\nt 2\na 1 2 1\n", "duplicate header"),
            ("p dsp 2 1\ns 1\ns 2\nt 2\na 1 2 1\n", "duplicate 's'"),
            ("p dsp 2 1\ns 1\nt 2\na 1 3 1\n", "out of range"),
            ("p dsp 2 1\ns 3\nt 2\na 1 2 1\n", "out of range"),
            ("p dsp 2 1\ns 1\nt 2\na 1 2 1.1234567\n", "bad weight"),
            ("p dsp 2 1\ns 1\nt 2\na 1 2 -1\n", "bad weight"),
            ("s 1\np dsp 2 1\nt 2\na 1 2 1\n", "header first"),
            ("p dsp 2 1\ns 1\nt 2\nz 1 2\n", "unknown line"),
            ("p dsp 2 1\ns 1\nt 2\na 1 2 1\na 2 1 1\n", "more than"),
        ],
    )
    def test_errors_name_line(self, text, fragment):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text)
        assert fragment in str(exc.value)
        assert "line" in str(exc.value)

    def test_missing_arcs(self):
        with pytest.raises(GraphParseError, match="expected 2 arcs"):
            parse_graph("p dsp 2 2\ns 1\nt 2\na 1 2 1\n")

    def test_round_trip(self, diamond):
        assert parse_graph(format_graph(diamond)) == diamond

    def test_graph_hash_stable(self, diamond):
        assert graph_hash(diamond) == graph_hash(parse_graph(DIAMOND_TEXT))


class TestBuildSpDag:
    def test_triangle_prunes_long_arc(self, triangle):
        dag = build_sp_dag(triangle)
        assert sorted(a.id for a in dag.base.arcs) == [0, 1]
        assert dag.dist[-1] == 2 * WEIGHT_SCALE

    def test_diamond_identity(self, diamond):
        dag = build_sp_dag(diamond)
        assert dag.base.m == 4 and dag.n == 4
        assert dag.orig_vertex == (1, 2, 3, 4)

    def test_unreachable(self):
        g = parse_graph("p dsp 3 1\ns 1\nt 3\na 1 2 1\n")
        with pytest.raises(NoShortestPathError, match="no shortest path exists"):
            build_sp_dag(g)

    def test_every_arc_strictly_increases_dist(self, diamond):
        dag = build_sp_dag(diamond)
        for a in dag.base.arcs:
            assert dag.dist[a.head - 1] == dag.dist[a.tail - 1] + a.weight

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_shortest_path_enumeration(self, seed):
        g = random_weighted_digraph(seed)
        raw = raw_st_paths(g)
        best = min(w for _, w in raw)
        shortest = {arcs for arcs, w in raw if w == best}
        dag = build_sp_dag(g)
        catalog = enumerate_st_paths(dag, budget=10**4)
        assert not catalog.truncated
        assert {p.arcs for p in catalog.paths} == shortest
        for p in catalog.paths:
            assert sum(dag.arc_by_id[a].weight for a in p.arcs) == best


class TestHamming:
    def test_identical(self, upper):
        assert hamming_distance(upper, upper) == 0

    def test_disjoint(self, upper, lower):
        assert hamming_distance(upper, lower) == 4

    def test_partial_overlap(self):
        assert hamming_distance(Path((0, 1, 2)), Path((0, 3, 2))) == 2

    def test_triangle_inequality(self):
        rng = random.Random(7)
        for _ in range(2000):
            x, y, z = (
                frozenset(rng.sample(range(64), rng.randint(0, 12)))
                for _ in range(3)
            )
            assert len(x ^ z) <= len(x ^ y) + len(y ^ z)

    def test_partition_identity(self):
        rng = random.Random(11)
        for _ in range(2000):
            pool = list(range(40))
            rng.shuffle(pool)
            w = frozenset(pool[: rng.randint(0, 8)])
            x = frozenset(pool[8 : 8 + rng.randint(0, 8)])
            rng.shuffle(pool)
            y = frozenset(pool[: rng.randint(0, 8)])
            z = frozenset(pool[8 : 8 + rng.randint(0, 8)])
            lhs = len((w | x) ^ (y | z))
            rhs = (
                len(w ^ y)
                + len(x ^ y)
                + len(w ^ z)
                + len(x ^ z)
                - len(w | x)
                - len(y | z)
            )
            assert lhs == rhs
