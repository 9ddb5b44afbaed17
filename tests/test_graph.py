import dataclasses
import random

import networkx as nx
import pytest

from conftest import (
    DIAMOND_TEXT,
    random_multidigraph,
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
    shortest_distances,
)
from dspaths.oracle import enumerate_st_paths


# (text, line named in the error, fragment of the message)
PARSE_ERRORS = [
    ("p dsp 2 1\ns 1\nt 2\na 1 2 0\n", 4, "non-positive"),
    ("p dsp 2 1\ns 1\nt 2\na 1 2 0.0\n", 4, "non-positive"),
    ("p dsp 2 1\np dsp 2 1\ns 1\nt 2\na 1 2 1\n", 2, "duplicate header"),
    ("p dsp 2 1\ns 1\ns 2\nt 2\na 1 2 1\n", 3, "duplicate 's'"),
    ("p dsp 2 1\ns 1\nt 2\na 1 3 1\n", 4, "out of range"),
    ("p dsp 2 1\ns 3\nt 2\na 1 2 1\n", 2, "out of range"),
    ("p dsp 2 1\ns 1\nt 2\na 1 2 1.1234567\n", 4, "bad weight"),
    ("p dsp 2 1\ns 1\nt 2\na 1 2 -1\n", 4, "bad weight"),
    ("s 1\np dsp 2 1\nt 2\na 1 2 1\n", 1, "header first"),
    ("p dsp 2 1\ns 1\nt 2\nz 1 2\n", 4, "unknown line"),
    ("p dsp 2 1\ns 1\nt 2\na 1 2 1\na 2 1 1\n", 5, "more than"),
    ("p dsp 2 1\ns 1\nt 2\na 1 2\n", 4, "malformed arc line"),
    ("p dsp 2 1\ns 1\nt 2\na x 2 1\n", 4, "malformed arc line"),
    ("a 1 2 1\np dsp 2 1\ns 1\nt 2\n", 1, "header first"),
]


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
        # A comment glued to a token, a comment-only line, and one weight
        # spelled three ways: each spelling parses to the same weight.
        g = parse_graph(
            "p dsp 2 4\ns 1\nt 2\na 1 2 1#c\n  # only a comment\n"
            "a 1 2 1\na 1 2 1.0\na 1 2 1.000000\n"
        )
        assert [a.weight for a in g.arcs] == [WEIGHT_SCALE] * 4

    @pytest.mark.parametrize(
        "text,line,fragment",
        PARSE_ERRORS,
        ids=[f"{text}-{fragment}" for text, _, fragment in PARSE_ERRORS],
    )
    def test_errors_name_line(self, text, line, fragment):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text)
        assert fragment in str(exc.value)
        assert str(exc.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize(
        "bad,fragment", [("0", "non-positive"), ("1.1234567", "bad weight")]
    )
    def test_bad_weight_after_good_names_its_line(self, bad, fragment):
        # A bad weight token reports the line it is on, whether a good
        # token or the same bad one came before it.
        text = f"p dsp 2 3\ns 1\nt 2\na 1 2 1\na 1 2 1\na 1 2 {bad}\n"
        with pytest.raises(GraphParseError, match=f"^line 6: {fragment}"):
            parse_graph(text)
        text = f"p dsp 2 3\ns 1\nt 2\na 1 2 {bad}\na 1 2 {bad}\na 1 2 1\n"
        with pytest.raises(GraphParseError, match=f"^line 4: {fragment}"):
            parse_graph(text)

    def test_missing_arcs(self):
        with pytest.raises(GraphParseError, match="expected 2 arcs"):
            parse_graph("p dsp 2 2\ns 1\nt 2\na 1 2 1\n")

    def test_round_trip(self, diamond):
        assert parse_graph(format_graph(diamond)) == diamond
        # Parallel arcs, self-loops and s == t, with weights from one
        # scaled unit (0.000001) up to 10**13 units.
        rng = random.Random(14376)
        for _ in range(2000):
            g = random_multidigraph(rng)
            arcs = tuple(a._replace(weight=rng.randint(1, 10**13)) for a in g.arcs)
            g = dataclasses.replace(g, arcs=arcs)
            assert parse_graph(format_graph(g)) == g

    def test_graph_hash_stable(self, diamond):
        assert graph_hash(diamond) == graph_hash(parse_graph(DIAMOND_TEXT))
        # Every certificate carries this digest, so its payload format is
        # part of the output.
        assert graph_hash(diamond) == (
            "e9dba12091558b32655a85d50be9574dea9bbe169a20d10013904261d19e4dd4"
        )
        multi = parse_graph(
            "p dsp 3 5\ns 1\nt 3\na 1 2 0.5\na 1 2 0.5\na 2 3 2.25\n"
            "a 2 3 1.75\na 1 3 2.000001\n"
        )
        assert graph_hash(multi) == (
            "45cabe77f0e0947ac33f8c32fb3142c03822a82ed6c041a69959fda2ec4c4e9f"
        )


class TestBuildSpDag:
    def test_triangle_prunes_long_arc(self, triangle):
        dag = build_sp_dag(triangle)
        assert [a.id for a in dag.base.arcs] == [0, 1]
        assert dag.input_arc == (0, 1)
        assert shortest_distances(triangle)[triangle.t] == 2 * WEIGHT_SCALE
        assert sum(a.weight for a in dag.base.arcs) == 2 * WEIGHT_SCALE

    def test_renumbers_after_a_pruned_lower_id(self):
        # The long arc 0 and the dead-end arc 3 go; arcs 1 and 2 become 0, 1.
        g = parse_graph("p dsp 4 4\ns 1\nt 3\na 1 3 3\na 1 2 1\na 2 3 1\na 2 4 1\n")
        dag = build_sp_dag(g)
        assert [a.id for a in dag.base.arcs] == [0, 1]
        assert dag.input_arc == (1, 2)

    def test_diamond_identity(self, diamond):
        dag = build_sp_dag(diamond)
        assert dag.base.m == 4 and dag.n == 4
        assert dag.input_arc == (0, 1, 2, 3)
        assert dag.base.arcs == diamond.arcs

    def test_unreachable(self):
        g = parse_graph("p dsp 3 1\ns 1\nt 3\na 1 2 1\n")
        with pytest.raises(NoShortestPathError, match="no shortest path exists"):
            build_sp_dag(g)

    def test_every_arc_strictly_increases_dist(self, diamond):
        dag = build_sp_dag(diamond)
        dist = shortest_distances(diamond)
        for a in dag.base.arcs:
            orig = diamond.arcs[dag.input_arc[a.id]]
            assert a.weight == orig.weight
            assert dist[orig.head] == dist[orig.tail] + orig.weight
            assert a.tail < a.head

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_shortest_path_enumeration(self, seed):
        g = random_weighted_digraph(seed)
        raw = raw_st_paths(g)
        best = min(w for _, w in raw)
        shortest = {arcs for arcs, w in raw if w == best}
        dag = build_sp_dag(g)
        catalog = enumerate_st_paths(dag)
        assert {tuple(dag.input_arc[a] for a in p.arcs) for p in catalog.paths} == (
            shortest
        )
        for p in catalog.paths:
            assert sum(dag.base.arcs[a].weight for a in p.arcs) == best


class TestSpDagAgainstNetworkx:
    def test_arcs_and_vertices(self):
        # An arc (u, v, w) is in the SP-DAG exactly when
        # ds[u] + w + dt[v] == ds[t], with ds the distances from s and dt
        # the distances to t; the vertices are those arcs' endpoints plus
        # s and t.
        rng = random.Random(2402)
        seen = dict.fromkeys(("unreachable", "s == t", "self-loop", "parallel",
                              "dead end", "cut arc"), 0)
        for _ in range(2000):
            g = random_multidigraph(rng)
            mg = nx.MultiDiGraph()
            mg.add_nodes_from(range(1, g.n + 1))
            for a in g.arcs:
                mg.add_edge(a.tail, a.head, weight=a.weight)
            ds = nx.single_source_dijkstra_path_length(mg, g.s)
            # Every vertex, reached or not, against networkx.
            dist = shortest_distances(g)
            assert dist == [None] + [ds.get(v) for v in range(1, g.n + 1)]
            if g.t not in ds:
                seen["unreachable"] += 1
                with pytest.raises(NoShortestPathError):
                    build_sp_dag(g)
                continue
            dt = nx.single_source_dijkstra_path_length(mg.reverse(), g.t)
            on = {
                a.id
                for a in g.arcs
                if a.tail in ds and a.head in dt
                and ds[a.tail] + a.weight + dt[a.head] == ds[g.t]
            }
            dag = build_sp_dag(g)
            assert dag.dist == dist
            # Arc i of the dag is input arc input_arc[i], which ascends.
            assert [a.id for a in dag.base.arcs] == list(range(dag.base.m))
            assert set(dag.input_arc) == on
            assert all(x < y for x, y in zip(dag.input_arc, dag.input_arc[1:]))
            for arcs in dag.incoming + dag.outgoing:
                assert list(arcs) == sorted(arcs, key=lambda a: a.id)
            # One vertex bijection explains every tail and head.
            orig_vertex = {1: g.s, dag.n: g.t}
            for a in dag.base.arcs:
                orig = g.arcs[dag.input_arc[a.id]]
                assert a.weight == orig.weight
                for v, ov in ((a.tail, orig.tail), (a.head, orig.head)):
                    assert orig_vertex.setdefault(v, ov) == ov
            kept = [a for a in g.arcs if a.id in on]
            verts = {g.s, g.t} | {v for a in kept for v in (a.tail, a.head)}
            assert sorted(orig_vertex) == list(range(1, dag.n + 1))
            assert set(orig_vertex.values()) == verts and len(verts) == dag.n
            # Tight against Dijkstra, and topological by (distance, input id).
            order = [orig_vertex[v] for v in range(1, dag.n + 1)]
            assert [dist[v] for v in order] == [ds[v] for v in order]
            assert order == sorted(order, key=lambda v: (dist[v], v))
            for a in kept:
                assert dist[a.head] == dist[a.tail] + a.weight
            seen["s == t"] += g.s == g.t
            seen["self-loop"] += any(a.tail == a.head for a in g.arcs)
            pairs = [(a.tail, a.head) for a in kept]
            seen["parallel"] += len(set(pairs)) < len(pairs)
            seen["dead end"] += any(v not in dt for v in ds)
            seen["cut arc"] += any(
                a.id not in on and a.tail in ds and ds[a.tail] + a.weight == ds[a.head]
                for a in g.arcs
            )
        assert all(seen.values()), seen


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
