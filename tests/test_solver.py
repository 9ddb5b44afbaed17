import dataclasses
import functools
import gc
import itertools
import json
import random
import signal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import parallel_routes, random_layered_dag, random_multidigraph, unit_chain
from dspaths import colorcode, graph, oracle, solver
from dspaths.generators import BinPackingInstance, gen_binpack, gen_grid, gen_layered
from dspaths.graph import (
    NoShortestPathError,
    Path,
    build_sp_dag,
    format_graph,
    hamming_distance,
    parse_graph,
    shortest_distances,
)
from dspaths.oracle import brute_solve, enumerate_st_paths
from reference import reference_ball_phase
from dspaths.solver import (
    MODES,
    Certificate,
    CertificateError,
    certificate_from_json_dict,
    greedy_phase,
    result_to_json_dict,
    solve,
    verify_certificate,
)

FPT = "fpt"


def dag_to_graph(dag):
    return parse_graph(format_graph(dag.base))


def random_walk(g, rng):
    """Arc ids of a walk from s along random out-arcs, up to n arcs; it
    may stop anywhere and repeat vertices."""
    arcs, v = [], g.s
    for _ in range(rng.randint(0, g.n)):
        out = [a for a in g.arcs if a.tail == v]
        if not out:
            break
        arc = rng.choice(out)
        arcs.append(arc.id)
        v = arc.head
    return Path(tuple(arcs))


def with_one_path_altered(g, paths, rng):
    """paths with one of them changed: an arc dropped, replaced by a
    random arc, or a random arc inserted."""
    i = rng.randrange(len(paths))
    arcs = list(paths[i].arcs)
    how = rng.randrange(3) if arcs else 2
    if how == 0:
        del arcs[rng.randrange(len(arcs))]
    elif how == 1:
        arcs[rng.randrange(len(arcs))] = rng.randrange(g.m)
    else:
        arcs.insert(rng.randint(0, len(arcs)), rng.randrange(g.m))
    return paths[:i] + (Path(tuple(arcs)),) + paths[i + 1 :]


def tampered(g, dist, path, how):
    """A copy of g's distances, wrong in one way; path is a shortest s-t
    path of at least two arcs."""
    bad = list(dist)
    first = g.arcs[path.arcs[0]]  # (s, v, w), v interior
    if how == "t lowered":
        bad[g.t] -= 1
    elif how == "t raised":
        bad[g.t] += 1
    elif how == "interior raised":
        bad[first.head] = dist[g.s] + first.weight + 1
    elif how == "head unreached":
        bad[first.head] = None
    elif how == "s not zero":
        bad[g.s] = 1
    elif how == "one too long":
        bad.append(0)
    elif how == "one too short":
        bad.pop()
    elif how == "float":
        bad[g.t] = float(dist[g.t])
    return bad


LAYERED_ASKS = st.tuples(
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.integers(0, 8),
)


class TestGreedy:
    def test_single_path_needed(self, diamond_dag):
        out = greedy_phase(diamond_dag, 1, 7)
        assert out.complete and len(out.paths) == 1

    def test_diamond_complete(self, diamond_dag):
        out = greedy_phase(diamond_dag, 2, 2)
        assert out.complete
        assert hamming_distance(out.paths[0], out.paths[1]) == 4

    def test_diamond_incomplete(self, diamond_dag):
        out = greedy_phase(diamond_dag, 2, 5)
        assert not out.complete and len(out.paths) == 1

    def test_first_path_deterministic(self, diamond_dag):
        assert greedy_phase(diamond_dag, 1, 0).paths[0].arcs == (0, 2)

    def test_d_zero_asks_farthest_path_once(self, diamond_dag, monkeypatch):
        # Every threshold is 0, so the smallest-id walk is all k paths.
        calls = []
        farthest = solver.farthest_path

        def counting(*args):
            calls.append(args)
            return farthest(*args)

        monkeypatch.setattr(solver, "farthest_path", counting)
        out = greedy_phase(diamond_dag, 5, 0)
        assert len(calls) == 1
        assert out.complete and [p.arcs for p in out.paths] == [(0, 2)] * 5


class TestSolve:
    def test_k1_huge_d(self, diamond):
        res = solve(diamond, 1, 10**6, FPT)
        assert res.decision == "yes" and len(res.certificate.paths) == 1

    def test_diamond_yes_with_matrix(self, diamond):
        res = solve(diamond, 2, 4, FPT)
        assert res.decision == "yes"
        assert hamming_distance(*res.certificate.paths) == 4
        assert {p.arcs for p in res.certificate.paths} == {(0, 2), (1, 3)}

    def test_diamond_k3_no(self, diamond):
        assert solve(diamond, 3, 1, FPT).decision == "no"

    def test_k0_vacuous_yes(self, diamond):
        res = solve(diamond, 0, 5, FPT)
        assert res.decision == "yes" and res.certificate.paths == ()

    def test_d0_repetition(self):
        g = parse_graph("p dsp 2 1\ns 1\nt 2\na 1 2 1\n")
        res = solve(g, 4, 0, FPT)
        assert res.decision == "yes"
        assert [p.arcs for p in res.certificate.paths] == [((0,))] * 4

    def test_modes_agree_on_diamond(self, diamond):
        dag = build_sp_dag(diamond)
        for k, d in ((1, 0), (2, 2), (2, 4), (2, 5), (3, 1)):
            expected = "no" if brute_solve(dag, k, d) is None else "yes"
            assert [solve(diamond, k, d, m).decision for m in MODES] == [expected] * len(MODES)

    def test_unreachable_raises(self):
        g = parse_graph("p dsp 3 1\ns 1\nt 3\na 1 2 1\n")
        with pytest.raises(Exception, match="no shortest path"):
            solve(g, 1, 0, FPT)

    def test_stats_present(self, diamond):
        res = solve(diamond, 2, 5, FPT)
        assert res.stats.greedy_paths == 1
        assert res.stats.compositions_tried >= 1

    @pytest.mark.parametrize("seed", range(40))
    def test_end_to_end_oracle_equivalence(self, seed):
        dag = random_layered_dag(seed + 2500)
        g = dag_to_graph(dag)
        rng = random.Random(seed)
        k = rng.randint(1, 3)
        d = rng.randint(0, 4)
        res = solve(g, k, d, FPT)
        expected = brute_solve(build_sp_dag(g), k, d)
        assert (res.decision == "yes") == (expected is not None), (k, d)
        if res.decision == "yes":
            ok, report = verify_certificate(g, res.certificate, k, d)
            assert ok, report

    @pytest.mark.parametrize("seed", (7, 73))
    def test_seeded_family_matches_oracle(self, seed):
        # m = 34 > 16, so the ball search colors with a seeded family
        g = gen_layered(4, 4, 0.6, seed)
        dag = build_sp_dag(g)
        assert dag.base.m == 34
        res = solve(g, 3, 4, FPT)
        assert res.decision == "yes"
        assert brute_solve(dag, 3, 4) is not None
        ok, report = verify_certificate(g, res.certificate, 3, 4)
        assert ok, report

    # Certificates of three instances that take the ball-search route
    # (the greedy phase stops after one path): bin-packing (1,2,3) in 2
    # bins at its own ask, colored by the identity; gen_layered(4, 4, 0.6, s)
    # at k=3, d=4 with the identity (s=0, m=14) and a seeded family
    # (s=7, m=34).  Recorded once the ball search gave the kernel its
    # realizable sets largest first.  Any change to the tables, the
    # selection order or the reconstruction shows here.
    BALL_CERTIFICATES = {
        "binpack": [
            [10, 6, 7, 8, 9, 11, 22, 18, 19, 20, 21, 23, 37, 36, 44, 42, 43, 45,
             61, 58, 59, 60, 64, 65, 82, 78, 79, 80, 81, 83],
            [4, 0, 1, 2, 3, 5, 22, 18, 19, 20, 21, 23, 34, 30, 31, 32, 33, 35,
             56, 52, 53, 54, 55, 57, 76, 72, 73, 74, 75, 77],
            [10, 6, 7, 8, 9, 11, 16, 12, 13, 14, 15, 17, 28, 24, 25, 26, 27, 29,
             50, 46, 47, 48, 49, 51, 76, 72, 73, 74, 75, 77],
            [4, 0, 1, 2, 3, 5, 16, 12, 13, 14, 15, 17, 37, 36, 40, 38, 39, 41,
             61, 58, 59, 60, 62, 63, 70, 66, 67, 68, 69, 71],
        ],
        "layered0": [[0, 9, 16, 23, 29], [0, 9, 17, 25, 27], [0, 9, 16, 22, 27]],
        "layered7": [[2, 14, 21, 29, 39], [2, 14, 21, 30, 40], [1, 8, 20, 35, 39]],
    }

    @pytest.mark.parametrize("name", sorted(BALL_CERTIFICATES))
    def test_ball_search_certificates_pinned(self, name):
        if name == "binpack":
            inst = gen_binpack(BinPackingInstance(items=(1, 2, 3), bins=2, capacity=3))
            g, k, d = inst.graph, inst.ask_k, inst.ask_d
        else:
            g, k, d = gen_layered(4, 4, 0.6, int(name.removeprefix("layered"))), 3, 4
        res = solve(g, k, d, FPT)
        assert res.decision == "yes" and res.stats.greedy_paths == 1
        assert [list(p.arcs) for p in res.certificate.paths] == self.BALL_CERTIFICATES[name]

    # Certificates of asks on two parallel_routes that split k = 4 over
    # both greedy balls.  A route with one diamond has two paths, so the
    # searches are (ball 1, r=4), (1, 3) and (1, 2), then (0, 2).
    # Recorded once the ball search took its largest sets first, so each
    # ball gives its far path before its center: (length, diamonds, d) ->
    # arc lists.
    MULTI_BALL_CERTIFICATES = {
        (10, 1, 2): [
            [1, 3, *range(4, 12)], [0, 2, *range(4, 12)],
            [13, 15, *range(16, 24)], [12, 14, *range(16, 24)],
        ],
        (19, 1, 4): [
            [1, 3, *range(4, 21)], [0, 2, *range(4, 21)],
            [22, 24, *range(25, 42)], [21, 23, *range(25, 42)],
        ],
        (24, 2, 5): [
            [1, 3, 5, 7, *range(8, 28)], [0, 2, 4, 6, *range(8, 28)],
            [29, 31, 33, 35, *range(36, 56)], [28, 30, 32, 34, *range(36, 56)],
        ],
    }

    @pytest.mark.parametrize("shape", list(MULTI_BALL_CERTIFICATES), ids=str)
    def test_multi_ball_certificates_pinned(self, shape):
        length, diamonds, d = shape
        res = solve(parallel_routes(2, length, diamonds), 4, d, FPT)
        assert res.decision == "yes"
        assert res.stats.greedy_paths == 2 and res.stats.compositions_tried == 4
        paths = [list(p.arcs) for p in res.certificate.paths]
        assert paths == self.MULTI_BALL_CERTIFICATES[shape]

    def test_three_ball_certificate_pinned(self):
        # parallel_routes(3, 27, 1) at k=5, d=2: the greedy phase stops
        # after three paths; ball 2 gives two paths after four searches,
        # ball 1 two after two, and ball 0 its center.  Recorded when the
        # solver still searched every composition.
        res = solve(parallel_routes(3, 27, 1), 5, 2, FPT)
        assert res.decision == "yes"
        assert res.stats.greedy_paths == 3 and res.stats.compositions_tried == 7
        assert [list(p.arcs) for p in res.certificate.paths] == [
            [0, 2, *range(4, 29)],
            [30, 32, *range(33, 58)], [29, 31, *range(33, 58)],
            [59, 61, *range(62, 87)], [58, 60, *range(62, 87)],
        ]

    # (routes, length, diamonds) and the asks decided on it.  (3, 23, 1)
    # at k=4, d=5 and (3, 27, 1) at k=5, d=2 stop the greedy phase after
    # three paths, so the composition search spans three balls.
    MULTI_BALL_GRID = {
        (2, 9, 1): [(k, d) for k in (3, 4, 5) for d in range(1, 7)],
        (2, 14, 1): [(k, d) for k in (3, 4, 5) for d in range(1, 7)],
        (2, 16, 2): [(k, d) for k in (3, 4, 5) for d in range(1, 7)],
        (3, 23, 1): [(4, 5)],
        (3, 27, 1): [(5, 2)],
    }

    @pytest.mark.parametrize("shape", list(MULTI_BALL_GRID), ids=str)
    def test_multi_ball_matches_oracle(self, shape):
        g = parallel_routes(*shape)
        dag = build_sp_dag(g)
        for k, d in self.MULTI_BALL_GRID[shape]:
            res = solve(g, k, d, FPT)
            expected = brute_solve(dag, k, d)
            assert (res.decision == "yes") == (expected is not None), (k, d)

    # Asks whose greedy phase stops with several balls: MULTI_BALL_GRID,
    # the two small-batch graphs that reach two balls at k=3, d=2, and
    # parallel_routes of 2 to 4 routes.
    BALL_PHASE_ASKS = [
        *((parallel_routes(*shape), asks) for shape, asks in MULTI_BALL_GRID.items()),
        (gen_layered(3, 3, 0.6, 22), [(3, 2)]),
        (gen_layered(3, 3, 0.6, 37), [(3, 2)]),
        *(
            (parallel_routes(routes, length, diamonds),
             [(k, d) for k in range(2, 7) for d in range(1, 9)])
            for routes, length, diamonds in ((2, 15, 1), (2, 17, 2), (3, 23, 1), (4, 9, 1))
        ),
    ]

    @pytest.mark.parametrize("case", range(len(BALL_PHASE_ASKS)))
    def test_ball_phase_matches_composition_search(self, case):
        g, asks = self.BALL_PHASE_ASKS[case]
        dag = build_sp_dag(g)
        for k, d in asks:
            greedy = greedy_phase(dag, k, d)
            res = solve(g, k, d, FPT)
            if greedy.complete:
                decision, paths = "yes", greedy.paths
            else:
                decision, paths = reference_ball_phase(dag, greedy.paths, k, d)
            cert = res.certificate
            assert res.decision == decision, (k, d)
            assert (cert and [p.arcs for p in cert.paths]) == (
                paths and [tuple(dag.input_arc[a] for a in p.arcs) for p in paths]
            ), (k, d)

    @pytest.mark.parametrize("seed", range(12))
    def test_ball_partition_soundness(self, seed):
        # with an incomplete greedy phase, strict balls partition the
        # solution space and cross-ball pairs are at least d apart
        rng = random.Random(seed)
        for attempt in range(60):
            dag = random_layered_dag(seed * 211 + attempt + 17)
            k = rng.randint(2, 3)
            d = rng.randint(1, 4)
            greedy = greedy_phase(dag, k, d)
            if greedy.complete:
                continue
            kp = len(greedy.paths)
            q = 3 ** (k - kp - 1) * d
            catalog = enumerate_st_paths(dag)
            for p in catalog.paths:
                owners = [
                    i
                    for i, c in enumerate(greedy.paths)
                    if hamming_distance(p, c) < q
                ]
                assert len(owners) == 1
            for p1 in catalog.paths:
                for p2 in catalog.paths:
                    o1 = next(
                        i
                        for i, c in enumerate(greedy.paths)
                        if hamming_distance(p1, c) < q
                    )
                    o2 = next(
                        i
                        for i, c in enumerate(greedy.paths)
                        if hamming_distance(p2, c) < q
                    )
                    if o1 != o2:
                        assert hamming_distance(p1, p2) >= d
            return
        pytest.skip("no incomplete greedy outcome sampled")

    @pytest.mark.parametrize("mode", ("fpt", "hybrid"))
    def test_one_dijkstra_per_solve(self, monkeypatch, mode):
        # build_sp_dag runs it; the certificate check reads dag.dist.
        # Every Dijkstra of the package, shortest_distances' included,
        # runs in graph._dijkstra.
        runs = []
        dijkstra = graph._dijkstra

        def counting(g):
            runs.append(g)
            return dijkstra(g)

        monkeypatch.setattr(graph, "_dijkstra", counting)
        g = gen_grid(4, 4)
        assert solve(g, 2, 4, mode).decision == "yes"
        assert runs == [g]

    def test_determinism_byte_identical(self, diamond):
        docs = []
        for _ in range(2):
            res = solve(diamond, 2, 4, FPT)
            doc = result_to_json_dict(res, 2, 4)
            doc["stats"]["elapsed_ms"] = 0
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("mode", ["fpt", "hybrid", "oracle"])
    def test_negative_k_or_d_rejected(self, diamond, mode):
        # "oracle" asks the engine that hybrid runs, directly: with k = -1
        # its selection once grew without bound instead of raising.
        if mode == "oracle":
            ask = functools.partial(brute_solve, build_sp_dag(diamond))
        else:
            ask = functools.partial(solve, diamond, mode=mode)
        with pytest.raises(ValueError, match="nonnegative"):
            ask(2, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            ask(-1, 2)


# (layers, width, seed, k, d) asks on gen_layered(layers, width, 0.6, seed),
# with d up to one past the largest distance two paths can have.
LAYERED_ASKS = st.integers(3, 5).flatmap(
    lambda layers: st.tuples(
        st.just(layers),
        st.integers(3, 5),
        st.integers(0, 10**6),
        st.integers(2, 5),
        st.integers(1, 2 * layers + 3),
    )
)


def layered_ask(case):
    """The graph and ask of a LAYERED_ASKS case whose SP-DAG has more than
    16 arcs, so the ball search colors with the identity or a seeded
    family, never an exhaustive one."""
    layers, width, seed, k, d = case
    g = gen_layered(layers, width, 0.6, seed)
    dag = build_sp_dag(g)
    assume(dag.base.m > 16)
    return g, dag, k, d


class TestProperties:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(LAYERED_ASKS)
    def test_certificates_verify_and_solves_repeat(self, case):
        g, _, k, d = layered_ask(case)
        for mode in ("fpt", "hybrid"):
            docs = []
            for _ in range(2):
                res = solve(g, k, d, mode)
                if res.decision == "yes":
                    ok, report = verify_certificate(g, res.certificate, k, d)
                    assert ok, (mode, report)
                doc = result_to_json_dict(res, k, d)
                doc["stats"]["elapsed_ms"] = 0
                docs.append(json.dumps(doc, indent=2))
            assert docs[0] == docs[1], mode

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(LAYERED_ASKS)
    def test_fpt_agrees_with_oracle(self, case):
        g, dag, k, d = layered_ask(case)
        decision = solve(g, k, d, FPT).decision
        assert (decision == "yes") == (brute_solve(dag, k, d) is not None)


class TestExhaustiveFamilies:
    """fpt asks on SP-DAGs of at most 16 arcs, whose ball searches color
    with exhaustive families: every no is exact."""

    def test_small_layered_asks_match_oracle(self, monkeypatch):
        built = set()
        build = colorcode.build_hash_family

        def recording(m, s):
            family = build(m, s)
            built.add((family.mode, s < m))
            return family

        monkeypatch.setattr(colorcode, "build_hash_family", recording)
        for layers, width, seed in itertools.product((3, 4), (3, 4), range(30)):
            g = gen_layered(layers, width, 0.6, seed)
            dag = build_sp_dag(g)
            if dag.base.m > 16:
                continue
            for k, d in itertools.product(range(2, 5), range(1, 2 * layers + 4)):
                decision = solve(g, k, d, FPT).decision
                exists = brute_solve(dag, k, d) is not None
                assert (decision == "yes") == exists, (layers, width, seed, k, d)
        assert (colorcode.EXHAUSTIVE, True) in built

    def test_diamond_then_chain_no_at_once(self):
        # A diamond then a 12-arc chain: 16 arcs and two paths 4 apart.
        # The ball search colors with the (16, 15) family.
        g = parallel_routes(1, 14, 1)
        dag = build_sp_dag(g)
        assert dag.base.m == 16

        def too_slow(signum, frame):
            raise TimeoutError("the (16, 15) family took over 5 s to build")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            decision = solve(g, 3, 2, FPT).decision
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert decision == "no"
        assert brute_solve(dag, 3, 2) is None


class TestSeededFamilies:
    """fpt asks whose ball searches color with seeded families, which are
    not perfect: the identity coloring, tried after their members, makes
    every answer exact."""

    def test_failed_search_ends_with_the_identity(self, monkeypatch):
        # Greedy takes one path per route, then stalls at threshold 5, so
        # the radius is 4.  Ball 2 fails at r = 3 (12 colors) and r = 2 (8
        # colors), gives r = 1, and ball 1 fails at r = 2: each failure
        # colors all 22 arcs with the 64 seeded members, then once with
        # the identity.
        colorings = []
        base = colorcode.BypassTables

        class Recording(base):
            def __init__(self, dag, center, coloring, max_size):
                colorings.append(tuple(coloring))
                super().__init__(dag, center, coloring, max_size)

        monkeypatch.setattr(colorcode, "BypassTables", Recording)
        assert solve(parallel_routes(2, 9, 1), 3, 5, FPT).decision == "no"
        identity = (tuple(range(1, 23)),)
        searches = []
        for s in (12, 8, 8):
            family = colorcode.build_hash_family(22, s)
            assert family.mode == colorcode.SEEDED and len(family.members) == 64
            searches += family.members + identity
        assert colorings == searches

    def test_seeded_miss_is_a_verified_yes(self):
        # Greedy stops at one path, and the radius-8 ball needs 16 colors
        # on 17 arcs.  No seeded member separates the two paths 9 apart;
        # the identity coloring does.
        g = gen_layered(6, 3, 0.5, 5)
        assert build_sp_dag(g).base.m == 17
        res = solve(g, 2, 9, FPT)
        assert res.decision == "yes" and res.stats.greedy_paths == 1
        assert verify_certificate(g, res.certificate, 2, 9) == (True, None)

    @pytest.mark.parametrize("length, d", ((9, 5), (9, 6), (10, 5)))
    def test_parallel_routes_no_is_exact(self, length, d):
        g = parallel_routes(2, length, 1)
        assert solve(g, 3, d, FPT).decision == "no"
        assert brute_solve(build_sp_dag(g), 3, d) is None


class TestHybrid:
    def test_hybrid_uses_oracle_when_small(self, diamond):
        res = solve(diamond, 2, 4, "hybrid")
        assert res.decision == "yes"

    def test_hybrid_falls_back_to_fpt(self, monkeypatch):
        # The 10x10 grid has 184,756 shortest paths, past ORACLE_PATH_LIMIT,
        # so hybrid runs fpt and the oracle enumerates nothing.
        def fail(*args, **kwargs):
            raise AssertionError("enumerated an instance past the limit")

        monkeypatch.setattr(oracle, "enumerate_st_paths", fail)
        res = solve(gen_grid(10, 10), 2, 4, "hybrid")
        assert res.decision == "yes" and res.stats.greedy_paths == 2

    def test_long_chain_default_mode(self):
        res = solve(unit_chain(1500), 1, 0)
        assert res.decision == "yes"
        assert res.certificate.paths[0].arcs == tuple(range(1500))

    def test_config_validation(self, diamond):
        with pytest.raises(ValueError, match="mode must be one of"):
            solve(diamond, 2, 4, mode="nope")

    def test_oracle_is_no_mode(self, diamond):
        # hybrid runs the oracle wherever the paths are few enough for it.
        with pytest.raises(ValueError, match=r"mode must be one of \('fpt', 'hybrid'\)"):
            solve(diamond, 2, 4, "oracle")


def binpack_ask(items, bins):
    inst = gen_binpack(BinPackingInstance(items=items, bins=bins, capacity=sum(items) // bins))
    return inst.graph, inst.ask_k, inst.ask_d


class TestNoReferenceCycles:
    """cli.run_cli pauses the cyclic garbage collector for a command.
    That is safe only while parse, solve and verify make no reference
    cycles, so that reference counting frees all they allocate.
    Each ask below takes one route through ``solve``, pinned by its
    decision, greedy paths and ball searches."""

    ROUTES = {
        "greedy-complete": (lambda: (gen_layered(30, 8, 0.4, 0), 3, 10), FPT, ("yes", 3, 0)),
        "one-ball": (lambda: binpack_ask((1, 2, 3), 2), FPT, ("yes", 1, 1)),
        "one-ball-no": (lambda: binpack_ask((2, 2, 2), 2), FPT, ("no", 1, 1)),
        "multi-ball": (lambda: (parallel_routes(2, 10, 1), 4, 2), FPT, ("yes", 2, 4)),
        "multi-ball-no": (lambda: (parallel_routes(2, 9, 1), 3, 5), FPT, ("no", 2, 4)),
        "three-balls": (lambda: (parallel_routes(3, 27, 1), 5, 2), FPT, ("yes", 3, 7)),
        # The seeded members miss; the identity coloring finds the yes.
        "identity-after-seeded": (lambda: (gen_layered(6, 3, 0.5, 5), 2, 9), FPT, ("yes", 1, 1)),
        "hybrid-oracle": (lambda: (gen_grid(5, 5), 4, 6), "hybrid", ("yes", 0, 0)),
        "hybrid-oracle-no": (lambda: binpack_ask((2, 2, 2), 2), "hybrid", ("no", 0, 0)),
        "hybrid-fpt-fallback": (lambda: (gen_grid(10, 10), 2, 4), "hybrid", ("yes", 2, 0)),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_nothing_left_for_the_collector(self, route):
        make, mode, expected = self.ROUTES[route]
        g, k, d = make()
        text = format_graph(g)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            g = parse_graph(text)
            assert gc.collect() == 0, "parse_graph"
            res = solve(g, k, d, mode)
            assert gc.collect() == 0, "solve"
            if res.certificate is not None:
                assert verify_certificate(g, res.certificate, k, d) == (True, None)
                assert gc.collect() == 0, "verify_certificate"
        finally:
            if enabled:
                gc.enable()
        stats = res.stats
        assert (res.decision, stats.greedy_paths, stats.compositions_tried) == expected


class TestVerify:
    def test_round_trip(self, diamond):
        res = solve(diamond, 2, 4, FPT)
        ok, report = verify_certificate(diamond, res.certificate, 2, 4)
        assert ok and report is None

    @pytest.mark.parametrize("k,d", ((7, 99), (2, 3), (3, 4)))
    def test_misstated_ask_rejected(self, diamond, k, d):
        cert = dataclasses.replace(solve(diamond, 2, 4, FPT).certificate, k=k, d=d)
        report = f"certificate states k={k}, d={d}; asked k=2, d=4"
        assert verify_certificate(diamond, cert, 2, 4) == (False, report)

    def test_misstated_d_rejected_without_st_path(self):
        g = parse_graph("p dsp 3 1\ns 1\nt 3\na 1 2 1\n")
        cert = Certificate(k=0, d=5, paths=(), graph_hash="")
        assert verify_certificate(g, cert, 0, 5) == (True, None)
        report = "certificate states k=0, d=5; asked k=0, d=0"
        assert verify_certificate(g, cert, 0, 0) == (False, report)

    def test_distance_violation_reported_before_matrix(self, diamond):
        # An older document's "pairwise" matrix is ignored, even one that
        # states the pair far enough apart: the paths decide.
        doc = result_to_json_dict(solve(diamond, 2, 4, FPT), 2, 4)
        doc.update(d=5, pairwise=[[0, 9], [9, 0]])
        cert = certificate_from_json_dict(doc)
        ok, report = verify_certificate(diamond, cert, 2, 5)
        assert not ok and report == "pair (1,2) distance 4 < 5"

    def test_stricter_d_rejected(self, diamond):
        res = solve(diamond, 2, 4, FPT)
        ok, report = verify_certificate(diamond, res.certificate, 2, 5)
        assert not ok
        assert report == "pair (1,2) distance 4 < 5"

    def test_non_shortest_path_rejected(self, diamond):
        cert = Certificate(
            k=1,
            d=0,
            paths=(Path((0, 3)),),  # arcs do not chain
            graph_hash="",
        )
        ok, report = verify_certificate(diamond, cert, 1, 0)
        assert not ok and report == "path 1 not a shortest path"

    @pytest.mark.parametrize("last", (4, -2))
    def test_unknown_arc_id_rejected(self, diamond, last):
        # The diamond has arcs 0..3; arcs[-2] would be arc 2 = (2, 4), which
        # would chain after arc 0 if a negative id were taken as an index.
        cert = Certificate(k=1, d=0, paths=(Path((0, last)),), graph_hash="")
        ok, report = verify_certificate(diamond, cert, 1, 0)
        assert not ok and report == "path 1 not a shortest path"

    def test_longer_st_path_rejected(self, triangle):
        # arc 2 = (1, 3) of weight 3 chains from s to t; the shortest weighs 2
        cert = Certificate(k=1, d=0, paths=(Path((2,)),), graph_hash="")
        ok, report = verify_certificate(triangle, cert, 1, 0)
        assert not ok and report == "path 1 not a shortest path"

    def test_path_stopping_before_t_rejected(self, diamond):
        cert = Certificate(k=1, d=0, paths=(Path((0,)),), graph_hash="")
        ok, report = verify_certificate(diamond, cert, 1, 0)
        assert not ok and report == "path 1 not a shortest path"

    def test_wrong_count(self, diamond):
        cert = Certificate(k=2, d=0, paths=(), graph_hash="")
        ok, report = verify_certificate(diamond, cert, 2, 0)
        assert not ok and "expected 2 paths" in report

    @pytest.mark.parametrize("seed", range(10))
    def test_pairwise_matrix_per_pair(self, seed):
        # Paths drawn with repeats.  At each d, verify reports the first
        # pair, in row order, below d in the reference's pairwise matrix.
        rng = random.Random(seed)
        dag = random_layered_dag(seed + 500)
        g = dag_to_graph(dag)
        catalog = enumerate_st_paths(dag).paths
        paths = tuple(rng.choice(catalog) for _ in range(rng.randint(1, 12)))
        k = len(paths)
        matrix = [[hamming_distance(p, q) for q in paths] for p in paths]
        for d in range(max(map(max, matrix)) + 2):
            cert = Certificate(k=k, d=d, paths=paths, graph_hash="")
            below = [
                f"pair ({i + 1},{j + 1}) distance {matrix[i][j]} < {d}"
                for i in range(k)
                for j in range(i + 1, k)
                if matrix[i][j] < d
            ]
            expected = (False, below[0]) if below else (True, None)
            assert verify_certificate(g, cert, k, d) == expected

    def test_each_distinct_path_checked_once(self, diamond, monkeypatch):
        checked = []
        check = solver._is_shortest_st_path

        def recording(g, best, arcs):
            checked.append(tuple(arcs))
            return check(g, best, arcs)

        monkeypatch.setattr(solver, "_is_shortest_st_path", recording)
        good, bad = Path((0, 2)), Path((0, 3))
        paths = (good, Path((0, 2)), good, bad, good, bad)
        cert = Certificate(k=6, d=0, paths=paths, graph_hash="")
        report = "path 4 not a shortest path"
        assert verify_certificate(diamond, cert, 6, 0) == (False, report)
        assert checked == [(0, 2), (0, 3)]

    def test_bool_in_a_repeated_path(self, diamond):
        # Path((False, 2)) equals Path((0, 2)), but it is its own object
        # and is type-checked as one.
        paths = (Path((0, 2)), Path((False, 2)))
        cert = Certificate(k=2, d=0, paths=paths, graph_hash="")
        with pytest.raises(CertificateError):
            verify_certificate(diamond, cert, 2, 0)

    @pytest.mark.parametrize(
        "field", ({"k": True}, {"d": False}, {"paths": (Path((False, 2)),)})
    )
    def test_bool_is_not_an_int(self, diamond, field):
        cert = dataclasses.replace(solve(diamond, 1, 0, FPT).certificate, **field)
        with pytest.raises(CertificateError):
            verify_certificate(diamond, cert, 1, 0)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(LAYERED_ASKS)
    def test_given_distances_decide_as_dijkstra_on_layered_dags(self, case):
        # Solved certificates (at d = 0 when the ask is a no), then twice
        # with one path altered.
        layers, width, seed, k, d = case
        g = gen_layered(layers, width, 0.5, seed)
        dist = shortest_distances(g)
        res = solve(g, k, d, FPT)
        paths = (res.certificate or solve(g, k, 0, FPT).certificate).paths
        rng = random.Random(seed)
        asked = [paths, with_one_path_altered(g, paths, rng)]
        asked.append(with_one_path_altered(g, asked[-1], rng))
        for ps in asked:
            cert = Certificate(k=k, d=d, paths=ps, graph_hash="")
            got = verify_certificate(g, cert, k, d, dist=dist)
            assert got == verify_certificate(g, cert, k, d)
        if res.decision == "yes":
            got = verify_certificate(g, res.certificate, k, d, dist=dist)
            assert got == (True, None)

    def test_given_distances_decide_as_dijkstra_on_multidigraphs(self):
        # Self-loops, parallel arcs, dead ends, unreachable t and s == t.
        # Paths are solved ones, one altered, and random walks.  A
        # distance list with one entry moved accepts only what the true
        # one accepts.
        rng = random.Random(1437)
        for _ in range(600):
            g = random_multidigraph(rng)
            if not g.m:
                continue
            dist = shortest_distances(g)
            k, d = rng.randint(1, 3), rng.randint(0, 2)
            try:
                solved = solve(g, k, 0, FPT).certificate.paths
            except NoShortestPathError:
                solved = ()
            pool = list(solved) + [random_walk(g, rng) for _ in range(2)]
            paths = tuple(rng.choice(pool) for _ in range(k))
            bad = list(dist)
            bad[rng.randint(0, g.n)] = rng.choice((None, 0, 1, rng.randint(0, 10**7)))
            for ps in (paths, with_one_path_altered(g, paths, rng), solved):
                if len(ps) != k:
                    continue
                cert = Certificate(k=k, d=d, paths=ps, graph_hash="")
                expected = verify_certificate(g, cert, k, d)
                assert verify_certificate(g, cert, k, d, dist=dist) == expected
                if verify_certificate(g, cert, k, d, dist=bad)[0]:
                    assert expected == (True, None)

    @pytest.mark.parametrize(
        "how",
        (
            "t lowered",
            "t raised",
            "interior raised",
            "head unreached",
            "s not zero",
            "one too long",
            "one too short",
            "float",
        ),
    )
    def test_tampered_distances_only_reject(self, how):
        # Each certificate passes under the true distances.  A lower
        # dist[t] is still a feasible potential, so it fails the path
        # weights; every other change breaks the potential itself.
        graphs = [gen_grid(4, 4)] + [gen_layered(4, 3, 0.5, s) for s in range(3)]
        for g in graphs:
            dist = shortest_distances(g)
            cert = solve(g, 2, 0, FPT).certificate
            assert verify_certificate(g, cert, 2, 0, dist=dist) == (True, None)
            bad = tampered(g, dist, cert.paths[0], how)
            report = (
                "path 1 not a shortest path"
                if how == "t lowered"
                else "distances are not a feasible potential"
            )
            assert verify_certificate(g, cert, 2, 0, dist=bad) == (False, report)


class TestCertificateJson:
    def test_round_trip(self, diamond):
        res = solve(diamond, 2, 4, FPT)
        doc = result_to_json_dict(res, 2, 4)
        cert = certificate_from_json_dict(doc)
        ok, report = verify_certificate(diamond, cert, 2, 4)
        assert ok, report

    def test_schema_fields(self, diamond):
        doc = result_to_json_dict(solve(diamond, 2, 4, FPT), 2, 4)
        assert set(doc) == {
            "decision",
            "k",
            "d",
            "paths",
            "mode",
            "graph_hash",
            "stats",
        }
        assert set(doc["stats"]) == {
            "greedy_paths",
            "compositions_tried",
            "elapsed_ms",
        }

    def test_equal_paths_share_one_path(self, diamond):
        doc = result_to_json_dict(solve(diamond, 3, 0, FPT), 3, 0)
        cert = certificate_from_json_dict(doc)
        assert cert.paths[0] is cert.paths[1] is cert.paths[2]
        assert verify_certificate(diamond, cert, 3, 0) == (True, None)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("paths"),
            lambda d: d.update(paths=[["x"]]),
            lambda d: d.update(paths="nope"),
            lambda d: d.update(k="two"),
            lambda d: d.update(k=True),
            lambda d: d.update(d=True),
            lambda d: d.update(paths=[[False, 2], [1, 3]]),
        ],
    )
    def test_malformed_json_raises(self, diamond, mutate):
        doc = result_to_json_dict(solve(diamond, 2, 4, FPT), 2, 4)
        mutate(doc)
        with pytest.raises(CertificateError):
            certificate_from_json_dict(doc)
