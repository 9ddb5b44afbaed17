import json
import random

import pytest

from conftest import random_layered_dag, unit_chain
from dspaths.generators import BinPackingInstance, gen_binpack, gen_layered
from dspaths.graph import (
    Path,
    build_sp_dag,
    format_graph,
    hamming_distance,
    parse_graph,
)
from dspaths.oracle import brute_solve, enumerate_st_paths
from dspaths.solver import (
    Certificate,
    CertificateError,
    SolveConfig,
    certificate_from_json_dict,
    greedy_phase,
    result_to_json_dict,
    solve,
    verify_certificate,
)

FPT = SolveConfig(mode="fpt")


def dag_to_graph(dag):
    return parse_graph(format_graph(dag.base))


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


class TestSolve:
    def test_k1_huge_d(self, diamond):
        res = solve(diamond, 1, 10**6, FPT)
        assert res.decision == "yes" and len(res.certificate.paths) == 1

    def test_diamond_yes_with_matrix(self, diamond):
        res = solve(diamond, 2, 4, FPT)
        assert res.decision == "yes"
        assert res.certificate.pairwise == ((0, 4), (4, 0))
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
        for k, d in ((1, 0), (2, 2), (2, 4), (2, 5), (3, 1)):
            decisions = {
                solve(diamond, k, d, SolveConfig(mode=m)).decision
                for m in ("fpt", "oracle", "hybrid")
            }
            assert len(decisions) == 1, (k, d)

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
    # (s=7, m=34).  Any change to the tables, the selection order or the
    # reconstruction shows here.
    BALL_CERTIFICATES = {
        "binpack": [
            [4, 0, 1, 2, 3, 5, 16, 12, 13, 14, 15, 17, 28, 24, 25, 26, 27, 29,
             50, 46, 47, 48, 49, 51, 70, 66, 67, 68, 69, 71],
            [10, 6, 7, 8, 9, 11, 22, 18, 19, 20, 21, 23, 34, 30, 31, 32, 33, 35,
             56, 52, 53, 54, 55, 57, 70, 66, 67, 68, 69, 71],
            [10, 6, 7, 8, 9, 11, 16, 12, 13, 14, 15, 17, 37, 36, 40, 38, 39, 41,
             61, 58, 59, 60, 62, 63, 76, 72, 73, 74, 75, 77],
            [4, 0, 1, 2, 3, 5, 22, 18, 19, 20, 21, 23, 37, 36, 44, 42, 43, 45,
             61, 58, 59, 60, 64, 65, 82, 78, 79, 80, 81, 83],
        ],
        "layered0": [[0, 8, 10, 18, 28], [0, 9, 15, 18, 28], [0, 9, 16, 22, 27]],
        "layered7": [[0, 3, 16, 31, 38], [1, 7, 16, 31, 38], [0, 6, 25, 31, 38]],
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

    def test_determinism_byte_identical(self, diamond):
        cfg = SolveConfig(mode="fpt", seed=5)
        docs = []
        for _ in range(2):
            res = solve(diamond, 2, 4, cfg)
            doc = result_to_json_dict(res, 2, 4)
            doc["stats"]["elapsed_ms"] = 0
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]


class TestHybrid:
    def test_hybrid_uses_oracle_when_small(self, diamond):
        res = solve(diamond, 2, 4, SolveConfig(mode="hybrid"))
        assert res.decision == "yes"

    def test_hybrid_falls_back_to_fpt(self, diamond):
        res = solve(diamond, 2, 4, SolveConfig(mode="hybrid", enumeration_budget=1))
        assert res.decision == "yes"

    def test_long_chain_default_mode(self):
        res = solve(unit_chain(1500), 1, 0)
        assert res.decision == "yes"
        assert res.certificate.paths[0].arcs == tuple(range(1500))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(mode="nope").validate()
        with pytest.raises(ValueError):
            SolveConfig(coloring_budget=0).validate()


class TestVerify:
    def test_round_trip(self, diamond):
        res = solve(diamond, 2, 4, FPT)
        ok, report = verify_certificate(diamond, res.certificate, 2, 4)
        assert ok and report is None

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
            pairwise=((0,),),
            graph_hash="",
        )
        ok, report = verify_certificate(diamond, cert, 1, 0)
        assert not ok and report == "path 1 not a shortest path"

    def test_longer_st_path_rejected(self, triangle):
        # arc 2 = (1, 3) of weight 3 chains from s to t; the shortest weighs 2
        cert = Certificate(
            k=1, d=0, paths=(Path((2,)),), pairwise=((0,),), graph_hash=""
        )
        ok, report = verify_certificate(triangle, cert, 1, 0)
        assert not ok and report == "path 1 not a shortest path"

    def test_path_stopping_before_t_rejected(self, diamond):
        cert = Certificate(
            k=1, d=0, paths=(Path((0,)),), pairwise=((0,),), graph_hash=""
        )
        ok, report = verify_certificate(diamond, cert, 1, 0)
        assert not ok and report == "path 1 not a shortest path"

    def test_wrong_count(self, diamond):
        cert = Certificate(k=2, d=0, paths=(), pairwise=(), graph_hash="")
        ok, report = verify_certificate(diamond, cert, 2, 0)
        assert not ok and "expected 2 paths" in report

    def test_malformed_matrix_raises(self, diamond):
        cert = Certificate(
            k=1, d=0, paths=(Path((0, 2)),), pairwise=(), graph_hash=""
        )
        with pytest.raises(CertificateError, match="k x k"):
            verify_certificate(diamond, cert, 1, 0)


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
            "pairwise",
            "mode",
            "seed",
            "graph_hash",
            "stats",
        }
        assert set(doc["stats"]) == {
            "greedy_paths",
            "compositions_tried",
            "elapsed_ms",
        }

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("paths"),
            lambda d: d.update(paths=[["x"]]),
            lambda d: d.update(pairwise="nope"),
            lambda d: d.update(k="two"),
            lambda d: d.update(pairwise=[[0], [0]]),
        ],
    )
    def test_malformed_json_raises(self, diamond, mutate):
        doc = result_to_json_dict(solve(diamond, 2, 4, FPT), 2, 4)
        mutate(doc)
        with pytest.raises(CertificateError):
            certificate_from_json_dict(doc)
