import hashlib
import itertools
import math
import random
import signal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parallel_routes, random_layered_dag, random_multidigraph
from dspaths import colorcode, oracle
from dspaths.colorcode import (
    EXHAUSTIVE,
    SEEDED,
    BypassTables,
    ball_search,
    build_hash_family,
    select_dissimilar_color_sets,
)
from dspaths.farthest import farthest_path
from dspaths.generators import BinPackingInstance, gen_binpack, gen_grid, gen_layered
from dspaths.graph import (
    NoShortestPathError,
    Path,
    build_sp_dag,
    hamming_distance,
    parse_graph,
)
from dspaths.oracle import brute_solve, enumerate_st_paths
from dspaths.solver import solve
from reference import (
    brute_ball,
    brute_realizations,
    is_st_path,
    minimal_bypass_decomposition,
    reference_select,
)

# Arc i has color DIAMOND_COLORS[i]: the upper path 0, 2 takes colors 1, 2.
DIAMOND_COLORS = (1, 3, 2, 4)


def mask(*colors):
    out = 0
    for c in colors:
        out |= 1 << (c - 1)
    return out


def random_selection_case(rng):
    """Masks over up to 130 bits with zero and repeated masks and spread
    popcounts, plus r in 0..5 and d in 0..width + 2."""
    width = rng.randint(0, 130)
    n = rng.randint(0, 150)
    pool = [0]
    for _ in range(rng.randint(1, 40)):
        ones = rng.randint(0, width)
        pool.append(sum(1 << b for b in rng.sample(range(width), ones)))
    if rng.random() < 0.5:
        masks = [rng.choice(pool) for _ in range(n)]
    else:
        masks = [rng.getrandbits(width) if width else 0 for _ in range(n)]
    return masks, rng.randint(0, 5), rng.randint(0, width + 2)


def twin_heavy_case(rng):
    """Masks drawn from a few random column classes, with repeats: each
    class is a run of bits that a mask holds whole or not at all, as the
    bin-packing reduction's paths hold whole chains.  Few distinct values
    among many positions make candidate sets recur in the search."""
    runs = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
    starts = list(itertools.accumulate(runs, initial=0))
    classes = [((1 << size) - 1) << at for size, at in zip(runs, starts)]
    values = [
        sum(c for c in classes if rng.random() < 0.5)
        for _ in range(rng.randint(2, 7))
    ]
    masks = [rng.choice(values) for _ in range(rng.randint(4, 18))]
    return masks, rng.randint(2, 5), rng.randint(1, starts[-1])


def first_combination(masks, r, d):
    """The first r-subset in itertools.combinations order (lexicographic
    in input positions) whose pairs are all >= d apart."""
    return next(
        (
            list(sub)
            for sub in itertools.combinations(masks, r)
            if all((a ^ b).bit_count() >= d for a, b in itertools.combinations(sub, 2))
        ),
        None,
    )


class TestHashFamily:
    def test_bijection_when_colors_match_universe(self):
        fam = build_hash_family(3, 3)
        assert len(fam.members) == 1
        assert sorted(fam.members[0]) == [1, 2, 3]

    def test_four_two_covers_all_pairs(self):
        fam = build_hash_family(4, 2)
        assert len(fam.members) <= 3
        for pair in itertools.combinations(range(4), 2):
            assert any(m[pair[0]] != m[pair[1]] for m in fam.members)

    def test_ten_three_all_triples_rainbow(self):
        fam = build_hash_family(10, 3)
        for sub in itertools.combinations(range(10), 3):
            assert any(
                len({m[i] for i in sub}) == 3 for m in fam.members
            )

    def test_rainbow_completeness_below_size(self):
        # subsets smaller than the color count are rainbow under some member
        fam = build_hash_family(8, 4)
        for size in (1, 2, 3, 4):
            for sub in itertools.combinations(range(8), size):
                assert any(
                    len({m[i] for i in sub}) == size for m in fam.members
                )

    def test_regime_follows_from_universe_and_colors(self):
        assert build_hash_family(16, 4).mode == EXHAUSTIVE
        assert build_hash_family(17, 4).mode == SEEDED
        identity = build_hash_family(17, 17)
        assert identity.mode == EXHAUSTIVE
        assert identity.members == (tuple(range(1, 18)),)

    # build_hash_family is cached, so determinism is checked on fresh
    # constructions through __wrapped__.
    def test_seeded_mode_budget_and_determinism(self):
        fam1 = build_hash_family.__wrapped__(20, 6)
        fam2 = build_hash_family.__wrapped__(20, 6)
        assert fam1.mode == SEEDED
        assert len(fam1.members) == 64
        assert fam1.members == fam2.members
        assert all(1 <= c <= 6 for m in fam1.members for c in m)

    def test_seeded_members_not_constant(self):
        fam = build_hash_family(20, 6)
        assert all(len(set(m)) > 1 for m in fam.members)

    def test_deterministic_per_seed(self):
        fam = build_hash_family.__wrapped__(6, 2)
        assert fam.mode == EXHAUSTIVE
        assert fam == build_hash_family.__wrapped__(6, 2)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_exhaustive_families_perfect_and_lean(self, m):
        # Every member makes rainbow some s-subset that no earlier member
        # does, so there are at most C(m, s) members and none is idle.
        for s in range(1, m):
            fam = build_hash_family.__wrapped__(m, s)
            assert fam.mode == EXHAUSTIVE
            assert len(fam.members) <= math.comb(m, s)
            covered = set()
            for member in fam.members:
                rainbow = {
                    sub
                    for sub in itertools.combinations(range(m), s)
                    if len({member[i] for i in sub}) == s
                }
                assert rainbow - covered, (m, s)
                covered |= rainbow
            assert len(covered) == math.comb(m, s), (m, s)

    @pytest.mark.parametrize("m,s", [(16, 15), (16, 14), (15, 14), (16, 12)])
    def test_large_exhaustive_families_build_at_once(self, m, s):
        def too_slow(signum, frame):
            raise TimeoutError(f"building the ({m}, {s}) family took over 5 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            fam = build_hash_family.__wrapped__(m, s)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert fam.mode == EXHAUSTIVE
        for sub in itertools.combinations(range(m), s):
            assert any(len({member[i] for i in sub}) == s for member in fam.members)

    # sha256 of repr(members).  The exhaustive regime starts its members
    # from the seeded regime's candidates; the seeded members, and with
    # them which certificates the seeded searches find, must not move.
    SEEDED_DIGESTS = {
        (20, 6): "86901f36dfa7ec95cfbbdd0ad7b2f092937b88c87cbf02bd568427da784daf99",
        (36, 12): "aa5c8d93dd72d1ea68addd29bbad69a2af4eba71f2f8eacb0ff064f4022631fd",
    }

    @pytest.mark.parametrize("m,s", sorted(SEEDED_DIGESTS))
    def test_seeded_members_pinned(self, m, s):
        fam = build_hash_family.__wrapped__(m, s)
        assert fam.mode == SEEDED
        digest = hashlib.sha256(repr(fam.members).encode()).hexdigest()
        assert digest == self.SEEDED_DIGESTS[m, s]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_hash_family(3, 0)
        with pytest.raises(ValueError):
            build_hash_family(3, 4)


def doubled_chain(m: int):
    """A unit chain of m arcs whose first min(m // 2, 6) steps are pairs
    of parallel arcs, so two shortest paths are 2 apart per step where
    they differ."""
    pairs = min(m // 2, 6)
    steps = [2] * pairs + [1] * (m - 2 * pairs)
    arcs = "".join(f"a {v} {v + 1} 1\n" * c for v, c in enumerate(steps, 1))
    n = len(steps) + 1
    return parse_graph(f"p dsp {n} {m}\ns 1\nt {n}\n{arcs}")


@pytest.mark.parametrize("m", (4, 16, 17, 40))
@pytest.mark.parametrize("q,r", ((0, 1), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (9, 2)))
def test_ball_search_exact_table(m, q, r):
    # A failed search is exact in every regime: at radius 0, with the
    # identity (q * r >= m), with exhaustive families (m <= 16) and with
    # seeded ones (m = 17 and 40).  It finds r paths exactly when the
    # brute-force ball holds r paths pairwise d apart.
    dag = build_sp_dag(doubled_chain(m))
    assert dag.base.m == m
    center = farthest_path(dag, [], 0)
    for d in range(2 * q + 2):
        expected = brute_ball(dag, center, q, r, d) is not None
        assert (ball_search(dag, center, q, r, d) is not None) == expected, d


def _multidigraph_dags(count):
    rng = random.Random(2402)
    dags = []
    while len(dags) < count:
        try:
            dags.append(build_sp_dag(random_multidigraph(rng)))
        except NoShortestPathError:
            pass
    return dags


def _binpack_dag(items):
    inst = BinPackingInstance(items=items, bins=2, capacity=sum(items) // 2)
    return build_sp_dag(gen_binpack(inst).graph)


BRUTE_FORCE_DAGS = {
    "layered": lambda: [random_layered_dag(seed, max_arcs=20) for seed in range(12)],
    "grid": lambda: [build_sp_dag(gen_grid(w, h)) for w, h in ((1, 4), (2, 3), (3, 3))],
    "binpack": lambda: [_binpack_dag(items) for items in ((1, 1), (1, 1, 2), (1, 2, 3))],
    "multidigraph": lambda: _multidigraph_dags(60),
    "chains": lambda: [
        build_sp_dag(parallel_routes(routes, length, diamonds))
        for routes, length, diamonds in ((2, 5, 1), (2, 7, 2), (3, 7, 1), (2, 9, 2))
    ],
}


def chain_arcs(dag, center):
    """The arcs off the center into a vertex before t with one in-arc:
    the arcs that extend a shared chain in ``BypassTables``."""
    on_center = set(center.arcs)
    return [
        arcs[0]
        for v, arcs in enumerate(dag.incoming)
        if len(arcs) == 1 and v < dag.n and arcs[0].id not in on_center
    ]


def colliding_chain_coloring(dag, center):
    """The identity coloring, except that the first off-center chain arc
    whose tail is also reached by one takes that arc's color, so that
    the chain's own charges collide."""
    coloring = list(range(1, dag.base.m + 1))
    into = {a.head: a for a in chain_arcs(dag, center)}
    for a in into.values():
        if a.tail in into:
            coloring[a.id] = coloring[into[a.tail].id]
            return tuple(coloring)
    raise ValueError("no chain of two arcs off the center")


def chain_collides(dag, center, coloring):
    """Whether two off-center chain arcs, one into the other's tail,
    share a color."""
    into = {a.head: a for a in chain_arcs(dag, center)}
    return any(
        a.tail in into and coloring[a.id] == coloring[into[a.tail].id]
        for a in into.values()
    )


def check_against_brute_force(dag, center, coloring, q):
    """The realizable sets are the brute-force ones, in (size, mask)
    order, and each reconstructs to the path that realizes it whose arc
    ids, read from t back to s, are lexicographically smallest.  Returns
    the reconstructed paths."""
    tables = BypassTables(dag, center, coloring, q)
    expected = brute_realizations(dag, center, coloring, q)
    assert tables.realizable_sets == tuple(
        sorted(expected, key=lambda c: (c.bit_count(), c))
    ), q
    paths = []
    for c in tables.realizable_sets:
        path = tables.reconstruct(c)
        assert is_st_path(dag, path)
        bypass = center.arc_set ^ path.arc_set
        colors = [coloring[aid] for aid in bypass]
        assert len(set(colors)) == len(colors) and mask(*colors) == c
        assert path == expected[c], (q, c)
        paths.append(path)
    return paths


class TestBypassTables:
    def test_realizables_diamond(self, diamond_dag, upper):
        tables = BypassTables(diamond_dag, upper, DIAMOND_COLORS, 4)
        assert tables.realizable_sets == (0, mask(1, 2, 3, 4))

    def test_realizables_capped_by_q(self, diamond_dag, upper):
        tables = BypassTables(diamond_dag, upper, DIAMOND_COLORS, 3)
        assert tables.realizable_sets == (0,)

    def test_reconstruct_empty_is_center(self, diamond_dag, upper):
        tables = BypassTables(diamond_dag, upper, DIAMOND_COLORS, 4)
        assert tables.reconstruct(0) == upper

    def test_reconstruct_full_is_lower(self, diamond_dag, upper, lower):
        tables = BypassTables(diamond_dag, upper, DIAMOND_COLORS, 4)
        assert tables.reconstruct(mask(1, 2, 3, 4)) == lower

    def test_reconstruct_unrealizable_raises(self, diamond_dag, upper):
        tables = BypassTables(diamond_dag, upper, DIAMOND_COLORS, 4)
        with pytest.raises(ValueError, match="not realizable"):
            tables.reconstruct(mask(1))

    def test_center_must_be_st_path(self, diamond_dag):
        with pytest.raises(ValueError, match="center must be an s-t path"):
            BypassTables(diamond_dag, Path((0,)), DIAMOND_COLORS, 4)

    def test_diamond_matches_brute_force(self, diamond_dag, upper, lower):
        for center in (upper, lower):
            for q in range(6):
                check_against_brute_force(diamond_dag, center, DIAMOND_COLORS, q)

    @pytest.mark.parametrize("kind", sorted(BRUTE_FORCE_DAGS))
    def test_realizable_sets_match_brute_force(self, kind):
        # Identity colorings and 2- and 5-color ones (so that center
        # windows are not always rainbow), plus on chains one coloring
        # under which a chain's own charges collide; q from 0 to past
        # twice the path length, in steps of 5 on paths of 8 arcs or more.
        seen = dict.fromkeys(
            ("s == t", "parallel", "not rainbow", "shared chain", "collided chain"), 0
        )
        for idx, dag in enumerate(BRUTE_FORCE_DAGS[kind]()):
            rng = random.Random(idx)
            paths = enumerate_st_paths(dag).paths
            m = dag.base.m
            seen["s == t"] += dag.n == 1
            seen["parallel"] += len({(a.tail, a.head) for a in dag.base.arcs}) < m
            for center in rng.sample(paths, min(2, len(paths))):
                members = [tuple(range(1, m + 1))]
                members += [
                    tuple(rng.randint(1, colors) for _ in range(m)) for colors in (2, 5)
                ]
                if kind == "chains":
                    members.append(colliding_chain_coloring(dag, center))
                chain_heads = {a.head for a in chain_arcs(dag, center)}
                for coloring in members:
                    seen["not rainbow"] += len({coloring[a] for a in center.arcs}) < len(center)
                    seen["collided chain"] += chain_collides(dag, center, coloring)
                    for q in range(0, 2 * len(center) + 2, 1 if len(center) < 8 else 5):
                        for path in check_against_brute_force(dag, center, coloring, q):
                            seen["shared chain"] += bool(
                                chain_heads & set(dag.path_vertices(path))
                            )
        required = {
            "multidigraph": ("s == t", "parallel", "not rainbow"),
            "chains": ("not rainbow", "shared chain", "collided chain"),
        }.get(kind, ("not rainbow",))
        assert all(seen[key] for key in required), seen

    def test_reconstruct_tie_break_pinned(self):
        # Two paths realize the color set {1, 2, 3, 4}: arcs 2, 8, 17, 19
        # and 3, 13, 18, 19.  Read from t back to s, 19, 17, ... comes
        # first, so that is the one reconstructed.
        dag = build_sp_dag(gen_layered(3, 4, 0.7, seed=166))
        coloring = (3, 4, 3, 2, 2, 2, 4, 1, 3, 4, 3, 2, 3, 1, 1, 4, 1, 2, 1, 4, 3)
        tables = BypassTables(dag, Path((2, 9, 18, 19)), coloring, 4)
        assert tables.reconstruct(mask(1, 2, 3, 4)) == Path((2, 8, 17, 19))

    @pytest.mark.parametrize("seed", range(25))
    def test_reconstruct_all_realizables_on_grids(self, seed):
        dag = random_layered_dag(seed + 90)
        catalog = enumerate_st_paths(dag)
        rng = random.Random(seed)
        center = rng.choice(catalog.paths)
        coloring = tuple(rng.randint(1, 5) for _ in range(dag.base.m))
        tables = BypassTables(dag, center, coloring, 4)
        for c in tables.realizable_sets:
            path = tables.reconstruct(c)
            assert is_st_path(dag, path)
            assert hamming_distance(path, center) == c.bit_count()
            comps = minimal_bypass_decomposition(dag, center, path)
            union = set().union(*(comp.arcs for comp in comps)) if comps else set()
            assert union == set(center.arc_set ^ path.arc_set)


class TestXorBypassIdentity:
    @pytest.mark.parametrize("seed", range(20))
    def test_pairwise_identity(self, seed):
        dag = random_layered_dag(seed + 700)
        catalog = enumerate_st_paths(dag)
        if len(catalog.paths) > 20:
            return
        center = catalog.paths[0]
        for p1 in catalog.paths:
            for p2 in catalog.paths:
                b1 = center.arc_set ^ p1.arc_set
                b2 = center.arc_set ^ p2.arc_set
                assert p1.arc_set ^ p2.arc_set == b1 ^ b2


class TestSelect:
    def test_single_set(self):
        assert select_dissimilar_color_sets([0, mask(1, 2)], 1, 99) == [0]

    def test_diamond_pair(self):
        got = select_dissimilar_color_sets([0, mask(1, 2, 3, 4)], 2, 4)
        assert got == [0, mask(1, 2, 3, 4)]

    def test_pigeonhole_absent(self):
        assert select_dissimilar_color_sets([0, mask(1)], 3, 1) is None

    def test_repetition_at_d0(self):
        assert select_dissimilar_color_sets([mask(2)], 3, 0) == [mask(2)] * 3

    def test_empty_realizables(self):
        assert select_dissimilar_color_sets([], 1, 0) is None

    def test_r_past_the_recursion_limit(self):
        # Every pair of distinct masks is at least 1 apart, so all 1,200
        # are picked, one level of the search each.
        masks = list(range(1, 1201))
        assert select_dissimilar_color_sets(masks, 1200, 1) == masks

    def test_huge_r_answers_at_once(self):
        # Nothing the search sets up may grow with r.
        masks = list(range(64))
        assert select_dissimilar_color_sets(masks, 10**9, 1) is None

    def test_matches_first_combination(self):
        rng = random.Random(2402)
        for _ in range(200):
            bits = rng.randint(1, 10)
            masks = [rng.getrandbits(bits) for _ in range(rng.randint(0, 14))]
            r = rng.randint(2, 4)
            d = rng.randint(1, 6)
            expected = first_combination(masks, r, d)
            assert select_dissimilar_color_sets(masks, r, d) == expected, (masks, r, d)

    @pytest.mark.parametrize("store", ["shipped", "one set"])
    def test_twin_heavy_masks(self, monkeypatch, store):
        # "one set" empties the store of exhausted candidate sets before
        # every record, so the search runs through the emptying path.
        if store == "one set":
            monkeypatch.setattr(colorcode, "_FAILED_SETS_PER_MASK", 0)
        rng = random.Random(22)
        found = set()
        for _ in range(600):
            masks, r, d = twin_heavy_case(rng)
            expected = first_combination(masks, r, d)
            assert reference_select(masks, r, d) == expected, (masks, r, d)
            assert select_dissimilar_color_sets(masks, r, d) == expected, (masks, r, d)
            found.add((r, expected is not None))
        assert found == {(r, yes) for r in range(2, 6) for yes in (False, True)}

    @pytest.mark.parametrize(
        "masks, expected",
        [
            # Picking mask 0 leaves masks 3-5, which hold no three pairwise
            # 2 apart.  Picking masks 1 and 2 leaves the same three, and
            # now two more are needed, which masks 3 and 4 give.
            ([0b00, 0b01, 0b10, 0b1100, 0b110000, 0b110000],
             [0b01, 0b10, 0b1100, 0b110000]),
            # Picking masks 0 and 3 leaves masks 5 and 6, equal, and fails;
            # masks 4-6 were still to try there.  Picking masks 1 and 2
            # leaves masks 4-6 as a start set, and masks 4 and 5 complete it.
            ([0b0, 0b1, 0b10, 0b11, 0b111, 0b11000, 0b11000],
             [0b1, 0b10, 0b111, 0b11000]),
        ],
        ids=["fewer-picks", "left-to-try"],
    )
    def test_recurring_candidate_sets(self, masks, expected):
        assert reference_select(masks, 4, 2) == expected
        assert select_dissimilar_color_sets(masks, 4, 2) == expected

    def test_exhausted_sets_are_skipped(self):
        # Eight groups of ten masks: masks of one group are less than d
        # apart, masks of different groups at least d, so no nine are
        # pairwise d apart.  A search without the store tries every pick of
        # one mask from each of seven groups, about 10**8 nodes; with it,
        # every pick from a group leaves the same candidates, all the masks
        # of later groups, and the search ends after a few hundred nodes.
        masks = [
            0b1111 << 4 * group | 1 << 32 + 5 * group + x // 2
            for group in range(8)
            for x in range(10)
        ]

        def too_slow(signum, frame):
            raise TimeoutError("exhausted candidate sets were searched again")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            assert select_dissimilar_color_sets(masks, 9, 4) is None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("mode", ["fpt", "hybrid"])
    @pytest.mark.parametrize("items, yes", [((2, 2, 2), False), ((1, 1, 1, 1), True)])
    def test_binpack_rows_at_their_asks(self, monkeypatch, mode, items, yes):
        # The kernel calls of the benchmark's bin-packing rows: the
        # realizable sets of the ball search, or the oracle's masks.
        inst = gen_binpack(BinPackingInstance(items, 2, sum(items) // 2))
        calls = []
        kernel = select_dissimilar_color_sets

        def recording(masks, r, d):
            calls.append((list(masks), r, d))
            return kernel(masks, r, d)

        monkeypatch.setattr(colorcode, "select_dissimilar_color_sets", recording)
        monkeypatch.setattr(oracle, "select_dissimilar_color_sets", recording)
        assert solve(inst.graph, inst.ask_k, inst.ask_d, mode).decision == (
            "yes" if yes else "no"
        )
        assert calls
        for masks, r, d in calls:
            got = kernel(masks, r, d)
            assert got == reference_select(masks, r, d)
        assert (got is not None) == yes

    def test_scan_from_the_root(self):
        # r = 2, so the last two picks are the whole search: row 0 meets
        # no later mask at d = 4, and row 1 meets mask 3.
        masks = [0b1, 0b11, 0b110, 0b1100]
        assert select_dissimilar_color_sets(masks, 2, 4) == [0b11, 0b1100]

    def test_scan_picks_the_last_two_positions(self):
        # Masks 1 and 2 sit 1 from mask 0, so the answer is mask 0 with the
        # last two, which the scan reaches at its last step.
        masks = [0, 0b1, 0b1, 0b11, 0b1100]
        assert select_dissimilar_color_sets(masks, 3, 2) == [0, 0b11, 0b1100]

    def test_scan_refutes_a_no(self):
        # Two pairs of equal masks, each pair 2 from the other: the first
        # pick leaves two candidates, enough by count, and only the scan
        # finds that they are 0 apart.
        masks = [0b00, 0b11, 0b00, 0b11]
        assert select_dissimilar_color_sets(masks, 3, 2) is None
        assert select_dissimilar_color_sets(masks, 2, 2) == [0b00, 0b11]

    @pytest.mark.parametrize("builder", ["shipped", "sliced"])
    def test_matches_reference(self, monkeypatch, builder):
        # "shipped" lets each row take the cheaper way; "sliced" builds
        # every row bit-parallel.
        if builder == "sliced":
            monkeypatch.setattr(colorcode, "_sliced_pays", lambda *costs: True)
        rng = random.Random(6)
        for _ in range(300):
            masks, r, d = random_selection_case(rng)
            expected = reference_select(masks, r, d)
            assert select_dissimilar_color_sets(masks, r, d) == expected, (masks, r, d)

    def test_sliced_rows_past_the_size_rule(self, monkeypatch):
        # 2,100 masks of 70 bits, so the shipped rule builds the early rows
        # bit-parallel and the late ones looped; at 70 bits the last of a
        # mask's nine bytes is partly used.
        rng = random.Random(11)
        masks = [rng.getrandbits(70) for _ in range(2100)]
        taken = set()
        rule = colorcode._sliced_pays

        def recording(bits, later, n):
            sliced = rule(bits, later, n)
            taken.add(sliced)
            return sliced

        monkeypatch.setattr(colorcode, "_sliced_pays", recording)
        for r, d in [(2, 0), (2, 52), (3, 43), (5, 40), (4, 42), (6, 38), (3, 71)]:
            expected = reference_select(masks, r, d)
            assert select_dissimilar_color_sets(masks, r, d) == expected, (r, d)
        assert taken == {True, False}

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.integers(0, 130).flatmap(
            lambda width: st.tuples(
                st.lists(
                    st.one_of(st.just(0), st.integers(0, (1 << width) - 1)),
                    max_size=40,
                ),
                st.integers(0, 5),
                st.integers(0, width + 2),
            )
        )
    )
    def test_sliced_rows_property(self, case):
        masks, r, d = case
        with mock.patch.object(colorcode, "_sliced_pays", lambda *costs: True):
            got = select_dissimilar_color_sets(masks, r, d)
        assert got == reference_select(masks, r, d)

    def test_looped_and_sliced_rows_agree(self, monkeypatch):
        # Every row of lists with zero and repeated masks, at widths 1-130
        # and at each d from 0 to past the width, built both ways.
        for width in range(1, 131):
            rng = random.Random(width)
            pool = [0] + [rng.getrandbits(width) for _ in range(6)]
            masks = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
            for d in sorted({0, 1, width // 2, width, width + 1, rng.randint(0, width)}):
                rows = {}
                for sliced in (False, True):
                    monkeypatch.setattr(
                        colorcode, "_sliced_pays", lambda *costs, s=sliced: s
                    )
                    row = colorcode._row_builder(masks, d)
                    rows[sliced] = [row(i) for i in range(len(masks))]
                expected = [
                    sum(
                        1 << j
                        for j in range(i + 1, len(masks))
                        if (masks[i] ^ masks[j]).bit_count() >= d
                    )
                    for i in range(len(masks))
                ]
                assert rows[False] == rows[True] == expected, (width, d)


class TestBallSearch:
    def test_center_itself(self, diamond_dag, upper):
        assert ball_search(diamond_dag, upper, 0, 1, 0) == [upper]

    def test_single_path_graph_infeasible(self):
        dag = build_sp_dag(parse_graph("p dsp 3 2\ns 1\nt 3\na 1 2 1\na 2 3 1\n"))
        center = Path((0, 1))
        assert ball_search(dag, center, 10, 2, 2) is None

    def test_diamond_pair(self, diamond_dag, upper, lower):
        got = ball_search(diamond_dag, upper, 4, 2, 4)
        assert got is not None and {p.arcs for p in got} == {(0, 2), (1, 3)}

    def test_r_zero(self, diamond_dag, upper):
        assert ball_search(diamond_dag, upper, 3, 0, 1) == []

    def test_radius_zero_multi(self, diamond_dag, upper):
        assert ball_search(diamond_dag, upper, 0, 2, 1) is None

    @pytest.mark.parametrize("seed", range(60))
    def test_oracle_equivalence(self, seed):
        dag = random_layered_dag(seed + 1500)
        catalog = enumerate_st_paths(dag)
        rng = random.Random(seed)
        center = rng.choice(catalog.paths)
        q = rng.randint(0, 5)
        r = rng.randint(1, 3)
        d = rng.randint(0, 4)
        got = ball_search(dag, center, q, r, d)
        expected = brute_ball(dag, center, q, r, d)
        assert (got is None) == (expected is None), (q, r, d)
        if got is not None:
            assert len(got) == r
            assert all(hamming_distance(center, p) <= q for p in got)
            assert all(
                hamming_distance(got[i], got[j]) >= d
                for i in range(r)
                for j in range(i + 1, r)
            )

    IDENTITY_GRAPHS = {
        "layered": lambda: [
            gen_layered(*shape, seed)
            for shape in ((4, 4, 0.6), (5, 4, 0.6), (6, 3, 0.5))
            for seed in range(20)
        ],
        "grid": lambda: [gen_grid(w, h) for w in range(1, 5) for h in range(1, 5)],
    }

    @pytest.mark.parametrize("kind", sorted(IDENTITY_GRAPHS))
    def test_ball_at_m_is_the_oracle(self, kind):
        # Every shortest path lies within m of any center, and m colors
        # make the family the identity, so the ball of radius m around
        # the first greedy path decides every ask as the oracle does.
        for g in self.IDENTITY_GRAPHS[kind]():
            dag = build_sp_dag(g)
            m = dag.base.m
            center = farthest_path(dag, [], 0)
            for k in range(1, 5):
                for d in range(min(m, 14) + 1):
                    got = ball_search(dag, center, m, k, d)
                    assert (got is None) == (brute_solve(dag, k, d) is None), (k, d)

    def test_deterministic(self, diamond_dag, upper):
        runs = [ball_search(diamond_dag, upper, 4, 2, 4) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    ORDER_DAGS = {
        "layered": lambda: [build_sp_dag(gen_layered(4, 4, 0.6, seed)) for seed in range(1, 13)],
        "grid": lambda: [build_sp_dag(gen_grid(w, h)) for w, h in ((2, 3), (3, 3), (4, 4))],
        "binpack": lambda: [_binpack_dag(items) for items in ((1, 1, 2), (1, 2, 3))],
    }

    @pytest.mark.parametrize("kind", sorted(ORDER_DAGS))
    def test_largest_sets_first(self, kind):
        # The paths returned are those of the kernel's first selection
        # over the realizable sets largest first, for the first family
        # member that has one.  Smallest first picks other sets on some
        # of these asks, so the order is what is tested.
        other_sets = 0
        for idx, dag in enumerate(self.ORDER_DAGS[kind]()):
            rng = random.Random(idx)
            paths = enumerate_st_paths(dag).paths
            m = dag.base.m
            for _ in range(4):
                center = rng.choice(paths)
                q = rng.randint(1, 2 * len(center.arcs))
                r = rng.randint(2, 4)
                d = rng.randint(1, q)
                expected = None
                for member in build_hash_family(m, min(q * r, m)).members:
                    tables = BypassTables(dag, center, member, q)
                    sets = tables.realizable_sets
                    chosen = reference_select(sets[::-1], r, d)
                    if chosen is not None:
                        expected = [tables.reconstruct(c) for c in chosen]
                        other_sets += set(chosen) != set(reference_select(sets, r, d))
                        break
                assert ball_search(dag, center, q, r, d) == expected, (idx, q, r, d)
        assert other_sets
