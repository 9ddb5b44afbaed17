"""The benchmark's workloads: which graphs are decided, with which asks,
under which per-instance time limit, and how each graph file is built.

A workload is a list of graph specs, each a JSON-able dict naming a
``dspaths.generators`` family and its parameters, plus the (k, d) asks to
decide on that graph.  Specs depend only on the workload name and the run
seed; ``graph_text`` turns a spec into the file a user would pass to
``dspaths solve -g``.  No module-level import of ``dspaths``, so the
worker can time that import as part of set-up.
"""

from __future__ import annotations

import random

# Per-instance time limit in seconds.  A failed instance is charged this
# much in wall_s and verdict_ms, so fixing a failure never reads as a
# slowdown.
# The limits sit a few times above the slowest instance that passes, so
# the charge stays comparable to the work it stands for.
TIME_LIMITS = {
    "greedy-grid": 10.0,
    "ball-binpack": 60.0,
    "hybrid-default": 12.0,
    "small-batch": 0.1,
}

# Address-space cap of every worker process.  The hybrid 7x7 grid peaks at
# about 880 MB; the binpack (1,1,1)/3 row would grow past any cap, so the
# time limit stops it first.
MEM_CAP_MB = 1536

WORKLOADS = tuple(TIME_LIMITS)

# 3-item, 2-bin bin-packing rows that pack (one item is the sum of the
# other two); each solves in milliseconds.
_QUICK_BINPACK_ROWS = (
    (1, 1, 2), (1, 2, 3), (2, 1, 3), (3, 1, 2), (2, 2, 4), (1, 3, 4),
    (2, 3, 5), (1, 4, 5), (3, 3, 6), (2, 4, 6), (1, 5, 6), (3, 4, 7),
)

# small-batch decides gen_layered(layers, width, 0.6, s) for s in
# range(count): SP-DAGs of about 4 to 36 arcs, so identity, exhaustive
# (m <= 16) and seeded (m > 16) hash families all get built.  Among the
# 4x4 graphs, s = 7, 9, 16, 46, 71, 73, 81 and 99 get probabilistic_no at
# k=3, d=4 from the seeded family although the answer is yes.
SMALL_BATCH_GRAPHS = (((4, 4), 100), ((3, 3), 50))
SMALL_BATCH_ASKS = ((2, 4), (3, 4), (3, 2), (4, 4))


def _spec(gid, family, params, asks, *, mode="fpt", shuffle_arcs=False,
          truth=None):
    return {
        "id": gid,
        "family": family,
        "params": params,
        "asks": [list(a) for a in asks] if asks is not None else None,
        "mode": mode,
        "shuffle_arcs": shuffle_arcs,
        "truth": truth,
    }


def _binpack(gid, items, bins, **kw):
    params = {"items": list(items), "bins": bins, "capacity": sum(items) // bins}
    # asks=None: decided at the generator's own ask_k / ask_d.
    return _spec(gid, "binpack", params, None, truth="binpack", **kw)


def build(workload: str, seed: int) -> list[dict]:
    """Graph specs of one workload at one run seed."""
    if workload == "greedy-grid":
        # The seed permutes vertex ids, and the arc order of the layered
        # graphs: the inputs differ per seed while the greedy phase still
        # completes on each.  Grid arcs keep the generator's order, since a
        # shuffled order makes the grid work vary by about 15% from seed
        # to seed.
        specs = [
            _spec(f"grid{w}", "grid", {"w": w, "h": w}, [ask], truth="yes")
            for w, ask in ((80, (3, 40)), (60, (4, 12)), (40, (5, 4)))
        ]
        specs += [
            _spec(f"layered30x8-{s}", "layered",
                  {"layers": 30, "width": 8, "p": 0.4, "seed": s},
                  [(3, 10), (4, 4)], shuffle_arcs=True, truth="yes")
            for s in (0, 1, 2)
        ]
        return specs
    if workload == "ball-binpack":
        rows = list(_QUICK_BINPACK_ROWS)
        random.Random(f"ball-binpack:{seed}").shuffle(rows)
        specs = [_binpack("bp" + "-".join(map(str, r)) + "_2", r, 2) for r in rows]
        specs.append(_binpack("bp2-2-2_2", (2, 2, 2), 2))
        specs.append(_binpack("bp1-1-1-1_2", (1, 1, 1, 1), 2))
        return specs
    if workload == "hybrid-default":
        specs = [
            _spec(f"grid{w}", "grid", {"w": w, "h": w}, [(4, 6)], mode=None,
                  truth="yes")
            for w in (5, 6, 7)
        ]
        specs.append(_binpack("bp1-1-1-1_2", (1, 1, 1, 1), 2, mode=None))
        specs.append(_binpack("bp2-2-2_2", (2, 2, 2), 2, mode=None))
        specs.append(_binpack("bp1-1-1_3", (1, 1, 1), 3, mode=None))
        specs.append(_spec("chain1500", "chain", {"arcs": 1500}, [(1, 0)],
                           mode=None, truth="yes"))
        return specs
    if workload == "small-batch":
        # The graph set is fixed, so every run holds the same defective
        # instances; the seed shuffles arc order and vertex ids.
        return [
            _spec(f"layered{la}x{wi}-{s}", "layered",
                  {"layers": la, "width": wi, "p": 0.6, "seed": s},
                  SMALL_BATCH_ASKS, shuffle_arcs=True, truth="paths")
            for (la, wi), count in SMALL_BATCH_GRAPHS
            for s in range(count)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _chain(n_arcs: int):
    from dspaths.graph import WEIGHT_SCALE, Arc, ArcWeightedDigraph

    arcs = tuple(Arc(i, i + 1, i + 2, WEIGHT_SCALE) for i in range(n_arcs))
    return ArcWeightedDigraph(n=n_arcs + 1, arcs=arcs, s=1, t=n_arcs + 1)


def _relabel(g, rng: random.Random, shuffle_arcs: bool):
    """Isomorphic copy: vertex ids permuted, arc order optionally shuffled."""
    from dspaths.graph import Arc, ArcWeightedDigraph

    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    arcs = list(g.arcs)
    if shuffle_arcs:
        rng.shuffle(arcs)
    return ArcWeightedDigraph(
        n=g.n,
        arcs=tuple(
            Arc(i, perm[a.tail - 1], perm[a.head - 1], a.weight)
            for i, a in enumerate(arcs)
        ),
        s=perm[g.s - 1],
        t=perm[g.t - 1],
    )


def graph_text(spec: dict, seed: int) -> tuple[str, list[list[int]]]:
    """The graph file of a spec and the asks decided on it."""
    from dspaths import generators
    from dspaths.graph import format_graph

    p = spec["params"]
    asks = spec["asks"]
    if spec["family"] == "grid":
        g = generators.gen_grid(p["w"], p["h"])
    elif spec["family"] == "layered":
        g = generators.gen_layered(p["layers"], p["width"], p["p"], p["seed"])
    elif spec["family"] == "chain":
        g = _chain(p["arcs"])
    elif spec["family"] == "binpack":
        inst = generators.gen_binpack(
            generators.BinPackingInstance(
                items=tuple(p["items"]), bins=p["bins"], capacity=p["capacity"]
            )
        )
        g = inst.graph
        asks = [[inst.ask_k, inst.ask_d]]
    else:
        raise ValueError(f"unknown family {spec['family']!r}")
    g = _relabel(g, random.Random(f"{seed}:{spec['id']}"), spec["shuffle_arcs"])
    return format_graph(g), asks
