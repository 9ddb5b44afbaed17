"""The scan: fpt checked against ``brute_solve`` on every ask of a set
of small graph families.

The families are ``gen_layered(L, W, p, s)`` for (L, W, p) = (4, 4, 0.6),
(5, 4, 0.6) and (6, 3, 0.5) with s = 0..59, grids of 2..6 by 2..5,
``parallel_routes`` with 2 or 3 routes of 5, 9 or 14 arcs and 1 or 2
diamonds, and five bin-packing rows.  A graph whose SP-DAG has more than
``PATH_LIMIT`` s-t paths is skipped.  On each graph every k of 2..5 is
asked with every d of 1..min(m, 24) + 1, m the SP-DAG's arc count.  The
truth of an ask is ``brute_solve`` on the SP-DAG; ``solve`` verifies every
certificate it returns.  Every graph has at most ``PATH_LIMIT`` paths,
so a hybrid solve would run ``brute_solve`` itself; only fpt is asked.

Every ask is counted under the route its solve took (``ROUTES``): the
paper's greedy phase completing, or one or several ball searches.  Run
from the repository root:

    PYTHONPATH=src:tests python tests/scan.py           # the whole scan
    PYTHONPATH=src:tests python tests/scan.py --slice   # every tenth graph

It prints each disagreement, the asks and the route counts, and exits 1
if any ask disagrees.  ``tests/test_scan.py`` runs the slice.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from typing import Iterator

from conftest import parallel_routes
from dspaths.generators import BinPackingInstance, gen_binpack, gen_grid, gen_layered
from dspaths.graph import ArcWeightedDigraph, build_sp_dag
from dspaths.oracle import brute_solve, count_st_paths
from dspaths.solver import SolveResult, solve

PATH_LIMIT = 2000
LAYERED = ((4, 4, 0.6), (5, 4, 0.6), (6, 3, 0.5))
BINPACK_ROWS = (
    ((1, 1), 2),
    ((1, 1, 2), 2),
    ((1, 2, 3), 2),
    ((2, 2, 2), 2),
    ((1, 1, 1, 1), 2),
)
ROUTES = ("greedy complete", "one ball search", "several ball searches")


def graphs() -> Iterator[tuple[str, ArcWeightedDigraph]]:
    """Every graph of the scan, named, in a fixed order."""
    for layers, width, p in LAYERED:
        for s in range(60):
            yield f"layered({layers},{width},{p},{s})", gen_layered(layers, width, p, s)
    for w in range(2, 7):
        for h in range(2, 6):
            yield f"grid({w},{h})", gen_grid(w, h)
    for routes in (2, 3):
        for length in (5, 9, 14):
            for diamonds in (1, 2):
                yield (
                    f"parallel_routes({routes},{length},{diamonds})",
                    parallel_routes(routes, length, diamonds),
                )
    for items, bins in BINPACK_ROWS:
        inst = BinPackingInstance(items=items, bins=bins, capacity=sum(items) // bins)
        yield f"binpack({items},{bins})", gen_binpack(inst).graph


def route(result: SolveResult) -> str:
    """The route a solve took, one of ``ROUTES``."""
    searches = result.stats.compositions_tried
    if searches:
        return "one ball search" if searches == 1 else "several ball searches"
    return "greedy complete"


def scan(step: int = 1) -> tuple[list[str], Counter, Counter]:
    """Solve every ask on every step-th graph under fpt.

    Returns the disagreements with ``brute_solve``, one line each; the
    asks counted by route; and the asks counted by the number of ball
    searches run."""
    disagreements: list[str] = []
    routes: Counter = Counter()
    searches: Counter = Counter()
    for index, (name, g) in enumerate(graphs()):
        if index % step:
            continue
        dag = build_sp_dag(g)
        if count_st_paths(dag, cap=PATH_LIMIT + 1) > PATH_LIMIT:
            continue
        for k in range(2, 6):
            for d in range(1, min(dag.base.m, 24) + 2):
                truth = "no" if brute_solve(dag, k, d) is None else "yes"
                result = solve(g, k, d, mode="fpt")
                routes[route(result)] += 1
                searches[result.stats.compositions_tried] += 1
                if result.decision != truth:
                    disagreements.append(
                        f"{name} k={k} d={d}: fpt says {result.decision},"
                        f" brute_solve says {truth}"
                    )
    return disagreements, routes, searches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--slice", action="store_true", help="scan every tenth graph only"
    )
    args = parser.parse_args(argv)
    start = time.perf_counter()
    disagreements, routes, searches = scan(10 if args.slice else 1)
    elapsed = time.perf_counter() - start
    for line in disagreements:
        print("DISAGREE", line)
    asks = sum(routes.values())
    print(f"{asks} asks, {len(disagreements)} disagreements, {elapsed:.1f} s")
    print("fpt:", ", ".join(f"{r} {routes[r]}" for r in ROUTES))
    print(
        "fpt ball searches per ask:",
        ", ".join(f"{n}: {c}" for n, c in sorted(searches.items())),
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
