"""Full decision pipeline: greedy farthest-path phase, ball partition,
composition enumeration, certificate assembly and verification.

The greedy phase asks for each new path to be very far (THRESHOLD_BASE
raised to a decreasing power, times d) from the previous ones.  If it
stalls before k paths, every shortest path lies in a strict ball around
exactly one greedy path and paths in different balls are automatically d
apart, so the solver enumerates how many solution paths to place in each
ball and delegates to the color-coded ball search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import oracle as oracle_mod
from .colorcode import ball_search, exhaustive_family_feasible
from .farthest import farthest_path
from .graph import (
    Arc,
    ArcWeightedDigraph,
    Path,
    SpDag,
    build_sp_dag,
    graph_hash,
    hamming_distance,
    shortest_distances,
)

MODES = ("fpt", "oracle", "hybrid")
THRESHOLD_BASE = 3


class CertificateError(ValueError):
    """Structurally malformed certificate (distinct from a false verdict)."""


@dataclass(frozen=True)
class SolveConfig:
    mode: str = "hybrid"
    seed: int = 0
    coloring_budget: int = 64
    enumeration_budget: int = 10**5

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.coloring_budget <= 0 or self.enumeration_budget <= 0:
            raise ValueError("budgets must be positive")


@dataclass(frozen=True)
class GreedyOutcome:
    paths: tuple[Path, ...]
    complete: bool


@dataclass(frozen=True)
class Certificate:
    k: int
    d: int
    paths: tuple[Path, ...]
    pairwise: tuple[tuple[int, ...], ...]
    graph_hash: str


@dataclass(frozen=True)
class SolveStats:
    greedy_paths: int
    compositions_tried: int
    elapsed_ms: int


@dataclass(frozen=True)
class SolveResult:
    decision: str  # "yes" | "no" | "probabilistic_no"
    certificate: Certificate | None
    mode: str
    seed: int
    stats: SolveStats

    @property
    def is_yes(self) -> bool:
        return self.decision == "yes"


def greedy_phase(dag: SpDag, k: int, d: int) -> GreedyOutcome:
    """Collect up to k paths, the i-th at distance >= THRESHOLD_BASE^(k-i) * d
    from all previous ones; stops at the first failure."""
    paths: list[Path] = []
    for i in range(1, k + 1):
        threshold = 0 if i == 1 else THRESHOLD_BASE ** (k - i) * d
        found = farthest_path(dag, paths, threshold)
        if found is None:
            break
        paths.append(found)
    outcome = GreedyOutcome(paths=tuple(paths), complete=len(paths) == k)
    assert all(
        hamming_distance(paths[i], paths[j]) >= THRESHOLD_BASE ** (k - (j + 1)) * d
        for j in range(len(paths))
        for i in range(j)
    )
    return outcome


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples summing to total, lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _pairwise_matrix(paths: Sequence[Path]) -> tuple[tuple[int, ...], ...]:
    k = len(paths)
    return tuple(
        tuple(hamming_distance(paths[i], paths[j]) for j in range(k))
        for i in range(k)
    )


def _make_certificate(
    g: ArcWeightedDigraph, k: int, d: int, paths: Sequence[Path]
) -> Certificate:
    return Certificate(
        k=k,
        d=d,
        paths=tuple(paths),
        pairwise=_pairwise_matrix(paths),
        graph_hash=graph_hash(g),
    )


def solve(
    g: ArcWeightedDigraph, k: int, d: int, cfg: SolveConfig | None = None
) -> SolveResult:
    """Decide whether g has k shortest s-t paths pairwise >= d apart.

    Returns a verified certificate on yes.  A plain "no" is exact; it
    degrades to "probabilistic_no" only if some failing ball search had to
    fall back to a seeded coloring family.
    """
    cfg = cfg or SolveConfig()
    cfg.validate()
    start = time.monotonic()
    greedy_count = 0
    compositions_tried = 0

    def finish(decision: str, cert: Certificate | None) -> SolveResult:
        elapsed = int((time.monotonic() - start) * 1000)
        if cert is not None:
            ok, report = verify_certificate(g, cert, k, d)
            if not ok:  # pragma: no cover - internal soundness guard
                raise RuntimeError(f"solver produced an invalid certificate: {report}")
        return SolveResult(
            decision=decision,
            certificate=cert,
            mode=cfg.mode,
            seed=cfg.seed,
            stats=SolveStats(
                greedy_paths=greedy_count,
                compositions_tried=compositions_tried,
                elapsed_ms=elapsed,
            ),
        )

    if k == 0:
        return finish("yes", _make_certificate(g, 0, d, ()))

    dag = build_sp_dag(g)

    use_oracle = cfg.mode == "oracle"
    if cfg.mode == "hybrid":
        cap = cfg.enumeration_budget
        use_oracle = oracle_mod.count_st_paths(dag, cap=cap + 1) <= cap
    if use_oracle:
        found = oracle_mod.brute_solve(dag, k, d, cfg.enumeration_budget)
        if found is None:
            return finish("no", None)
        return finish("yes", _make_certificate(g, k, d, found))

    greedy = greedy_phase(dag, k, d)
    greedy_count = len(greedy.paths)
    if greedy.complete:
        return finish("yes", _make_certificate(g, k, d, greedy.paths))

    kp = len(greedy.paths)
    radius = THRESHOLD_BASE ** (k - kp - 1) * d - 1
    m = dag.base.m
    memo: dict[tuple[int, int], list[Path] | None] = {}
    min_failed: dict[int, int] = {}
    seeded_failure = False

    def search_ball(i: int, r: int) -> list[Path] | None:
        nonlocal seeded_failure
        if min_failed.get(i, math.inf) <= r:
            return None
        key = (i, r)
        if key not in memo:
            found = ball_search(
                dag,
                greedy.paths[i],
                radius,
                r,
                d,
                seed=cfg.seed,
                coloring_budget=cfg.coloring_budget,
            )
            memo[key] = found
            if found is None:
                min_failed[i] = min(min_failed.get(i, math.inf), r)
                if not exhaustive_family_feasible(m, radius * r):
                    seeded_failure = True
        return memo[key]

    for comp in _compositions(k, kp):
        compositions_tried += 1
        assignment: list[Path] = []
        for i, r in enumerate(comp):
            if r == 0:
                continue
            found = search_ball(i, r)
            if found is None:
                break
            assignment.extend(found)
        else:
            return finish("yes", _make_certificate(g, k, d, assignment))

    return finish("probabilistic_no" if seeded_failure else "no", None)


def verify_certificate(
    g: ArcWeightedDigraph, cert: Certificate, k: int, d: int
) -> tuple[bool, str | None]:
    """Check a certificate independently: k paths, each a shortest s-t path
    of g, pairwise Hamming distances >= d.  Reports the first violation.

    One Dijkstra on g gives dist(t); a path is shortest when it chains
    from s to t over arcs of g without repeating a vertex and weighs
    dist(t).  No SP-DAG is built, so the check shares no code with the
    solver's preprocessing.
    """
    _validate_certificate_shape(cert)
    if len(cert.paths) != k:
        return False, f"expected {k} paths, got {len(cert.paths)}"
    best = shortest_distances(g)[g.t]
    if best is None:
        return (True, None) if k == 0 else (False, "graph has no s-t path")
    arc_by_id = {a.id: a for a in g.arcs}
    for i, p in enumerate(cert.paths, start=1):
        if not _is_shortest_st_path(g, arc_by_id, best, p):
            return False, f"path {i} not a shortest path"
    for i in range(k):
        for j in range(i + 1, k):
            dist = hamming_distance(cert.paths[i], cert.paths[j])
            if dist < d:
                return False, f"pair ({i + 1},{j + 1}) distance {dist} < {d}"
    return True, None


def _is_shortest_st_path(
    g: ArcWeightedDigraph, arc_by_id: dict[int, Arc], best: int, p: Path
) -> bool:
    v, weight, seen = g.s, 0, {g.s}
    for aid in p.arcs:
        arc = arc_by_id.get(aid)
        if arc is None or arc.tail != v or arc.head in seen:
            return False
        v = arc.head
        seen.add(v)
        weight += arc.weight
    return v == g.t and weight == best


def _validate_certificate_shape(cert: Certificate) -> None:
    if not isinstance(cert, Certificate):
        raise CertificateError("not a certificate")
    n = len(cert.paths)
    for p in cert.paths:
        if not isinstance(p, Path) or not all(isinstance(a, int) for a in p.arcs):
            raise CertificateError("paths must be sequences of arc ids")
    if len(cert.pairwise) != n or any(len(row) != n for row in cert.pairwise):
        raise CertificateError("pairwise matrix must be k x k")
    if any(
        not isinstance(x, int) or x < 0 for row in cert.pairwise for x in row
    ):
        raise CertificateError("pairwise entries must be nonnegative integers")


def result_to_json_dict(result: SolveResult, k: int, d: int) -> dict:
    """Certificate JSON emitted by the CLI (shared with the oracle mode)."""
    cert = result.certificate
    return {
        "decision": result.decision,
        "k": k,
        "d": d,
        "paths": [list(p.arcs) for p in cert.paths] if cert else [],
        "pairwise": [list(row) for row in cert.pairwise] if cert else [],
        "mode": result.mode,
        "seed": result.seed,
        "graph_hash": cert.graph_hash if cert else "",
        "stats": {
            "greedy_paths": result.stats.greedy_paths,
            "compositions_tried": result.stats.compositions_tried,
            "elapsed_ms": result.stats.elapsed_ms,
        },
    }


def certificate_from_json_dict(data: dict) -> Certificate:
    """Parse and structurally validate a certificate JSON document."""
    if not isinstance(data, dict):
        raise CertificateError("certificate JSON must be an object")
    try:
        k = data["k"]
        d = data["d"]
        raw_paths = data["paths"]
        raw_matrix = data["pairwise"]
    except KeyError as exc:
        raise CertificateError(f"missing certificate field {exc}") from None
    if not isinstance(k, int) or not isinstance(d, int):
        raise CertificateError("k and d must be integers")
    if not isinstance(raw_paths, list) or not isinstance(raw_matrix, list):
        raise CertificateError("paths and pairwise must be arrays")
    paths = []
    for arcs in raw_paths:
        if not isinstance(arcs, list) or not all(
            isinstance(a, int) and a >= 0 for a in arcs
        ):
            raise CertificateError("paths must be arrays of arc ids")
        paths.append(Path(tuple(arcs)))
    matrix = []
    for row in raw_matrix:
        if not isinstance(row, list):
            raise CertificateError("pairwise matrix must be an array of arrays")
        matrix.append(tuple(row))
    cert = Certificate(
        k=k,
        d=d,
        paths=tuple(paths),
        pairwise=tuple(matrix),
        graph_hash=str(data.get("graph_hash", "")),
    )
    _validate_certificate_shape(cert)
    return cert
