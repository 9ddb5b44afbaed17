"""Full decision pipeline: greedy farthest-path phase, ball partition,
ball filling, certificate assembly and verification.

The greedy phase asks for each new path to be very far (THRESHOLD_BASE
raised to a decreasing power, times d) from the previous ones.  If it
stalls before k paths, every shortest path lies in a strict ball around
exactly one greedy path and paths in different balls are automatically d
apart, so the solver fills the balls, last first, each with as many of
the needed paths as the color-coded ball search finds in it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from . import oracle as oracle_mod
from .colorcode import ball_search
from .farthest import farthest_path
from .graph import (
    ArcWeightedDigraph,
    Path,
    SpDag,
    build_sp_dag,
    graph_hash,
    shortest_distances,
)

MODES = ("fpt", "hybrid")
THRESHOLD_BASE = 3
# Most shortest paths the oracle enumerates (see ``solve``).
ORACLE_PATH_LIMIT = 10**5


class CertificateError(ValueError):
    """Structurally malformed certificate (distinct from a false verdict)."""


@dataclass(frozen=True)
class GreedyOutcome:
    paths: tuple[Path, ...]
    complete: bool


@dataclass(frozen=True)
class Certificate:
    """The witness for a yes: k shortest s-t paths of the graph whose
    ``graph_hash`` is given, in its arc ids, pairwise >= d apart.  The
    distances are not stored; ``verify_certificate`` computes them."""

    k: int
    d: int
    paths: tuple[Path, ...]
    graph_hash: str


@dataclass(frozen=True)
class SolveStats:
    """``compositions_tried`` counts the ball searches run."""

    greedy_paths: int
    compositions_tried: int
    elapsed_ms: int


@dataclass(frozen=True)
class SolveResult:
    decision: str  # "yes" | "no"
    certificate: Certificate | None
    mode: str
    stats: SolveStats


def _threshold(dag: SpDag, k: int, d: int, i: int) -> int:
    """THRESHOLD_BASE^(k-i) * d, the distance the i-th greedy path keeps
    from the earlier ones, capped at m + 1.  Two paths of an m-arc dag are
    at most m apart, so every larger threshold decides the same; the
    exponent is capped first, since THRESHOLD_BASE^bit_length(m) > m."""
    m = dag.base.m
    return min(m + 1, THRESHOLD_BASE ** min(k - i, m.bit_length()) * d)


def greedy_phase(dag: SpDag, k: int, d: int) -> GreedyOutcome:
    """Collect up to k paths, the i-th at distance >= THRESHOLD_BASE^(k-i) * d
    from all previous ones; stops at the first failure.  The first path,
    with no previous ones, is the lexicographically smallest, and at d = 0,
    where every threshold is 0, it is all k."""
    if d == 0:
        return GreedyOutcome(paths=(farthest_path(dag, [], 0),) * k, complete=True)
    paths: list[Path] = []
    for i in range(1, k + 1):
        found = farthest_path(dag, paths, _threshold(dag, k, d, i))
        if found is None:
            break
        paths.append(found)
    return GreedyOutcome(paths=tuple(paths), complete=len(paths) == k)


def solve(g: ArcWeightedDigraph, k: int, d: int, mode: str = "hybrid") -> SolveResult:
    """Decide whether g has k shortest s-t paths pairwise >= d apart.

    ``mode`` is one of ``MODES``: "fpt" runs the paper's pipeline, and
    "hybrid" the exact path enumeration of ``oracle`` up to
    ``ORACLE_PATH_LIMIT`` shortest paths and fpt past it.  The paths are
    counted once, and past the limit none is enumerated.

    Returns a verified certificate on yes, its paths in the input file's
    arc ids: ``finish`` runs ``verify_certificate`` on it, the package's
    one runtime self-check.  Every "no" is exact, in both modes: a failed
    ``colorcode.ball_search`` is exact whatever its family.  Raises
    ``ValueError`` on a negative k or d or an unknown mode.
    """
    if k < 0 or d < 0:
        raise ValueError("k and d must be nonnegative")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    start = time.monotonic()
    greedy_count = 0
    ball_searches = 0

    # The engines work in the dag's arc numbering; ``finish`` maps the
    # answer back to input ids, the one place that does.  It checks a yes
    # against the distances the dag was built from.
    input_arc: tuple[int, ...] = ()
    dist: list[int | None] | None = None

    def finish(found: Sequence[Path] | None) -> SolveResult:
        elapsed = int((time.monotonic() - start) * 1000)
        cert = None
        if found is not None:
            paths = tuple(Path(tuple([input_arc[a] for a in p.arcs])) for p in found)
            cert = Certificate(k=k, d=d, paths=paths, graph_hash=graph_hash(g))
            ok, report = verify_certificate(g, cert, k, d, dist=dist)
            if not ok:  # pragma: no cover - internal soundness guard
                raise RuntimeError(f"solver produced an invalid certificate: {report}")
        return SolveResult(
            decision="no" if found is None else "yes",
            certificate=cert,
            mode=mode,
            stats=SolveStats(
                greedy_paths=greedy_count,
                compositions_tried=ball_searches,
                elapsed_ms=elapsed,
            ),
        )

    if k == 0:
        return finish(())

    dag = build_sp_dag(g)
    input_arc, dist = dag.input_arc, dag.dist

    if mode == "hybrid":
        path_count = oracle_mod.count_st_paths(dag, cap=ORACLE_PATH_LIMIT + 1)
        if path_count <= ORACLE_PATH_LIMIT:
            return finish(oracle_mod.brute_solve(dag, k, d))

    greedy = greedy_phase(dag, k, d)
    greedy_count = len(greedy.paths)
    if greedy.complete:
        return finish(greedy.paths)

    # Paths in different balls are d apart and a ball with r paths pairwise
    # d apart has r - 1, so filling each ball with as many needed paths as
    # it holds, last ball first, finds the lexicographically first counts.
    radius = _threshold(dag, k, d, greedy_count + 1) - 1
    need = k
    chosen: list[Path] = []
    for i in reversed(range(greedy_count)):
        for r in range(need, need - 1 if i == 0 else 0, -1):
            ball_searches += 1
            found = ball_search(dag, greedy.paths[i], radius, r, d)
            if found is not None:
                chosen[:0] = found
                need -= r
                break
        if need == 0:
            return finish(chosen)

    return finish(None)


def verify_certificate(
    g: ArcWeightedDigraph,
    cert: Certificate,
    k: int,
    d: int,
    dist: Sequence[int | None] | None = None,
) -> tuple[bool, str | None]:
    """Check a certificate independently: k paths, each a shortest s-t path
    of g, pairwise Hamming distances >= d, and the certificate's own k and
    d equal to the ask.  Reports the first violation.  This is the one
    check of the distances: each is computed here from the paths' arc
    sets, and none at d = 0, where every pair passes.

    ``dist`` gives a distance per vertex of g (None: unreached); without
    it, ``shortest_distances(g)`` supplies them.  Either way they are
    checked as a feasible dual potential (Ahuja, Magnanti & Orlin,
    *Network Flows*, 1993, ch. 4-5): a list of n + 1 ints or Nones with
    dist[s] = 0, in which every arc (u, v, w) of g with a distance at u
    has one at v and dist[v] <= dist[u] + w.  Summed along any s-t path
    those inequalities telescope to weight >= dist[t].  A path is then
    shortest when it chains from s to t over arcs of g without repeating
    a vertex and weighs exactly dist[t]; each distinct path is checked
    once.  A wrong ``dist`` is either infeasible, and rejected, or still
    a lower bound on every s-t path, so it can reject a certificate but
    never accept one.  So soundness does not rest on how ``dist`` was
    computed: ``shortest_distances`` is the Dijkstra that ``build_sp_dag``
    runs too, and any ``dist`` that passes ``_is_feasible_potential`` is a
    lower bound on the weight of every s-t path.  No SP-DAG is built here.
    Raises ``ValueError`` on a negative k or d, before the certificate is
    read.
    """
    if k < 0 or d < 0:
        raise ValueError("k and d must be nonnegative")
    _validate_certificate_shape(cert)
    if len(cert.paths) != k:
        return False, f"expected {k} paths, got {len(cert.paths)}"
    if dist is None:
        dist = shortest_distances(g)
    if not _is_feasible_potential(g, dist):
        return False, "distances are not a feasible potential"
    best = dist[g.t]
    if best is None and k:
        return False, "graph has no s-t path"
    first: dict[tuple[int, ...], int] = {}  # distinct arc lists, first index
    for i, p in enumerate(cert.paths, start=1):
        first.setdefault(tuple(p.arcs), i)
    for arcs, i in first.items():
        if not _is_shortest_st_path(g, best, arcs):
            return False, f"path {i} not a shortest path"
    if d:
        masks = [sum(1 << a for a in p.arcs) for p in cert.paths]
        for i, mask in enumerate(masks):
            for j in range(i + 1, k):
                apart = (mask ^ masks[j]).bit_count()
                if apart < d:
                    return False, f"pair ({i + 1},{j + 1}) distance {apart} < {d}"
    if (cert.k, cert.d) != (k, d):
        return False, f"certificate states k={cert.k}, d={cert.d}; asked k={k}, d={d}"
    return True, None


def _is_feasible_potential(
    g: ArcWeightedDigraph, dist: Sequence[int | None]
) -> bool:
    if len(dist) != g.n + 1 or not set(map(type, dist)) <= {int, type(None)}:
        return False
    if dist[g.s] != 0:
        return False
    for _, tail, head, weight in g.arcs:
        du = dist[tail]
        if du is not None:
            dv = dist[head]
            if dv is None or dv > du + weight:
                return False
    return True


def _is_shortest_st_path(
    g: ArcWeightedDigraph, best: int, arcs: Sequence[int]
) -> bool:
    v, weight, seen = g.s, 0, {g.s}
    m = g.m
    for aid in arcs:
        if not 0 <= aid < m:
            return False
        arc = g.arcs[aid]
        if arc.tail != v or arc.head in seen:
            return False
        v = arc.head
        seen.add(v)
        weight += arc.weight
    return v == g.t and weight == best


def _validate_certificate_shape(cert: Certificate) -> None:
    if not isinstance(cert, Certificate):
        raise CertificateError("not a certificate")
    _check_k_and_d(cert.k, cert.d)
    # One check per Path object: the JSON parser shares one among equal
    # paths, so a repeated path is checked once.
    for p in {id(p): p for p in cert.paths}.values():
        if not isinstance(p, Path) or not all(type(a) is int for a in p.arcs):
            raise CertificateError("paths must be sequences of arc ids")


def _check_k_and_d(k: object, d: object) -> None:
    # bool is an int subclass; True is no count and no arc id.
    if type(k) is not int or type(d) is not int:
        raise CertificateError("k and d must be integers")


def result_to_json_dict(result: SolveResult, k: int, d: int) -> dict:
    """Certificate JSON emitted by the CLI: the decision, the ask's k and
    d, the paths as arrays of input arc ids (empty unless yes), the mode,
    the graph hash (empty unless yes) and the solve stats, whose
    ``compositions_tried`` counts ball searches.  No distances are
    written: ``verify_certificate`` computes them from the paths."""
    cert = result.certificate
    return {
        "decision": result.decision,
        "k": k,
        "d": d,
        "paths": [list(p.arcs) for p in cert.paths] if cert else [],
        "mode": result.mode,
        "graph_hash": cert.graph_hash if cert else "",
        "stats": {
            "greedy_paths": result.stats.greedy_paths,
            "compositions_tried": result.stats.compositions_tried,
            "elapsed_ms": result.stats.elapsed_ms,
        },
    }


def certificate_from_json_dict(data: dict) -> Certificate:
    """Parse and structurally validate a certificate JSON document.  Keys
    other than k, d, paths and graph_hash are ignored, among them the
    ``"pairwise"`` matrix that older documents carry.  Equal paths share
    one ``Path``."""
    if not isinstance(data, dict):
        raise CertificateError("certificate JSON must be an object")
    try:
        k = data["k"]
        d = data["d"]
        raw_paths = data["paths"]
    except KeyError as exc:
        raise CertificateError(f"missing certificate field {exc}") from None
    if not isinstance(raw_paths, list):
        raise CertificateError("paths must be an array")
    paths = []
    parsed: dict[tuple[int, ...], Path] = {}
    for arcs in raw_paths:
        if not isinstance(arcs, list) or not all(
            type(a) is int and a >= 0 for a in arcs
        ):
            raise CertificateError("paths must be arrays of arc ids")
        key = tuple(arcs)
        path = parsed.get(key)
        if path is None:
            path = parsed[key] = Path(key)
        paths.append(path)
    _check_k_and_d(k, d)
    return Certificate(
        k=k, d=d, paths=tuple(paths), graph_hash=str(data.get("graph_hash", ""))
    )
