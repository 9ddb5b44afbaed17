"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced name in the module where the
pipeline looks it up at call time with a wrapper that records a span:
name, start, end, parent span and instance index, plus a few attributes
taken from the call's arguments or result.  Spans stay in memory and are
written out when the pass ends.  ``layer_metrics`` turns one pass's spans
into the per-layer metrics.

Span names are ``<layer>.<what>``; the layer prefix decides which layer a
span's self time is charged to.
"""

from __future__ import annotations

import resource
import time

# (module, name looked up at call time, span name)
WRAPPED = (
    ("dspaths.cli", "solve", "solver.solve"),
    ("dspaths.cli", "parse_graph", "graph.parse_graph"),
    ("dspaths.solver", "build_sp_dag", "graph.build_sp_dag"),
    ("dspaths.solver", "greedy_phase", "solver.greedy_phase"),
    ("dspaths.solver", "farthest_path", "farthest.farthest_path"),
    ("dspaths.solver", "ball_search", "colorcode.ball_search"),
    ("dspaths.solver", "verify_certificate", "solver.verify_certificate"),
    ("dspaths.oracle", "count_st_paths", "oracle.count_st_paths"),
    ("dspaths.oracle", "enumerate_st_paths", "oracle.enumerate_st_paths"),
    ("dspaths.oracle", "brute_solve", "oracle.brute_solve"),
    ("dspaths.colorcode", "build_hash_family", "colorcode.build_hash_family"),
    ("dspaths.colorcode", "select_dissimilar_color_sets", "colorcode.select"),
)
# dspaths.colorcode.BypassTables: construction and reconstruct().
BYPASS_SPANS = ("colorcode.bypass_tables", "colorcode.reconstruct")
# Opened by the worker around each dspaths.cli.run_cli call.
ROOT_SPAN = "cli.run_cli"

SPAN_NAMES = (ROOT_SPAN,) + tuple(w[2] for w in WRAPPED) + BYPASS_SPANS
LAYERS = ("cli", "graph", "solver", "farthest", "colorcode", "oracle")
REGIMES = ("identity", "exhaustive", "seeded")

# Which spans must fire, and which must not, on each workload: a wrapper
# left on a name the pipeline no longer looks up would otherwise read as
# 0 ms.  Every span appears in some "fire" set.
_FRONT = {ROOT_SPAN, "graph.parse_graph", "solver.solve", "graph.build_sp_dag",
          "solver.verify_certificate"}
_GREEDY = {"solver.greedy_phase", "farthest.farthest_path"}
_BALL = {"colorcode.ball_search", "colorcode.build_hash_family",
         "colorcode.bypass_tables", "colorcode.reconstruct", "colorcode.select"}
_ORACLE = {"oracle.count_st_paths", "oracle.enumerate_st_paths", "oracle.brute_solve"}
MUST_FIRE = {
    "greedy-grid": _FRONT | _GREEDY,
    "ball-binpack": _FRONT | _GREEDY | _BALL,
    "hybrid-default": _FRONT | _ORACLE,
    "small-batch": _FRONT | _GREEDY | _BALL,
}
MUST_NOT_FIRE = {
    "greedy-grid": _BALL | _ORACLE,
    "ball-binpack": _ORACLE,
    "hybrid-default": _GREEDY | _BALL,
    "small-batch": _ORACLE,
}
# Per-layer counters that must be positive on a workload.
MUST_COUNT = {
    "small-batch": ("colorcode.family.built.exhaustive", "colorcode.family.built.seeded"),
    "ball-binpack": ("colorcode.family.built.identity",),
}
assert set(SPAN_NAMES) == set().union(*MUST_FIRE.values())


def peak_rss_mb() -> float:
    """Peak resident set size of this process image, in MB.

    VmHWM is read rather than ru_maxrss: Linux carries ru_maxrss over
    from the image that called exec, so a worker would report at least the
    RSS of the run.py process that started it.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Span recorder for one pass; ``spans`` rows are
    [name, span_id, parent_id, instance, start_ns, end_ns, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.instance = -1

    def span(self, name, fn, args, kwargs, attrs_of=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, sid, parent, self.instance, 0, 0, {}]
        self.spans.append(row)
        self._stack.append(sid)
        ctx = attrs_of.before() if attrs_of else None
        result = None
        row[4] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            row[6]["error"] = type(exc).__name__
            raise
        finally:
            row[5] = time.perf_counter_ns()
            if attrs_of:
                row[6].update(attrs_of.after(ctx, args, result))
            self._stack.pop()

    def _wrap(self, name, fn, attrs_of=None):
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, attrs_of)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        for modname, attr, name in WRAPPED:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise RuntimeError(f"cannot trace {modname}.{attr}: no such callable")
            setattr(mod, attr, self._wrap(name, fn, _ATTRS.get(name)))

        colorcode = importlib.import_module("dspaths.colorcode")
        base = colorcode.BypassTables
        tracer = self

        class TracedBypassTables(base):
            def __init__(self, *args, **kwargs):
                tracer.span(BYPASS_SPANS[0], super().__init__, args, kwargs)

            def reconstruct(self, *args, **kwargs):
                return tracer.span(BYPASS_SPANS[1], super().reconstruct, args, kwargs)

        colorcode.BypassTables = TracedBypassTables


class _Found:
    """found = the call returned something other than None."""

    def before(self):
        return None

    def after(self, ctx, args, result):
        return {"found": result is not None}


class _Select(_Found):
    def after(self, ctx, args, result):
        return {"found": result is not None, "sets": len(args[0]) if args else 0}


class _GreedyOutcome(_Found):
    def after(self, ctx, args, result):
        return {"complete": bool(result is not None and result.complete)}


class _SpDagArcs(_Found):
    def after(self, ctx, args, result):
        return {"arcs": result.base.m} if result is not None else {}


class _Enumerated(_Found):
    def after(self, ctx, args, result):
        return {"paths": len(result.paths)} if result is not None else {}


class _RssDelta(_Found):
    def before(self):
        return peak_rss_mb()

    def after(self, ctx, args, result):
        return {"rss_delta_mb": peak_rss_mb() - ctx}


class _Family(_Found):
    """Regime of the family and whether this call built it (cache miss)."""

    def before(self):
        from dspaths import colorcode

        return colorcode.build_hash_family.__wrapped__.cache_info().misses

    def after(self, ctx, args, result):
        from dspaths import colorcode

        if result is None:
            return {}
        built = colorcode.build_hash_family.__wrapped__.cache_info().misses - ctx
        if result.mode == colorcode.SEEDED:
            regime = "seeded"
        elif result.num_colors == result.m:
            regime = "identity"
        else:
            regime = "exhaustive"
        return {"regime": regime, "built": built, "members": len(result.members)}


_ATTRS = {
    "graph.build_sp_dag": _SpDagArcs(),
    "solver.greedy_phase": _GreedyOutcome(),
    "farthest.farthest_path": _Found(),
    "colorcode.ball_search": _Found(),
    "colorcode.select": _Select(),
    "colorcode.build_hash_family": _Family(),
    "oracle.enumerate_st_paths": _Enumerated(),
    "oracle.brute_solve": _RssDelta(),
}

# Per-layer metrics: name -> (unit, better).  Counters are the metrics
# that must repeat exactly between two traced runs of one seed.
PER_LAYER = {
    "cli.run_cli.self_ms": ("ms", "lower"),
    "graph.parse_graph.ms": ("ms", "lower"),
    "graph.build_sp_dag.ms": ("ms", "lower"),
    "graph.build_sp_dag.calls_per_instance": ("count", "lower"),
    "graph.spdag_arcs": ("count", "lower"),
    "solver.solve.self_ms": ("ms", "lower"),
    "solver.verify_certificate.ms": ("ms", "lower"),
    "solver.greedy_phase.ms": ("ms", "lower"),
    "solver.greedy_paths": ("count", "lower"),
    "solver.compositions_tried": ("count", "lower"),
    "solver.route.oracle": ("count", "lower"),
    "solver.route.greedy_complete": ("count", "higher"),
    "solver.route.ball_search": ("count", "lower"),
    "farthest.farthest_path.ms": ("ms", "lower"),
    "farthest.farthest_path.calls": ("count", "lower"),
    "farthest.found_frac": ("frac", "higher"),
    **{f"colorcode.build_hash_family.ms.{r}": ("ms", "lower") for r in REGIMES},
    **{f"colorcode.family.built.{r}": ("count", "lower") for r in REGIMES},
    **{f"colorcode.family.members.{r}": ("count", "lower") for r in REGIMES},
    "colorcode.select.ms": ("ms", "lower"),
    "colorcode.select.calls": ("count", "lower"),
    "colorcode.select.found_frac": ("frac", "higher"),
    "colorcode.realizable_sets": ("count", "lower"),
    "colorcode.ball_search.ms": ("ms", "lower"),
    "colorcode.ball_search.calls": ("count", "lower"),
    "colorcode.ball_search.found_frac": ("frac", "higher"),
    "colorcode.bypass_tables.ms": ("ms", "lower"),
    "colorcode.members_tried": ("count", "lower"),
    "colorcode.reconstruct.ms": ("ms", "lower"),
    "oracle.count_st_paths.ms": ("ms", "lower"),
    "oracle.enumerate_st_paths.ms": ("ms", "lower"),
    "oracle.paths_enumerated": ("count", "lower"),
    "oracle.brute_solve.self_ms": ("ms", "lower"),
    "oracle.brute_solve.peak_rss_delta_mb": ("MB", "lower"),
    **{f"{layer}.self_share": ("frac", "lower") for layer in LAYERS},
    "trace.overhead_frac": ("frac", "lower"),
}
COUNTERS = tuple(
    name for name, (unit, _) in PER_LAYER.items()
    if unit == "count" or name.endswith("found_frac")
)


def layer_metrics(spans: list[list], instances: list[dict], wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``instances`` are the pass's instance results (for the JSON stats);
    ``wall_s`` is the pass's charged wall time, the base of the shares.
    """
    dur = {}
    child = {}
    for name, sid, parent, _, t0, t1, _ in spans:
        dur[sid] = (t1 - t0) / 1e6
        child[parent] = child.get(parent, 0.0) + dur[sid]
    by_name: dict[str, list[list]] = {n: [] for n in SPAN_NAMES}
    for row in spans:
        by_name[row[0]].append(row)

    def ms(name, pred=lambda row: True):
        return sum(dur[row[1]] for row in by_name[name] if pred(row))

    def self_ms(name):
        return sum(dur[row[1]] - child.get(row[1], 0.0) for row in by_name[name])

    def calls(name):
        return len(by_name[name])

    def frac(name, key):
        rows = by_name[name]
        return sum(1 for r in rows if r[6].get(key)) / len(rows) if rows else 0.0

    def total(name, key, pred=lambda row: True):
        return sum(row[6].get(key, 0) for row in by_name[name] if pred(row))

    n_inst = max(len(instances), 1)
    per_instance: dict[int, dict[str, list[list]]] = {}
    for row in spans:
        per_instance.setdefault(row[3], {}).setdefault(row[0], []).append(row)
    routes = {"oracle": 0, "greedy_complete": 0, "ball_search": 0}
    spdag_arcs = 0
    for rows in per_instance.values():
        spdag_arcs += max((r[6].get("arcs", 0) for r in rows.get("graph.build_sp_dag", ())),
                          default=0)
        if "oracle.brute_solve" in rows:
            routes["oracle"] += 1
        elif "solver.greedy_phase" in rows:
            complete = all(r[6].get("complete") for r in rows["solver.greedy_phase"])
            routes["greedy_complete" if complete else "ball_search"] += 1

    stats = [inst["doc"].get("stats", {}) for inst in instances if inst.get("doc")]
    m = {
        "cli.run_cli.self_ms": self_ms(ROOT_SPAN),
        "graph.parse_graph.ms": ms("graph.parse_graph"),
        "graph.build_sp_dag.ms": ms("graph.build_sp_dag"),
        "graph.build_sp_dag.calls_per_instance": calls("graph.build_sp_dag") / n_inst,
        "graph.spdag_arcs": spdag_arcs,
        "solver.solve.self_ms": self_ms("solver.solve"),
        "solver.verify_certificate.ms": ms("solver.verify_certificate"),
        "solver.greedy_phase.ms": ms("solver.greedy_phase"),
        "solver.greedy_paths": sum(s.get("greedy_paths", 0) for s in stats),
        "solver.compositions_tried": sum(s.get("compositions_tried", 0) for s in stats),
        **{f"solver.route.{r}": c for r, c in routes.items()},
        "farthest.farthest_path.ms": ms("farthest.farthest_path"),
        "farthest.farthest_path.calls": calls("farthest.farthest_path"),
        "farthest.found_frac": frac("farthest.farthest_path", "found"),
        "colorcode.select.ms": ms("colorcode.select"),
        "colorcode.select.calls": calls("colorcode.select"),
        "colorcode.select.found_frac": frac("colorcode.select", "found"),
        "colorcode.realizable_sets": total("colorcode.select", "sets"),
        "colorcode.ball_search.ms": ms("colorcode.ball_search"),
        "colorcode.ball_search.calls": calls("colorcode.ball_search"),
        "colorcode.ball_search.found_frac": frac("colorcode.ball_search", "found"),
        "colorcode.bypass_tables.ms": ms("colorcode.bypass_tables"),
        "colorcode.members_tried": calls("colorcode.bypass_tables"),
        "colorcode.reconstruct.ms": ms("colorcode.reconstruct"),
        "oracle.count_st_paths.ms": ms("oracle.count_st_paths"),
        "oracle.enumerate_st_paths.ms": ms("oracle.enumerate_st_paths"),
        "oracle.paths_enumerated": total("oracle.enumerate_st_paths", "paths"),
        "oracle.brute_solve.self_ms": self_ms("oracle.brute_solve"),
        "oracle.brute_solve.peak_rss_delta_mb": max(
            (r[6].get("rss_delta_mb", 0.0) for r in by_name["oracle.brute_solve"]),
            default=0.0,
        ),
    }
    for r in REGIMES:
        in_regime = lambda row, r=r: row[6].get("regime") == r  # noqa: E731
        m[f"colorcode.build_hash_family.ms.{r}"] = ms("colorcode.build_hash_family", in_regime)
        m[f"colorcode.family.built.{r}"] = total(
            "colorcode.build_hash_family", "built", in_regime)
        m[f"colorcode.family.members.{r}"] = sum(
            row[6]["members"] for row in by_name["colorcode.build_hash_family"]
            if in_regime(row) and row[6].get("built"))
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in SPAN_NAMES:
        layer_self[name.split(".", 1)[0]] += self_ms(name)
    for layer, v in layer_self.items():
        m[f"{layer}.self_share"] = v / (wall_s * 1000) if wall_s > 0 else 0.0
    m["fired"] = sorted(n for n in SPAN_NAMES if by_name[n])
    m["self_ms"] = {n: self_ms(n) for n in SPAN_NAMES}
    return m
