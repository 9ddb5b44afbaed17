"""Benchmark of the dspaths solve pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from the root of a checkout.  One run of a workload builds the
workload's instances from the seed, computes their known answers, then
starts fresh worker processes (perfbench/worker.py), one pass each, until
the run has measured for about S seconds.  Every verdict is checked (see
truth.py).  Times are in reference seconds (see speed.py).  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics, with --trace 1 one with the per-layer metrics; the lines above
it list every failed instance.  --report runs every
workload traced twice and prints all metrics, the layer shares and the
self-checks.

Exit codes: 0 result printed; 2 the checkout has no dspaths sources;
3 a self-check of the benchmark failed (no result printed); 143 stopped
by SIGTERM.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import functools
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads
from truth import GraphFile, known_answer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench_work"

# A run stops starting passes after this many seconds, and no instance
# runs past it, so a run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 150.0
SETUP_SAMPLES = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "definite_frac": "frac",
}
EXIT_CODE_DECISION = {0: "yes", 1: "no", 3: "probabilistic_no"}


_RUN_IDS = itertools.count()


class SelfCheckError(RuntimeError):
    """The benchmark cannot vouch for its numbers."""


@functools.cache
def _worker_cmd() -> tuple[str, ...]:
    """The worker's command line.  Under ``setarch -R`` every worker gets
    the same memory layout; on the VM where the benchmark was defined that
    cut the pass-to-pass spread of ball-binpack, in reference seconds,
    from about 8% to 5%.  Where setarch is missing or refused, the worker
    runs with a randomized layout."""
    cmd = (sys.executable, str(WORKER))
    setarch = shutil.which("setarch")
    if setarch and subprocess.run([setarch, "-R", "true"], capture_output=True).returncode == 0:
        return (setarch, "-R") + cmd
    return cmd


def _run_worker(job: dict, timeout: float) -> list[dict]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            _worker_cmd(), input=json.dumps(job), capture_output=True,
            text=True, timeout=timeout, env=env, cwd=ROOT,
        )
        out, err, died = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        err, died = "", "killed after the run's hard limit"
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if died:
        lines.append({"died": f"worker exit {died}: {err.strip()[-300:]}"})
    return lines


class Run:
    """One run of one workload at one seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.limit = workloads.TIME_LIMITS[workload]
        self.graphs = workloads.build(workload, seed)
        self.asks: list[tuple[int, int, int]] = []  # (graph index, k, d)
        self.truth: list[str] = []
        self.files: list[GraphFile] = []
        self.hashes: list[str] = []
        self.texts: list[str] = []
        for gi, spec in enumerate(self.graphs):
            text, asks = workloads.graph_text(spec, seed)
            graph = GraphFile(text)
            self.texts.append(text)
            self.files.append(graph)
            self.hashes.append(hashlib.sha256(text.encode()).hexdigest())
            for k, d in asks:
                self.asks.append((gi, k, d))
                self.truth.append(known_answer(spec, graph, k, d))
        self.passes: list[dict] = []
        self.setup_samples: list[float] = []  # reference seconds
        self.setup_raw: list[float] = []
        self.failures: dict[str, str] = {}
        self.workroot = WORK / f"{workload}-{seed}-{os.getpid()}-{next(_RUN_IDS)}"
        self.incorrect: list[str] = []

    def name_of(self, i: int) -> str:
        gi, k, d = self.asks[i]
        return f"{self.graphs[gi]['id']} k={k} d={d}"

    def _job(self, workdir: Path, trace: bool, setup_only: bool, deadline: float) -> dict:
        return {
            "src": str(SRC), "workdir": str(workdir), "seed": self.seed,
            "graphs": self.graphs, "trace": trace, "setup_only": setup_only,
            "time_limit": self.limit, "mem_cap_mb": workloads.MEM_CAP_MB,
            "deadline": deadline,
        }

    def _verdict(self, i: int, res: dict | None) -> tuple[str | None, bool, str | None]:
        """(failure reason, hedged, incorrect reason) of one instance result."""
        if res is None:
            return "no result: the worker died", False, None
        if res["error"]:
            return res["error"], False, None
        rc = res["rc"]
        if rc not in EXIT_CODE_DECISION:
            return f"exit code {rc}", False, None
        decision = (res["doc"] or {}).get("decision")
        if decision != EXIT_CODE_DECISION[rc]:
            why = f"exit code {rc} but decision {decision!r}"
            return why, False, why
        gi, k, d = self.asks[i]
        truth = self.truth[i]
        if decision == "yes":
            bad = self.files[gi].check_certificate(res["doc"], k, d)
            if bad:
                return f"certificate fails: {bad}", False, f"certificate fails: {bad}"
            if truth != "yes":
                raise SelfCheckError(f"{self.name_of(i)}: valid certificate, known answer {truth}")
            return None, False, None
        hedged = decision == "probabilistic_no"
        if truth == "yes":
            why = f"{decision} on a yes-instance"
            return why, hedged, None if hedged else why
        return None, hedged, None

    def run_pass(self, trace: bool, deadline: float) -> dict:
        lines = _run_worker(self._job(self.workroot, trace, False, deadline),
                            deadline - time.time() + 15)
        if not lines or "setup_s" not in lines[0]:
            raise SelfCheckError(f"worker failed during set-up: {lines[-1:]}")
        if lines[0]["hashes"] != self.hashes:
            raise SelfCheckError("worker wrote different graph files than the run built")
        if not trace:
            self._add_setup(lines[0])
        results = [line for line in lines if "graph" in line]
        summary = next((line for line in lines if "peak_rss_mb" in line), {})
        p = {"trace": trace, "charged": [], "failed": 0, "hedged": 0, "results": results,
             "peak_rss_mb": summary.get("peak_rss_mb"), "spans": summary.get("spans")}
        ok = []
        for i in range(len(self.asks)):
            res = results[i] if i < len(results) else None
            fail, hedged, incorrect = self._verdict(i, res)
            p["hedged"] += hedged
            if fail:
                p["failed"] += 1
                self.failures.setdefault(self.name_of(i), fail)
            else:
                ok.append(i)
            p["charged"].append(self.limit)
            if incorrect:
                self.incorrect.append(f"{self.name_of(i)}: {incorrect}")
        if p["peak_rss_mb"] is None:  # the worker died: charge the cap
            p["peak_rss_mb"] = float(workloads.MEM_CAP_MB)
        # Traced passes run no reference chunks: their times stay as
        # measured.  Untraced ones are scaled by the speed the chunks saw
        # over the whole pass; a charged time limit is not scaled.
        factor = 1.0
        if not trace and ok:
            chunks = sum(r["chunks"] for r in results)
            if not chunks:
                raise SelfCheckError("no reference chunk ran in an untraced pass")
            factor = speed.scale(chunks, sum(r["chunk_s"] for r in results))
        raw = list(p["charged"])
        for i in ok:
            raw[i] = results[i]["elapsed_s"]
            p["charged"][i] = raw[i] * factor
        p["speed"] = factor
        p["raw_wall_s"] = sum(raw)
        p["wall_s"] = sum(p["charged"])
        if trace:
            p["layers"] = spans.layer_metrics(p["spans"] or [], results, p["wall_s"])
        self.passes.append(p)
        return p

    def _add_setup(self, line: dict) -> None:
        if not line["chunks"]:
            raise SelfCheckError("no reference chunk ran during set-up")
        self.setup_raw.append(line["setup_s"])
        self.setup_samples.append(line["setup_s"] * speed.scale(line["chunks"], line["chunk_s"]))

    def measure(self, seconds: float, trace: bool) -> None:
        # The workers rewrite the instance files and the JSON output file
        # in place.  Creating 150 files on the VM where the benchmark was
        # defined took anywhere from 10 to 170 ms of kernel time from one
        # minute to the next, while rewriting them took a steady 20 ms; so
        # the files are created once here, before anything is timed.
        self.workroot.mkdir(parents=True)
        try:
            for i, text in enumerate(self.texts):
                (self.workroot / f"g{i}.txt").write_text(text)
            (self.workroot / "out.json").write_text("")
            self._measure(seconds, trace)
        finally:
            shutil.rmtree(self.workroot, ignore_errors=True)

    def _measure(self, seconds: float, trace: bool) -> None:
        start = time.monotonic()
        deadline = time.time() + HARD_LIMIT_S
        unit = (False, True) if trace else (False,)
        while True:
            t = time.monotonic()
            for traced in unit:
                self.run_pass(traced, deadline)
            took = time.monotonic() - t
            if time.monotonic() - start + took > seconds or time.time() + took > deadline:
                break
        while len(self.setup_samples) < SETUP_SAMPLES and time.time() < deadline:
            lines = _run_worker(self._job(self.workroot, False, True, deadline), 60)
            if not lines or "setup_s" not in lines[0]:
                raise SelfCheckError(f"set-up worker failed: {lines[-1:]}")
            self._add_setup(lines[0])

    # -- metrics -------------------------------------------------------------

    def _untraced(self) -> list[dict]:
        return [p for p in self.passes if not p["trace"]]

    def end_to_end(self) -> dict:
        ps = self._untraced()
        attempted = len(self.asks) * len(ps)
        return {
            "setup_s": statistics.median(self.setup_samples),
            "wall_s": statistics.median(p["wall_s"] for p in ps),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ps),
            "ok_frac": 1 - sum(p["failed"] for p in ps) / attempted,
            "definite_frac": 1 - sum(p["hedged"] for p in ps) / attempted,
        }

    def verdict_samples(self) -> list[float]:
        return sorted(t * 1000 for p in self._untraced() for t in p["charged"])

    def per_layer(self) -> dict:
        traced = [p["layers"] for p in self.passes if p["trace"]]
        self.check_spans(traced)
        out = {
            name: statistics.median(layers[name] for layers in traced)
            for name in spans.PER_LAYER if name != "trace.overhead_frac"
        }
        out["trace.overhead_frac"] = (
            statistics.median(p["raw_wall_s"] for p in self.passes if p["trace"])
            / statistics.median(p["raw_wall_s"] for p in self._untraced()) - 1
        )
        return out

    def check_spans(self, traced: list[dict]) -> None:
        """Coverage and determinism self-checks of the traced passes."""
        problems = []
        fired = set().union(*(layers["fired"] for layers in traced))
        for name in sorted(spans.MUST_FIRE[self.workload] - fired):
            problems.append(f"span {name} never fired on {self.workload}")
        for name in sorted(spans.MUST_NOT_FIRE[self.workload] & fired):
            problems.append(f"span {name} fired on {self.workload}")
        for name in spans.MUST_COUNT.get(self.workload, ()):
            if not all(layers[name] > 0 for layers in traced):
                problems.append(f"{name} is 0 on {self.workload}")
        for name in spans.COUNTERS:
            values = {layers[name] for layers in traced}
            if len(values) > 1:
                problems.append(f"counter {name} differs between traced passes: {sorted(values)}")
        if problems:
            raise SelfCheckError("; ".join(problems))

    def totals(self, trace: bool) -> tuple[int, int]:
        ps = self.passes if trace else self._untraced()
        return len(self.asks) * len(ps), sum(p["failed"] for p in ps)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def print_run(run: Run) -> None:
    kinds = ", ".join("traced" if p["trace"] else "untraced" for p in run.passes)
    attempted, failed = run.totals(True)
    print(f"# {run.workload} seed={run.seed}: {len(run.asks)} instances x "
          f"{len(run.passes)} passes ({kinds}); {failed} of {attempted} failed; "
          f"time limit {run.limit:g} s, memory cap {workloads.MEM_CAP_MB} MB")
    print("#   pass wall_s, reference s (t: traced, as measured): " + " ".join(
        f"{p['wall_s']:.3f}{'t' if p['trace'] else ''}" for p in run.passes))
    print("#   pass wall_s as measured, less chunk time: " + " ".join(
        f"{p['raw_wall_s']:.3f}" for p in run.passes))
    print("#   host speed (nominal 1): " + " ".join(
        f"{p['speed']:.3f}" for p in run.passes if not p["trace"]))
    print("#   setup_s samples, reference s: " + " ".join(f"{x:.4f}" for x in run.setup_samples))
    print("#   setup_s samples as measured: " + " ".join(f"{x:.4f}" for x in run.setup_raw))
    samples = run.verdict_samples()
    if samples:
        line = f"#   verdict_ms.p50 {statistics.median(samples):.6g} ms"
        if len(samples) >= 100:
            line += f", verdict_ms.p90 {statistics.quantiles(samples, n=10)[-1]:.6g} ms"
        print(f"{line} ({len(samples)} untraced samples, failures charged)")
    for name, why in sorted(run.failures.items()):
        print(f"#   failed: {name}: {why} (charged {run.limit:g} s)")
    for why in run.incorrect:
        print(f"#   INCORRECT: {why}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    run.measure(seconds, trace)
    metrics = run.per_layer() if trace else run.end_to_end()
    print_run(run)
    units = {n: u for n, (u, _) in spans.PER_LAYER.items()} if trace else END_TO_END
    attempted, failed = run.totals(trace)
    return {
        "correct": not run.incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }


def report(seed: int, seconds: float) -> None:
    """Every workload traced twice: all metrics, shares and self-checks."""
    for workload in workloads.WORKLOADS:
        first, second = Run(workload, seed), Run(workload, seed)
        first.measure(seconds, True)
        second.measure(seconds, True)
        e2e, layers, again = first.end_to_end(), first.per_layer(), second.per_layer()
        print(f"\n== {workload} (seed {seed}) ==")
        print_run(first)
        for name, unit in END_TO_END.items():
            print(f"  {name:<44} {_fmt(e2e[name]):>12} {unit}")
        for name, (unit, _) in spans.PER_LAYER.items():
            print(f"  {name:<44} {_fmt(layers[name]):>12} {unit}")
        shares = {layer: layers[f"{layer}.self_share"] for layer in spans.LAYERS}
        print("  layer self time / traced wall_s: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
              + f"; trace.overhead_frac {layers['trace.overhead_frac']:+.1%}")
        diff = [n for n in spans.COUNTERS if layers[n] != again[n]]
        print("  counters repeat across two traced runs: "
              + ("yes" if not diff else "NO: " + ", ".join(diff)))
        traced = next(p for p in first.passes if p["trace"])
        self_ms = traced["layers"]["self_ms"]
        top = max(self_ms, key=self_ms.get)
        print(f"  largest self time: {top} ({self_ms[top] / (traced['wall_s'] * 1000):.1%})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args(argv)
    if not args.report and not args.workload:
        parser.error("give --workload or --report")
    if not (SRC / "dspaths" / "cli.py").is_file():
        print(f"error: no dspaths sources under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind: subprocess.run kills and reaps the running
    # worker, and the run's directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Byte-compile dspaths in place (src/dspaths/__pycache__, which git
    # ignores) before anything is timed: set-up then times an import from
    # bytecode, as a user's second and later runs do, whether or not the
    # environment lets Python write bytecode itself.
    compileall.compile_dir(str(SRC / "dspaths"), quiet=1)
    sys.path.insert(0, str(SRC))
    try:
        if args.report:
            report(args.seed, args.seconds)
            return 0
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except SelfCheckError as exc:
        print(f"error: benchmark self-check failed: {exc}", file=sys.stderr)
        return 3
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
