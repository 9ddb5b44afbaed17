"""One pass of a workload, in a fresh single-threaded process.

Reads a job (JSON) on stdin.  Caps its address space, imports dspaths and
rewrites every graph file of the workload in place (the timed set-up),
then decides each ask with an in-process
``dspaths.cli.run_cli(["solve", ...])`` call under the per-instance time
limit.  Writes one JSON line per instance and a final summary line to
stdout.  Untraced, it samples the host's speed with ``speed.Sampler`` and
reports set-up and instance times less the sampler's own time, with the
chunks taken in each.  With ``trace`` set, the spans of ``spans.Tracer``
are recorded and written out with the summary.

Usage (normally started by run.py): python3 worker.py < job.json
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

import spans
import speed
import workloads


class InstanceTimeLimit(BaseException):
    """Raised in the solver by SIGALRM when an instance runs out of time."""


def _on_alarm(signum, frame):
    raise InstanceTimeLimit


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main() -> None:
    job = json.load(sys.stdin)
    cap = job["mem_cap_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, job["src"])
    workdir = Path(job["workdir"])  # run.py has created every file in it
    out = workdir / "out.json"

    # Untraced passes and set-up are timed against the host-speed
    # reference; traced passes are not, so no chunk runs inside a span.
    sampler = None if job["trace"] else speed.Sampler()
    if sampler:
        sampler.start()
    files = []
    with speed.Window(sampler) as setup:
        import dspaths.cli  # the import is part of set-up

        for i, spec in enumerate(job["graphs"]):
            text, asks = workloads.graph_text(spec, job["seed"])
            path = workdir / f"g{i}.txt"
            path.write_text(text)
            files.append((path, asks, text))
    hashes = [hashlib.sha256(text.encode()).hexdigest() for _, _, text in files]
    _emit({"setup_s": setup.net_s, "chunks": setup.chunks, "chunk_s": setup.chunk_s,
           "hashes": hashes})
    if job["setup_only"]:
        if sampler:
            sampler.stop()
        return

    tracer = spans.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    index = 0
    for gi, (path, asks, _) in enumerate(files):
        mode = job["graphs"][gi]["mode"]
        for k, d in asks:
            argv = ["solve", "-g", str(path), "-k", str(k), "-d", str(d), "--json", str(out)]
            if mode:
                argv += ["--mode", mode]
            res = {"graph": gi, "k": k, "d": d, "rc": None, "error": None, "doc": None}
            out.write_text("")  # no verdict is read from an earlier instance
            remaining = job["deadline"] - time.time()
            if remaining <= 0:
                res.update(error="run deadline passed before the instance started",
                           elapsed_s=0.0, chunks=0, chunk_s=0.0)
                _emit(res)
                index += 1
                continue
            if tracer:
                tracer.instance = index
            timed = speed.Window(sampler)
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, min(job["time_limit"], remaining))
                    with timed:
                        if tracer:
                            res["rc"] = tracer.span(
                                spans.ROOT_SPAN, dspaths.cli.run_cli, (argv,), {})
                        else:
                            res["rc"] = dspaths.cli.run_cli(argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except InstanceTimeLimit:
                res["error"] = "time limit"
            except (MemoryError, RecursionError) as exc:
                res["error"] = type(exc).__name__
            except Exception as exc:
                res["error"] = f"{type(exc).__name__}: {exc}"
            res.update(elapsed_s=timed.net_s, chunks=timed.chunks, chunk_s=timed.chunk_s)
            if res["rc"] in (0, 1, 3):
                res["doc"] = json.loads(out.read_text() or "null")
            _emit(res)
            index += 1

    if sampler:
        sampler.stop()
    summary = {"peak_rss_mb": spans.peak_rss_mb()}
    if tracer:
        summary["spans"] = tracer.spans
    _emit(summary)


if __name__ == "__main__":
    main()
