"""The names the benchmark looks up in the package still exist and fire.

``perfbench/spans.py`` wraps functions that the pipeline looks up at call
time, and ``colorcode.BypassTables`` with its ``reconstruct``.  A rename
in the package would leave a wrapper that never fires, and its layer
would read 0 ms.  This test traces asks of every workload's kind in a
fresh interpreter (installing the tracer patches the package for the
rest of the process) and checks the spans and the coloring-regime
counters that the benchmark requires.  It reads ``perfbench/`` and
changes nothing there.
"""

import json
import subprocess
import sys
from pathlib import Path

from dspaths.generators import BinPackingInstance, gen_binpack, gen_grid, gen_layered
from dspaths.graph import format_graph

ROOT = Path(__file__).resolve().parent.parent

TRACE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from dspaths.cli import run_cli

tracer = spans.Tracer()
tracer.install()
jobs = json.loads(sys.argv[3])
out = {"rcs": [], "missing": {}, "unexpected": {}, "counts": {}}
for i, (workload, argv) in enumerate(jobs):
    tracer.instance = i
    out["rcs"].append(tracer.span(spans.ROOT_SPAN, run_cli, (argv,), {}))
for workload in sorted({w for w, _ in jobs}):
    mine = {i for i, (w, _) in enumerate(jobs) if w == workload}
    rows = [row for row in tracer.spans if row[3] in mine]
    fired = {row[0] for row in rows}
    out["missing"][workload] = sorted(spans.MUST_FIRE[workload] - fired)
    out["unexpected"][workload] = sorted(spans.MUST_NOT_FIRE[workload] & fired)
    metrics = spans.layer_metrics(rows, [], 1.0)
    out["counts"][workload] = {
        name: metrics[name] for name in spans.MUST_COUNT.get(workload, ())
    }
print(json.dumps(out))
"""


def test_benchmark_spans_fire(tmp_path):
    binpack = gen_binpack(BinPackingInstance(items=(1, 2, 3), bins=2, capacity=3))
    graphs = {
        "binpack.txt": binpack.graph,
        "grid.txt": gen_grid(5, 5),
        # A greedy-grid-shaped ask: the greedy phase completes, so only
        # parse, SP-DAG, the farthest-path DP and the check run.
        "grid-greedy.txt": gen_grid(8, 8),
        # Small-batch-shaped fpt asks.  The coloring regime depends only
        # on m and q * r, so small-batch's relabelling keeps it: the first
        # builds the seeded family and answers yes, the second builds the
        # exhaustive one and answers no.
        "layered-seeded.txt": gen_layered(4, 4, 0.6, 7),
        "layered-exhaustive.txt": gen_layered(3, 3, 0.6, 22),
    }
    for name, graph in graphs.items():
        (tmp_path / name).write_text(format_graph(graph))
    fpt = ["--mode", "fpt"]
    asks = [
        ("ball-binpack", "binpack.txt", binpack.ask_k, binpack.ask_d, fpt),
        ("greedy-grid", "grid-greedy.txt", 3, 4, fpt),
        ("hybrid-default", "grid.txt", 4, 6, []),
        ("small-batch", "layered-seeded.txt", 3, 4, fpt),
        ("small-batch", "layered-exhaustive.txt", 3, 2, fpt),
    ]
    jobs = [
        (workload, ["solve", "-g", str(tmp_path / name), "-k", str(k), "-d", str(d),
                    "--json", str(tmp_path / f"{name}.json"), *mode])
        for workload, name, k, d, mode in asks
    ]
    proc = subprocess.run(
        [sys.executable, "-c", TRACE, str(ROOT / "perfbench"), str(ROOT / "src"),
         json.dumps(jobs)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rcs"] == [0, 0, 0, 0, 1]
    workloads = ["ball-binpack", "greedy-grid", "hybrid-default", "small-batch"]
    assert out["missing"] == {w: [] for w in workloads}
    assert out["unexpected"] == {w: [] for w in workloads}
    # The bin-packing ask builds the identity family and the layered asks
    # the exhaustive and seeded ones; layer_metrics reads each regime from
    # the span attributes.
    for workload in ("ball-binpack", "small-batch"):
        counts = out["counts"][workload]
        assert counts and all(v > 0 for v in counts.values()), (workload, counts)
