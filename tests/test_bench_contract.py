"""The names the benchmark looks up in the package still exist and fire.

``perfbench/spans.py`` wraps functions that the pipeline looks up at call
time, and ``colorcode.BypassTables`` with its ``reconstruct``.  A rename
in the package would leave a wrapper that never fires, and its layer
would read 0 ms.  This test traces one ask of each of two workloads'
kinds in a fresh interpreter (installing the tracer patches the package
for the rest of the process) and checks the spans that the benchmark
requires.  It reads ``perfbench/`` and changes nothing there.
"""

import json
import subprocess
import sys
from pathlib import Path

from dspaths.generators import BinPackingInstance, gen_binpack, gen_grid
from dspaths.graph import format_graph

ROOT = Path(__file__).resolve().parent.parent

TRACE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from dspaths.cli import run_cli

tracer = spans.Tracer()
tracer.install()
out = {"rcs": [], "missing": {}, "unexpected": {}}
for i, (workload, argv) in enumerate(json.loads(sys.argv[3])):
    tracer.instance = i
    out["rcs"].append(tracer.span(spans.ROOT_SPAN, run_cli, (argv,), {}))
    fired = {row[0] for row in tracer.spans if row[3] == i}
    must = spans.MUST_FIRE[workload] - {spans.ROOT_SPAN}
    out["missing"][workload] = sorted(must - fired)
    out["unexpected"][workload] = sorted(spans.MUST_NOT_FIRE[workload] & fired)
metrics = spans.layer_metrics(tracer.spans, [], 1.0)
out["counts"] = {name: metrics[name] for name in spans.MUST_COUNT["ball-binpack"]}
print(json.dumps(out))
"""


def test_benchmark_spans_fire(tmp_path):
    binpack = gen_binpack(BinPackingInstance(items=(1, 2, 3), bins=2, capacity=3))
    (tmp_path / "binpack.txt").write_text(format_graph(binpack.graph))
    (tmp_path / "grid.txt").write_text(format_graph(gen_grid(5, 5)))
    asks = [
        ("ball-binpack", "binpack.txt", binpack.ask_k, binpack.ask_d, ["--mode", "fpt"]),
        ("hybrid-default", "grid.txt", 4, 6, []),
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
    assert out["rcs"] == [0, 0]
    assert out["missing"] == {"ball-binpack": [], "hybrid-default": []}
    assert out["unexpected"] == {"ball-binpack": [], "hybrid-default": []}
    # The bin-packing ask builds the identity family, and layer_metrics
    # reads that regime from the span attributes.
    assert out["counts"] and all(v > 0 for v in out["counts"].values()), out["counts"]
