import gc
import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dspaths.cli
import dspaths.oracle
import dspaths.solver
from conftest import DIAMOND_TEXT, parallel_routes, unit_chain
from dspaths.cli import (
    EXIT_ERROR,
    EXIT_INTERNAL,
    EXIT_NO,
    EXIT_TOO_LARGE,
    EXIT_YES,
    run_cli,
)
from dspaths.generators import BinPackingInstance, gen_binpack, gen_grid
from dspaths.graph import format_graph, graph_hash, parse_graph


SRC = Path(__file__).resolve().parent.parent / "src"
# run_cli in a fresh interpreter: python -c RUN_CLI SRC ARGV...
RUN_CLI = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from dspaths.cli import run_cli; sys.exit(run_cli(sys.argv[2:]))"
)
# run_cli on each argv of a JSON list in one fresh interpreter, which
# then prints the exit codes and its peak resident set in kB (VmHWM):
# python -c RUN_CLI_PEAK SRC ARGVS
RUN_CLI_PEAK = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "from dspaths.cli import run_cli; "
    "codes = [run_cli(argv) for argv in json.loads(sys.argv[2])]; "
    "status = open('/proc/self/status').read(); "
    "print(json.dumps([codes, int(status.split('VmHWM:')[1].split()[0])]))"
)


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_TEXT)
    return str(path)


def test_solve_yes(diamond_file):
    assert run_cli(["solve", "-g", diamond_file, "-k", "2", "-d", "4"]) == EXIT_YES


def test_solve_no(diamond_file):
    assert run_cli(["solve", "-g", diamond_file, "-k", "2", "-d", "5"]) == EXIT_NO


def test_malformed_graph(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p dsp 2 3\ns 1\nt 2\na 1 2 1\n")
    assert run_cli(["solve", "-g", str(path), "-k", "1", "-d", "0"]) == EXIT_ERROR


def test_negative_k(diamond_file):
    assert run_cli(["solve", "-g", diamond_file, "-k", "-1", "-d", "0"]) == EXIT_ERROR


def test_negative_d_message(diamond_file, capsys):
    # The range check is solve's; the CLI maps its ValueError to exit 2.
    assert run_cli(["solve", "-g", diamond_file, "-k", "2", "-d", "-1"]) == EXIT_ERROR
    assert "error: k and d must be nonnegative" in capsys.readouterr().err


def test_oracle_mode_is_a_usage_error(diamond_file, tmp_path, capsys):
    # The modes are fpt and hybrid; hybrid runs the oracle where the
    # shortest paths are few, so no mode runs it alone.
    cert = tmp_path / "cert.json"
    argv = ["solve", "-g", diamond_file, "-k", "2", "-d", "4", "--mode", "oracle",
            "--json", str(cert)]
    assert run_cli(argv) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'oracle'" in err
    assert not cert.exists()


def test_solve_help_lists_only_the_ask(capsys):
    assert run_cli(["solve", "--help"]) == EXIT_YES
    options = re.findall(r"^  (-{1,2}[\w-]+)", capsys.readouterr().out, re.M)
    assert options == ["-h", "-g", "-k", "-d", "--mode", "--json"]


def test_fpt_huge_k_answers_at_once(tmp_path):
    # The greedy thresholds THRESHOLD_BASE ** (k - i) * d are capped at
    # m + 1 = 13, so k = 10**8 costs nothing; uncapped, the powers alone
    # ran past a minute.
    graph = tmp_path / "grid.txt"
    graph.write_text(format_graph(gen_grid(2, 2)))
    argv = ["solve", "--mode", "fpt", "-g", str(graph), "-k", str(10**8), "-d", "1"]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, str(SRC), *argv],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == EXIT_NO, proc.stderr
    assert json.loads(proc.stdout)["decision"] == "no"


@pytest.mark.parametrize("mode", ("fpt", "hybrid"))
def test_k_past_the_recursion_limit(tmp_path, mode):
    # Eight diamonds in series have 256 shortest paths, pairwise distinct,
    # so k = 256, d = 1 is a yes-instance whose selection picks 256 sets.
    # The fresh interpreter's recursion limit is 150, so a search that
    # recursed once per pick would exit 5 with a RecursionError.
    graph = tmp_path / "diamonds.txt"
    graph.write_text(format_graph(parallel_routes(1, 17, 8)))
    argv = ["solve", "--mode", mode, "-g", str(graph), "-k", "256", "-d", "1"]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.setrecursionlimit(150); " + RUN_CLI,
         str(SRC), *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_YES, proc.stderr
    assert len(json.loads(proc.stdout)["paths"]) == 256


@pytest.mark.parametrize("arcs", (16, 17, 40))
def test_radius_zero_no_is_exact(tmp_path, arcs):
    # A chain has one shortest path, so greedy stops at it and the ball
    # radius at k=2, d=1 is 0: the ball holds only the center, whatever m.
    graph = tmp_path / "chain.txt"
    graph.write_text(format_graph(unit_chain(arcs)))
    argv = ["solve", "-g", str(graph), "-k", "2", "-d", "1", "--mode", "fpt"]
    assert run_cli(argv) == EXIT_NO


def mode_flag(mode, monkeypatch):
    """The --mode that runs engine ``mode``, and a list of the asks that
    the oracle engine gets.

    "oracle" is hybrid on a graph with few shortest paths, with a spy on
    ``brute_solve`` so that a test can check that the oracle answered.
    """
    if mode != "oracle":
        return mode, None
    asks = []
    brute_solve = dspaths.oracle.brute_solve

    def spy(dag, k, d):
        asks.append((k, d))
        return brute_solve(dag, k, d)

    monkeypatch.setattr(dspaths.oracle, "brute_solve", spy)
    return "hybrid", asks


@pytest.mark.parametrize("mode", ("fpt", "oracle", "hybrid"))
def test_solve_json_verifies(diamond_file, tmp_path, monkeypatch, mode):
    cert = str(tmp_path / "cert.json")
    flag, asks = mode_flag(mode, monkeypatch)
    argv = ["solve", "-g", diamond_file, "-k", "2", "-d", "4", "--mode", flag, "--json", cert]
    assert run_cli(argv) == EXIT_YES
    if mode == "oracle":
        assert asks == [(2, 4)]
    argv = ["verify", "-g", diamond_file, "-c", cert, "-k", "2", "-d", "4"]
    assert run_cli(argv) == EXIT_YES


@pytest.mark.parametrize("paths, code", (("solved", EXIT_YES), ("wrong", EXIT_NO)))
def test_verify_ignores_a_stale_pairwise_key(diamond_file, tmp_path, capsys, paths, code):
    # Older certificates carry a "pairwise" matrix; verify reads the paths
    # only, so a wrong matrix passes and a wrong path is still rejected.
    cert = tmp_path / "cert.json"
    argv = ["solve", "-g", diamond_file, "-k", "2", "-d", "4", "--json", str(cert)]
    assert run_cli(argv) == EXIT_YES
    doc = json.loads(cert.read_text())
    assert "pairwise" not in doc
    doc["pairwise"] = [[0, 99], [7, 0]]
    if paths == "wrong":
        doc["paths"][1] = [0, 3]
    cert.write_text(json.dumps(doc))
    argv = ["verify", "-g", diamond_file, "-c", str(cert), "-k", "2", "-d", "4"]
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    assert ("path 2 not a shortest path" in err) == (code == EXIT_NO)


def test_verify_rejects_booleans_as_integers(tmp_path, capsys):
    # JSON true and false parse to Python bools, which are ints; as k and
    # as arc id 0 they made this document verify.
    graph, cert = tmp_path / "grid.txt", tmp_path / "cert.json"
    graph.write_text(format_graph(gen_grid(1, 1)))
    cert.write_text('{"k": true, "d": 0, "paths": [[false, 2]]}')
    argv = ["verify", "-g", str(graph), "-c", str(cert), "-k", "1", "-d", "0"]
    assert run_cli(argv) == EXIT_ERROR
    assert "error: paths must be arrays of arc ids" in capsys.readouterr().err


@pytest.mark.parametrize("mode", (["--mode", "fpt"], []), ids=("fpt", "default"))
def test_large_k_at_d0(tmp_path, mode):
    # k copies of one path.  The certificate is its k paths, so the file,
    # the solve and the verify grow linearly in k; a k x k structure
    # would hold 10**10 entries here.  Linux carries ru_maxrss over from
    # the parent through exec, so the child reads its own VmHWM.
    k = 10**5
    graph, cert = tmp_path / "grid.txt", tmp_path / "cert.json"
    graph.write_text(format_graph(gen_grid(2, 2)))
    solve_argv = ["solve", *mode, "-g", str(graph), "-k", str(k), "-d", "0",
                  "--json", str(cert)]
    verify_argv = ["verify", "-g", str(graph), "-c", str(cert), "-k", str(k), "-d", "0"]
    child = subprocess.run(
        [sys.executable, "-c", RUN_CLI_PEAK, str(SRC),
         json.dumps([solve_argv, verify_argv])],
        capture_output=True, text=True, timeout=120, check=True,
    )
    codes, peak_kb = json.loads(child.stdout.splitlines()[-1])
    assert codes == [EXIT_YES, EXIT_YES]
    assert cert.stat().st_size < 10 * 2**20
    assert peak_kb * 2**10 < 200 * 2**20


@pytest.mark.parametrize(
    "stated, code",
    (("tampered", EXIT_NO), ("matching", EXIT_YES), ("empty", EXIT_YES)),
)
def test_verify_checks_graph_hash(diamond_file, tmp_path, capsys, stated, code):
    cert = tmp_path / "cert.json"
    argv = ["solve", "-g", diamond_file, "-k", "2", "-d", "4", "--json", str(cert)]
    assert run_cli(argv) == EXIT_YES
    doc = json.loads(cert.read_text())
    assert doc["graph_hash"] == graph_hash(parse_graph(DIAMOND_TEXT))
    if stated == "tampered":
        doc["graph_hash"] = doc["graph_hash"][::-1]
    elif stated == "empty":
        doc["graph_hash"] = ""
    cert.write_text(json.dumps(doc))
    argv = ["verify", "-g", diamond_file, "-c", str(cert), "-k", "2", "-d", "4"]
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    assert ("graph_hash differs from the hash of the graph" in err) == (code == EXIT_NO)


def test_verify_rejects_misstated_ask(diamond_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    argv = ["solve", "-g", diamond_file, "-k", "2", "-d", "4", "--json", str(cert)]
    assert run_cli(argv) == EXIT_YES
    doc = json.loads(cert.read_text())
    doc.update(k=7, d=99)
    cert.write_text(json.dumps(doc))
    argv = ["verify", "-g", diamond_file, "-c", str(cert), "-k", "2", "-d", "4"]
    assert run_cli(argv) == EXIT_NO
    assert "certificate states k=7, d=99; asked k=2, d=4" in capsys.readouterr().err


@pytest.mark.parametrize("k, d", (("-1", "4"), ("2", "-3")))
def test_verify_rejects_a_negative_ask(diamond_file, tmp_path, capsys, k, d):
    # A negative ask is a usage error, as it is for solve, not a rejection.
    cert = tmp_path / "cert.json"
    argv = ["solve", "-g", diamond_file, "-k", "2", "-d", "4", "--json", str(cert)]
    assert run_cli(argv) == EXIT_YES
    argv = ["verify", "-g", diamond_file, "-c", str(cert), "-k", k, "-d", d]
    assert run_cli(argv) == EXIT_ERROR
    assert "error: k and d must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("where", ("top", "paths"))
def test_verify_deeply_nested_json_is_malformed(diamond_file, tmp_path, capsys, where):
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting.
    nested = "[" * 200_000 + "]" * 200_000
    if where == "paths":
        nested = '{"k": 2, "d": 4, "paths": ' + nested + "}"
    cert = tmp_path / "cert.json"
    cert.write_text(nested)
    argv = ["verify", "-g", diamond_file, "-c", str(cert), "-k", "2", "-d", "4"]
    assert run_cli(argv) == EXIT_ERROR
    assert "error: malformed JSON: nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("exc", (RuntimeError("boom"), RecursionError("too deep")))
def test_internal_error(diamond_file, monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(dspaths.cli, "solve", fail)
    assert run_cli(["solve", "-g", diamond_file, "-k", "2", "-d", "4"]) == EXIT_INTERNAL
    assert f"internal error: {type(exc).__name__}: {exc}" in capsys.readouterr().err


@pytest.fixture
def gc_restored():
    """Leaves the cyclic garbage collector as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_solve_runs_with_the_collector_paused(diamond_file, monkeypatch, gc_restored):
    seen = []

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return dspaths.solver.solve(*args, **kwargs)

    monkeypatch.setattr(dspaths.cli, "solve", spy)
    gc.enable()
    assert run_cli(["solve", "-g", diamond_file, "-k", "2", "-d", "4"]) == EXIT_YES
    assert seen == [False]


class Interrupted(BaseException):
    """Stands for what a signal handler raises, such as a time limit."""


# name -> (solve arguments after -g FILE, what cli.solve raises instead
# of solving, exit code); a code of None means the exception propagates.
EXIT_PATHS = {
    "yes": (["-k", "2", "-d", "4"], None, EXIT_YES),
    "no": (["-k", "2", "-d", "5"], None, EXIT_NO),
    "usage-error": (["-k", "two", "-d", "4"], None, EXIT_ERROR),
    "input-error": (["-k", "-1", "-d", "4"], None, EXIT_ERROR),
    "too-large": (["-k", "2", "-d", "4"], MemoryError(), EXIT_TOO_LARGE),
    "internal-error": (["-k", "2", "-d", "4"], RuntimeError("boom"), EXIT_INTERNAL),
    "base-exception": (["-k", "2", "-d", "4"], Interrupted(), None),
}


@pytest.mark.parametrize("enabled", (True, False), ids=("gc-on", "gc-off"))
@pytest.mark.parametrize("path", list(EXIT_PATHS))
def test_collector_state_restored(diamond_file, monkeypatch, gc_restored, path, enabled):
    ask, exc, code = EXIT_PATHS[path]
    if exc is not None:
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(dspaths.cli, "solve", fail)
    (gc.enable if enabled else gc.disable)()
    argv = ["solve", "-g", diamond_file, *ask]
    if code is None:
        with pytest.raises(type(exc)):
            run_cli(argv)
    else:
        assert run_cli(argv) == code
    assert gc.isenabled() == enabled


def test_probabilistic_no(tmp_path):
    # Every ball search of this ask colors 22 arcs with a seeded family,
    # none of whose members finds a selection.  The identity coloring
    # after them makes the "no" exact, so it exits 1, not with a hedge.
    graph, out = tmp_path / "routes.txt", tmp_path / "out.json"
    graph.write_text(format_graph(parallel_routes(2, 9, 1)))
    argv = ["solve", "-g", str(graph), "-k", "3", "-d", "5", "--mode", "fpt",
            "--json", str(out)]
    assert run_cli(argv) == EXIT_NO
    assert json.loads(out.read_text())["decision"] == "no"


def capped_run_cli(mb, argv):
    """run_cli(argv) in a fresh interpreter whose address space is capped
    at mb MB (``RLIMIT_AS``, set in that process only)."""
    cap = (
        "import resource; "
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({mb} * 2**20, hard)); "
    )
    return subprocess.run(
        [sys.executable, "-c", cap + RUN_CLI, str(SRC), *argv],
        capture_output=True, text=True, timeout=60,
    )


def test_out_of_memory_is_too_large(tmp_path):
    # The header names 4 * 10**8 vertices, and the graph layer allocates
    # a slot per vertex.  Under a 256 MB address-space cap that raises
    # MemoryError, which is a too-large input, not an internal error.
    graph = tmp_path / "huge.txt"
    graph.write_text("p dsp 400000000 1\ns 1\nt 2\na 1 2 1\n")
    proc = capped_run_cli(256, ["solve", "-g", str(graph), "-k", "1", "-d", "0"])
    assert proc.returncode == EXIT_TOO_LARGE, proc.stderr
    assert "error: instance too large: out of memory" in proc.stderr


def test_huge_k_at_d_zero_is_too_large_at_once(tmp_path):
    # At d = 0 one path answers any k, but a yes lists all k of them:
    # k = 10**9 cannot be held under a 1 GB address-space cap, and the
    # solve finds that out without a farthest-path call per path.
    graph = tmp_path / "one.txt"
    graph.write_text("p dsp 2 1\ns 1\nt 2\na 1 2 1\n")
    argv = ["solve", "-g", str(graph), "-k", str(10**9), "-d", "0", "--mode", "fpt"]
    start = time.monotonic()
    proc = capped_run_cli(1024, argv)
    assert proc.returncode == EXIT_TOO_LARGE, proc.stderr
    assert "error: instance too large: out of memory" in proc.stderr
    assert time.monotonic() - start < 5


@pytest.mark.parametrize(
    "args",
    (
        ["grid", "--width", "3", "--height", "2"],
        ["layered", "--layers", "3", "--width", "2", "--seed", "5"],
        ["binpack", "--items", "1,2,3", "--bins", "2"],
    ),
)
def test_gen_round_trip(tmp_path, args):
    graph = tmp_path / "g.txt"
    assert run_cli(["gen", *args, "-o", str(graph)]) == EXIT_YES
    parse_graph(graph.read_text())
    sidecar = json.loads(graph.with_suffix(".json").read_text())
    k, d = sidecar["ask_k"], sidecar["ask_d"]
    assert isinstance(k, int) and isinstance(d, int)
    if args[0] == "binpack":
        argv = ["solve", "-g", str(graph), "-k", str(k), "-d", str(d)]
        assert run_cli(argv) == EXIT_YES


@pytest.mark.parametrize(
    "args,ell",
    (
        (["grid", "--width", "3", "--height", "2"], 5),
        (["layered", "--layers", "3", "--width", "2", "--seed", "5"], 4),
    ),
)
def test_gen_sidecar_bytes(tmp_path, args, ell):
    # A grid or layered graph is asked at k = 1, d = 0 and has no
    # decomposition; only ell differs between the two.
    graph = tmp_path / "g.txt"
    assert run_cli(["gen", *args, "-o", str(graph)]) == EXIT_YES
    assert graph.with_suffix(".json").read_text() == (
        "{\n"
        '  "ask_k": 1,\n'
        '  "ask_d": 0,\n'
        f'  "ell": {ell},\n'
        '  "doubled": false,\n'
        '  "decomposition": null\n'
        "}\n"
    )


@pytest.mark.parametrize("name", ("g.json", "g.txt.json"))
def test_gen_output_is_not_its_own_sidecar(tmp_path, capsys, name):
    # The sidecar goes to -o with the suffix .json; on an -o that ends in
    # .json it would replace the graph.
    graph = tmp_path / name
    argv = ["gen", "grid", "--width", "2", "--height", "2", "-o", str(graph)]
    assert run_cli(argv) == EXIT_ERROR
    assert f"error: -o {graph} is also its sidecar's path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# sha256 of the graph file and of its sidecar.  Each bin has capacity
# item sum / bins, the only capacity the reduction accepts.
BINPACK_DIGESTS = {
    ("1,2,3", "2"): (
        "42e706c8618947c2bcfb031f7da42886abef07c0ab9529940e0aa2bf9ebfa231",
        "ce9bf376f0e2453263de5eb414d973d21b5cc7c3a1d949c75f335a8355863d80",
    ),
    ("1,1,2,2", "3"): (
        "13064ffe25b943d5942aacb9e77f09f8a65ad7091b3681d9dbf55f713ab4d1a6",
        "b0e39c63c6a9d2d1c8e03057b9ee0acf29991a524a83d6ef6812a74a6f909564",
    ),
}


@pytest.mark.parametrize("items,bins", sorted(BINPACK_DIGESTS))
def test_gen_binpack_bytes(tmp_path, items, bins):
    graph = tmp_path / "g.txt"
    argv = ["gen", "binpack", "--items", items, "--bins", bins, "-o", str(graph)]
    assert run_cli(argv) == EXIT_YES
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (graph, graph.with_suffix(".json"))
    )
    assert digests == BINPACK_DIGESTS[items, bins]


@pytest.mark.parametrize(
    "args,message",
    (
        (["--bins", "0"], "error: bins must be at least 2"),
        (["--bins", "-2"], "error: bins must be at least 2"),
        (["--bins", "1"], "error: bins must be at least 2"),
        (["--bins", "4"], "error: item sum is not divisible by --bins"),
        (["--bins", "2", "--capacity", "3"], "unrecognized arguments: --capacity 3"),
    ),
)
def test_gen_binpack_usage_errors(tmp_path, capsys, args, message):
    argv = ["gen", "binpack", "--items", "1,2,3", *args, "-o", str(tmp_path / "g.txt")]
    assert run_cli(argv) == EXIT_ERROR
    assert message in capsys.readouterr().err
    assert not (tmp_path / "g.txt").exists()


def test_six_item_binpack_row_in_reach(tmp_path):
    # (1,1,1,1,1,1) in 2 bins at its own ask, k = 4 and d = 42: the ball
    # search selects from 16,384 realizable sets, largest first.  It takes
    # about 1.5 s; smallest first it ran past a minute.
    inst = gen_binpack(BinPackingInstance(items=(1,) * 6, bins=2, capacity=3))
    graph, cert = tmp_path / "g.txt", tmp_path / "cert.json"
    graph.write_text(format_graph(inst.graph))
    k, d = str(inst.ask_k), str(inst.ask_d)
    argv = ["solve", "--mode", "fpt", "-g", str(graph), "-k", k, "-d", d, "--json", str(cert)]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, str(SRC), *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_YES, proc.stderr
    assert run_cli(["verify", "-g", str(graph), "-c", str(cert), "-k", k, "-d", d]) == EXIT_YES


@pytest.mark.parametrize("target", ("missing/cert.json", "."))
def test_json_write_failure_is_an_input_error(diamond_file, tmp_path, capsys, target):
    # A --json path in a missing directory, or naming a directory, is the
    # user's error (exit 2), as an unwritable gen output is.
    out = str(tmp_path / target)
    argv = ["solve", "-g", diamond_file, "-k", "2", "-d", "4", "--json", out]
    assert run_cli(argv) == EXIT_ERROR
    assert f"error: cannot write {out}" in capsys.readouterr().err


# The long arc 0 and the dead-end arc 3 are not on the shortest path, so the
# SP-DAG numbers input arcs 1 and 2 as 0 and 1.
PRUNED_FIRST_TEXT = """\
p dsp 4 4
s 1
t 3
a 1 3 3
a 1 2 1
a 2 3 1
a 2 4 1
"""


@pytest.mark.parametrize("mode", ("fpt", "oracle", "hybrid"))
def test_certificate_in_input_arc_ids(tmp_path, monkeypatch, mode):
    graph, cert = tmp_path / "g.txt", tmp_path / "cert.json"
    graph.write_text(PRUNED_FIRST_TEXT)
    flag, asks = mode_flag(mode, monkeypatch)
    argv = ["solve", "-g", str(graph), "-k", "2", "-d", "0", "--mode", flag,
            "--json", str(cert)]
    assert run_cli(argv) == EXIT_YES
    if mode == "oracle":
        assert asks == [(2, 0)]
    assert json.loads(cert.read_text())["paths"] == [[1, 2], [1, 2]]
    argv = ["verify", "-g", str(graph), "-c", str(cert), "-k", "2", "-d", "0"]
    assert run_cli(argv) == EXIT_YES
