"""Command-line front end: solve, gen, verify.

Exit codes are the machine contract: 0 ``EXIT_YES`` yes / verified, 1
``EXIT_NO`` no / rejected (every "no" that ``solve`` answers is exact), 2
``EXIT_ERROR`` usage or input errors (any ``ValueError`` a command
raises), 4 ``EXIT_TOO_LARGE`` too large: past the memory available (a
``MemoryError``), 5 ``EXIT_INTERNAL`` internal error (an unexpected
exception; the message names its type).  Code 3 is not used.  JSON goes
to stdout (or --json FILE); diagnostics go to stderr.

``solve --mode`` is ``fpt`` or the default ``hybrid`` (see
``solver.solve``).  ``solve`` writes a certificate JSON object with the
keys ``decision``, ``k``, ``d``, ``paths`` (one array of input arc ids
per path), ``mode``, ``graph_hash`` and ``stats`` (``greedy_paths``,
``compositions_tried``, which counts the ball searches run, and
``elapsed_ms``).  ``verify`` reads only ``k``, ``d``, ``paths`` and
``graph_hash``, and ignores any other key.  ``gen binpack`` gives each
of its ``--bins`` bins the capacity item sum / bins, the only one the
reduction accepts.  ``gen -o X`` writes its sidecar JSON to X with the
suffix ``.json``, so X must not end in ``.json``.

``run_cli`` owns the process, so it alone touches the garbage
collector.  Each command runs with the cyclic collector paused: parse,
solve and verify make no reference cycles (tests/test_solver.py guards
this), so reference counting frees all they allocate, and a collection
would only walk their containers.  The few cycles the stdlib's JSON
encoder leaves are freed by the first collection after the command.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from pathlib import Path as FsPath

from . import generators
from .graph import format_graph, graph_hash, parse_graph
from .solver import (
    MODES,
    certificate_from_json_dict,
    result_to_json_dict,
    solve,
    verify_certificate,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_TOO_LARGE = 4
EXIT_INTERNAL = 5


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dspaths",
        description=(
            "Decide and certify whether a graph has k shortest s-t paths "
            "with pairwise arc-set Hamming distance at least d."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver")
    p_solve.add_argument("-g", "--graph", required=True, help="graph file")
    p_solve.add_argument("-k", type=int, required=True, help="number of paths")
    p_solve.add_argument("-d", type=int, required=True, help="pairwise distance bound")
    p_solve.add_argument("--mode", choices=MODES, default="hybrid")
    p_solve.add_argument("--json", metavar="OUT", help="write the certificate here")

    p_gen = sub.add_parser("gen", help="generate an instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)

    p_grid = gen_sub.add_parser("grid", help="lattice of east/south unit arcs")
    p_grid.add_argument("--width", type=int, required=True)
    p_grid.add_argument("--height", type=int, required=True)
    p_grid.add_argument("-o", "--output", required=True)

    p_layered = gen_sub.add_parser("layered", help="random layered DAG")
    p_layered.add_argument("--layers", type=int, required=True)
    p_layered.add_argument("--width", type=int, required=True)
    p_layered.add_argument("--arc-prob", type=float, default=0.5)
    p_layered.add_argument("--seed", type=int, default=0)
    p_layered.add_argument("-o", "--output", required=True)

    p_binpack = gen_sub.add_parser("binpack", help="bin-packing reduction")
    p_binpack.add_argument(
        "--items", required=True, help="comma-separated positive integers"
    )
    p_binpack.add_argument(
        "--bins", type=int, required=True, help="bins, each of capacity item sum / bins"
    )
    p_binpack.add_argument("-o", "--output", required=True)

    p_verify = sub.add_parser("verify", help="check a certificate")
    p_verify.add_argument("-g", "--graph", required=True)
    p_verify.add_argument("-c", "--certificate", required=True)
    p_verify.add_argument("-k", type=int, required=True)
    p_verify.add_argument("-d", type=int, required=True)

    return parser


def _read_graph(path: str):
    try:
        text = FsPath(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    return parse_graph(text)


def _emit_json(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        try:
            FsPath(out_path).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    result = solve(_read_graph(args.graph), args.k, args.d, args.mode)
    _emit_json(result_to_json_dict(result, args.k, args.d), args.json)
    return EXIT_YES if result.decision == "yes" else EXIT_NO


def _cmd_gen(args: argparse.Namespace) -> int:
    out = FsPath(args.output)
    sidecar_path = out.with_suffix(".json")
    if sidecar_path == out:
        raise ValueError(f"-o {out} is also its sidecar's path (suffix .json)")
    if args.family == "binpack":
        try:
            items = tuple(int(x) for x in args.items.split(","))
        except ValueError:
            raise ValueError("--items must be comma-separated integers")
        total, bins = sum(items), args.bins
        if bins >= 2 and total % bins:
            raise ValueError("item sum is not divisible by --bins")
        capacity = total // max(bins, 1)  # validate rejects bins < 2
        inst = generators.gen_binpack(
            generators.BinPackingInstance(items=items, bins=bins, capacity=capacity)
        )
    else:
        if args.family == "grid":
            graph = generators.gen_grid(args.width, args.height)
            ell = args.width + args.height
        else:
            graph = generators.gen_layered(args.layers, args.width, args.arc_prob, args.seed)
            ell = args.layers + 1
        inst = generators.GeneratedInstance(
            graph=graph, ask_k=1, ask_d=0, meta={"ell": ell}, decomposition=None
        )
    graph, sidecar = inst.graph, generators.sidecar_dict(inst)

    try:
        out.write_text(format_graph(graph))
        sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}")
    print(
        f"wrote {out} ({graph.n} vertices, {graph.m} arcs) and {sidecar_path}",
        file=sys.stderr,
    )
    return EXIT_YES


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    try:
        data = json.loads(FsPath(args.certificate).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {args.certificate}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}")
    except RecursionError:
        raise ValueError("malformed JSON: nested too deeply") from None
    cert = certificate_from_json_dict(data)
    # The hash names the graph the certificate was solved on; solve writes
    # it and only verify reads it.  An empty hash is not checked.
    if cert.graph_hash and cert.graph_hash != graph_hash(g):
        ok, report = False, "graph_hash differs from the hash of the graph"
    else:
        ok, report = verify_certificate(g, cert, args.k, args.d)
    if ok:
        print("certificate verified", file=sys.stderr)
        return EXIT_YES
    print(f"certificate rejected: {report}", file=sys.stderr)
    return EXIT_NO


def run_cli(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  The cyclic garbage
    collector is paused while the command runs and left as it was found
    on every exit, a ``BaseException`` included."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_verify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: instance too large: out of memory", file=sys.stderr)
        return EXIT_TOO_LARGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
