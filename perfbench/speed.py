"""Host-speed reference for the benchmark's time metrics.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within minutes, so a raw time says as much about the host as about the
program.  A ``Sampler`` runs a fixed chunk of the benchmark's own
pure-Python work (``chunk``: three small kernels in turn) from a
``SIGPROF`` handler every ``INTERVAL_S`` of process CPU time, so the
chunks sample the host's speed evenly over the timed work, in the same
process.  A ``Window`` times a stretch of work, less the time spent in
chunks, and counts the chunks taken in it.

``scale(chunks, chunk_s)`` turns the chunks of a stretch into the factor
that converts its time into reference seconds: the time the same work
would take on a host where one chunk takes ``NOMINAL_CHUNK_S``.  The
chunks do not call into dspaths, so a change to the program cannot
change the reference.
"""

from __future__ import annotations

import gc
import signal
import time

# Mean chunk time, over the three kernels in turn, on the 2-vCPU VM where
# the benchmark was defined.
NOMINAL_CHUNK_S = 6.5e-4
# Process CPU time between two chunks; the chunks cost about 7% of the
# work they sample, and that time is taken out of every Window.
INTERVAL_S = 0.01


def _lists() -> int:
    """Allocates small lists and indexes them in a fresh dict, as graph
    parsing and building do."""
    rows = [[i, i + 1] for i in range(1500)]
    index = {}
    for row in rows:
        index[row[0] * 7 % 1009] = row
    return sum(row[1] for row in rows) + len(index)


def _tuples() -> int:
    """Builds demand tuples and memoizes them under mixed-radix keys, as
    the solver's dynamic programs do."""
    memo = {}
    gamma, label = (3, 2, 5), (1, 0, 2)
    for v in range(300):
        prev = tuple(max(0, g - lab) for g, lab in zip(gamma, label))
        key = v
        for c in prev:
            key = key * 7 + c
        memo[key] = memo.get(v, False) or v % 2 == 0
    return len(memo)


def _select() -> int:
    """Tests bit sets for pairwise distance with a generator expression,
    as the color-set selection does."""
    chosen = [3, 5, 9, 17]
    hits = 0
    for c in range(200):
        if all((c ^ p).bit_count() >= 2 for p in chosen):
            hits += 1
    return hits


_KERNELS = (_lists, _tuples, _select)


def chunk(i: int) -> int:
    """Kernel ``i % 3``, run with the garbage collector off: everything a
    kernel allocates is freed when it returns, so it never starts a
    collection over the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _KERNELS[i % len(_KERNELS)]()
    finally:
        if enabled:
            gc.enable()


def scale(chunks: int, chunk_s: float) -> float:
    """Factor from measured seconds to reference seconds."""
    if chunks == 0 or chunk_s <= 0:
        raise ValueError("no reference chunk ran in the timed stretch")
    return NOMINAL_CHUNK_S * chunks / chunk_s


class Sampler:
    """Runs ``chunk`` every ``INTERVAL_S`` of CPU time once started."""

    def __init__(self) -> None:
        self.chunks = 0
        self.chunk_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk(self.chunks)
        self.chunk_s += time.perf_counter() - t0
        self.chunks += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)


class Window:
    """``with Window(sampler) as w:`` sets ``w.net_s`` (time less chunk
    time), ``w.chunks`` and ``w.chunk_s`` for the body.  With no sampler
    the body's time is taken as is and no chunk is counted."""

    def __init__(self, sampler: Sampler | None):
        self.sampler = sampler
        self.net_s = self.chunk_s = 0.0
        self.chunks = 0

    def _counts(self) -> tuple[int, float]:
        s = self.sampler
        return (s.chunks, s.chunk_s) if s else (0, 0.0)

    def __enter__(self) -> "Window":
        self._c0, self._s0 = self._counts()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        raw = time.perf_counter() - self._t0
        c1, s1 = self._counts()
        self.chunks, self.chunk_s = c1 - self._c0, s1 - self._s0
        self.net_s = raw - self.chunk_s
