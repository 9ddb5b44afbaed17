"""Arc-coloring families, the colorful-bypass table and the ball search.

A bypass is the symmetric difference of the center path with some other
s-t path.  Charge each arc (u, v) of the other path that is not a center
arc with itself and the center arcs whose heads lie in topological
positions u+1..v: the charges of one path are disjoint and together make
up its bypass, as the arc labels of ``farthest`` telescope.  Coloring the
arcs lets one forward sweep summarize every nearby path by the color set
of its bypass (a colorful-path DP in the style of Alon, Yuster and Zwick,
1995), and r pairwise-distant color sets pull back to r pairwise-distant
paths.

Color sets over [num_colors] are represented as int bitmasks (color c is
bit c - 1).
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .graph import Arc, Path, SpDag

EXHAUSTIVE = "exhaustive-verified"
SEEDED = "seeded-monte-carlo"

# An exhaustive family tracks every s-subset of [m] until a member covers
# it.  The slowest build at m = 16 is (16, 9): about 2 s and 704 members,
# for C(16, 9) = 11,440 subsets; m = 17 would mean up to C(17, 8) = 24,310.
_EXHAUSTIVE_MAX_UNIVERSE = 16
_SEEDED_MEMBERS = 64
# The selection kernel stores at most this many exhausted candidate sets
# per mask, and empties the store when it is full.  A set is an int of at
# most n bits, so the store holds at most 4 n^2 bits.  On the oracle's
# 3,868 masks of gen_layered(10, 4, 0.6, 3) at k=4, d=22 (a no), an
# unbounded store held 61,736 sets at 57 MB peak RSS.  At 4 per mask the
# search took 3.6-4.3 s at 31 MB, at 2 per mask 4.1-4.7 s at 26 MB, and
# 8.2 s when a full store stopped recording instead of emptying.  binpack
# (2,2,2)/2 stores 436-537 sets over 256 masks, which a bound of 2 would
# not hold.
_FAILED_SETS_PER_MASK = 4


@dataclass(frozen=True)
class HashFamily:
    """Colorings of universe positions 0..m-1 with colors 1..num_colors.

    In exhaustive-verified mode every subset of ``num_colors`` positions is
    rainbow under some member: each member is built to cover a subset that
    no earlier member covers, until none is left.  In seeded mode the
    members are pseudo-random and perfection is only probabilistic.
    """

    m: int
    num_colors: int
    mode: str
    members: tuple[tuple[int, ...], ...]


def _rainbow(member: tuple[int, ...], subset: tuple[int, ...]) -> bool:
    seen = 0
    for pos in subset:
        bit = 1 << (member[pos] - 1)
        if seen & bit:
            return False
        seen |= bit
    return True


def _coloring(i: int, m: int, s: int) -> list[int]:
    """Candidate i: m colors in 1..s drawn from ``random.Random(i)``."""
    rng = random.Random(i)
    return [rng.randint(1, s) for _ in range(m)]


@lru_cache(maxsize=None)
def build_hash_family(m: int, s: int) -> HashFamily:
    """Construct a family of colorings of [m] with s colors.

    The family depends only on (m, s), and so does its regime.  At s == m
    the identity coloring is the one member.  Up to
    ``_EXHAUSTIVE_MAX_UNIVERSE`` positions, member i is candidate i
    recolored so that the first s-subset no earlier member makes rainbow
    takes the colors 1..s.  Each member thus covers at least the subset it
    targets, so the loop ends after at most C(m, s) members with a family
    that is perfect by construction.  Otherwise the family is the first
    ``_SEEDED_MEMBERS`` candidates, and perfection is only probabilistic.
    """
    if not 1 <= s <= m:
        raise ValueError("need 1 <= s <= m")
    if s == m:
        member = tuple(range(1, m + 1))
        return HashFamily(m=m, num_colors=s, mode=EXHAUSTIVE, members=(member,))
    if m > _EXHAUSTIVE_MAX_UNIVERSE:
        members = tuple(tuple(_coloring(i, m, s)) for i in range(_SEEDED_MEMBERS))
        return HashFamily(m=m, num_colors=s, mode=SEEDED, members=members)

    uncovered = set(itertools.combinations(range(m), s))
    selected: list[tuple[int, ...]] = []
    while uncovered:
        coloring = _coloring(len(selected), m, s)
        for color, pos in enumerate(min(uncovered), 1):
            coloring[pos] = color
        selected.append(tuple(coloring))
        uncovered = {sub for sub in uncovered if not _rainbow(selected[-1], sub)}
    return HashFamily(m=m, num_colors=s, mode=EXHAUSTIVE, members=tuple(selected))


class BypassTables:
    """Colorful-bypass tables for one (dag, center path, coloring).

    The coloring is a family member: ``coloring[i]`` is the color of arc
    i, ``dag.base.arcs[i]``.  A center arc has charge 0 and every other
    arc the charge of the module docstring, so the color set of an s-v
    path is the union of its arcs' charges, and the path is colorful when
    they are disjoint.  One forward sweep over the SP-DAG in topological
    order fills ``tables[v] = (bits, masks, arc)``: the color sets of the
    colorful s-v paths with at most ``max_size`` colors are ``bits | m``
    for each m in masks that misses bits and stays within max_size.  A
    vertex before t with one in-arc ORs that arc's charge into its tail's
    bits and shares the tail's masks, so a chain costs one step per arc
    whatever the number of sets through it, as in
    ``oracle.enumerate_st_paths``; its arc is that in-arc.  Every other
    vertex has bits 0, arc None and a dict from each of its sets to the
    smallest-id in-arc that builds it.  ``reconstruct`` walks from t back
    to s, taking the vertex's arc or else the arc stored for the current
    set, so a set's path is its realization whose arc ids, read from t
    back to s, are lexicographically smallest.
    """

    def __init__(
        self,
        dag: SpDag,
        center: Path,
        coloring: Sequence[int],
        max_size: int,
    ):
        self.dag = dag
        cverts = dag.path_vertices(center)
        if cverts[-1] != dag.n:
            raise ValueError("center must be an s-t path")

        # xor[v] and count[v]: the colors and the number of center arcs
        # with head <= v, so the center arcs with heads in u+1..v form a
        # rainbow window exactly when xor[v] ^ xor[u] has count[v] -
        # count[u] bits.
        head_bit = [0] * (dag.n + 1)
        for aid, head in zip(center.arcs, cverts[1:]):
            head_bit[head] = 1 << (coloring[aid] - 1)
        xor = list(itertools.accumulate(head_bit, operator.xor))
        count = list(itertools.accumulate(int(b != 0) for b in head_bit))
        charges = dict.fromkeys(center.arcs, 0)
        for a in dag.base.arcs:
            if a.id in charges:
                continue
            window = xor[a.head] ^ xor[a.tail]
            own = 1 << (coloring[a.id] - 1)
            if window.bit_count() == count[a.head] - count[a.tail] and not window & own:
                charge = window | own
                if charge.bit_count() <= max_size:
                    charges[a.id] = charge

        # A vertex that no colorful path within max_size reaches keeps
        # an empty table.
        tables: list[tuple[int, dict[int, Arc | None], Arc | None]]
        tables = [(0, {}, None)] * (dag.n + 1)
        tables[1] = (0, {0: None}, None)
        for v in range(2, dag.n + 1):
            arcs = dag.incoming[v]
            if len(arcs) == 1 and v < dag.n:
                arc = arcs[0]
                charge = charges.get(arc.id)
                bits, masks, _ = tables[arc.tail]
                if charge is not None and not bits & charge:
                    tables[v] = (bits | charge, masks, arc)
                continue
            sets: dict[int, Arc | None] = {}
            for arc in reversed(arcs):
                charge = charges.get(arc.id)
                bits, masks, _ = tables[arc.tail]
                if charge is None or bits & charge:
                    continue
                bits |= charge
                sets.update(
                    (full, arc)
                    for m in masks
                    if not m & bits and (full := bits | m).bit_count() <= max_size
                )
            tables[v] = (0, sets, None)
        self._charges, self._tables = charges, tables

    @property
    def realizable_sets(self) -> tuple[int, ...]:
        return tuple(sorted(self._tables[-1][1], key=lambda c: (c.bit_count(), c)))

    def reconstruct(self, mask: int) -> Path:
        """Path whose bypass against the center is mask-colorful."""
        if mask not in self._tables[-1][1]:
            raise ValueError("color set is not realizable")
        arcs: list[int] = []
        v, cur = self.dag.n, mask
        while v != 1:
            _, masks, arc = self._tables[v]
            if arc is None:
                arc = masks[cur]
            arcs.append(arc.id)
            cur ^= self._charges[arc.id]
            v = arc.tail
        return Path(tuple(reversed(arcs)))


# The three delta swaps that transpose an 8 x 8 bit matrix held in 64
# bits, row a in byte a (Warren, Hacker's Delight, 7-3; Knuth, TAOCP 4A,
# 7.1.3): a shift and the bits it exchanges.
_TRANSPOSE8 = (
    (7, 0x00AA00AA00AA00AA),
    (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0),
)


def _sliced_pays(bits: int, later: int, n: int) -> bool:
    """Whether row i of n masks is cheaper bit-sliced than looped, for a
    mask of ``bits`` set bits with ``later`` positions after it.

    Costs measured on random masks of 40-120 bits at n = 64-16,384, in
    units of one looped position (0.11-0.16 us): a looped row costs one
    unit per later position, whatever n.  A bit-sliced row costs about
    7 + n / 512 units per set bit of the mask, since each column add works
    on n-bit ints, plus about six bits' worth to compare the planes.  The
    columns cost about as much as 3 to 5 full looped rows at 40 to 120
    bits and n >= 256; they are built once, by the first row that takes
    them, and are not charged to it.
    """
    return (bits + 6) * (7 + n // 512) < later


def _at_least(a: list[int], b: list[int], full: int) -> int:
    """Positions where the bit-plane number a is >= b, top plane first."""
    gt, eq = 0, full
    for p in range(max(len(a), len(b)) - 1, -1, -1):
        x = a[p] if p < len(a) else 0
        y = b[p] if p < len(b) else 0
        gt |= eq & x & ~y
        eq &= ~(x ^ y)
    return gt | eq


def _columns(masks: Sequence[int], width: int) -> list[int]:
    """The masks transposed: column b has bit j set when bit b of masks[j]
    is, for b < width.

    Byte lane l holds byte l of every mask, one byte per position, padded
    with zero bytes to whole blocks.  Each run of eight positions is a
    64-bit block, an 8 x 8 bit matrix, and the delta swaps transpose every
    block of a lane at once.  Byte t of a
    block then holds bit t of its eight masks, so column 8l + t is byte t
    of every block, in block order.
    """
    nb = (width + 7) // 8
    blocks = (len(masks) + 7) // 8
    pad = bytes(8 * blocks - len(masks))
    repeat = itertools.repeat
    buf = b"".join(map(int.to_bytes, masks, repeat(nb), repeat("little")))
    swaps = [
        (s, int.from_bytes(k.to_bytes(8, "little") * blocks, "little"))
        for s, k in _TRANSPOSE8
    ]
    cols: list[int] = []
    for lane in range(nb):
        x = int.from_bytes(buf[lane::nb] + pad, "little")
        for s, k in swaps:
            swap = (x ^ (x >> s)) & k
            x ^= swap ^ (swap << s)
        flipped = x.to_bytes(8 * blocks, "little")
        cols += [
            int.from_bytes(flipped[t::8], "little")
            for t in range(min(8, width - 8 * lane))
        ]
    return cols


def _row_builder(masks: Sequence[int], d: int) -> Callable[[int], int]:
    """Row i: the positions j > i with |masks[i] ^ masks[j]| >= d, as an
    int bitset, built looped or bit-sliced as ``_sliced_pays`` says."""
    n = len(masks)
    full = (1 << n) - 1
    width = max(masks).bit_length()
    # Position n - 1 first, so that it is the top digit of a looped row.
    backwards = masks[::-1]
    cols: list[int] = []  # _columns(masks, width), once a row needs them
    plus: dict[int, list[int]] = {}  # c -> bit planes of |masks[j]| + c

    def looped(i: int) -> int:
        mi = masks[i]
        digits = [
            "1" if (mi ^ mj).bit_count() >= d else "0"
            for mj in backwards[: n - i - 1]
        ]
        return int("".join(digits) or "0", 2) << (i + 1)

    def sizes_plus(c: int) -> list[int]:
        # The bit planes of a list of numbers are its columns.
        planes = plus.get(c)
        if planes is None:
            values = [m.bit_count() + c for m in masks]
            planes = plus[c] = _columns(values, max(values).bit_length())
        return planes

    def sliced(i: int) -> int:
        if len(cols) < width:
            cols.extend(_columns(masks, width))
        mi = masks[i]
        # |mi ^ mj| >= d  <=>  |mj| + (|mi| - d) >= 2 |mi & mj|; the
        # constant goes to the side where it is positive: into the sizes,
        # or into the count that the columns are added to.
        slack = mi.bit_count() - d
        left = sizes_plus(max(slack, 0))
        c = max(-slack, 0)
        right = [full if c >> p & 1 else 0 for p in range(c.bit_length() or 1)]
        # right += 2 * cols[b] for each set bit b of mi, each a ripple-carry
        # add from plane 1.
        rest = mi
        while rest:
            low = rest & -rest
            rest ^= low
            carry = cols[low.bit_length() - 1]
            p = 1
            while carry:
                if p == len(right):
                    right.append(carry)
                    break
                plane = right[p]
                right[p] = plane ^ carry
                carry &= plane
                p += 1
        return _at_least(left, right, full) >> (i + 1) << (i + 1)

    def row(i: int) -> int:
        if _sliced_pays(masks[i].bit_count(), n - i - 1, n):
            return sliced(i)
        return looped(i)

    return row


def select_dissimilar_color_sets(
    masks: Sequence[int], r: int, d: int
) -> list[int] | None:
    """The first r masks, in input order, whose pairwise XOR popcount is >= d.

    This is the one selection kernel of the package: the ball search picks
    color sets with it and the oracle picks arc-set masks of whole paths.
    It returns the lexicographically first r-subset of positions that is
    pairwise >= d apart, as masks in input order, or None if there is none.
    At d == 0 or r == 1 the first mask repeated r times answers.

    The search is a bitset branch and bound in the style of BBMC (San
    Segundo et al., 2011): candidates are an int bitset over positions,
    taken lowest first, and a branch is cut when the chosen sets plus the
    remaining candidates cannot reach r.  Row i, the later positions at
    distance >= d from position i, is built the first time i is chosen and
    another pick is still needed.  The candidate sets of the open picks
    are kept on an explicit stack, so r is not bounded by the
    interpreter's recursion limit.  Once r - 2 picks are made, the last
    two come from one scan, with no stack: the first candidate i whose row
    meets the candidates after it, then the first candidate in that
    meet.  The scan stops at the last candidate, which has none after it,
    so it builds the rows that a search one pick at a time builds.

    A node is a pick count p and the candidate set it starts with; what is
    found below it depends on nothing else, since every candidate is
    already >= d from every pick.  When a node is exhausted its start set
    is stored with p (nogood recording, Dechter 1990), and a later node
    whose start set is stored with p or more picks is skipped: a set with
    no completion after p picks has none after fewer, where more picks
    are needed.  A skipped node holds no solution, so the first subset
    found, and so the answer, does not change.  A child that the count
    bound already cuts is never entered, so the store holds only nodes
    that searched.  Whole-column repeats make candidate sets recur: on the
    oracle's masks of binpack (2,2,2)/2 at k = 4 the scans of the last two
    picks fall from 25,032 steps to 2,731.
    The store holds at most ``_FAILED_SETS_PER_MASK`` sets per mask and is
    emptied when full, which forgets work but not correctness.

    Each row is built whichever way is cheaper for that row
    (``_sliced_pays`` holds the measured costs).  Looped, a row takes one
    XOR and popcount per later position.  Bit-sliced, with the "sideways
    addition" of Knuth, TAOCP 4A, 7.1.3, it takes one column add per set
    bit of m_i: the masks are transposed once into columns (column b holds
    bit b of every mask, as an int over positions), and a count per
    position is kept as bit planes (plane p holds bit p of every count),
    so the planes of a list of counts are its columns.  Since
    |m_i ^ m_j| = |m_i| + |m_j| - 2 |m_i & m_j|, position j is in row i
    exactly when |m_j| + max(0, |m_i| - d) >= 2 |m_i & m_j| +
    max(0, d - |m_i|).  The left side's planes are built once per value of
    the constant; the right side starts from its constant and takes a
    ripple-carry add of the column of each set bit of m_i.  The test is
    one integer comparison per position, made for all positions at once
    from the top plane down.  Both ways give the same rows, so the answer
    does not depend on which one ran.
    """
    if r == 0:
        return []
    if not masks:
        return None
    if d == 0 or r == 1:
        return [masks[0]] * r
    n = len(masks)
    build = _row_builder(masks, d)
    rows: list[int | None] = [None] * n
    failed: dict[int, int] = {}  # start set -> most picks it failed with
    room = _FAILED_SETS_PER_MASK * n
    chosen: list[int] = []
    stack: list[tuple[int, int]] = []  # per pick: (start set, what was left)
    start = cand = (1 << n) - 1
    while True:
        p = len(chosen)
        if p + cand.bit_count() < r:  # the node is exhausted
            if len(failed) >= room:
                failed.clear()
            failed[start] = p
            if not stack:
                return None
            start, cand = stack.pop()
            chosen.pop()
            continue
        if p == r - 2:
            while True:
                low = cand & -cand
                cand ^= low
                if not cand:
                    break  # and backtrack
                i = low.bit_length() - 1
                bits = rows[i]
                if bits is None:
                    bits = rows[i] = build(i)
                bits &= cand
                if bits:
                    chosen += (i, (bits & -bits).bit_length() - 1)
                    return [masks[j] for j in chosen]
            continue
        low = cand & -cand
        cand ^= low
        i = low.bit_length() - 1
        bits = rows[i]
        if bits is None:
            bits = rows[i] = build(i)
        bits &= cand
        if p + 1 + bits.bit_count() < r or failed.get(bits, -1) > p:
            continue
        chosen.append(i)
        stack.append((start, cand))
        start = cand = bits


def ball_search(
    dag: SpDag,
    center: Path,
    q: int,
    r: int,
    d: int,
) -> list[Path] | None:
    """r paths within Hamming distance q of center, pairwise >= d apart.

    Iterates the hash family in member order and returns the first
    feasible selection.  Both conditions hold by construction: the tables
    realize only color sets of at most q colors, and a path lies at least
    as far from another as their color sets do.  ``solve`` verifies the
    certificate the paths end up in.  None is exact: an exhaustive family
    is perfect, and a seeded one is followed by the identity coloring,
    colors 1..m, the one member of ``build_hash_family(m, m)``.  Under it
    a bypass's color set is its arc-set difference from the center, so
    the tables list every path of the ball and the kernel sees their true
    distances.  It goes last because its tables are the largest.

    The selection kernel is given the realizable sets largest first (size
    and then mask descending).  A set's size is its path's distance from
    the center, and two sets of sizes a and b are at most a + b apart, so
    the large sets are the likely members of a d-apart r-subset and the
    first one lies early in that order.  Whether a selection exists does
    not depend on the order; only which one is returned does.
    """
    if r == 0:
        return []
    if d == 0 or r == 1:
        return [center] * r
    if q == 0:
        return None  # the radius-0 ball holds only the center

    m = dag.base.m
    family = build_hash_family(m, min(q * r, m))
    members = family.members
    if family.mode == SEEDED:
        members += build_hash_family(m, m).members

    for member in members:
        tables = BypassTables(dag, center, member, q)
        chosen = select_dissimilar_color_sets(tables.realizable_sets[::-1], r, d)
        if chosen is not None:
            return [tables.reconstruct(c) for c in chosen]
    return None
