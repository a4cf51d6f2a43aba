"""Periodic tilings, the exact-cover verifier, normalization, and audits.

A periodic tiling with period p is stored by its window codewords in
{0,..,p-1}^n: one sorted array, whose rows are sorted, deduplicated and looked
up through big-endian byte keys.  Verification marks, for every codeword X
and shape offset D, the cell (X - D) mod p, and demands that every cell of the
p^n window is marked exactly once.  The window is sharded by as many trailing
coordinates as keep each shard's marks within a fixed count (4 MiB of int32),
decided from the codeword counts before anything is written, so memory stays
flat however large the window: that much per worker thread.  The shards are
counted on every CPU the process may use, each thread taking the next one,
and their counts are merged in order.  Both ways of counting a shard read
per-codeword tables (one entry per coordinate and offset entry).  A shard with
at least as many marks as cells gets every cell's cover count from a scatter
of each codeword's signed star and one box pass per coordinate, the shape
being a box convolved with that star.  Any other shard writes its marks as
broadcast outer sums, in the row order of ``geometry._offsets`` (which also
gives the trailing offsets that pick each shard's codewords), into one
buffer, sorts them once and scans them once: adjacent comparisons count the
uncovered and multiply covered cells, and the first place the sorted marks
leave 0, 1, ... names the lowest bad cell.  So a sparse window costs time in
its marks, not in its cells.
"""

from __future__ import annotations

import bisect
import math
import os
import sys
import threading
from dataclasses import asdict, dataclass, field
from itertools import chain, combinations
from pathlib import Path

import numpy as np

from . import _fileformat
from .geometry import (
    Point,
    _at_least,
    _cross_sum,
    _in_shape,
    _offsets,
    _row_keys,
    _WordArray,
    _wrap,
    index_to_point,
    pairwise_minimum,
    point_to_index,
)

#: default ceiling on window size p^n (the 12^8 case, criterion scale)
DEFAULT_CELL_BUDGET = 12**8
#: min cross distance is only computed when k^2 stays below this
DEFAULT_PAIR_BUDGET = 10**8

#: the entries an offset D can take per coordinate; mark tables index them
#: in this order, so j = 1, 2 are the core entries 0, 1 and j = 0, 3 the arms
_ENTRIES = (-1, 0, 1, 2)
#: the window is split until no shard holds more marks than this (4 MiB of int32)
_SHARD_MARKS = 1 << 20


class CellBudgetExceeded(ValueError):
    """The window p^n is larger than the configured cell budget."""


class TilingFormatError(_fileformat.FormatError):
    """A TILING v1 file failed to parse."""


def window_exceeds(p: int, n: int, limit: int) -> bool:
    """Whether p^n > limit (p >= 2); a huge n is refused without building p^n."""
    return n >= limit.bit_length() or p**n > limit


def _digits(log10: float, build) -> str:
    """Decimal digits of build(), or "" past Python's int-to-str digit limit;
    build() is not called when log10, the value's base-10 logarithm, already
    shows that (the cap is Python's default where the limit is off)."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    try:
        return str(build()) if log10 <= cap + 1 else ""
    except ValueError:  # within the margin but past the limit
        return ""


def power_text(p: int, n: int) -> str:
    """"p^n = <digits>", or "p^n" past the digit limit (then p^n is not built)."""
    digits = _digits(n * math.log10(p), lambda: p**n)
    return f"{p}^{n} = {digits}" if digits else f"{p}^{n}"


class PeriodicTiling(_WordArray):
    """Window representation of T = codewords + p Z^n (p below 2^63).

    ``words`` holds the codewords: one sorted, read-only (k, n) array of the
    smallest unsigned dtype for p - 1.  ``codewords`` is the same as a sorted
    tuple of tuples, built on each access, not kept: at 12^8 it is 14 times the
    array.
    """

    _header = ("n", "p")

    def __init__(self, n: int, p: int, codewords):
        n, p = _at_least(n, 1, "dimension"), _at_least(p, 4, "period")
        if p >= 2**63:
            raise ValueError("period must be below 2^63")
        self.n, self.p = n, p
        super().__init__(codewords, n, p)

    def __contains__(self, x) -> bool:
        x = np.asarray(x)
        shaped = x.dtype.kind in "iu" and x.shape == (self.n,) and len(self) > 0
        if not (shaped and ((x >= 0) & (x < self.p)).all()):
            return False
        keys, key = _row_keys(self.words), _row_keys(x[None].astype(self.words.dtype))
        return bool(keys[min(int(np.searchsorted(keys, key)[0]), len(self) - 1)] == key[0])

    def codeword_set(self) -> set[Point]:
        return set(self.codewords)


@dataclass(frozen=True)
class VerificationReport:
    is_tiling: bool
    cells_total: int
    multiply_covered: int
    uncovered: int
    first_witness: tuple[Point, tuple[Point, ...]] | None = None
    min_cross_distance: int | None = None

    def to_dict(self) -> dict:
        d = {key: value for key, value in asdict(self).items() if value is not None}
        if self.first_witness is not None:
            cell, cws = self.first_witness
            d["first_witness"] = {"cell": list(cell),
                                  "covering_codewords": [list(w) for w in cws]}
        return d


@dataclass(frozen=True)
class NonexistenceCertificate:
    n: int
    forced_period: int
    divides: bool
    conclusion: str
    #: 2^n(n+1) and forced^n in digits, or "2^n*(n+1)" and "forced^n" past the limit
    shape_text: str
    window_text: str

    @property
    def shape_size(self) -> int:
        return 2**self.n * (self.n + 1)

    @property
    def window_size(self) -> int:
        return self.forced_period**self.n

    @property
    def count_text(self) -> str:
        """window/shape, the codeword count of a tiling of the forced window
        (when shape divides window), in digits or as "window/(shape)"."""
        log10 = self.n * math.log10(self.forced_period / 2) - math.log10(self.n + 1)
        return (_digits(log10, lambda: self.window_size // self.shape_size)
                or f"{self.window_text}/({self.shape_text})")


@dataclass(frozen=True)
class Admissibility:
    n: int
    admissible: bool
    base: int | None = None
    t: int | None = None


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AuditReport:
    n: int
    p: int
    profile: str  # "odd" or "even"
    f1_pairs: tuple[tuple[int, int], ...]  # 1-based (r, s) with 3e_r+2e_s in T
    f2_triples: tuple[tuple[int, int, int], ...]  # 1-based coordinate triples
    spencer_bound: int
    checks: tuple[AuditCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {**asdict(self), "f1_pairs": [list(p) for p in self.f1_pairs],
                "f2_triples": [list(t) for t in self.f2_triples], "passed": self.passed,
                "checks": [asdict(c) for c in self.checks]}


def _mark_tables(xs: np.ndarray, p: int, dtype) -> np.ndarray:
    """T[i, j, x] = ((xs[x, i] - _ENTRIES[j]) mod p) * p^i.

    One entry per coordinate and offset entry: a mark is the sum of one
    entry per coordinate.  The codeword axis is innermost, so every sum below
    runs over long contiguous rows.  Each row is written straight into dtype,
    so no temporary is larger than one column of xs in int64.
    """
    t = np.empty((xs.shape[1], len(_ENTRIES), len(xs)), dtype=dtype)
    for i, col in enumerate(xs.T):
        for j, e in enumerate(_ENTRIES):
            t[i, j] = (col.astype(np.int64) - e) % p * p**i
    return t


def _write_marks(t: np.ndarray, out: np.ndarray, arms: bool) -> int:
    """Write the marks of one codeword group to the front of out; return the count.

    t is the group's table over the m = n - 1 leading coordinates.  The core
    block (every entry in {0, 1}) comes first, as 2^m rows whose row index
    has bit i set when coordinate i takes 1; it is built by doubling.  With
    ``arms``, each coordinate r with entry -1 or 2 follows: the core rows
    with bit r clear, shifted by that entry's difference from 0.
    """
    m, _, k = t.shape
    core = out[: k << m].reshape(1 << m, k)
    core[0] = t[:, 1].sum(axis=0)
    for i in range(m):
        h = 1 << i
        np.add(core[:h], t[i, 2] - t[i, 1], out=core[h : 2 * h])
    pos = core.size
    if not arms:
        return pos
    for r in range(m):
        base = core.reshape(1 << (m - 1 - r), 2, 1 << r, k)[:, 0]
        for j in (0, 3):
            block = out[pos : pos + base.size].reshape(base.shape)
            np.add(base, t[r, j] - t[r, 1], out=block)
            pos += base.size
    return pos


def _scan(arr: np.ndarray, size: int, flags: np.ndarray) -> tuple[int, int, int | None]:
    """(uncovered, multiply covered, lowest bad index or None) of the cells 0..size-1
    from their sorted marks arr; flags is a (2, arr.size) or larger bool buffer
    that takes the scan's temporaries.  A run of repeated marks starts where a
    repeat follows a step.  Below the first repeat r the marks rise by 1 or
    more, so arr[i] - i never falls there, and the cells 0..j-1 marked once
    each by arr[i] = i are a prefix found by bisection: j < r leaves cell j
    uncovered, j = r < arr.size covers r - 1 twice, j = arr.size leaves j."""
    after = flags[0, : arr.size]  # False, then whether each mark repeats the one before
    after[:1] = False
    repeat = np.equal(arr[1:], arr[:-1], out=after[1:])
    repeats = int(np.count_nonzero(repeat))
    if arr.size == size and not repeats:
        return 0, 0, None
    runs = int(np.count_nonzero(np.greater(after[1:], after[:-1], out=flags[1, : repeat.size])))
    r = int(repeat.argmax()) + 1 if repeats else arr.size
    j = bisect.bisect_left(range(r), True, key=lambda i: arr[i] > i)
    return size - arr.size + repeats, runs, j - (j == r < arr.size)


def _dense(cells: int, marks: int) -> bool:
    """Whether a shard is counted by ``_box_counts`` (O(m cells)) rather than
    sorted (O(marks log marks)): when it has no more cells than marks, which
    also keeps its count buffers within its mark buffer."""
    return cells <= marks


def _box_counts(t: np.ndarray, with_arms: int, p: int, points: np.ndarray,
                counts: np.ndarray) -> tuple[int, int, int | None]:
    """(uncovered, multiply covered, lowest bad index or None) of a shard's p^m
    cells, the tuple ``_scan`` returns, from every cell's cover count: no sort.

    t is the shard's gathered (m, 4, k) table, as ``_write_marks`` takes it;
    its first with_arms codewords are taken with arms, the rest box-only.
    Since (delta_0 + delta_1) * (delta_-1 - delta_0 + delta_1) = delta_-1 +
    delta_2, the shape, the box {0,1}^m plus one arm entry in {-1, 2}, is the
    box convolved with a signed star:

        Upsilon_m = {0,1}^m * (delta_0 + sum_r (delta_-e_r - delta_0 + delta_e_r)).

    X covers the cells X - D, so the counts are m box passes over a scatter
    of weight 1 - m at X and 1 at X +- e_r (mod p) for each X taken with
    arms, and 1 at X for each taken box-only, read off t: X = sum_i t[i, 1],
    X + e_r = X + t[r, 0] - t[r, 1] and X - e_r = X + t[r, 2] - t[r, 1].
    Pass i sets c'[y] = c[y] + c[y + e_i], wrapping along coordinate i: one
    flat shifted add, then a fix of the last p^i cells of every
    p^(i+1)-block; the two rows of ``counts`` alternate.  The weight 1 - m
    wraps in the unsigned counts, which are exact modulo 2^bits; a cell is
    covered by at most |Upsilon_n| distinct codewords and by no more than the
    tiling has, and the caller picks a dtype above both bounds' minimum
    (uint16 below 2^16), so every count is exact.  points (k + 2m with_arms
    entries or more) takes the scattered cells, and the row not holding the
    final counts takes the comparisons.
    """
    m, _, k = t.shape
    x, a = points[:k], with_arms
    np.add.reduce(t[:, 1], axis=0, out=x)
    pos = k
    for r in range(m):
        plus, minus = points[pos : pos + a], points[pos + a : pos + 2 * a]
        np.subtract(x[:a], t[r, 1, :a], out=plus)  # X with coordinate r at 0
        np.add(plus, t[r, 2, :a], out=minus)  # X - e_r
        plus += t[r, 0, :a]  # X + e_r
        pos += 2 * a
    c, spare = counts
    c.fill(0)
    np.add.at(c, points[:pos], c.dtype.type(1))  # a typed scalar takes numpy's fast path
    np.subtract.at(c, x[:a], c.dtype.type(m))
    for i in range(m):
        h = p**i
        np.add(c[:-h], c[h:], out=spare[:-h])
        blocks = c.reshape(-1, p * h)
        np.add(blocks[:, -h:], blocks[:, :h], out=spare.reshape(-1, p * h)[:, -h:])
        c, spare = spare, c
    once = np.equal(c, 1, out=spare.view(bool)[: c.size])
    good = int(np.count_nonzero(once))
    if good == c.size:
        return 0, 0, None
    bad = int(once.argmin())
    uncovered = int(np.count_nonzero(np.equal(c, 0, out=once)))
    return uncovered, c.size - good - uncovered, bad


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo[0], .., hi[0] - 1, then lo[1], .., hi[1] - 1, and so on."""
    size = hi - lo
    return np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())


def _split(words: np.ndarray, p: int):
    """Shard the window by its last s coordinates: s is the fewest for which no
    shard holds more than ``_SHARD_MARKS`` marks and a shard's p^(n-s) cell
    indices fit int64, or n - 1 when there is none.

    One argsort orders the codewords by trailing index (the last coordinate
    most significant), which makes the group of every trailing value
    contiguous for every s.  Shard c takes group c + e for each trailing
    offset e, with arms only where e is a core row, so its marks are counted
    from the group sizes before any is written.  A group meets a shard
    through at most one e (p >= 4), so a count is at most k 2^m (m+1) for the
    m = n - s leading coordinates: below k 2^20 once a group's own shard
    passes the cap, at most 4k at s = n - 1, and int64 never wraps.

    Returns s, the codeword order, the largest shard's mark count, the number
    of shards holding marks, and a generator of those shards in increasing
    trailing index, as (trailing index, positions in that order of the
    codewords the shard takes, how many of them, leading, are taken with arms).
    """
    k, n = words.shape
    rev = words[:, ::-1]
    order = np.argsort(_row_keys(rev), kind="stable")
    rev = rev[order]
    # consecutive rows share this many last coordinates
    shared = (rev[1:] != rev[:-1]).argmax(axis=1)
    for s in range(n):
        m = n - s
        starts = np.flatnonzero(np.r_[k > 0, shared < s])
        sizes = np.diff(np.r_[starts, k])
        last = s == n - 1
        # a group's own shard alone takes all its 2^m (m+1) marks per codeword
        if not last and (window_exceeds(p, m, 2**63 - 1)
                         or int(sizes.max(initial=0)) * 2**m * (m + 1) > _SHARD_MARKS):
            continue
        # one entry per (offset, group), core offsets first: each shard's
        # entries stay in that order, so those taken with arms lead
        offsets = _offsets(s)  # the offsets' last s entries range over Upsilon_s
        group = np.tile(np.arange(len(starts)), len(offsets))
        arms = np.repeat(np.arange(len(offsets)) < 1 << s, len(starts))
        cells = (rev[starts, :s].astype(np.int64) - offsets[:, None]) % p
        cells = cells.reshape(len(group), s).astype(words.dtype)
        weight = sizes[group] * np.where(arms, m + 1, 1) << m
        if s:
            sort = np.argsort(_row_keys(cells), kind="stable")
            cells, group, arms, weight = cells[sort], group[sort], arms[sort], weight[sort]
        first = np.flatnonzero(np.r_[k > 0, (cells[1:] != cells[:-1]).any(axis=1)])
        most = int(np.add.reduceat(weight, first).max()) if k else 0
        if last or most <= _SHARD_MARKS:
            break
    ends = np.r_[starts[1:], k]

    def shards():
        for lo, hi in zip(first, np.r_[first[1:], len(group)]):
            g = group[lo:hi]
            c = point_to_index(cells[lo, ::-1].tolist(), p)
            yield c, _ranges(starts[g], ends[g]), int(sizes[g[arms[lo:hi]]].sum())

    return s, order, most, len(first), shards()


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _count_shards(words: np.ndarray, p: int) -> tuple[int, int, int | None]:
    """(uncovered, multiply covered, index of the lowest bad cell or None) of the
    window (see ``verify``).  The shards are counted on one thread per usable
    CPU, at most one per shard, the caller being one of them: each takes the
    next shard from ``_split`` under a lock and gathers its codewords' tables.
    A dense shard (``_dense``) is counted by ``_box_counts``, any other is
    written, sorted and scanned (``_scan``), in buffers the caller allocated
    for that thread: marks, gathered tables, flags, and two rows of p^m counts
    when some shard can be dense.  Counts are uint16 while min(k, |Upsilon_n|)
    < 2^16, as marks are int32 while p^m < 2^31, decided before any
    allocation.  The per-shard results are merged in increasing trailing
    index.  An exception in any thread is raised here once every thread is
    joined."""
    s, order, most, count, shards = _split(words, p)
    k, n = words.shape
    m = n - s
    shard_size = p**m
    dtype = np.int32 if shard_size < 2**31 else np.int64
    # a cell is covered by at most this many codewords (see _box_counts)
    bound = min(k, 2**n * (n + 1))
    tally = np.uint16 if bound < 2**16 else np.uint32 if bound < 2**32 else np.uint64
    cells = shard_size if _dense(shard_size, most) else 0  # no count buffers if none is dense
    tables = _mark_tables(words[order, :m], p, dtype)  # every codeword's, in that order
    workers = max(1, min(_cpus(), count))
    # a shard takes at most most >> m codewords (each brings 2^m marks or more)
    picks = m * len(_ENTRIES) * (most >> m)
    buffers = [(np.empty(most, dtype), np.empty(picks, dtype),
                np.empty((2, most), bool), np.empty((2, cells), tally))
               for _ in range(workers)]
    results: list[tuple[int, int, int, int | None]] = []
    lock, stop, errors = threading.Lock(), threading.Event(), []

    def work(marks: np.ndarray, picked: np.ndarray, flags: np.ndarray,
             counted: np.ndarray) -> None:
        try:
            while not stop.is_set():
                with lock:
                    shard = next(shards, None)
                if shard is None:
                    return
                c, rows, with_arms = shard
                t = picked[: m * len(_ENTRIES) * len(rows)].reshape(m, len(_ENTRIES), -1)
                np.take(tables, rows, axis=2, out=t, mode="clip")  # unbuffered: rows in range
                if _dense(shard_size, (len(rows) + m * with_arms) << m):
                    result = _box_counts(t, with_arms, p, marks, counted)
                else:
                    pos = _write_marks(t[..., :with_arms], marks, True)
                    pos += _write_marks(t[..., with_arms:], marks[pos:], False)
                    arr = marks[:pos]
                    arr.sort()
                    result = _scan(arr, shard_size, flags)
                results.append((c, *result))  # needs no lock
        except Exception as exc:  # raised below once every thread is joined
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=work, args=b) for b in buffers[1:]]
    for worker in threads:
        worker.start()
    try:
        work(*buffers[0])
    finally:
        stop.set()
        for worker in threads:
            worker.join()
    if errors:
        raise errors[0]

    uncovered = multiply = 0
    witness_idx = None
    done = 0  # the shards below this trailing index are counted
    for c, missing, runs, bad in chain(sorted(results), [(p**s, 0, 0, None)]):
        if c > done:  # no codeword reaches these shards: every cell is uncovered
            uncovered += (c - done) * shard_size
            if witness_idx is None:
                witness_idx = done * shard_size
        done = c + 1
        uncovered += missing
        multiply += runs
        if witness_idx is None and bad is not None:
            witness_idx = bad + c * shard_size
    return uncovered, multiply, witness_idx


def verify(
    tiling: PeriodicTiling,
    *,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> VerificationReport:
    """Exact-cover check of the full p^n window.

    Marks (X - D) mod p for every codeword X and offset D, sharded by the
    cell's last s coordinates, s the fewest that keep every shard within
    ``_SHARD_MARKS`` marks (see ``_split``).  The shards are counted on every
    CPU in the process's affinity mask, one thread per CPU but no more threads
    than shards, so memory stays within ``_SHARD_MARKS`` marks per thread; the
    counts are merged in increasing trailing index, and shards no codeword
    reaches count as uncovered without being written.  The offsets are
    exactly the D in {-1,0,1,2}^n with at most one entry in {-1, 2}, so both
    ways of counting a shard read small per-codeword tables, one entry per
    coordinate.  A shard with at least as many marks as cells gets every
    cell's cover count from a scatter of each codeword's signed star and one
    box pass per coordinate (``_box_counts``): O(m p^m) sequential work and no
    sort.  Any other shard, as in a window with few codewords, writes its
    marks as outer sums of the tables into one buffer, sorts them once, and
    one pass of adjacent comparisons (``_scan``) counts the distinct cells and
    the cells marked more than once.  Either way exact-once covering (and
    hence both the packing and covering properties) is decided per shard, and
    the lowest cell not covered exactly once is the witness.  Cell indices
    are int32 while a shard has fewer than 2^31 cells and int64 beyond.  The
    minimum torus cross distance over codeword pairs is reported when the
    pair count is within budget.
    """
    n, p = tiling.n, tiling.p
    cell_budget = _at_least(cell_budget, 1, "cell budget")
    pair_budget = _at_least(pair_budget, 0, "pair budget")
    if window_exceeds(p, n, cell_budget):
        raise CellBudgetExceeded(f"window {power_text(p, n)} exceeds budget {cell_budget}")
    total = p**n
    k = len(tiling)
    words = tiling.words

    uncovered, multiply, witness_idx = _count_shards(words, p)

    first_witness = None
    if witness_idx is not None:
        cell = index_to_point(witness_idx, n, p)
        # the shape test on (x - a + 1) mod p - 1, the representative of x - a in -1..p-2;
        # x and a lie in 0..p-1 and p < 2^63, so int64 holds x - a + 1
        covering = words[_in_shape((words.astype(np.int64) - cell + 1) % p - 1)]
        first_witness = (cell, tuple(map(tuple, covering.tolist())))

    min_dc = None
    if k >= 2 and k * k <= pair_budget:
        min_dc = _min_torus_cross_distance(tiling)

    return VerificationReport(
        is_tiling=(uncovered == 0 and multiply == 0),
        cells_total=total,
        multiply_covered=multiply,
        uncovered=uncovered,
        first_witness=first_witness,
        min_cross_distance=min_dc,
    )


def _min_torus_cross_distance(tiling: PeriodicTiling) -> int:
    # a distance is at most n floor(p/2); past int64 it is summed in Python ints
    p = tiling.p
    exact = np.int64 if tiling.n * (p // 2) <= np.iinfo(np.int64).max else object
    return pairwise_minimum(tiling.words.astype(exact), lambda a, b: _cross_sum(_wrap(b - a, p)))


def normalize(tiling: PeriodicTiling, x0: Point) -> PeriodicTiling:
    """Translate so that the codeword x0 moves to the origin."""
    if x0 not in tiling:
        raise ValueError(f"{x0} is not a codeword")
    # twice the words' width, int64 at most, holds every difference (p < 2^63)
    wide = np.dtype(f"i{min(2 * tiling.words.itemsize, 8)}")
    moved = (tiling.words.astype(wide) - np.asarray(x0, dtype=wide)) % tiling.p
    return PeriodicTiling(n=tiling.n, p=tiling.p, codewords=moved)


def is_periodic_with(tiling: PeriodicTiling, p2: int) -> bool:
    """Whether the codeword set is invariant under adding p2*e_i mod p, all i.

    That makes T a union of classes mod p2, each meeting the window in
    (p/p2)^n points: so one sort decides whether every residue mod p2 that
    occurs occurs (p/p2)^n times.
    """
    p2 = _at_least(p2, -math.inf, "p2")
    if p2 <= 0 or tiling.p % p2 != 0:
        raise ValueError(f"{p2} does not divide the period {tiling.p}")
    k = len(tiling)
    if k == 0 or p2 == tiling.p:
        return True
    if window_exceeds(tiling.p // p2, tiling.n, k):
        return False  # a class has more points than there are codewords
    lifts = (tiling.p // p2) ** tiling.n
    keys = np.sort(_row_keys(tiling.words % p2))
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return bool((np.diff(np.r_[starts, k]) == lifts).all())


def admissible_dimension(n: int) -> Admissibility:
    """Whether n = 2^t - 1 or n = 3^t - 1 for some t > 0, with the witness."""
    n = _at_least(n, 1, "n")
    for base in (2, 3):
        t = 1
        while base**t - 1 <= n:
            if base**t - 1 == n:
                return Admissibility(n=n, admissible=True, base=base, t=t)
            t += 1
    return Admissibility(n=n, admissible=False)


def nonexistence_certificate(n: int) -> NonexistenceCertificate:
    """Period-forcing divisibility certificate.

    Any tiling is periodic with period 4 for odd n and 12 for even n, so the
    shape size 2^n(n+1) must divide the forced window size; when it does not,
    no integer tiling exists.  No number is built unless its digits print.
    """
    n = _at_least(n, 1, "n")
    forced = 4 if n % 2 == 1 else 12
    # forced^n is 2^(2n) or 2^(2n) 3^n (then n + 1 is odd), so 2^n(n+1)
    # divides it exactly when n + 1 is a power of 2 or of 3: when n is admissible
    divides = admissible_dimension(n).admissible
    shape = (_digits(n * math.log10(2) + math.log10(n + 1), lambda: 2**n * (n + 1))
             or f"2^{n}*{n + 1}")
    if divides:
        conclusion = (
            f"inconclusive: {shape} divides {forced}^{n}; "
            "existence is settled by construction"
        )
    else:
        conclusion = (
            f"no integer tiling: forced period {forced}, "
            f"{shape} does not divide {power_text(forced, n)}"
        )
    return NonexistenceCertificate(
        n=n,
        forced_period=forced,
        divides=divides,
        conclusion=conclusion,
        shape_text=shape,
        window_text=_digits(n * math.log10(forced), lambda: forced**n) or f"{forced}^{n}",
    )


def spencer_bound(n: int) -> int:
    """Packing-triple-system bound floor(n/3 * floor((n-1)/2)) (n != 5 mod 6)."""
    return (n * ((n - 1) // 2)) // 3


def structural_audit(
    tiling: PeriodicTiling, report: VerificationReport
) -> AuditReport:
    """Structure checks a true tiling (normalized at 0) must exhibit.

    Extracts F1 (codewords 3e_r + 2e_s) and F2 (codewords with the value 2 at
    exactly three coordinates and 0/1 elsewhere), then checks the companion
    and partition facts: disjoint F1 supports covering all coordinates for
    even n, the 4e_s / -4e_s / -(3e_r+2e_s) companions, the period-12 chain
    points, the pair partition by F1 union F2, and the triple-system bound.
    Negative canonical codewords are read as mod-p residues, faithful because
    audited tilings carry their forced period.
    """
    if not report.is_tiling:
        raise ValueError("structural audit requires a verified tiling")
    n, p = tiling.n, tiling.p
    if (0,) * n not in tiling:
        raise ValueError("structural audit requires 0 to be a codeword (normalize first)")

    checks: list[AuditCheck] = []

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append(AuditCheck(name=name, passed=passed, detail=detail))

    def has(*entries: tuple[int, int]) -> bool:
        # the residue word with these (1-based coordinate, value) entries, 0 elsewhere
        x = [0] * n
        for i, v in entries:
            x[i - 1] = v % p
        return tuple(x) in tiling

    w = tiling.words
    twos, threes = w == 2, w == 3
    # F1: ordered pairs (r, s), 1-based, with the residue word 3@r, 2@s in T
    rows = (np.count_nonzero(w, axis=1) == 2) & threes.any(axis=1) & twos.any(axis=1)
    f1 = sorted(zip((threes[rows].argmax(axis=1) + 1).tolist(),
                    (twos[rows].argmax(axis=1) + 1).tolist()))
    # F2: coordinate triples from codewords with 2 exactly thrice, 0/1 elsewhere
    rows = (twos.sum(axis=1) == 3) & (w <= 2).all(axis=1)
    triples = np.nonzero(twos[rows])[1].reshape(-1, 3) + 1
    f2 = tuple(sorted(set(map(tuple, triples.tolist()))))

    # each F1 support is two coordinates, so they are disjoint when they cover 2|F1|
    covered = set().union(*f1)
    check("f1-supports-disjoint", len(covered) == 2 * len(f1), f"F1 = {f1}")
    if n % 2 == 0:
        check("f1-count-half-n", len(f1) == n // 2, f"|F1| = {len(f1)}, expected {n // 2}")
        check("f1-covers-all-coordinates", covered == set(range(1, n + 1)),
              f"coordinates covered: {sorted(covered)}")
    else:
        check("f1-empty-for-odd-n", len(f1) == 0, f"|F1| = {len(f1)}")

    for r, s in f1:
        have_4, have_m4, have_m32 = has((s, 4)), has((s, -4)), has((r, -3), (s, -2))
        check(f"companions-({r},{s})", have_4 and have_m4 and have_m32,
              f"4e_{s}: {have_4}, -4e_{s}: {have_m4}, -(3e_{r}+2e_{s}): {have_m32}")
        if p == 12:
            have_64, have_96 = has((r, 6), (s, 4)), has((r, 9), (s, 6))
            check(f"chain-({r},{s})", have_64 and have_96,
                  f"6e_{r}+4e_{s}: {have_64}, 9e_{r}+6e_{s}: {have_96}")

    # every unordered coordinate pair lies in exactly one member of F1 u F2
    members = [set(m) for m in f1 + list(f2)]
    bad_pairs = [(i, j, hits) for i, j in combinations(range(1, n + 1), 2)
                 if (hits := sum({i, j} <= m for m in members)) != 1]
    check("pair-partition-f1-f2", not bad_pairs,
          f"violations: {bad_pairs}" if bad_pairs else "each pair in exactly one member")

    bound = spencer_bound(n)
    if n % 6 != 5:
        check("triple-system-bound", len(f2) <= bound, f"|F2| = {len(f2)} <= {bound}")

    forced = nonexistence_certificate(n).forced_period
    multiple = p % forced == 0
    check(f"forced-period-{forced}", multiple and is_periodic_with(tiling, forced),
          f"invariant under +{forced}e_i for all i" if multiple
          else f"window period {p} is not a multiple of the forced period {forced}")

    return AuditReport(n=n, p=p, profile="odd" if n % 2 else "even", f1_pairs=tuple(f1),
                       f2_triples=f2, spencer_bound=bound, checks=tuple(checks))


def write_tiling(tiling: PeriodicTiling, path: str | Path) -> None:
    """Write a TILING v1 file (codewords sorted lexicographically)."""
    header = {"n": tiling.n, "p": tiling.p, "count": len(tiling)}
    _fileformat.write(path, "TILING v1", header, tiling.words)


def read_tiling(path: str | Path) -> PeriodicTiling:
    """Parse a TILING v1 file; the body is parsed at once into an array."""
    return _fileformat.read(
        path, "TILING v1", ("n", "p", "count"), TilingFormatError,
        lambda n, p, _, words: PeriodicTiling(n=n, p=p, codewords=words),
    )
