"""Array layers and derived tables against the implementations they replaced.

Each oracle below is the per-codeword tuple code that an array layer
replaced: tuple comprehensions, Python sets and the incremental subgroup
closure.  Hypothesis draws small (n, p) windows, real tilings, subgroups of
(Z_p)^n and perturbations of them (a codeword dropped, moved or duplicated),
and every array layer must agree with its oracle, error messages included.
The perfectness check is compared with the radius-1 sphere walk over tuples,
the array-backed BlockCode and the codes derived from it with the tuple-backed
code and its per-word validation loop, and the constructions and locators
with the per-family code that used the paper's transcribed class and
adjustment tables, and the search with the search that walked the offsets as
tuples and kept a cell list per placement, and the distances and cover tests
with the loops that computed them one coordinate at a time.  The profile is
derandomized, so every run draws the same examples.
"""

import itertools
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from halfcross import codes, constructions, lattice
from halfcross import tiling as tiling_module
from halfcross.codes import BlockCode, decode_within_1, is_perfect
from halfcross.geometry import (
    Point,
    covers,
    cross_distance,
    index_to_point,
    pairwise_minimum,
    point_to_index,
    upsilon_offsets,
)
from halfcross.lattice import IntegerLattice, _hnf, is_lattice_tiling
from halfcross.search import SearchConfig, SearchStats, divisibility_precheck, search_tilings
from halfcross.tiling import (
    DEFAULT_CELL_BUDGET,
    DEFAULT_PAIR_BUDGET,
    CellBudgetExceeded,
    PeriodicTiling,
    VerificationReport,
    _min_torus_cross_distance,
    is_periodic_with,
    normalize,
    read_tiling,
    power_text,
    structural_audit,
    verify,
    window_exceeds,
    write_tiling,
)
from test_lattice import contains, window
from test_tiling import torus_covers_oracle, verify_oracle

PROFILE = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

#: small windows: p^n stays at most 1728
DIMS = [(1, 4), (1, 7), (2, 4), (2, 6), (2, 12), (3, 4), (3, 6), (3, 12)]

LAMBDA2_WORDS = (
    (0, 0), (0, 4), (0, 8), (3, 2), (3, 6), (3, 10),
    (6, 0), (6, 4), (6, 8), (9, 2), (9, 6), (9, 10),
)


def _real_tilings():
    return [
        (2, 12, LAMBDA2_WORDS),
        (3, 4, constructions.from_binary_perfect(codes.binary_hamming(2)).codewords),
        (7, 4, constructions.punctured_construction(codes.binary_hamming(3)).codewords),
        (2, 12, constructions.from_ternary_perfect(codes.ternary_hamming(1)).codewords),
        (1, 4, ((0,),)),
    ]


REAL = _real_tilings()


# ---------------------------------------------------------------- oracles


def construct_oracle(n, p, words):
    """Validation and order of the tuple-backed PeriodicTiling."""
    seen = set()
    for w in words:
        if len(w) != n:
            raise ValueError(f"codeword {w} has length != {n}")
        if any(v < 0 or v >= p for v in w):
            raise ValueError(f"codeword {w} outside window of period {p}")
        if w in seen:
            raise ValueError(f"duplicate codeword {w}")
        seen.add(w)
    return tuple(sorted(words))


def normalize_oracle(words, p, x0):
    if x0 not in set(words):
        raise ValueError(f"{x0} is not a codeword")
    return tuple(sorted(tuple((v - u) % p for v, u in zip(w, x0)) for w in words))


#: sorted marks are scanned (counts and witness) in slices this long
_SCAN_SLICE = 2_000_000


def _count_runs(arr: np.ndarray) -> tuple[int, int]:
    """(distinct values, runs of two or more equal values) of a sorted array, from
    adjacent differences taken one slice at a time; a run starts wherever a step is
    followed by no step, and the step before each slice is carried across."""
    distinct, runs, prev = min(arr.size, 1), 0, True
    for lo in range(0, arr.size - 1, _SCAN_SLICE):
        seg = arr[lo : lo + _SCAN_SLICE + 1]
        step = seg[1:] != seg[:-1]
        steps = int(np.count_nonzero(step))
        distinct += steps
        if steps < step.size:
            runs += int(prev and not step[0]) + int(np.count_nonzero(step[:-1] > step[1:]))
        prev = bool(step[-1])
    return distinct, runs


def _first_mismatch(arr: np.ndarray, stop: int) -> int:
    """Lowest i < stop with arr[i] != i, or stop if there is none."""
    for lo in range(0, stop, _SCAN_SLICE):
        seg = arr[lo : min(lo + _SCAN_SLICE, stop)]
        bad = seg != np.arange(lo, lo + seg.size, dtype=arr.dtype)
        if bad.any():
            return lo + int(np.argmax(bad))
    return stop


#: the entries an offset D can take per coordinate; mark tables index them
#: in this order, so j = 1, 2 are the core entries 0, 1 and j = 0, 3 the arms
_ENTRIES = (-1, 0, 1, 2)


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


def verify_last_coordinate(
    tiling: PeriodicTiling,
    *,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> VerificationReport:
    """The window verifier as it sharded by the last coordinate only: one shard
    per value of it, every shard written in full (kept verbatim but for its
    witness, which reads the per-cell cover test, as are the two scan helpers
    above, which the library has replaced by ``_scan``, and the mark tables
    and writer above, which the library has replaced by its star table)."""
    n, p = tiling.n, tiling.p
    if window_exceeds(p, n, cell_budget):
        raise CellBudgetExceeded(f"window {power_text(p, n)} exceeds budget {cell_budget}")
    total = p**n
    shard_size = total // p
    dtype = np.int32 if shard_size < 2**31 else np.int64
    k = len(tiling)
    words = tiling.words

    # mark tables of the codewords grouped by their last coordinate value;
    # shard c takes the group c + d for each last offset entry d, with arms
    # only where d is 0 or 1
    tables = [_mark_tables(words[words[:, n - 1] == v, : n - 1], p, dtype) for v in range(p)]
    shards = [[(tables[(c + d) % p], d in (0, 1)) for d in _ENTRIES] for c in range(p)]
    per_word = 1 << (n - 1)
    buf = np.empty(
        max(sum(t.shape[2] * per_word * (n if arms else 1) for t, arms in s) for s in shards),
        dtype=dtype,
    )
    uncovered = multiply = 0
    witness_idx: int | None = None
    for c, groups in enumerate(shards):
        pos = 0
        for t, arms in groups:
            pos += _write_marks(t, buf[pos:], arms)
        arr = buf[:pos]
        arr.sort()
        distinct, runs = _count_runs(arr)
        if distinct == shard_size and runs == 0:
            continue
        uncovered += shard_size - distinct
        multiply += runs
        if witness_idx is None:
            # marks below i equal 0..i-1; arr[i] > i leaves cell i uncovered,
            # arr[i] < i (so arr[i] == i - 1) covers cell i - 1 twice
            i = _first_mismatch(arr, min(pos, shard_size + 1))
            bad = i - 1 if i < pos and arr[i] < i else i
            witness_idx = bad + c * shard_size
    del buf, arr, tables, shards  # the marks are done with; free them first

    first_witness = None
    if witness_idx is not None:
        cell = index_to_point(witness_idx, n, p)
        covering = tuple(w for w in map(tuple, words.tolist()) if torus_covers_oracle(w, cell, p))
        first_witness = (cell, covering)

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



def shard_marks_oracle(words, n, p):
    """For s = 0, .., n - 1, the most marks (codeword, offset) that fall in one
    shard of the cells sharing their last s coordinates, counted cell by cell."""
    cells = [tuple((a - b) % p for a, b in zip(x, d))
             for x in words for d in upsilon_offsets(n).offsets]
    return [max(Counter(c[n - s :] for c in cells).values(), default=0) for s in range(n)]


def periodic_oracle(words, n, p, p2):
    words = set(words)
    for i in range(n):
        shifted = {w[:i] + ((w[i] + p2) % p,) + w[i + 1 :] for w in words}
        if shifted != words:
            return False
    return True


def subgroup_oracle(gens, n, p, within=None):
    """Closure of an abelian generating set inside (Z_p)^n; None once it leaves ``within``."""
    group = {(0,) * n}
    for g in gens:
        if g in group:
            continue
        reps = []
        cur = g
        while cur not in group:
            reps.append(cur)
            cur = tuple((a + b) % p for a, b in zip(cur, g))
        extended = set(group)
        for r in reps:
            extended.update(tuple((a + b) % p for a, b in zip(h, r)) for h in group)
        group = extended
        if within is not None:
            if not group <= within:
                return None
            if len(group) == len(within):
                break
    return group


def lattice_tiling_oracle(words, n, p):
    """True, False, or the ValueError message of the subgroup-closure check."""
    target = set(words)
    if (0,) * n not in target:
        return False
    if subgroup_oracle(sorted(words), n, p, within=target) is None:
        return False
    shape_size = 2**n * (n + 1)
    if p**n != len(target) * shape_size:
        return (
            f"not a tiling: {len(target)} codewords of {shape_size} cells "
            f"do not fill {p}^{n} = {p**n} cells"
        )
    return True


def file_oracle(n, p, words):
    lines = ["TILING v1", f"n {n}", f"p {p}", f"count {len(words)}"]
    lines.extend(" ".join(map(str, w)) for w in sorted(words))
    return ("\n".join(lines) + "\n").encode("ascii")


# the loop forms of covers and the cross distances that the point kernels replaced


def covers_oracle(x, a):
    exceptional = 0
    for xi, ai in zip(x, a):
        d = xi - ai
        if d < -1 or d > 2:
            return False
        if d == -1 or d == 2:
            exceptional += 1
            if exceptional > 1:
                return False
    return True


def cross_distance_oracle(x, y):
    return sum(max(0, abs(b - a) - 1) for a, b in zip(x, y))


def torus_cross_distance_oracle(x, y, p):
    total = 0
    for a, b in zip(x, y):
        d = abs(b - a) % p
        d = min(d, p - d)
        total += max(0, d - 1)
    return total


def f1_f2_oracle(words):
    f1 = []
    for w in words:
        nz = [(i, v) for i, v in enumerate(w) if v != 0]
        if len(nz) == 2 and sorted(v for _, v in nz) == [2, 3]:
            r = next(i for i, v in nz if v == 3)
            s = next(i for i, v in nz if v == 2)
            f1.append((r + 1, s + 1))
    f2 = set()
    for w in words:
        twos = [i for i, v in enumerate(w) if v == 2]
        if len(twos) == 3 and all(v in (0, 1, 2) for v in w):
            f2.add(tuple(i + 1 for i in twos))
    return tuple(sorted(f1)), tuple(sorted(f2))


def is_perfect_oracle(code):
    """The sphere walk over tuples that the sorted base-q keys replaced."""
    q, n = code.q, code.length
    sphere = 1 + n * (q - 1)
    if len(code.codewords) * sphere != q**n:
        return False, (
            f"size check failed: {len(code.codewords)} * {sphere} != {q}^{n}"
        )
    seen = set()
    for w in code.codewords:
        for v in codes._sphere(w, q):
            if v in seen:
                return False, f"spheres overlap at {v}"
            seen.add(v)
    return True, "perfect: sphere packing covers all words exactly once"


@dataclass(frozen=True)
class TupleCode:
    """The tuple-backed BlockCode: codewords kept in the given order."""

    q: int
    length: int
    codewords: tuple[Point, ...]

    def __post_init__(self):
        if self.q not in (2, 3):
            raise ValueError(f"alphabet size must be 2 or 3, got {self.q}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        seen = set()
        for w in self.codewords:
            if len(w) != self.length:
                raise ValueError(f"codeword {w} has length != {self.length}")
            if any(s < 0 or s >= self.q for s in w):
                raise ValueError(f"codeword {w} has symbols outside Z_{self.q}")
            if w in seen:
                raise ValueError(f"duplicate codeword {w}")
            seen.add(w)

    def __len__(self) -> int:
        return len(self.codewords)


def min_hamming_distance_oracle(code):
    words = np.array(code.codewords, dtype=np.int8)
    return pairwise_minimum(words, lambda a, b: (a != b).sum(axis=-1))


def puncture_oracle(code):
    if code.length < 2:
        raise ValueError("cannot puncture a length-1 code")
    words = sorted({w[:-1] for w in code.codewords})
    if len(words) != len(code.codewords):
        raise ValueError("puncturing collided codewords (minimum distance < 2?)")
    return TupleCode(q=code.q, length=code.length - 1, codewords=tuple(words))


def weight_split_oracle(code):
    if code.q != 2:
        raise ValueError("weight split is defined for binary codes only")
    even = tuple(w for w in code.codewords if sum(w) % 2 == 0)
    odd = tuple(w for w in code.codewords if sum(w) % 2 == 1)
    return (
        TupleCode(q=2, length=code.length, codewords=even),
        TupleCode(q=2, length=code.length, codewords=odd),
    )


def to_binary_perfect_oracle(tiling):
    """The tuple round trip; perfectness by the sphere walk over tuples."""
    if tiling.p != 4:
        raise ValueError(f"expected period 4, got {tiling.p}")
    w = tiling.words
    words = w // 2 if not (w % 2).any() else (w >= 2).astype(w.dtype)
    distinct = tuple(map(tuple, np.unique(words, axis=0).tolist()))  # sorted rows
    code = TupleCode(q=2, length=tiling.n, codewords=distinct)
    ok, reason = is_perfect_oracle(code)
    if not ok:
        raise ValueError(f"image is not a perfect code ({reason}); corrupt tiling?")
    return code


def _as_set(result):
    """A code as (q, length, sorted codewords), recursively; anything else as is."""
    if isinstance(result, (BlockCode, TupleCode)):
        return result.q, result.length, tuple(sorted(result.codewords))
    if isinstance(result, tuple) and not _failed(result):
        return tuple(map(_as_set, result))
    return result


# The per-family constructions and locators, as they stood on the transcribed
# tables; the perfectness check inside them is the library's, which
# test_is_perfect_matches_sphere_walk holds to its own oracle.

PHI = {0: (0, 0), 1: (1, 2), 2: (2, 0)}

CLASSES = {
    (0, 0): ((0, 0), (0, 3), (2, 2), (2, 1)),
    (1, 2): ((1, 2), (1, 1), (0, 1), (0, 2)),
    (2, 0): ((2, 0), (1, 3), (2, 3), (1, 0)),
}

ADJUST = {
    # class of (0, 0)
    (0, 0): {(0, 0): (0, 0), (1, 2): (1, 2), (2, 0): (2, 0)},
    (0, 3): {(0, 0): (0, 4), (1, 2): (1, 2), (2, 0): (2, 4)},
    (2, 2): {(0, 0): (3, 2), (1, 2): (1, 2), (2, 0): (2, 4)},
    (2, 1): {(0, 0): (3, 2), (1, 2): (1, 2), (2, 0): (2, 0)},
    # class of (1, 2)
    (1, 2): {(0, 0): (3, 2), (1, 2): (1, 2), (2, 0): (2, 4)},
    (1, 1): {(0, 0): (3, 2), (1, 2): (1, 2), (2, 0): (2, 0)},
    (0, 1): {(0, 0): (0, 0), (1, 2): (1, 2), (2, 0): (-1, 2)},
    (0, 2): {(0, 0): (0, 4), (1, 2): (1, 2), (2, 0): (-1, 2)},
    # class of (2, 0)
    (2, 0): {(0, 0): (3, 2), (1, 2): (4, 0), (2, 0): (2, 0)},
    (1, 3): {(0, 0): (0, 4), (1, 2): (1, 2), (2, 0): (2, 4)},
    (2, 3): {(0, 0): (3, 2), (1, 2): (4, 4), (2, 0): (2, 4)},
    (1, 0): {(0, 0): (0, 0), (1, 2): (1, 2), (2, 0): (2, 0)},
}

_CLASS_SYMBOL = {pair: s for s, rep in PHI.items() for pair in CLASSES[rep]}
_PHI_ROWS = np.array([PHI[s] for s in range(3)], dtype=np.uint8)


def psi_word(point):
    if len(point) % 2 != 0:
        raise ValueError("point length must be even")
    return tuple(
        _CLASS_SYMBOL[(point[2 * i], point[2 * i + 1])] for i in range(len(point) // 2)
    )


def reduce_to_representative(a):
    if len(a) % 2 != 0:
        raise ValueError("dimension must be even")
    b = []
    y = []
    for i in range(len(a) // 2):
        a1, a2 = a[2 * i], a[2 * i + 1]
        b1 = a1 % 3
        m = (b1 - a1) // 3
        b2 = (a2 + 2 * m) % 4
        l = (b2 - a2 - 2 * m) // 4
        b.extend((b1, b2))
        y.extend((3 * m, 2 * m + 4 * l))
    return tuple(b), tuple(y)


def _code_array(code):
    return np.array(code.codewords, dtype=np.uint8).reshape(-1, code.length)


def _require_perfect(code, q):
    if code.q != q:
        raise ValueError(f"expected a code over Z_{q}, got Z_{code.q}")
    ok, reason = is_perfect(code)
    if not ok:
        raise ValueError(f"code is not perfect: {reason}")


def from_binary_perfect_oracle(code):
    _require_perfect(code, 2)
    return PeriodicTiling(n=code.length, p=4, codewords=2 * _code_array(code))


def from_ternary_perfect_oracle(code):
    _require_perfect(code, 3)
    nu = code.length
    embedded = _PHI_ROWS[_code_array(code)].reshape(-1, 2 * nu)
    lam = lattice.window_array(lattice.lambda_lattice(nu), 12).astype(np.uint8)
    words = ((embedded[:, None, :] + lam[None, :, :]) % 12).reshape(-1, 2 * nu)
    try:
        return PeriodicTiling(n=2 * nu, p=12, codewords=words)
    except ValueError as exc:
        raise RuntimeError("collision in embedded code + lattice window") from exc


def locate_tile_ternary_oracle(a, code):
    if len(a) % 2 != 0:
        raise ValueError("dimension must be even")
    if len(a) != 2 * code.length:
        raise ValueError(f"point length {len(a)} != 2 * code length {code.length}")
    b, y = reduce_to_representative(a)
    w = decode_within_1(code, psi_word(b))
    if w is None:
        raise ValueError("decode failure: the supplied code is not perfect")
    out = [v for i, s in enumerate(w) for v in ADJUST[b[2 * i], b[2 * i + 1]][PHI[s]]]
    x = tuple(o - yi for o, yi in zip(out, y))
    if not covers(x, a):
        raise RuntimeError(f"locator produced a non-covering point {x} for {a}")
    return x


def locate_tile_binary_oracle(a, code):
    _require_perfect(code, 2)
    if len(a) != code.length:
        raise ValueError(f"point length {len(a)} != code length {code.length}")
    c = decode_within_1(code, tuple((ai + 1) // 2 % 2 for ai in a))
    x = tuple(ai - 1 + (2 * ci - ai + 1) % 4 for ai, ci in zip(a, c))
    if not covers(x, a):
        raise RuntimeError(f"locator produced a non-covering point {x} for {a}")
    return x


class _Budget(Exception):
    pass


def search_tilings_oracle(cfg: SearchConfig) -> tuple[list[PeriodicTiling], SearchStats]:
    """Enumerate tilings of the (Z_p)^n torus up to ``max_solutions``.

    With symmetry breaking the origin is fixed as a codeword (any tiling can
    be translated to one containing it), so each reported solution stands for
    its p^n translates.  Deterministic: cells and candidate placements are
    tried in lexicographic order.
    """
    n, p = cfg.n, cfg.p
    stats = SearchStats()
    if not divisibility_precheck(n, p):
        stats.status = "divisibility"
        return [], stats

    total = p**n
    shape = upsilon_offsets(n)
    tiles_needed = total // len(shape)

    @cache
    def cells_of(x: Point) -> list[int]:
        return [point_to_index(tuple((xi - di) % p for xi, di in zip(x, off)), p)
                for off in shape.offsets]

    covered = bytearray(total)
    placed: list[Point] = []
    solutions: list[PeriodicTiling] = []

    def place(x: Point) -> bool:
        cells = cells_of(x)
        if any(covered[c] for c in cells):
            return False
        for c in cells:
            covered[c] = 1
        placed.append(x)
        return True

    def unplace(x: Point) -> None:
        for c in cells_of(x):
            covered[c] = 0
        placed.pop()

    def recurse() -> None:
        stats.nodes += 1
        if stats.nodes > cfg.node_budget:
            raise _Budget
        if len(placed) == tiles_needed:
            solutions.append(PeriodicTiling(n=n, p=p, codewords=placed))
            stats.solutions += 1
            return
        lowest = covered.find(0)
        a = index_to_point(lowest, n, p)
        candidates = sorted(
            {tuple((ai + di) % p for ai, di in zip(a, off)) for off in shape.offsets}
        )
        for x in candidates:
            if not place(x):
                continue
            recurse()
            unplace(x)
            stats.backtracks += 1
            if stats.solutions >= cfg.max_solutions:
                return

    if cfg.symmetry_breaking:
        place((0,) * n)
    try:
        recurse()
    except _Budget:
        stats.status = "budget"

    return solutions, stats


# ------------------------------------------------------------- strategies


#: a point entry: anywhere in a wide box, or near the origin
POINT_ENTRY = st.integers(-(10**12), 10**12) | st.integers(-13, 13)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _failed(outcome) -> bool:
    return isinstance(outcome, tuple) and outcome[:1] == ("ValueError",)


@st.composite
def word_sets(draw):
    """(n, p, words): a real tiling, a subgroup, or a random set, often perturbed."""
    kind = draw(st.sampled_from(["real", "subgroup", "random"]))
    if kind == "real":
        n, p, words = draw(st.sampled_from(REAL))
        words = set(words)
    else:
        n, p = draw(st.sampled_from(DIMS))
        point = st.tuples(*[st.integers(0, p - 1)] * n)
        if kind == "subgroup":
            words = subgroup_oracle(draw(st.lists(point, max_size=3)), n, p)
        else:
            words = draw(st.sets(point, max_size=30))
    change = draw(st.sampled_from(["none", "drop", "move"]))
    if change == "drop" and words:
        words = words - {draw(st.sampled_from(sorted(words)))}
    elif change == "move" and words:
        old = draw(st.sampled_from(sorted(words)))
        new = tuple(draw(st.integers(0, p - 1)) for _ in range(n))
        words = (words - {old}) | {new}
    return n, p, tuple(sorted(words))


# ------------------------------------------------------------------ tests


@PROFILE
@given(data=st.data())
def test_construction_matches_oracle(data):
    # sequences with wrong lengths, entries outside the window and duplicates
    n, p = data.draw(st.sampled_from(DIMS))
    value = st.integers(-2, p + 1) | st.integers(0, p - 1)
    row = st.lists(value, min_size=n, max_size=n) | st.lists(value, max_size=n + 1)
    words = [tuple(r) for r in data.draw(st.lists(row, max_size=8))]
    if words and data.draw(st.booleans()):
        words.insert(data.draw(st.integers(0, len(words))), data.draw(st.sampled_from(words)))
    want = _outcome(construct_oracle, n, p, words)
    got = _outcome(lambda: PeriodicTiling(n=n, p=p, codewords=words).codewords)
    assert got == want
    if want[:1] != ("ValueError",):
        arr = PeriodicTiling(n=n, p=p, codewords=np.array(want, dtype=np.int64).reshape(-1, n))
        assert arr.codewords == want


@PROFILE
@given(case=word_sets(), data=st.data())
def test_transforms_match_oracle(case, data):
    n, p, words = case
    t = PeriodicTiling(n=n, p=p, codewords=words)
    assert t.codewords == words and len(t) == len(words)
    x0 = data.draw(st.sampled_from(words) if words and data.draw(st.booleans())
                   else st.tuples(*[st.integers(-1, p)] * n))
    got = _outcome(lambda: normalize(t, x0).codewords)
    assert got == _outcome(normalize_oracle, words, p, x0)
    assert (x0 in t) == (x0 in set(words))
    for p2 in (d for d in range(1, p + 1) if p % d == 0):
        assert is_periodic_with(t, p2) == periodic_oracle(words, n, p, p2), p2


@PROFILE
@given(case=word_sets(), block=st.sampled_from([1, 2, 5, 4096]))
def test_lattice_check_matches_subgroup_closure(case, block):
    # short blocks put the generators found, and the rows skipped, across blocks
    n, p, words = case
    want = lattice_tiling_oracle(words, n, p)
    with mock.patch.object(lattice, "_BLOCK", block):
        got = _outcome(is_lattice_tiling, PeriodicTiling(n=n, p=p, codewords=words))
    assert got == (("ValueError", want) if isinstance(want, str) else want)


@PROFILE
@given(data=st.data())
def test_window_matches_subgroup_closure(data):
    n, p = data.draw(st.sampled_from(DIMS))
    entry = st.integers(-p, p)
    rows = data.draw(st.lists(st.tuples(*[entry] * n), min_size=n, max_size=n + 2))
    if data.draw(st.booleans()):
        # the lattice of rows and p*I: p-periodic by construction
        units = [tuple(p if j == i else 0 for j in range(n)) for i in range(n)]
        rows = [tuple(r) for r in _hnf(rows + units)]
    rows = rows[:n]
    if _hnf(rows) is None:
        return
    lat = IntegerLattice(n=n, generator=tuple(rows))
    periodic = all(contains(lat, tuple(p if j == i else 0 for j in range(n))) for i in range(n))
    if not periodic:
        with pytest.raises(ValueError):
            window(lat, p)
        return
    want = subgroup_oracle([tuple(v % p for v in r) for r in rows], n, p)
    assert window(lat, p) == want


@PROFILE
@given(case=word_sets(), data=st.data())
def test_file_round_trip_matches_oracle(tmp_path, case, data):
    n, p, words = case
    t = PeriodicTiling(n=n, p=p, codewords=words)
    path = tmp_path / "t.tiling"
    write_tiling(t, path)
    text = path.read_bytes()
    assert text == file_oracle(n, p, words)
    assert read_tiling(path) == t
    # the same rows in a looser spelling go through the per-row reader
    lines = text.decode("ascii").split("\n")
    gap = data.draw(st.sampled_from(["  ", "\t", " +"]))
    body = "\n".join(line.replace(" ", gap) for line in lines[4:])
    path.write_text("\n".join(lines[:4]) + "\n" + body, encoding="ascii")
    assert read_tiling(path) == t


@PROFILE
@given(case=word_sets())
def test_witness_and_audit_extraction_match_oracle(case):
    n, p, words = case
    t = PeriodicTiling(n=n, p=p, codewords=words)
    report = verify(t)
    if report.first_witness is not None:
        cell, covering = report.first_witness
        assert covering == tuple(w for w in words if torus_covers_oracle(w, cell, p))
    if (0,) * n in set(words):
        fake = VerificationReport(True, p**n, 0, 0)
        audit = structural_audit(t, fake)
        assert (audit.f1_pairs, audit.f2_triples) == f1_f2_oracle(words)


@PROFILE
@given(data=st.data())
def test_point_kernels_match_loop_forms(data):
    # x, a point y anywhere, a point near x (often covered by it) and that one
    # moved by multiples of the period
    n, p = data.draw(st.sampled_from(DIMS))
    x, y = (tuple(data.draw(st.lists(POINT_ENTRY, min_size=n, max_size=n))) for _ in "xy")
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    wraps = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    near = tuple(v + d for v, d in zip(x, shift))
    far = tuple(v + k * p for v, k in zip(near, wraps))
    for other in (y, near, far):
        assert covers(x, other) == covers_oracle(x, other)
        assert covers(other, x) == covers_oracle(other, x)
        assert cross_distance(x, other) == cross_distance_oracle(x, other)
        cells = upsilon_offsets(n).torus_cells(x, p)
        assert (tuple(v % p for v in other) in cells) == torus_covers_oracle(x, other, p)
        # a point taken from a codeword array as tuple(words[0]) has numpy scalar entries
        words = np.array([[v % p for v in x]], dtype=np.min_scalar_type(p - 1))
        cell, ints = tuple(words[0]), tuple(v % p for v in x)
        assert covers(cell, other) == covers_oracle(ints, other)
        assert cross_distance(cell, other) == cross_distance_oracle(ints, other)


def _check_every_split(n, p, words):
    """verify with the shard-mark cap set so that the split takes every s from 0
    to n - 1 (and the cap below every shard, which falls back to n - 1) gives
    the report of the last-coordinate verifier and the per-cell counter; and so
    does every split with every shard forced onto the box-pass kernel, and
    again with every shard forced onto the sort and ``_scan``."""
    t = PeriodicTiling(n=n, p=p, codewords=words)
    want = verify_last_coordinate(t)
    uncovered, multiply, witness = verify_oracle(t)
    assert (want.uncovered, want.multiply_covered) == (uncovered, multiply)
    if want.first_witness is not None:
        cell, covering = want.first_witness
        assert (cell, len(covering)) == witness
        assert covering == tuple(w for w in words if torus_covers_oracle(w, cell, p))
    split = tiling_module._split
    chosen = []

    def spy(*args):
        plan = split(*args)
        chosen.append(plan[0])
        return plan

    caps = [*enumerate(shard_marks_oracle(words, n, p)), (n - 1, 0)]
    for s, cap in caps:
        for dense in (None, True, False):
            kernel = tiling_module._dense if dense is None else lambda *_: dense
            with mock.patch.object(tiling_module, "_SHARD_MARKS", cap), \
                    mock.patch.object(tiling_module, "_split", spy), \
                    mock.patch.object(tiling_module, "_dense", kernel):
                assert verify(t) == want, (s, cap, dense)
            # a shard's most marks fall with every coordinate added to s (each
            # codeword's spread over two values of it), so s is the fewest in cap
            assert chosen.pop() == (s if words else 0)
    return want


@PROFILE
@given(case=word_sets())
def test_every_shard_split_matches_last_coordinate_and_per_cell(case):
    _check_every_split(*case)


@pytest.mark.parametrize(
    "p, words, cell",
    [
        # Lambda_2 less (9, 10): groups 1, 3, 5, 7 of the last coordinate are
        # empty, and the first bad cell lies in the shard of last coordinate 8
        (12, tuple(w for w in LAMBDA2_WORDS if w != (9, 10)), (8, 8)),
        # no codeword reaches the shards of last coordinate 0, 1 and 2
        (12, ((5, 5),), (0, 0)),
    ],
)
def test_split_finds_the_first_bad_cell_in_a_later_shard(p, words, cell):
    report = _check_every_split(2, p, words)
    assert report.first_witness[0] == cell


def _near_tilings():
    words = constructions.from_binary_perfect(codes.binary_hamming(3)).words
    # X + e_1 covers X, so it is no codeword; coordinate 1 is never trailing,
    # so the moved codeword brings every shard of every split its marks as before
    moved = words.copy()
    moved[5, 0] = (moved[5, 0] + 1) % 4
    return [(words[1:], (2**7 * 8, 0)), (moved, (384, 384))]


@pytest.mark.parametrize("words, bad", _near_tilings(), ids=["dropped", "moved"])
def test_split_of_a_near_tiling(words, bad):
    # every split, with both kernels forced: a shard short of one codeword's
    # marks, and shards with as many marks as cells, some cell doubled and
    # another uncovered, must not pass as covered exactly once
    report = _check_every_split(7, 4, tuple(map(tuple, words.tolist())))
    assert (report.uncovered, report.multiply_covered) == bad


def test_screen_refuses_each_bad_full_shard_and_it_is_recounted():
    # in the moved near-tiling every shard of every split has as many marks as
    # cells: each is screened on 8-bit counts, which prove the shards covered
    # exactly once and refuse the others, each of which is then counted again
    # on exact counts and found bad
    n, p = 7, 4
    words = tuple(map(tuple, _near_tilings()[1][0].tolist()))
    t = PeriodicTiling(n=n, p=p, codewords=words)
    shape = upsilon_offsets(n)
    hits = Counter(cell for x in words for cell in shape.torus_cells(x, p))
    bad = [cell for cell in itertools.product(range(p), repeat=n) if hits[cell] != 1]
    box, calls = tiling_module._box_counts, []

    def spy(table, rows, with_arms, q, points, counts):
        result = box(table, rows, with_arms, q, points, counts)
        calls.append((rows.tolist(), counts.dtype, result))
        return result

    for s, cap in enumerate(shard_marks_oracle(words, n, p)):
        calls.clear()
        with mock.patch.object(tiling_module, "_SHARD_MARKS", cap), \
                mock.patch.object(tiling_module, "_box_counts", spy):
            verify(t)
        screens = [call for call in calls if call[1] == np.uint8]
        assert len(screens) == p**s  # every shard, each screened once
        refused = 0
        for (rows, dtype, result), after in zip(calls, calls[1:] + [None]):
            if dtype == np.uint16:
                continue
            if result is None:  # the next call recounts the same shard exactly
                refused += 1
                assert after[:2] == (rows, np.uint16) and after[2] != (0, 0, None)
            else:
                assert result == (0, 0, None) and (after is None or after[1] == np.uint8)
        # one refusal per shard holding a cell not covered exactly once
        assert refused == len({cell[n - s :] for cell in bad}) > 0, s


def test_split_of_one_codeword_in_a_small_window():
    # one codeword of the 4^2 window reaches one shard at s = 0 and all four at s = 1
    _check_every_split(2, 4, ((1, 2),))


def test_split_counts_every_group_a_shard_takes():
    # at s = 2 each group alone brings 12 marks to its own shard, but the shard
    # of last coordinates (0, 0) takes all three groups: 36 marks, so a cap of
    # 12 needs s = 3
    _check_every_split(4, 4, ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))


def test_strategies_reach_every_kind_of_case():
    # the drawn cases include lattice tilings, tilings that are no lattice,
    # subgroups too small or large to tile, and sets that are neither
    seen = set()

    @PROFILE
    @given(case=word_sets())
    def collect(case):
        n, p, words = case
        t = PeriodicTiling(n=n, p=p, codewords=words)
        seen.add((verify(t).is_tiling, type(lattice_tiling_oracle(words, n, p)).__name__))

    collect()
    assert seen >= {(True, "bool"), (False, "bool"), (False, "str")}
    assert any(lattice_tiling_oracle(w, n, p) is False for n, p, w in REAL)


with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # binary_hamming(1) is the degenerate code {0}
    BINARY = {t: codes.binary_hamming(t) for t in (1, 2, 3, 4)}
TERNARY = {t: codes.ternary_hamming(t) for t in (1, 2)}

#: (entries per code symbol, locator, its oracle, codes by t)
LOCATORS = {
    "binary": (1, constructions.locate_tile_binary, locate_tile_binary_oracle, BINARY),
    "ternary": (2, constructions.locate_tile_ternary, locate_tile_ternary_oracle, TERNARY),
}


def _result_or_type(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _perturbed_hamming(data):
    """A Hamming code and its distinct words, moved, dropped or added, shuffled."""
    code = data.draw(st.sampled_from([*BINARY.values(), *TERNARY.values()]))
    words = list(code.codewords)
    random.Random(data.draw(st.integers(0, 2**32))).shuffle(words)
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(words) - 1))
        j = data.draw(st.integers(0, code.length - 1))
        symbol = data.draw(st.integers(0, code.q - 1))
        words[i] = words[i][:j] + (symbol,) + words[i][j + 1 :]
    if data.draw(st.booleans()):
        words.append(tuple(data.draw(st.integers(0, code.q - 1)) for _ in range(code.length)))
    if len(words) > 1 and data.draw(st.booleans()):
        words.pop(data.draw(st.integers(0, len(words) - 1)))
    return code, tuple(dict.fromkeys(words))


def test_perfect_matches_sphere_walk():
    # Hamming codes with codewords moved, dropped or added, in shuffled order
    seen = set()

    @PROFILE
    @given(data=st.data())
    def check(data):
        code, words = _perturbed_hamming(data)
        perturbed = BlockCode(q=code.q, length=code.length, codewords=words)
        want = is_perfect_oracle(perturbed)
        assert is_perfect(perturbed) == want
        seen.add(want[1].split()[0])

    check()
    assert seen == {"perfect:", "size", "spheres"}


def test_block_code_matches_tuple_validation():
    # shuffled, duplicated, ragged, out of range, negative, past int64 and empty
    # word lists: the same verdict naming the same word, and the same set, sorted
    seen = set()
    huge = [2**63, 2**70, -(2**63) - 1]

    @PROFILE
    @given(data=st.data())
    def check(data):
        q, length = data.draw(st.sampled_from([2, 3])), data.draw(st.integers(1, 4))
        words = list(data.draw(st.sets(st.tuples(*[st.integers(0, q - 1)] * length),
                                       max_size=8)))
        bad = {"outside": st.integers(q, q + 1), "negative": st.integers(-2, -1),
               "huge": st.sampled_from(huge)}
        changes = st.sampled_from([None, *bad, "ragged", "duplicate"])
        for change in (data.draw(changes), data.draw(changes)):
            if change is None or not words:
                continue
            i = data.draw(st.integers(0, len(words) - 1))
            if change == "ragged":
                words[i] = words[i][:-1] if data.draw(st.booleans()) else words[i] + (0,)
            elif change == "duplicate":
                words.append(words[i])
            else:
                words[i] = (data.draw(bad[change]),) + words[i][1:]
        words = data.draw(st.permutations(words))
        want = _outcome(lambda: TupleCode(q, length, tuple(words)).codewords)
        got = _outcome(lambda: BlockCode(q=q, length=length, codewords=words).codewords)
        if _failed(want):
            message = want[1].replace(f"has symbols outside Z_{q}", f"outside window of period {q}")
            assert got == ("ValueError", message)
            seen.add("duplicate" if "duplicate" in message else "length" if "length" in message
                     else "past-int64" if any(str(v) in message for v in huge)
                     else "negative" if "-" in message else "range")
            return
        assert got == tuple(sorted(words)) and set(got) == set(words)
        for rows in (np.array(got, dtype=np.int64).reshape(-1, length), [list(w) for w in got]):
            assert BlockCode(q=q, length=length, codewords=rows).codewords == got
        seen.add("accepted" if words else "empty")

    check()
    assert seen == {"accepted", "empty", "length", "duplicate", "range", "negative",
                    "past-int64"}


def test_derived_codes_match_tuple_code():
    # puncture, weight split and minimum distance of perturbed Hamming codes
    seen = set()

    @PROFILE
    @given(data=st.data())
    def check(data):
        code, words = _perturbed_hamming(data)
        new = BlockCode(q=code.q, length=code.length, codewords=words)
        old = TupleCode(q=code.q, length=code.length, codewords=words)
        pairs = [(codes.puncture, puncture_oracle), (codes.weight_split, weight_split_oracle)]
        if len(words) <= 256:  # the pairwise scan of the 2,048-word code takes 0.1 s
            pairs.append((codes.min_hamming_distance, min_hamming_distance_oracle))
        for fn, oracle in pairs:
            want = _as_set(_outcome(oracle, old))
            assert _as_set(_outcome(fn, new)) == want
            seen.add((fn.__name__, _failed(want)))

    check()
    assert seen >= {("puncture", False), ("puncture", True), ("weight_split", False),
                    ("weight_split", True), ("min_hamming_distance", False)}


def test_to_binary_perfect_matches_tuple_round_trip():
    # binary and punctured tilings, some with a codeword dropped or moved
    seen = set()

    @PROFILE
    @given(data=st.data())
    def check(data):
        t = data.draw(st.sampled_from([2, 3]))
        build = data.draw(st.sampled_from([constructions.from_binary_perfect,
                                           constructions.punctured_construction]))
        tiling = build(BINARY[t])
        words = set(tiling.codewords)
        change = data.draw(st.sampled_from(["none", "drop", "move"]))
        if change != "none":
            words.discard(data.draw(st.sampled_from(sorted(words))))
        if change == "move":
            words.add(tuple(data.draw(st.integers(0, 3)) for _ in range(tiling.n)))
        tiling = PeriodicTiling(n=tiling.n, p=4, codewords=words)
        want = _as_set(_outcome(to_binary_perfect_oracle, tiling))
        assert _as_set(_outcome(constructions.to_binary_perfect, tiling)) == want
        seen.add(_failed(want))

    check()
    assert seen == {False, True}
    period_12 = PeriodicTiling(n=2, p=12, codewords=LAMBDA2_WORDS)
    assert (_outcome(constructions.to_binary_perfect, period_12)
            == _outcome(to_binary_perfect_oracle, period_12))


@PROFILE
@given(kind=st.sampled_from(sorted(LOCATORS)), data=st.data())
def test_locators_match_oracle(kind, data):
    m, locate, oracle, by_t = LOCATORS[kind]
    code = by_t[data.draw(st.sampled_from(sorted(by_t)))]
    a = tuple(data.draw(st.lists(POINT_ENTRY, min_size=m * code.length,
                                 max_size=m * code.length)))
    assert locate(a, code) == oracle(a, code)
    # a point of the wrong length
    short = a[: data.draw(st.integers(0, len(a) - 1))]
    longer = a + tuple(data.draw(st.lists(POINT_ENTRY, min_size=1, max_size=3)))
    for bad in (short, longer):
        assert _result_or_type(locate, bad, code) is ValueError
        assert _result_or_type(oracle, bad, code) is ValueError


@pytest.mark.parametrize("kind", sorted(LOCATORS))
def test_locators_match_oracle_on_every_residue(kind):
    # every block at each residue in turn, moved far out by multiples of the period
    m, locate, oracle, by_t = LOCATORS[kind]
    residues = list(itertools.product(range(4))) if m == 1 else list(
        itertools.product(range(3), range(4)))
    for code in by_t.values():
        n = m * code.length
        far = [12 * (-1) ** i * (10**10 + i) for i in range(n)]
        for r in residues:
            a = tuple(v + f for v, f in zip(r * code.length, far))
            assert locate(a, code) == oracle(a, code)


@PROFILE
@given(data=st.data())
def test_locators_refuse_the_other_alphabet(data):
    # the binary locator always refused a ternary code; the ternary one only
    # when the decoded word left Z_2, and lifted a binary codeword otherwise
    entry = st.integers(-(10**12), 10**12)
    t = data.draw(st.sampled_from(sorted(TERNARY)))
    a = tuple(data.draw(st.lists(entry, min_size=TERNARY[t].length,
                                 max_size=TERNARY[t].length)))
    assert _result_or_type(constructions.locate_tile_binary, a, TERNARY[t]) is ValueError
    assert _result_or_type(locate_tile_binary_oracle, a, TERNARY[t]) is ValueError
    t = data.draw(st.sampled_from(sorted(BINARY)))
    a = tuple(data.draw(st.lists(entry, min_size=2 * BINARY[t].length,
                                 max_size=2 * BINARY[t].length)))
    assert _result_or_type(constructions.locate_tile_ternary, a, BINARY[t]) is ValueError
    out = _result_or_type(locate_tile_ternary_oracle, a, BINARY[t])
    assert out is ValueError or covers(out, a)


def test_ternary_locator_matches_oracle_at_t3():
    code = codes.ternary_hamming(3)
    n = 2 * code.length
    points = [(0,) * n, tuple(range(n)), tuple(range(-n, 0)),
              tuple((-1) ** i * 10**12 + i for i in range(n)),
              tuple(i * 7919 % 23 - 11 for i in range(n))]
    for a in points:
        assert constructions.locate_tile_ternary(a, code) == locate_tile_ternary_oracle(a, code)


@pytest.mark.parametrize(
    "build, oracle, code",
    [(constructions.from_binary_perfect, from_binary_perfect_oracle, c) for c in BINARY.values()]
    + [(constructions.from_ternary_perfect, from_ternary_perfect_oracle, c)
       for c in TERNARY.values()],
    ids=[f"binary-t{t}" for t in BINARY] + [f"ternary-t{t}" for t in TERNARY],
)
def test_constructions_match_oracle(build, oracle, code):
    assert build(code) == oracle(code)
    # a code that is not perfect (a weight-1 word added), and one over the other alphabet
    unit = (1,) + (0,) * (code.length - 1)
    bad = BlockCode(q=code.q, length=code.length, codewords=code.codewords + (unit,))
    other = BINARY[2] if code.q == 3 else TERNARY[1]
    for c in (bad, other):
        assert _result_or_type(build, c) is _result_or_type(oracle, c) is ValueError


#: small tori, (2, 4) failing the divisibility precheck
SEARCH_TORI = [(1, 4), (1, 8), (1, 12), (2, 4), (2, 6), (2, 12), (2, 18),
               (3, 4), (3, 8), (3, 12), (4, 10)]


def _search_both(cfg):
    sols, stats = search_tilings(cfg)
    want_sols, want_stats = search_tilings_oracle(cfg)
    assert stats == want_stats
    assert [s.codewords for s in sols] == [s.codewords for s in want_sols]
    return stats


@PROFILE
@given(torus=st.sampled_from(SEARCH_TORI), budget=st.integers(1, 50),
       wanted=st.integers(1, 3), symmetry=st.booleans())
def test_search_matches_tuple_search_node_for_node(torus, budget, wanted, symmetry):
    # the same nodes, backtracks, status and solutions in the same order, also
    # when the node budget or the solution count stops the search part way
    n, p = torus
    _search_both(SearchConfig(n=n, p=p, max_solutions=wanted,
                              symmetry_breaking=symmetry, node_budget=budget))


@pytest.mark.parametrize("n, p, symmetry", [(1, 8, False), (2, 12, True), (2, 12, False),
                                            (3, 4, False), (2, 24, True)])
def test_search_matches_tuple_search_to_completion(n, p, symmetry):
    stats = _search_both(SearchConfig(n=n, p=p, max_solutions=10**6, symmetry_breaking=symmetry))
    assert stats.status == "complete"
