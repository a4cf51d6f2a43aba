"""Points, the cross distance, argument checks, sorted word arrays, the half-cross offsets.

The shape of interest is the (0.5, n)-cross scaled by two: a discrete body of
2^n(n+1) unit cells.  We represent it purely by its codeword-relative offset
set Upsilon_n: a codeword X covers a cell A exactly when X - A lies in it.
Only :func:`_offsets` enumerates it; :class:`UpsilonShape` has a tuple view for callers.
Tuple views (a word array's ``codewords``, a shape's ``offsets``) are built on
each access, not kept; only a code keeps its ``codewords`` (see :mod:`.codes`).

Points are read as Python ints, so numpy scalar entries never wrap.  Three
kernels state each formula once: the torus wrap, the cross sum and the shape
test; the cross distance and :func:`covers` apply them to the difference array
of :func:`_pair`, the verifier's minimum cross distance and witness to arrays.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain

import numpy as np

Point = tuple[int, ...]

#: pairwise minima compare row blocks against all k rows, about this many entries at once
_PAIR_CHUNK = 2_000_000


class DimensionMismatch(ValueError):
    """Two points of different lengths were combined."""


def _at_least(value, low, what: str) -> int:
    """value as a Python int; ValueError unless it is an integer (has ``__index__``)
    of at least low (-math.inf: any integer).  Every size argument is checked here."""
    if not hasattr(value, "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    return value


def _integer_entries(entries, what: str = "point entry") -> Point:
    """The entries as Python ints; ValueError names the first that is not an integer."""
    if bad := [v for v in entries if not hasattr(v, "__index__")]:
        raise ValueError(f"{what} {bad[0]} is not an integer")
    return tuple(map(operator.index, entries))


def _pair(x: Point, y: Point) -> np.ndarray:
    """y - x as an object array of Python ints: every distance and cover test reads it."""
    if len(x) != len(y):
        raise DimensionMismatch(f"length {len(x)} vs {len(y)}")
    v = _integer_entries((*x, *y))
    return np.array(v[len(x):], dtype=object) - np.array(v[:len(x)], dtype=object)


def _wrap(d, p: int):
    # each |d_i| on the torus Z_p: min(d_i mod p, p - d_i mod p)
    d = d % p
    return np.minimum(d, p - d)


def _cross_sum(d):
    # the cross distance of the differences d along the last axis
    return np.maximum(abs(d) - 1, 0).sum(axis=-1)


def _in_shape(d):
    # whether each row of d lies in Upsilon_n: every entry in -1..2, at most one in {-1, 2}
    arm = (d == -1) | (d == 2)
    return ((d >= -1) & (d <= 2)).all(axis=-1) & (arm.sum(axis=-1) <= 1)


def cross_distance(x: Point, y: Point) -> int:
    """Sum over coordinates of max(0, |y_i - x_i| - 1).

    Not a metric: it violates the triangle inequality, but two shape
    translates at X and Y are disjoint exactly when this is >= 3.
    """
    return _cross_sum(_pair(x, y))


def pairwise_minimum(
    words: np.ndarray, distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> int:
    """Minimum of ``distance`` over pairs of distinct rows of the k x n array words.

    ``distance(a, b)`` maps broadcast row arrays of shape (..., n) to integer
    distances of shape (...).  A block of rows is compared against all rows
    at once, with each row's distance to itself masked out.  Raises
    ValueError for fewer than two rows.
    """
    k = len(words)
    if k < 2:
        raise ValueError(f"pairwise minimum needs at least 2 words, got {k}")
    best = None
    chunk = max(1, _PAIR_CHUNK // (k * words.shape[1]))
    for lo in range(0, k, chunk):
        d = distance(words[lo : lo + chunk, None, :], words[None, :, :])
        rows = np.arange(d.shape[0])
        d[rows, lo + rows] = d.max() + 1  # above every distance, in any dtype
        m = int(d.min())
        best = m if best is None else min(best, m)
    return best


def _row_keys(words: np.ndarray) -> np.ndarray:
    """One key per row of an unsigned array; keys compare bytewise like the rows
    lexicographically, since the entries are written big-endian (nothing wraps)."""
    big = np.ascontiguousarray(words, dtype=words.dtype.newbyteorder(">"))
    return big.view(np.dtype((np.void, big.itemsize * big.shape[1]))).ravel()


def _first_repeat(keys: np.ndarray) -> tuple[np.ndarray, int | None]:
    """A stable argsort of keys, and the first position, in the given order, whose key
    equals an earlier one (None if none does): a stable sort puts each key's first
    occurrence first among its equals."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    repeat = ranked[1:] == ranked[:-1]
    return order, int(order[1:][repeat].min()) if repeat.any() else None


def _sorted_words(codewords, n: int, p: int) -> np.ndarray:
    """The codewords as a sorted array; ValueError names the first codeword, in the
    given order, of the wrong length, with an entry that is not an integer, outside
    0..p-1, or equal to an earlier one."""
    if n > np.iinfo(np.intp).max:  # no array has that many columns
        raise ValueError(f"word length {n} exceeds the largest array dimension")
    if not isinstance(codewords, np.ndarray):
        rows = tuple(codewords)
        try:
            codewords = np.asarray(rows)
        except ValueError:  # ragged rows
            codewords = None
        if codewords is None or codewords.dtype.kind not in "biu":
            # the entries as given: numpy would guess floats for ints past int64
            codewords = np.asarray(rows, dtype=object)
    if len(codewords) == 0:
        return np.empty((0, n), dtype=np.min_scalar_type(p - 1))
    if codewords.ndim != 2 or codewords.shape[1] != n:
        i = next(i for i, w in enumerate(codewords) if len(w) != n)
        _sorted_words(tuple(codewords[:i]), n, p)
        w = tuple(v.item() if isinstance(v, np.generic) else v for v in codewords[i])
        raise ValueError(f"codeword {w} has length != {n}")
    exact = codewords.dtype.kind in "biu"
    with np.errstate(invalid="ignore"):  # nan, and inf % 1 = nan, are fractions
        fraction = np.zeros(len(codewords), bool) if exact else (codewords % 1 != 0).any(axis=1)
        bad = fraction | ((codewords < 0) | (codewords >= p)).any(axis=1)
    end = int(np.argmax(bad)) if bad.any() else len(codewords)
    words = codewords[:end].astype(np.min_scalar_type(p - 1))
    order, repeat = _first_repeat(_row_keys(words))
    if repeat is not None:
        raise ValueError(f"duplicate codeword {tuple(map(int, words[repeat]))}")
    if end < len(codewords):
        why = "has a non-integer entry" if fraction[end] else f"outside window of period {p}"
        raise ValueError(f"codeword {tuple(codewords[end].tolist())} {why}")
    return words[order]


def _tuples(rows: np.ndarray) -> tuple[Point, ...]:  # rows as tuples of Python ints
    # zipped 4,096 rows at a time, so no more than that many column lists are alive
    return tuple(chain.from_iterable(zip(*rows[i : i + 4096].T.tolist())
                                     for i in range(0, len(rows), 4096)))


class _WordArray:
    """A set of words held as ``words``: one sorted, read-only (k, n) array of the
    smallest unsigned dtype for the alphabet, built by :func:`_sorted_words`.
    ``codewords`` is the same as a sorted tuple of tuples, built on each access, not
    kept (14 times the array at 12^8).  Equality and hash are on the attributes
    named in ``_header`` and the words."""

    _header: tuple[str, ...]

    def __init__(self, codewords, n: int, alphabet: int):
        self.words = _sorted_words(codewords, n, alphabet)
        self.words.flags.writeable = False

    @property
    def codewords(self) -> tuple[Point, ...]:
        return _tuples(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def _head(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self._header)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._head() == other._head() and np.array_equal(self.words, other.words)

    def __hash__(self) -> int:
        return hash((*self._head(), self.words.tobytes()))

    def __repr__(self) -> str:
        head = ", ".join(f"{name}={value}" for name, value in zip(self._header, self._head()))
        return f"{type(self).__name__}({head}, codewords={_tuples(self.words)!r})"


def index_to_point(idx: int, n: int, p: int) -> Point:
    """The cell of (Z_p)^n with mixed-radix index idx < p^n, coordinate 1 fastest."""
    rest = idx = _at_least(idx, 0, "index")
    p = _at_least(p, 1, "period")
    coords = []
    for _ in range(n := _at_least(n, 1, "dimension")):
        coords.append(rest % p)
        rest //= p
    if rest:  # p^n is not built
        raise ValueError(f"index {idx} is not below {p}^{n}")
    return tuple(coords)


def point_to_index(x: Point, p: int) -> int:
    """Inverse of :func:`index_to_point`; ValueError names an entry outside 0..p-1."""
    p = _at_least(p, 1, "period")
    x = _integer_entries(x)
    if bad := [v for v in x if not 0 <= v < p]:
        raise ValueError(f"point entry {bad[0]} is outside 0..{p - 1}")
    idx = 0
    for v in reversed(x):
        idx = idx * p + v
    return idx


def _offsets(n: int) -> np.ndarray:
    """Upsilon_n, the D in {-1,0,1,2}^n with at most one entry in {-1, 2}, as a
    (2^n (n+1), n) int8 array in the order the verifier writes its marks: the 2^n
    core rows (row i has bit j of i at coordinate j), then for each coordinate r
    the core rows with 0 at r, first with -1 put there and then with 2."""
    core = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(np.int8)
    arms = [np.where(np.arange(n) == r, e, core[core[:, r] == 0])
            for r in range(n) for e in (-1, 2)]
    return np.concatenate([core, *arms])


@dataclass(frozen=True)
class UpsilonShape:
    """The half-cross shape of dimension n.  ``offsets``, built on each access, not
    kept, is Upsilon_n (every D = X - A such that a codeword at X covers the cell A)
    as the lexicographically sorted tuple view of :func:`_offsets`."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _at_least(self.n, 1, "dimension"))

    def __len__(self) -> int:
        return 2**self.n * (self.n + 1)

    @property
    def offsets(self) -> tuple[Point, ...]:
        rows = _offsets(self.n)
        return _tuples(rows[np.lexsort(rows.T[::-1])])

    def torus_cells(self, x: Point, p: int) -> set[Point]:
        """The cells x - D, D in Upsilon_n, mod p; exact for integer entries of any size."""
        p = _at_least(p, 4, "period")
        return set(_tuples(-(_pair(x, (0,) * self.n) + _offsets(self.n)) % p))


#: upsilon_offsets(n) is a new n-dimensional half-cross; its offsets are built on each use
upsilon_offsets = UpsilonShape


def covers(x: Point, a: Point) -> bool:
    """True iff the codeword x covers the cell a, that is x - a lies in Upsilon_n:
    every x_i in {a_i-1, .., a_i+2} and at most one i with x_i in {a_i-1, a_i+2}."""
    return bool(_in_shape(-_pair(x, a)))
