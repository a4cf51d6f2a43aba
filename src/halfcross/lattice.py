"""Integer lattices: exact volumes, membership, the ternary-construction lattice.

Every lattice question (rank, volume, membership, p-periodicity, the window
mod p, whether a tiling's codewords form a subgroup) is answered by one row
Hermite normal form in exact Python ints, and by reduction against it, which
runs on whole arrays of points at once; floating point is deliberately
avoided because these quantities feed certificates.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .geometry import Point, _at_least, _integer_entries

#: is_lattice_tiling reduces the codewords this many rows at a time
_BLOCK = 4096


@dataclass(frozen=True)
class IntegerLattice:
    """A rank-n integer lattice: the rows of ``generator``, held as Python ints, are
    the basis vectors, and ``hnf`` is their Hermite normal form."""

    n: int
    generator: tuple[Point, ...]
    hnf: list[list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _at_least(self.n, 1, "dimension"))
        if len(self.generator) != self.n or any(len(r) != self.n for r in self.generator):
            raise ValueError(f"generator must be {self.n}x{self.n}")
        rows = tuple(_integer_entries(r, "generator entry") for r in self.generator)
        object.__setattr__(self, "generator", rows)
        object.__setattr__(self, "hnf", _hnf(rows))
        if self.hnf is None:
            raise ValueError("generator rows are linearly dependent")


def _hnf(rows: Sequence[Point]) -> list[list[int]] | None:
    """Row Hermite normal form of m >= n integer rows of length n, None below rank n.

    n rows, upper triangular with positive pivots, each entry above a pivot
    reduced into [0, pivot); they span the same lattice as ``rows``.  Per
    column, Euclid on the rows from the pivot down leaves one nonzero entry,
    which then reduces the rows above it; the m - n rows left over are zero.
    """
    m, n = len(rows), len(rows[0])
    h = [list(r) for r in rows]
    for k in range(n):
        while True:
            live = [r for r in range(k, m) if h[r][k] != 0]
            if not live:
                return None
            piv = min(live, key=lambda r: abs(h[r][k]))
            h[k], h[piv] = h[piv], h[k]
            if len(live) == 1:
                break
            for r in range(k + 1, m):
                q = h[r][k] // h[k][k]
                h[r] = [a - q * b for a, b in zip(h[r], h[k])]
        if h[k][k] < 0:
            h[k] = [-v for v in h[k]]
        for r in range(k):
            q = h[r][k] // h[k][k]
            h[r] = [a - q * b for a, b in zip(h[r], h[k])]
    return h[:n]


def _reduce(hnf: list[list[int]], x: np.ndarray, modulus: int | None = None) -> np.ndarray:
    """Each row of the (m, n) array x minus the lattice vector that brings entry k
    into [0, hnf[k][k]): zero exactly for rows in the lattice.  With ``modulus`` (whose
    multiples of each e_i lie in the lattice) rows are also kept below it."""
    for k, row in enumerate(hnf):
        x = x - (x[:, k] // row[k])[:, None] * np.array(row, dtype=x.dtype)
        if modulus is not None:
            x %= modulus
    return x


def _exact_dtype(p: int):
    # int64 holds the products of two entries below p; object (Python ints) beyond
    return np.int64 if p < 2**31 else object


def volume(lattice: IntegerLattice) -> int:
    """|det G|, the number of cosets of the lattice in Z^n."""
    return prod(row[k] for k, row in enumerate(lattice.hnf))


def _block_diagonal(block: Sequence[Point], nu: int) -> IntegerLattice:
    """The lattice L^nu: nu diagonal copies of the m x m block generator of L."""
    nu = _at_least(nu, 1, "nu")
    m = len(block)
    return IntegerLattice(n=m * nu, generator=tuple(
        (0,) * (m * i) + tuple(row) + (0,) * (m * (nu - 1 - i))
        for i in range(nu) for row in block
    ))


def lambda_lattice(nu: int) -> IntegerLattice:
    """The 2*nu-dimensional lattice spanned by 3e_{2i-1}+2e_{2i} and 4e_{2i}.

    This is the lattice underlying the ternary construction; its volume is
    12^nu and its period is 12.
    """
    return _block_diagonal(((3, 2), (0, 4)), nu)


def contains(lattice: IntegerLattice, x: Point) -> bool:
    """True iff x is an integer combination of the generator rows."""
    if len(x) != lattice.n:
        raise ValueError(f"point length {len(x)} != lattice dimension {lattice.n}")
    return not _reduce(lattice.hnf, np.array([_integer_entries(x)], dtype=object)).any()


def window(lattice: IntegerLattice, p: int) -> set[Point]:
    """All lattice points with coordinates in {0,..,p-1}, as tuples; see window_array."""
    return set(map(tuple, window_array(lattice, p).tolist()))


def window_array(lattice: IntegerLattice, p: int) -> np.ndarray:
    """All lattice points with coordinates in {0,..,p-1}, one per row, unordered.

    Requires the lattice to be p-periodic (p*e_i in the lattice for all i).
    Then each pivot h_kk of the HNF divides p, and the window is every
    sum of j_k * h_k mod p with 0 <= j_k < p / h_kk, each point once: p^n /
    volume points, built as one product over the HNF rows.
    """
    p = _at_least(p, 1, "period")
    n, hnf = lattice.n, lattice.hnf
    missing = _reduce(hnf, p * np.eye(n, dtype=object)).any(axis=1)
    if missing.any():
        i = int(np.argmax(missing))
        raise ValueError(f"lattice is not {p}-periodic (missing {p}*e_{i + 1})")
    points = np.zeros((1, n), dtype=_exact_dtype(p))
    for k, row in enumerate(hnf):
        steps = np.arange(p // row[k], dtype=points.dtype)[:, None] * np.array(row) % p
        points = ((points[:, None, :] + steps[None, :, :]) % p).reshape(-1, n)
    if len(points) * volume(lattice) != p**n:
        raise RuntimeError(f"window of {len(points)} points does not fill {p}^{n} / volume")
    return points


def is_lattice_tiling(tiling) -> bool:
    """Whether a verified periodic tiling's codewords T form a subgroup of (Z_p)^n,
    so that T + pZ^n is an integer lattice.

    Codewords are reduced, a block at a time, by the HNF of the generators so far
    with p*I; the first that does not reduce to zero joins the generators.  Their
    span S then holds T, and T is a subgroup exactly when |T| = |S| = p^n / prod(diag
    HNF).  S at least doubles per generator; the scan stops once |S| > |T|.  Raises
    ValueError when T is a subgroup whose size cannot tile the window.
    """
    p, n, k = tiling.p, tiling.n, len(tiling)
    hnf = [[p if i == j else 0 for j in range(n)] for i in range(n)]
    size = 1  # S = {0}
    words = tiling.words.astype(_exact_dtype(p))
    lo = 0
    while lo < k and size <= k:
        outside = _reduce(hnf, words[lo : lo + _BLOCK], p).any(axis=1)
        if outside.any():
            lo += int(np.argmax(outside))
            hnf = _hnf(hnf + [words[lo].tolist()])
            size = p**n // prod(row[i] for i, row in enumerate(hnf))
        lo += 1 if outside.any() else _BLOCK
    if size != k:
        return False
    # a lattice tiling's volume equals the shape size
    shape_size = 2**n * (n + 1)
    if p**n != k * shape_size:
        raise ValueError(
            f"not a tiling: {k} codewords of {shape_size} cells "
            f"do not fill {p}^{n} = {p**n} cells"
        )
    return True

