"""Integer lattices: exact volumes, membership, the ternary-construction lattice.

Every lattice question (rank, volume, membership, p-periodicity) is answered
by one row Hermite normal form in exact Python ints; floating point is
deliberately avoided because these quantities feed certificates.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import prod
from pathlib import Path

from . import _fileformat
from .geometry import Point


class LatticeFormatError(_fileformat.FormatError):
    """A LATTICE v1 file failed to parse."""


@dataclass(frozen=True)
class IntegerLattice:
    """A rank-n integer lattice; rows of ``generator`` are the basis vectors."""

    n: int
    generator: tuple[Point, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if len(self.generator) != self.n or any(len(r) != self.n for r in self.generator):
            raise ValueError(f"generator must be {self.n}x{self.n}")
        if _hnf(self.generator) is None:
            raise ValueError("generator rows are linearly dependent")


def _hnf(rows: Sequence[Point]) -> list[list[int]] | None:
    """Row Hermite normal form of a square integer matrix, None below full rank.

    Upper triangular with positive pivots, each entry above a pivot reduced
    into [0, pivot); the rows span the same lattice as ``rows``.  Per column,
    Euclid on the rows from the pivot down leaves one nonzero entry, which
    then reduces the rows above it.
    """
    n = len(rows)
    h = [list(r) for r in rows]
    for k in range(n):
        while True:
            live = [r for r in range(k, n) if h[r][k] != 0]
            if not live:
                return None
            piv = min(live, key=lambda r: abs(h[r][k]))
            h[k], h[piv] = h[piv], h[k]
            if len(live) == 1:
                break
            for r in range(k + 1, n):
                q = h[r][k] // h[k][k]
                h[r] = [a - q * b for a, b in zip(h[r], h[k])]
        if h[k][k] < 0:
            h[k] = [-v for v in h[k]]
        for r in range(k):
            q = h[r][k] // h[k][k]
            h[r] = [a - q * b for a, b in zip(h[r], h[k])]
    return h


def _reduce(hnf: list[list[int]], x: Point) -> list[int]:
    """x minus the lattice vector that brings entry k into [0, hnf[k][k]);
    all zero exactly when x lies in the lattice of hnf."""
    x = list(x)
    for k, row in enumerate(hnf):
        q = x[k] // row[k]
        x = [a - q * b for a, b in zip(x, row)]
    return x


def volume(lattice: IntegerLattice) -> int:
    """|det G|, the number of cosets of the lattice in Z^n."""
    return prod(row[k] for k, row in enumerate(_hnf(lattice.generator)))


def lambda_lattice(nu: int) -> IntegerLattice:
    """The 2*nu-dimensional lattice spanned by 3e_{2i-1}+2e_{2i} and 4e_{2i}.

    This is the lattice underlying the ternary construction; its volume is
    12^nu and its period is 12.
    """
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    rows = tuple(
        (0,) * (2 * i) + pair + (0,) * (2 * (nu - 1 - i))
        for i in range(nu)
        for pair in ((3, 2), (0, 4))
    )
    return IntegerLattice(n=2 * nu, generator=rows)


def contains(lattice: IntegerLattice, x: Point) -> bool:
    """True iff x is an integer combination of the generator rows."""
    if len(x) != lattice.n:
        raise ValueError(f"point length {len(x)} != lattice dimension {lattice.n}")
    return not any(_reduce(_hnf(lattice.generator), x))


def window(lattice: IntegerLattice, p: int) -> set[Point]:
    """All lattice points with coordinates in {0,..,p-1}.

    Requires the lattice to be p-periodic (p*e_i in the lattice for all i);
    then the window is the subgroup of (Z_p)^n generated by the rows mod p,
    of size p^n / volume.
    """
    n = lattice.n
    hnf = _hnf(lattice.generator)
    for i in range(n):
        if any(_reduce(hnf, tuple(p if j == i else 0 for j in range(n)))):
            raise ValueError(f"lattice is not {p}-periodic (missing {p}*e_{i + 1})")
    gens = [tuple(v % p for v in row) for row in lattice.generator]
    return _subgroup(gens, n, p)


def _subgroup(
    gens: Sequence[Point], n: int, p: int, within: set[Point] | None = None
) -> set[Point] | None:
    # Closure of an abelian generating set inside (Z_p)^n.  With ``within``,
    # None as soon as the closure leaves that set, so a non-subgroup never
    # grows toward p^n; the scan stops once the closure fills it.
    zero = (0,) * n
    group: set[Point] = {zero}
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


def is_lattice_tiling(tiling) -> bool:
    """Whether a verified periodic tiling's codeword set is a lattice mod p.

    True iff the window codewords form a subgroup of (Z_p)^n under addition;
    then T + pZ^n is an integer lattice.  Uses incremental subgroup closure
    (the subgroup at least doubles per added generator), so the scan is
    near-linear in the codeword count.  Raises ValueError when the codewords
    form a subgroup whose size cannot tile the window, so the input was not
    a tiling.
    """
    p, n = tiling.p, tiling.n
    target = set(tiling.codewords)
    if (0,) * n not in target:
        return False
    # every codeword is a generator, so a closure that stays inside the
    # target ends equal to it
    if _subgroup(tiling.codewords, n, p, within=target) is None:
        return False
    # a lattice tiling's volume equals the shape size
    shape_size = 2**n * (n + 1)
    if p**n != len(target) * shape_size:
        raise ValueError(
            f"not a tiling: {len(target)} codewords of {shape_size} cells "
            f"do not fill {p}^{n} = {p**n} cells"
        )
    return True


def write_lattice(lattice: IntegerLattice, path: str | Path) -> None:
    """Write a LATTICE v1 file."""
    _fileformat.write(path, "LATTICE v1", {"n": lattice.n}, lattice.generator)


def read_lattice(path: str | Path) -> IntegerLattice:
    """Parse a LATTICE v1 file."""
    return _fileformat.read(
        path, "LATTICE v1", ("n",), LatticeFormatError,
        lambda n, rows: IntegerLattice(n=n, generator=rows),
    )
