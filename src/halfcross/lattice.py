"""Integer lattices: exact volumes, membership, the ternary-construction lattice.

All arithmetic here is exact (Python ints / Fractions); floating point is
deliberately avoided because these quantities feed certificates.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
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
        if len(self.generator) != self.n or any(
            len(r) != self.n for r in self.generator
        ):
            raise ValueError(f"generator must be {self.n}x{self.n}")
        if _det(self.generator) == 0:
            raise ValueError("generator rows are linearly dependent")


def _det(rows: tuple[Point, ...]) -> int:
    # Bareiss fraction-free elimination; exact for integer matrices.
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def volume(lattice: IntegerLattice) -> int:
    """|det G|, the number of cosets of the lattice in Z^n."""
    d = _det(lattice.generator)
    if d == 0:
        raise ValueError("singular generator matrix")
    return abs(d)


def lambda_lattice(nu: int) -> IntegerLattice:
    """The 2*nu-dimensional lattice spanned by 3e_{2i-1}+2e_{2i} and 4e_{2i}.

    This is the lattice underlying the ternary construction; its volume is
    12^nu and its period is 12.
    """
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    n = 2 * nu
    rows = []
    for i in range(nu):
        a = [0] * n
        a[2 * i] = 3
        a[2 * i + 1] = 2
        rows.append(tuple(a))
        b = [0] * n
        b[2 * i + 1] = 4
        rows.append(tuple(b))
    return IntegerLattice(n=n, generator=tuple(rows))


def contains(lattice: IntegerLattice, x: Point) -> bool:
    """True iff x is an integer combination of the generator rows.

    Solves u G = x exactly over the rationals and checks integrality.
    """
    n = lattice.n
    if len(x) != n:
        raise ValueError(f"point length {len(x)} != lattice dimension {n}")
    # Augmented system G^T u^T = x^T solved by exact Gaussian elimination.
    a = [[Fraction(lattice.generator[c][r]) for c in range(n)] + [Fraction(x[r])]
         for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular generator matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return all(a[r][n].denominator == 1 for r in range(n))


def window(lattice: IntegerLattice, p: int) -> set[Point]:
    """All lattice points with coordinates in {0,..,p-1}.

    Requires the lattice to be p-periodic (p*e_i in the lattice for all i);
    then the window is the subgroup of (Z_p)^n generated by the rows mod p,
    of size p^n / volume.
    """
    n = lattice.n
    for i in range(n):
        e = tuple(p if j == i else 0 for j in range(n))
        if not contains(lattice, e):
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
