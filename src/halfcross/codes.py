"""Block codes over Z_2 and Z_3: Hamming generation, perfectness, derived codes.

Codes are stored as explicit codeword lists (desk scale).  Generated Hamming
codes use a fixed parity-check column order so output is byte-reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import _fileformat
from .geometry import Point, pairwise_minimum

#: largest codeword list we materialize (3^11, the ternary t=3 code size)
MAX_CODEWORDS = 3**11
MAX_LENGTH = 31
MAX_TERNARY_LENGTH = 13


class CodeFormatError(_fileformat.FormatError):
    """A CODE v1 file failed to parse."""


@dataclass(frozen=True)
class BlockCode:
    """A code over Z_q given by its full codeword list."""

    q: int
    length: int
    codewords: tuple[Point, ...]
    linear: bool | None = None

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


def _parity_check_columns(q: int, t: int, projective: bool) -> list[tuple[int, ...]]:
    # All nonzero t-vectors over Z_q in ascending numeric order (big-endian
    # digit reading); for projective=True only those whose first nonzero
    # entry is 1.
    cols = [col for col in product(range(q), repeat=t) if any(col)]
    return [col for col in cols if not projective or next(s for s in col if s) == 1]


def _null_space_codewords(h: np.ndarray, q: int) -> list[Point]:
    # Enumerate {x : h x^T = 0 mod q} by Gaussian elimination over GF(q).
    h = h.copy() % q
    t, n = h.shape
    pivots = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, t):
            if h[r, col] % q != 0:
                sel = r
                break
        if sel is None:
            continue
        h[[row, sel]] = h[[sel, row]]
        inv = pow(int(h[row, col]), -1, q)
        h[row] = (h[row] * inv) % q
        for r in range(t):
            if r != row and h[r, col] % q != 0:
                h[r] = (h[r] - h[r, col] * h[row]) % q
        pivots.append(col)
        row += 1
        if row == t:
            break
    free = [c for c in range(n) if c not in pivots]
    if q ** len(free) > MAX_CODEWORDS:
        raise ValueError(f"code with {q}^{len(free)} codewords exceeds desk scale")
    basis = np.zeros((len(free), n), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = (-h[r, fc]) % q
    # with no free column, product yields the one empty combination
    combos = np.array(list(product(range(q), repeat=len(free))), dtype=np.int64)
    return sorted(tuple(int(s) for s in w) for w in (combos @ basis) % q)


def binary_hamming(t: int) -> BlockCode:
    """The binary Hamming code of length 2^t - 1, as an explicit codeword list.

    Parity-check columns are the nonzero binary t-vectors in ascending
    numeric order.  t=1 gives the degenerate length-1 code {0}.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    n = 2**t - 1
    if n > MAX_LENGTH:
        raise ValueError(f"length {n} exceeds guard {MAX_LENGTH}")
    if t == 1:
        warnings.warn("binary_hamming(1) is the degenerate length-1 code {0}")
        return BlockCode(q=2, length=1, codewords=((0,),), linear=True)
    h = np.array(_parity_check_columns(2, t, projective=False), dtype=np.int64).T
    words = _null_space_codewords(h, 2)
    return BlockCode(q=2, length=n, codewords=tuple(words), linear=True)


def ternary_hamming(t: int) -> BlockCode:
    """The ternary Hamming code of length (3^t - 1)/2 with 3^(length-t) codewords.

    Parity-check columns are the nonzero ternary t-vectors whose first
    nonzero entry is 1, in ascending numeric order.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    nu = (3**t - 1) // 2
    if nu > MAX_TERNARY_LENGTH:
        raise ValueError(f"length {nu} exceeds guard {MAX_TERNARY_LENGTH}")
    if t == 1:
        return BlockCode(q=3, length=1, codewords=((0,),), linear=True)
    h = np.array(_parity_check_columns(3, t, projective=True), dtype=np.int64).T
    words = _null_space_codewords(h, 3)
    return BlockCode(q=3, length=nu, codewords=tuple(words), linear=True)


def min_hamming_distance(code: BlockCode) -> int:
    """Minimum pairwise Hamming distance; needs at least two codewords."""
    words = np.array(code.codewords, dtype=np.int8)
    return pairwise_minimum(words, lambda a, b: (a != b).sum(axis=-1))


def is_perfect(code: BlockCode) -> tuple[bool, str]:
    """Whether radius-1 Hamming spheres around the codewords partition Z_q^n.

    Checked as: sphere-size times code-size equals q^n, and the spheres are
    pairwise disjoint (equivalent to minimum distance >= 3).  Returns the
    verdict with the reason for a failure.
    """
    q, n = code.q, code.length
    sphere = 1 + n * (q - 1)
    if len(code.codewords) * sphere != q**n:
        return False, (
            f"size check failed: {len(code.codewords)} * {sphere} != {q}^{n}"
        )
    seen: set[Point] = set()
    for w in code.codewords:
        if w in seen:
            return False, f"spheres overlap at {w}"
        seen.add(w)
        for i in range(n):
            for s in range(q):
                if s == w[i]:
                    continue
                v = w[:i] + (s,) + w[i + 1 :]
                if v in seen:
                    return False, f"spheres overlap at {v}"
                seen.add(v)
    return True, "perfect: sphere packing covers all words exactly once"


def puncture(code: BlockCode) -> BlockCode:
    """Drop the last coordinate of every codeword."""
    if code.length < 2:
        raise ValueError("cannot puncture a length-1 code")
    words = sorted({w[:-1] for w in code.codewords})
    if len(words) != len(code.codewords):
        raise ValueError("puncturing collided codewords (minimum distance < 2?)")
    return BlockCode(q=code.q, length=code.length - 1, codewords=tuple(words))


def weight_split(code: BlockCode) -> tuple[BlockCode, BlockCode]:
    """Partition a binary code by parity of Hamming weight: (even, odd)."""
    if code.q != 2:
        raise ValueError("weight split is defined for binary codes only")
    even = tuple(w for w in code.codewords if sum(w) % 2 == 0)
    odd = tuple(w for w in code.codewords if sum(w) % 2 == 1)
    return (
        BlockCode(q=2, length=code.length, codewords=even),
        BlockCode(q=2, length=code.length, codewords=odd),
    )


def decode_within_1(code: BlockCode, word: Point) -> Point | None:
    """The codeword at Hamming distance <= 1 from word, or None.

    Unique for a perfect code.  Tries distance 0, then each single-symbol
    change in canonical order (position, then symbol), so the answer is
    deterministic even for non-perfect input.
    """
    if len(word) != code.length:
        raise ValueError(f"word length {len(word)} != code length {code.length}")
    if any(s < 0 or s >= code.q for s in word):
        raise ValueError(f"word {word} has symbols outside Z_{code.q}")
    table = set(code.codewords)
    if word in table:
        return word
    for i in range(code.length):
        for s in range(code.q):
            if s == word[i]:
                continue
            v = word[:i] + (s,) + word[i + 1 :]
            if v in table:
                return v
    return None


def write_code(code: BlockCode, path: str | Path) -> None:
    """Write a CODE v1 file (line-oriented ASCII, codewords sorted)."""
    header = {"q": code.q, "n": code.length, "count": len(code.codewords)}
    _fileformat.write(path, "CODE v1", header, sorted(code.codewords))


def read_code(path: str | Path) -> BlockCode:
    """Parse a CODE v1 file."""
    return _fileformat.read(
        path, "CODE v1", ("q", "n", "count"), CodeFormatError,
        lambda q, n, _, words: BlockCode(q=q, length=n, codewords=words),
    )
