"""Block codes over Z_2 and Z_3: Hamming generation, perfectness, derived codes.

A code holds its codewords the way a tiling does: one sorted, read-only
array (desk scale).  Generated Hamming codes use a fixed parity-check column
order so output is byte-reproducible, and are encoded systematically: the unit
columns of the parity-check matrix are the check positions, every other
position is free.  Perfectness is decided by sorting the radius-1 sphere words
as base-q keys; decoding walks one sphere.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from functools import cached_property
from itertools import product
from pathlib import Path

import numpy as np

from . import _fileformat
from .geometry import (Point, _at_least, _first_repeat, _integer_entries, _tuples, _WordArray,
                       pairwise_minimum)
from .tiling import window_exceeds

#: largest codeword list we materialize (3^11, the ternary t=3 code size)
MAX_CODEWORDS = 3**11
MAX_LENGTH = 31
MAX_TERNARY_LENGTH = 13


class CodeFormatError(_fileformat.FormatError):
    """A CODE v1 file failed to parse."""


class BlockCode(_WordArray):
    """A code over Z_q given by its full codeword list.

    ``codewords`` may be any sequence of rows or an integer array; ``words``
    holds them as one sorted, read-only (k, length) uint8 array, and
    ``codewords`` is its sorted tuple view, kept from its first access (a
    tiling's is not), because :func:`decode_within_1` reads it on every call.
    """

    _header = ("q", "length")

    def __init__(self, q: int, length: int, codewords):
        if (q := _at_least(q, -math.inf, "alphabet size")) not in (2, 3):
            raise ValueError(f"alphabet size must be 2 or 3, got {q}")
        length = _at_least(length, 1, "length")
        self.q, self.length = q, length
        super().__init__(codewords, length, q)

    @cached_property  # rebuilt on each decode, it would cost an n = 26 locate 59,049 tuples
    def codewords(self) -> tuple[Point, ...]:
        return _tuples(self.words)


def _hamming(q: int, t: int) -> BlockCode:
    # Parity-check columns: the nonzero t-vectors over Z_q whose first nonzero
    # entry is 1, in ascending numeric order (big-endian digits).  The unit
    # columns mark the check positions and every other position is free, so
    # the code is systematic: x_check = -H_free x_free mod q.
    cols = [c for c in product(range(q), repeat=t) if any(c) and next(filter(None, c)) == 1]
    check = [cols.index(tuple(int(i == r) for i in range(t))) for r in range(t)]
    free = [j for j in range(len(cols)) if j not in check]
    k = len(free)
    if q**k > MAX_CODEWORDS:
        raise ValueError(f"code with {q}^{k} codewords exceeds desk scale")
    # -H_free^T; the guard keeps k (q-1)^2 below 256, so uint8 sums never wrap
    neg = ((-np.array(cols, dtype=np.int64)[free]) % q).astype(np.uint8)
    x = np.zeros((q**k, len(cols)), dtype=np.uint8)
    x[:, free] = np.indices((q,) * k, dtype=np.uint8).reshape(k, q**k).T
    x[:, check] = x[:, free] @ neg % q
    return BlockCode(q=q, length=len(cols), codewords=x)


def binary_hamming(t: int) -> BlockCode:
    """The binary Hamming code of length 2^t - 1, as an explicit codeword list.

    Parity-check columns are the nonzero binary t-vectors in ascending
    numeric order.  t=1 gives the degenerate length-1 code {0}.
    """
    t = _at_least(t, 1, "t")
    if window_exceeds(2, t, MAX_LENGTH + 1):  # 2^t - 1 > MAX_LENGTH, 2^t not built
        raise ValueError(f"length 2^{t} - 1 exceeds guard {MAX_LENGTH}")
    if t == 1:
        warnings.warn("binary_hamming(1) is the degenerate length-1 code {0}")
    return _hamming(2, t)


def ternary_hamming(t: int) -> BlockCode:
    """The ternary Hamming code of length (3^t - 1)/2 with 3^(length-t) codewords.

    Parity-check columns are the nonzero ternary t-vectors whose first
    nonzero entry is 1, in ascending numeric order.
    """
    t = _at_least(t, 1, "t")
    if window_exceeds(3, t, 2 * MAX_TERNARY_LENGTH + 1):  # (3^t - 1)/2 > the guard
        raise ValueError(f"length (3^{t} - 1)/2 exceeds guard {MAX_TERNARY_LENGTH}")
    return _hamming(3, t)


def min_hamming_distance(code: BlockCode) -> int:
    """Minimum pairwise Hamming distance; needs at least two codewords."""
    return pairwise_minimum(code.words, lambda a, b: (a != b).sum(axis=-1))


def _sphere(word: Point, q: int) -> Iterator[Point]:
    # The radius-1 Hamming sphere around word: the word itself, then each
    # single-symbol change, ordered by position and then by symbol.
    yield word
    for i, wi in enumerate(word):
        for s in range(q):
            if s != wi:
                yield word[:i] + (s,) + word[i + 1 :]


def is_perfect(code: BlockCode) -> tuple[bool, str]:
    """Whether radius-1 Hamming spheres around the codewords partition Z_q^n.

    Checked as: sphere-size times code-size equals q^n, and the spheres are
    pairwise disjoint (equivalent to minimum distance >= 3).  Returns the
    verdict with the reason for a failure, which names the first sphere word,
    in the order of :func:`_sphere` over the sorted codewords, seen twice.
    """
    q, n = code.q, code.length
    sphere = 1 + n * (q - 1)
    # q^n is built only when its bit length is near that of k * sphere
    if window_exceeds(q, n, len(code) * sphere) or len(code) * sphere != q**n:
        return False, f"size check failed: {len(code)} * {sphere} != {q}^{n}"
    # every sphere word as a base-q integer (first entry most significant),
    # in _sphere's order: the word, then per position each other symbol ascending
    words = code.words.astype(np.int64)
    weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    other = np.arange(q - 1)
    other = other + (other >= words[:, :, None])  # (k, n, q - 1) replacement symbols
    centre = words @ weights
    moved = centre[:, None, None] + (other - words[:, :, None]) * weights[:, None]
    keys = np.concatenate([centre[:, None], moved.reshape(len(words), -1)], axis=1).ravel()
    _, repeat = _first_repeat(keys)
    if repeat is not None:
        first = int(keys[repeat])
        return False, f"spheres overlap at {tuple(first // int(w) % q for w in weights)}"
    return True, "perfect: sphere packing covers all words exactly once"


def puncture(code: BlockCode) -> BlockCode:
    """Drop the last coordinate of every codeword."""
    if code.length < 2:
        raise ValueError("cannot puncture a length-1 code")
    words = np.unique(code.words[:, :-1], axis=0)
    if len(words) != len(code):
        raise ValueError("puncturing collided codewords (minimum distance < 2?)")
    return BlockCode(q=code.q, length=code.length - 1, codewords=words)


def weight_split(code: BlockCode) -> tuple[BlockCode, BlockCode]:
    """Partition a binary code by parity of Hamming weight: (even, odd)."""
    if code.q != 2:
        raise ValueError("weight split is defined for binary codes only")
    odd = np.count_nonzero(code.words, axis=1) % 2 == 1
    return (
        BlockCode(q=2, length=code.length, codewords=code.words[~odd]),
        BlockCode(q=2, length=code.length, codewords=code.words[odd]),
    )


def decode_within_1(code: BlockCode, word: Point) -> Point | None:
    """The codeword at Hamming distance <= 1 from word, or None.

    Unique for a perfect code.  Tries distance 0, then each single-symbol
    change in canonical order (position, then symbol), so the answer is
    deterministic even for non-perfect input.
    """
    if len(word) != code.length:
        raise ValueError(f"word length {len(word)} != code length {code.length}")
    entries = _integer_entries(word, "word entry")
    if any(s < 0 or s >= code.q for s in entries):
        raise ValueError(f"word {word} has symbols outside Z_{code.q}")
    table = set(code.codewords)
    return next((v for v in _sphere(entries, code.q) if v in table), None)


def write_code(code: BlockCode, path: str | Path) -> None:
    """Write a CODE v1 file (line-oriented ASCII, codewords sorted)."""
    header = {"q": code.q, "n": code.length, "count": len(code)}
    _fileformat.write(path, "CODE v1", header, code.words)


def read_code(path: str | Path) -> BlockCode:
    """Parse a CODE v1 file."""
    return _fileformat.read(
        path, "CODE v1", ("q", "n", "count"), CodeFormatError,
        lambda q, n, _, words: BlockCode(q=q, length=n, codewords=words),
    )
