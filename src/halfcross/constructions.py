"""The maps between perfect codes and half-cross tilings, plus tile locators.

Both constructions embed a perfect code of length nu symbol by symbol and add a
lattice: 2C + 4Z^nu over Z_4 for a binary code, phi(C) + Lambda over Z_12 for a
ternary one.  Each family is a route: the alphabet q, the embedding rows phi(s)
in Z^m, the block lattice L (4Z, or Lambda_2 spanned by (3, 2) and (0, 4)) and
the period p; its tiling is phi(C) + L^nu over (Z_p)^{m nu}.

The locator tables are derived from the route, not transcribed, and indexed by
a block's residue b in (Z_p)^m (coordinate 1 fastest, as in index_to_point).
Since p e_i lies in L, b fixes the block's class of Z^m / L; since Upsilon_m + L
tiles Z^m, each b and each symbol s have exactly one lift offset d in Upsilon_m
with b + d in phi(s) + L, and psi(b) is the one symbol whose offset lies in the
core {0,1}^m.  The derivation raises RuntimeError at import unless all three
hold.  A locator takes each block of the cell mod p, decodes the psi word
within radius 1 and adds the decoded symbols' lift offsets to the cell.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import lattice as lat
from .codes import BlockCode, binary_hamming, decode_within_1, is_perfect, ternary_hamming
from .geometry import (Point, _at_least, _integer_entries, _offsets, covers, index_to_point,
                       point_to_index)
from .tiling import PeriodicTiling

# pair representative of each ternary symbol
PHI = {0: (0, 0), 1: (1, 2), 2: (2, 0)}


class _Route(NamedTuple):
    """One code family: the tiling phi(C) + L^nu over (Z_p)^{m nu} and its tables."""

    q: int
    phi: np.ndarray  # (q, m) uint8, row s is phi(s)
    p: int
    hnf: list[list[int]]  # the block lattice L in Hermite normal form
    hamming: Callable[[int], BlockCode]  # t -> the family's Hamming code
    psi: np.ndarray  # (p^m,): psi(b) at the index of the residue b in (Z_p)^m
    lift: np.ndarray  # (p^m, q, m): the lift offset d of each symbol at that index


def _route(phi_rows: tuple[Point, ...], block: tuple[Point, ...], p: int, hamming) -> _Route:
    """Derive a route's psi and lift tables; RuntimeError unless L holds each p e_i,
    each residue has one lift offset per symbol and exactly one symbol whose offset
    lies in the core."""
    phi = np.array(phi_rows, dtype=np.int64)
    q, m = phi.shape
    hnf = lat._hnf(block)
    if lat._reduce(hnf, p * np.eye(m, dtype=np.int64)).any():
        raise RuntimeError(f"L does not contain p e_i, so a residue mod {p} is not one class")
    residues = np.array([index_to_point(b, m, p) for b in range(p**m)])
    offsets = _offsets(m)
    # hit[b, s, d]: b + d - phi(s) lies in L
    diff = residues[:, None, None] + offsets[None, None] - phi[None, :, None]
    hit = ~lat._reduce(hnf, diff.reshape(-1, m)).any(axis=1).reshape(diff.shape[:3])
    if (hit.sum(axis=2) != 1).any():
        raise RuntimeError("Upsilon_m + L does not give each residue one offset per symbol")
    lift = offsets[hit.argmax(axis=2)]
    core = ((lift == 0) | (lift == 1)).all(axis=2)
    if (core.sum(axis=1) != 1).any():
        raise RuntimeError("a residue does not have exactly one symbol lifting within the core")
    return _Route(q, phi.astype(np.uint8), p, hnf, hamming, core.argmax(axis=1), lift)


_BINARY = _route(((0,), (2,)), ((4,),), 4, binary_hamming)
_TERNARY = _route(tuple(PHI.values()), lat.lambda_lattice(1).generator, 12, ternary_hamming)
#: each code family's route, by the name of its tiling method
_ROUTES = {"binary": _BINARY, "ternary": _TERNARY}


def phi(symbol: int) -> tuple[int, int]:
    """Pair representative of a ternary symbol."""
    if (symbol := _at_least(symbol, -np.inf, "symbol")) not in PHI:
        raise ValueError(f"symbol must be in 0..2, got {symbol}")
    return PHI[symbol]


def psi(pair: tuple[int, int]) -> int:
    """Class index (0, 1, or 2) of a pair from {0,1,2} x {0,1,2,3}."""
    entries = _integer_entries(pair, "pair entry") if np.iterable(pair) else ()
    if len(entries) != 2 or entries[0] not in range(3) or entries[1] not in range(4):
        raise ValueError(f"pair must lie in Z~3 x Z~4, got {pair}")
    return int(_TERNARY.psi[point_to_index(entries, _TERNARY.p)])


def _require_alphabet(code: BlockCode, q: int) -> None:
    if code.q != q:
        raise ValueError(f"expected a code over Z_{q}, got Z_{code.q}")


def _require_perfect(code: BlockCode, q: int) -> None:
    _require_alphabet(code, q)
    ok, reason = is_perfect(code)
    if not ok:
        raise ValueError(f"code is not perfect: {reason}")


def _construct(code: BlockCode, route: _Route) -> PeriodicTiling:
    # the embedded code translated by the window of L^nu mod p, as one broadcast
    # sum; a repeated codeword raises RuntimeError
    _require_perfect(code, route.q)
    n = route.phi.shape[1] * code.length
    embedded = route.phi[code.words].reshape(-1, n)
    window = lat.window_array(lat._block_diagonal(route.hnf, code.length), route.p)
    words = (embedded[:, None, :] + window.astype(np.uint8)[None, :, :]) % route.p
    try:
        return PeriodicTiling(n=n, p=route.p, codewords=words.reshape(-1, n))
    except ValueError as exc:  # a duplicate codeword
        raise RuntimeError("collision in embedded code + lattice window") from exc


def _locate(a: Point, code: BlockCode, route: _Route) -> Point:
    # each block's residue mod p, indexed as by point_to_index, gives its psi symbol and
    # lift offsets: decode the psi word, then lift each block by its decoded symbol's offset
    _require_alphabet(code, route.q)
    m = route.phi.shape[1]
    if len(a) != m * code.length:
        raise ValueError(f"point length {len(a)} != {m * code.length}, {m} per code symbol")
    a = _integer_entries(a)
    b = np.array([v % route.p for v in a]).reshape(-1, m) @ route.p ** np.arange(m)
    w = decode_within_1(code, tuple(route.psi[b].tolist()))
    if w is None:
        raise ValueError("decode failure: the supplied code is not perfect")
    x = tuple(ai + di for ai, di in zip(a, route.lift[b, w].ravel().tolist()))
    if not covers(x, a):
        raise RuntimeError(f"locator produced a non-covering point {x} for {a}")
    return x


def from_binary_perfect(code: BlockCode) -> PeriodicTiling:
    """Tiling of (Z_4)^n with codewords 2c for each codeword c (all even)."""
    return _construct(code, _BINARY)


def to_binary_perfect(tiling: PeriodicTiling) -> BlockCode:
    """Recover a binary perfect code from a verified period-4 tiling.

    Each entry is collapsed by the 0/1 -> 0, 2/3 -> 1 map, which halves an
    all-even tiling.  The image is certified perfect before return.
    """
    if tiling.p != 4:
        raise ValueError(f"expected period 4, got {tiling.p}")
    words = (tiling.words >= 2).astype(tiling.words.dtype)
    code = BlockCode(q=2, length=tiling.n, codewords=np.unique(words, axis=0))
    ok, reason = is_perfect(code)
    if not ok:
        raise ValueError(f"image is not a perfect code ({reason}); corrupt tiling?")
    return code


def punctured_construction(code: BlockCode) -> PeriodicTiling:
    """Tiling of (Z_4)^n with odd entries, built from the punctured code split.

    For a codeword (c, x): if the prefix c has even weight emit (2c, 2x),
    otherwise (2c, 2x + 1).
    """
    _require_perfect(code, 2)
    if code.length < 3:
        raise ValueError("punctured construction needs length >= 3")
    words = 2 * code.words
    words[:, -1] += code.words[:, :-1].sum(axis=1) % 2
    return PeriodicTiling(n=code.length, p=4, codewords=words)


def from_ternary_perfect(code: BlockCode) -> PeriodicTiling:
    """Tiling of (Z_12)^{2 nu} from a ternary perfect code of length nu.

    Codewords are the embedded code translated by the full lattice window;
    a collision (a repeated codeword) raises RuntimeError, so the count is
    2^{2 nu} 3^{2 nu - t}.
    """
    return _construct(code, _TERNARY)


def locate_tile_ternary(a: Point, code: BlockCode) -> Point:
    """The tiling codeword (as an unreduced Z^n point) covering the cell a.

    Constructive: take each pair of a mod 12 to its residue b, which fixes its
    class modulo Lambda_2, decode the word of psi(b) in the perfect code, then add
    to each pair the lift offset of its decoded symbol.  The code is not
    re-checked for perfectness.
    """
    return _locate(a, code, _TERNARY)


def locate_tile_binary(a: Point, code: BlockCode) -> Point:
    """The point 2c + 4v of the binary-construction tiling covering the cell a.

    Constructive: reduce each a_i to its residue mod 4, decode the core word
    psi(a_i mod 4) = ceil(a_i / 2) mod 2 in the perfect code to c, then lift each
    c_i to the one value in {a_i-1, .., a_i+2} congruent to 2c_i mod 4.  The code
    is not re-checked for perfectness.
    """
    return _locate(a, code, _BINARY)
