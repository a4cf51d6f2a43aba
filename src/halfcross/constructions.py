"""The maps between perfect codes and half-cross tilings, plus tile locators.

Binary route: a perfect code C of length n = 2^t - 1 gives the tiling 2C over
(Z_4)^n, and back via halving (or the 0/1 vs 2/3 collapse for tilings with
odd entries).  Ternary route: a perfect code of length nu gives a tiling of
(Z_12)^{2 nu} as the image of a symbol-to-pair embedding plus the lattice
spanned by 3e_{2i-1}+2e_{2i} and 4e_{2i}.  Both tile locators reduce the
cell to a word of the code's alphabet, decode it within radius 1 and lift the
codeword back next to the cell.  The adjustment table used by the ternary
lift is embedded as literal data and re-validated on import against the
shape rule of :func:`geometry.covers`.
"""

from __future__ import annotations

import numpy as np

from . import lattice as lat
from .codes import BlockCode, decode_within_1, is_perfect
from .geometry import Point, covers
from .tiling import PeriodicTiling

# pair representative of each ternary symbol
PHI = {0: (0, 0), 1: (1, 2), 2: (2, 0)}

# partition of {0,1,2} x {0,1,2,3} into three classes, keyed by representative
CLASSES = {
    (0, 0): ((0, 0), (0, 3), (2, 2), (2, 1)),
    (1, 2): ((1, 2), (1, 1), (0, 1), (0, 2)),
    (2, 0): ((2, 0), (1, 3), (2, 3), (1, 0)),
}

# ADJUST[pair][class representative] -> adjusted pair (kept unreduced, exactly
# as printed; reduction mod 12 happens only at final storage)
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

#: psi as a table: each pair's class, named by the symbol s whose PHI[s] keys it
_CLASS_SYMBOL = {pair: s for s, rep in PHI.items() for pair in CLASSES[rep]}
#: row s holds PHI[s], so a table lookup embeds a whole code at once
_PHI_ROWS = np.array([PHI[s] for s in range(3)], dtype=np.uint8)
_LAMBDA2 = lat.lambda_lattice(1)


def _validate_class_table() -> None:
    # The table's defining properties are re-derived here so a transcription
    # error fails fast at import.
    all_pairs = {(a, b) for a in range(3) for b in range(4)}
    listed = [p for pairs in CLASSES.values() for p in pairs]
    if sorted(listed) != sorted(all_pairs) or len(listed) != 12:
        raise RuntimeError("classes do not partition Z~3 x Z~4")
    for rep, pairs in CLASSES.items():
        if rep not in pairs:
            raise RuntimeError(f"class representative {rep} not in its class")
    if set(ADJUST) != all_pairs:
        raise RuntimeError("adjust table does not cover all 12 pairs")
    for x, row in ADJUST.items():
        for rep, v in row.items():
            if not covers(v, x):
                raise RuntimeError(f"adjust[{x}][{rep}] = {v} does not cover {x}")
            if PHI[_CLASS_SYMBOL[x]] == rep and not all(0 <= b - a <= 1 for a, b in zip(x, v)):
                raise RuntimeError(
                    f"adjust[{x}][{rep}] = {v} must shift by 0/1 within its own class"
                )
            u = (v[0] - rep[0], v[1] - rep[1])
            if not lat.contains(_LAMBDA2, u):
                raise RuntimeError(f"adjust[{x}][{rep}] = {v}: {u} is not a lattice point")


def phi(symbol: int) -> tuple[int, int]:
    """Pair representative of a ternary symbol."""
    if symbol not in PHI:
        raise ValueError(f"symbol must be in 0..2, got {symbol}")
    return PHI[symbol]


def phi_word(word: Point) -> Point:
    """Concatenated pair representatives of a ternary word (length doubles)."""
    out: list[int] = []
    for s in word:
        out.extend(phi(s))
    return tuple(out)


def psi(pair: tuple[int, int]) -> int:
    """Class index (0, 1, or 2) of a pair from {0,1,2} x {0,1,2,3}."""
    if pair not in _CLASS_SYMBOL:
        raise ValueError(f"pair must lie in Z~3 x Z~4, got {pair}")
    return _CLASS_SYMBOL[pair]


def psi_word(point: Point) -> Point:
    """Apply psi to consecutive coordinate pairs of a 2*nu point."""
    if len(point) % 2 != 0:
        raise ValueError("point length must be even")
    return tuple(
        psi((point[2 * i], point[2 * i + 1])) for i in range(len(point) // 2)
    )


def reduce_to_representative(a: Point) -> tuple[Point, Point]:
    """Shift a by a lattice point y so b = a + y has pairs in Z~3 x Z~4.

    Works pairwise: subtract multiples of (3, 2), then of (0, 4).  Returns
    (b, y) with y in the ternary-construction lattice.
    """
    if len(a) % 2 != 0:
        raise ValueError("dimension must be even")
    b: list[int] = []
    y: list[int] = []
    for i in range(len(a) // 2):
        a1, a2 = a[2 * i], a[2 * i + 1]
        b1 = a1 % 3
        m = (b1 - a1) // 3
        b2 = (a2 + 2 * m) % 4
        l = (b2 - a2 - 2 * m) // 4
        b.extend((b1, b2))
        y.extend((3 * m, 2 * m + 4 * l))
    return tuple(b), tuple(y)


def _code_array(code: BlockCode) -> np.ndarray:
    return np.array(code.codewords, dtype=np.uint8).reshape(-1, code.length)


def _require_perfect(code: BlockCode, q: int) -> None:
    if code.q != q:
        raise ValueError(f"expected a code over Z_{q}, got Z_{code.q}")
    ok, reason = is_perfect(code)
    if not ok:
        raise ValueError(f"code is not perfect: {reason}")


def from_binary_perfect(code: BlockCode) -> PeriodicTiling:
    """Tiling of (Z_4)^n with codewords 2c for each codeword c (all even)."""
    _require_perfect(code, 2)
    return PeriodicTiling(n=code.length, p=4, codewords=2 * _code_array(code))


def to_binary_perfect(tiling: PeriodicTiling) -> BlockCode:
    """Recover a binary perfect code from a verified period-4 tiling.

    All-even tilings are halved; otherwise each entry is collapsed by the
    0/1 -> 0, 2/3 -> 1 map.  The image is certified perfect before return.
    """
    if tiling.p != 4:
        raise ValueError(f"expected period 4, got {tiling.p}")
    w = tiling.words
    words = w // 2 if not (w % 2).any() else (w >= 2).astype(w.dtype)
    distinct = tuple(map(tuple, np.unique(words, axis=0).tolist()))  # sorted rows
    code = BlockCode(q=2, length=tiling.n, codewords=distinct)
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
    c = _code_array(code)
    words = 2 * c
    words[:, -1] += c[:, :-1].sum(axis=1) % 2
    return PeriodicTiling(n=code.length, p=4, codewords=words)


def from_ternary_perfect(code: BlockCode) -> PeriodicTiling:
    """Tiling of (Z_12)^{2 nu} from a ternary perfect code of length nu.

    Codewords are the embedded code translated by the full lattice window,
    formed as one broadcast sum; a collision (a repeated codeword) raises
    RuntimeError, so the count is 2^{2 nu} 3^{2 nu - t}.
    """
    _require_perfect(code, 3)
    nu = code.length
    embedded = _PHI_ROWS[_code_array(code)].reshape(-1, 2 * nu)
    lam = lat.window_array(lat.lambda_lattice(nu), 12).astype(np.uint8)
    words = ((embedded[:, None, :] + lam[None, :, :]) % 12).reshape(-1, 2 * nu)
    try:
        return PeriodicTiling(n=2 * nu, p=12, codewords=words)
    except ValueError as exc:  # a duplicate codeword
        raise RuntimeError("collision in embedded code + lattice window") from exc


def locate_tile_ternary(a: Point, code: BlockCode) -> Point:
    """The tiling codeword (as an unreduced Z^n point) covering the cell a.

    Constructive: reduce a to its pair representative b, read off the ternary
    word, decode it in the perfect code, then adjust each pair toward the
    decoded codeword's class via the embedded table and undo the reduction.
    """
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


def locate_tile_binary(a: Point, code: BlockCode) -> Point:
    """The point 2c + 4v of the binary-construction tiling covering the cell a.

    Constructive: reduce a to its core word u_i = ceil(a_i / 2) mod 2, decode
    u in the perfect code to c, then lift each c_i to the one value in
    {a_i-1, .., a_i+2} congruent to 2c_i mod 4.
    """
    _require_perfect(code, 2)
    if len(a) != code.length:
        raise ValueError(f"point length {len(a)} != code length {code.length}")
    c = decode_within_1(code, tuple((ai + 1) // 2 % 2 for ai in a))
    x = tuple(ai - 1 + (2 * ci - ai + 1) % 4 for ai, ci in zip(a, c))
    if not covers(x, a):
        raise RuntimeError(f"locator produced a non-covering point {x} for {a}")
    return x


_validate_class_table()
