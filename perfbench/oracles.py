"""Independent oracles for the benchmark's workloads, and the seeded damage
that turns a valid tiling into a rejected one.

Each ``check_*`` function returns ``None`` when an output is right and a
one-line reason otherwise.  The oracles re-derive what they need from the
mathematics (coset representatives, parity checks, the shape size
2^n(n+1), cell indices) rather than calling the halfcross function under
test.
"""

from __future__ import annotations

import random
from itertools import product

import numpy as np

# pair representative of each ternary symbol, phi in the construction
_PHI_INV = {(0, 0): 0, (1, 2): 1, (2, 0): 2}


def shape_size(n: int) -> int:
    """|Upsilon_n| = 2^n (n + 1)."""
    return 2**n * (n + 1)


def _covers(x, a) -> bool:
    # x covers a iff every x_i - a_i lies in {-1, 0, 1, 2} with at most one
    # entry in {-1, 2}
    diffs = [xi - ai for xi, ai in zip(x, a)]
    if len(x) != len(a) or any(d < -1 or d > 2 for d in diffs):
        return False
    return sum(1 for d in diffs if d in (-1, 2)) <= 1


def _parity_check(q: int, t: int) -> np.ndarray:
    # Hamming parity-check matrix: for q = 2 every nonzero t-vector, for
    # q = 3 one vector per projective point (first nonzero entry 1)
    cols = [
        v for v in product(range(q), repeat=t)
        if any(v) and (q == 2 or next(s for s in v if s) == 1)
    ]
    return np.array(cols, dtype=np.int64).T


def check_hamming_code(q: int, t: int, words) -> str | None:
    """A q-ary Hamming code of redundancy t: the right size, distinct, zero syndromes."""
    h = _parity_check(q, t)
    n = h.shape[1]
    expected = q ** (n - t)
    if len(set(words)) != expected or len(words) != expected:
        return f"code has {len(words)} words, expected {expected} distinct"
    arr = np.array(words, dtype=np.int64).reshape(len(words), -1)
    if arr.shape[1] != n or np.any((arr @ h.T) % q):
        return "a codeword has a nonzero syndrome"
    return None


def ternary_coset_rep(x) -> tuple[int, ...]:
    """Representative of x modulo the lattice spanned per coordinate pair by
    (3, 2) and (0, 4): each pair lands in {0,1,2} x {0,1,2,3}."""
    rep: list[int] = []
    for i in range(0, len(x), 2):
        x1, x2 = x[i], x[i + 1]
        m = (x1 - x1 % 3) // 3  # subtract m * (3, 2)
        rep.extend((x1 % 3, (x2 - 2 * m) % 4))
    return tuple(rep)


def check_locate_ternary(a, x, codeset: set) -> str | None:
    """x covers a and lies in phi(C) + Lambda: its coset representative is phi(c)."""
    if not _covers(x, a):
        return f"ternary: {x} does not cover {a}"
    rep = ternary_coset_rep(x)
    word = tuple(_PHI_INV.get(rep[i : i + 2], -1) for i in range(0, len(rep), 2))
    if word not in codeset:
        return f"ternary: {x} is not a tile (coset representative {rep})"
    return None


def check_locate_binary(a, x, codeset: set) -> str | None:
    """x covers a and lies in 2C + 4Z^n: x mod 4 = 2c for a codeword c."""
    if not _covers(x, a):
        return f"binary: {x} does not cover {a}"
    residues = [v % 4 for v in x]
    if any(r % 2 for r in residues) or tuple(r // 2 for r in residues) not in codeset:
        return f"binary: {x} is not a tile (x mod 4 = {residues})"
    return None


def check_certify(report, cells: int, audit_passed: bool, lattice: bool,
                  written: bytes, rewritten: bytes) -> str | None:
    """A certified tiling: exact cover of all cells, audit, lattice, stable bytes."""
    if not report.is_tiling or report.uncovered or report.multiply_covered:
        return (f"not a tiling: uncovered {report.uncovered}, "
                f"multiply covered {report.multiply_covered}")
    if report.cells_total != cells:
        return f"cells_total {report.cells_total} != {cells}"
    if not audit_passed:
        return "structural audit failed"
    if not lattice:
        return "codewords do not form a lattice"
    if written != rewritten:
        return "TILING bytes changed on a write/read/write round trip"
    return None


def cell_index(cell, p: int) -> int:
    """Little-endian mixed-radix index of a window cell (coordinate 1 fastest)."""
    return sum(v * p**i for i, v in enumerate(cell))


def check_reject(report, n: int, p: int, dropped, added, footprints) -> str | None:
    """Counts and first witness of a tiling damaged by ``dropped``/``added``.

    ``footprints`` maps each damaged word to its set of torus cells; they are
    pairwise disjoint, so each dropped word leaves |Upsilon_n| cells
    uncovered, each added word doubles |Upsilon_n| cells, and the witness is
    the damaged cell of lowest index.
    """
    size = shape_size(n)
    want = (len(dropped) * size, len(added) * size)
    got = (report.uncovered, report.multiply_covered)
    if report.is_tiling or got != want:
        return f"(uncovered, multiply covered) = {got}, expected {want}"
    if report.cells_total != p**n:
        return f"cells_total {report.cells_total} != {p}^{n}"
    owner, cell = min(
        ((w, c) for w, cells in footprints.items() for c in cells),
        key=lambda wc: cell_index(wc[1], p),
    )
    if report.first_witness is None or tuple(report.first_witness[0]) != cell:
        return f"first witness {report.first_witness and report.first_witness[0]}, expected {cell}"
    covering = report.first_witness[1]
    if owner in added and (len(covering) != 2 or owner not in covering):
        return f"witness {cell} should be covered by {owner} and one tile, got {covering}"
    if owner in dropped and covering:
        return f"witness {cell} should be uncovered, got {covering}"
    return None


def check_search(expected: tuple[int, str], solutions: int, status: str,
                 verified: bool, distinct: bool, svg_stable: bool) -> str | None:
    """A search result: expected (solution count, status), every solution a
    verified tiling, no solution twice, and deterministic SVG output."""
    if (solutions, status) != expected:
        return f"(solutions, status) = {(solutions, status)}, expected {expected}"
    if not verified:
        return "a reported solution fails verify"
    if not distinct:
        return "a solution is reported twice"
    if not svg_stable:
        return "two renders of one solution differ"
    return None


def damage(words, n: int, p: int, k: int, m: int, rng: random.Random, torus_cells):
    """Pick k codewords to drop and m non-codewords to add, all sharing one
    seeded last coordinate, with pairwise disjoint torus footprints.

    Sharing the last coordinate v keeps the damage inside the four verifier
    shards v-2 .. v+1 for every seed, and the first word dropped is the
    lowest of its layer, so the first uncovered cell sits near the start of
    its shard for every seed.  Returns (dropped, added, footprints).
    """
    v = rng.choice(sorted({w[-1] for w in words}))
    in_layer = [w for w in words if w[-1] == v]
    wordset = set(words)
    dropped: list = []
    added: list = []
    footprints: dict = {}
    taken: set = set()
    while len(dropped) < k or len(added) < m:
        if not dropped:
            w = min(in_layer, key=lambda x: cell_index(x, p))
        elif len(dropped) < k:
            w = in_layer[rng.randrange(len(in_layer))]
        else:
            w = tuple(rng.randrange(p) for _ in range(n - 1)) + (v,)
            if w in wordset:
                continue
        cells = torus_cells(w, p)
        if w in footprints or not taken.isdisjoint(cells):
            continue
        footprints[w] = cells
        taken |= cells
        (dropped if len(dropped) < k else added).append(w)
    return dropped, added, footprints
