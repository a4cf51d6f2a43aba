"""Backtracking existence search for half-cross tilings of small tori.

Independent of the constructions: picks the lowest uncovered cell a, tests every
placement a + D (D in Upsilon_n) covering it for overlap at once, on one table of
offset differences, and branches over the free ones (the exact-cover view of
Knuth's "Dancing Links").  Used to confirm existence and nonexistence at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _at_least, _offsets, index_to_point
from .tiling import PeriodicTiling, window_exceeds

#: search is refused above this window size; use the constructions instead
MAX_SEARCH_CELLS = 10**6


@dataclass(frozen=True)
class SearchConfig:
    n: int
    p: int
    max_solutions: int = 1
    symmetry_breaking: bool = True
    node_budget: int = 10**7

    def __post_init__(self):
        for name, low, what in (("n", 1, "dimension"), ("p", 4, "period"),
                                ("max_solutions", 1, "max solutions"),
                                ("node_budget", 1, "node budget")):
            object.__setattr__(self, name, _at_least(getattr(self, name), low, what))
        if window_exceeds(self.p, self.n, MAX_SEARCH_CELLS):
            raise ValueError(
                f"window {self.p}^{self.n} exceeds search scale "
                f"{MAX_SEARCH_CELLS}; use the constructions plus verify"
            )


@dataclass
class SearchStats:
    nodes: int = 0
    backtracks: int = 0
    solutions: int = 0
    status: str = "complete"  # complete | budget | divisibility


def divisibility_precheck(n: int, p: int) -> bool:
    """Whether the shape size 2^n(n+1) divides the window size p^n."""
    return p**n % (2**n * (n + 1)) == 0


class _Budget(Exception):
    pass


def search_tilings(cfg: SearchConfig) -> tuple[list[PeriodicTiling], SearchStats]:
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

    offsets = _offsets(n)
    total = p**n
    tiles_needed = total // len(offsets)
    # the placement a + d_j covers the cells a + d_j - d_l, whose coordinate i is
    # wrap[a_i : a_i + 7][diff[i, j, l]] with diff[i, j, l] = d_j,i - d_l,i + 3
    diff = np.ascontiguousarray((offsets[:, None] - offsets + 3).transpose(2, 0, 1), np.uint8)
    # wrap[v + 3] = v mod p; cell indices and their partial sums stay below p^n
    wrap = (np.arange(-3, p + 3) % p).astype(np.min_scalar_type(total - 1))
    strides = [p**i for i in range(n)]
    covered = bytearray(total)
    marks = np.frombuffer(covered, dtype=bool)  # a view: writes show in covered
    placed: list[np.ndarray] = []
    solutions: list[PeriodicTiling] = []

    def recurse() -> None:
        stats.nodes += 1
        if stats.nodes > cfg.node_budget:
            raise _Budget
        if len(placed) == tiles_needed:
            solutions.append(PeriodicTiling(n=n, p=p, codewords=np.array(placed)))
            stats.solutions += 1
            return
        a = index_to_point(covered.find(0), n, p)
        # row j: the cells covered by, and the point of, the placement a + d_j
        cells = sum((wrap[ai : ai + 7] * step)[d] for ai, step, d in zip(a, strides, diff))
        points = wrap[offsets + np.add(a, 3)]
        # each child clears the cells it set, so one test serves every sibling
        free = ~marks[cells].any(axis=1)
        order = np.lexsort(points.T[::-1])  # the placements' tuples, sorted
        for j in order[free[order]]:
            marks[cells[j]] = True
            placed.append(points[j])
            recurse()
            marks[cells[j]] = False
            placed.pop()
            stats.backtracks += 1
            if stats.solutions >= cfg.max_solutions:
                return

    if cfg.symmetry_breaking:  # the origin, covering the cells -d_l mod p
        marks[wrap[3 - offsets] @ strides] = True
        placed.append(np.zeros(n, dtype=wrap.dtype))
    try:
        recurse()
    except _Budget:
        stats.status = "budget"

    return solutions, stats
