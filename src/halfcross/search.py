"""Backtracking existence search for half-cross tilings of small tori.

Independent of the constructions: picks the lowest uncovered cell, branches
over every codeword placement covering it, and prunes on overlap.  Used to
confirm existence and nonexistence at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .geometry import Point, _at_least, index_to_point, point_to_index, upsilon_offsets
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

    total = p**n
    shape = upsilon_offsets(n)
    tiles_needed = total // len(shape)

    @cache
    def cells_of(x: Point) -> list[int]:
        return [point_to_index(tuple((xi - di) % p for xi, di in zip(x, off)), p)
                for off in shape.offsets]

    covered = bytearray(total)
    placed: list[Point] = []
    solutions: list[PeriodicTiling] = []

    def place(x: Point) -> bool:
        cells = cells_of(x)
        if any(covered[c] for c in cells):
            return False
        for c in cells:
            covered[c] = 1
        placed.append(x)
        return True

    def unplace(x: Point) -> None:
        for c in cells_of(x):
            covered[c] = 0
        placed.pop()

    def recurse() -> None:
        stats.nodes += 1
        if stats.nodes > cfg.node_budget:
            raise _Budget
        if len(placed) == tiles_needed:
            solutions.append(PeriodicTiling(n=n, p=p, codewords=placed))
            stats.solutions += 1
            return
        lowest = covered.find(0)
        a = index_to_point(lowest, n, p)
        candidates = sorted(
            {tuple((ai + di) % p for ai, di in zip(a, off)) for off in shape.offsets}
        )
        for x in candidates:
            if not place(x):
                continue
            recurse()
            unplace(x)
            stats.backtracks += 1
            if stats.solutions >= cfg.max_solutions:
                return

    if cfg.symmetry_breaking:
        place((0,) * n)
    try:
        recurse()
    except _Budget:
        stats.status = "budget"

    return solutions, stats
