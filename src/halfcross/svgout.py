"""Deterministic SVG rendering of 2-dimensional tiling windows.

Integer coordinates only, fixed palette, stable iteration order: identical
input yields a byte-identical document.
"""

from __future__ import annotations

from .geometry import _offsets
from .tiling import PeriodicTiling

CELL = 24  # pixels per unit cell

# fixed tile palette, cycled by codeword rank
PALETTE = (
    "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3", "#a6d854", "#ffd92f",
    "#e5c494", "#b3b3b3", "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
)


def svg_document(tiling: PeriodicTiling) -> str:
    """SVG 1.1 drawing of the p x p window: one color per tile, codeword cells dotted.

    Row 0 is drawn at the bottom so the picture matches lattice coordinates.
    """
    if tiling.n != 2:
        raise ValueError(f"SVG export is only defined for n = 2, got n = {tiling.n}")
    p = tiling.p
    size = p * CELL
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    words = tiling.words.astype("int64")
    # tile k's cells: X - D for its codeword X and each D in Upsilon_2, mod p
    for rank, cells in enumerate(((words[:, None] - _offsets(2)) % p).tolist()):
        color = PALETTE[rank % len(PALETTE)]
        for cx, cy in sorted(cells):
            lines.append(
                f'<rect x="{cx * CELL}" y="{(p - 1 - cy) * CELL}" '
                f'width="{CELL}" height="{CELL}" fill="{color}"/>'
            )
    # grid on top of the fills
    for i in range(p + 1):
        t = i * CELL
        lines.append(
            f'<line x1="{t}" y1="0" x2="{t}" y2="{size}" stroke="#444444" stroke-width="1"/>'
        )
        lines.append(
            f'<line x1="0" y1="{t}" x2="{size}" y2="{t}" stroke="#444444" stroke-width="1"/>'
        )
    for cx, cy in words.tolist():
        lines.append(
            f'<circle cx="{cx * CELL + CELL // 2}" cy="{(p - 1 - cy) * CELL + CELL // 2}" '
            f'r="{CELL // 5}" fill="#000000"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
