"""Byte-identity of written files, pinned by sha256.

The digests were taken from the tuple-backed implementation before the
codewords moved into one array; any change to construction order, the
TILING writer or the SVG renderer shows up here on every run.
"""

import hashlib

import pytest

from halfcross import codes, constructions
from halfcross.search import SearchConfig, search_tilings
from halfcross.svgout import svg_document
from halfcross.tiling import write_tiling

TILING_SHA256 = {
    ("binary", 2): "67c98e0a121543221527ae2e50f8b4bec3a4bfbdd90c059dfc137f367c6bf8e7",
    ("binary", 3): "3c4cc7bb43b54d3e5d98d1ba941a28e9e693953062abfaeb2c9f10ba574702dc",
    ("binary", 4): "c6b9e51198ff41c5cda8da4f33dfd1f85b4993723207c923a7840143f4ec0e18",
    ("punctured", 3): "5a959c8696124422355c9049b99e6439f00a0f61fc19914e251450199fadba16",
    ("ternary", 1): "a89b10ebabbc501ce45915075a8e14d802a3eae6640b6b1d525a01f1f6e45ad1",
    ("ternary", 2): "8b87be18099e1cd37db0a3e668f536eb12704146f8a428cb4ed21f19e42f8ba7",
}
#: the first solution of the 12 x 12 torus search, rendered
SVG_SHA256 = "a7728c6d488dd6fcd6d50bd7afdae27a70977cd281d3b0b0c71c42fc9bf1153c"

BUILD = {
    "binary": lambda t: constructions.from_binary_perfect(codes.binary_hamming(t)),
    "punctured": lambda t: constructions.punctured_construction(codes.binary_hamming(t)),
    "ternary": lambda t: constructions.from_ternary_perfect(codes.ternary_hamming(t)),
}


@pytest.mark.parametrize("method, t", sorted(TILING_SHA256), ids=lambda v: str(v))
def test_tiling_file_bytes_are_pinned(tmp_path, method, t):
    tiling = BUILD[method](t)
    path = tmp_path / "t.tiling"
    write_tiling(tiling, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TILING_SHA256[method, t]


def test_svg_bytes_are_pinned():
    solutions, _ = search_tilings(SearchConfig(n=2, p=12))
    doc = svg_document(solutions[0]).encode("ascii")
    assert hashlib.sha256(doc).hexdigest() == SVG_SHA256
