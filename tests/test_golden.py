"""Byte-identity of written files, pinned by sha256.

The TILING and SVG digests were taken from the tuple-backed implementation
before the codewords moved into one array, the CODE digests from the
Gaussian-elimination code generator before systematic encoding replaced it;
any change to code generation, construction order, the writers or the SVG
renderer shows up here on every run.
"""

import hashlib

import pytest

from halfcross import codes, constructions
from halfcross.search import SearchConfig, search_tilings
from halfcross.svgout import svg_document
from halfcross.tiling import write_tiling

#: CODE files as gen-code writes them, keyed by (base, t)
CODE_SHA256 = {
    (2, 1): "79d65c1f69456b28a8a419e08778f52761dda0a20437bfe94e3550a0e512b87e",
    (2, 2): "0f5b210cb71251b84e6fdb7b5c4336a5989e12a04c97f6d55585f4f4a1d0ed54",
    (2, 3): "2f70c23c1301e859d71f235521219b60fab97641686caf602b755dd91f20ab3c",
    (2, 4): "eb6791b452fd341d078053575cef8142f97985421e463318d0eb263dbcdcab8f",
    (3, 1): "0734ba1de9def582ed090a4476d0bd3fd7fed5b791464595d1b211004223d350",
    (3, 2): "a6932ee4f1050422bb15bbab3167932a21d3322cba38abaf7998a7f92ed4695c",
    (3, 3): "de266c0cfa47bfabfc326898d888fb97ff54c784818f83ec7c2f50639bd3eae2",
}

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


@pytest.mark.filterwarnings("ignore:binary_hamming\\(1\\)")
@pytest.mark.parametrize("base, t", sorted(CODE_SHA256), ids=lambda v: str(v))
def test_code_file_bytes_are_pinned(tmp_path, base, t):
    code = codes.binary_hamming(t) if base == 2 else codes.ternary_hamming(t)
    path = tmp_path / "h.code"
    codes.write_code(code, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CODE_SHA256[base, t]


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
