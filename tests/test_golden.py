"""Byte-identity of written files and of CLI transcripts, pinned by sha256.

The TILING and SVG digests were taken from the tuple-backed implementation
before the codewords moved into one array, the CODE digests from the
Gaussian-elimination code generator before systematic encoding replaced it;
any change to code generation, construction order, the writers or the SVG
renderer shows up here on every run.  The CLI transcript digests were taken
before LATTICE file I/O and the library names that no caller reached were removed.
"""

import hashlib
import json
import shlex

import pytest

from halfcross import codes, constructions
from halfcross.cli import main
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


#: the 12 x 12 lattice window with its last codeword dropped, and a file whose
#: header names no key
DAMAGED = ("TILING v1\nn 2\np 12\ncount 11\n0 0\n0 4\n0 8\n3 2\n3 6\n3 10\n"
           "6 0\n6 4\n6 8\n9 2\n9 6\n")
GARBAGE = "TILING v1\n2\n12\n1\n0 0\n"

#: cheap cli.main calls run in order, each with the sha256 of its exit code,
#: stdout and stderr (the temporary directory written as {tmp}); later calls
#: read the files that earlier ones write
TRANSCRIPT = [
    ("gen-code --base 2 --t 3 --out {tmp}/h3.code",
     "a81e6b8fcdebffd33082d2b756c90ca2d394e26f744a58dcf33601cc5e5b948d"),
    ("gen-code --base 3 --t 1 --out {tmp}/t1.code",
     "f8c65ce904a3be77c0293c9845f8434e164a54bba67740eaa0ef666a2d5813c3"),
    ("gen-code --base 3 --t 2 --out {tmp}/t2.code",
     "c9a1b688d1c80c54f886050929e97b530359e1964a6c1c1ad8a0253b91d01b32"),
    ("gen-code --base 2 --t 9 --out {tmp}/x.code",
     "f519ea90e159364f75473398c234403706aec65a3270148aff6604d12405c78e"),
    ("build-tiling --method binary --code {tmp}/h3.code --out {tmp}/b.tiling",
     "82ba1c1890b95e15ae95ded134be95762acc9952e1167950fcfcd6853931764f"),
    ("build-tiling --method punctured --code {tmp}/h3.code --out {tmp}/p.tiling",
     "82ba1c1890b95e15ae95ded134be95762acc9952e1167950fcfcd6853931764f"),
    ("build-tiling --method ternary --code {tmp}/t1.code --out {tmp}/t.tiling",
     "23316a039ca6f57b857e145282f91f22284866d0ec2d570c934ff9bf57ca87d4"),
    ("verify --tiling {tmp}/b.tiling",
     "ca3e07c7d538b5f6caa922a59846d95e5086f36749c4dd34e08dabd49f054359"),
    ("verify --tiling {tmp}/t.tiling --audit",
     "af97102861381e1f10a7d52cbeb65a9df0497d970cb6069b861b6575fd8e9cf1"),
    ("verify --tiling {tmp}/p.tiling --min-dist",
     "81a0220ba1bd79e6e1300c0d6a056f14e3215dac81b22afcc02d70fe6117cba7"),
    ("verify --tiling {tmp}/t.tiling --audit --min-dist --format tree",
     "713e954cfadb10eec1f4d87827acbf7a1fd8c57bf38a42c588c4a2f455e68858"),
    ("verify --tiling {tmp}/damaged.tiling --min-dist",
     "42a3056c956c09aa2ad56bed25cf0b7671312bc76220233f26967c2ed4ab7002"),
    ("verify --tiling {tmp}/garbage.tiling",
     "bcc3e935eb83e9f0f31a7e13d95ee193a51b67f38dd81d9444421a52b25a0fee"),
    ("locate --tiling-method binary --code {tmp}/h3.code --point '1 -2 30 4 5 -6 7'",
     "1fdedbdb3b682477ed63c61d23051eb66dc438eb4451b6003f57227aebd0a73c"),
    ("locate --tiling-method ternary --code {tmp}/t2.code --point '-5 7 100 3 0 0 1 2'",
     "92e1a297eed93b6216b79673e092de3bd243111c248a61f3eed33b73a3a5a5a6"),
    ("locate --tiling-method binary --code {tmp}/h3.code --point '1 2'",
     "5a9a074186e5255c4cbc30230ae9d1fbefe2faa9040b3bfa85bdfe8d0426b969"),
    ("exist --n 1",
     "38e0150049361f4acc84bc619726cbcc005e4ea6048bc333b9cd158aa3b1507a"),
    ("exist --n 2",
     "a70c994df21ff6eede09737cacebe9bfefdcf8e16a3f10eaa086a4bb023e2011"),
    ("exist --n 6",
     "5c9cccbe5373765d999b88806cf2900f1c1c4c0a6e63bd1def6e4772cb61a48f"),
    ("exist --n 7",
     "0a7d32b95b7baed6e028429531f535e467a581f5072cd55b2000b9f39126877b"),
    ("exist --n 26",
     "666e20ad45495ba0d5ccdefac5827a5c674cd2dd5d2cdbdc8fa17a52402bd0f8"),
    ("exist --n 80",
     "eb520a8d42e39850c94aeb465679662551db654ca0406a941e703dcec7d42fa8"),
    ("exist --n 100000000",
     "aa7ee6bb77166a486ff6c79bd4bc3af47cd494e82ab6058a6d3b9b4adc730e2b"),
    ("search --n 2 --p 12 --out-dir {tmp}/solutions",
     "a7a867491f3447f96c6b6626d874de4006a7d5ce6ac9bc9dad99fc591e1d69b6"),
    ("export-svg --tiling {tmp}/solutions/solution_000.tiling --out {tmp}/s.svg",
     "6f857e3544c40641b32634403ddfef794422320d16c24c5e4fd583cfe33348ca"),
]


@pytest.mark.filterwarnings("ignore:binary_hamming\\(1\\)")
def test_cli_transcript_is_pinned(tmp_path, capsys):
    (tmp_path / "damaged.tiling").write_text(DAMAGED, encoding="ascii")
    (tmp_path / "garbage.tiling").write_text(GARBAGE, encoding="ascii")
    digests = []
    for command, _ in TRANSCRIPT:
        code = main([a.format(tmp=tmp_path) for a in shlex.split(command)])
        out, err = capsys.readouterr()
        text = json.dumps([code, out, err]).replace(str(tmp_path), "{tmp}")
        digests.append((command, hashlib.sha256(text.encode()).hexdigest()))
    assert digests == TRANSCRIPT
