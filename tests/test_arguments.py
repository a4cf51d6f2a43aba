"""Every dimension, period, count and budget argument goes through one check,
``geometry._at_least``: a value that is not an integer is refused by name with a
ValueError (never a TypeError, KeyError or AttributeError from deeper down),
and points must have integer entries."""

import re

import numpy as np
import pytest

from halfcross.codes import BlockCode, binary_hamming, decode_within_1, ternary_hamming
from halfcross.constructions import locate_tile_binary, locate_tile_ternary
from halfcross.geometry import (
    UpsilonShape,
    covers,
    cross_distance,
    index_to_point,
    point_to_index,
    upsilon_offsets,
)
from halfcross.lattice import IntegerLattice, lambda_lattice, window_array
from halfcross.search import SearchConfig
from halfcross.tiling import (
    PeriodicTiling,
    admissible_dimension,
    is_periodic_with,
    nonexistence_certificate,
    verify,
    write_tiling,
)


def _unit():
    # the one-codeword tiling of Z^1 with period 4
    return PeriodicTiling(n=1, p=4, codewords=[(0,)])


#: (site, the name its messages use, the least value allowed or None, call)
SITES = [
    ("torus_cells", "period", 4, lambda v: upsilon_offsets(1).torus_cells((0,), v)),
    ("UpsilonShape", "dimension", 1, lambda v: UpsilonShape(n=v)),
    # 4.0 is refused after a call with 4, as it would not be by a memo keyed on n
    ("upsilon_offsets", "dimension", 1, lambda v: (upsilon_offsets(4), upsilon_offsets(v))),
    ("PeriodicTiling.n", "dimension", 1, lambda v: PeriodicTiling(n=v, p=4, codewords=())),
    ("PeriodicTiling.p", "period", 4, lambda v: PeriodicTiling(n=1, p=v, codewords=())),
    ("admissible_dimension", "n", 1, admissible_dimension),
    ("nonexistence_certificate", "n", 1, nonexistence_certificate),
    ("verify.cell_budget", "cell budget", 1, lambda v: verify(_unit(), cell_budget=v)),
    ("verify.pair_budget", "pair budget", 0, lambda v: verify(_unit(), pair_budget=v)),
    ("is_periodic_with", "p2", None, lambda v: is_periodic_with(_unit(), v)),
    ("BlockCode.q", "alphabet size", None, lambda v: BlockCode(q=v, length=1, codewords=())),
    ("BlockCode.length", "length", 1, lambda v: BlockCode(q=2, length=v, codewords=())),
    ("binary_hamming", "t", 1, binary_hamming),
    ("ternary_hamming", "t", 1, ternary_hamming),
    ("IntegerLattice", "dimension", 1, lambda v: IntegerLattice(n=v, generator=((2,),))),
    ("lambda_lattice", "nu", 1, lambda_lattice),
    ("window_array", "period", 1, lambda v: window_array(lambda_lattice(1), v)),
    ("SearchConfig.n", "dimension", 1, lambda v: SearchConfig(n=v, p=4)),
    ("SearchConfig.p", "period", 4, lambda v: SearchConfig(n=1, p=v)),
    ("SearchConfig.max_solutions", "max solutions", 1,
     lambda v: SearchConfig(n=1, p=4, max_solutions=v)),
    ("SearchConfig.node_budget", "node budget", 1,
     lambda v: SearchConfig(n=1, p=4, node_budget=v)),
    # points: the message names the entry
    ("torus_cells.x", "point entry", None, lambda v: upsilon_offsets(2).torus_cells((v, 0), 4)),
    ("index_to_point.idx", "index", 0, lambda v: index_to_point(v, 2, 4)),
    ("index_to_point.n", "dimension", 1, lambda v: index_to_point(0, v, 4)),
    ("index_to_point.p", "period", 1, lambda v: index_to_point(0, 2, v)),
    ("point_to_index.p", "period", 1, lambda v: point_to_index((1, 1), v)),
    ("point_to_index", "point entry", None, lambda v: point_to_index((v, 1), 4)),
    ("decode_within_1", "word entry", None,
     lambda v: decode_within_1(binary_hamming(3), (v, 0, 0, 0, 0, 0, 0))),
]


#: sites with a range beyond their least value: (value outside it, the message)
OUTSIDE = {
    "index_to_point.idx": [(16, "index 16 is not below 4^2"),
                           (np.int64(17), "index 17 is not below 4^2"),
                           (2**70, f"index {2**70} is not below 4^2")],
    "point_to_index": [(4, "point entry 4 is outside 0..3"),
                       (np.uint8(5), "point entry 5 is outside 0..3"),
                       (-1, "point entry -1 is outside 0..3")],
}


@pytest.mark.parametrize("site, what, low, call", SITES, ids=[s[0] for s in SITES])
def test_every_size_argument_refuses_a_non_integer_by_name(site, what, low, call):
    # pytest.raises lets any other exception type through, failing the test
    whole = 2.0 if what == "alphabet size" else 4.0  # an allowed value, as a float
    for bad in (2.5, np.float64(12.0), whole):
        message = (f"{what} {bad} is not an integer" if what.endswith(" entry")
                   else f"{what} must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)
    if low is not None:  # the range message is unchanged, for numpy ints too
        for below in (low - 1, np.int64(low - 1)):
            with pytest.raises(ValueError, match=f"^{what} must be >= {low}, got {low - 1}$"):
                call(below)
    for outside, message in OUTSIDE.get(site, ()):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(outside)


def test_integer_only_arguments_keep_their_own_range_messages():
    with pytest.raises(ValueError, match="^alphabet size must be 2 or 3, got 1$"):
        BlockCode(q=1, length=1, codewords=())
    with pytest.raises(ValueError, match="^0 does not divide the period 4$"):
        is_periodic_with(_unit(), 0)
    assert is_periodic_with(_unit(), np.int64(4))


def test_points_must_have_integer_entries():
    with pytest.raises(ValueError, match=r"^point entry 0\.5 is not an integer$"):
        covers((0.5,), (0,))
    with pytest.raises(ValueError, match=r"^point entry 1\.0 is not an integer$"):
        covers((0, 0), (0, 1.0))
    for locate, code, n in ((locate_tile_binary, binary_hamming(3), 7),
                            (locate_tile_ternary, ternary_hamming(2), 8)):
        for v in (0.5, 1.0, np.float64(1.0)):
            with pytest.raises(ValueError, match=f"^point entry {v} is not an integer$"):
                locate(((0,) * (n - 1)) + (v,), code)
        # the length is checked first, with its message unchanged
        with pytest.raises(ValueError, match=f"^point length 1 != {n}"):
            locate((0.5,), code)
        assert locate(tuple(np.arange(n)), code) == locate(tuple(range(n)), code)


def test_numpy_int_sizes_are_held_as_python_ints(tmp_path):
    words = window_array(lambda_lattice(1), 12)
    t = PeriodicTiling(n=np.int64(2), p=np.int64(12), codewords=words)
    code = BlockCode(q=np.int64(3), length=np.uint8(4), codewords=ternary_hamming(2).words)
    assert {type(v) for v in (t.n, t.p, code.q, code.length)} == {int}
    write_tiling(t, tmp_path / "numpy.tiling")
    write_tiling(PeriodicTiling(n=2, p=12, codewords=words), tmp_path / "int.tiling")
    assert (tmp_path / "numpy.tiling").read_bytes() == (tmp_path / "int.tiling").read_bytes()
    assert verify(t).cells_total == 144 and type(verify(t).cells_total) is int
    # mixed-radix indexes: 2^64 + 2^32 + 1 does not wrap in the period's int64
    assert _as_ints(point_to_index((1, 1, 1), np.int64(2**32))) == (int, 2**64 + 2**32 + 1)
    assert _as_ints(index_to_point(np.uint8(200), 2, np.uint8(16))) == ((int, 8), (int, 12))


def _as_ints(result):
    # the result with every integer that is not a bool replaced by its type and value
    if isinstance(result, (tuple, list, set)):
        return type(result)(map(_as_ints, result))
    return result if isinstance(result, bool) else (type(result), result)


def _outcome(call, *args):
    try:
        return _as_ints(call(*args))
    except ValueError as exc:
        return str(exc)


#: every function that takes points, as a call of two points
_POINT_CALLS = [
    cross_distance,
    covers,
    lambda x, y: covers(y, x),
    lambda x, y: upsilon_offsets(len(x)).torus_cells(x, 12),
    lambda x, y: point_to_index(x, 256),
]


def test_numpy_scalar_points_are_worked_as_python_ints():
    # a point taken as tuple(tiling.words[i]) has numpy scalar entries; every
    # result is the one for the same values as Python ints, in Python ints
    u8, i64 = np.uint8, np.int64
    top, bottom = 2**63 - 1, -(2**63)
    pairs = [
        ((u8(3),), (u8(0),)),
        ((u8(0), u8(0)), (u8(1), u8(0))),
        ((u8(200), u8(200)), (u8(255), u8(0))),
        ((i64(top), i64(bottom)), (i64(bottom), i64(top))),
        ((i64(top), i64(0)), (i64(top - 1), i64(1))),
    ]
    for x, y in pairs:
        ints = tuple(map(int, x)), tuple(map(int, y))
        for i, call in enumerate(_POINT_CALLS):
            assert _outcome(call, x, y) == _outcome(call, *ints), (i, x, y)
    # the cases that wrapped or overflowed in the point's own dtype
    assert cross_distance((u8(3),), (u8(0),)) == 2
    assert covers((u8(0), u8(0)), (u8(1), u8(0)))
    assert _as_ints(point_to_index((u8(200), u8(200)), 256)) == (int, 51400)
    for locate, code, n in ((locate_tile_binary, binary_hamming(3), 7),
                            (locate_tile_ternary, ternary_hamming(2), 8)):
        for a in ((u8(255),) * n, (i64(top),) * n, (i64(bottom),) * n):
            got = locate(a, code)
            assert _as_ints(got) == _as_ints(locate(tuple(map(int, a)), code))
            assert {type(v) for v in got} == {int}
    assert locate_tile_binary((u8(255),) * 7, binary_hamming(3)) == (256,) * 7
    word = (u8(1),) + tuple(map(u8, binary_hamming(3).codewords[0][1:]))
    assert _as_ints(decode_within_1(binary_hamming(3), word)) == _as_ints((0,) * 7)
