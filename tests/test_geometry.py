"""Shape and distance tests, checked against brute-force oracles."""

import itertools
import random
from unittest import mock

import numpy as np
import pytest

from halfcross import geometry
from halfcross import tiling as tiling_module
from halfcross.codes import BlockCode, min_hamming_distance
from halfcross.geometry import (
    DimensionMismatch,
    UpsilonShape,
    covers,
    cross_distance,
    index_to_point,
    point_to_index,
    upsilon_offsets,
)
from halfcross.tiling import PeriodicTiling, _min_torus_cross_distance, verify
from test_differential import torus_cross_distance_oracle
from test_tiling import torus_covers_oracle


def hamming_distance(x, y):
    return sum(a != b for a, b in zip(x, y))


def shape_cells_oracle(n):
    """Cell set of the scaled half-cross, straight from its definition.

    The core is the box {-1, 0}^n; the arms are the Manhattan-distance-1
    neighbors of the core that leave it along a single coordinate.
    """
    core = set(itertools.product((-1, 0), repeat=n))
    cells = set(core)
    for c in core:
        for i in range(n):
            for step in (-1, 1):
                nb = c[:i] + (c[i] + step,) + c[i + 1 :]
                if nb not in core:
                    cells.add(nb)
    return cells


def test_offset_count():
    for n in range(1, 9):
        assert len(upsilon_offsets(n).offsets) == 2**n * (n + 1)


def test_offset_entries_shape():
    for n in range(1, 7):
        for off in upsilon_offsets(n).offsets:
            assert all(-1 <= d <= 2 for d in off)
            assert sum(1 for d in off if d in (-1, 2)) <= 1


def test_offsets_sorted_unique():
    for n in range(1, 7):
        shape = upsilon_offsets(n)
        offs = shape.offsets
        assert list(offs) == sorted(set(offs))
        assert shape.offsets == offs and "offsets" not in vars(shape)  # built, not kept


def test_offsets_match_cell_set_definition():
    # offsets D with x - a = D correspond to cells a = x - D; at x = 0 the
    # shape's cells must equal the negated offsets
    for n in range(1, 5):
        offs = upsilon_offsets(n).offsets
        negated = {tuple(-d for d in off) for off in offs}
        assert negated == shape_cells_oracle(n)


def test_cells_at_point():
    cells = upsilon_offsets(2).torus_cells((0, 0), 12)
    assert len(cells) == 12
    assert cells == {tuple(c % 12 for c in cell) for cell in shape_cells_oracle(2)}


def test_covers_equals_offset_membership():
    for n in (1, 2, 3):
        offs = set(upsilon_offsets(n).offsets)
        for x in itertools.product(range(-2, 3), repeat=n):
            for a in itertools.product(range(-2, 3), repeat=n):
                d = tuple(xi - ai for xi, ai in zip(x, a))
                assert covers(x, a) == (d in offs)


def test_distances_known_values():
    assert cross_distance((0, 0, 0), (2, 0, -3)) == 1 + 0 + 2
    assert cross_distance((0, 0, 0, 0), (2, 1, 0, -5)) == 1 + 0 + 0 + 4


def test_cross_distance_from_definition():
    for x in itertools.product(range(-3, 4), repeat=2):
        for y in itertools.product(range(-3, 4), repeat=2):
            want = sum(max(0, abs(yi - xi) - 1) for xi, yi in zip(x, y))
            assert cross_distance(x, y) == want


def test_cross_distance_not_a_metric():
    # triangle inequality fails: d(0,2) = 1 but d(0,1) + d(1,2) = 0
    assert cross_distance((0,), (2,)) == 1
    assert cross_distance((0,), (1,)) + cross_distance((1,), (2,)) == 0


def test_disjointness_iff_cross_distance_3():
    # two translates of the shape are disjoint exactly when d_C >= 3
    for n in (1, 2):
        base = shape_cells_oracle(n)
        for y in itertools.product(range(-5, 6), repeat=n):
            other = {tuple(yi + ci for yi, ci in zip(y, c)) for c in base}
            disjoint = not (base & other)
            assert disjoint == (cross_distance((0,) * n, y) >= 3), y


def test_torus_cross_distance_oracle():
    # the verifier's minimum over two codewords is the minimum of the plain
    # distance over all wraparound representatives
    for p in (4, 5, 12):
        for x, y in itertools.combinations(itertools.product(range(p), repeat=2), 2):
            want = min(sum(max(0, abs(b + p * k - a) - 1) for a, b, k in zip(x, y, wraps))
                       for wraps in itertools.product((-1, 0, 1), repeat=2))
            assert _min_torus_cross_distance(PeriodicTiling(n=2, p=p, codewords=[x, y])) == want


def _witness_covering(words, a, p):
    """The codewords verify reports as covering its witness, with the count of the
    shards stubbed out so that the witness is the cell a."""
    t = PeriodicTiling(n=len(a), p=p, codewords=words)
    counts = (1, 0, point_to_index(a, p))
    with mock.patch.object(tiling_module, "_count_shards", return_value=counts):
        cell, covering = verify(t, cell_budget=p ** len(a), pair_budget=0).first_witness
    assert cell == tuple(a)
    return covering


def test_torus_covers_matches_plain_covers():
    # every cell of the window is a codeword, and each cell in turn the witness:
    # its covering codewords are those whose torus cells hold it
    shape = upsilon_offsets(2)
    for p in (4, 5):  # at p = 4 the arm residues 2 and 3 are next to each other
        window = list(itertools.product(range(p), repeat=2))
        for a in window:
            want = tuple(x for x in window if a in shape.torus_cells(x, p))
            assert _witness_covering(window, a, p) == want


def test_torus_covers_and_cells_are_exact_on_python_ints_of_any_size():
    # points past int64, or within p of its ends, are worked in Python ints and
    # cells reduced mod p in them; the oracle is the shape's definition
    shape, base = upsilon_offsets(2), shape_cells_oracle(2)
    rng = random.Random(22)
    ends = (2**63 - 1, -(2**63), 2**64, 2**70, -(2**70))
    for p in (4, 5, 12):
        for _ in range(100):
            x, a = (tuple(rng.choice(ends) + rng.randrange(-3, 4) for _ in range(2))
                    for _ in range(2))
            want = any(all((xi + ci - ai) % p == 0 for xi, ci, ai in zip(x, c, a))
                       for c in base)
            assert (tuple(v % p for v in a) in shape.torus_cells(x, p)) == want, (x, a, p)
            # verify's witness reads the codeword and the cell in the window
            x, a = (tuple(v % p for v in point) for point in (x, a))
            assert _witness_covering([x], a, p) == ((x,) if want else ())
    # up to the largest period a tiling takes, 2^63 - 1, the witness's differences
    # x - a + 1 reach p and stay in int64
    for p in (2**32 + 5, 2**63 - 1):
        ends = (0, 1, 2, p - 3, p - 2, p - 1)
        words = list(itertools.product(ends, repeat=2))
        for a in words:
            want = tuple(x for x in words if torus_covers_oracle(x, a, p))
            assert _witness_covering(words, a, p) == want


@pytest.mark.parametrize("p", [256, 257, 2**16 + 1, 2**32 + 15, 2**63 - 25])
def test_witness_covering_exact_in_every_word_dtype(p):
    # words of uint8, uint16, uint32 and uint64, differenced in twice their
    # width: x - a + 1 runs from 2 - p to p, and these entries reach both ends
    ends = (0, 1, 2, p - 3, p - 2, p - 1)
    words = list(itertools.product(ends, repeat=2))
    for a in words:
        want = tuple(x for x in words if torus_covers_oracle(x, a, p))
        assert _witness_covering(words, a, p) == want


def test_torus_cells_count_preserved():
    # p >= 4 keeps all 2^n (n+1) cells distinct after reduction
    shape = upsilon_offsets(3)
    for p in (4, 5, 12):
        assert len(shape.torus_cells((1, 2, 3), p)) == 2**3 * 4


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cross_distance((0,), (0, 0))
    with pytest.raises(DimensionMismatch):  # no entry is left out or broadcast
        upsilon_offsets(2).torus_cells((0,), 4)


def test_pairwise_minimum_matches_per_pair_loop(monkeypatch):
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 60)  # ten rows of three make five blocks
    rng = random.Random(20)
    for _ in range(60):
        n, k = rng.randint(1, 5), rng.randint(2, 10)
        q, p = rng.choice((2, 3)), rng.randint(4, 9)
        words = list({tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)})
        if len(words) >= 2:
            want = min(hamming_distance(a, b) for a, b in itertools.combinations(words, 2))
            code = BlockCode(q=q, length=n, codewords=tuple(words))
            assert min_hamming_distance(code) == want
        cells = list({tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)})
        if len(cells) >= 2:
            want = min(torus_cross_distance_oracle(a, b, p)
                       for a, b in itertools.combinations(cells, 2))
            tiling = PeriodicTiling(n=n, p=p, codewords=tuple(cells))
            assert _min_torus_cross_distance(tiling) == want


def test_pairwise_minimum_close_pair_straddles_chunks(monkeypatch):
    # six rows of six in blocks of two; the only pair at distance 1 is rows 1 and 2
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 72)
    words = (
        (0, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 1),
        (0, 0, 0, 1, 1, 1), (1, 1, 0, 1, 1, 0), (0, 1, 1, 0, 1, 1),
    )
    close = [(i, j) for (i, a), (j, b) in itertools.combinations(enumerate(words), 2)
             if hamming_distance(a, b) == 1]
    assert close == [(1, 2)]
    assert min_hamming_distance(BlockCode(q=2, length=6, codewords=words)) == 1


def test_index_point_round_trip():
    rng = random.Random(21)
    for _ in range(300):
        n, p = rng.randint(1, 5), rng.randint(1, 13)
        idx = rng.randrange(p**n)
        x = index_to_point(idx, n, p)
        assert len(x) == n and all(0 <= v < p for v in x)
        assert sum(v * p**i for i, v in enumerate(x)) == idx  # coordinate 1 fastest
        assert point_to_index(x, p) == idx


def test_word_arrays_refuse_an_impossible_length_by_value():
    for build in (lambda: PeriodicTiling(n=10**20, p=4, codewords=()),
                  lambda: BlockCode(q=2, length=10**20, codewords=())):
        with pytest.raises(ValueError, match="word length 100000000000000000000 exceeds"):
            build()


def test_word_arrays_refuse_non_integer_entries():
    # tuples and float arrays alike: no entry is truncated, and the first
    # offending codeword in the given order is named
    with pytest.raises(ValueError, match=r"^codeword \(0\.5, 1\.9\) has a non-integer entry$"):
        PeriodicTiling(n=2, p=12, codewords=[(0.5, 1.9)])
    with pytest.raises(ValueError, match=r"^codeword \(0\.7, 0\.0, 1\.0\) has a non-integer"):
        BlockCode(q=2, length=3, codewords=np.array([[0.7, 0, 1]]))
    for build in (lambda rows: PeriodicTiling(n=3, p=4, codewords=rows),
                  lambda rows: BlockCode(q=2, length=3, codewords=rows)):
        for rows in ([(0, 0, 1), (1, 0.5, 0)], np.array([[0, 0, 1], [1, 0.5, 0]])):
            with pytest.raises(ValueError, match=r"^codeword \(1(\.0)?, 0\.5, 0(\.0)?\) has"):
                build(rows)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="has a non-integer entry"):
                build([(0, 0, 1), (0, bad, 1)])
        with pytest.raises(ValueError, match=r"^codeword \(7, 0, 0\) outside"):
            build([(0, 0, 1), (7, 0, 0), (0.5, 0, 0)])
        with pytest.raises(ValueError, match=r"^duplicate codeword \(0, 0, 1\)$"):
            build([(0, 0, 1), (0, 0, 1), (0.5, 0, 0)])
        # integral floats are still whole numbers
        assert build([(1.0, 0, 1)]) == build([(1, 0, 1)])
        assert build(np.array([[1.0, 0, 1]])) == build([(1, 0, 1)])


def test_word_arrays_name_a_wrong_length_codeword_as_given():
    # the row is named with its entries as given, not truncated to integers
    for build in (lambda rows: PeriodicTiling(n=2, p=12, codewords=rows),
                  lambda rows: BlockCode(q=3, length=2, codewords=rows)):
        with pytest.raises(ValueError, match=r"^codeword \(0\.5,\) has length != 2$"):
            build([(0.5,), (1, 1)])
        with pytest.raises(ValueError, match=r"^codeword \(1, 2, 0\.5\) has length != 2$"):
            build([(1, 1), (1, 2, 0.5)])
        for rows in (np.array([[1, 2, 0]]), [(1, 1), tuple(np.array([1, 2, 0]))]):
            with pytest.raises(ValueError, match=r"^codeword \(1, 2, 0\) has length != 2$"):
                build(rows)


def test_upsilon_shape_refuses_a_dimension_below_one():
    for n in (0, -1):
        for build in (UpsilonShape, upsilon_offsets):
            with pytest.raises(ValueError, match=f"^dimension must be >= 1, got {n}$"):
                build(n=n)
