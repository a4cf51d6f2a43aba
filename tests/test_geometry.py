"""Shape and distance tests, checked against brute-force oracles."""

import itertools
import random

import numpy as np
import pytest

from halfcross import geometry
from halfcross.codes import BlockCode, min_hamming_distance
from halfcross.geometry import (
    DimensionMismatch,
    UpsilonShape,
    covers,
    cross_distance,
    cross_weight,
    hamming_distance,
    index_to_point,
    manhattan_distance,
    point_to_index,
    torus_covers,
    torus_cross_distance,
    upsilon_offsets,
)
from halfcross.tiling import PeriodicTiling, _min_torus_cross_distance


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
    assert hamming_distance((0, 1, 2), (0, 2, 2)) == 1
    assert manhattan_distance((0, 0), (3, -4)) == 7
    assert cross_distance((0, 0, 0), (2, 0, -3)) == 1 + 0 + 2
    assert cross_weight((2, 1, 0, -5)) == 1 + 0 + 0 + 4


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
    # minimum of the plain distance over all wraparound representatives
    for p in (4, 5, 12):
        for x in itertools.product(range(p), repeat=2):
            for y in itertools.product(range(p), repeat=2):
                want = min(
                    cross_distance(x, (y[0] + p * k0, y[1] + p * k1))
                    for k0 in (-1, 0, 1)
                    for k1 in (-1, 0, 1)
                )
                assert torus_cross_distance(x, y, p) == want


def test_torus_requires_period_4():
    with pytest.raises(ValueError):
        torus_cross_distance((0,), (1,), 3)


def test_torus_covers_matches_plain_covers():
    shape = upsilon_offsets(2)
    for p in (4, 5):  # at p = 4 the arm residues 2 and 3 are next to each other
        for x in itertools.product(range(p), repeat=2):
            cells = shape.torus_cells(x, p)
            for a in itertools.product(range(p), repeat=2):
                assert torus_covers(x, a, p) == (a in cells)


def test_torus_covers_and_cells_are_exact_on_python_ints_of_any_size():
    # points past int64, or within p of its ends, are worked in Python ints and
    # cells reduced mod p in them; the oracle is the shape's definition
    assert torus_covers((2**70, 0), (0, 0), 4)
    shape, base = upsilon_offsets(2), shape_cells_oracle(2)
    rng = random.Random(22)
    ends = (2**63 - 1, -(2**63), 2**64, 2**70, -(2**70))
    for p in (4, 5, 12):
        for _ in range(100):
            x, a = (tuple(rng.choice(ends) + rng.randrange(-3, 4) for _ in range(2))
                    for _ in range(2))
            want = any(all((xi + ci - ai) % p == 0 for xi, ci, ai in zip(x, c, a))
                       for c in base)
            assert torus_covers(x, a, p) == want, (x, a, p)
            assert (tuple(v % p for v in a) in shape.torus_cells(x, p)) == want
            # the integer-array path takes the cell as given too
            words = np.array([[v % p for v in x]], dtype=np.uint8)
            assert torus_covers(words, a, p).tolist() == [want]
            # and reduces rows mod p before any subtraction, in every dtype that holds them
            for dtype in (np.int64, np.uint64):
                if all(np.iinfo(dtype).min <= v <= np.iinfo(dtype).max for v in x):
                    assert torus_covers(np.array([x], dtype=dtype), a, p).tolist() == [want]
    assert torus_covers(np.array([[-(2**63), 0]]), (5, 0), 12).tolist() == [True]
    assert torus_covers(np.array([[2**64 - 1, 0]], dtype=np.uint64), (3, 0), 12).tolist() == [True]
    # periods past int64 work an integer array in Python ints
    for p in (2**63 + 5, 2**64 + 1):
        words = np.array([[2**64 - 1, 3], [0, 3]], dtype=np.uint64)
        assert torus_covers(words, (2**64 - 2, 2), p).tolist() == [True, False]


def test_torus_cells_count_preserved():
    # p >= 4 keeps all 2^n (n+1) cells distinct after reduction
    shape = upsilon_offsets(3)
    for p in (4, 5, 12):
        assert len(shape.torus_cells((1, 2, 3), p)) == 2**3 * 4


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hamming_distance((0, 1), (0, 1, 2))
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
            want = min(
                torus_cross_distance(a, b, p) for a, b in itertools.combinations(cells, 2)
            )
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
