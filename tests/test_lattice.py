"""Exact lattice arithmetic and the ternary-construction lattice."""

import itertools
import random

import numpy as np
import pytest

from halfcross import lattice
from halfcross.lattice import (
    IntegerLattice,
    is_lattice_tiling,
    lambda_lattice,
    volume,
    window_array,
)
from halfcross.tiling import PeriodicTiling


def contains(lat, x):
    """Membership as the library decides it: x reduces to zero against the HNF."""
    return not lattice._reduce(lat.hnf, np.array([x], dtype=object)).any()


def window(lat, p):
    """The window points of window_array as a set of tuples."""
    return set(map(tuple, window_array(lat, p).tolist()))

# frozen: the 12 window points of the 2-dimensional construction lattice
LAMBDA2_WINDOW = {
    (0, 0), (0, 4), (0, 8),
    (3, 2), (3, 6), (3, 10),
    (6, 0), (6, 4), (6, 8),
    (9, 2), (9, 6), (9, 10),
}


def det_oracle(rows):
    """Determinant by cofactor expansion (exact, exponential, tiny matrices only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_oracle(minor)
    return total


def test_volume_matches_cofactor_oracle():
    cases = [
        ((2,),),
        ((1, 2), (3, 4)),
        ((3, 2, 0), (0, 4, 0), (1, 1, 5)),
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 2, 1), (0, 0, 0, 3)),
    ]
    for rows in cases:
        lat = IntegerLattice(n=len(rows), generator=rows)
        assert volume(lat) == abs(det_oracle([list(r) for r in rows]))


def cramer_contains(rows, det, x):
    """Membership by Cramer's rule: u_j = det(G with row j replaced by x) / det G."""
    return all(
        det_oracle([list(x) if i == j else list(r) for i, r in enumerate(rows)]) % det == 0
        for j in range(len(rows))
    )


def test_hnf_matches_cofactor_and_cramer_oracles():
    rng = random.Random(6)
    full_rank = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        det = det_oracle([list(r) for r in rows])
        if det == 0:
            with pytest.raises(ValueError):
                IntegerLattice(n=n, generator=rows)
            continue
        full_rank += 1
        lat = IntegerLattice(n=n, generator=rows)
        assert volume(lat) == abs(det), rows
        members = [
            tuple(sum(u * r[i] for u, r in zip(us, rows)) for i in range(n))
            for us in (tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(5))
        ]
        others = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(20)]
        for x in members + others:
            assert contains(lat, x) == cramer_contains(rows, det, x), (rows, x)
        assert all(contains(lat, x) for x in members)
    assert full_rank > 400


def test_window_matches_brute_force_filter():
    rng = random.Random(7)
    periodic = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        p = rng.choice((4, 6))
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        det = det_oracle([list(r) for r in rows])
        if det == 0:
            continue
        lat = IntegerLattice(n=n, generator=rows)
        units = [tuple(p if j == i else 0 for j in range(n)) for i in range(n)]
        if not all(cramer_contains(rows, det, e) for e in units):
            with pytest.raises(ValueError):
                window(lat, p)
            continue
        periodic += 1
        want = {
            x for x in itertools.product(range(p), repeat=n)
            if cramer_contains(rows, det, x)
        }
        assert window(lat, p) == want, (rows, p)
        assert len(want) == p**n // abs(det)
    assert periodic > 50


def test_singular_generator_rejected():
    with pytest.raises(ValueError):
        IntegerLattice(n=2, generator=((1, 2), (2, 4)))


def test_lambda_lattice_volume():
    for nu in (1, 2, 3, 4):
        assert volume(lambda_lattice(nu)) == 12**nu


def test_lambda_lattice_generators():
    lat = lambda_lattice(2)
    assert lat.generator == (
        (3, 2, 0, 0),
        (0, 4, 0, 0),
        (0, 0, 3, 2),
        (0, 0, 0, 4),
    )


def test_contains_by_enumeration():
    lat = lambda_lattice(1)
    # oracle: all integer combinations u1*(3,2) + u2*(0,4) within range
    pts = {
        (3 * u1, 2 * u1 + 4 * u2)
        for u1 in range(-5, 6)
        for u2 in range(-5, 6)
    }
    for x in itertools.product(range(-9, 10), repeat=2):
        assert contains(lat, x) == (x in pts), x


def test_contains_non_orthogonal_basis():
    # u*(2,1) + v*(1,2) is exactly {x : x1 + x2 = 0 mod 3}
    lat = IntegerLattice(n=2, generator=((2, 1), (1, 2)))
    for x in itertools.product(range(-6, 7), repeat=2):
        assert contains(lat, x) == ((x[0] + x[1]) % 3 == 0), x


def test_window_lambda2_frozen():
    assert window(lambda_lattice(1), 12) == LAMBDA2_WINDOW


def test_window_size_is_pn_over_volume():
    for nu in (1, 2):
        lat = lambda_lattice(nu)
        assert len(window(lat, 12)) == 12 ** (2 * nu) // volume(lat)


def test_window_rejects_non_periodic():
    lat = IntegerLattice(n=2, generator=((5, 0), (0, 1)))
    with pytest.raises(ValueError):
        window(lat, 12)  # 12*e_1 is not in this lattice


def test_is_lattice_tiling_positive():
    words = tuple(sorted(LAMBDA2_WINDOW))
    assert is_lattice_tiling(PeriodicTiling(n=2, p=12, codewords=words))


def test_is_lattice_tiling_needs_zero():
    shifted = tuple(sorted(((a + 1) % 12, b) for a, b in LAMBDA2_WINDOW))
    assert not is_lattice_tiling(PeriodicTiling(n=2, p=12, codewords=shifted))


def test_is_lattice_tiling_rejects_non_subgroup():
    # swap one window point for a non-lattice point; still 12 words with 0
    words = set(LAMBDA2_WINDOW)
    words.remove((9, 10))
    words.add((9, 11))
    assert not is_lattice_tiling(
        PeriodicTiling(n=2, p=12, codewords=tuple(sorted(words)))
    )


def test_is_lattice_tiling_rejects_subgroup_of_wrong_size():
    # {0, 2} is a subgroup of Z_4, but two copies of the 4-cell shape fill 8
    with pytest.raises(ValueError):
        is_lattice_tiling(PeriodicTiling(n=1, p=4, codewords=((0,), (2,))))


def test_lattice_holds_numpy_generators_as_python_ints():
    # int64 entries would wrap in the HNF's products; the determinant is 2^80 - 1
    g = np.array([[2**40, 1], [1, 2**40]])
    lat = IntegerLattice(n=2, generator=tuple(map(tuple, g)))
    assert {type(v) for row in lat.generator for v in row} == {int}
    assert lat == IntegerLattice(n=2, generator=((2**40, 1), (1, 2**40)))
    assert volume(lat) == 2**80 - 1
    assert contains(lat, (2**40, 1)) and not contains(lat, (1, 0))


def test_lattice_refuses_non_integer_entries():
    # a fraction was once accepted (volume 0.5); integral floats are refused too
    for gen, name in ((((0.5,),), r"0\.5"), (((2, 1), (1, np.float64(3.0))), r"3\.0"),
                      (((2, "x"), (1, 2)), "x")):
        with pytest.raises(ValueError, match=f"^generator entry {name} is not an integer$"):
            IntegerLattice(n=len(gen), generator=gen)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 4096])
def test_is_lattice_tiling_checks_every_block(monkeypatch, block):
    # move each nonzero window point off the lattice in turn: wherever it sits
    # among the blocks, the scan must reach it
    monkeypatch.setattr(lattice, "_BLOCK", block)
    words = tuple(sorted(LAMBDA2_WINDOW))
    assert is_lattice_tiling(PeriodicTiling(n=2, p=12, codewords=words))
    for x in words[1:]:
        moved = (set(words) - {x}) | {(x[0], (x[1] + 1) % 12)}
        assert not is_lattice_tiling(PeriodicTiling(n=2, p=12, codewords=tuple(moved))), x
