"""Code-to-tiling constructions and tile locators, against frozen examples."""

import itertools
import random

import numpy as np
import pytest

from halfcross import constructions
from halfcross.codes import BlockCode, binary_hamming, is_perfect, ternary_hamming
from halfcross.constructions import (
    from_binary_perfect,
    from_ternary_perfect,
    locate_tile_binary,
    locate_tile_ternary,
    punctured_construction,
    to_binary_perfect,
)
from halfcross.geometry import covers, upsilon_offsets
from halfcross.lattice import is_lattice_tiling, lambda_lattice
from halfcross.tiling import PeriodicTiling, normalize, structural_audit, verify
from test_lattice import cramer_contains, det_oracle, window

# frozen: a 16-word period-4 tiling of Z^7 recovered by the 0/1 vs 2/3 collapse
EXAMPLE_7D = tuple(
    tuple(int(ch) for ch in row)
    for row in (
        "0000000", "0000222", "2222000", "2222222",
        "2200201", "2200023", "0022201", "0022023",
        "2020021", "2020203", "0202021", "0202203",
        "2002002", "2002220", "0220002", "0220220",
    )
)

# the paper's class table: the four pairs of {0,1,2} x {0,1,2,3} with psi = s,
# keyed by phi(s)
CLASSES = {
    (0, 0): ((0, 0), (0, 3), (2, 2), (2, 1)),
    (1, 2): ((1, 2), (1, 1), (0, 1), (0, 2)),
    (2, 0): ((2, 0), (1, 3), (2, 3), (1, 0)),
}

# the paper's adjustment table, ADJUST[b][phi(s)] = b + d: the point of
# phi(s) + Lambda_2 that covers the pair b (unreduced, as printed)
ADJUST = {
    (0, 0): {(0, 0): (0, 0), (1, 2): (1, 2), (2, 0): (2, 0)},
    (0, 3): {(0, 0): (0, 4), (1, 2): (1, 2), (2, 0): (2, 4)},
    (2, 2): {(0, 0): (3, 2), (1, 2): (1, 2), (2, 0): (2, 4)},
    (2, 1): {(0, 0): (3, 2), (1, 2): (1, 2), (2, 0): (2, 0)},
    (1, 2): {(0, 0): (3, 2), (1, 2): (1, 2), (2, 0): (2, 4)},
    (1, 1): {(0, 0): (3, 2), (1, 2): (1, 2), (2, 0): (2, 0)},
    (0, 1): {(0, 0): (0, 0), (1, 2): (1, 2), (2, 0): (-1, 2)},
    (0, 2): {(0, 0): (0, 4), (1, 2): (1, 2), (2, 0): (-1, 2)},
    (2, 0): {(0, 0): (3, 2), (1, 2): (4, 0), (2, 0): (2, 0)},
    (1, 3): {(0, 0): (0, 4), (1, 2): (1, 2), (2, 0): (2, 4)},
    (2, 3): {(0, 0): (3, 2), (1, 2): (4, 4), (2, 0): (2, 4)},
    (1, 0): {(0, 0): (0, 0), (1, 2): (1, 2), (2, 0): (2, 0)},
}


def test_binary_construction_verifies():
    for t in (2, 3):
        tiling = from_binary_perfect(binary_hamming(t))
        assert tiling.p == 4
        report = verify(tiling)
        assert report.is_tiling
        assert report.min_cross_distance == 3
        assert is_lattice_tiling(tiling)


def test_binary_construction_word_count():
    tiling = from_binary_perfect(binary_hamming(3))
    assert len(tiling) == 16
    assert all(v in (0, 2) for w in tiling.codewords for v in w)


def test_binary_construction_rejects_imperfect():
    code = BlockCode(q=2, length=3, codewords=((0, 0, 0),))
    with pytest.raises(ValueError):
        from_binary_perfect(code)
    with pytest.raises(ValueError):
        from_ternary_perfect(binary_hamming(2))  # wrong alphabet
    # the locator trusts its code, but refuses a cell whose word the code does not decode
    with pytest.raises(ValueError, match="^decode failure: the supplied code is not perfect$"):
        locate_tile_binary((1, 1, 0), code)


def test_to_binary_perfect_round_trip():
    code = binary_hamming(3)
    assert to_binary_perfect(from_binary_perfect(code)).codewords == code.codewords


def test_example_7d_is_tiling_and_collapses():
    tiling = PeriodicTiling(n=7, p=4, codewords=EXAMPLE_7D)
    report = verify(tiling)
    assert report.is_tiling
    assert report.cells_total == 4**7
    code = to_binary_perfect(tiling)
    assert is_perfect(code)[0]
    assert len(code) == 16
    audit = structural_audit(tiling, report)
    assert audit.passed and audit.profile == "odd"


def test_punctured_construction():
    tiling = punctured_construction(binary_hamming(3))
    report = verify(tiling)
    assert report.is_tiling
    # the even-prefix words stay even, the odd-prefix words get an odd last entry
    lasts = sorted(w[-1] % 2 for w in tiling.codewords)
    assert lasts == [0] * 8 + [1] * 8
    # this variant is not a translate of a lattice: the word set with 0 is not closed
    normalized = normalize(tiling, sorted(tiling.codewords)[0])
    assert verify(normalized).is_tiling
    assert is_lattice_tiling(normalized) in (True, False)  # recorded, not forced


def test_punctured_rejects_short_code():
    with pytest.raises(ValueError):
        punctured_construction(BlockCode(q=2, length=1, codewords=((0,),)))


def test_phi_psi_inverse_on_representatives():
    # the ternary route's tables, psi indexed by the residue b at b_1 + 12 b_2
    route = constructions._TERNARY
    assert route.phi.tolist() == [[0, 0], [1, 2], [2, 0]]
    for s, (a, b) in enumerate(route.phi.tolist()):
        assert route.psi[a + 12 * b] == s


def test_psi_classes_partition():
    # each of the 12 pairs of {0,1,2} x {0,1,2,3} maps to exactly one class, of
    # sizes 4/4/4; each class of Z^2 / Lambda_2 holds 12 of the 144 residues mod 12
    psi = constructions._TERNARY.psi
    box = [a + 12 * b for a, b in itertools.product(range(3), range(4))]
    assert np.bincount(psi[box]).tolist() == [4, 4, 4]
    assert np.bincount(psi).tolist() == [48, 48, 48]


def test_derived_tables_match_paper():
    # the tables are indexed by the residue b in (Z_12)^2 at b_1 + 12 b_2; the paper
    # prints them on the 12 pairs of the HNF box {0,1,2} x {0,1,2,3}
    route = constructions._TERNARY
    phi = [tuple(row) for row in route.phi.tolist()]
    box = list(itertools.product(range(3), range(4)))
    assert {b: int(route.psi[b[0] + 12 * b[1]]) for b in box} == {
        pair: s for s, rep in enumerate(phi) for pair in CLASSES[rep]
    }
    assert {
        b: {phi[s]: tuple(v + d for v, d in zip(b, route.lift[b[0] + 12 * b[1], s].tolist()))
            for s in range(3)}
        for b in box
    } == ADJUST
    # binary: psi(b) = ceil(b / 2) mod 2, and b + d is the value in b-1..b+2 that is 2s mod 4
    route = constructions._BINARY
    assert route.psi.tolist() == [(b + 1) // 2 % 2 for b in range(4)]
    assert route.lift.tolist() == [[[-1 + (2 * s - b + 1) % 4] for s in (0, 1)] for b in range(4)]


@pytest.mark.parametrize("route, block", [
    (constructions._BINARY, ((4,),)),
    (constructions._TERNARY, ((3, 2), (0, 4))),
], ids=["binary", "ternary"])
def test_route_tables_hold_at_every_residue_mod_p(route, block):
    p, (q, m) = route.p, route.phi.shape
    det = det_oracle([list(r) for r in block])
    shape = set(upsilon_offsets(m).offsets)
    residues = list(itertools.product(range(p), repeat=m))
    assert route.psi.shape == (p**m,) and route.lift.shape == (p**m, q, m)

    def index(b):  # coordinate 1 fastest
        return sum(v * p**k for k, v in enumerate(b))

    for b in residues:
        lifts = [tuple(route.lift[index(b), s].tolist()) for s in range(q)]
        for s, d in enumerate(lifts):
            # b + d lies in phi(s) + L, by Cramer's rule on L's generator
            x = [bi + di - f for bi, di, f in zip(b, d, route.phi[s].tolist())]
            assert cramer_contains(block, det, x), (b, s)
            assert d in shape, (b, s)
        core = [s for s, d in enumerate(lifts) if set(d) <= {0, 1}]
        assert core == [route.psi[index(b)]], b
        # psi(b) is a function of the class b + L
        for g in block:
            moved = tuple((bi + gi) % p for bi, gi in zip(b, g))
            assert route.psi[index(moved)] == route.psi[index(b)], (b, g)


@pytest.mark.parametrize(
    "phi_rows, block, p, message",
    [(((0,), (2,)), ((2,),), 4, "one offset per symbol"),  # Upsilon_1 meets each class of 2Z twice
     (((0,), (1,)), ((4,),), 4, "exactly one symbol"),  # both symbols lift within the core of 0
     # the binary route but for its period: 0 and 4 are one residue mod 4 but not mod 6
     (((0,), (2,)), ((4,),), 6, "does not contain p e_i")],
    ids=["upsilon-twice-per-residue", "two-core-symbols", "period-outside-lattice"],
)
def test_route_derivation_rejects_bad_routes(phi_rows, block, p, message):
    with pytest.raises(RuntimeError, match=message):
        constructions._route(phi_rows, block, p, binary_hamming)


def test_ternary_construction_nu1():
    tiling = from_ternary_perfect(ternary_hamming(1))
    assert tiling.n == 2 and tiling.p == 12
    assert tiling.codewords == tuple(sorted(window(lambda_lattice(1), 12)))
    report = verify(tiling)
    assert report.is_tiling and report.min_cross_distance == 3
    assert is_lattice_tiling(tiling)


def test_ternary_construction_count_formula():
    # |T| = |C| * 12^nu = 2^n 3^(n-t) with n = 2 nu
    tiling = from_ternary_perfect(ternary_hamming(2))
    assert tiling.n == 8 and tiling.p == 12
    assert len(tiling) == 9 * 12**4 == 2**8 * 3**6 == 186624


def test_locate_ternary_frozen_example():
    code = ternary_hamming(1)
    assert locate_tile_ternary((1, 1), code) == (3, 2)
    assert locate_tile_ternary((0, 0), code) == (0, 0)


def test_locate_ternary_covers_window_nu1():
    code = ternary_hamming(1)
    tiling = from_ternary_perfect(code)
    words = tiling.codeword_set()
    for a in itertools.product(range(12), repeat=2):
        x = locate_tile_ternary(a, code)
        assert covers(x, a)
        assert tuple(v % 12 for v in x) in words


def test_locate_ternary_agrees_with_membership_nu2():
    code = ternary_hamming(2)
    tiling = from_ternary_perfect(code)
    words = tiling.codeword_set()
    rng = random.Random(20240818)
    for _ in range(500):
        a = tuple(rng.randrange(-24, 25) for _ in range(8))
        x = locate_tile_ternary(a, code)
        assert covers(x, a)
        assert tuple(v % 12 for v in x) in words


def test_locate_ternary_raises_on_non_covering_result(monkeypatch):
    # the cover check on the result must survive python -O
    monkeypatch.setattr(constructions, "covers", lambda x, a: False)
    with pytest.raises(RuntimeError):
        locate_tile_ternary((1, 1), ternary_hamming(1))


@pytest.mark.filterwarnings("ignore:binary_hamming\\(1\\)")
def test_locate_binary_covers_window():
    # t = 3 near the origin, t = 4 at the benchmark's scale, and the t = 1 code {0}
    rng = random.Random(20240819)
    for t, box, queries in ((3, 8, 500), (4, 10**6, 40), (1, 8, 50)):
        code = binary_hamming(t)
        words = from_binary_perfect(code).codeword_set()
        for _ in range(queries):
            a = tuple(rng.randrange(-box, box + 1) for _ in range(code.length))
            x = locate_tile_binary(a, code)
            assert covers(x, a)
            assert tuple(v % 4 for v in x) in words


def test_locate_binary_raises_on_non_covering_result(monkeypatch):
    # the cover check on the result must survive python -O
    monkeypatch.setattr(constructions, "covers", lambda x, a: False)
    with pytest.raises(RuntimeError):
        locate_tile_binary((0, 0, 0), binary_hamming(2))


def test_locators_reject_bad_dimensions():
    with pytest.raises(ValueError):
        locate_tile_ternary((0, 0, 0), ternary_hamming(1))
    with pytest.raises(ValueError):
        locate_tile_binary((0, 0), binary_hamming(3))
