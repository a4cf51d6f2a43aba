"""Code-to-tiling constructions and tile locators, against frozen examples."""

import itertools
import random

import pytest

from halfcross import lattice as lat
from halfcross.codes import BlockCode, binary_hamming, is_perfect, ternary_hamming
from halfcross.constructions import (
    from_binary_perfect,
    from_ternary_perfect,
    locate_tile_binary,
    locate_tile_ternary,
    phi,
    phi_word,
    psi,
    psi_word,
    punctured_construction,
    reduce_to_representative,
    to_binary_perfect,
)
from halfcross.geometry import covers
from halfcross.lattice import is_lattice_tiling, lambda_lattice, window
from halfcross.tiling import PeriodicTiling, normalize, structural_audit, verify

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
    for s in range(3):
        assert psi(phi(s)) == s
    assert phi_word((0, 1, 2)) == (0, 0, 1, 2, 2, 0)
    assert psi_word((0, 0, 1, 2, 2, 0)) == (0, 1, 2)


def test_psi_classes_partition():
    # each of the 12 pairs maps to exactly one class; class sizes are 4/4/4
    sizes = {0: 0, 1: 0, 2: 0}
    for pair in itertools.product(range(3), range(4)):
        sizes[psi(pair)] += 1
    assert sizes == {0: 4, 1: 4, 2: 4}
    with pytest.raises(ValueError):
        psi((3, 0))


def test_reduce_to_representative_exhaustive():
    lam = lambda_lattice(1)
    for a in itertools.product(range(-12, 13), repeat=2):
        b, y = reduce_to_representative(a)
        assert 0 <= b[0] < 3 and 0 <= b[1] < 4
        assert tuple(ai + yi for ai, yi in zip(a, y)) == b
        assert lat.contains(lam, y)


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
    from halfcross import constructions

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
    from halfcross import constructions

    monkeypatch.setattr(constructions, "covers", lambda x, a: False)
    with pytest.raises(RuntimeError):
        locate_tile_binary((0, 0, 0), binary_hamming(2))


@pytest.mark.parametrize(
    "pair, rep, bad, message",
    [((0, 3), (0, 0), (0, 8), "does not cover"),  # an entry outside -1..2
     ((0, 3), (2, 0), (-1, 2), "does not cover"),  # two exceptional entries
     ((0, 0), (0, 0), (0, 2), "own class")],  # an exceptional entry within its own class
    ids=["range", "two-exceptional", "own-class"],
)
def test_class_table_validation_catches_mistranscription(monkeypatch, pair, rep, bad, message):
    from halfcross import constructions

    monkeypatch.setitem(constructions.ADJUST, pair, {**constructions.ADJUST[pair], rep: bad})
    with pytest.raises(RuntimeError, match=message):
        constructions._validate_class_table()


def test_locators_reject_bad_dimensions():
    with pytest.raises(ValueError):
        locate_tile_ternary((0, 0, 0), ternary_hamming(1))
    with pytest.raises(ValueError):
        locate_tile_binary((0, 0), binary_hamming(3))
