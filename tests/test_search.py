"""Backtracking search: exhaustiveness, symmetry breaking, budgets."""

import itertools

import pytest

from halfcross.lattice import is_lattice_tiling
from halfcross.search import SearchConfig, divisibility_precheck, search_tilings
from halfcross.tiling import normalize, permute, reflect, verify

LAMBDA2_WORDS = (
    (0, 0), (0, 4), (0, 8), (3, 2), (3, 6), (3, 10),
    (6, 0), (6, 4), (6, 8), (9, 2), (9, 6), (9, 10),
)


def test_divisibility_precheck():
    assert divisibility_precheck(1, 4)
    assert divisibility_precheck(3, 4)
    assert divisibility_precheck(2, 12)
    assert not divisibility_precheck(2, 4)  # 12 does not divide 16
    assert not divisibility_precheck(2, 5)
    assert divisibility_precheck(2, 6)  # necessary, not sufficient


def test_search_refuses_divisibility_violation():
    sols, stats = search_tilings(SearchConfig(n=2, p=4))
    assert sols == [] and stats.status == "divisibility"
    assert stats.nodes == 0


def test_search_n1_translate_orbit():
    sols, stats = search_tilings(
        SearchConfig(n=1, p=4, max_solutions=100, symmetry_breaking=True)
    )
    assert [s.codewords for s in sols] == [((0,),)]
    assert stats.status == "complete"
    sols, stats = search_tilings(
        SearchConfig(n=1, p=4, max_solutions=100, symmetry_breaking=False)
    )
    assert [s.codewords for s in sols] == [((0,),), ((1,),), ((2,),), ((3,),)]


def test_search_n3_p4():
    sols, stats = search_tilings(
        SearchConfig(n=3, p=4, max_solutions=1000, symmetry_breaking=True)
    )
    assert len(sols) == 1 and stats.status == "complete"
    only = sols[0]
    assert only.codewords == ((0, 0, 0), (2, 2, 2))
    assert verify(only).is_tiling
    # without symmetry breaking every solution is a translate: 4^3 / 2 = 32
    sols_all, stats_all = search_tilings(
        SearchConfig(n=3, p=4, max_solutions=1000, symmetry_breaking=False)
    )
    assert len(sols_all) == 32 and stats_all.status == "complete"
    for s in sols_all:
        assert verify(s).is_tiling


def test_search_finds_lambda2_window():
    sols, stats = search_tilings(SearchConfig(n=2, p=12, max_solutions=1))
    assert stats.status == "complete" and len(sols) == 1
    found = sols[0]
    assert verify(found).is_tiling
    # the first solution in lexicographic order is the lattice window itself
    assert found.codewords == LAMBDA2_WORDS
    assert is_lattice_tiling(found)


def test_search_solution_equivalent_to_lattice_window():
    # any found solution matches the lattice window under translate /
    # coordinate swap / reflection
    sols, _ = search_tilings(SearchConfig(n=2, p=12, max_solutions=1))
    found = sols[0]
    target = set(LAMBDA2_WORDS)
    matches = []
    for sigma in ((0, 1), (1, 0)):
        for signs in itertools.product((-1, 1), repeat=2):
            base = reflect(permute(found, sigma), signs)
            for w in base.codewords:
                cand = normalize(base, w)
                if cand.codeword_set() == target:
                    matches.append((sigma, signs, w))
    assert matches


def test_search_exhausts_n2_p6():
    # divisibility holds (12 | 36) yet exhaustive search finds nothing:
    # the forced period in two dimensions is 12, not 6
    sols, stats = search_tilings(SearchConfig(n=2, p=6, max_solutions=5))
    assert sols == [] and stats.status == "complete"


def test_search_node_budget():
    sols, stats = search_tilings(
        SearchConfig(n=2, p=12, max_solutions=10**6, node_budget=5)
    )
    assert stats.status == "budget"
    assert stats.nodes == 6  # budget triggers on the first node past it


def test_search_scale_guard():
    with pytest.raises(ValueError):
        SearchConfig(n=8, p=12)
    with pytest.raises(ValueError):
        SearchConfig(n=2, p=3)
    # 12^(10^8) is never built: the dimension alone is past the scale
    with pytest.raises(ValueError, match=r"window 12\^100000000 exceeds search scale"):
        SearchConfig(n=10**8, p=12)


def test_search_refuses_max_solutions_below_one():
    # zero solutions asked for would read as a complete negative result
    for wanted in (0, -1):
        with pytest.raises(ValueError, match=f"max solutions must be >= 1, got {wanted}"):
            SearchConfig(n=2, p=24, max_solutions=wanted, symmetry_breaking=False)


def test_search_refuses_node_budget_below_one():
    # a search allowed no node would stop at once and read as out of budget
    for budget in (0, -1):
        with pytest.raises(ValueError, match=f"node budget must be >= 1, got {budget}"):
            SearchConfig(n=2, p=12, node_budget=budget)


def test_search_deterministic():
    a, _ = search_tilings(SearchConfig(n=2, p=12, max_solutions=3))
    b, _ = search_tilings(SearchConfig(n=2, p=12, max_solutions=3))
    assert [s.codewords for s in a] == [s.codewords for s in b]
