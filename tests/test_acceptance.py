"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Criterion 6 (the 429,981,696-cell window) is the only long-running item;
its tiling is built once per session and shared with criteria 7, 8 and 10.
"""

import itertools
import random
import resource
import sys
import time

import pytest

from halfcross.cli import main as cli_main
from halfcross.codes import (
    binary_hamming,
    is_perfect,
    min_hamming_distance,
    ternary_hamming,
    weight_split,
)
from halfcross.constructions import (
    from_binary_perfect,
    from_ternary_perfect,
    locate_tile_ternary,
    punctured_construction,
    to_binary_perfect,
)
from halfcross.geometry import covers, cross_distance, upsilon_offsets
from halfcross.lattice import is_lattice_tiling, lambda_lattice, volume, window_array
from halfcross.search import SearchConfig, search_tilings
from halfcross.tiling import (
    PeriodicTiling,
    is_periodic_with,
    nonexistence_certificate,
    spencer_bound,
    structural_audit,
    verify,
    write_tiling,
)

EXAMPLE_7D = tuple(
    tuple(int(ch) for ch in row)
    for row in (
        "0000000", "0000222", "2222000", "2222222",
        "2200201", "2200023", "0022201", "0022023",
        "2020021", "2020203", "0202021", "0202203",
        "2002002", "2002220", "0220002", "0220220",
    )
)

LAMBDA2_WINDOW = (
    (0, 0), (0, 4), (0, 8), (3, 2), (3, 6), (3, 10),
    (6, 0), (6, 4), (6, 8), (9, 2), (9, 6), (9, 10),
)


def report(num: int, ok: bool, detail: str) -> None:
    # write past pytest's capture so every criterion prints its own line
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", file=sys.__stdout__)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def big_ternary():
    """The n=8, p=12 tiling from the length-4 ternary code, verified once."""
    code = ternary_hamming(2)
    tiling = from_ternary_perfect(code)
    start = time.monotonic()
    rep = verify(tiling, pair_budget=0)
    elapsed = time.monotonic() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return code, tiling, rep, elapsed, peak_mb


def test_criterion_1_binary_pipeline(tmp_path):
    start = time.monotonic()
    code_path = tmp_path / "h3.code"
    tiling_path = tmp_path / "h3.tiling"
    rc1 = cli_main(["gen-code", "--base", "2", "--t", "3", "--out", str(code_path)])
    code = binary_hamming(3)
    ok = (
        rc1 == 0
        and len(code) == 16
        and min_hamming_distance(code) == 3
        and is_perfect(code)[0]
        and 16 * (1 + 7) == 2**7
    )
    rc2 = cli_main([
        "build-tiling", "--method", "binary",
        "--code", str(code_path), "--out", str(tiling_path),
    ])
    tiling = from_binary_perfect(code)
    rep = verify(tiling)
    ok = (
        ok
        and rc2 == 0
        and len(tiling) == 16
        and tiling.p == 4
        and rep.is_tiling
        and rep.cells_total == 16384
        and rep.uncovered == 0
        and rep.multiply_covered == 0
    )
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 1.0,
           f"16 codewords, d_min 3, perfect, 16384 cells exact, {elapsed:.2f}s")


def test_criterion_2_explicit_example(tmp_path):
    path = tmp_path / "example7.tiling"
    write_tiling(PeriodicTiling(n=7, p=4, codewords=EXAMPLE_7D), path)
    rc = cli_main(["verify", "--tiling", str(path), "--min-dist"])
    from halfcross.tiling import read_tiling

    rep = verify(read_tiling(path))
    ok = (
        rc == 0
        and rep.is_tiling
        and rep.uncovered == 0
        and rep.multiply_covered == 0
        and rep.min_cross_distance is not None
        and rep.min_cross_distance >= 3
    )
    report(2, ok, f"16-word example tiles Z_4^7, min torus d_C = {rep.min_cross_distance}")


def test_criterion_3_punctured_construction():
    code = binary_hamming(3)
    tiling = punctured_construction(code)
    rep = verify(tiling)
    odd_entries = sum(1 for w in tiling.codewords for v in w if v % 2 == 1)
    from halfcross.codes import puncture

    even, odd = weight_split(puncture(code))
    ok = (
        rep.is_tiling
        and odd_entries >= 1
        and len(even) == 8
        and len(odd) == 8
    )
    report(3, ok, f"verified, {odd_entries} odd entries, punctured split 8/8")


def test_criterion_4_xi_recovery():
    tiling = PeriodicTiling(n=7, p=4, codewords=EXAMPLE_7D)
    code = to_binary_perfect(tiling)
    ok_perfect, reason = is_perfect(code)
    ok = len(code) == 16 and ok_perfect
    report(4, ok, f"collapse gives 16 binary words, {reason}")


def test_criterion_5_ternary_pipeline_small():
    start = time.monotonic()
    tiling = from_ternary_perfect(ternary_hamming(1))
    rep = verify(tiling)
    lam = lambda_lattice(1)
    ok = (
        tiling.codewords == LAMBDA2_WINDOW
        and set(tiling.codewords) == set(map(tuple, window_array(lam, 12).tolist()))
        and rep.is_tiling
        and rep.cells_total == 144
        and is_lattice_tiling(tiling)
        and volume(lam) == 12 == 2**2 * 3 == len(upsilon_offsets(2).offsets)
    )
    elapsed = time.monotonic() - start
    report(5, ok and elapsed < 1.0,
           f"12-point window, 144 cells exact, lattice, volume 12, {elapsed:.2f}s")


def test_criterion_6_ternary_pipeline_large(big_ternary):
    code, tiling, rep, elapsed, peak_mb = big_ternary
    ok = (
        len(tiling) == 186624 == 2**8 * 3**6
        and tiling.n == 8
        and tiling.p == 12
        and rep.is_tiling
        and rep.cells_total == 429981696
        and rep.uncovered == 0
        and rep.multiply_covered == 0
        and elapsed <= 600.0
        and peak_mb <= 512.0
    )
    report(6, ok,
           f"186624 codewords, 429981696 cells exact, {elapsed:.1f}s, peak {peak_mb:.0f} MB")


def test_criterion_7_structural_audits(big_ternary):
    _, tiling, rep, _, _ = big_ternary
    audit = structural_audit(tiling, rep)
    by_name = {c.name: c for c in audit.checks}
    coverage = sorted(set(i for pair in audit.f1_pairs for i in pair))
    bound = spencer_bound(8)
    ok = (
        len(audit.f1_pairs) == 4
        and by_name["f1-supports-disjoint"].passed
        and coverage == list(range(1, 9))
        and all(by_name[f"companions-({r},{s})"].passed for r, s in audit.f1_pairs)
        and all(by_name[f"chain-({r},{s})"].passed for r, s in audit.f1_pairs)
        and by_name["pair-partition-f1-f2"].passed
        and bound == 8  # floor((8/3) * floor(7/2)) computed exactly
        and len(audit.f2_triples) <= bound
        and audit.passed
    )
    report(7, ok,
           f"F1 = {list(audit.f1_pairs)}, |F2| = {len(audit.f2_triples)} <= {bound}, "
           "companions/chains/partition all present")


def test_criterion_8_periodicity(big_ternary):
    _, big, _, _, _ = big_ternary
    binary = from_binary_perfect(binary_hamming(3))
    small = from_ternary_perfect(ternary_hamming(1))
    ok = (
        is_periodic_with(binary, 4)
        and is_periodic_with(small, 12)
        and not is_periodic_with(small, 4)
        and not is_periodic_with(small, 6)
        and is_periodic_with(big, 12)
    )
    report(8, ok, "binary invariant mod 4; ternary mod 12 only (4 and 6 fail for n=2)")


def test_criterion_9_nonexistence_certificates():
    admissible = {1, 2, 3, 7, 8, 15}
    ok = True
    for n in range(1, 17):
        cert = nonexistence_certificate(n)
        want_forced = 4 if n % 2 == 1 else 12
        ok = ok and cert.forced_period == want_forced
        if n in admissible:
            ok = ok and cert.divides
        else:
            ok = ok and not cert.divides
    c5 = nonexistence_certificate(5)
    c4 = nonexistence_certificate(4)
    ok = (
        ok
        and (c5.shape_size, c5.window_size, c5.divides) == (192, 1024, False)
        and (c4.shape_size, c4.window_size, c4.divides) == (80, 20736, False)
    )
    report(9, ok, "divides = false exactly off {1,2,3,7,8,15}; 192 ∤ 1024, 80 ∤ 20736")


def test_criterion_10_oracle_equivalences(big_ternary):
    code, tiling, _, _, _ = big_ternary
    start = time.monotonic()
    ok = True

    # covers <=> offset membership, exhaustive difference vectors, n <= 4
    for n in (1, 2, 3, 4):
        offs = set(upsilon_offsets(n).offsets)
        zero = (0,) * n
        for d in itertools.product(range(-3, 5), repeat=n):
            ok = ok and covers(d, zero) == (d in offs)

    # disjointness <=> d_C >= 3 by explicit cell-set intersection, n <= 3
    for n in (1, 2, 3):
        offs = upsilon_offsets(n).offsets

        def cells(y):
            return {tuple(a - d for a, d in zip(y, off)) for off in offs}

        base = cells((0,) * n)
        for y in itertools.product(range(-5, 6), repeat=n):
            disjoint = not (base & cells(y))
            ok = ok and disjoint == (cross_distance((0,) * n, y) >= 3)

    # sharded verifier <=> naive per-cell scan on p^n <= 1e5 instances
    rng = random.Random(20240820)
    for n, p in ((1, 4), (2, 8), (2, 12), (3, 4)):
        cells = list(itertools.product(range(p), repeat=n))
        instances = [LAMBDA2_WINDOW] if (n, p) == (2, 12) else []
        for _ in range(10):
            k = rng.randrange(1, p**n // (2**n * (n + 1)) + 2)
            instances.append(tuple(sorted(rng.sample(cells, k))))
        for words in instances:
            t = PeriodicTiling(n=n, p=p, codewords=tuple(words))
            rep = verify(t)
            counts = {}
            shape = upsilon_offsets(n)
            for x in t.codewords:
                for cell in shape.torus_cells(x, p):
                    counts[cell] = counts.get(cell, 0) + 1
            unc = p**n - len(counts)
            mult = sum(1 for v in counts.values() if v > 1)
            ok = ok and (rep.uncovered, rep.multiply_covered) == (unc, mult)

    # ternary locator on 1e5 sampled window points of the n=8 tiling
    words = tiling.codeword_set()
    rng = random.Random(20240821)
    for _ in range(100_000):
        a = tuple(rng.randrange(12) for _ in range(8))
        x = locate_tile_ternary(a, code)
        ok = ok and covers(x, a) and tuple(v % 12 for v in x) in words
        if not ok:
            break

    # search finds tilings at (1,4), (3,4), (2,12); every solution verifies
    for n, p in ((1, 4), (3, 4), (2, 12)):
        sols, stats = search_tilings(SearchConfig(n=n, p=p, max_solutions=2))
        ok = ok and len(sols) >= 1
        ok = ok and all(verify(s).is_tiling for s in sols)

    elapsed = time.monotonic() - start
    report(10, ok and elapsed < 300.0,
           f"offset/disjointness/verifier/locator/search oracles agree, {elapsed:.1f}s")
