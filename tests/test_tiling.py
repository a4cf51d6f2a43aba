"""Exact-cover verification, normalization, certificates, audits, file round-trips."""

import itertools
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from halfcross import tiling as tiling_module
from halfcross.codes import binary_hamming, ternary_hamming
from halfcross.constructions import from_binary_perfect, from_ternary_perfect
from halfcross.geometry import _offsets, upsilon_offsets
from halfcross.tiling import (
    CellBudgetExceeded,
    PeriodicTiling,
    TilingFormatError,
    _mark_tables,
    _min_torus_cross_distance,
    _scan,
    _write_marks,
    admissible_dimension,
    is_periodic_with,
    nonexistence_certificate,
    normalize,
    read_tiling,
    spencer_bound,
    structural_audit,
    verify,
    window_exceeds,
    write_tiling,
)

LAMBDA2_WORDS = (
    (0, 0), (0, 4), (0, 8), (3, 2), (3, 6), (3, 10),
    (6, 0), (6, 4), (6, 8), (9, 2), (9, 6), (9, 10),
)


def lambda2_tiling():
    return PeriodicTiling(n=2, p=12, codewords=LAMBDA2_WORDS)


def verify_oracle(tiling):
    """Per-cell cover counting straight from the definition (p^n <= 1e5).

    Returns (uncovered, multiply covered, witness), where the witness is the
    lowest-index bad cell, indexed mixed-radix with coordinate 1 fastest, with
    its cover count, or None for a tiling.
    """
    n, p = tiling.n, tiling.p
    assert p**n <= 10**5
    counts = {}
    shape = upsilon_offsets(n)
    for x in tiling.codewords:
        for cell in shape.torus_cells(x, p):
            counts[cell] = counts.get(cell, 0) + 1
    uncovered = p**n - len(counts)
    multiply = sum(1 for v in counts.values() if v > 1)
    witness = None
    for rev in itertools.product(range(p), repeat=n):
        cell = rev[::-1]
        if counts.get(cell, 0) != 1:
            witness = (cell, counts.get(cell, 0))
            break
    return uncovered, multiply, witness


def torus_covers_oracle(x, a, p):
    """Whether the codeword x covers the cell a on (Z_p)^n, one coordinate at a time."""
    exceptional = 0
    for xi, ai in zip(x, a):
        d = (xi - ai) % p
        if d == 2 or d == p - 1:
            exceptional += 1
            if exceptional > 1:
                return False
        elif d != 0 and d != 1:
            return False
    return True


def assert_matches_oracle(tiling):
    report = verify(tiling)
    unc, mult, witness = verify_oracle(tiling)
    assert (report.uncovered, report.multiply_covered) == (unc, mult), tiling
    assert report.is_tiling == (witness is None)
    if witness is None:
        assert report.first_witness is None
    else:
        cell, covering = report.first_witness
        assert (cell, len(covering)) == witness, tiling


def dense_spy():
    """A spy on the box-pass kernel, which counts a shard in O(cells)."""
    return mock.patch.object(tiling_module, "_box_counts", wraps=tiling_module._box_counts)


def test_verify_lambda2_window():
    # one shard of 144 cells and 144 marks: counted by box passes
    with dense_spy() as dense:
        report = verify(lambda2_tiling())
    assert dense.call_count == 1
    assert report.is_tiling
    assert report.cells_total == 144
    assert report.multiply_covered == 0 and report.uncovered == 0
    assert report.first_witness is None
    assert report.min_cross_distance == 3


def test_verify_matches_oracle_on_perturbations():
    base = set(LAMBDA2_WORDS)
    cases = [base]
    # drop one codeword; move one codeword to every other free cell class
    cases.append(base - {(3, 6)})
    for repl in ((3, 7), (4, 6), (0, 1), (11, 11)):
        cases.append((base - {(3, 6)}) | {repl})
    cases.append(base | {(5, 5)})
    for words in cases:
        assert_matches_oracle(PeriodicTiling(n=2, p=12, codewords=tuple(sorted(words))))


def test_verify_oracle_random_small():
    # deterministic pseudo-random codeword sets on small tori, n in {1, 2, 3};
    # the second draw per case is overfull: more marks than cells
    import random

    rng = random.Random(20240817)
    for n, p in ((1, 4), (1, 7), (2, 8), (3, 4)):
        cells = list(itertools.product(range(p), repeat=n))
        fit = p**n // (2**n * (n + 1))
        for _ in range(20):
            for k in (rng.randrange(1, max(2, fit + 2)), rng.randrange(fit + 1, p**n + 1)):
                words = tuple(sorted(rng.sample(cells, k)))
                assert_matches_oracle(PeriodicTiling(n=n, p=p, codewords=words))


def scan_oracle(arr, size):
    """(uncovered, multiply covered, lowest cell not marked once or None) from
    np.unique's counts of the marks arr in 0..size-1."""
    values, counts = np.unique(arr, return_counts=True)
    per_cell = np.zeros(size, dtype=np.int64)
    per_cell[values] = counts
    bad = np.flatnonzero(per_cell != 1)
    return size - len(values), int((counts > 1).sum()), int(bad[0]) if bad.size else None


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_scan_matches_unique_counts(seed):
    # exact covers, a repeat at the first and at the last mark, a gap at the
    # start and at the end, one-mark shards, then seeded random sorted marks
    # and near-covers (one mark dropped, one repeated)
    rng = np.random.default_rng(seed)
    cases = []
    for size in (1, 2, 5, 12):
        cover = np.arange(size)
        cases += [(a, size) for a in (cover, np.r_[0, cover], np.r_[cover, size - 1],
                                      cover[1:], cover[:-1], [0], [size - 1])]
    for _ in range(200):
        size = int(rng.integers(1, 30))
        cases.append((np.sort(rng.integers(0, size, size=rng.integers(1, 2 * size + 2))), size))
        near = np.arange(size)
        if rng.random() < 0.5:
            near = np.delete(near, rng.integers(size))
        if rng.random() < 0.5:
            near = np.sort(np.r_[near, rng.integers(size)])
        cases.append((near, size))
    for arr, size in cases:
        arr = np.asarray(arr, dtype=np.int32)
        flags = np.empty((2, arr.size), bool)
        assert _scan(arr, size, flags) == scan_oracle(arr, size), (arr.tolist(), size)
    base = set(LAMBDA2_WORDS)
    for words in (base, base - {(3, 6)}, (base - {(3, 6)}) | {(4, 6)}, base | {(5, 5)}):
        assert_matches_oracle(PeriodicTiling(n=2, p=12, codewords=tuple(sorted(words))))
    cells = list(itertools.product(range(4), repeat=3))
    for k in (1, 3, 8, 20):
        words = tuple(sorted(map(tuple, rng.permutation(cells)[:k].tolist())))
        assert_matches_oracle(PeriodicTiling(n=3, p=4, codewords=words))


def test_outer_sum_marks_enumerate_upsilon():
    # one codeword at the origin of Z_4^n, where a mark's base-4 digits are
    # -D_i mod 4, so every mark decodes to one offset D.  The marks come in
    # the row order of _offsets(n - 1) (with arms) or of its 2^(n-1) core rows
    # (without): _split's weights and _count_shards' arms-first gather rely on it
    assert _offsets(0).shape == (1, 0)  # s = 0: one empty trailing offset
    for n in range(1, 6):
        p, m = 4, n - 1
        t = _mark_tables(np.zeros((1, m), dtype=np.int64), p, np.int64)
        offsets = []
        for d in (-1, 0, 1, 2):
            out = np.empty(n << m, dtype=np.int64)
            marks = out[: _write_marks(t, out, arms=d in (0, 1))]
            rows = [tuple((1 - (mark // p**i) % p) % p - 1 for i in range(m))
                    for mark in marks.tolist()]
            want = _offsets(m) if d in (0, 1) else _offsets(m)[: 1 << m]
            assert rows == list(map(tuple, want.tolist())), (n, d)
            offsets += [row + (d,) for row in rows]
        assert sorted(offsets) == list(upsilon_offsets(n).offsets)


def test_verify_witness_is_lowest_bad_cell():
    # remove the codeword at (0,0): its 12 cells go uncovered; the lowest in
    # the coordinate-1-fastest order is (0,0) itself... check via the oracle
    words = tuple(w for w in LAMBDA2_WORDS if w != (0, 0))
    report = verify(PeriodicTiling(n=2, p=12, codewords=words))
    assert not report.is_tiling
    assert report.uncovered == 12
    cell, covering = report.first_witness
    assert covering == ()
    # no bad cell precedes it in the (coordinate 1 fastest) cell order
    n, p = 2, 12
    shape = upsilon_offsets(n)
    covered = set()
    for x in words:
        covered |= shape.torus_cells(x, p)
    bad = sorted(
        (a2 * p + a1) for a1 in range(p) for a2 in range(p)
        if (a1, a2) not in covered
    )
    assert cell == (bad[0] % p, bad[0] // p)


def test_verify_witness_multiply_covered():
    words = LAMBDA2_WORDS + ((5, 5),)
    report = verify(PeriodicTiling(n=2, p=12, codewords=words))
    assert not report.is_tiling
    assert report.multiply_covered == 12
    cell, covering = report.first_witness
    assert len(covering) == 2
    assert covering == tuple(w for w in sorted(words) if torus_covers_oracle(w, cell, 12))


def test_verify_witness_past_int32_cell_indices():
    # 4^17 cells in sixteen 4^15-cell shards: the witness index must not wrap at 2^31
    n, p = 17, 4
    t = PeriodicTiling(n=n, p=p, codewords=((0,) * n,))
    with dense_spy() as dense:  # sparse shards are sorted, never counted cell by cell
        report = verify(t, cell_budget=10**12)
    assert dense.call_count == 0
    cell, covering = report.first_witness
    assert sum(torus_covers_oracle(w, cell, p) for w in t.codewords) != 1
    assert len(covering) != 1
    index = sum(v * p**i for i, v in enumerate(cell))
    for lower in range(index):
        below = tuple((lower // p**i) % p for i in range(n))
        assert sum(torus_covers_oracle(w, below, p) for w in t.codewords) == 1


def test_verify_int64_shard_indices():
    # one codeword in 8^17 cells: its marks fit two-coordinate shards of 8^15
    # cells, whose indices (5 * 8^14 and up here) would wrap in int32 and collide
    n, p = 17, 8
    x = (0,) * 14 + (5, 0, 0)
    with dense_spy() as dense:
        report = verify(PeriodicTiling(n=n, p=p, codewords=(x,)), cell_budget=p**n)
    assert dense.call_count == 0
    assert (report.uncovered, report.multiply_covered) == (p**n - 2**n * (n + 1), 0)
    assert report.first_witness == ((0,) * n, ())


@pytest.mark.parametrize("in_caller", [True, False])
@pytest.mark.parametrize(
    "kernel, words",
    [
        # Lambda_2 in twelve shards of one last coordinate each: every shard
        # holds as many marks as cells, so each is counted by box passes
        ("_box_counts", LAMBDA2_WORDS),
        # two codewords bring at most 4 marks to each of eight 12-cell shards,
        # so each is sorted and scanned
        ("_scan", LAMBDA2_WORDS[:2]),
    ],
    ids=["box", "scan"],
)
def test_verify_raises_a_worker_error_once_every_thread_is_joined(kernel, words, in_caller):
    # on three threads, the first shard counted in the calling thread (or in
    # another) raises, and the other side waits for that before it counts any
    count, raised = getattr(tiling_module, kernel), threading.Event()

    def failing(*args):
        if (threading.current_thread() is threading.main_thread()) == in_caller:
            raised.set()
            raise ArithmeticError("shard")
        assert raised.wait(timeout=10)
        return count(*args)

    before = threading.active_count()
    with mock.patch.object(tiling_module, "_cpus", return_value=3), \
            mock.patch.object(tiling_module, "_SHARD_MARKS", 16), \
            mock.patch.object(tiling_module, kernel, failing), \
            pytest.raises(ArithmeticError, match="shard"):
        verify(PeriodicTiling(n=2, p=12, codewords=words))
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "n, p, words, cap, started",
    [
        # Lambda_2 at 12^2 is one shard: the caller counts it alone
        (2, 12, LAMBDA2_WORDS, 1 << 20, 0),
        # one codeword split by its last coordinate reaches four shards, so
        # eight CPUs give four workers: the caller and three threads
        (2, 4, ((1, 2),), 11, 3),
    ],
)
def test_verify_starts_a_thread_per_shard_at_most(n, p, words, cap, started):
    t = PeriodicTiling(n=n, p=p, codewords=words)
    with mock.patch.object(tiling_module, "_cpus", return_value=8), \
            mock.patch.object(tiling_module, "_SHARD_MARKS", cap), \
            mock.patch.object(threading, "Thread", wraps=threading.Thread) as spy:
        verify(t)
    assert spy.call_count == started


def test_verify_on_more_threads_than_cpus_loses_no_shard():
    # 4^7 cells in 64-mark shards on eight threads switching every microsecond:
    # a result lost or a shard counted twice would change the report
    words = from_binary_perfect(binary_hamming(3)).words
    t = PeriodicTiling(n=7, p=4, codewords=np.r_[words[1:], [[1, 2, 3, 0, 1, 2, 3]]])
    with mock.patch.object(tiling_module, "_SHARD_MARKS", 64):
        with mock.patch.object(tiling_module, "_cpus", return_value=1):
            want = verify(t)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(tiling_module, "_cpus", return_value=8):
                reports = [verify(t) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
    assert want.uncovered and want.multiply_covered
    assert reports == [want] * 5


def test_min_cross_distance_needs_two_codewords():
    for words in ((), ((0, 0),)):
        with pytest.raises(ValueError):
            _min_torus_cross_distance(PeriodicTiling(n=2, p=12, codewords=words))


def test_verify_min_distance_exact_past_int64():
    # each coordinate adds floor(p/2) - 1, and three such terms pass 2^63
    p = 2**63 - 25
    x, y = (0, 0, 0), (p // 2,) * 3
    with dense_spy() as dense:
        report = verify(PeriodicTiling(n=3, p=p, codewords=[x, y]), cell_budget=p**3)
    assert dense.call_count == 0
    assert report.min_cross_distance == 3 * (p // 2 - 1) == 13835058055282163670


def test_verify_min_distance_skipped_over_pair_budget():
    report = verify(lambda2_tiling(), pair_budget=0)
    assert report.min_cross_distance is None
    assert report.is_tiling


def test_verify_cell_budget():
    with pytest.raises(CellBudgetExceeded):
        verify(lambda2_tiling(), cell_budget=100)
    with pytest.raises(CellBudgetExceeded) as exc:
        verify(PeriodicTiling(n=9, p=12, codewords=()))
    assert str(exc.value) == "window 12^9 = 5159780352 exceeds budget 429981696"
    # 12^(10^8) is never built: the dimension alone is past the budget
    with pytest.raises(CellBudgetExceeded) as exc:
        verify(PeriodicTiling(n=10**8, p=12, codewords=()))
    assert str(exc.value) == "window 12^100000000 exceeds budget 429981696"


def test_window_exceeds_matches_the_power():
    for p, n, limit in itertools.product(range(2, 14), range(0, 40), (0, 1, 100, 12**8)):
        assert window_exceeds(p, n, limit) == (p**n > limit), (p, n, limit)


def test_verify_n1():
    t = PeriodicTiling(n=1, p=4, codewords=((0,),))
    report = verify(t)
    assert report.is_tiling and report.cells_total == 4


def test_normalize_translates_to_origin():
    t = normalize(lambda2_tiling(), (3, 6))
    assert (0, 0) in t.codeword_set()
    assert verify(t).is_tiling
    with pytest.raises(ValueError):
        normalize(lambda2_tiling(), (1, 1))


@pytest.mark.parametrize("p", [256, 257, 2**16 + 1, 2**32 + 15, 2**63 - 25])
def test_normalize_exact_in_every_word_dtype(p):
    # words of uint8, uint16, uint32 and uint64: every difference is taken exactly
    words = [(0, p - 1, 1), (p - 1, 0, p // 2), (p // 2, p // 3, p - 2)]
    t = PeriodicTiling(n=3, p=p, codewords=words)
    for x0 in words:
        want = sorted(tuple((v - x) % p for v, x in zip(w, x0)) for w in words)
        assert normalize(t, x0).codewords == tuple(want)


def test_permute_and_reflect_preserve_tiling():
    # swapping coordinates maps the shape onto itself and negating one onto a
    # translate (Upsilon_n = 1 - Upsilon_n), so the image of a tiling is a tiling
    words = lambda2_tiling().words.astype(np.int64)
    for sigma in ((0, 1), (1, 0)):
        for signs in itertools.product((-1, 1), repeat=2):
            moved = words[:, sigma] * np.array(signs) % 12
            assert verify(PeriodicTiling(n=2, p=12, codewords=moved)).is_tiling


def test_is_periodic_with():
    t = lambda2_tiling()
    assert is_periodic_with(t, 12)
    assert not is_periodic_with(t, 4)
    assert not is_periodic_with(t, 6)
    with pytest.raises(ValueError):
        is_periodic_with(t, 5)


def test_admissible_dimensions_up_to_16():
    admissible = {n for n in range(1, 17) if admissible_dimension(n).admissible}
    assert admissible == {1, 2, 3, 7, 8, 15}
    a = admissible_dimension(8)
    assert (a.base, a.t) == (3, 2)
    a = admissible_dimension(7)
    assert (a.base, a.t) == (2, 3)


def test_nonexistence_certificate_spot_values():
    c = nonexistence_certificate(5)
    assert c.forced_period == 4
    assert c.shape_size == 192 and c.window_size == 1024
    assert not c.divides
    assert "no integer tiling" in c.conclusion

    c = nonexistence_certificate(4)
    assert c.forced_period == 12
    assert c.shape_size == 80 and c.window_size == 20736
    assert not c.divides

    c = nonexistence_certificate(7)
    assert c.forced_period == 4 and c.divides

    c = nonexistence_certificate(8)
    assert c.forced_period == 12 and c.divides


def test_certificate_past_the_int_to_str_limit():
    # 12^4000 has 4317 digits, past the default limit of 4300
    c = nonexistence_certificate(4000)
    assert c.window_size == 12**4000 and not c.divides
    assert c.conclusion == (
        f"no integer tiling: forced period 12, {2**4000 * 4001} does not divide 12^4000"
    )
    assert nonexistence_certificate(5).conclusion == (
        "no integer tiling: forced period 4, 192 does not divide 4^5 = 1024"
    )


def test_certificate_agrees_with_admissibility():
    # divisibility holds exactly at the admissible dimensions (desk range)
    for n in range(1, 17):
        assert nonexistence_certificate(n).divides == admissible_dimension(n).admissible


def test_certificate_divides_matches_integer_division():
    # n + 1 = 2^a or 3^b decides the divisibility without building forced^n
    for n in range(1, 400):
        c = nonexistence_certificate(n)
        assert c.divides == (c.window_size % c.shape_size == 0), n


def test_spencer_bound_values():
    assert spencer_bound(8) == 8
    assert spencer_bound(2) == 0
    assert spencer_bound(3) == 1
    assert spencer_bound(7) == 7
    assert spencer_bound(9) == 12


def test_structural_audit_lambda2():
    t = lambda2_tiling()
    report = verify(t)
    audit = structural_audit(t, report)
    assert audit.passed
    assert audit.profile == "even"
    assert audit.f1_pairs == ((1, 2),)
    assert audit.f2_triples == ()
    names = [c.name for c in audit.checks]
    assert "f1-count-half-n" in names
    assert "companions-(1,2)" in names
    assert "chain-(1,2)" in names
    assert "forced-period-12" in names


def test_structural_audit_requires_verified_normalized():
    t = lambda2_tiling()
    bad_report = verify(PeriodicTiling(n=2, p=12, codewords=LAMBDA2_WORDS[:6]))
    with pytest.raises(ValueError):
        structural_audit(t, bad_report)
    shifted = normalize(t, (0, 0))  # identity; now break normalization
    moved = PeriodicTiling(
        n=2, p=12, codewords=tuple(((a + 1) % 12, b) for a, b in LAMBDA2_WORDS)
    )
    with pytest.raises(ValueError):
        structural_audit(moved, verify(moved))
    assert structural_audit(shifted, verify(shifted)).passed


def test_structural_audit_odd_profile():
    t = PeriodicTiling(n=1, p=4, codewords=((0,),))
    audit = structural_audit(t, verify(t))
    assert audit.profile == "odd"
    assert audit.f1_pairs == ()
    assert audit.passed
    assert any(c.name == "f1-empty-for-odd-n" for c in audit.checks)
    assert any(c.name == "forced-period-4" for c in audit.checks)


def test_tiling_file_round_trip(tmp_path):
    t = lambda2_tiling()
    path = tmp_path / "l2.tiling"
    write_tiling(t, path)
    back = read_tiling(path)
    assert back == t
    head = path.read_text(encoding="ascii").splitlines()[:5]
    assert head == ["TILING v1", "n 2", "p 12", "count 12", "0 0"]


def test_tiling_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tiling"
    path.write_text("TILING v1\nn 2\np 12\ncount 3\n0 0\n0 4\n")
    with pytest.raises(TilingFormatError):
        read_tiling(path)
    path.write_text("TILING v1\nn 2\np 12\ncount 1\n0 12\n")
    with pytest.raises(TilingFormatError):
        read_tiling(path)  # coordinate outside the window


@pytest.mark.parametrize(
    "text",
    [
        "TILING v1\nn 2\np 12\ncount 1\n0 0\n3 2\n0 4\n",  # trailing lines
        "TILING v1\nn -3\np 12\ncount 0\n",
        "TILING v1\nn 0\np 12\ncount 0\n",
        "TILING v1\nn 2\np 12\ncount -1\n",
        "TILING v1\n1\n4\n1\n0\n",
        "TILING v1\nn 1\nq 4\ncount 1\n0\n",
        "TILING v1\nn 1\np 4\ncount 1\n0\u00e9\n",
    ],
    ids=["trailing-lines", "negative-n", "zero-n", "negative-count", "missing-keys",
         "wrong-key", "non-ascii"],
)
def test_tiling_file_strict_header_and_count(tmp_path, text):
    path = tmp_path / "bad.tiling"
    path.write_text(text)
    with pytest.raises(TilingFormatError):
        read_tiling(path)


def test_periodic_tiling_validation():
    with pytest.raises(ValueError):
        PeriodicTiling(n=2, p=3, codewords=())
    with pytest.raises(ValueError):
        PeriodicTiling(n=2, p=4, codewords=((0, 0, 0),))
    with pytest.raises(ValueError):
        PeriodicTiling(n=2, p=4, codewords=((0, 0), (0, 0)))


def test_reading_the_tuple_view_leaves_the_tiling_its_array_size():
    # at 12^8 the view is 19.9 MiB, 14 times the 1.4 MiB array; none of it stays
    t = from_ternary_perfect(ternary_hamming(2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert t.codewords[0] == (0,) * 8
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 * t.words.nbytes


def test_periodic_tiling_array_storage():
    shuffled = np.array(LAMBDA2_WORDS[::-1], dtype=np.int64)
    t = PeriodicTiling(n=2, p=12, codewords=shuffled)
    assert t.words.dtype == np.uint8 and t.words.flags.c_contiguous
    assert not t.words.flags.writeable
    assert t.codewords == LAMBDA2_WORDS and t.codewords == t.codewords
    assert "codewords" not in vars(t)  # the tuple view is built on access, not kept
    assert t == lambda2_tiling() and hash(t) == hash(lambda2_tiling())
    assert t != PeriodicTiling(n=2, p=24, codewords=LAMBDA2_WORDS)
    assert (3, 6) in t and [9, 10] in t
    assert (3, 7) not in t and (3, 18) not in t and (-9, 6) not in t and (3,) not in t
    assert (3.5, 6) not in t and (2**64, 6) not in t and (2**63, 6) not in t
    # every unsigned width orders rows lexicographically, first entry first
    for p, dtype in ((300, np.uint16), (70_000, np.uint32), (2**40, np.uint64)):
        words = ((p - 1, 0), (0, p - 1), (1, 0), (0, 256), (256, 1))
        big = PeriodicTiling(n=2, p=p, codewords=words)
        assert big.words.dtype == dtype
        assert big.codewords == tuple(sorted(words))
        assert (p - 1, 0) in big and (p - 1, 1) not in big
    with pytest.raises(ValueError, match="below 2"):
        PeriodicTiling(n=1, p=2**63, codewords=())
    with pytest.raises(ValueError, match=r"codeword \(0, 99999999999999999999\) outside"):
        PeriodicTiling(n=2, p=12, codewords=((0, 1), (0, 99999999999999999999)))
    # the first offending codeword in the given order is named
    with pytest.raises(ValueError, match=r"codeword \(0, 12\) outside"):
        PeriodicTiling(n=2, p=12, codewords=((0, 1), (0, 12), (0, 1)))
    with pytest.raises(ValueError, match=r"duplicate codeword \(0, 1\)"):
        PeriodicTiling(n=2, p=12, codewords=((0, 1), (0, 1), (0, 12)))
    with pytest.raises(ValueError, match=r"duplicate codeword \(0, 1\)"):
        PeriodicTiling(n=2, p=12, codewords=((0, 1), (0, 1), (0,)))
