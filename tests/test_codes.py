"""Hamming code generation, perfectness, derived codes, file round-trips."""

import itertools

import pytest

from halfcross.codes import (
    BlockCode,
    CodeFormatError,
    binary_hamming,
    decode_within_1,
    is_perfect,
    min_hamming_distance,
    puncture,
    read_code,
    ternary_hamming,
    weight_split,
    write_code,
)


def sphere_partition_oracle(code):
    """Perfectness straight from the definition: radius-1 balls partition Z_q^n."""
    q, n = code.q, code.length
    covered = {}
    for w in code.codewords:
        ball = {w}
        for i in range(n):
            for s in range(q):
                if s != w[i]:
                    ball.add(w[:i] + (s,) + w[i + 1 :])
        for v in ball:
            if v in covered:
                return False
            covered[v] = w
    return len(covered) == q**n


def test_binary_hamming_sizes():
    for t, n, size in ((2, 3, 2), (3, 7, 16), (4, 15, 2048)):
        code = binary_hamming(t)
        assert code.length == n
        assert len(code) == size


def test_binary_hamming_t1_degenerate():
    with pytest.warns(UserWarning):
        code = binary_hamming(1)
    assert code.length == 1 and code.codewords == ((0,),)
    assert is_perfect(code)[0]


def test_binary_hamming_perfect():
    for t in (2, 3, 4):
        code = binary_hamming(t)
        ok, reason = is_perfect(code)
        assert ok, reason
        assert min_hamming_distance(code) == 3


def test_binary_hamming_perfect_oracle():
    for t in (2, 3):
        assert sphere_partition_oracle(binary_hamming(t))


def test_binary_hamming_is_linear_zero_in():
    code = binary_hamming(3)
    assert (0,) * 7 in set(code.codewords)
    words = set(code.codewords)
    for a in code.codewords:
        for b in code.codewords:
            assert tuple((x + y) % 2 for x, y in zip(a, b)) in words


def test_binary_hamming_scale_guard():
    with pytest.raises(ValueError):
        binary_hamming(6)  # length 63 over the guard
    with pytest.raises(ValueError):
        binary_hamming(0)


def test_ternary_hamming_sizes():
    code1 = ternary_hamming(1)
    assert code1.length == 1 and code1.codewords == ((0,),)
    code2 = ternary_hamming(2)
    assert code2.length == 4
    assert len(code2) == 9
    code3 = ternary_hamming(3)
    assert code3.length == 13
    assert len(code3) == 3**10


def test_ternary_hamming_perfect():
    for t in (1, 2):
        ok, reason = is_perfect(ternary_hamming(t))
        assert ok, reason
    assert min_hamming_distance(ternary_hamming(2)) == 3
    assert sphere_partition_oracle(ternary_hamming(2))


def test_ternary_hamming_scale_guard():
    with pytest.raises(ValueError):
        ternary_hamming(4)  # length 40 over the guard


def test_generation_deterministic():
    assert binary_hamming(3).codewords == binary_hamming(3).codewords
    assert ternary_hamming(2).codewords == ternary_hamming(2).codewords


def test_is_perfect_rejects_wrong_size():
    code = BlockCode(q=2, length=3, codewords=((0, 0, 0),))
    ok, reason = is_perfect(code)
    assert not ok and "size" in reason


def test_is_perfect_rejects_close_codewords():
    # right count for a perfect code of length 3 but distance 1
    code = BlockCode(q=2, length=3, codewords=((0, 0, 0), (0, 0, 1)))
    ok, reason = is_perfect(code)
    assert not ok and "overlap" in reason


def test_min_distance_small():
    code = BlockCode(q=2, length=4, codewords=((0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)))
    assert min_hamming_distance(code) == 2


def test_puncture_hamming():
    code = puncture(binary_hamming(3))
    assert code.length == 6
    assert len(code) == 16
    assert min_hamming_distance(code) == 2


def test_puncture_collision_rejected():
    code = BlockCode(q=2, length=2, codewords=((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        puncture(code)


def test_weight_split_halves_hamming():
    even, odd = weight_split(binary_hamming(3))
    assert len(even) == 8 and len(odd) == 8
    assert all(sum(w) % 2 == 0 for w in even.codewords)
    assert all(sum(w) % 2 == 1 for w in odd.codewords)


def test_decode_within_1_perfect_code():
    code = ternary_hamming(2)
    words = set(code.codewords)
    # every word of Z_3^4 decodes, and to a codeword within distance 1
    for v in itertools.product(range(3), repeat=4):
        w = decode_within_1(code, v)
        assert w in words
        assert sum(1 for a, b in zip(v, w) if a != b) <= 1


def test_decode_within_1_failure_is_none():
    code = BlockCode(q=2, length=4, codewords=((0, 0, 0, 0),))
    assert decode_within_1(code, (1, 1, 0, 0)) is None


def test_code_file_round_trip(tmp_path):
    code = binary_hamming(3)
    path = tmp_path / "h3.code"
    write_code(code, path)
    back = read_code(path)
    assert back.q == 2 and back.length == 7
    assert back.codewords == code.codewords


@pytest.mark.filterwarnings("ignore:binary_hamming\\(1\\)")
@pytest.mark.parametrize(
    "make, t", [(binary_hamming, t) for t in (1, 2, 3, 4)] + [(ternary_hamming, t) for t in (1, 2, 3)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_generated_code_file_round_trip_is_equal(tmp_path, make, t):
    # the code read back is the code written, field for field
    code = make(t)
    path = tmp_path / "h.code"
    write_code(code, path)
    assert read_code(path) == code


def test_code_file_bytes_frozen(tmp_path):
    path = tmp_path / "h2.code"
    write_code(binary_hamming(2), path)
    want = "CODE v1\nq 2\nn 3\ncount 2\n0 0 0\n1 1 1\n"
    assert path.read_text(encoding="ascii") == want


def test_code_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.code"
    for text in (
        "CODE v2\n",
        "CODE v1\nq 2\nn 3\ncount 2\n0 0 0\n",
        "CODE v1\nq 2\nn 3\ncount 1\n0 0 0\n1 1 1\nrubbish\n",  # trailing lines
        "CODE v1\n2\n3\n1\n0 0 0\n",  # header values without their keys
        "CODE v1\nq 2\nn 0\ncount 0\n",
        "CODE v1\nq 2\nn 1\ncount 1\n0\u00e9\n",  # not ASCII
    ):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CodeFormatError):
            read_code(path)


def test_block_code_validation():
    with pytest.raises(ValueError):
        BlockCode(q=4, length=1, codewords=((0,),))
    with pytest.raises(ValueError):
        BlockCode(q=2, length=2, codewords=((0, 2),))
    with pytest.raises(ValueError):
        BlockCode(q=2, length=2, codewords=((0, 0), (0, 0)))
