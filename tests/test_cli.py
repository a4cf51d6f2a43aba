"""End-to-end command-line tests: exit codes, output, byte determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import halfcross
from halfcross import codes, constructions
from halfcross.cli import (
    EXIT_BUDGET,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    main,
)
from halfcross.svgout import svg_document
from halfcross.tiling import PeriodicTiling, TilingFormatError, read_tiling, write_tiling

LAMBDA2_WORDS = (
    (0, 0), (0, 4), (0, 8), (3, 2), (3, 6), (3, 10),
    (6, 0), (6, 4), (6, 8), (9, 2), (9, 6), (9, 10),
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_code_binary(tmp_path, capsys):
    out = tmp_path / "h3.code"
    code, stdout, _ = run(capsys, "gen-code", "--base", "2", "--t", "3", "--out", str(out))
    assert code == EXIT_OK
    assert "size: 16" in stdout
    assert "length: 7" in stdout
    assert "min_distance: 3" in stdout
    assert "perfect: yes" in stdout
    assert out.exists()


@pytest.mark.parametrize("base, t", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_gen_code_distance_without_pairwise_scan(tmp_path, capsys, monkeypatch, base, t):
    want = (codes.binary_hamming if base == 2 else codes.ternary_hamming)(t)
    oracle = codes.min_hamming_distance(want)

    def refuse(_):
        raise RuntimeError("gen-code compared all codeword pairs")

    monkeypatch.setattr(codes, "min_hamming_distance", refuse)
    out = tmp_path / "h.code"
    code, stdout, _ = run(capsys, "gen-code", "--base", str(base), "--t", str(t),
                          "--out", str(out))
    assert code == EXIT_OK
    assert stdout == (f"size: {len(want)}\nlength: {want.length}\n"
                      f"min_distance: {oracle}\nperfect: yes\n")
    assert codes.read_code(out).codewords == want.codewords


def test_gen_code_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.code", tmp_path / "b.code"
    run(capsys, "gen-code", "--base", "3", "--t", "2", "--out", str(a))
    run(capsys, "gen-code", "--base", "3", "--t", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_code_rejects_bad_t(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen-code", "--base", "2", "--t", "9", "--out", str(tmp_path / "x")
    )
    assert code == EXIT_USAGE
    assert "error" in err


def test_build_and_verify_pipeline(tmp_path, capsys):
    code_path = tmp_path / "h3.code"
    tiling_path = tmp_path / "h3.tiling"
    run(capsys, "gen-code", "--base", "2", "--t", "3", "--out", str(code_path))
    code, stdout, _ = run(
        capsys, "build-tiling", "--method", "binary",
        "--code", str(code_path), "--out", str(tiling_path),
    )
    assert code == EXIT_OK
    assert "verify: tiling" in stdout
    code, stdout, _ = run(capsys, "verify", "--tiling", str(tiling_path), "--min-dist")
    assert code == EXIT_OK
    assert "result: tiling" in stdout
    assert "min_cross_distance: 3" in stdout


def test_verify_negative_result(tmp_path, capsys):
    t = PeriodicTiling(n=2, p=12, codewords=LAMBDA2_WORDS[:11])
    path = tmp_path / "bad.tiling"
    write_tiling(t, path)
    code, stdout, _ = run(capsys, "verify", "--tiling", str(path))
    assert code == EXIT_NEGATIVE
    assert "result: not-a-tiling" in stdout
    assert "witness_cell:" in stdout


def test_verify_tree_format(tmp_path, capsys):
    t = PeriodicTiling(n=2, p=12, codewords=LAMBDA2_WORDS)
    path = tmp_path / "l2.tiling"
    write_tiling(t, path)
    code, stdout, _ = run(
        capsys, "verify", "--tiling", str(path), "--audit", "--format", "tree"
    )
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["verification"]["is_tiling"] is True
    assert doc["verification"]["cells_total"] == 144
    assert doc["audit"]["passed"] is True
    assert doc["audit"]["f1_pairs"] == [[1, 2]]


def test_verify_audit_normalizes_translate(tmp_path, capsys):
    words = tuple(sorted(((a + 2) % 12, (b + 5) % 12) for a, b in LAMBDA2_WORDS))
    path = tmp_path / "moved.tiling"
    write_tiling(PeriodicTiling(n=2, p=12, codewords=words), path)
    code, stdout, _ = run(capsys, "verify", "--tiling", str(path), "--audit")
    assert code == EXIT_OK
    assert "audit_passed: True" in stdout


def test_verify_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.tiling"
    for text in (
        "TILING v9\n",
        "TILING v1\nn -3\np 12\ncount 0\n",
        "TILING v1\nn 2\np 12\ncount 1\n0 0\n3 2\n0 4\n",
    ):
        path.write_text(text)
        code, _, err = run(capsys, "verify", "--tiling", str(path))
        assert code == EXIT_USAGE
        assert "error" in err


def test_locate_commands(tmp_path, capsys):
    code_path = tmp_path / "t1.code"
    run(capsys, "gen-code", "--base", "3", "--t", "1", "--out", str(code_path))
    code, stdout, _ = run(
        capsys, "locate", "--tiling-method", "ternary",
        "--code", str(code_path), "--point", "1 1",
    )
    assert code == EXIT_OK
    assert "codeword: 3 2" in stdout

    bcode_path = tmp_path / "h3.code"
    run(capsys, "gen-code", "--base", "2", "--t", "3", "--out", str(bcode_path))
    code, stdout, _ = run(
        capsys, "locate", "--tiling-method", "binary",
        "--code", str(bcode_path), "--point", "0 0 0 0 0 0 0",
    )
    assert code == EXIT_OK
    assert "codeword: 0 0 0 0 0 0 0" in stdout


@pytest.mark.parametrize(
    "method, make_code, point, reason",
    [
        # each point decodes in the given code, so only the code check can refuse it
        ("ternary", lambda: codes.BlockCode(q=3, length=2, codewords=((0, 0),)), "1 1 0 0",
         "code is not perfect: size check failed: 1 * 5 != 3^2"),
        ("ternary", lambda: codes.binary_hamming(3), " ".join(["0"] * 14),
         "expected a code over Z_3, got Z_2"),
        ("binary", lambda: codes.BlockCode(q=2, length=3, codewords=((0, 0, 0),)), "0 0 0",
         "code is not perfect: size check failed: 1 * 4 != 2^3"),
    ],
    ids=["ternary-not-perfect", "ternary-given-binary", "binary-not-perfect"],
)
def test_locate_refuses_unfit_code(tmp_path, capsys, method, make_code, point, reason):
    path = tmp_path / "unfit.code"
    codes.write_code(make_code(), path)
    code, stdout, err = run(capsys, "locate", "--tiling-method", method,
                            "--code", str(path), "--point", point)
    assert (code, stdout, err) == (EXIT_PRECONDITION, "", f"error: {reason}\n")


@pytest.mark.parametrize(
    "argv, code_text, err",
    [
        (("gen-code", "--base", "2", "--t", "1000000", "--out", "x.code"), None,
         "error: length 2^1000000 - 1 exceeds guard 31\n"),
        (("gen-code", "--base", "3", "--t", "100000000", "--out", "x.code"), None,
         "error: length (3^100000000 - 1)/2 exceeds guard 13\n"),
        (("build-tiling", "--method", "ternary", "--code", "huge.code", "--out", "x.tiling"),
         "CODE v1\nq 3\nn 30000000\ncount 0\n",
         "error: code is not perfect: size check failed: 0 * 60000001 != 3^30000000\n"),
        (("locate", "--tiling-method", "ternary", "--code", "huge.code", "--point", "0 0"),
         "CODE v1\nq 3\nn 30000000\ncount 0\n",
         "error: code is not perfect: size check failed: 0 * 60000001 != 3^30000000\n"),
    ],
    ids=["binary-huge-t", "ternary-huge-t", "build-huge-n", "locate-huge-n"],
)
def test_huge_sizes_are_refused_before_any_power_is_built(tmp_path, argv, code_text, err):
    # run in a child with a timeout, so that building 2^t, 3^t or 3^n fails the
    # test instead of stalling it
    if code_text is not None:
        (tmp_path / "huge.code").write_text(code_text, encoding="ascii")
    env = dict(os.environ, PYTHONPATH=str(Path(halfcross.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "halfcross.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=15)
    usage = argv[0] == "gen-code"
    assert (done.returncode, done.stdout, done.stderr) == (
        EXIT_USAGE if usage else EXIT_PRECONDITION, "", err)


@pytest.mark.parametrize(
    "argv, name, text, line",
    [
        (("build-tiling", "--method", "binary", "--code", "huge", "--out", "x.tiling"),
         "huge", "CODE v1\nq 2\nn 100000000000000000000\ncount 0\n", 3),
        (("verify", "--tiling", "huge"),
         "huge", "TILING v1\nn 100000000000000000000\np 4\ncount 0\n", 2),
    ],
    ids=["code", "tiling"],
)
def test_impossible_dimension_is_refused_by_name(tmp_path, argv, name, text, line):
    # no array has 10^20 columns; the reader names the key before one is built
    (tmp_path / name).write_text(text, encoding="ascii")
    env = dict(os.environ, PYTHONPATH=str(Path(halfcross.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "halfcross.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=15)
    largest = np.iinfo(np.intp).max
    assert (done.returncode, done.stdout, done.stderr) == (
        EXIT_USAGE, "", f"error: line {line}: n must be at most {largest}, "
        "got 100000000000000000000\n")


def test_exist_admissible(tmp_path, capsys):
    out = tmp_path / "w7.tiling"
    code, stdout, _ = run(capsys, "exist", "--n", "7", "--out", str(out))
    assert code == EXIT_OK
    assert "admissible: yes" in stdout
    assert "verify: tiling" in stdout
    witness = read_tiling(out)
    assert witness.n == 7 and witness.p == 4


@pytest.mark.parametrize(
    "n, line",
    [
        (15, "witness: construction gives 2048 codewords over Z_4^15; "),
        (26, "witness: construction gives 6317841784428822528 codewords over Z_12^26; "),
        (31, "witness: construction gives 67108864 codewords over Z_4^31; "),
        # the codeword count has more digits than Python converts
        pytest.param(6560, f"witness: construction gives 12^6560/({2**6560 * 6561}) "
                     "codewords over Z_12^6560; ", id="6560-count-past-digit-limit"),
    ],
)
def test_exist_checks_window_before_building(monkeypatch, capsys, n, line):
    def refuse(*_):
        raise RuntimeError("built a witness whose window is over budget")

    for module, name in ((codes, "binary_hamming"), (codes, "ternary_hamming"),
                         (constructions, "from_binary_perfect"),
                         (constructions, "from_ternary_perfect")):
        monkeypatch.setattr(module, name, refuse)
    code, stdout, _ = run(capsys, "exist", "--n", str(n))
    assert code == EXIT_OK
    assert stdout.endswith(line + "window too large to verify here\n")


def test_exist_inadmissible(capsys):
    code, stdout, _ = run(capsys, "exist", "--n", "5")
    assert code == EXIT_NEGATIVE
    assert "admissible: no" in stdout
    assert "192 does not divide 1024" in stdout
    code, stdout, _ = run(capsys, "exist", "--n", "4")
    assert code == EXIT_NEGATIVE
    assert "80 does not divide 20736" in stdout
    # 12^4000 has more digits than Python converts to text
    code, stdout, _ = run(capsys, "exist", "--n", "4000")
    assert code == EXIT_NEGATIVE
    shape = 2**4000 * 4001
    assert stdout == (
        "n: 4000\nadmissible: no\n"
        f"certificate: no integer tiling: forced period 12, {shape} does not divide 12^4000\n"
        f"no tiling: forced period 12, {shape} does not divide 12^4000\n"
    )


@pytest.mark.parametrize(
    "n, want, exit_code",
    [
        (100000000, (
            "n: 100000000\nadmissible: no\n"
            "certificate: no integer tiling: forced period 12, "
            "2^100000000*100000001 does not divide 12^100000000\n"
            "no tiling: forced period 12, 2^100000000*100000001 does not divide 12^100000000\n"
        ), EXIT_NEGATIVE),
        (134217727, (  # 2^27 - 1
            "n: 134217727\nadmissible: yes (n = 2^27 - 1)\n"
            "certificate: inconclusive: 2^134217727*134217728 divides 4^134217727; "
            "existence is settled by construction\n"
            "witness: construction gives 4^134217727/(2^134217727*134217728) codewords "
            "over Z_4^134217727; window too large to verify here\n"
        ), EXIT_OK),
    ],
)
def test_exist_huge_n_builds_no_number(capsys, n, want, exit_code):
    code, stdout, _ = run(capsys, "exist", "--n", str(n))
    assert (code, stdout) == (exit_code, want)


@pytest.mark.parametrize(
    "n, err",
    [
        ("9", "error: window 12^9 = 5159780352 exceeds budget 429981696\n"),
        ("100000000", "error: window 12^100000000 exceeds budget 429981696\n"),
    ],
)
def test_verify_checks_budget_before_window_size(tmp_path, capsys, n, err):
    path = tmp_path / "empty.tiling"
    path.write_text(f"TILING v1\nn {n}\np 12\ncount 0\n")
    code, _, stderr = run(capsys, "verify", "--tiling", str(path))
    assert code == EXIT_BUDGET
    assert stderr == err


def test_search_command(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "search", "--n", "2", "--p", "12",
        "--max-solutions", "1", "--out-dir", str(tmp_path / "sols"),
    )
    assert code == EXIT_OK
    assert "solutions: 1" in stdout
    found = read_tiling(tmp_path / "sols" / "solution_000.tiling")
    assert found.codewords == LAMBDA2_WORDS


def test_search_command_negative_and_budget(capsys):
    code, stdout, _ = run(capsys, "search", "--n", "2", "--p", "6")
    assert code == EXIT_NEGATIVE
    assert "solutions: 0" in stdout
    code, stdout, _ = run(
        capsys, "search", "--n", "2", "--p", "12", "--node-budget", "3",
        "--max-solutions", "100",
    )
    assert code == EXIT_BUDGET
    assert "status: budget" in stdout


def test_search_command_refuses_max_solutions_below_one(capsys):
    code, stdout, err = run(capsys, "search", "--n", "2", "--p", "24",
                            "--max-solutions", "0", "--no-symmetry-breaking")
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err == "error: max solutions must be >= 1, got 0\n"


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_search_command_refuses_node_budget_below_one(capsys, budget):
    code, stdout, err = run(capsys, "search", "--n", "2", "--p", "12", "--node-budget", budget)
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err == f"error: node budget must be >= 1, got {budget}\n"


def test_export_svg(tmp_path, capsys):
    path = tmp_path / "l2.tiling"
    write_tiling(PeriodicTiling(n=2, p=12, codewords=LAMBDA2_WORDS), path)
    out = tmp_path / "l2.svg"
    code, stdout, _ = run(capsys, "export-svg", "--tiling", str(path), "--out", str(out))
    assert code == EXIT_OK
    text = out.read_text(encoding="ascii")
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert text.rstrip().endswith("</svg>")
    # byte determinism
    assert text == svg_document(read_tiling(path))


def test_export_svg_refuses_invalid(tmp_path, capsys):
    path = tmp_path / "bad.tiling"
    write_tiling(PeriodicTiling(n=2, p=12, codewords=LAMBDA2_WORDS[:11]), path)
    code, _, err = run(capsys, "export-svg", "--tiling", str(path), "--out", str(path) + ".svg")
    assert code == EXIT_PRECONDITION
    assert "refusing" in err


def test_export_svg_requires_n2(tmp_path, capsys):
    path = tmp_path / "n1.tiling"
    write_tiling(PeriodicTiling(n=1, p=4, codewords=((0,),)), path)
    code, _, err = run(capsys, "export-svg", "--tiling", str(path), "--out", str(path) + ".svg")
    assert code == EXIT_USAGE


def test_svg_document_structure():
    t = PeriodicTiling(n=2, p=12, codewords=LAMBDA2_WORDS)
    doc = svg_document(t)
    assert doc.count("<circle") == 12
    assert doc.count("<rect") == 1 + 12 * 12  # background + one rect per cell
    assert 'width="288"' in doc  # 12 cells * 24 px
    with pytest.raises(ValueError):
        svg_document(PeriodicTiling(n=1, p=4, codewords=((0,),)))


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("export-svg", "--tiling", "{big}", "--out", "{tmp}/big.svg"), EXIT_BUDGET),
        (("verify", "--tiling", "{tmp}/missing.tiling"), EXIT_USAGE),
        (("build-tiling", "--method", "binary", "--code", "{tmp}/missing.code",
          "--out", "{tmp}/x.tiling"), EXIT_USAGE),
        (("locate", "--tiling-method", "binary", "--code", "{code}",
          "--point", "1 x 0 0 0 0 0"), EXIT_USAGE),
        (("search", "--n", "0", "--p", "12"), EXIT_USAGE),
        (("search", "--n", "-1", "--p", "12"), EXIT_USAGE),
        (("exist", "--n", "0"), EXIT_USAGE),
        (("verify", "--tiling", "{latin1}"), EXIT_USAGE),
        (("search", "--n", "100000000", "--p", "12"), EXIT_USAGE),
    ],
    ids=["svg-over-budget", "missing-tiling", "missing-code", "bad-point",
         "search-n0", "search-n-1", "exist-n0", "non-ascii", "search-huge-n"],
)
def test_cli_errors_exit_without_traceback(tmp_path, capsys, argv, exit_code):
    big = tmp_path / "big.tiling"
    big.write_text("TILING v1\nn 2\np 30000\ncount 0\n")
    latin1 = tmp_path / "latin1.tiling"
    latin1.write_bytes("TILING v1\nn 1\np 4\ncount 1\n0\u00e9\n".encode("latin-1"))
    code_path = tmp_path / "h3.code"
    run(capsys, "gen-code", "--base", "2", "--t", "3", "--out", str(code_path))
    names = {"tmp": tmp_path, "big": big, "code": code_path, "latin1": latin1}
    code, _, err = run(capsys, *(a.format(**names) for a in argv))
    assert code == exit_code
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "body",
    [
        "n 2\np 12\ncount 1\n0\n",
        "n 2\np 12\ncount 1\n0 0 0\n",
        "n 8\np 12\ncount 2\n0 0 0 0 0 0 0\n0 0 0 0 0 0 0 1 1\n",
        "n 2\np 12\ncount 1\n0 x\n",
        "n 2\np 12\ncount 1\n0 12\n",
        "n 2\np 12\ncount 1\n0 -1\n",
        "n 2\np 12\ncount 1\n0 99999999999999999999\n",
        "n 2\np 12\ncount 2\n0 0\n\n",
        "n 2\np 12\ncount 2\n\n \n",
    ],
    ids=["short-row", "long-row", "rows-7-and-9", "non-integer", "entry-p", "negative",
         "past-int64", "blank-row", "blank-body"],
)
def test_tiling_reader_rejects_bad_rows(tmp_path, capsys, body):
    # the body is parsed as one array; none of these may parse, be regrouped
    # into rows of the right length, or leave the CLI with a traceback
    path = tmp_path / "bad.tiling"
    path.write_text("TILING v1\n" + body)
    with pytest.raises(TilingFormatError):
        read_tiling(path)
    code, out, err = run(capsys, "verify", "--tiling", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
