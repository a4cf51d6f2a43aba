"""Tests of the benchmark itself: every oracle accepts a right answer and flags
a planted wrong one, and BENCHMARK.json matches the metrics the code reports.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import halfcross as hc  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402


def _points(n, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randint(-50, 50) for _ in range(n)) for _ in range(count)]


def _shift_e1(x):
    return (x[0] + 1,) + tuple(x[1:])


def test_locate_ternary_oracle_flags_shifted_result():
    code = hc.ternary_hamming(2)
    codeset = set(code.codewords)
    for a in _points(8, 40, 1):
        x = hc.locate_tile_ternary(a, code)
        assert oracles.check_locate_ternary(a, x, codeset) is None
        assert oracles.check_locate_ternary(a, _shift_e1(x), codeset) is not None


def test_locate_binary_oracle_flags_shifted_result():
    code = hc.binary_hamming(3)
    codeset = set(code.codewords)
    for a in _points(7, 40, 2):
        x = hc.locate_tile_binary(a, code)
        assert oracles.check_locate_binary(a, x, codeset) is None
        assert oracles.check_locate_binary(a, _shift_e1(x), codeset) is not None


def test_hamming_code_oracle():
    assert oracles.check_hamming_code(3, 2, hc.ternary_hamming(2).codewords) is None
    assert oracles.check_hamming_code(2, 3, hc.binary_hamming(3).codewords) is None
    words = list(hc.binary_hamming(3).codewords)
    words[1] = (1,) * 6 + (0,)
    assert oracles.check_hamming_code(2, 3, words) is not None


def _certify(tiling, tmp_path):
    path = tmp_path / "a.tiling"
    hc.write_tiling(tiling, path)
    read = hc.read_tiling(path)
    report = hc.verify(read)
    audit_passed = report.is_tiling and hc.structural_audit(read, report).passed
    hc.write_tiling(read, tmp_path / "b.tiling")
    return oracles.check_certify(
        report, 12**2, audit_passed, hc.is_lattice_tiling(read),
        path.read_bytes(), (tmp_path / "b.tiling").read_bytes(),
    )


def test_certify_oracle_flags_dropped_codeword(tmp_path):
    tiling = hc.from_ternary_perfect(hc.ternary_hamming(1))
    assert _certify(tiling, tmp_path) is None
    dropped = hc.PeriodicTiling(n=2, p=12, codewords=tiling.codewords[1:])
    assert _certify(dropped, tmp_path) is not None


def test_reject_oracle_counts_and_witness():
    tiling = hc.from_ternary_perfect(hc.ternary_hamming(1))
    shape = hc.upsilon_offsets(2)
    for seed in range(5):
        dropped, added, footprints = oracles.damage(
            tiling.codewords, 2, 12, 1, 1, random.Random(seed), shape.torus_cells)
        words = (tiling.codeword_set() - set(dropped)) | set(added)
        report = hc.verify(hc.PeriodicTiling(n=2, p=12, codewords=tuple(words)))
        assert oracles.check_reject(report, 2, 12, dropped, added, footprints) is None
        # the same report read against a different damage set is wrong
        assert oracles.check_reject(report, 2, 12, dropped, [], footprints) is not None
    assert oracles.check_reject(hc.verify(tiling), 2, 12, dropped, added, footprints)


def test_search_oracle_flags_wrong_solution_count():
    sols, stats = hc.search_tilings(
        hc.SearchConfig(n=2, p=24, max_solutions=10**6, symmetry_breaking=False))
    args = (stats.solutions, stats.status, True, True, True)
    assert oracles.check_search((24, "complete"), *args) is None
    assert oracles.check_search((23, "complete"), *args) is not None
    assert oracles.check_search((24, "complete"), 24, "complete", False, True, True)


def test_workload_oracle_counts_exceptions_and_wrong_answers(tmp_path):
    inp = workloads.locate_setup(random.Random(0), tmp_path, Tracer(False))
    inp["queries"] = inp["queries"][:4]
    inp["oracle"] = workloads.locate_oracle(inp)
    ops = workloads.locate_pass(inp, tmp_path, Tracer(False))
    assert workloads.check_ops("locate-stream", inp, ops, tmp_path) == []
    ops[0] = (ops[0][0], _shift_e1(ops[0][1]))
    ops[1] = (ops[1][0], ValueError("planted"))
    assert len(workloads.check_ops("locate-stream", inp, ops, tmp_path)) == 2


def test_tracer_spans_and_layer_metrics():
    tr = Tracer(True)
    for _ in range(2):
        with tr.span("op.search", new_trace=True):
            with tr.span("search.search_tilings") as c:
                c.update(nodes=10, solutions=1)
    assert [s["trace"] for s in tr.spans] == [1, 1, 2, 2]
    assert [s["parent"] for s in tr.spans] == [None, 0, None, 2]
    metrics = layer_metrics(tr.spans, 0.5)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["search.search_tilings.nodes"] == 20
    assert metrics["tiling.verify.s"] == 0
    off = Tracer(False)
    with off.span("x"):
        pass
    assert off.spans == []


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
