"""The four benchmark workloads, run one at a time in a child process.

Usage (normally started by run.py, which pins thread counts first):

    python3 perfbench/workloads.py --workload certify-n8 --seed 1 \
        --seconds 20 --trace 0 --out perfbench/out

Each workload has a seeded set-up, a pass (a fixed list of operations, timed
one by one; an operation is one query in locate-stream and the whole pass
elsewhere) and an oracle applied to every operation's output outside the
timed region.  The run sets up ``SETUP_REPEATS`` times and reports the median
set-up time: the workload's own set-up plus the time a fresh interpreter takes
to import halfcross.  It then repeats passes over the same inputs as a closed
loop from one client while the next pass is predicted to end within
``--seconds`` (always at least one pass).  With ``--trace 1`` it makes one
untraced pass and one traced pass, and reports per-layer metrics from the
traced one.  The last line of stdout is the run's result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import halfcross as hc
from halfcross.svgout import svg_document

import oracles
from tracing import PER_LAYER, Tracer, layer_metrics, percentile

SETUP_REPEATS = 3
#: end-to-end metrics reported by an untraced run, with their units
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
              "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB"}


def _write(tiling, path: Path, tr: Tracer) -> None:
    with tr.span("tiling.write_tiling") as c:
        hc.write_tiling(tiling, path)
    c["bytes"] = path.stat().st_size


def _verify(tiling, tr: Tracer):
    with tr.span("tiling.verify", memory=True) as c:
        report = hc.verify(tiling)
    c.update(cells=report.cells_total, uncovered=report.uncovered,
             multiply_covered=report.multiply_covered)
    return report


# --------------------------------------------------------------- certify-n8

def _certify_pipeline(t: int, x0_index: int, work: Path, tr: Tracer) -> dict:
    # gen-code -> build-tiling -> verify --audit, as library calls
    with tr.span("codes.ternary_hamming"):
        code = hc.ternary_hamming(t)
    with tr.span("codes.is_perfect"):
        perfect, reason = hc.is_perfect(code)
    if not perfect:
        raise ValueError(f"generated code is not perfect: {reason}")
    with tr.span("constructions.from_ternary_perfect"):
        tiling = hc.from_ternary_perfect(code)
    path = work / "certify.tiling"
    _write(tiling, path, tr)
    del tiling
    with tr.span("tiling.read_tiling"):
        read = hc.read_tiling(path)
    report = _verify(read, tr)
    with tr.span("tiling.normalize"):
        normalized = hc.normalize(read, read.codewords[x0_index % len(read)])
    with tr.span("tiling.structural_audit"):
        audit = hc.structural_audit(normalized, report)
    with tr.span("lattice.is_lattice_tiling"):
        lattice = hc.is_lattice_tiling(normalized)
    return {"report": report, "audit_passed": audit.passed, "lattice": lattice,
            "read": read, "path": path}


def certify_setup(rng: random.Random, work: Path, tr: Tracer) -> dict:
    x0_index = rng.randrange(3**2 * 12**4)
    # warm-up on the 12^2 window (ternary t = 1), untraced
    _certify_pipeline(1, x0_index, work, Tracer(False))
    return {"t": 2, "x0_index": x0_index}


def certify_pass(inp: dict, work: Path, tr: Tracer) -> list:
    return [_timed(tr, "op.certify", _certify_pipeline, inp["t"], inp["x0_index"], work)]


def certify_check(inp: dict, index: int, out: dict, work: Path) -> str | None:
    again = work / "certify-again.tiling"
    hc.write_tiling(out["read"], again)
    return oracles.check_certify(
        out["report"], 12**8, out["audit_passed"], out["lattice"],
        out["path"].read_bytes(), again.read_bytes(),
    )


# ---------------------------------------------------------------- reject-n8

def reject_setup(rng: random.Random, work: Path, tr: Tracer) -> dict:
    k, m = rng.randint(1, 3), rng.randint(1, 3)
    with tr.span("codes.ternary_hamming"):
        code = hc.ternary_hamming(2)
    with tr.span("constructions.from_ternary_perfect"):
        tiling = hc.from_ternary_perfect(code)
    shape = hc.upsilon_offsets(tiling.n)
    dropped, added, footprints = oracles.damage(
        tiling.codewords, tiling.n, tiling.p, k, m, rng, shape.torus_cells
    )
    words = (tiling.codeword_set() - set(dropped)) | set(added)
    with tr.span("tiling.PeriodicTiling"):
        damaged = hc.PeriodicTiling(n=tiling.n, p=tiling.p, codewords=tuple(words))
    path = work / "reject.tiling"
    _write(damaged, path, tr)
    return {"n": tiling.n, "p": tiling.p, "dropped": dropped, "added": added,
            "footprints": footprints, "path": path,
            "tiling_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def _reject_op(path: Path, tr: Tracer):
    with tr.span("tiling.read_tiling"):
        tiling = hc.read_tiling(path)
    return _verify(tiling, tr)


def reject_pass(inp: dict, work: Path, tr: Tracer) -> list:
    return [_timed(tr, "op.reject", _reject_op, inp["path"])]


def reject_check(inp: dict, index: int, report, work: Path) -> str | None:
    return oracles.check_reject(report, inp["n"], inp["p"], inp["dropped"],
                                inp["added"], inp["footprints"])


# ------------------------------------------------------------ locate-stream

LOCATE_TERNARY, LOCATE_BINARY, LOCATE_BOX = 750, 250, 10**6


def locate_setup(rng: random.Random, work: Path, tr: Tracer) -> dict:
    with tr.span("codes.ternary_hamming"):
        ternary = hc.ternary_hamming(3)  # n = 26, 59,049 codewords
    with tr.span("codes.binary_hamming"):
        binary = hc.binary_hamming(4)  # n = 15, 2,048 codewords
    queries = [
        ("ternary", tuple(rng.randint(-LOCATE_BOX, LOCATE_BOX) for _ in range(26)))
        for _ in range(LOCATE_TERNARY)
    ] + [
        ("binary", tuple(rng.randint(-LOCATE_BOX, LOCATE_BOX) for _ in range(15)))
        for _ in range(LOCATE_BINARY)
    ]
    rng.shuffle(queries)
    return {"codes": {"ternary": ternary, "binary": binary}, "queries": queries}


_LOCATORS = {"ternary": hc.locate_tile_ternary, "binary": hc.locate_tile_binary}


def _locate_op(kind: str, a, code, tr: Tracer):
    with tr.span(f"constructions.locate_tile_{kind}"):
        return _LOCATORS[kind](a, code)


def locate_pass(inp: dict, work: Path, tr: Tracer) -> list:
    codes = inp["codes"]
    return [_timed(tr, "op.locate", _locate_op, kind, a, codes[kind])
            for kind, a in inp["queries"]]


def locate_oracle(inp: dict) -> dict:
    ternary, binary = inp["codes"]["ternary"], inp["codes"]["binary"]
    for q, t, code in ((3, 3, ternary), (2, 4, binary)):
        bad = oracles.check_hamming_code(q, t, code.codewords)
        if bad:
            raise RuntimeError(f"locate-stream set-up produced a wrong code: {bad}")
    return {"ternary": set(ternary.codewords), "binary": set(binary.codewords)}


def locate_check(inp: dict, index: int, out, work: Path) -> str | None:
    if "oracle" not in inp:
        inp["oracle"] = locate_oracle(inp)
    kind, a = inp["queries"][index]
    check = oracles.check_locate_ternary if kind == "ternary" else oracles.check_locate_binary
    return check(a, out, inp["oracle"][kind])


# -------------------------------------------------------------- search-tori

ALL = 10**6
#: (n, p, max_solutions, symmetry_breaking, expected (solutions, status))
TORI = (
    (2, 36, ALL, True, (2, "complete")),
    (3, 12, ALL, True, (1, "complete")),
    (4, 10, ALL, True, (0, "complete")),  # exhaustive and negative
    (3, 16, 1, False, (1, "complete")),
    (2, 24, ALL, False, (24, "complete")),
)


def search_setup(rng: random.Random, work: Path, tr: Tracer) -> dict:
    order = list(range(len(TORI)))
    rng.shuffle(order)
    # warm-up: first solution of the 12 x 12 torus and its rendering, untraced
    sols, _ = hc.search_tilings(hc.SearchConfig(n=2, p=12))
    svg_document(sols[0])
    return {"order": order}


def _search_op(order: list, tr: Tracer) -> list:
    results = []
    for i in order:
        n, p, max_solutions, symmetry, _ = TORI[i]
        cfg = hc.SearchConfig(n=n, p=p, max_solutions=max_solutions,
                              symmetry_breaking=symmetry)
        with tr.span("search.search_tilings") as c:
            sols, stats = hc.search_tilings(cfg)
        c.update(nodes=stats.nodes, solutions=stats.solutions)
        svgs = []
        if n == 2:
            for sol in sols:
                with tr.span("svgout.svg_document") as c:
                    svgs.append(svg_document(sol))
                c["bytes"] = len(svgs[-1].encode("ascii"))
        results.append((TORI[i], sols, stats, svgs))
    return results


def search_pass(inp: dict, work: Path, tr: Tracer) -> list:
    return [_timed(tr, "op.search", _search_op, inp["order"])]


def search_check(inp: dict, index: int, out: list, work: Path) -> str | None:
    for torus, sols, stats, svgs in out:
        bad = oracles.check_search(
            torus[4], stats.solutions, stats.status,
            verified=all(hc.verify(s).is_tiling for s in sols),
            distinct=len({s.codewords for s in sols}) == len(sols),
            svg_stable=not svgs or svg_document(sols[0]) == svgs[0],
        )
        if bad:
            return f"torus n={torus[0]} p={torus[1]}: {bad}"
    return None


# ------------------------------------------------------------------- runner

WORKLOADS = {
    "certify-n8": (certify_setup, certify_pass, certify_check),
    "reject-n8": (reject_setup, reject_pass, reject_check),
    "locate-stream": (locate_setup, locate_pass, locate_check),
    "search-tori": (search_setup, search_pass, search_check),
}


def _timed(tr: Tracer, name: str, fn, *args):
    """Run one operation as its own request; returns (seconds, output or exception)."""
    start = time.perf_counter()
    try:
        with tr.span(name, new_trace=True):
            out = fn(*args, tr)
    except Exception as exc:  # a failed operation is counted, not fatal
        out = exc
    return time.perf_counter() - start, out


def check_ops(workload: str, inp: dict, ops: list, work: Path) -> list[str]:
    check = WORKLOADS[workload][2]
    failures = []
    for i, (_, out) in enumerate(ops):
        if isinstance(out, Exception):
            failures.append(f"op {i}: {type(out).__name__}: {out}")
            continue
        try:
            bad = check(inp, i, out, work)
        except Exception as exc:  # an output the oracle cannot read is wrong
            bad = f"oracle raised {type(exc).__name__}: {exc}"
        if bad:
            failures.append(f"op {i}: {bad}")
    return failures


def _digest(inp: dict) -> str:
    # canonical JSON of the generated inputs; codes and paths are summarised
    def enc(v):
        if isinstance(v, hc.BlockCode):
            return {"q": v.q, "n": v.length, "words": len(v.codewords)}
        if isinstance(v, Path):
            return v.name
        if isinstance(v, (set, frozenset)):
            return sorted(v)
        if isinstance(v, dict):
            return {str(k): enc(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [enc(x) for x in v]
        return v
    blob = json.dumps(enc(inp), sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def import_seconds() -> float:
    """Time a fresh interpreter takes to import halfcross, numpy included.

    Part of every set-up, so that work moved to import time shows in setup_s.
    """
    code = ("import time; t = time.perf_counter(); import halfcross; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


def environment(seed: int) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed}


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    setup, run_pass, _ = WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(trace)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"work-{workload}-") as tmp:
        work = Path(tmp)
        setup_times = []
        for i in range(SETUP_REPEATS):
            rng = random.Random(f"{workload}:{seed}")
            start = time.perf_counter()
            inp = setup(rng, work, tracer if i == SETUP_REPEATS - 1 else Tracer(False))
            setup_times.append(time.perf_counter() - start + import_seconds())
        digest = _digest(inp)

        passes, ops, failures = [], [], []
        begin = time.perf_counter()
        while True:
            # a traced run makes one untraced pass, then one traced pass
            tr = tracer if trace and passes else Tracer(False)
            start = time.perf_counter()
            pass_ops = run_pass(inp, work, tr)
            passes.append(time.perf_counter() - start)
            ops.extend(pass_ops)
            failures.extend(check_ops(workload, inp, pass_ops, work))
            if trace and len(passes) == 2:
                break
            if not trace and time.perf_counter() - begin + passes[-1] > seconds:
                break

    latencies = [dt for dt, _ in ops]
    result = {
        "workload": workload, "env": environment(seed), "inputs_sha256": digest,
        "attempted": len(ops), "failed": len(failures), "failures": failures[:20],
        "passes": len(passes), "ops": len(ops), "pass_s": passes,
    }
    if trace:
        tracer.write(out_dir / f"trace-{workload}-seed{seed}.json")
        result["metrics"] = {
            name: _m(value, PER_LAYER[name], 1)
            for name, value in layer_metrics(tracer.spans, passes[1] - passes[0]).items()
        }
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": (statistics.median(setup_times), len(setup_times)),
            "wall_s": (statistics.median(passes), len(passes)),
            "ops_per_s": (len(ops) / sum(passes), len(ops)),
            "op_p50_ms": (percentile(latencies, 0.5) * 1e3, len(ops)),
            "op_p99_ms": (percentile(latencies, 0.99) * 1e3, len(ops)),
            "peak_rss_mb": (peak_mb, 1),
        }
        result["metrics"] = {
            name: _m(value, END_TO_END[name], samples)
            for name, (value, samples) in values.items()
        }
    return result


def _m(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
