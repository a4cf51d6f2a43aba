"""halfcross benchmark: certify, reject, locate and search workloads.

    python3 perfbench/run.py --workload certify-n8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` as it
stands, nothing is installed.  Each workload runs in its own child process
(``workloads.py``) with BLAS/OpenMP pinned to one thread, one workload after
another, so its peak RSS is its own.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced pass (spans are
written to ``perfbench/out/``).  The report lists every metric with its unit
and sample count, the machine, the seed, a digest of the generated inputs and
``failed_frac``; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("certify-n8", "reject-n8", "locate-stream", "search-tori")
#: a child that outlives this is stopped; each run must end within 180 s
CHILD_TIMEOUT_S = 170

_ONE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh child process and return its result."""
    env = dict(os.environ, **_ONE_THREAD, PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(OUT)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="ascii")
    return result


def print_report(result: dict) -> None:
    env = result["env"]
    print(f"workload {result['workload']}  seed {env['seed']}  "
          f"passes {result['passes']}  ops {result['ops']}")
    print(f"  machine: nproc {env['nproc']}, {env['cpu']}, "
          f"python {env['python']}, numpy {env['numpy']}")
    print(f"  inputs sha256 {result['inputs_sha256']}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6f} {m['unit']:6s} n={m['samples']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':42s} {frac:>16.6f} {'':6s} "
          f"({result['failed']} of {result['attempted']} ops)")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "halfcross" / "__init__.py").is_file():
        print(f"error: no halfcross sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    for r in results:
        print_report(r)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {
        (name if len(results) == 1 else f"{r['workload']}.{name}"):
            {"value": m["value"], "unit": m["unit"]}
        for r in results for name, m in r["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
