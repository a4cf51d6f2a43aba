"""Command-line surface for the half-cross tiling toolkit.

Exit codes: 0 success / positive result, 1 valid run with a negative result,
2 usage or parse error (including an unreadable or malformed input file),
3 precondition failure (e.g. a non-perfect code), 4 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import codes, constructions, search, svgout, tiling
from ._fileformat import FormatError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _print_report(report: tiling.VerificationReport, fmt: str, audit=None) -> None:
    if fmt == "tree":
        doc = {"verification": report.to_dict()}
        if audit is not None:
            doc["audit"] = audit.to_dict()
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    d = report.to_dict()
    for key in ("cells_total", "multiply_covered", "uncovered"):
        print(f"{key}: {d[key]}")
    if report.min_cross_distance is not None:
        print(f"min_cross_distance: {report.min_cross_distance}")
    if report.first_witness is not None:
        cell, cws = report.first_witness
        print(f"witness_cell: {' '.join(str(v) for v in cell)}")
        print(f"witness_covered_by: {len(cws)} codewords")
    if audit is not None:
        print(f"audit_profile: {audit.profile}")
        print(f"audit_f1: {list(audit.f1_pairs)}")
        print(f"audit_f2_count: {len(audit.f2_triples)}")
        print(f"audit_spencer_bound: {audit.spencer_bound}")
        for c in audit.checks:
            print(f"audit_check {c.name}: {'pass' if c.passed else 'FAIL'} ({c.detail})")
        print(f"audit_passed: {audit.passed}")
    print(f"result: {'tiling' if report.is_tiling else 'not-a-tiling'}")


def cmd_gen_code(args) -> int:
    try:
        if args.base == 2:
            code = codes.binary_hamming(args.t)
        else:
            code = codes.ternary_hamming(args.t)
    except ValueError as exc:
        return _error(exc, EXIT_USAGE)
    codes.write_code(code, args.out)
    ok, _ = codes.is_perfect(code)
    # generated Hamming codes are linear, so the minimum distance is the
    # least weight of a nonzero codeword: one pass, not all pairs
    dist = min(filter(None, (code.words != 0).sum(axis=1).tolist()), default="n/a")
    print(f"size: {len(code)}")
    print(f"length: {code.length}")
    print(f"min_distance: {dist}")
    print(f"perfect: {'yes' if ok else 'no'}")
    return EXIT_OK


def cmd_build_tiling(args) -> int:
    code = codes.read_code(args.code)
    try:
        if args.method == "binary":
            t = constructions.from_binary_perfect(code)
        elif args.method == "punctured":
            t = constructions.punctured_construction(code)
        else:
            t = constructions.from_ternary_perfect(code)
    except ValueError as exc:
        return _error(exc, EXIT_PRECONDITION)
    tiling.write_tiling(t, args.out)
    report = tiling.verify(t)
    print(f"n: {t.n}")
    print(f"p: {t.p}")
    print(f"count: {len(t)}")
    print(f"verify: {'tiling' if report.is_tiling else 'not-a-tiling'}")
    return EXIT_OK if report.is_tiling else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    t = tiling.read_tiling(args.tiling)
    pair_budget = tiling.DEFAULT_PAIR_BUDGET if args.min_dist else 0
    report = tiling.verify(t, pair_budget=pair_budget)
    audit = None
    if args.audit:
        try:
            if len(t) and (0,) * t.n not in t:
                t = tiling.normalize(t, t.words[0])
            audit = tiling.structural_audit(t, report)
        except ValueError as exc:
            return _error(exc, EXIT_PRECONDITION)
    _print_report(report, args.format, audit)
    return EXIT_OK if report.is_tiling else EXIT_NEGATIVE


def cmd_locate(args) -> int:
    code = codes.read_code(args.code)
    route = constructions._ROUTES[args.tiling_method]
    try:
        # the locator trusts the code, so it is certified once here
        constructions._require_perfect(code, route.q)
    except ValueError as exc:
        return _error(exc, EXIT_PRECONDITION)
    try:
        point = tuple(int(v) for v in args.point.split())
        x = constructions._locate(point, code, route)
    except ValueError as exc:
        return _error(exc, EXIT_USAGE)
    offset = tuple(xi - ai for xi, ai in zip(x, point))
    print(f"codeword: {' '.join(str(v) for v in x)}")
    print(f"codeword_mod_{route.p}: {' '.join(str(v % route.p) for v in x)}")
    print(f"offset: {' '.join(str(v) for v in offset)}")
    return EXIT_OK


def cmd_exist(args) -> int:
    n = args.n
    try:
        adm = tiling.admissible_dimension(n)
    except ValueError as exc:
        return _error(exc, EXIT_USAGE)
    cert = tiling.nonexistence_certificate(n)
    forced = cert.forced_period
    print(f"n: {n}")
    if not adm.admissible:
        print("admissible: no")
        print(f"certificate: {cert.conclusion}")
        print(f"no tiling: forced period {forced}, "
              f"{cert.shape_text} does not divide {cert.window_text}")
        return EXIT_NEGATIVE
    print(f"admissible: yes (n = {adm.base}^{adm.t} - 1)")
    print(f"certificate: {cert.conclusion}")
    # the construction's window is the forced one; build a witness only
    # when that window fits the verification budget
    if tiling.window_exceeds(forced, n, tiling.DEFAULT_CELL_BUDGET):
        print(f"witness: construction gives {cert.count_text} "
              f"codewords over Z_{forced}^{n}; window too large to verify here")
        return EXIT_OK
    route = next(r for r in constructions._ROUTES.values() if r.q == adm.base)
    witness = constructions._construct(route.hamming(adm.t), route)
    report = tiling.verify(witness, pair_budget=0)
    print(f"witness: {len(witness)} codewords over Z_{witness.p}^{witness.n}, "
          f"verify: {'tiling' if report.is_tiling else 'not-a-tiling'}")
    if args.out:
        tiling.write_tiling(witness, args.out)
    return EXIT_OK if report.is_tiling else EXIT_NEGATIVE


def cmd_search(args) -> int:
    try:
        cfg = search.SearchConfig(
            n=args.n,
            p=args.p,
            max_solutions=args.max_solutions,
            symmetry_breaking=not args.no_symmetry_breaking,
            node_budget=args.node_budget,
        )
    except ValueError as exc:
        return _error(exc, EXIT_USAGE)
    solutions, stats = search.search_tilings(cfg)
    print(f"nodes: {stats.nodes}")
    print(f"backtracks: {stats.backtracks}")
    print(f"solutions: {stats.solutions}")
    print(f"status: {stats.status}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, sol in enumerate(solutions):
            tiling.write_tiling(sol, out / f"solution_{i:03d}.tiling")
    if stats.status == "budget":
        return EXIT_BUDGET
    return EXIT_OK if solutions else EXIT_NEGATIVE


def cmd_export_svg(args) -> int:
    t = tiling.read_tiling(args.tiling)
    if t.n != 2:
        return _error(f"SVG export requires n = 2, got n = {t.n}", EXIT_USAGE)
    report = tiling.verify(t, pair_budget=0)
    if not report.is_tiling:
        return _error("refusing to draw an invalid tiling (verify failed)", EXIT_PRECONDITION)
    doc = svgout.svg_document(t)
    Path(args.out).write_text(doc, encoding="ascii")
    print(f"wrote: {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfcross",
        description="Half-cross tilings of Z^n from binary and ternary perfect codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-code", help="generate a binary or ternary Hamming code")
    g.add_argument("--base", type=int, choices=(2, 3), required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_code)

    b = sub.add_parser("build-tiling", help="build a tiling from a perfect code")
    b.add_argument("--method", choices=("binary", "punctured", "ternary"), required=True)
    b.add_argument("--code", required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build_tiling)

    v = sub.add_parser("verify", help="exact-cover check of a tiling window")
    v.add_argument("--tiling", required=True)
    v.add_argument("--audit", action="store_true")
    v.add_argument("--min-dist", action="store_true")
    v.add_argument("--format", choices=("text", "tree"), default="text")
    v.set_defaults(func=cmd_verify)

    l = sub.add_parser("locate", help="find the tiling codeword covering a point")
    l.add_argument("--tiling-method", choices=tuple(constructions._ROUTES), required=True)
    l.add_argument("--code", required=True)
    l.add_argument("--point", required=True, help='space-separated integers, e.g. "1 1"')
    l.set_defaults(func=cmd_locate)

    e = sub.add_parser("exist", help="admissibility, certificate, and witness for n")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--out", help="write the witness tiling here")
    e.set_defaults(func=cmd_exist)

    s = sub.add_parser("search", help="backtracking search over a small torus")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--max-solutions", type=int, default=1)
    s.add_argument("--no-symmetry-breaking", action="store_true")
    s.add_argument("--node-budget", type=int, default=10**7)
    s.add_argument("--out-dir")
    s.set_defaults(func=cmd_search)

    x = sub.add_parser("export-svg", help="draw an n=2 tiling window as SVG")
    x.add_argument("--tiling", required=True)
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_export_svg)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        return _error(exc, EXIT_USAGE)
    except tiling.CellBudgetExceeded as exc:
        return _error(exc, EXIT_BUDGET)


if __name__ == "__main__":
    sys.exit(main())
