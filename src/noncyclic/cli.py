"""Command-line front end.

Subcommands: build, analyze, compare, verify, export-cayley, export-dot.
Group expressions use the mini-language from groups.parse_group_expr, for
example Z4, Z2xZ4, D8, Q16, S5, G(3,3), H(4), EA(2,3), K(3,3), cayley:PATH,
perm:3:(1 2),(1 2 3).

Exit codes: 0 success, 1 computation error or an output path that cannot
be written (JSON object on stderr), 2 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .canon import bijection_from_forms, canonical_form
from .cyclicizers import cyclicizer_table
from .errors import NonCyclicError
from .graph import InvariantReport, build_graph, invariant_report, to_dot
from .groups import build, mu, parse_group_expr, pi_e, to_cayley_file
from .harness import (CHECKS, Catalog, all_pass, render_table, report_json,
                      run_all)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VERIFICATION = 3


def _build_from_text(text: str):
    spec = parse_group_expr(text)
    return build(spec, label=text)


def _cmd_build(args) -> int:
    g = _build_from_text(args.spec)
    out = {
        "label": g.label,
        "order": g.order,
        "pi_e": list(pi_e(g)),
        "mu": list(mu(g)),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    g = _build_from_text(args.spec)
    ct = cyclicizer_table(g)
    graph = build_graph(g, ct)
    report = invariant_report(g, ct, graph)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph))
    if args.csv:
        print(InvariantReport.csv_header())
        print(report.to_csv_row())
    else:
        print(report.to_json())
    return EXIT_OK


def _cmd_compare(args) -> int:
    t0 = time.perf_counter()
    g1 = _build_from_text(args.spec_a)
    g2 = _build_from_text(args.spec_b)
    graph1 = build_graph(g1)
    graph2 = build_graph(g2)
    cf1 = canonical_form(graph1)
    cf2 = canonical_form(graph2)
    bijection = bijection_from_forms(graph1, graph2, cf1, cf2)
    out = {
        "isomorphic": bijection is not None,
        "certificate_1": cf1.hash_hex,
        "certificate_2": cf2.hash_hex,
        "bijection": None if bijection is None else
            [[graph1.vertex_label(a), graph2.vertex_label(b)]
             for a, b in bijection],
    }
    if args.timing:
        out["elapsed_ms"] = int(1000 * (time.perf_counter() - t0))
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.max_order < 1:
        print("noncyc verify: error: --max-order must be at least 1",
              file=sys.stderr)
        return EXIT_USAGE
    if args.catalog:
        catalog = Catalog.from_file(args.catalog, max_order=args.max_order)
    else:
        catalog = Catalog.default(max_order=args.max_order)
    names = [args.check] if args.check else None
    results = run_all(catalog, jobs=args.jobs, names=names)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report_json(results, with_timing=args.timing))
    if args.json:
        print(report_json(results, with_timing=args.timing))
    else:
        print(render_table(results))
    return EXIT_OK if all_pass(results) else EXIT_VERIFICATION


def _cmd_export_cayley(args) -> int:
    g = _build_from_text(args.spec)
    to_cayley_file(g, args.path)
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    g = _build_from_text(args.spec)
    with open(args.path, "w", encoding="utf-8") as fh:
        fh.write(to_dot(build_graph(g)))
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    par = argparse.ArgumentParser(
        prog="noncyc",
        description="Non-cyclic graphs of finite groups: build groups, "
                    "compute graph invariants, compare graphs, and verify "
                    "the structural theorems over a catalog.")
    sub = par.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="validate a group and print its order "
                                     "and element-order data")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("analyze", help="print the invariant report of the "
                                       "non-cyclic graph")
    p.add_argument("spec")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--dot", metavar="PATH", help="also write a DOT file")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("compare", help="decide graph isomorphism and print "
                                       "a verified bijection")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("verify", help="run the theorem checks over a catalog")
    p.add_argument("--check", metavar="NAME",
                   help=f"one of: {', '.join(sorted(CHECKS))}")
    p.add_argument("--max-order", type=int, default=200)
    p.add_argument("--catalog", metavar="FILE",
                   help="JSON list of {label, spec} entries")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true",
                   help="print the JSON report instead of the table")
    p.add_argument("--report", metavar="FILE",
                   help="also write the JSON report to a file")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("export-cayley", help="write the Cayley-table file")
    p.add_argument("spec")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_export_cayley)

    p = sub.add_parser("export-dot", help="write the graph in DOT format")
    p.add_argument("spec")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_export_dot)
    return par


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NonCyclicError, OSError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
