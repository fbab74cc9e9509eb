"""Canonical-form time of two checkouts' whole runs, interleaved in one
process.

    python3 scripts/paired_canon_times.py PARENT CHANGE \\
        [--max-order N] [--rounds R]

PARENT and CHANGE are the roots of two checkouts, imported as in
``paired_entry_times.py``. Each round runs ``run_all`` over
``Catalog.default(N)`` with the global checks alone (the ones that read
graph classes) once per side, the first side alternating from round to
round. Every call a side's ``harness`` makes to ``canonical_form`` is
counted and timed, wherever the run makes it: inside each entry's profile,
or in a class phase after the entries. Both sides must give the same
report.

Prints one JSON object: per side and round the canonical-form seconds, the
number of forms and the run's wall seconds, each side's median, and the
per-round ratios CHANGE / PARENT of the canonical-form time. This
supplements the benchmark in ``perfbench/`` and replaces none of its gates.
"""

import argparse
import json
import statistics
import sys
import time

from paired_entry_times import load_harness


def timed_run(harness, max_order: int):
    """(canonical-form seconds, forms, wall seconds, report) of one run."""
    spent = [0.0, 0]
    real = harness.canonical_form

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0
            spent[1] += 1

    names = [n for n, c in harness.CHECKS.items() if c.kind == "global"]
    harness.canonical_form = timed
    try:
        t0 = time.perf_counter()
        results = harness.run_all(harness.Catalog.default(max_order),
                                  names=names)
        wall = time.perf_counter() - t0
    finally:
        harness.canonical_form = real
    return spent[0], spent[1], wall, harness.report_json(results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--max-order", type=int, default=720)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)

    sides = {name: load_harness(root, f"noncyclic_{name}")
             for name, root in (("parent", args.parent),
                                ("change", args.change))}
    rows = {"parent": [], "change": []}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        reports = {}
        for name in order:
            canon_s, forms, wall_s, reports[name] = timed_run(
                sides[name], args.max_order)
            rows[name].append({"canon_s": round(canon_s, 3), "forms": forms,
                               "wall_s": round(wall_s, 3), "first": name
                               == order[0]})
            print(f"round {r} {name}: canon {canon_s:.3f} s, {forms} forms, "
                  f"wall {wall_s:.3f} s", file=sys.stderr, flush=True)
        if reports["parent"] != reports["change"]:
            raise SystemExit(f"round {r}: the reports differ")
    summary = {
        "max_order": args.max_order,
        "rounds": rows,
        "median_canon_s": {side: round(statistics.median(
            x["canon_s"] for x in rows[side]), 3) for side in rows},
        "median_wall_s": {side: round(statistics.median(
            x["wall_s"] for x in rows[side]), 3) for side in rows},
        "canon_ratios": [round(c["canon_s"] / p["canon_s"], 4)
                         for p, c in zip(rows["parent"], rows["change"])],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
