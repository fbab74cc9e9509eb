"""Per-entry times of two checkouts' packages, interleaved in one process.

    python3 scripts/paired_entry_times.py PARENT CHANGE \\
        [--max-order N] [--every K]

PARENT and CHANGE are the roots of two checkouts. Each one's
``src/noncyclic`` is imported under a name of its own, so both run in this
process. For every K-th entry of ``Catalog.default(N)``, the entry's whole
per-entry run (build, cyclicizer table and graph, every group and graph
check, and the profile that the global checks read, with its canonical
forms where the checkout computes them per entry) is timed REPEATS times on
each side, the sides alternating and the first side alternating from entry to
entry. An entry's time on a side is its fastest run. Drift in the host's
speed then hits both sides of an entry alike, which a comparison of whole
runs made minutes apart cannot promise.

Prints each side's median and sum of the per-entry times, and the
quartiles of the per-entry ratios CHANGE / PARENT (below 1: the change is
faster). Both sides must give the same check results on every entry.
This supplements the benchmark in ``perfbench/`` and replaces none of its
gates.
"""

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

REPEATS = 3


def load_harness(root: str, alias: str):
    """The ``harness`` module of the package under ``root``/src, imported
    as package ``alias``."""
    init = Path(root, "src", "noncyclic", "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{alias}.harness")


def entry_runner(harness, max_order: int):
    """(entries, run) where run(entry) is the harness's per-entry run with
    every group and graph check and the profile the global checks read."""
    checks = [name for name, check in harness.CHECKS.items()
              if check.kind in ("group", "graph")]
    entries = harness.Catalog.default(max_order).entries

    def run(entry):
        # positional: the profile flag's name differs between checkouts
        outcomes, _ = harness._run_entry(entry, checks, True, max_order)
        return {name: (r.tested, len(r.skipped), r.counterexamples)
                for name, r in outcomes.items()}

    return entries, run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--max-order", type=int, default=200)
    ap.add_argument("--every", type=int, default=1,
                    help="time every K-th catalog entry")
    args = ap.parse_args(argv)

    sides = {}
    for name, root in (("parent", args.parent), ("change", args.change)):
        sides[name] = entry_runner(load_harness(root, f"noncyclic_{name}"),
                                   args.max_order)
    labels = [[e.label for e in entries] for entries, _ in sides.values()]
    if labels[0] != labels[1]:
        raise SystemExit("the two checkouts list different catalog entries")

    rows = []
    for i in range(0, len(labels[0]), args.every):
        order = ("parent", "change") if (i // args.every) % 2 == 0 else (
            "change", "parent")
        times = {"parent": [], "change": []}
        results = {}
        for _ in range(REPEATS):
            for name in order:
                entries, run = sides[name]
                t0 = time.perf_counter()
                results[name] = run(entries[i])
                times[name].append(time.perf_counter() - t0)
        if results["parent"] != results["change"]:
            raise SystemExit(f"{labels[0][i]}: the check results differ")
        rows.append({"label": labels[0][i],
                     "parent_ms": 1000 * min(times["parent"]),
                     "change_ms": 1000 * min(times["change"])})

    ratios = [r["change_ms"] / r["parent_ms"] for r in rows]
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    summary = {
        "entries": len(rows),
        "repeats": REPEATS,
        "max_order": args.max_order,
        "every": args.every,
        "p50_ms": {side: round(statistics.median(r[f"{side}_ms"]
                                                 for r in rows), 4)
                   for side in ("parent", "change")},
        "sum_s": {side: round(sum(r[f"{side}_ms"] for r in rows) / 1000, 3)
                  for side in ("parent", "change")},
        "ratio_quartiles": [round(q, 4) for q in (q1, q2, q3)],
        "entries_faster": sum(r < 1 for r in ratios),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
