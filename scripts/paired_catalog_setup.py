"""Set-up times of two checkouts' default catalogs, alternated in one process.

    python3 scripts/paired_catalog_setup.py PARENT CHANGE \\
        [--max-order N] [--rounds R]

PARENT and CHANGE are the roots of two checkouts, each imported under a
name of its own as in ``paired_entry_times.py``. Each round times one
``Catalog.default(N)`` on each side, the first side alternating from round
to round, so drift in the host's speed hits both sides of a round alike.
This is the set-up that the benchmark's sweep ``setup_s`` times.

Prints each side's median and quartiles over the rounds, the change's
median relative to the parent's, the quartiles of the per-round ratios
CHANGE / PARENT (below 1: the change is faster), which a shift in the
host's speed between rounds does not move, and the rounds in which the
change was faster. Both sides must list the same (label, spec label, spec
order) for every entry.
"""

import argparse
import gc
import json
import statistics
import sys
import time

from paired_entry_times import load_harness


def catalog_rows(harness, max_order: int) -> list:
    return [(e.label, e.spec.label(), e.spec.order())
            for e in harness.Catalog.default(max_order).entries]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--max-order", type=int, default=200)
    ap.add_argument("--rounds", type=int, default=100)
    args = ap.parse_args(argv)

    sides = {name: load_harness(root, f"noncyclic_{name}")
             for name, root in (("parent", args.parent),
                                ("change", args.change))}
    if (catalog_rows(sides["parent"], args.max_order)
            != catalog_rows(sides["change"], args.max_order)):
        raise SystemExit("the two checkouts list different catalog entries")

    times = {"parent": [], "change": []}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            gc.collect()
            t0 = time.perf_counter()
            sides[name].Catalog.default(args.max_order)
            times[name].append(time.perf_counter() - t0)

    def quartiles(values):
        return [round(1000 * q, 4) for q in statistics.quantiles(values, n=4)]

    p50 = {name: statistics.median(ts) for name, ts in times.items()}
    summary = {
        "rounds": args.rounds,
        "max_order": args.max_order,
        "p50_ms": {name: round(1000 * v, 4) for name, v in p50.items()},
        "quartiles_ms": {name: quartiles(ts) for name, ts in times.items()},
        "change_pct": round(100 * (p50["change"] / p50["parent"] - 1), 2),
        "ratio_quartiles": [round(q, 4) for q in statistics.quantiles(
            [c / p for c, p in zip(times["change"], times["parent"])], n=4)],
        "rounds_change_faster": sum(c < p for c, p in zip(times["change"],
                                                          times["parent"])),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
