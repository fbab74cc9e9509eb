"""A/B times of two checkouts, alternated in one process.

    python3 scripts/paired_times.py {entries,catalog,canon} PARENT CHANGE \\
        [--max-order N] [--every K | --rounds R]

PARENT and CHANGE are the roots of two checkouts, each one's
``src/noncyclic`` imported under a name of its own. Each trial times both
sides, the first side alternating, so drift in the host's speed hits both
alike; results that differ between the sides stop the run. Per mode:

- ``entries`` (N = 200, K = 1): each K-th ``Catalog.default(N)`` entry's
  whole run, best of REPEATS interleaved runs per side; results: its checks.
- ``catalog`` (N = 200, R = 100): ``Catalog.default(N)`` after
  ``gc.collect()`` (the sweep's ``setup_s``); results: labels and orders.
- ``canon`` (N = 720, R = 3): ``run_all`` of the global checks, each of its
  ``canonical_form`` calls timed and counted; results: the report.

Prints one JSON object with, per measure, each side's median, quartiles and
sum, the quartiles of the per-trial ratios CHANGE / PARENT (below 1: the
change is faster; null if no parent value is above 0) and the number of
trials the change won. In ``entries`` mode each side also reports its tail:
the nearest-rank quantile of the entry times that ``perfbench/run.py``
reports as ``latency_tail_ms`` (p99 of 1827 entries), with the ratio of
the tails. It supplements ``perfbench/``, replacing no gate.
"""

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import time
from functools import cache
from pathlib import Path

REPEATS = 3
SIDES = ("parent", "change")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_harness(root: str, alias: str):
    """``root``/src/noncyclic's ``harness``, imported as ``alias``.harness."""
    init = Path(root, "src", "noncyclic", "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{alias}.harness")


def entries_mode(harness, args):
    """(trial count, trial) where trial(i) -> (results, {measure: value})."""
    checks = [name for name, check in harness.CHECKS.items()
              if check.kind in ("group", "graph")]
    entries = harness.Catalog.default(args.max_order).entries[::args.every]

    def trial(i):
        t0 = time.perf_counter()
        # positional: the profile flag's name differs between checkouts
        outcomes, _ = harness._run_entry(entries[i], checks, True,
                                         args.max_order)
        values = {"entry_ms": 1000 * (time.perf_counter() - t0)}
        return (entries[i].label, {n: (r.tested, len(r.skipped),
                                       r.counterexamples)
                                   for n, r in outcomes.items()}), values
    return len(entries), trial


def catalog_mode(harness, args):
    def trial(_):
        gc.collect()
        t0 = time.perf_counter()
        entries = harness.Catalog.default(args.max_order).entries
        values = {"catalog_ms": 1000 * (time.perf_counter() - t0)}
        return [(e.label, e.spec.label(), e.spec.order())
                for e in entries], values
    return args.rounds, trial


def canon_mode(harness, args):
    names = [n for n, c in harness.CHECKS.items() if c.kind == "global"]
    real, values = harness.canonical_form, {}

    def timed(*a, **kw):
        t0 = time.perf_counter()
        try:
            return real(*a, **kw)
        finally:
            values["canon_s"] += time.perf_counter() - t0
            values["forms"] += 1

    def trial(_):
        values.update(canon_s=0.0, forms=0)
        t0 = time.perf_counter()
        results = harness.run_all(harness.Catalog.default(args.max_order),
                                  names=names)
        values["wall_s"] = time.perf_counter() - t0
        return harness.report_json(results), dict(values)
    harness.canonical_form = timed
    return args.rounds, trial


@cache
def load_benchmark_run():
    """This checkout's ``perfbench/run.py``, whose tail rule ``entries``
    mode reports; it imports ``program`` from its own directory."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def tail(values: list) -> tuple:
    """(quantile, nearest-rank value) of the tail ``perfbench/run.py``
    reports for this many values."""
    run = load_benchmark_run()
    q = run.tail_quantile(len(values))
    return q, round(run.nearest_rank(sorted(values), q), 4)


def quartiles(values: list):
    """Quartiles of values (one value is its own quartiles); None for none."""
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return [round(q, 4) for q in qs] if values else None


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = ap.add_subparsers(dest="mode", required=True)
    for mode, max_order, count, default in (
            ("entries", 200, "--every", 1), ("catalog", 200, "--rounds", 100),
            ("canon", 720, "--rounds", 3)):
        sub = modes.add_parser(mode)
        for side in SIDES:
            sub.add_argument(side)
        sub.add_argument("--max-order", type=int, default=max_order)
        sub.add_argument(count, type=int, default=default)
    args = ap.parse_args(argv)

    mode = globals()[f"{args.mode}_mode"]
    (count, parent), (change_count, change) = (mode(load_harness(
        getattr(args, s), f"noncyclic_{s}"), args) for s in SIDES)
    if count != change_count:
        raise SystemExit("the two checkouts give different trial counts")
    repeats = REPEATS if args.mode == "entries" else 1
    rows = []  # per trial and measure: [parent value, change value]
    pair = (parent, change)
    for i in range(count):
        runs = {trial: [] for trial in pair}
        for _ in range(repeats):
            for trial in pair if i % 2 == 0 else pair[::-1]:
                runs[trial].append(trial(i))
        if runs[parent][-1][0] != runs[change][-1][0]:
            raise SystemExit(f"trial {i}: the two sides' results differ")
        rows.append({m: [min(v[m] for _, v in runs[t]) for t in pair]
                     for m in runs[parent][0][1]})

    summary = dict(vars(args), trials=len(rows), repeats=repeats)
    for m in rows[0] if rows else ():
        pairs = [row[m] for row in rows]
        summary[m] = {s: {"p50": round(statistics.median(v), 4),
                          "quartiles": quartiles(v), "sum": round(sum(v), 4)}
                      for s, v in zip(SIDES, zip(*pairs))}
        summary[m].update(
            ratio_quartiles=quartiles([c / p for p, c in pairs if p]),
            change_won=sum(c < p for p, c in pairs))
        if args.mode == "entries":
            for s, v in zip(SIDES, zip(*pairs)):
                q, summary[m][s]["tail"] = tail(v)
            summary[m]["tail_quantile"] = q
            summary[m]["tail_ratio"] = round(
                summary[m]["change"]["tail"] / summary[m]["parent"]["tail"], 4)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
