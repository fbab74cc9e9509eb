"""Record the outputs the benchmark checks against, from the program in the
checkout. Run it only on a commit whose outputs are known to be right:

    python3 perfbench/record_expected.py [sweep] [cayley-large]

With no argument it records both. It writes ``expected/sweep.json`` (the
digest of the default sweep's report and its input counts) and
``expected/cayley_large.json`` (one digest per non-cyclic catalog group of
order 201..720; cyclic groups have no graph and are left out, which makes
this file the workload's population). The Cayley workload's reports are
computed from ``build`` directly, without the file round trip that the
benchmark measures, so the round trip is checked against an independent
route. Recording both took about seven minutes on one core.
"""

import hashlib
import json
import sys

import program

program.load()

from noncyclic import graph, groups, harness  # noqa: E402
import workloads  # noqa: E402


def write(name, data):
    workloads.EXPECTED.mkdir(exist_ok=True)
    with open(workloads.EXPECTED / name, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_sweep():
    catalog = harness.Catalog.default(max_order=workloads.SWEEP_MAX_ORDER)
    results = harness.run_all(catalog)
    graphs = [az.graph for az in map(harness.analyze_entry, catalog.entries)
              if az.graph is not None]
    write("sweep.json", {
        "report_sha256": hashlib.sha256(
            harness.report_json(results).encode()).hexdigest(),
        "all_pass": harness.all_pass(results),
        "entries": len(catalog),
        "graphs": len(graphs),
        "vertices": sum(g.n_vertices for g in graphs),
        "tested_total": sum(r.tested for r in results),
    })


def record_cayley_large():
    reports = {}
    candidates = workloads.large_candidates()
    for i, entry in enumerate(candidates):
        g = groups.build(entry.spec)
        if groups.is_cyclic_group(g):
            continue
        reports[entry.label] = workloads.report_digest(
            graph.invariant_report(g, label=entry.label))
        if i % 500 == 0:
            print(f"{i}/{len(candidates)}", file=sys.stderr, flush=True)
    write("cayley_large.json", {
        "digest": "blake2b, 8 bytes, of InvariantReport.to_json()",
        "orders": [workloads.SWEEP_MAX_ORDER + 1, workloads.LARGE_MAX_ORDER],
        "reports": reports,
    })


if __name__ == "__main__":
    which = sys.argv[1:] or ["sweep", "cayley-large"]
    if "sweep" in which:
        record_sweep()
    if "cayley-large" in which:
        record_cayley_large()
