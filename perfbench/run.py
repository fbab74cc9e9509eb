"""Benchmark of the noncyclic library.

    python3 perfbench/run.py --workload {sweep,cayley-large} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload's pass runs untraced as many times as its
nominal length fits in ``--seconds`` (at least twice), and before each pass
the workload is set up again for about a second (``setup_s`` is the median
of all those set-ups). Each operation counts at its fastest over the
passes; see ``fastest``. With ``--trace 1`` the set-up runs once, then the
pass runs once untraced and once traced, and the per-layer metrics come
from the spans of the traced pass; they are written to
``perfbench/out/trace-<workload>-<seed>.tsv.gz``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it give every
metric by name with its unit, the sample counts and the input's properties.
"""

import argparse
import json
import math
import resource
import statistics
import time

import program

# Keep in step with BENCHMARK.json.
CHECKS = (
    "cyc_coset_union", "cyc_core_cyclic", "pgroup_cyc_nontrivial",
    "quotient_cyc_trivial", "complete_iff_ea2", "diam_le_3",
    "nilpotent_diam_le_2", "omega_chi_s", "omega_index_bounds",
    "alpha_formula", "regular_classification", "homocyclic_degree_formula",
    "abelian_two_kind_degrees", "mu_cyc_disjoint", "mu_self_cyclicizer",
    "z6xs3_diam_3", "homocyclic_required_cases", "cyclic_maximal_families",
    "iso_order_spectrum", "iso_cyc_divisibility", "nilpotent_transfer",
    "multipartite_iso_condition", "regular_uniqueness",
    "dihedral_uniqueness", "pgroup_order_recovery",
)
TAIL_QUANTILES = (0.99, 0.95, 0.9, 0.8, 0.75, 0.5)
TAIL_BEYOND = 10
# Set-up repeats for at least this long before each timed pass, so that the
# median of a run's set-ups spans many of the machine's speed phases, which
# last a fraction of a second to a few seconds on a shared host.
SETUP_SECONDS_PER_PASS = 1.0
MIN_PASSES = 2


def setup_times(wl, reps, min_seconds):
    """Times of ``wl.setup``, called ``reps`` times or for ``min_seconds``,
    whichever is more."""
    times = []
    start = time.perf_counter()
    while len(times) < reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def nearest_rank(sorted_values, q):
    return sorted_values[math.ceil(q * len(sorted_values)) - 1]


def tail_quantile(n):
    """The highest listed quantile with at least TAIL_BEYOND samples above
    its nearest-rank position."""
    for q in TAIL_QUANTILES:
        if n - math.ceil(q * n) >= TAIL_BEYOND:
            return q
    return 0.5


def timed_passes(wl, seconds):
    """Set up, then run the pass untraced, as many times as the workload's
    nominal pass time fits in ``seconds``. The count depends on ``seconds``
    alone, so every run of a workload takes the same number of samples.
    Returns the set-up times and one outcome per pass."""
    passes = max(MIN_PASSES, int(seconds / wl.pass_seconds))
    setups, outcomes = [], []
    for _ in range(passes):
        setups += setup_times(wl, wl.setup_reps, SETUP_SECONDS_PER_PASS)
        outcomes.append(wl.run())
    return setups, outcomes


def fastest(outcomes):
    """Each operation's fastest time over the passes, and the pass time
    made of them: their sum plus the fastest time any pass spent outside
    operations (the sweep's global checks, the loops themselves).

    On a shared host the same work runs at speeds that differ by half from
    one second to the next. A pass's own wall time carries whichever speed
    phases it met; an operation's fastest time over passes tens of seconds
    apart is the one least slowed by them."""
    per_op = [min(times) for times in zip(*(o.latencies for o in outcomes))]
    outside = min(o.wall_s - sum(o.latencies) for o in outcomes)
    return per_op, sum(per_op) + outside


def end_to_end(setup_s, outcomes):
    lat, wall_s = fastest(outcomes)
    lat.sort()
    q = tail_quantile(len(lat))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * nearest_rank(lat, q), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = {
        "wall_s": f"fastest of {len(outcomes)} passes per operation; "
                  f"pass wall times "
                  + ", ".join(f"{o.wall_s:.3f}" for o in outcomes) + " s",
        "latency_p50_ms": f"median of {len(lat)} operations",
        "latency_tail_ms": f"p{round(100 * q)} of {len(lat)} operations, "
                           f"{len(lat) - math.ceil(q * len(lat))} beyond",
    }
    return metrics, notes, f"latency_p{round(100 * q)}_ms"


def per_layer(s, untraced, traced, tracer, global_checks):
    """The per-layer metrics from a traced pass's span summary ``s``."""
    incl, calls, self_s = s["incl"], s["calls"], s["self"]
    size, size2, errors = s["size"], s["size2"], s["errors"]
    layer = s["layer_self"]
    validate_s = incl["groups.validate_full"]
    m = {
        "groups.build_s": (incl["groups.build"], "s"),
        "groups.build_calls": (calls["groups.build"], "count"),
        "groups.elements": (size["groups.build"], "count"),
        "groups.write_s": (incl["groups.to_cayley_file"], "s"),
        "groups.load_s": (incl["groups.from_cayley_file"], "s"),
        "groups.validate_s": (validate_s, "s"),
        "groups.self_s": (layer["groups"], "s"),
        "cyclicizers.table_s": (incl["cyclicizers.cyclicizer_table"], "s"),
        "cyclicizers.table_calls": (calls["cyclicizers.cyclicizer_table"],
                                    "count"),
        "cyclicizers.quotient_s": (incl["cyclicizers.quotient"], "s"),
        "cyclicizers.self_s": (layer["cyclicizers"], "s"),
        "graph.build_s": (incl["graph.build_graph"], "s"),
        "graph.vertices": (size["graph.build_graph"], "count"),
        "graph.edges": (size2["graph.build_graph"], "count"),
        "graph.diameter_s": (incl["graph.diameter_info"], "s"),
        "graph.diameter_calls": (calls["graph.diameter_info"], "count"),
        "graph.clique_chromatic_s": (incl["graph.clique_and_chromatic"], "s"),
        "graph.independence_s": (incl["graph.independence_info"], "s"),
        "graph.independence_exact": (size["graph.independence_info"],
                                     "count"),
        "graph.invariant_report_s": (incl["graph.invariant_report"], "s"),
        "graph.self_s": (layer["graph"], "s"),
        "canon.canonical_form_s": (incl["canon.canonical_form"], "s"),
        "canon.canonical_form_calls": (calls["canon.canonical_form"],
                                       "count"),
        "canon.vertices": (size["canon.canonical_form"], "count"),
        "canon.timeouts": (errors["canon.canonical_form", "Timeout"],
                           "count"),
        "canon.too_large": (errors["canon.canonical_form", "TooLarge"],
                            "count"),
        "canon.self_s": (layer["canon"], "s"),
        "structure.recognizers_s": (s["layer_incl"]["structure"], "s"),
        "structure.calls": (s["layer_calls"]["structure"], "count"),
        "structure.self_s": (layer["structure"], "s"),
        "harness.analyze_entry_s": (self_s["harness.analyze_entry"], "s"),
        "harness.profile_of_s": (self_s["harness.profile_of"], "s"),
        "harness.global_checks_s": (
            sum(incl[f"harness.check.{n}"] for n in global_checks), "s"),
        "harness.entries": (calls["harness.analyze_entry"], "count"),
        "harness.entries_failed": (size["harness.analyze_entry"], "count"),
        "harness.tested_total": (traced.properties.get("tested_total", 0),
                                 "count"),
        "harness.self_s": (layer["harness"], "s"),
    }
    for name in CHECKS:
        m[f"harness.check.{name}_ms"] = (
            1000 * incl[f"harness.check.{name}"], "ms")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.wall_s"] = (traced.wall_s, "s")
    m["trace.overhead_s"] = (traced.wall_s - validate_s - untraced.wall_s, "s")
    m["trace.unattributed_s"] = (traced.wall_s - s["root_s"], "s")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "cayley-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    program.load()
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}", flush=True)
    if args.trace:
        setup_times(wl, 1, 0)
        outcome = wl.run()
        outcomes = [outcome]
        tracer = tracing.Tracer()
        traced_outcome = wl.run(tracer)
        outcomes.append(traced_outcome)
        summary = tracer.summary()
        metrics = per_layer(summary, outcome, traced_outcome, tracer,
                            [n for n, c in workloads.harness.CHECKS.items()
                             if c.kind == "global"])
        path = (program.ROOT / "perfbench" / "out"
                / f"trace-{wl.name}-{args.seed}.tsv.gz")
        tracer.write(path)
        print(f"spans written to {path.relative_to(program.ROOT)}")
        accounted = sum(summary["layer_self"].values())
        print(f"layer self times sum to {accounted:.4f} s of the traced "
              f"wall_s {traced_outcome.wall_s:.4f} s "
              f"({100 * accounted / traced_outcome.wall_s:.2f}%)")
        notes = {}
    else:
        setups, outcomes = timed_passes(wl, args.seconds)
        outcome = outcomes[0]
        metrics, notes, tail_name = end_to_end(statistics.median(setups),
                                               outcomes)
        print(f"setup_s is the median of {len(setups)} set-ups")
        print(f"{tail_name} = {metrics['latency_tail_ms'][0]:.4f} ms "
              f"(reported as latency_tail_ms)")
    for key, value in wl.input_properties().items():
        print(f"input {key} = {value}")
    for key, value in outcome.properties.items():
        print(f"output {key} = {value}")

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for what, reason in o.failures:
            print(f"FAILED {what}: {reason}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
