"""The benchmark's workloads: set-up, one timed pass, and output checks.

Each workload makes its inputs from the seed in ``setup`` and runs them in
``run``, a closed loop with one caller: the next operation starts when the
previous one returns. ``run`` times one pass, keeps one latency per
operation (in the same order on every pass), and checks every output after
the clock stops. ``run.py`` calls ``run`` several times in a process.

sweep         ``harness.run_all`` over ``Catalog.default(max_order=200)``
              with all checks: the ``noncyc verify`` run that is the
              project's headline number. The catalog is fixed, so the seed
              does not change this input. An operation is a catalog entry.
cayley-large  for 40 catalog groups of order 201..720: ``build``, write
              and read back a Cayley-table file, then the invariant report
              (the ``noncyc export-cayley`` + ``noncyc analyze cayley:...``
              path). An operation is a group.
"""

import hashlib
import json
import random
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import noncyclic
from noncyclic import cyclicizers, graph, groups, harness
from noncyclic.errors import NonCyclicError

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
WORK = HERE / ".work"

SWEEP_MAX_ORDER = 200
LARGE_MAX_ORDER = 720
# A pass of this many groups takes about 12 s on one core; p75 then has 10
# groups beyond it.
LARGE_GROUPS = 40


def load_expected(name):
    with open(EXPECTED / name, encoding="utf-8") as fh:
        return json.load(fh)


def report_digest(report):
    """Digest of an InvariantReport's JSON text, as stored in expected/."""
    return hashlib.blake2b(report.to_json().encode(), digest_size=8).hexdigest()


def large_candidates():
    """Catalog entries of order above the sweep bound, in catalog order."""
    catalog = harness.Catalog.default(max_order=LARGE_MAX_ORDER)
    return [e for e in catalog.entries if e.spec.order() > SWEEP_MAX_ORDER]


def large_population(expected):
    """The non-cyclic candidates: those with a recorded report."""
    population = [e for e in large_candidates() if e.label in expected]
    if len(population) != len(expected):
        raise RuntimeError(f"cayley-large: {len(population)} catalog groups "
                           f"match the {len(expected)} recorded reports")
    return population


@contextmanager
def traced(tracer):
    """Spans around the layers' public functions, when tracing."""
    if tracer is None:
        yield
        return
    patches = tracer.install(noncyclic)
    try:
        yield
    finally:
        patches.undo()


class Outcome:
    """What one timed pass produced."""

    def __init__(self):
        self.wall_s = 0.0
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = []      # (operation, reason), first few only
        self.properties = {}

    def fail(self, what, reason):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append((what, reason))


# ---------------------------------------------------------------------------


class Sweep:
    name = "sweep"
    setup_reps = 11
    pass_seconds = 25   # nominal; run.py derives the pass count from it

    def __init__(self, seed):
        self.expected = load_expected("sweep.json")

    def setup(self):
        self.catalog = harness.Catalog.default(max_order=SWEEP_MAX_ORDER)

    def input_properties(self):
        return {"entries": len(self.catalog)}

    def run(self, tracer=None):
        out = Outcome()
        starts, ends, sizes = [], [], []

        # Per-entry latency: from the start of analyze_entry to the end of
        # profile_of for the same entry (its group checks run in between).
        # Only numbers are kept: holding on to the analysed groups would
        # grow the heap that the garbage collector scans, and slow the run.
        def timed_analyze(entry):
            starts.append(time.perf_counter())
            az = analyze(entry)
            if az.error is not None:
                out.fail(az.label, az.error)
            if az.graph is not None:
                sizes.append(az.graph.n_vertices)
            return az

        def timed_profile(az, *args, **kwargs):
            prof = profile(az, *args, **kwargs)
            ends.append(time.perf_counter())
            return prof

        with traced(tracer):
            analyze, profile = harness.analyze_entry, harness.profile_of
            harness.analyze_entry = timed_analyze
            harness.profile_of = timed_profile
            try:
                t0 = time.perf_counter()
                results = harness.run_all(self.catalog)
                out.wall_s = time.perf_counter() - t0
            finally:
                harness.analyze_entry, harness.profile_of = analyze, profile

        n = len(self.catalog)
        out.attempted = n
        if not len(starts) == len(ends) == n:
            raise RuntimeError(f"sweep: saw {len(starts)} analyze_entry and "
                               f"{len(ends)} profile_of calls for {n} entries")
        out.latencies = [b - a for a, b in zip(starts, ends)]
        out.properties = {
            "entries": n,
            "graphs": len(sizes),
            "vertices": sum(sizes),
            "tested_total": sum(r.tested for r in results),
        }
        exp = self.expected
        digest = hashlib.sha256(harness.report_json(results).encode()).hexdigest()
        for key in ("entries", "graphs", "vertices", "tested_total"):
            if out.properties[key] != exp[key]:
                out.fail("input", f"{key} = {out.properties[key]}, "
                                  f"expected {exp[key]}")
        if digest != exp["report_sha256"] or not harness.all_pass(results):
            # The report is one output for the whole catalog, so a wrong
            # report counts every entry as failed.
            out.failures.append(("report", f"sha256 {digest} differs from "
                                 f"the recorded {exp['report_sha256']}"))
            out.failed = n
        return out


# ---------------------------------------------------------------------------


class CayleyLarge:
    name = "cayley-large"
    setup_reps = 5
    pass_seconds = 12

    def __init__(self, seed):
        self.seed = seed
        self.groups = LARGE_GROUPS
        self.expected = load_expected("cayley_large.json")["reports"]

    def setup(self):
        """Take the middle group of each of ``self.groups`` strata of the
        candidates sorted by order; the seed shuffles the order they run in.

        The groups are the same for every seed: with one group drawn at
        random per stratum, the draw alone moved the p50 and tail latencies
        by about a tenth between seeds, on top of the machine's own noise.
        """
        population = large_population(self.expected)
        n, k = len(population), self.groups
        if not 0 < k <= n:
            raise ValueError(f"cannot take {k} strata from {n} groups")
        self.work = [population[(i * n // k + (i + 1) * n // k) // 2]
                     for i in range(k)]
        random.Random(self.seed).shuffle(self.work)

    def input_properties(self):
        hundreds = Counter((e.spec.order() - 1) // 100 for e in self.work)
        return {"groups": len(self.work),
                "order_histogram": {f"{100 * h + 1}-{100 * h + 100}": n
                                    for h, n in sorted(hundreds.items())},
                "elements": sum(e.spec.order() for e in self.work)}

    def run(self, tracer=None):
        out = Outcome()
        digests = []
        clock = time.perf_counter
        WORK.mkdir(exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=WORK) as tmp, traced(tracer):
                t_start = clock()
                for i, entry in enumerate(self.work):
                    t0 = clock()
                    try:
                        digests.append(self._one(entry, Path(tmp) / f"{i}.cayley",
                                                 tracer))
                    except NonCyclicError as exc:
                        digests.append(exc)
                    out.latencies.append(clock() - t0)
                out.wall_s = clock() - t_start
        finally:
            if WORK.is_dir() and not any(WORK.iterdir()):
                WORK.rmdir()
        out.attempted = len(self.work)
        for entry, got in zip(self.work, digests):
            if isinstance(got, NonCyclicError):
                out.fail(entry.label, f"{type(got).__name__}: {got}")
            elif got != self.expected.get(entry.label):
                out.fail(entry.label, f"report digest {got} differs from the "
                                      f"recorded {self.expected.get(entry.label)}")
        return out

    @staticmethod
    def _one(entry, path, tracer):
        g = groups.build(entry.spec)
        groups.to_cayley_file(g, str(path))
        loaded = groups.from_cayley_file(str(path))
        if tracer is not None:
            tracer.wrap("groups.validate_full", loaded.validate_full)()
        table = cyclicizers.cyclicizer_table(loaded)
        g_graph = graph.build_graph(loaded, table)
        report = graph.invariant_report(loaded, table, g_graph,
                                        label=entry.label)
        return report_digest(report)


WORKLOADS = {w.name: w for w in (Sweep, CayleyLarge)}
