"""In-memory span tracing around the public functions of each layer.

Spans are recorded from the benchmark's own code: every public function
defined in a layer module is replaced, for the duration of a traced pass,
by a wrapper that records a span, in every ``noncyclic`` module that holds
a reference to it (so calls that ``harness`` makes through names it
imported, such as ``canonical_form`` and ``diameter_info``, are seen too).
The check functions registered in ``harness.CHECKS`` are wrapped the same
way. Nothing under ``src/`` is edited; every patch is undone afterwards.

A span is ``[name, start_ns, end_ns, parent_index, outermost, error, size,
size2]``, where the sizes are work counts read from the call's result.
``outermost`` is false when a span with the same key is already open (for
example the recursive ``build`` of a direct product's factors), so
inclusive times never count nested work twice. Self time is a span's
duration minus the durations of its direct children; the run is single
threaded, so children never overlap.
"""

import dataclasses
import functools
import gzip
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("groups", "cyclicizers", "graph", "canon", "structure", "harness")

# Span keys that several functions share, so that one metric covers them
# and nested calls between them are not counted twice.
SHARED_KEYS = {
    "cyclicizers.quotient_by_cyclicizer": "cyclicizers.quotient",
    "cyclicizers.quotient_by_central": "cyclicizers.quotient",
}


def _sizes_of(name, result):
    """Work counts carried by a call's result, for the count metrics."""
    if name in ("groups.build", "groups.from_cayley_file"):
        return result.order, 0
    if name == "graph.build_graph":
        return (result.n_vertices,
                sum(row.bit_count() for row in result.adjacency) // 2)
    if name == "canon.canonical_form":
        return result.vertex_count, 0
    if name == "graph.independence_info":
        return int(result.brute_value is not None), 0
    if name == "harness.analyze_entry":
        return int(result.error is not None), 0
    return 0, 0


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._undo:
            put, owner, attr, old = self._undo.pop()
            put(owner, attr, old)


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = Counter()

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack, open_keys = self.spans, self._stack, self._open
        key = SHARED_KEYS.get(name, name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_keys[key] += 1
            rec = [name, 0, 0, stack[-1] if stack else -1,
                   open_keys[key] == 1, None, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = clock()
                rec[5] = type(exc).__name__
                raise
            else:
                rec[2] = clock()
                rec[6], rec[7] = _sizes_of(name, result)
                return result
            finally:
                stack.pop()
                open_keys[key] -= 1

        return traced

    def install(self, package):
        """Wrap the layers' public functions and the registered checks."""
        patches = Patches()
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    if other.__dict__.get(attr) is fn:
                        patches.set(other, attr, traced)
        groups = sys.modules[f"{package.__name__}.groups"]
        patches.set(groups.Subgroup, "as_group",
                    self.wrap("groups.Subgroup.as_group",
                              groups.Subgroup.as_group))
        harness = sys.modules[f"{package.__name__}.harness"]
        for name, check in list(harness.CHECKS.items()):
            patches.set_item(harness.CHECKS, name, dataclasses.replace(
                check, fn=self.wrap(f"harness.check.{name}", check.fn)))
        return patches

    def summary(self):
        """Aggregate the spans: per-name inclusive time and calls (outermost
        spans only), per-name self time, per-layer self time, per-layer
        inclusive time and calls (spans entered from another layer), sizes,
        errors by (span name, exception name), and the total time of root
        spans."""
        spans = self.spans
        child = [0] * len(spans)
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        s = {
            "incl": defaultdict(float), "calls": Counter(),
            "self": defaultdict(float), "layer_self": defaultdict(float),
            "size": Counter(), "size2": Counter(), "errors": Counter(),
            "layer_incl": defaultdict(float), "layer_calls": Counter(),
            "root_s": 0.0,
        }
        for i, (name, t0, t1, parent, outer, err, size, size2) in enumerate(
                spans):
            dur = (t1 - t0) / 1e9
            s["self"][name] += dur - child[i] / 1e9
            layer = name.split(".", 1)[0]
            s["layer_self"][layer] += dur - child[i] / 1e9
            if parent < 0:
                s["root_s"] += dur
            if parent < 0 or not spans[parent][0].startswith(layer + "."):
                s["layer_incl"][layer] += dur
                s["layer_calls"][layer] += 1
            if outer:
                s["incl"][SHARED_KEYS.get(name, name)] += dur
                s["calls"][name] += 1
                s["size"][name] += size
                s["size2"][name] += size2
                if err is not None:
                    s["errors"][name, err] += 1
        return s

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\touter"
                     "\terror\tsize\tsize2\n")
            for i, (name, t0, t1, parent, outer, err, size, size2) in \
                    enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0}\t{t1}\t{parent}\t{int(outer)}"
                         f"\t{err or ''}\t{size}\t{size2}\n")
