from collections import Counter

import pytest

from noncyclic import groups as G
from noncyclic import harness, structure
from noncyclic.canon import canonical_form, induced_rows
from noncyclic.cyclicizers import cyclicizer_table
from noncyclic.graph import build_graph
from noncyclic.harness import Catalog


@pytest.fixture(scope="session")
def oracle_graphs():
    """Every catalog graph of order at most 64, plus Z6 x S3 (diameter 3)
    and the complete graph of EA(2,3) (diameter 1)."""
    groups = [G.build(e.spec) for e in Catalog.default(max_order=64).entries]
    groups.append(G.build(G.direct_product([G.cyclic(6), G.symmetric(3)],
                                           name="Z6xS3")))
    groups.append(G.build(G.parse_group_expr("EA(2,3)")))
    return [build_graph(g) for g in groups if not G.is_cyclic_group(g)]


@pytest.fixture(scope="session")
def catalog_groups():
    """(entry, group) for every entry of the default catalog (order at most
    200), each group built once with its entry's label. Tests share the
    groups, so they must not mutate them."""
    return [(e, G.build(e.spec, label=e.label))
            for e in Catalog.default(max_order=200).entries]


@pytest.fixture(scope="session")
def analyzed_64():
    """``analyze_entry`` of every entry of the default catalog of order at
    most 64. Tests share them, so they must not mutate them."""
    return [harness.analyze_entry(e)
            for e in Catalog.default(max_order=64).entries]


@pytest.fixture(scope="session")
def old_forms(catalog_groups):
    """label -> (certificate, Sylow certificates) of every non-cyclic entry
    of the default catalog, computed as profiles did before forms moved to
    the class phase: a form for every graph and, for a nilpotent group with
    trivial cyclicizer, for every Sylow graph (its graph, for a p-group),
    else None for the Sylow certificates."""
    out = {}
    for entry, group in catalog_groups:
        if G.is_cyclic_group(group):
            continue
        table = cyclicizer_table(group)
        graph = build_graph(group, table)
        cert = canonical_form(graph).certificate
        sylows = structure.sylow_decomposition(group)
        sylow_certs = None
        if sylows is not None and table.cyc_size == 1:
            sylow_certs = tuple(
                (p, cert if len(sylows) == 1 else canonical_form(
                    induced_rows(graph.adjacency, [
                        graph.positions[x] for x in mem[1:]])).certificate)
                for p, mem in sylows.items())
        out[entry.label] = cert, sylow_certs
    return out


@pytest.fixture(scope="session")
def classed_sweep():
    """One run_all(Catalog.default(200)) of every check: its profiles as
    form_classes left them, and the canonical forms the run computed,
    counted by input type."""
    forms = Counter()
    seen = []
    real_form, real_classes = harness.canonical_form, harness.form_classes

    def counted_form(graph_or_rows, **kwargs):
        forms[type(graph_or_rows).__name__] += 1
        return real_form(graph_or_rows, **kwargs)

    def kept_classes(profiles, *args):
        real_classes(profiles, *args)
        seen.append(profiles)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "canonical_form", counted_form)
        mp.setattr(harness, "form_classes", kept_classes)
        results = harness.run_all(Catalog.default(max_order=200))
    assert harness.all_pass(results) and len(seen) == 1
    return seen[0], forms
