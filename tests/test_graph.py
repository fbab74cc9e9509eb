import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from noncyclic import groups as G
from noncyclic import canon, structure
from noncyclic.canon import induced_rows, twin_contraction
from noncyclic.cyclicizers import MaximalCyclic, cyclicizer_table
from noncyclic.errors import (Disconnected, GroupIsCyclic, InvalidParameter,
                              VerificationFailure)
from noncyclic.graph import (InvariantReport, NonCyclicGraph, build_graph,
                             clique_and_chromatic, degree_kinds,
                             diameter_info, distance, independence_info,
                             invariant_report, multipartite_profile,
                             omega_bound_info, subgroup_graph, to_dot)

import oracles


def graph_of(expr):
    g = G.build(G.parse_group_expr(expr))
    return build_graph(g)


def graph_on_rows(group, vertices, rows):
    """The NonCyclicGraph whose adjacency is ``rows``: vertices with one row
    are one quotient vertex, by least member."""
    classes = {}
    for v, row in enumerate(rows):
        classes.setdefault(row, []).append(v)
    members = tuple(map(tuple, classes.values()))
    class_of = [0] * len(rows)
    for c, mem in enumerate(members):
        for v in mem:
            class_of[v] = c
    return NonCyclicGraph(group, vertices, tuple(class_of),
                          induced_rows(rows, [m[0] for m in members]), members,
                          tuple(rows[m[0]].bit_count() for m in members))


def test_cyclic_group_has_no_graph():
    with pytest.raises(GroupIsCyclic):
        graph_of("Z6")


def test_klein_group_is_k3():
    k = graph_of("EA(2,2)")
    assert k.n_vertices == 3
    assert all(k.degree(p) == 2 for p in range(3))
    assert diameter_info(k).diameter == 1
    assert multipartite_profile(k) == [1, 1, 1]


def test_z2xz4_graph():
    g = graph_of("Z2xZ4")
    # the group cyclicizer is trivial, so all seven non-identity elements
    # are vertices
    assert g.n_vertices == 7
    census = {g.vertex_label(p): g.degree(p) for p in range(7)}
    assert census == {
        "(0,1)": 4, "(0,2)": 2, "(0,3)": 4,
        "(1,0)": 6, "(1,1)": 4, "(1,2)": 6, "(1,3)": 4,
    }
    multiset, kinds, regular = degree_kinds(g)
    assert multiset == ((2, 1), (4, 4), (6, 2))
    assert kinds == 3 and not regular


@pytest.mark.parametrize("expr", ["Z2xZ4", "S3", "Q8", "D8", "A4"])
def test_degree_identity(expr):
    group = G.build(G.parse_group_expr(expr))
    table = cyclicizer_table(group)
    g = build_graph(group, table)
    for pos, v in enumerate(g.vertices):
        assert g.degree(pos) == group.order - table.rows[v].bit_count()


def test_s3_diameter_2():
    info = diameter_info(graph_of("S3"))
    assert info.diameter == 2


def test_z6xs3_diameter_3_with_witness():
    spec = G.direct_product([G.cyclic(6), G.symmetric(3)], name="Z6xS3")
    group = G.build(spec)
    g = build_graph(group)
    info = diameter_info(g)
    assert info.diameter == 3
    labels = set(info.witness_labels(g))
    assert labels == {"(2,e)", "(3,e)"}
    a = g.vertices.index(group.labels.index("(3,e)"))
    b = g.vertices.index(group.labels.index("(2,e)"))
    assert distance(g, a, b) == 3


def test_diameter_against_bfs_oracle(oracle_graphs):
    seen = set()
    for g in oracle_graphs:
        info = diameter_info(g)
        assert (info.diameter, info.witness, info.eccentricities) == \
            oracles.bfs_diameter(g.adjacency), g.group.label
        seen.add(info.diameter)
    assert seen == {1, 2, 3}


def test_disconnected_graph_raises():
    group = G.build(G.parse_group_expr("S3"))
    # two disjoint edges
    g = graph_on_rows(group, (1, 2, 3, 4), (0b0010, 0b0001, 0b1000, 0b0100))
    assert oracles.bfs_diameter(g.adjacency) is None
    with pytest.raises(Disconnected, match="is not connected"):
        diameter_info(g)


def test_distance_matches_bfs_on_small_catalog_graphs(catalog_graphs):
    # every ordered pair, self-pairs and class mates included
    pairs = mates = 0
    for group, _, g in catalog_graphs:
        if g.n_vertices > 24:
            continue
        for a in range(g.n_vertices):
            want = oracles.bfs_distances(g.adjacency, a)
            got = [distance(g, a, b) for b in range(g.n_vertices)]
            assert got == want, (group.label, a)
            mates += sum(c == g.class_of[a] for c in g.class_of) - 1
        pairs += g.n_vertices ** 2
    assert pairs > 10000 and mates > 1000


def test_distance_rejects_positions_out_of_range():
    g = graph_of("S4")
    n = g.n_vertices
    for a, b in ((0, n), (n, 0), (-1, 0), (0, -1), (-n, 1)):
        with pytest.raises(InvalidParameter, match="out of range"):
            distance(g, a, b)
    assert distance(g, n - 1, 0) == \
        oracles.bfs_distances(g.adjacency, n - 1)[0]


def test_diameter_and_distance_read_q_alone(monkeypatch):
    def expanded(*args):
        raise AssertionError("expanded or contracted")

    monkeypatch.setattr(canon, "twin_contraction", expanded)
    monkeypatch.setattr(NonCyclicGraph, "adjacency", property(expanded))
    for expr in ("S4", "Z6xS3", "G(2,3)xZ2xZ2xZ2xZ3xZ3"):
        g = graph_of(expr)
        info = diameter_info(g)
        s, far = info.witness
        assert distance(g, s, far) == info.diameter, expr
        assert max(distance(g, s, b) for b in range(g.n_vertices)) == \
            info.eccentricities[s] == info.diameter, expr
        mates = max(g.members, key=len)
        assert len(mates) > 1 and distance(g, *mates[:2]) == 2, expr


def _graph_from_edges(n, edges):
    # the group only supplies labels
    group = G.build(G.parse_group_expr("S4"))
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return graph_on_rows(group, tuple(range(n)), tuple(rows))


I2 = ("I", 2, ("v",))
C2 = ("C", 2, ("v",))
# name: (vertex count, edges, quotient size, descriptor of vertex 0's class);
# each graph hits one case of the rule: Q's eccentricity, raised to 2 for
# class mates
QUOTIENT_CASES = {
    # C4 = K(2,2) plus an apex: false twins nested in a true-twin class,
    # whose inner distance 2 beats its quotient eccentricity 1
    "false twins in true twins": (
        5, [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 1), (4, 2), (4, 3)],
        2, ("C", 2, I2)),
    # bowtie: true twins nested in a false-twin class
    "true twins in false twins": (
        5, [(0, 1), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)],
        2, ("I", 2, C2)),
    # bowtie with a tail of two: the quotient eccentricity 3 wins
    "bowtie with a tail": (
        7, [(0, 1), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3), (4, 5), (5, 6)],
        4, ("I", 2, C2)),
    # a path has no twins, so nothing contracts
    "P4": (4, [(0, 1), (1, 2), (2, 3)], 4, ("v",)),
    "single vertex": (1, [], 1, ("v",)),
    # an isolated vertex plus an edge: disconnected
    "isolated vertex and an edge": (3, [(1, 2)], 2, ("v",)),
    # Q is one vertex with two members
    "two isolated vertices": (2, [], 1, I2),
}


@pytest.mark.parametrize("name", list(QUOTIENT_CASES))
def test_quotient_diameter_matches_bfs_oracle(name):
    n, edges, k, desc0 = QUOTIENT_CASES[name]
    g = _graph_from_edges(n, edges)
    qrows, descs, members = twin_contraction(g)
    assert len(qrows) == k
    assert [d for d, m in zip(descs, members) if 0 in m] == [desc0]
    want = oracles.bfs_diameter(g.adjacency)
    if want is None:
        with pytest.raises(Disconnected, match="is not connected"):
            diameter_info(g)
    else:
        info = diameter_info(g)
        assert (info.diameter, info.witness, info.eccentricities) == want


def test_quotient_diameter_on_worst_contracting_large_group():
    g = graph_of("G(2,3)xZ2xZ2xZ2xZ3xZ3")
    assert g.n_vertices == 575
    assert len(twin_contraction(g)[0]) == 279
    info = diameter_info(g)
    assert (info.diameter, info.witness, info.eccentricities) == \
        oracles.bfs_diameter(g.adjacency)


def test_clique_and_chromatic():
    q8 = G.build(G.parse_group_expr("Q8"))
    table = cyclicizer_table(q8)
    g = build_graph(q8, table)
    cc = clique_and_chromatic(g, table)
    assert cc.omega == cc.chi == 3
    assert sorted(g.vertex_label(p) for p in cc.clique) == ["a", "ab", "b"]
    s3 = graph_of("S3")
    assert clique_and_chromatic(s3).omega == 4
    # agreement with exhaustive clique and coloring search
    for expr in ["Q8", "S3", "Z2xZ4", "D8"]:
        g = graph_of(expr)
        cc = clique_and_chromatic(g)
        assert oracles.brute_max_clique(list(g.adjacency)) == cc.omega
        assert oracles.brute_chromatic(list(g.adjacency), cc.omega) == cc.chi


def test_clique_chromatic_prime_squared():
    for p in (2, 3, 5):
        g = graph_of(f"EA({p},2)")
        cc = clique_and_chromatic(g)
        assert cc.omega == cc.chi == p + 1


def test_independence_numbers():
    k3 = graph_of("EA(2,2)")
    info = independence_info(k3)
    assert info.alpha == 1 and not info.mismatch
    q8 = graph_of("Q8")
    info = independence_info(q8)
    assert info.alpha == 4 - 2 == 2
    assert info.brute_value == 2 and not info.mismatch
    h = graph_of("Z2xZ4")
    info = independence_info(h)
    # largest order 4 minus trivial cyclicizer
    assert info.formula_value == 3
    assert info.brute_value == 3 and not info.mismatch
    assert info.alpha == oracles.brute_max_independent(list(h.adjacency))


def test_degree_kinds_families():
    assert degree_kinds(graph_of("Q8xZ3"))[2] is True       # regular
    assert degree_kinds(graph_of("Z4xZ4"))[1] == 2          # two kinds
    multiset, kinds, _ = degree_kinds(graph_of("D8"))
    assert [d for d, _ in multiset] == [4, 6]


def test_multipartite_profiles(oracle_graphs):
    assert multipartite_profile(graph_of("EA(3,2)")) == [2, 2, 2, 2]
    assert multipartite_profile(graph_of("Z2xZ4")) is None
    assert multipartite_profile(graph_of("Q8")) == [2, 2, 2]
    found = Counter()
    for g in oracle_graphs:
        expected = oracles.is_complete_multipartite(list(g.adjacency))
        assert multipartite_profile(g) == expected, g.group.label
        found[expected is None] += 1
    assert found[True] > 0 and found[False] > 0


def test_omega_bounds():
    q8 = G.build(G.parse_group_expr("Q8"))
    info = omega_bound_info(q8)
    assert info.s == 3 and info.index == 4
    assert info.covering_value == 4            # attained with equality
    assert info.index_bound_ok and info.covering_ok
    s3 = G.build(G.parse_group_expr("S3"))
    info = omega_bound_info(s3)
    assert info.s == 4 and info.index == 6
    assert info.covering_value == 9
    assert info.holds
    ea = G.build(G.parse_group_expr("EA(2,2)"))
    info = omega_bound_info(ea)
    assert info.s == 3 and info.index == 4 and info.holds


def test_invariant_report_fields_and_json():
    group = G.build(G.parse_group_expr("Z2xZ4"))
    report = invariant_report(group)
    assert report.order == 8
    assert report.cyc_size == 1
    assert report.vertex_count == 7
    assert report.clique_number == report.chromatic_number == report.s
    assert report.diameter in (1, 2, 3)
    assert report.independence_number >= 1
    assert report.is_regular == (report.kind_degrees == 1)
    doc = json.loads(report.to_json())
    assert list(doc) == list(InvariantReport.csv_header().split(","))
    assert doc["prime_graph_components"] == 1
    row = report.to_csv_row()
    assert str(report.order) in row.split(",")


def test_dot_export():
    g = graph_of("EA(2,2)")
    dot = to_dot(g)
    assert dot.startswith('graph "EA(2,2)" {')
    assert dot.count("--") == 3
    assert '"(0,1)" -- "(1,0)";' in dot


def _doctored_q8(maximal_of):
    """Q8's graph and its cyclicizer table with ``maximal`` replaced by
    ``maximal_of(maximal)``; the maximal cyclic subgroups are <a>, <b> and
    <ab>, and Cyc(Q8) is {e, a2}."""
    q8 = G.build(G.parse_group_expr("Q8"))
    table = cyclicizer_table(q8)
    return build_graph(q8, table), replace(table,
                                           maximal=maximal_of(table.maximal))


def _merged_first_two(maximal):
    first, second, *rest = maximal
    return (MaximalCyclic(first.generator, first.bits | second.bits), second,
            *rest)


CLIQUE_CHROMATIC_FAULTS = {
    # a generator moved into Cyc(G) by a table whose first maximal subgroup
    # is generated by a2
    "generator in Cyc(G)": (
        lambda ms: (MaximalCyclic(2, ms[0].bits), *ms[1:]),
        "maximal cyclic generator sits in the group cyclicizer"),
    # a and a3 generate the same subgroup, so they are not adjacent
    "missing clique edge": (
        lambda ms: (ms[0], MaximalCyclic(3, ms[0].bits), *ms[2:]),
        "clique witness has a missing edge"),
    "uncovered vertex": (
        lambda ms: ms[:-1], "vertex lies in no maximal cyclic subgroup"),
    # <a> and <b> as one colour class: a and b are adjacent
    "improper colouring": (
        _merged_first_two, "coloring is not proper"),
}


@pytest.mark.parametrize("fault", list(CLIQUE_CHROMATIC_FAULTS))
def test_clique_and_chromatic_rejects_doctored_tables(fault):
    maximal_of, message = CLIQUE_CHROMATIC_FAULTS[fault]
    g, table = _doctored_q8(maximal_of)
    assert [g.group.labels[m.generator] for m in cyclicizer_table(
        g.group).maximal] == ["a", "b", "ab"]
    with pytest.raises(VerificationFailure, match=f"^{message}$"):
        clique_and_chromatic(g, table)


def test_independence_witness_with_an_edge_is_rejected():
    h = graph_of("Z2xZ4")
    # the witness is <(0,1)> minus the identity; join (0,1) and (0,2)
    a, b = (h.vertices.index(h.group.labels.index(x))
            for x in ("(0,1)", "(0,2)"))
    rows = list(h.adjacency)
    rows[a] |= 1 << b
    rows[b] |= 1 << a
    doctored = graph_on_rows(h.group, h.vertices, tuple(rows))
    with pytest.raises(VerificationFailure,
                       match="^independence witness has an edge$"):
        independence_info(doctored)


@pytest.fixture(scope="module")
def catalog_graphs(catalog_groups):
    """(group, cyclicizer table, graph) of every non-cyclic catalog group
    of order at most 200."""
    out = []
    for _, group in catalog_groups:
        if not G.is_cyclic_group(group):
            table = cyclicizer_table(group)
            out.append((group, table, build_graph(group, table)))
    return out


def test_graph_invariants_match_oracles_on_catalog(catalog_graphs):
    assert len(catalog_graphs) == 1454
    for group, table, g in catalog_graphs:
        assert twin_contraction(g) == oracles.sorted_twin_contraction(
            g.adjacency), group.label
        cc = clique_and_chromatic(g, table)
        assert cc.omega == cc.chi == len(table.maximal)
        assert (cc.clique, cc.coloring) == \
            oracles.scanned_clique_and_coloring(g, table), group.label
        info = independence_info(g, table)
        witness = oracles.pairwise_independent_witness(g, table)
        assert info.formula_value == len(witness) == \
            max(group.elem_orders) - table.cyc_size
        assert not info.mismatch and info.alpha == info.formula_value
        assert info.witness == witness, group.label
        assert degree_kinds(g)[0] == oracles.recounted_degrees(g.adjacency)
        assert [g.positions[v] for v in g.vertices] == \
            list(range(g.n_vertices))


def test_adjacency_matches_per_vertex_complement(catalog_graphs):
    """The graph built from the distinct cyclicizer rows equals the one
    that complements every vertex's row on its own."""
    assert len(catalog_graphs) == 1454
    for group, table, g in catalog_graphs:
        assert (g.vertices, g.adjacency) == \
            oracles.per_vertex_adjacency(group, table), group.label


def test_vertices_with_one_cyclicizer_share_one_row(catalog_graphs):
    shared = 0
    for group, table, g in catalog_graphs:
        first = {}
        for v, row in zip(g.vertices, g.adjacency):
            assert first.setdefault(table.rows[v], row) is row, group.label
        shared += g.n_vertices - len(first)
    assert shared > 100000


def test_equal_twin_descriptors_are_one_object(catalog_graphs):
    # the profiles keep every quotient until the global checks have run
    seen = {}
    for group, _, g in catalog_graphs:
        for desc in twin_contraction(g)[1]:
            while True:
                assert seen.setdefault(desc, desc) is desc, group.label
                if desc[0] == "v":
                    break
                desc = desc[2]
    assert len(seen) > 400


def test_sylow_subgraph_contraction_matches_oracle(catalog_graphs):
    seen = 0
    for group, table, g in catalog_graphs:
        sylows = structure.sylow_decomposition(group)
        if sylows is None or table.cyc_size != 1 or len(sylows) == 1:
            continue
        for mem in sylows.values():
            rows = induced_rows(g.adjacency,
                                [g.positions[x] for x in mem[1:]])
            assert twin_contraction(rows) == \
                oracles.sorted_twin_contraction(rows), group.label
            # the Sylow graph built from Cyc(x) & P is that subgraph
            sub = subgroup_graph(group, table, mem)
            assert sub.vertices == mem[1:], group.label
            assert twin_contraction(sub) == twin_contraction(rows)
            seen += 1
    assert seen > 100


def _planted_module(rng, depth):
    """(vertex count, edges) of a module of nested twin classes: a lone
    vertex, or two or three sub-modules joined pairwise (true twins) or not
    at all (false twins), some of them equal."""
    if depth == 0 or rng.random() < 0.3:
        return 1, []
    sub = _planted_module(rng, depth - 1)
    parts = [sub if rng.random() < 0.6 else _planted_module(rng, depth - 1)
             for _ in range(rng.randint(2, 3))]
    true_twins = rng.random() < 0.5
    n, edges = 0, []
    for i, (m, inner) in enumerate(parts):
        edges += [(a + n, b + n) for a, b in inner]
        if true_twins:
            edges += [(a, b) for a in range(n) for b in range(n, n + m)]
        n += m
    return n, edges


def planted_twin_graph(seed, k=8, depth=3):
    """Bit rows of a random graph on k modules of nested twin classes,
    with the vertices shuffled."""
    rng = random.Random(seed)
    modules = [_planted_module(rng, depth) for _ in range(k)]
    starts = [sum(m for m, _ in modules[:i]) for i in range(k + 1)]
    edges = [(a + starts[i], b + starts[i])
             for i, (_, inner) in enumerate(modules) for a, b in inner]
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.5:
                edges += [(a, b) for a in range(starts[i], starts[i + 1])
                          for b in range(starts[j], starts[j + 1])]
    perm = list(range(starts[k]))
    rng.shuffle(perm)
    rows = [0] * starts[k]
    for a, b in edges:
        rows[perm[a]] |= 1 << perm[b]
        rows[perm[b]] |= 1 << perm[a]
    return tuple(rows)


def test_planted_twin_contraction_matches_oracle():
    nested = Counter()
    for seed in range(200):
        rows = planted_twin_graph(seed)
        got = twin_contraction(rows)
        assert got == oracles.sorted_twin_contraction(rows), seed
        for desc in got[1]:
            while desc[0] != "v" and desc[2][0] != "v":
                nested[desc[0] + desc[2][0]] += 1
                desc = desc[2]
    # each kind nested in the other; twins of twins of one kind are one
    # class
    assert set(nested) == {"IC", "CI"}
