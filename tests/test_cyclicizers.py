import numpy as np
import pytest

from noncyclic import groups as G
from noncyclic.cyclicizers import (_bit_matrix, _bit_rows, central_cosets,
                                   cyclicizer, cyclicizer_of_set,
                                   cyclicizer_table, is_tidy,
                                   maximal_cyclic_subgroups, prime_graph,
                                   quotient_by_central,
                                   quotient_by_cyclicizer,
                                   quotient_pair_matrix)
from noncyclic.errors import EmptySet, VerificationFailure
from noncyclic.harness import HOMOCYCLIC_REQUIRED, Catalog

import oracles


def build(expr):
    return G.build(G.parse_group_expr(expr))


def labels_of(group, indices):
    return sorted(group.labels[i] for i in indices)


def test_z2xz4_cyclicizer_of_0_2():
    h = build("Z2xZ4")
    got = labels_of(h, cyclicizer(h, h.labels.index("(0,2)")))
    assert got == sorted(["(0,0)", "(0,1)", "(0,2)", "(0,3)", "(1,1)", "(1,3)"])


def test_identity_cyclicizer_in_cyclic_group():
    g = build("Z12")
    assert cyclicizer(g, 0) == tuple(range(12))


def test_q8_cyclicizer_of_a():
    q8 = build("Q8")
    a = q8.labels.index("a")
    got = cyclicizer(q8, a)
    assert got == tuple(sorted(oracles.naive_cyclicizer(q8, a)))
    assert labels_of(q8, got) == sorted(["e", "a", "a2", "a3"])


def test_cyclicizer_of_set():
    h = build("Z2xZ4")
    assert cyclicizer_of_set(h, [0]) == cyclicizer(h, 0)
    # simultaneous cyclicizer of the whole group is trivial here: this is a
    # non-cyclic 2-group, so only the identity is compatible with everyone
    assert cyclicizer_of_set(h, range(8)) == (0,)
    q8 = build("Q8")
    assert labels_of(q8, cyclicizer_of_set(q8, range(8))) == ["a2", "e"]
    with pytest.raises(EmptySet):
        cyclicizer_of_set(h, [])


def test_cyc_group_against_oracle():
    for expr in ["Z2xZ4", "Q8", "S3", "D8", "Q8xZ3"]:
        g = build(expr)
        table = cyclicizer_table(g)
        expected = set(range(g.order))
        for x in range(g.order):
            expected &= set(oracles.naive_cyclicizer(g, x))
        assert set(table.cyc_members()) == expected


def test_maximal_cyclic_counts():
    assert len(maximal_cyclic_subgroups(build("Z12"))) == 1
    q8 = build("Q8")
    maximal = maximal_cyclic_subgroups(q8)
    assert len(maximal) == 3
    assert all(m.order == 4 for m in maximal)
    s3 = build("S3")
    assert len(maximal_cyclic_subgroups(s3)) == 4
    # oracle agreement on membership sets
    assert {frozenset(m.members) for m in maximal_cyclic_subgroups(s3)} \
        == oracles.naive_maximal_cyclic(s3)


def test_maximal_cyclic_ordering_and_generators():
    g = build("S3")
    table = cyclicizer_table(g)
    sizes = [m.size for m in table.maximal]
    assert sizes == sorted(sizes, reverse=True)
    for m in table.maximal:
        assert g.elem_orders[m.generator] == m.size
        assert g.generated_cyclic_bits(m.generator) == m.bits


def test_maximal_cyclic_match_naive_oracle_on_catalog():
    for entry in Catalog.default(max_order=64).entries:
        g = G.build(entry.spec)
        maximal = cyclicizer_table(g).maximal
        assert {frozenset(m.members()) for m in maximal} \
            == oracles.naive_maximal_cyclic(g), entry.label
        assert [(-m.size, m.generator) for m in maximal] \
            == sorted((-m.size, m.generator) for m in maximal)
        for m in maximal:
            assert m.generator == min(x for x in m.members()
                                      if g.elem_orders[x] == m.size)


def test_maximal_cyclic_cover_and_core():
    for expr in ["Q8", "S3", "Z2xZ4", "D12"]:
        g = build(expr)
        table = cyclicizer_table(g)
        union = 0
        inter = (1 << g.order) - 1
        for m in table.maximal:
            union |= m.bits
            inter &= m.bits
        assert union == (1 << g.order) - 1
        assert inter & ~table.cyc_bits == 0


def test_tidiness():
    assert is_tidy(build("EA(3,2)")).is_tidy          # prime exponent
    assert is_tidy(build("EA(2,3)")).is_tidy
    res = is_tidy(build("Z2xZ4"))
    assert not res.is_tidy
    h = build("Z2xZ4")
    assert h.labels[res.witness] == "(0,2)"
    a, b = res.violating_pair
    bits = h.pair_rows[res.witness]
    assert (bits >> a) & 1 and (bits >> b) & 1
    assert not (bits >> h.mult(a, b)) & 1
    assert not is_tidy(build("Z4xZ4")).is_tidy


def test_tidiness_matches_element_loop():
    """is_tidy, testing each distinct cyclicizer once, returns what the
    loop over every element and every product of its cyclicizer returns."""
    groups = [G.build(e.spec) for e in Catalog.default(max_order=64).entries]
    groups += [G.build(G.direct_product([G.cyclic(p ** m)] * n))
               for p, m, n in HOMOCYCLIC_REQUIRED]
    groups += [build("S5"), build("S6")]
    untidy = 0
    for g in groups:
        res = is_tidy(g)
        assert (res.is_tidy, res.witness, res.violating_pair) == \
            oracles.loop_is_tidy(g), g.label
        untidy += not res.is_tidy
    assert untidy > 50 and len(groups) - untidy > 50


def test_distinct_rows_partition_the_cyclicizers(catalog_groups):
    """Row row_of[x] of the distinct matrix is Cyc(x), no row repeats, and
    the rows come in order of their least element."""
    for entry, g in catalog_groups:
        table = cyclicizer_table(g)
        rows, row_of = table.distinct
        assert _bit_rows(rows[row_of]) == table.rows, entry.label
        assert len(np.unique(rows, axis=0)) == len(rows), entry.label
        ids, firsts = np.unique(row_of, return_index=True)
        assert np.array_equal(ids, np.arange(len(rows))), entry.label
        assert (np.diff(firsts) > 0).all(), entry.label
        assert not (rows.flags.writeable or row_of.flags.writeable)
        assert table.distinct is table.distinct


def test_prime_graph():
    pg = prime_graph(build("Z6"))
    assert pg.primes == (2, 3)
    assert pg.edges == ((2, 3),)
    assert pg.component_count == 1
    pg = prime_graph(build("S3"))
    assert pg.edges == ()
    assert pg.component_count == 2
    pg = prime_graph(build("A5"))
    assert pg.primes == (2, 3, 5)
    assert pg.edges == ()
    assert pg.component_count == 3
    pg = prime_graph(build("S5"))
    assert pg.edges == ((2, 3),)
    assert pg.component_count == 2


def test_coset_union_property():
    for expr in ["Q8", "Q8xZ3", "S3xZ5"]:
        g = build(expr)
        table = cyclicizer_table(g)
        cyc = table.cyc_members()
        for x in range(g.order):
            row = set(table.cyc_of(x))
            assert len(row) % len(cyc) == 0
            for y in list(row):
                coset = {g.mult(y, c) for c in cyc}
                assert coset <= row


def test_quotient_by_cyclicizer():
    q8 = build("Q8")
    quo = quotient_by_cyclicizer(q8)
    assert quo.group.order == 4
    assert sorted(quo.group.elem_orders) == [1, 2, 2, 2]
    assert cyclicizer_table(quo.group).cyc_size == 1
    # element cyclicizers project to coset cyclicizers
    table = cyclicizer_table(q8)
    qtable = cyclicizer_table(quo.group)
    for qi, rep in enumerate(quo.reps):
        image = {quo.coset_of[y] for y in table.cyc_of(rep)}
        assert image == set(qtable.cyc_of(qi))


def test_quotient_by_non_central_subgroup_raises():
    s4 = build("S4")
    cyc4 = G.subgroup_generated(s4, [s4.labels.index("(1 2 3 4)")])
    with pytest.raises(VerificationFailure, match="not central"):
        quotient_by_central(s4, cyc4.members)
    # normal but not central: the Klein four-group
    v4 = G.subgroup_generated(s4, [s4.labels.index("(1 2)(3 4)"),
                                   s4.labels.index("(1 3)(2 4)")])
    assert v4.order == 4
    with pytest.raises(VerificationFailure, match="not central"):
        quotient_by_central(s4, v4.members)


def test_quotient_by_non_subgroup_raises():
    # the translates of {0, 1} tile Z4, so only closure rules it out
    for expr in ("Z4", "Z2xZ4"):
        with pytest.raises(VerificationFailure, match="not a subgroup"):
            quotient_by_central(build(expr), [0, 1])
    # two members cover it by their powers; only their product leaves it
    with pytest.raises(VerificationFailure, match="not a subgroup"):
        quotient_by_central(build("Z2xZ2"), [0, 1, 2])


def test_quotient_s3xz5():
    g = build("S3xZ5")
    table = cyclicizer_table(g)
    assert table.cyc_size == 5  # the coprime cyclic factor
    quo = quotient_by_cyclicizer(g)
    assert quo.group.order == 6
    assert sorted(quo.group.elem_orders) == [1, 2, 2, 2, 3, 3]


def test_quotients_match_loop_oracle_on_catalog(catalog_groups):
    """The quotients that quotient_cyc_trivial forms, by a non-trivial Cyc(G)
    and by a proper non-trivial Z(G), equal the coset loop's, and each
    quotient table passes the exact group check."""
    formed = 0
    for entry, g in catalog_groups:
        cyc, z = cyclicizer_table(g).cyc_members(), G.center(g).members
        for members in ([cyc] if len(cyc) > 1 else []) + \
                ([z] if 1 < len(z) < g.order else []):
            quo = quotient_by_central(g, members)
            reps, coset_of, table, labels = oracles.loop_quotient(g, members)
            assert (quo.reps, quo.coset_of) == (reps, coset_of), entry.label
            assert np.array_equal(quo.group.np_table(), table), entry.label
            assert quo.group.labels == labels, entry.label
            quo.group.validate_full()
            formed += 1
    assert formed > 1000


def test_quotient_pair_matrix_matches_quotient_groups(catalog_groups):
    """The cyclicizer rows of G/N read off G's cyclicizer matrix and the
    coset table equal those that the quotient group's own power walk
    finds, for N a non-trivial Cyc(G) and a proper non-trivial Z(G)."""
    formed = 0
    for entry, g in catalog_groups:
        cyc, z = cyclicizer_table(g).cyc_members(), G.center(g).members
        matrix, row_of = _bit_matrix(g.pair_rows), np.arange(g.order)
        for members in ([cyc] if len(cyc) > 1 else []) + \
                ([z] if 1 < len(z) < g.order else []):
            quo = quotient_by_central(g, members)
            pairs = quotient_pair_matrix(matrix, row_of,
                                         central_cosets(g, list(members)))
            assert _bit_rows(pairs) == cyclicizer_table(quo.group).rows, \
                entry.label
            formed += 1
    assert formed > 1000


def test_central_cosets_of_a_cyclic_group(catalog_groups):
    """Cyc(G) = G for a cyclic group, whose one coset is returned without
    the general gather; the result is the gather's."""
    cyclic = [(e, g) for e, g in catalog_groups if G.is_cyclic_group(g)]
    assert len(cyclic) >= 200
    for entry, g in cyclic:
        m = cyclicizer_table(g).cyc_members()
        assert m == tuple(range(g.order)), entry.label
        t = g.np_table()
        want = t[np.ix_(np.unique(t[:, m].min(axis=1)), m)]
        got = central_cosets(g, m)
        assert got.dtype == want.dtype and np.array_equal(got, want), \
            entry.label


def test_table_json_shape():
    table = cyclicizer_table(build("Q8"))
    doc = table.to_json_dict()
    assert doc["order"] == 8
    assert doc["cyc_G"] == [0, 2]
    assert len(doc["cyc_of"]) == 8
    assert all(set(m) == {"generator", "members"}
               for m in doc["maximal_cyclic"])
