import os
import pickle
import random
import tracemalloc
from array import array

import numpy as np
import pytest

from noncyclic import groups as G, harness
from noncyclic.cyclicizers import cyclicizer_table
from noncyclic.errors import (ClosureTooLarge, InvalidCayleyFile,
                              InvalidParameter, NonCyclicError, NotAGroup,
                              OrderTooLarge, ParseError)
from noncyclic.harness import Catalog

import oracles


def build(expr):
    return G.build(G.parse_group_expr(expr))


def test_trivial_group():
    g = build("Z1")
    assert g.order == 1
    assert g.elem_orders == [1]


def test_cyclic_basics():
    g = build("Z6")
    assert G.pi_e(g) == (1, 2, 3, 6)
    assert G.mu(g) == (6,)
    assert G.exponent(g) == 6
    assert g.inverses[1] == 5


def test_quaternion_order_multiset():
    q8 = build("Q8")
    assert sorted(q8.elem_orders) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert sorted(G.center(q8).members) == [0, 2]
    assert G.exponent(q8) == 4


def test_s3_pi_e_mu():
    s3 = build("S3")
    assert G.pi_e(s3) == (1, 2, 3)
    assert G.mu(s3) == (2, 3)


def test_direct_product_structure():
    h = build("Z2xZ4")
    assert h.order == 8
    assert h.labels[0] == "(0,0)"
    assert h.labels.index("(1,1)") == 5
    # mixed radix: leftmost child most significant
    assert h.mult(h.labels.index("(1,1)"), h.labels.index("(0,3)")) \
        == h.labels.index("(1,0)")


@pytest.mark.parametrize("expr", ["Z2xZ4", "Z3xS3", "Q8xZ3", "D8xZ2"])
def test_product_orders_are_lcm(expr):
    spec = G.parse_group_expr(expr)
    g = G.build(spec)
    children = [G.build(c) for c in spec.children]
    n2 = children[1].order
    for i in range(g.order):
        a, b = divmod(i, n2)
        oa = children[0].elem_orders[a]
        ob = children[1].elem_orders[b]
        assert g.elem_orders[i] == oa * ob // __import__("math").gcd(oa, ob)


@pytest.mark.parametrize("expr", [
    "Z12", "Z2xZ4", "D8", "D14", "Q16", "G(2,4)", "G(3,3)", "H(4)",
    "S4", "A4", "Z3xD8", "Z300", "S6",
])
def test_full_validation_per_family(expr):
    build(expr).validate_full()


def test_parameter_constraints():
    with pytest.raises(InvalidParameter):
        G.dihedral(4)          # needs order 2n with n > 2
    with pytest.raises(InvalidParameter):
        G.generalized_quaternion(4)
    with pytest.raises(InvalidParameter):
        G.modular_pgroup(3, 2)
    with pytest.raises(InvalidParameter):
        G.modular_pgroup(4, 3)
    with pytest.raises(InvalidParameter):
        G.semidihedral(3)
    with pytest.raises(InvalidParameter):
        G.elementary_abelian(6, 2)


def test_modular_presentation_relation():
    # x^-1 a x = a^(1+p^(n-2)) with a of order p^(n-1)
    g = G.build(G.modular_pgroup(3, 3))
    a = g.labels.index("a")
    x = g.labels.index("x")
    conj = g.mult(g.mult(g.inverses[x], a), x)
    power = a
    for _ in range(3):
        power = g.mult(power, a)
    assert conj == power  # a^4


def test_subgroup_generated(catalog_groups):
    h = build("Z2xZ4")
    assert G.subgroup_generated(h, set()).members == (0,)
    whole = G.subgroup_generated(h, {h.labels.index("(0,1)"),
                                     h.labels.index("(1,0)")})
    assert whole.order == 8
    s3 = build("S3")
    gens = {s3.labels.index("(1 2)"), s3.labels.index("(1 2 3)")}
    assert G.subgroup_generated(s3, gens).order == 6
    # closure oracle agreement
    for expr in ("S3", "D12", "Q16", "A4xZ2", "perm:5:(1 2 3),(3 4 5)"):
        g = build(expr)
        for gens in ([], [0], [1, 2], [g.order - 1], [1, g.order // 2],
                     list(range(1, g.order, 3))):
            assert list(G.subgroup_generated(g, gens).members) \
                == oracles.closure(g, gens), (expr, gens)
    # and on three seeded random generator sets of each small catalog group
    rng = random.Random(0xC105)
    for entry, g in catalog_groups:
        if g.order > 48:
            continue
        for _ in range(3):
            gens = rng.sample(range(g.order), min(g.order, rng.randint(1, 3)))
            assert list(G.subgroup_generated(g, gens).members) \
                == oracles.closure(g, gens), (entry.label, gens)


def _check_cyclic_data(g):
    orders, invs = oracles.walk_orders_and_inverses(g)
    gen_bits, subgroups, rows = oracles.walk_cyclic_subgroups(g)
    assert g.elem_orders == orders, g.label
    assert g.inverses == invs, g.label
    assert [g.generated_cyclic_bits(x) for x in range(g.order)] == gen_bits, \
        g.label
    assert g.cyclic_subgroups == subgroups, g.label
    assert g.pair_rows == rows, g.label


def test_cyclic_data_matches_walk_oracle_on_catalog():
    for entry in Catalog.default(max_order=64).entries:
        _check_cyclic_data(G.build(entry.spec, label=entry.label))


@pytest.mark.parametrize("expr", ["Z1", "Z199", "Z720", "S5", "A6", "Q128",
                                  "G(3,5)", "EA(2,9)"])
def test_cyclic_data_matches_walk_oracle(expr):
    _check_cyclic_data(build(expr))


def test_is_pair_cyclic_examples():
    h = build("Z2xZ4")
    i02 = h.labels.index("(0,2)")
    assert h.is_pair_cyclic(i02, i02)
    assert h.is_pair_cyclic(i02, h.labels.index("(1,1)"))
    assert not h.is_pair_cyclic(i02, h.labels.index("(1,0)"))


@pytest.mark.parametrize("expr", ["Z2xZ4", "S3", "Q8", "D8"])
def test_pair_cyclic_matches_oracle_and_properties(expr):
    g = build(expr)
    n = g.order
    for x in range(n):
        for y in range(n):
            assert g.is_pair_cyclic(x, y) == oracles.naive_pair_cyclic(g, x, y)
    for x in range(n):
        assert g.is_pair_cyclic(x, x)
        assert g.is_pair_cyclic(x, g.inverses[x])
        for y in range(n):
            assert g.is_pair_cyclic(x, y) == g.is_pair_cyclic(y, x)


@pytest.mark.parametrize("expr", ["Z12", "S4", "Q8xZ3", "D12", "A5"])
def test_mu_divisibility_properties(expr):
    g = build(expr)
    maximal = G.mu(g)
    for o in G.pi_e(g):
        assert any(t % o == 0 for t in maximal)
    for t in maximal:
        assert not any(s != t and s % t == 0 for s in maximal)


def test_center_examples():
    assert len(G.center(build("S3")).members) == 1
    assert len(G.center(build("D8")).members) == 2
    assert len(G.center(build("Z12")).members) == 12


def test_symmetric_identity_first():
    s4 = build("S4")
    assert s4.labels[0] == "e"
    assert s4.order == 24
    a4 = build("A4")
    assert a4.order == 12
    assert all(o in (1, 2, 3) for o in a4.elem_orders)


def test_perm_generators_closure():
    g = build("perm:3:(1 2),(1 2 3)")
    assert g.order == 6
    with pytest.raises(ClosureTooLarge):    # S8: 40320 > 20160 elements
        build("perm:8:(1 2),(1 2 3 4 5 6 7 8)")


@pytest.mark.parametrize("kind, even_only", [("symmetric", False),
                                             ("alternating", True)])
def test_sorted_closures_are_lexicographic(kind, even_only):
    # S7 and A7, past the degrees test_perm_tables_match_loop_oracle builds
    closure = G._perm_closure(7, G._classical_gens(kind, 7))
    assert sorted(closure) == oracles.symmetric_perms(7, even_only=even_only)


@pytest.mark.parametrize("expr, perms", [
    *[(f"S{n}", lambda n=n: oracles.symmetric_perms(n)) for n in range(1, 7)],
    *[(f"A{n}", lambda n=n: oracles.symmetric_perms(n, even_only=True))
      for n in range(1, 7)],
    ("perm:5:(1 2 3),(3 4 5)",
     lambda: oracles.perm_closure(5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])),
    ("perm:8:(1 2)(3 4)(5 6)(7 8),(1 3 5 7)(2 4 6 8)",
     lambda: oracles.perm_closure(8, [(1, 0, 3, 2, 5, 4, 7, 6),
                                      (2, 3, 4, 5, 6, 7, 0, 1)])),
])
def test_perm_tables_match_loop_oracle(expr, perms):
    g = build(expr)
    table, labels = oracles.loop_perm_table(perms())
    assert g.np_table().tolist() == table
    assert list(g.labels) == labels


@pytest.mark.parametrize("expr", ["D8xQ8xZ3", "S4xZ5", "Z2xZ2xZ2"])
def test_build_constructs_one_group(monkeypatch, expr):
    labels = []
    init = G.Group.__init__

    def counted(self, *args, **kwargs):
        labels.append(kwargs.get("label"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(G.Group, "__init__", counted)
    build(expr)
    assert labels == [expr]


@pytest.mark.parametrize("spec", [
    G.cyclic(7), G.dihedral(8), G.symmetric(4),
    G.parse_group_expr("Z2xZ2xZ2"), G.parse_group_expr("D8xQ8xZ3"),
    G.parse_group_expr("S4xZ5"),
    G.direct_product([G.direct_product([G.cyclic(2), G.cyclic(3)]),
                      G.dihedral(8)]),
    G.direct_product([G.modular_pgroup(2, 4)]),
    pytest.param(G.parse_group_expr("perm:4:(1 2 3),(1 2)(3 4)"),
                 id="perm:4"),
], ids=lambda spec: spec.label())
def test_build_makes_one_table_buffer(monkeypatch, spec):
    # the group keeps the table that the outermost _table call returns (it
    # returns last, after its factors' calls) itself, not a copy of it
    made = []
    real = G._table

    def recorded(spec, max_order=None):
        made.append(real(spec, max_order))
        return made[-1]

    want = G.build(spec)
    monkeypatch.setattr(G, "_table", recorded)
    g = G.build(spec)
    assert g.np_table() is made[-1][0]
    assert g.np_table().tolist() == want.np_table().tolist()
    assert g.labels == want.labels


def test_products_match_loop_oracle_on_catalog(catalog_groups):
    products = [(e, g) for e, g in catalog_groups if e.spec.kind == "product"]
    assert len(products) == 1614
    for entry, g in products:
        table, labels = oracles.loop_product(
            [G.build(c) for c in entry.spec.children])
        assert g.np_table().tolist() == table, entry.label
        assert list(g.labels) == labels, entry.label
        assert g.pair_rows == oracles.walk_cyclic_subgroups(g)[2], entry.label


def test_product_factors_are_validated(monkeypatch, tmp_path):
    bad = tmp_path / "bad.cayley"
    # the perturbed Z5 table of test_cayley_file_rejections
    bad.write_text("5\n0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n3 4 1 2 0\n"
                   "4 2 0 1 3\n")
    with pytest.raises(NotAGroup, match="associativity"):
        G.build(G.direct_product([G.cyclic(2), G.cayley_file(str(bad))]))
    # x a x^-1 = a^2 is no automorphism of <a> = Z4
    monkeypatch.setattr(G, "_presentation", lambda kind, params: (4, 2, 2, 0))
    with pytest.raises(NotAGroup):
        build("Z3xD8")


def _metacyclic_presentations(spec):
    """The presentations (m, p, u, s) of the metacyclic factors in ``spec``."""
    if spec.kind == "product":
        return {x for c in spec.children for x in _metacyclic_presentations(c)}
    if spec.kind in ("dihedral", "quaternion", "modular", "semidihedral"):
        return {G._presentation(spec.kind, spec.params)}
    return set()


def test_each_metacyclic_presentation_is_validated_once(monkeypatch):
    entries = Catalog.default(max_order=200).entries
    distinct = set().union(*(_metacyclic_presentations(e.spec)
                             for e in entries))
    validated = []
    real = G._validate_structure

    def counted(t):
        validated.append(t.shape[0])
        real(t)

    monkeypatch.setattr(G, "_validate_structure", counted)
    G._check_presentation.cache_clear()
    for e in entries:
        G.build(e.spec, label=e.label)
    assert len(distinct) == 78
    assert len(validated) == len(distinct)
    assert sorted(validated) == sorted(m * p for m, p, _, _ in distinct)


def test_cayley_file_factor_builds_one_group(monkeypatch, tmp_path):
    path = tmp_path / "s5.cayley"
    G.to_cayley_file(build("S5"), str(path))
    spec = G.direct_product([G.cyclic(2), G.cayley_file(str(path))])
    want = G.build(spec)
    inits = []
    real = G.Group.__init__

    def counted(self, *args, **kwargs):
        inits.append(kwargs.get("label"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(G.Group, "__init__", counted)
    g = G.build(spec)
    assert len(inits) == 1
    assert g.np_table().tolist() == want.np_table().tolist()
    assert g.labels == want.labels == tuple(
        f"({a},{b})" for a in "01" for b in G.from_cayley_file(path).labels)


def test_oversized_cayley_factor_is_refused_by_its_first_line(
        monkeypatch, tmp_path):
    # the bound is checked against the header's n before any body is parsed,
    # and the refusal names the factor's order, as a perm: factor's does
    path = tmp_path / "s5.cayley"
    G.to_cayley_file(build("S5"), str(path))

    def parsed(*args):
        raise AssertionError("the body was parsed")

    monkeypatch.setattr(G, "_parse_rows", parsed)
    spec = G.direct_product([G.cyclic(2), G.cayley_file(str(path))])
    with pytest.raises(OrderTooLarge,
                       match="^order 120 exceeds the maximum order 100$"):
        G.build(spec, max_order=100)


def test_cayley_file_over_the_cap_is_refused_by_its_first_line(tmp_path):
    # from_cayley_file goes through build, whose bound None means 20160
    path = tmp_path / "big.cayley"
    path.write_text("20161\n0 1\n")
    with pytest.raises(OrderTooLarge,
                       match="^order 20161 exceeds the maximum order 20160$"):
        G.from_cayley_file(str(path))


def test_bounded_cayley_build_opens_its_file_once(monkeypatch, tmp_path):
    path = tmp_path / "a4.cayley"
    G.to_cayley_file(build("A4"), str(path))
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(G, "open", counted, raising=False)
    g = G.build(G.cayley_file(str(path)), max_order=12)
    assert opened == [str(path)]
    assert (g.label, g.order) == ("a4.cayley", 12)


def test_escape_matches_row_major_loop():
    # the one closure test of the Sylow, centrality and tidiness checks, on
    # each prime's p-elements, Cyc(G), Z(G), every distinct cyclicizer and
    # three random sets holding 0 of every catalog group of order <= 64
    rng = random.Random(7)
    closed = escaped = 0
    for entry in Catalog.default(max_order=64).entries:
        g = G.build(entry.spec)
        n, orders = g.order, g.elem_orders
        sets = [[x for x in range(n) if all(
                    q == p for q, _ in G.prime_factorization(orders[x]))]
                for p, _ in G.prime_factorization(n)]
        sets += [list(cyclicizer_table(g).cyc_members()),
                 list(G.center(g).members)]
        sets += [[x for x in range(n) if (bits >> x) & 1]
                 for bits in set(g.pair_rows)]
        sets += [[0] + sorted(rng.sample(range(1, n), rng.randrange(n)))
                 for _ in range(3)]
        for members in sets:
            want = oracles.row_major_escape(g, members)
            assert G._escape(g.np_table(), members) == want, (
                entry.label, members)
            closed += want is None
            escaped += want is not None
    assert closed > 1000 and escaped > 500


def test_flat_table_ignores_memory_layout():
    # S4's table read through transposed, strided and wider-typed views
    t = build("S4").np_table()
    want = array("i", t.ravel().tolist())
    for view in (t.T.copy().T, np.repeat(t, 2, axis=1)[:, ::2],
                 np.asfortranarray(t.astype(np.int64)),
                 np.asfortranarray(t.astype(np.uint16))):
        assert not view.flags.c_contiguous
        assert G.Group(view)._flat == want
    assert G.Group(t)._flat == want


def test_cayley_file_text_is_the_plain_format(tmp_path):
    # Z10, Z100 and Z11, Z101 sit on either side of a token-width step
    gs = [build(expr) for expr in ("Z1", "Z10", "Z11", "Z100", "Z101",
                                   "S3", "D12xZ2", "A5")]
    # "a b" and "ab" collide once whitespace is stripped
    gs.append(G.Group(build("Z4").np_table(), labels=["e", "a b", "ab", "c"]))
    path = tmp_path / "g.cayley"
    for g in gs:
        G.to_cayley_file(g, str(path))
        assert path.read_bytes() == oracles.cayley_file_text(g).encode(), g
    assert path.read_text().splitlines()[1] == "e0 e1 e2 e3"


def test_cayley_file_roundtrip(tmp_path):
    s3 = build("S3")
    path = tmp_path / "s3.cayley"
    G.to_cayley_file(s3, str(path))
    back = G.from_cayley_file(str(path))
    assert back.order == 6
    assert back.np_table().tolist() == s3.np_table().tolist()


def test_cayley_file_z3(tmp_path):
    path = tmp_path / "z3.cayley"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    g = G.from_cayley_file(str(path))
    assert g.order == 3
    assert g.elem_orders == [1, 3, 3]


def test_cayley_file_rejections(tmp_path):
    bad = tmp_path / "bad.cayley"
    # Latin square with identity but broken associativity: derived by
    # perturbing the Z5 table while keeping rows and columns permutations
    rows = [
        "0 1 2 3 4",
        "1 0 3 4 2",
        "2 3 4 0 1",
        "3 4 1 2 0",
        "4 2 0 1 3",
    ]
    bad.write_text("5\n" + "\n".join(rows) + "\n")
    with pytest.raises(NotAGroup) as exc:
        G.from_cayley_file(str(bad))
    assert exc.value.triple is not None
    i, j, k = exc.value.triple
    g = [list(map(int, r.split())) for r in rows]
    assert g[g[i][j]][k] != g[i][g[j][k]]

    nonlatin = tmp_path / "nonlatin.cayley"
    nonlatin.write_text("3\n0 1 2\n1 0 2\n2 0 1\n")
    with pytest.raises(NotAGroup):
        G.from_cayley_file(str(nonlatin))

    noidentity = tmp_path / "noident.cayley"
    noidentity.write_text("3\n1 2 0\n2 0 1\n0 1 2\n")
    with pytest.raises(NotAGroup):
        G.from_cayley_file(str(noidentity))

    malformed = tmp_path / "malformed.cayley"
    malformed.write_text("3\n0 1 2\n1 2 0\n")
    with pytest.raises(InvalidCayleyFile):
        G.from_cayley_file(str(malformed))


BAD_BODIES = [
    "0 1 2\n1 2 x\n2 0 1\n",         # non-integer token
    "0 1 2\n1 2\n2 0 1\n",           # short row
    "0 1 2\n1 2 0 1\n2 0 1\n",       # long row
    "0 1\n1 0\n0 1\n",               # every row short
    "0 1 2\n1 2 0 # Z3\n2 0 1\n",    # comments are not part of the format
    "0 1 2\n1 2 0\n",                 # missing row
    "0 1 2\n1 2 0\n2 0 99999999999999999999\n",   # beyond int64
]


@pytest.mark.parametrize("body", BAD_BODIES)
def test_cayley_file_body_rejections(tmp_path, body):
    path = tmp_path / "bad.cayley"
    path.write_text("3\n" + body)
    with pytest.raises(InvalidCayleyFile):
        G.from_cayley_file(str(path))


def test_entries_are_range_checked_before_narrowing(tmp_path):
    # each file is long enough for its intc table to be made: 2^31 - 1 is
    # the largest entry that fits, 2^31 the least that does not, and
    # 2^32 + 1 would narrow to 1; each is out of range before it is narrowed
    wide = tmp_path / "wide.cayley"
    for entry in (2 ** 31 - 1, 2 ** 31, 2 ** 32 + 1, -2 ** 31 - 1):
        wide.write_text(f"2\n0 {entry}\n1 0\n")
        assert os.path.getsize(wide) >= 2 * (2 * 2 - 1)
        for load in (oracles.whole_file_cayley_load, G.from_cayley_file):
            with pytest.raises(NotAGroup, match="table entries out of range"):
                load(str(wide))
    with pytest.raises(NotAGroup):
        G.Group([[0, 1.5], [1.5, 0]])             # truncates to Z2
    with pytest.raises(NotAGroup):
        G.Group([[0, 2 ** 64], [1, 0]])           # does not fit int64


def _cayley_corpus(tmp_path):
    """Cayley files, good and bad, that a loader must read as the whole-file
    reference does."""
    files = {
        "empty": "",
        "blank": "\n  \n",
        "header": "three\n0\n",
        "order0": "0\n",
        "huge": "1000000000\n0\n",
        "wide": "2\n0 4294967297\n1 0\n",
        "labels": "3\na b\n0 1 2\n1 2 0\n2 0 1\n",
        "numeric_labels": "3\n2 0 1\n0 1 2\n1 2 0\n2 0 1\n",
        "crlf": "3\r\n\r\n0\t1 2\r\n\t\r\n1 2\t0\r\n \t \r\n2 0 1\r\n\r\n",
    }
    for i, body in enumerate(BAD_BODIES):
        files[f"body{i}"] = "3\n" + body
    for entry in Catalog.default(max_order=40).entries:
        path = tmp_path / "table.cayley"
        G.to_cayley_file(G.build(entry.spec), str(path))
        text = path.read_text()
        files[entry.label] = text
        head, _, rest = text.partition("\n")
        files[entry.label + "_unlabelled"] = head + "\n" + rest.partition("\n")[2]
    # faults in a late block of Z40, labelled and not
    z40 = files["Z40"].splitlines()
    rows = z40[2:]
    faults = {
        "token": {35: rows[35].replace(" 7 ", " 7x ")},
        "short_last": {39: rows[39].rsplit(" ", 1)[0]},
        "range_then_token": {5: rows[5].replace(" 9 ", " 40 "),
                             30: rows[30].replace(" 9 ", " nine ")},
        "range": {33: rows[33].replace(" 9 ", " -1 ")},
        "non_latin": {20: rows[20].replace(" 9 ", " 8 ")},
        "int32_max": {25: rows[25].replace(" 9 ", f" {2 ** 31 - 1} ")},
        "int32_over": {25: rows[25].replace(" 9 ", f" {2 ** 31} ")},
        "extra_row": {39: rows[39] + "\n" + rows[0]},
        "all_short": {i: r.rsplit(" ", 1)[0] for i, r in enumerate(rows)},
        # the line count comes before a malformed row; unlabelled, the extra
        # row makes line 2 a label line
        "token_and_extra_row": {10: rows[10].replace(" 7 ", " 7x "),
                                39: rows[39] + "\n" + rows[0]},
        # the int64 bounds are entries out of range, one past them malformed
        "int64_max": {25: rows[25].replace(" 9 ", f" {2 ** 63 - 1} ")},
        "int64_min": {25: rows[25].replace(" 9 ", f" {-2 ** 63} ")},
        "int64_over": {25: rows[25].replace(" 9 ", f" {2 ** 63} ")},
    }
    for name, edits in faults.items():
        body = [edits.get(i, r) for i, r in enumerate(rows)]
        files[f"z40_{name}"] = "\n".join(z40[:2] + body) + "\n"
        files[f"z40_{name}_unlabelled"] = "\n".join(z40[:1] + body) + "\n"
    files["z40_short_label"] = "\n".join([z40[0], z40[1].rsplit(" ", 1)[0]]
                                         + rows) + "\n"
    files["z40_row0_token"] = "\n".join(z40[:1] + [rows[0] + "x"]
                                        + rows[1:]) + "\n"
    # the label count comes before a malformed row, and an unlabelled file's
    # row 0, parsed last, before every other row
    files["z40_short_label_token"] = "\n".join(
        [z40[0], z40[1].rsplit(" ", 1)[0]] + rows[:30]
        + [rows[30].replace(" 9 ", " nine ")] + rows[31:]) + "\n"
    files["z40_row0_and_row30_token"] = "\n".join(
        z40[:1] + [rows[0] + "x"] + rows[1:30]
        + [rows[30].replace(" 9 ", " nine ")] + rows[31:]) + "\n"
    paths = []
    for name, text in files.items():
        path = tmp_path / f"{name}.cayley"
        path.write_bytes(text.encode())
        paths.append(path)
    return paths


def _load_outcome(load, path):
    try:
        g = load(str(path))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "triple", None)
    return g.np_table().tolist(), g.labels, g.label


@pytest.mark.parametrize("budget", [1, 100, 1000, None])
def test_cayley_loader_matches_whole_file_reference(monkeypatch, tmp_path,
                                                    budget):
    if budget is not None:
        monkeypatch.setattr(G, "_BLOCK_BYTES", budget)
    kinds = set()
    for path in _cayley_corpus(tmp_path):
        want = _load_outcome(oracles.whole_file_cayley_load, path)
        assert _load_outcome(G.from_cayley_file, path) == want, path.name
        kinds.add(want[0] if isinstance(want[0], type) else "group")
    assert kinds == {"group", InvalidCayleyFile, NotAGroup, OrderTooLarge}


@pytest.mark.parametrize("labelled", [True, False])
def test_cayley_load_peaks_at_twice_the_table(tmp_path, labelled):
    # a fault in the last entry fails only once the whole body is parsed
    loads = {
        None: 720,
        "x": (InvalidCayleyFile, "bad table body: row 719 has an entry that "
                                 "is not a 64-bit integer"),
        "720": (NotAGroup, "table entries out of range"),
    }
    lines = oracles.cayley_file_text(build("S6")).splitlines()
    if not labelled:
        del lines[1]
    warm = tmp_path / "a4.cayley"
    G.to_cayley_file(build("A4"), str(warm))
    G.from_cayley_file(str(warm))
    big = tmp_path / "s6.cayley"
    for fault, want in loads.items():
        last = lines[-1].split()
        if fault is not None:
            last[-1] = fault
        big.write_text("\n".join(lines[:-1] + [" ".join(last)]) + "\n")
        tracemalloc.start()
        try:
            try:
                outcome = G.from_cayley_file(str(big)).order
            except NonCyclicError as exc:
                outcome = (type(exc), str(exc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome == want
        assert peak <= 2 * 720 ** 2 * np.dtype(np.intc).itemsize, fault


def test_huge_header_fails_on_the_line_count(tmp_path):
    # the largest header under the cap of every build: 20160 rows would
    # take 1.5 GiB
    path = tmp_path / "huge.cayley"
    path.write_text("20160\n0\n")
    tracemalloc.start()
    try:
        with pytest.raises(InvalidCayleyFile) as exc:
            G.from_cayley_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "expected 20161 or 20162 non-empty lines, got 2"
    assert peak < 1 << 20


def test_loaded_group_pickles(tmp_path):
    path = tmp_path / "g.cayley"
    G.to_cayley_file(build("S4xZ5"), str(path))
    g = G.from_cayley_file(str(path))
    back = pickle.loads(pickle.dumps(g))
    for attr in ("order", "label", "labels", "elem_orders", "inverses",
                 "pair_rows", "cyclic_subgroups"):
        assert getattr(back, attr) == getattr(g, attr), attr
    assert back.np_table().tolist() == g.np_table().tolist()
    assert back.mult(7, 11) == g.mult(7, 11)


@pytest.mark.parametrize("loaded", [False, True])
def test_unpickled_group_keeps_a_read_only_table(tmp_path, loaded):
    g = build("S4xZ5")
    if loaded:
        path = tmp_path / "g.cayley"
        G.to_cayley_file(g, str(path))
        g = G.from_cayley_file(str(path))
    back = pickle.loads(pickle.dumps(g))
    assert back.np_table().dtype == np.intc
    assert np.array_equal(back.np_table(), g.np_table())
    for h in (g, back):
        with pytest.raises(ValueError):
            h.np_table()[0, 1] = 0
        assert type(h.mult(7, 11)) is int
        assert h._flat.readonly
    assert back.mult(7, 11) == g.mult(7, 11)


def test_np_table_is_read_only_and_callers_tables_are_copied():
    g = build("S3")
    with pytest.raises(ValueError):
        g.np_table()[0, 1] = 0
    t = g.np_table().copy()
    h = G.Group(t)
    t[0, 1] = 0
    assert h.np_table()[0, 1] == g.np_table()[0, 1] == 1


def test_as_group_rejects_unclosed_members():
    s3 = build("S3")
    members = (0, s3.labels.index("(1 2)"), s3.labels.index("(1 3)"))
    with pytest.raises(NotAGroup):
        G.Subgroup(s3, tuple(sorted(members))).as_group()
    center = G.center(build("D8")).as_group()
    assert center.order == 2 and center.labels == ("e", "r2")


def _loop_built_families(max_order):
    """(spec, loop builder) for every D, Q, G(p,n) and H spec of order at
    most ``max_order``."""
    out = [(G.dihedral(n), lambda n=n: oracles.loop_dihedral(n))
           for n in range(6, max_order + 1, 2)]
    out += [(G.generalized_quaternion(2 ** e),
             lambda e=e: oracles.loop_quaternion(2 ** e))
            for e in range(3, max_order.bit_length()) if 2 ** e <= max_order]
    out += [(G.modular_pgroup(p, n),
             lambda p=p, n=n: oracles.loop_two_generator_pgroup(
                 p, n, 1 + p ** (n - 2)))
            for p in range(2, max_order) if G._is_prime(p)
            for n in range(3, max_order.bit_length()) if p ** n <= max_order]
    out += [(G.semidihedral(m),
             lambda m=m: oracles.loop_two_generator_pgroup(2, m, 2 ** (m - 2) - 1))
            for m in range(4, max_order.bit_length()) if 2 ** m <= max_order]
    return out


def test_metacyclic_tables_match_loop_builders():
    families = _loop_built_families(512)
    assert {s.label() for s, _ in families} >= {
        "D6", "D512", "Q8", "Q512", "G(2,9)", "G(3,5)", "G(7,3)", "H(4)",
        "H(9)"}
    for spec, loop in families:
        g = G.build(spec)
        table, labels = loop()
        assert g.np_table().tolist() == table, spec.label()
        assert list(g.labels) == labels, spec.label()


def test_expression_language():
    assert G.parse_group_expr("K(3,3)").label() == "K(3,3)"
    assert G.build(G.parse_group_expr("K(3,3)")).order == 27
    assert G.build(G.parse_group_expr("EA(2,3)")).order == 8
    assert G.parse_group_expr("Z2xZ4xZ3").order() == 24
    with pytest.raises(ParseError):
        G.parse_group_expr("Banana")
    with pytest.raises(ParseError):
        G.parse_group_expr("")
    with pytest.raises(ParseError):
        G.parse_group_expr("Z4x")


def test_labels_parse_back_to_their_specs():
    # the label, the order and the atom read one table: every base spec of
    # the default catalog, the named products and a Cayley file parse back
    specs = harness._base_specs(200) + [
        G.elementary_abelian(2, 3), G.elementary_abelian(3, 1),
        G.cyclic_times_p(3, 3), G.cyclic_times_p(2, 5),
        G.cayley_file("groups/q8.cayley")]
    assert {s.kind for s in specs} >= {
        "cyclic", "product", "dihedral", "quaternion", "modular",
        "semidihedral", "symmetric", "alternating", "cayley"}
    for spec in specs:
        again = G.parse_group_expr(spec.label())
        assert (again, again.label(), again.order()) == (
            spec, spec.label(), spec.order())
    # a permutation group's label is its expression, in cycle notation
    perm = G.parse_group_expr("perm:3:(2 1),(1 2 3),()")
    assert (perm.label(), perm.order()) == ("perm:3:(1 2),(1 2 3),()", None)
    assert G.parse_group_expr(perm.label()) == perm
    assert G.build(perm).label == "perm:3:(1 2),(1 2 3),()"


def test_label_and_order_outside_the_families():
    assert G.GroupSpec("mystery", (5,)).label() == "mystery"
    assert G.GroupSpec("mystery", (5,)).order() is None
    perm = G.perm_group(3, [(1, 0, 2)])
    cayley = G.cayley_file("a.cayley")
    assert perm.order() is None and cayley.order() is None
    for factor in (perm, cayley):
        product = G.direct_product([G.cyclic(2), factor, G.cyclic(3)])
        assert product.order() is None
        assert product.label() == f"Z2x{factor.label()}xZ3"
    # a perm: factor parses back; a cayley: path may hold x, so a cayley:
    # factor is refused by name
    product = G.direct_product([G.cyclic(2), perm, G.cyclic(3)])
    assert G.parse_group_expr(product.label()) == product
    assert G.build(product).order == 12
    with pytest.raises(ParseError, match="cayley: file cannot be a product"):
        G.parse_group_expr(f"Z2x{cayley.label()}")
    assert G.parse_group_expr("cayley:x.cayley") == G.cayley_file("x.cayley")
    assert G.direct_product([G.cyclic(2), G.symmetric(3)]).order() == 12


def _intercalate_swap(t, rng):
    """Swap one 2x2 subsquare ``a b / b a`` of the table ``t`` (lists) to
    ``b a / a b`` off the identity row and column; False when 50 random
    tries find none. The result is still a Latin square with identity 0."""
    n = len(t)
    for _ in range(50):
        r1, r2 = rng.sample(range(1, n), 2)
        c1 = rng.randrange(1, n)
        c2 = t[r1].index(t[r2][c1])
        if c2 != 0 and t[r2][c2] == t[r1][c1]:
            t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
            t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
            return True
    return False


def _assert_triple_fails(t, triple):
    i, j, k = triple
    assert t[t[i][j]][k] != t[i][t[j][k]]


def test_validation_matches_cubic_oracle_on_perturbed_tables():
    rng = random.Random(0xA55C)
    accepted = rejected = 0
    for entry in Catalog.default(max_order=40).entries:
        base = G.build(entry.spec).np_table().tolist()
        if len(base) < 4:
            continue
        for _ in range(4):
            t = [row[:] for row in base]
            if not all(_intercalate_swap(t, rng)
                       for _ in range(rng.randint(1, 2))):
                continue
            expected = oracles.associativity_failure(t)
            try:
                G.Group(t)
            except NotAGroup as exc:
                assert expected is not None, entry.label
                _assert_triple_fails(t, exc.triple)
                rejected += 1
            else:
                assert expected is None, entry.label
                accepted += 1
    assert accepted > 0 and rejected > 0


def _large_perturbed_table():
    t = G.build(G.cyclic(300)).np_table().tolist()
    # 150 has order 2, so rows 7, 157 and columns 11, 161 form an intercalate
    for r in (7, 157):
        t[r][11], t[r][161] = t[r][161], t[r][11]
    return t


def test_large_perturbed_table_is_rejected():
    t = _large_perturbed_table()
    assert oracles.associativity_failure(t) is not None
    with pytest.raises(NotAGroup) as exc:
        G.Group(t)
    _assert_triple_fails(t, exc.value.triple)


def _assert_same_failure(t):
    """Check that ``t`` fails validation as the unblocked reference says;
    return the message, or None for a group. Only validation runs, as the
    power walk of a Group would not end on a table wrongly accepted."""
    expected = oracles.unblocked_validation_failure(t)
    try:
        G._validate_structure(G._as_table(t))
    except NotAGroup as exc:
        assert (str(exc), exc.triple) == expected
        return str(exc)
    assert expected is None
    return None


def _associative_non_latin_tables():
    """Associative tables with identity 0 that are not Latin squares, so
    that Light's test passes every generator it tries: the max-semilattices
    on 2..40 elements and the multiplicative monoids mod 2..40, with 0 and 1
    swapped so that 1 is index 0."""
    tables = [np.maximum.outer(np.arange(n), np.arange(n)).tolist()
              for n in range(2, 41)]
    for m in range(2, 41):
        swap = [1, 0, *range(2, m)]
        tables.append([[swap[a * b % m] for b in swap] for a in swap])
    return tables


@pytest.mark.parametrize("budget", [1, 100, 1000])
def test_blocked_validation_matches_unblocked_reference(monkeypatch, budget):
    monkeypatch.setattr(G, "_BLOCK_BYTES", budget)
    rng = random.Random(0xB10C)
    kinds = set()
    bases = [G.build(entry.spec).np_table().tolist()
             for entry in Catalog.default(max_order=40).entries]
    for base in bases:
        if len(base) < 4:
            continue
        for _ in range(3):
            t = [row[:] for row in base]
            kind = rng.randrange(3)
            if kind == 0:       # still a Latin square with identity 0
                if not _intercalate_swap(t, rng):
                    continue
            elif kind == 1:     # row r repeats an entry: not a Latin square
                r, c = rng.sample(range(1, len(t)), 2)
                t[r][c] = t[r][c - 1]
            else:               # identity broken in column 0
                t[1][0], t[2][0] = t[2][0], t[1][0]
            _assert_same_failure(t)
            kinds.add(kind)
    assert kinds == {0, 1, 2}
    for t in _associative_non_latin_tables():
        _assert_same_failure(t)
    # one entry overwritten, anywhere: in the identity row or column, with
    # the entry it held, or making a table that is no Latin square
    rng = random.Random(0x0E17)
    outcomes = set()
    for base in bases:
        n = len(base)
        for _ in range(2):
            t = [row[:] for row in base]
            r, c = rng.randrange(n), rng.randrange(n)
            t[r][c] = rng.randrange(n)
            outcomes.add(_assert_same_failure(t))
    assert outcomes == {None, "index 0 is not a two-sided identity",
                        "table is not a Latin square"}


def test_groups_validate_without_the_latin_sort(monkeypatch, catalog_groups):
    def refuse(*args):
        raise AssertionError("a group's table was sorted")

    monkeypatch.setattr(G, "_check_latin", refuse)
    groups = [g for _, g in catalog_groups if g.order <= 60]
    for g in groups + [build("S5"), build("S6")]:
        g.validate_full()


def test_non_latin_tables_stop_after_log2_n_generators(monkeypatch):
    tried = []
    real = G._light_failure

    def counted(t, g, *args):
        tried.append(g)
        return real(t, g, *args)

    monkeypatch.setattr(G, "_light_failure", counted)
    # every g passes Light's test and reaches one new element; a group of
    # order 64 needs at most 6 generators, each doubling the reached set
    with pytest.raises(NotAGroup, match="^table is not a Latin square$"):
        G.Group(np.maximum.outer(np.arange(64), np.arange(64)))
    assert len(tried) <= 6, tried


def test_blocked_validation_failures_past_the_first_block(monkeypatch):
    n = 300
    rows = 4
    monkeypatch.setattr(G, "_BLOCK_BYTES", rows * n * np.dtype(np.intc).itemsize)
    t = _large_perturbed_table()
    msg, triple = oracles.unblocked_validation_failure(t)
    assert triple[0] >= rows
    with pytest.raises(NotAGroup) as exc:
        G.Group(t)
    assert (str(exc.value), exc.value.triple) == (msg, triple)

    # two columns past the first block swapped in one row: every row is
    # still a permutation, columns 250 and 251 are not
    t = G.build(G.cyclic(n)).np_table().tolist()
    t[200][250], t[200][251] = t[200][251], t[200][250]
    assert oracles.unblocked_validation_failure(t) == (
        "table is not a Latin square", None)
    with pytest.raises(NotAGroup, match="not a Latin square"):
        G.Group(t)
    # a row past the first block repeats an entry
    t = G.build(G.cyclic(n)).np_table().tolist()
    t[200][250] = t[200][251]
    with pytest.raises(NotAGroup, match="not a Latin square"):
        G.Group(t)
