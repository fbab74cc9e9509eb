from noncyclic import groups as G
from noncyclic import structure

import oracles


def build(expr):
    return G.build(G.parse_group_expr(expr))


def test_abelian_and_nilpotent():
    assert structure.is_abelian(build("Z2xZ4"))
    assert not structure.is_abelian(build("S3"))
    assert structure.is_nilpotent(build("D8"))
    assert structure.is_nilpotent(build("Q8xZ3"))
    assert not structure.is_nilpotent(build("S3"))
    assert not structure.is_nilpotent(build("A4"))


def test_center_and_abelian_match_transpose_oracle(catalog_groups):
    # the centre from the maximal cyclic generators against the whole
    # table compared with its transpose
    groups = [g for _, g in catalog_groups]
    groups += [build(expr) for expr in ("S5", "S6", "A5xZ2")]
    for g in groups:
        want = oracles.transpose_center(g)
        assert G.center(g).members == want, g.label
        assert structure.is_abelian(g) == (len(want) == g.order), g.label
    assert G.center(groups[-1]).order == 2


def test_sylow_members():
    g = build("Z6xS3")
    s2 = structure.sylow_members(g, 2)
    assert s2 is None  # Sylow 2-subgroups are not normal here
    d12 = build("D12")
    s3 = structure.sylow_members(d12, 3)
    assert s3 is not None and len(s3) == 3


def test_sylow_members_match_closure_oracle(catalog_groups):
    outcomes = set()
    for entry, g in catalog_groups:
        for p, _ in G.prime_factorization(g.order):
            pel = [x for x in range(g.order)
                   if all(q == p for q, _ in
                          G.prime_factorization(g.elem_orders[x]))]
            want = (tuple(pel) if len(pel) == structure.p_part(g.order, p)
                    and oracles.closure(g, pel) == pel else None)
            assert structure.sylow_members(g, p) == want, (entry.label, p)
            outcomes.add(want is None)
    assert outcomes == {False, True}


def test_abelian_type():
    assert structure.abelian_ptype(build("Z2xZ4"), 2) == [2, 1]
    assert structure.abelian_ptype(build("Z4xZ4"), 2) == [2, 2]
    assert structure.abelian_ptype(build("EA(3,2)"), 3) == [1, 1]
    assert structure.abelian_ptype(build("Z8xZ2xZ4"), 2) == [3, 2, 1]


def test_family_recognizers():
    assert structure.is_generalized_quaternion(build("Q8"))
    assert structure.is_generalized_quaternion(build("Q16"))
    assert not structure.is_generalized_quaternion(build("D8"))
    assert structure.dihedral_parameter(build("D12")) == 6
    assert structure.dihedral_parameter(build("S3")) == 3
    assert structure.dihedral_parameter(build("Q8")) is None
    assert structure.semidihedral_parameter(build("H(4)")) == 4
    assert structure.semidihedral_parameter(build("D16")) is None
    assert structure.semidihedral_parameter(build("G(2,4)")) is None
    assert structure.modular_parameters(build("G(3,3)")) == (3, 3)
    assert structure.modular_parameters(build("G(2,4)")) == (2, 4)
    assert structure.modular_parameters(build("H(4)")) is None
    # the order-8 modular presentation collapses to the dihedral group
    assert structure.modular_parameters(build("D8")) == (2, 3)


def test_family_recognizers_match_reference_loops(catalog_groups):
    recognizers = [
        (structure.dihedral_parameter, oracles.loop_dihedral_parameter),
        (structure.semidihedral_parameter,
         oracles.loop_semidihedral_parameter),
        (structure.modular_parameters, oracles.loop_modular_parameters),
        (structure.is_generalized_quaternion,
         oracles.loop_is_generalized_quaternion),
    ]
    hits = [0] * len(recognizers)
    for entry, g in catalog_groups:
        for i, (fast, loop) in enumerate(recognizers):
            got = fast(g)
            assert got == loop(g), (entry.label, fast.__name__)
            hits[i] += bool(got)
    assert all(hits), hits


def test_homocyclic_recognition():
    assert structure.homocyclic_parameters(build("Z4xZ4")) == (2, 2, 2)
    assert structure.homocyclic_parameters(build("EA(3,2)")) == (3, 1, 2)
    assert structure.homocyclic_parameters(build("Z2xZ4")) is None
    assert structure.homocyclic_parameters(build("Z12")) is None


def test_regular_family_q8_rule_matches_quaternion_recognizer(
        catalog_groups):
    """regular_family's involution count names Q8 exactly when the Sylow
    2-subgroup is generalized quaternion, on every nilpotent catalog entry
    of order <= 200 with a Sylow 2-subgroup of order 8, odd cofactor and
    cyclic odd Sylow subgroups (the entries where that rule decides)."""
    verdicts = set()
    for entry, g in catalog_groups:
        if g.order % 16 != 8:
            continue
        dec = structure.sylow_decomposition(g)
        if dec is None or any(not G.Subgroup(g, m).is_cyclic()
                              for p, m in dec.items() if p != 2):
            continue
        fam = structure.regular_family(g)
        quaternion = structure.is_generalized_quaternion(
            G.Subgroup(g, dec[2]).as_group())
        assert (fam is not None and fam[0] == "Q8") == quaternion, entry.label
        verdicts.add(quaternion)
    assert verdicts == {False, True}


def test_regular_family_recognition():
    assert structure.regular_family(build("Q8")) == ("Q8", 1)
    assert structure.regular_family(build("Q8xZ3")) == ("Q8", 3)
    assert structure.regular_family(build("Q8xZ15")) == ("Q8", 15)
    assert structure.regular_family(build("EA(2,3)")) == ("P", 2, 3, 1)
    assert structure.regular_family(build("EA(3,2)xZ2")) == ("P", 3, 2, 2)
    assert structure.regular_family(build("Q16")) is None
    assert structure.regular_family(build("Z2xZ4")) is None
    assert structure.regular_family(build("Q8xZ2")) is None
    assert structure.regular_family(build("S3")) is None


def test_goor_parameters():
    assert structure.goor_parameters(build("EA(2,2)xZ3")) == (2, 2, 3)
    assert structure.goor_parameters(build("EA(5,2)")) == (5, 2, 1)
    assert structure.goor_parameters(build("Z2")) is None
    assert structure.goor_parameters(build("Q8xZ3")) is None


def test_two_kind_abelian_family():
    assert structure.two_kind_abelian_family(build("Z4xZ4"))
    assert structure.two_kind_abelian_family(build("Z4xZ4xZ3"))
    assert structure.two_kind_abelian_family(build("Z9xZ9"))
    assert not structure.two_kind_abelian_family(build("Z2xZ4"))
    assert not structure.two_kind_abelian_family(build("Z8xZ8"))
    assert not structure.two_kind_abelian_family(build("EA(2,3)"))
    assert not structure.two_kind_abelian_family(build("D8"))


def test_self_cyclicizer_orders():
    # in the quaternion group the maximal-order elements cyclicize to
    # their own subgroup only
    assert 4 in structure.self_cyclicizer_orders(build("Q8"))
    assert 8 in structure.self_cyclicizer_orders(build("D16"))


def test_self_cyclicizer_orders_match_pair_row_oracle(catalog_groups):
    for entry, g in catalog_groups:
        assert structure.self_cyclicizer_orders(g) == \
            oracles.pair_row_self_cyclicizer_orders(g), entry.label
