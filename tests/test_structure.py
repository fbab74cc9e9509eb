import os
import subprocess
import sys
from collections import Counter

import pytest

import noncyclic
from noncyclic import groups as G
from noncyclic import structure
from noncyclic.errors import InvalidParameter

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
            want = oracles.closure_sylow_members(g, p)
            assert structure.sylow_members(g, p) == want, (entry.label, p)
            outcomes.add(want is None)
    assert outcomes == {False, True}


def test_census_readers_match_oracles(catalog_groups):
    """On the order-200 catalog: the census is the count of element orders,
    nilpotency agrees with closed Sylow sets, and the regular families and
    abelian types agree with references that walk or recount elements."""
    hits = Counter()
    for entry, g in catalog_groups:
        assert g.order_counts == Counter(g.elem_orders), entry.label
        assert list(g.order_counts) == sorted(g.order_counts), entry.label
        sylows = {p: oracles.closure_sylow_members(g, p)
                  for p, _ in G.prime_factorization(g.order)}
        nilpotent = None not in sylows.values()
        assert structure.is_nilpotent(g) == nilpotent, entry.label
        fam = oracles.walked_regular_family(g, sylows)
        assert structure.regular_family(g) == fam, entry.label
        hits["nilpotent", nilpotent] += 1
        hits["family", fam and fam[0]] += 1
        if structure.is_abelian(g):
            for p in sylows:
                assert (structure.abelian_ptype(g, p)
                        == oracles.recounted_abelian_ptype(g, p)), \
                    (entry.label, p)
                hits["abelian", len(set(structure.abelian_ptype(g, p)))] += 1
    assert set(hits) >= {
        ("nilpotent", True), ("nilpotent", False), ("family", "P"),
        ("family", "Q8"), ("family", None), ("abelian", 1), ("abelian", 2)}


@pytest.mark.parametrize("p", [0, 4])
def test_a_prime_argument_must_be_prime(p):
    g = build("Z2xZ4")
    for reader in (structure.sylow_members, structure.abelian_ptype):
        with pytest.raises(InvalidParameter, match=f"^not a prime: {p}$"):
            reader(g, p)


def test_the_prime_argument_one_is_refused_not_looped_on():
    # dividing out the "prime" 1 never ends, so the check runs apart from
    # the suite, under a timeout
    probe = ("from noncyclic import groups, structure\n"
             "from noncyclic.errors import InvalidParameter\n"
             "g = groups.build(groups.parse_group_expr('Z2xZ4'))\n"
             "for reader in (structure.sylow_members,"
             " structure.abelian_ptype):\n"
             "    try:\n"
             "        reader(g, 1)\n"
             "    except InvalidParameter as exc:\n"
             "        print(exc)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(noncyclic.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=30).stdout
    assert out.splitlines() == ["not a prime: 1"] * 2


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
