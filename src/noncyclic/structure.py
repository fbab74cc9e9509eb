"""Structural predicates on finite groups.

Sylow normality, nilpotency, abelian types and the two families with
regular non-cyclic graphs are read off the group's census of element
orders, ``Group.order_counts``. The recognizers for the small standard
families (dihedral, generalized quaternion, semidihedral, the modular
p-groups) test their presentations on the Cayley table.
"""

from __future__ import annotations

from itertools import accumulate
from math import log
from typing import Optional

import numpy as np

from .cyclicizers import cyclicizer_table
from .errors import InvalidParameter
from .groups import (Group, _is_prime, _presentation, center, dihedral,
                     generalized_quaternion, modular_pgroup,
                     prime_factorization, semidihedral)


def is_abelian(group: Group) -> bool:
    return center(group).order == group.order


def p_part(order: int, p: int) -> int:
    out = 1
    while order % p == 0:
        order //= p
        out *= p
    return out


def pgroup_parameters(group: Group) -> Optional[tuple[int, int]]:
    """(p, e) when |G| = p^e for a prime p, else None."""
    fac = prime_factorization(group.order)
    return fac[0] if len(fac) == 1 else None


def _ppower_counts(group: Group, p: int) -> dict[int, int]:
    """{p^k: number of elements of order p^k} off the census, by ascending
    order: the element orders dividing |G|_p, as every order divides |G|.
    The orders present are 1, p, ..., p^t, each p-th power of an element of
    order p^(k+1) having order p^k. Raises InvalidParameter unless p is
    prime."""
    if not _is_prime(p):
        raise InvalidParameter(f"not a prime: {p}")
    size = p_part(group.order, p)
    return {o: c for o, c in group.order_counts.items() if size % o == 0}


def sylow_members(group: Group, p: int) -> Optional[tuple]:
    """Members of the normal Sylow p-subgroup, the set of p-elements, when
    the census counts exactly |G|_p of them, else None. Each Sylow
    p-subgroup holds |G|_p p-elements, so it is then that whole set, the
    only one; and a normal Sylow p-subgroup holds every p-element. The
    count decides; members are listed only for a normal Sylow subgroup."""
    ppowers = _ppower_counts(group, p)
    if sum(ppowers.values()) != p_part(group.order, p):
        return None
    orders = group.elem_orders
    return tuple(x for x in range(group.order) if orders[x] in ppowers)


def is_nilpotent(group: Group) -> bool:
    """A finite group is nilpotent iff each of its Sylow subgroups is
    normal, that is iff for each prime p it has exactly |G|_p elements of
    p-power order (see ``sylow_members``), which the census counts."""
    return all(sum(_ppower_counts(group, p).values()) == p ** e
               for p, e in prime_factorization(group.order))


def sylow_decomposition(group: Group) -> Optional[dict[int, tuple]]:
    """{p: ``sylow_members(group, p)``} for every prime divisor of a
    nilpotent group, the direct product of these normal Sylow subgroups,
    else None. Not cached: ``harness.profile_of`` calls it once per entry."""
    if not is_nilpotent(group):
        return None
    return {p: sylow_members(group, p)
            for p, _ in prime_factorization(group.order)}


def abelian_ptype(group: Group, p: int) -> list[int]:
    """Partition (descending) of the p-part of an abelian group. If m_j of
    its parts have size at least j, then c_k = #{x : x^(p^k) = e}, a running
    sum of the census's p-power counts, is p^(m_1 + ... + m_k): so
    m_k = log_p(c_k / c_(k-1))."""
    c = list(accumulate(_ppower_counts(group, p).values()))
    at_least = [round(log(b / a, p)) for a, b in zip(c, c[1:])]
    return [sum(1 for m in at_least if m > i)
            for i in range(max(at_least, default=0))]


def _presented_by(group: Group, make, *params) -> bool:
    """True when ``make(*params)`` is a valid spec of a metacyclic family
    and the group is that family's group: |G| = m*p, and some a of order m
    and x outside <a> satisfy x^p = a^s and x a x^-1 = a^u, for the
    family's presentation (m, p, u, s). Such a and x generate G, which is
    then a quotient of the presented group of the same order. One a per
    cyclic subgroup suffices: for a' = a^k with gcd(k, m) = 1, both
    relations hold for a' iff they hold for a, as s is 0 or m/2."""
    try:
        spec = make(*params)
    except InvalidParameter:
        return False
    m, p, u, s = _presentation(spec.kind, spec.params)
    n = group.order
    gens = [g for g, _ in group.cyclic_subgroups if group.elem_orders[g] == m]
    if n != m * p or not gens:
        return False
    t = group.np_table()
    idx = np.arange(n)
    xp = idx
    for _ in range(p - 1):
        xp = t[xp, idx]
    inv = np.asarray(group.inverses)
    flat = group._flat
    for g in gens:
        powers = [0, g]
        while len(powers) < m:
            powers.append(flat[powers[-1] * n + g])
        # u != 1 mod m in every family, so x a x^-1 = a^u puts x outside <a>
        if ((xp == powers[s]) & (t[t[:, g], inv] == powers[u])).any():
            return True
    return False


def is_generalized_quaternion(group: Group) -> bool:
    return _presented_by(group, generalized_quaternion, group.order)


def dihedral_parameter(group: Group) -> Optional[int]:
    """n when the group is dihedral of order 2n (n >= 3), else None."""
    if _presented_by(group, dihedral, group.order):
        return group.order // 2
    return None


def semidihedral_parameter(group: Group) -> Optional[int]:
    """m when the group is semidihedral of order 2^m (m >= 4), else None."""
    m = group.order.bit_length() - 1
    return m if _presented_by(group, semidihedral, m) else None


def modular_parameters(group: Group) -> Optional[tuple[int, int]]:
    """(p, n) when the group is the modular p-group of order p^n (n >= 3)
    that ``groups.modular_pgroup(p, n)`` builds, else None."""
    pe = pgroup_parameters(group)
    if pe is not None and _presented_by(group, modular_pgroup, *pe):
        return pe
    return None


def _abelian_types(group: Group) -> Optional[dict[int, list[int]]]:
    """{p: ``abelian_ptype(group, p)``} over the prime divisors of an
    abelian group, else None."""
    if not is_abelian(group):
        return None
    return {p: abelian_ptype(group, p)
            for p, _ in prime_factorization(group.order)}


def homocyclic_parameters(group: Group) -> Optional[tuple[int, int, int]]:
    """(p, m, n) when the group is the direct sum of n copies of Z_{p^m}."""
    types = pgroup_parameters(group) and _abelian_types(group)
    if not types:
        return None
    (p, partition), = types.items()
    return ((p, partition[0], len(partition)) if len(set(partition)) == 1
            else None)


def regular_family(group: Group) -> Optional[tuple]:
    """Classify membership in the two families whose non-cyclic graphs are
    regular: ("Q8", n) for Q8 x Z_n with n odd, ("P", p, m, n) for P x Z_n
    with P non-cyclic of prime exponent p, |P| = p^m, gcd(n, p) = 1.

    Returns None for cyclic groups and for groups outside both families.
    In a nilpotent group the Sylow p-subgroup, of order p^e, is the set of
    p-elements, so the census decides: it is cyclic iff some element has
    order p^e, of prime exponent iff its p-power orders lie in {1, p}, and
    Q8 iff p = 2, e = 3 and G has one involution (a non-cyclic 2-group with
    a unique involution is generalized quaternion).
    """
    if not is_nilpotent(group):
        return None
    counts = group.order_counts
    noncyclic = [(p, e) for p, e in prime_factorization(group.order)
                 if p ** e not in counts]
    if len(noncyclic) != 1:
        return None
    (p, e), = noncyclic
    cof = group.order // p ** e
    if set(_ppower_counts(group, p)) <= {1, p}:
        return ("P", p, e, cof)
    if p == 2 and e == 3 and counts.get(2) == 1:
        return ("Q8", cof)
    return None


def goor_parameters(group: Group) -> Optional[tuple[int, int, int]]:
    """(p, m, n) when the group is P x Z_n with P non-cyclic of prime
    exponent p, |P| = p^m, m > 1, gcd(n, p) = 1."""
    fam = regular_family(group)
    if fam is None or fam[0] != "P":
        return None
    _, p, m, n = fam
    if m < 2:
        return None
    return (p, m, n)


def two_kind_abelian_family(group: Group) -> bool:
    """True when the group is Z_m + (Z_{p^2})^n with n > 1, gcd(m, p) = 1."""
    types = _abelian_types(group)
    noncyclic = [part for part in (types or {}).values() if len(part) > 1]
    return len(noncyclic) == 1 and set(noncyclic[0]) == {2}


def self_cyclicizer_orders(group: Group) -> tuple:
    """Sorted set of orders t such that some element x of order t satisfies
    Cyc(x) = <x>, i.e. the orders of the maximal cyclic subgroups."""
    return tuple(sorted({mc.size for mc in cyclicizer_table(group).maximal}))
