"""Structural predicates on finite groups.

Everything here is decided directly from the Cayley table at desk scale:
Sylow pieces, nilpotency, abelian types, and recognizers for the small
standard families (dihedral, generalized quaternion, semidihedral, the
modular p-groups, homocyclic abelian groups, and the two families with
regular non-cyclic graphs).
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .cyclicizers import cyclicizer_table
from .errors import InvalidParameter
from .groups import (Group, _escape, _presentation, center, dihedral,
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


def _is_prime_power(n: int) -> Optional[tuple[int, int]]:
    fac = prime_factorization(n)
    if len(fac) == 1:
        return fac[0]
    return None


def pgroup_parameters(group: Group) -> Optional[tuple[int, int]]:
    """(p, e) when |G| = p^e for a prime p, else None."""
    return _is_prime_power(group.order)


def sylow_members(group: Group, p: int) -> Optional[tuple]:
    """Members of the set of p-elements when that set is a subgroup of the
    right size (the normal Sylow p-subgroup), else None."""
    n = group.order
    orders = group.elem_orders
    ppowers = {o for o in set(orders) if p_part(o, p) == o}
    members = [x for x in range(n) if orders[x] in ppowers]
    if (len(members) != p_part(n, p)
            or _escape(group.np_table(), members) is not None):
        return None
    return tuple(members)


def sylow_decomposition(group: Group) -> Optional[Mapping[int, tuple]]:
    """{p: members} for every prime divisor, or None when some set of
    p-elements is not a subgroup (the group is then not nilpotent).
    Memoized on the group as a read-only mapping, or False for None."""
    if group._sylow is None:
        out = {}
        for p, _ in prime_factorization(group.order):
            mem = sylow_members(group, p)
            if mem is None:
                group._sylow = False
                break
            out[p] = mem
        else:
            group._sylow = MappingProxyType(out)
    return None if group._sylow is False else group._sylow


def is_nilpotent(group: Group) -> bool:
    """A finite group is nilpotent iff it is the direct product of its
    Sylow subgroups, i.e. every set of p-elements forms a (normal) subgroup."""
    return sylow_decomposition(group) is not None


def abelian_ptype(group: Group, p: int) -> list[int]:
    """Partition (descending) of the abelian p-part, computed from the
    census c_k = #{x : x^(p^k) = e}."""
    counts = {o: v for o, v in Counter(group.elem_orders).items()
              if p_part(o, p) == o}
    c_prev = 1
    m = []  # m[k-1] = number of parts >= k
    k = 1
    while True:
        c_k = sum(v for o, v in counts.items() if o <= p ** k)
        if c_k == c_prev:
            break
        ratio = c_k // c_prev
        parts_ge_k = 0
        while ratio > 1:
            ratio //= p
            parts_ge_k += 1
        m.append(parts_ge_k)
        c_prev = c_k
        k += 1
    partition = []
    for k, cnt in enumerate(m, start=1):
        nxt = m[k] if k < len(m) else 0
        partition.extend([k] * (cnt - nxt))
    partition.sort(reverse=True)
    return partition


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
    pe = _is_prime_power(group.order)
    if pe is not None and _presented_by(group, modular_pgroup, *pe):
        return pe
    return None


def homocyclic_parameters(group: Group) -> Optional[tuple[int, int, int]]:
    """(p, m, n) when the group is the direct sum of n copies of Z_{p^m}."""
    pe = _is_prime_power(group.order)
    if pe is None or not is_abelian(group):
        return None
    p, e = pe
    partition = abelian_ptype(group, p)
    if not partition or len(set(partition)) != 1:
        return None
    m = partition[0]
    return (p, m, len(partition))


def regular_family(group: Group) -> Optional[tuple]:
    """Classify membership in the two families whose non-cyclic graphs are
    regular: ("Q8", n) for Q8 x Z_n with n odd, ("P", p, m, n) for P x Z_n
    with P non-cyclic of prime exponent p, |P| = p^m, gcd(n, p) = 1.

    Returns None for cyclic groups and for groups outside both families.
    """
    dec = sylow_decomposition(group)
    if dec is None:
        return None
    noncyclic = [(p, members) for p, members in dec.items()
                 if max(group.elem_orders[x] for x in members) < len(members)]
    if len(noncyclic) != 1:
        return None
    p, sylow = noncyclic[0]
    size = len(sylow)
    cof = group.order // size
    orders = {group.elem_orders[x] for x in sylow}
    if orders <= {1, p}:
        return ("P", p, _is_prime_power(size)[1], cof)
    if p == 2 and size == 8 and cof % 2 == 1:
        # a non-cyclic 2-group with a unique involution is generalized
        # quaternion, and the one of order 8 is Q8
        if sum(1 for x in sylow if group.elem_orders[x] == 2) == 1:
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
    if not is_abelian(group):
        return False
    noncyclic = []
    for p, _ in prime_factorization(group.order):
        partition = abelian_ptype(group, p)
        if len(partition) > 1:
            noncyclic.append((p, partition))
    if len(noncyclic) != 1:
        return False
    _, partition = noncyclic[0]
    return len(partition) > 1 and set(partition) == {2}


def self_cyclicizer_orders(group: Group) -> tuple:
    """Sorted set of orders t such that some element x of order t satisfies
    Cyc(x) = <x>, i.e. the orders of the maximal cyclic subgroups."""
    return tuple(sorted({mc.size for mc in cyclicizer_table(group).maximal}))
