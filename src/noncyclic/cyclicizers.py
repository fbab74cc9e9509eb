"""Cyclicizers, maximal cyclic subgroups, tidiness, and the prime graph.

The cyclicizer of x is the set of y such that <x, y> is cyclic; it equals
the union of the cyclic subgroups containing x, which is how the bitset
rows on Group are computed. The group cyclicizer is the intersection of
all element cyclicizers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptySet, VerificationFailure
from .groups import (Group, Subgroup, _escape, center, maximal_generators,
                     prime_factorization)


def _bit_matrix(rows: Sequence[int], n: Optional[int] = None) -> np.ndarray:
    """Boolean len(rows) x n matrix with entry [i, j] = bit j of rows[i]; n
    defaults to len(rows)."""
    n = len(rows) if n is None else n
    width = (n + 7) // 8
    packed = np.frombuffer(
        b"".join([row.to_bytes(width, "little") for row in rows]),
        dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n,
                         bitorder="little").view(bool)


def _bit_rows(matrix: np.ndarray) -> tuple:
    """Int bit rows of a boolean matrix; the inverse of _bit_matrix."""
    return _packed_rows(np.packbits(matrix, axis=1, bitorder="little"))


def _packed_rows(packed: np.ndarray) -> tuple:
    """Int bit rows of a matrix packed little-endian along axis 1."""
    # slices of one bytes object are cheaper than a view per numpy row
    data, width = packed.tobytes(), packed.shape[1]
    if not width:
        return (0,) * len(packed)
    return tuple([int.from_bytes(data[i:i + width], "little")
                  for i in range(0, len(data), width)])


def bits_to_indices(bits: int) -> list[int]:
    out = []
    while bits:
        b = bits & -bits
        out.append(b.bit_length() - 1)
        bits ^= b
    return out


def distinct_rows(bit_rows: Sequence[int]) -> tuple:
    """(rows, row_of), read-only: boolean rows of the distinct bit_rows by
    least index, and bit_rows[x] is rows[row_of[x]]."""
    index: dict[int, int] = {}
    row_of = np.array([index.setdefault(bits, len(index))
                       for bits in bit_rows])
    rows = _bit_matrix(list(index), len(bit_rows))
    rows.flags.writeable = row_of.flags.writeable = False
    return rows, row_of


@dataclass(frozen=True)
class MaximalCyclic:
    """A maximal cyclic subgroup with its designated (smallest) generator."""

    generator: int
    bits: int

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def members(self) -> tuple:
        return tuple(bits_to_indices(self.bits))


@dataclass(frozen=True)
class CyclicizerTable:
    """All cyclicizer data of one group. It holds no reference to the group,
    which memoizes it: a group and its n^2 table then die with their last
    reference instead of waiting for the cyclic garbage collector."""

    rows: tuple          # rows[x] = bitset of Cyc(x)
    cyc_bits: int        # bitset of the group cyclicizer
    maximal: tuple       # MaximalCyclic, ordered by (size desc, generator asc)

    @property
    def cyc_size(self) -> int:
        return self.cyc_bits.bit_count()

    def cyc_members(self) -> tuple:
        return tuple(bits_to_indices(self.cyc_bits))

    def cyc_of(self, x: int) -> tuple:
        return tuple(bits_to_indices(self.rows[x]))

    @cached_property
    def distinct(self) -> tuple:
        """Each distinct Cyc(x) once (``distinct_rows``); the generators of
        one cyclic subgroup share a row."""
        return distinct_rows(self.rows)

    def to_json_dict(self) -> dict:
        return {
            "order": len(self.rows),
            "cyc_G": list(self.cyc_members()),
            "cyc_of": [list(self.cyc_of(x)) for x in range(len(self.rows))],
            "maximal_cyclic": [
                {"generator": m.generator, "members": list(m.members())}
                for m in self.maximal
            ],
        }


def cyclicizer_table(group: Group) -> CyclicizerTable:
    """Compute (and memoize on the group) the full cyclicizer table. <g> is
    maximal cyclic iff Cyc(g) = <g>: every cyclic subgroup containing <g>
    lies in Cyc(g)."""
    if group._cyc_table is not None:
        return group._cyc_table
    rows = group.pair_rows
    inter = reduce(int.__and__, rows)
    maximal = sorted((MaximalCyclic(g, group.generated_cyclic_bits(g))
                      for g in maximal_generators(group)),
                     key=lambda mc: (-mc.size, mc.generator))
    table = CyclicizerTable(tuple(rows), inter, tuple(maximal))
    group._cyc_table = table
    return table


def cyclicizer(group: Group, x: int) -> tuple:
    """Sorted element indices of Cyc(x)."""
    return tuple(bits_to_indices(group.pair_rows[x]))


def cyclicizer_of_set(group: Group, xs: Iterable[int]) -> tuple:
    """Sorted indices of the simultaneous cyclicizer of ``xs``."""
    xs = list(xs)
    if not xs:
        raise EmptySet("cyclicizer of the empty set is undefined")
    rows = group.pair_rows
    return tuple(bits_to_indices(reduce(int.__and__, [rows[x] for x in xs])))


def maximal_cyclic_subgroups(group: Group) -> list[Subgroup]:
    """Maximal cyclic subgroups, deduplicated, (size desc, generator asc)."""
    table = cyclicizer_table(group)
    return [Subgroup(group, m.members()) for m in table.maximal]


@dataclass(frozen=True)
class TidinessResult:
    is_tidy: bool
    witness: Optional[int]              # smallest x whose Cyc(x) is no subgroup
    violating_pair: Optional[tuple]     # first (a, b) with a*b outside Cyc(x)

    def __bool__(self):
        return self.is_tidy


def is_tidy(group: Group) -> TidinessResult:
    """A group is tidy when every cyclicizer is a subgroup. Each distinct
    cyclicizer D is tested once, at its least x: the violating pair is the
    first (a, b) in D x D with a*b outside D (``_escape``)."""
    rows, row_of = cyclicizer_table(group).distinct
    t = group.np_table()
    firsts = np.unique(row_of, return_index=True)[1].tolist()
    for r, x in enumerate(firsts):
        pair = _escape(t, np.flatnonzero(rows[r]))
        if pair is not None:
            return TidinessResult(False, x, pair)
    return TidinessResult(True, None, None)


@dataclass(frozen=True)
class PrimeGraph:
    primes: tuple
    edges: tuple          # (p, q) pairs with p < q
    components: tuple     # tuple of tuples of primes

    @property
    def component_count(self) -> int:
        return len(self.components)


def prime_graph(group: Group) -> PrimeGraph:
    """Prime divisors of |G|, adjacent when an element order is divisible
    by both; the number of connected components is the vertex for several
    order-spectrum arguments."""
    primes = [p for p, _ in prime_factorization(group.order)]
    orders = set(group.elem_orders)
    edges = []
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            if any(o % (p * q) == 0 for o in orders):
                edges.append((p, q))
    parent = {p: p for p in primes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p, q in edges:
        parent[find(p)] = find(q)
    comps: dict[int, list] = {}
    for p in primes:
        comps.setdefault(find(p), []).append(p)
    components = tuple(tuple(sorted(c)) for c in
                       sorted(comps.values(), key=min))
    return PrimeGraph(tuple(primes), tuple(edges), components)


@dataclass(frozen=True)
class Quotient:
    group: Group          # the quotient, identity coset at index 0
    coset_of: tuple       # original element -> quotient index
    reps: tuple           # quotient index -> smallest original element


def central_cosets(group: Group, members) -> np.ndarray:
    """Cosets of the central subgroup with sorted ``members``, one per row
    in ascending order of smallest element; that element is column 0. For
    N = G, the one coset is returned without reading the table."""
    t = group.np_table()
    if len(members) == group.order:
        return np.array([members], dtype=t.dtype)
    return t[np.ix_(np.unique(t[:, members].min(axis=1)), members)]


def check_central(group: Group, members: Iterable[int]) -> None:
    """Raise VerificationFailure unless the sorted ``members`` are a central
    subgroup: they hold the identity, are closed under multiplication
    (``_escape``) and lie in ``center(group)``."""
    members = list(members)
    if 0 not in members:
        raise VerificationFailure("central subgroup must contain the identity")
    if _escape(group.np_table(), members) is not None:
        raise VerificationFailure("members are not a subgroup")
    if not set(members).issubset(center(group).members):
        raise VerificationFailure("subgroup is not central")


def quotient_pair_matrix(rows: np.ndarray, row_of: np.ndarray,
                         cosets: np.ndarray) -> np.ndarray:
    """Pair-cyclicity matrix of G/N, coset i of ``cosets`` at index i, from
    the cyclicizers of G: Cyc(x) is the boolean row rows[row_of[x]]. Every
    cyclic subgroup of G/N is the image <gN> of a cyclic <g>, so <xN, yN>
    is cyclic iff some x' in xN and y' in yN generate a cyclic subgroup:
    entry [i, j] says whether coset j meets the union of the cyclicizers
    of coset i's members, and row i is Cyc(xN)."""
    return _quotient_pairs(rows[:, cosets.T].any(axis=1), row_of, cosets)


def _quotient_pairs(meets: np.ndarray, row_of, cosets) -> np.ndarray:
    """``quotient_pair_matrix`` from ``meets``[r, j]: row r meets coset j."""
    return meets[row_of[cosets]].any(axis=1)


def quotient_by_central(group: Group, members: Iterable[int],
                        label: Optional[str] = None) -> Quotient:
    """Quotient by a central subgroup N, coset i of ``central_cosets`` at
    index i; N is checked exactly, so G/N is a group by construction."""
    mem = sorted(set(members))
    check_central(group, mem)
    t = group.np_table()
    cosets = central_cosets(group, mem)
    reps = cosets[:, 0].tolist()
    coset_of = np.empty(group.order, dtype=np.intc)
    coset_of[cosets] = np.arange(len(reps))[:, None]
    labels = [f"[{group.labels[r]}]" for r in reps]
    q = Group(coset_of[t[np.ix_(reps, reps)]], labels=labels,
              label=label or f"{group.label}/N{len(mem)}", validate=False)
    return Quotient(q, tuple(coset_of.tolist()), tuple(reps))


def quotient_by_cyclicizer(group: Group) -> Quotient:
    table = cyclicizer_table(group)
    return quotient_by_central(group, table.cyc_members(),
                               label=f"{group.label}/cyc")
