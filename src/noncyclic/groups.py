"""Finite groups as identity-rooted Cayley tables, with named constructors.

Elements are indices 0..n-1 and index 0 is always the identity; entry [i, j]
of the n x n table is the index of g_i * g_j. A Group is fully built and
immutable when its constructor returns.
"""

from __future__ import annotations

import os
import re
import stat
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import islice, product as iter_product
from math import factorial, gcd, lcm, prod
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ClosureTooLarge,
    InvalidCayleyFile,
    InvalidParameter,
    NotAGroup,
    OrderTooLarge,
    ParseError,
)

DEFAULT_CLOSURE_CAP = 20160
MAX_SYMMETRIC_DEGREE = 7


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """Return [(p, e), ...] with p ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# Bytes each temporary of a row-blocked array pass may take: the Cayley-file
# parser's rows (8 bytes an entry), the validator's and the writer's. At 256
# KiB they stay small beside an order-720 table (2 MB), and a table of order
# up to 256 is one validation block.
_BLOCK_BYTES = 1 << 18


def _block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes in one block: at most ``_BLOCK_BYTES``
    of them, and at least one row."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _row_blocks(n: int, row_bytes: int) -> Iterator[slice]:
    """Slices covering range(n) in blocks of ``_block_rows(row_bytes)``."""
    step = _block_rows(row_bytes)
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def _as_table(table, keep: bool = False) -> np.ndarray:
    """``table`` checked to be a non-empty square integer matrix with
    entries in 0..n-1, as a C-contiguous intc array: a copy, unless
    ``keep`` and the table already is one."""
    t = np.asarray(table)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise NotAGroup("table must be a non-empty square matrix")
    n = int(t.shape[0])
    if t.dtype.kind not in "iu":
        raise NotAGroup(f"table entries must be integers, not {t.dtype}")
    if int(t.min()) < 0 or int(t.max()) >= n:
        raise NotAGroup("table entries out of range")
    return (np.ascontiguousarray(t, dtype=np.intc) if keep
            else t.astype(np.intc, order="C"))


def _validate_structure(t: np.ndarray) -> None:
    """Raise NotAGroup unless ``t`` is the table of a group with identity 0.

    A group's table is certified without sorting. After the identity check,
    associativity is exact at every order (Light's test): the elements g
    with (x*g)*y == x*(g*y) for all x, y are closed under multiplication,
    so it suffices to test each g not yet reached from the identity by right
    multiplication with the generators that passed, at O(n^2) each; each at
    least doubles a group's reached set, so at most floor(log2 n) are tested.
    Then every row must hold 0: an associative table with identity in which
    each element has a right inverse is a group.

    A table failing any of these is first sorted to check it is a Latin
    square. In a Latin table the passed generators lie in the middle
    nucleus, a group whose subgroups' cosets partition the table, so only a
    mismatch can fail it, naming the first triple in (x, y) order for the
    first failing g. The passes run over row (or column) blocks sized by
    ``_BLOCK_BYTES``, in three scratch arrays made once, as fresh ones would
    be faulted in anew: the memory beside the table is O(block * n).
    """
    n = t.shape[0]
    idx = np.arange(n, dtype=t.dtype)
    if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
        raise NotAGroup("index 0 is not a two-sided identity")
    blocks = list(_row_blocks(n, n * t.itemsize))
    bufs = tuple(np.empty((blocks[0].stop, n), dtype)
                 for dtype in (t.dtype, t.dtype, bool))
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens, error = [], None
    for g in range(1, n):
        if reached[g]:
            continue
        if (len(gens) == n.bit_length() - 1
                or (error := _light_failure(t, g, blocks, bufs))):
            break
        gens.append(g)
        _close(t, reached, gens)
    else:
        if all(np.equal(t[b], 0, out=bufs[2][:b.stop - b.start])
               .any(axis=1).all() for b in blocks):
            return
    _check_latin(t, blocks, bufs)
    raise error


def _light_failure(t: np.ndarray, g: int, blocks: list, bufs: tuple
                   ) -> Optional[NotAGroup]:
    """The error naming the first (x, y) with (x*g)*y != x*(g*y), or None."""
    one, two, bad = bufs
    for b in blocks:
        # entries are in range: mode="clip" only spares take a buffered copy
        k = b.stop - b.start
        lhs = np.take(t, t[b, g], axis=0, out=one[:k], mode="clip")
        rhs = np.take(t[b], t[g], axis=1, out=two[:k], mode="clip")
        diff = np.not_equal(lhs, rhs, out=bad[:k])
        if diff.any():
            x, y = (int(v) for v in np.argwhere(diff)[0] + (b.start, 0))
            return NotAGroup(f"associativity fails at ({x},{g},{y})",
                             triple=(x, g, y))
    return None


def _check_latin(t: np.ndarray, blocks: list, bufs: tuple) -> None:
    """Raise NotAGroup unless each row and column of ``t`` sorts to 0..n-1."""
    n = t.shape[0]
    idx = np.arange(n, dtype=t.dtype)
    one, two = (buf.reshape(-1) for buf in bufs[:2])
    for b in blocks:
        k = b.stop - b.start
        rows, cols = one[:k * n].reshape(k, n), two[:k * n].reshape(n, k)
        rows[...] = t[b]
        cols[...] = t[:, b]
        rows.sort(axis=1)
        cols.sort(axis=0)
        if (np.subtract(rows, idx, out=rows).any()
                or np.subtract(cols, idx[:, None], out=cols).any()):
            raise NotAGroup("table is not a Latin square")


def _close(t: np.ndarray, reached: np.ndarray, gens: Sequence[int]) -> None:
    """Close the element mask ``reached`` under right multiplication by
    ``gens``, in place. From the identity alone this reaches <gens>, since
    in a finite group the monoid a set generates is the subgroup."""
    frontier = np.flatnonzero(reached)
    while frontier.size:
        before = reached.copy()
        reached[t[np.ix_(frontier, gens)]] = True
        frontier = np.flatnonzero(reached > before)


def _escape(table: np.ndarray, members) -> Optional[tuple[int, int]]:
    """The first (a, b) of members x members, in row-major order, whose
    product lies outside ``members``, or None when they are closed under
    multiplication. All of G is closed, so its products are not gathered."""
    inside = np.zeros(table.shape[0], dtype=bool)
    inside[members] = True
    if inside.all():
        return None
    m = np.asarray(members, dtype=np.intp)
    closed = inside[table[np.ix_(m, m)]]
    if closed.all():
        return None
    a, b = np.argwhere(~closed)[0]
    return int(m[a]), int(m[b])


def _check_elements(n: int, *xs: int) -> None:
    """Raise InvalidParameter unless each x is an element index, 0..n-1: a
    negative one would silently wrap around a table or a list."""
    for x in xs:
        if not 0 <= x < n:
            raise InvalidParameter(f"element index out of range: {x}")


class Group:
    """A finite group: Cayley table, labels, element orders and their census
    ``order_counts`` ({order: count}, by ascending order), inverses and
    cyclic subgroups, the last as (smallest generator, member bitset) by
    ascending generator. Row x of ``pair_rows`` has bit y set iff <x, y> is
    cyclic, i.e. x and y lie in a common cyclic subgroup: it is Cyc(x).

    A group keeps its table as one read-only C-contiguous intc array, which
    ``np_table`` returns. A table passed in is range-checked, copied and
    checked exactly. ``validate=False`` hands over a new table instead: the
    group keeps that array itself, range-checked only. Two callers pass
    False: ``build`` (and ``from_cayley_file`` through it), whose tables
    ``_table`` has validated (metacyclic tables, Cayley files) or built as
    groups (cyclic, permutation and product tables), and
    ``quotient_by_central``, whose quotient tables are groups by construction.
    """

    __slots__ = ("order", "label", "labels", "_table", "elem_orders",
                 "order_counts", "inverses", "pair_rows", "_gen_bits",
                 "cyclic_subgroups", "_cyc_table", "_center")

    def __init__(self, table, labels=None, label="G", validate=True):
        t = _as_table(table, keep=not validate)
        n = t.shape[0]
        if labels is None:
            labels = [f"e{i}" for i in range(n)]
        if len(labels) != n:
            raise NotAGroup("need exactly one label per element")
        if validate:
            _validate_structure(t)
        self.order = n
        self.label = label
        self.labels = tuple(str(x) for x in labels)
        t.flags.writeable = False
        self._table = t
        self._walk_cyclic_subgroups()
        self._cyc_table = None
        self._center = None

    def __getstate__(self):
        # the memoized facts are recomputed on demand
        memo = ("_cyc_table", "_center")
        return None, {name: None if name in memo else getattr(self, name)
                      for name in self.__slots__}

    def __setstate__(self, state):
        # (None, slots), as __getstate__ gives; the table unpickles writeable
        for name, value in state[1].items():
            setattr(self, name, value)
        self._table.flags.writeable = False

    @property
    def _flat(self) -> memoryview:
        """The table flat, row major, for Python loops: items are ints."""
        return memoryview(self._table.reshape(-1))

    def _walk_cyclic_subgroups(self) -> None:
        """Walk the powers [e, g, ..., g^(L-1)] of each g, in ascending
        order, that is no power of a smaller element. The power h = g^k has
        order L/gcd(k, L), inverse g^(L-k) and <h> = <g^gcd(k, L)>. Every
        cyclic subgroup lies in a walked <g>, so row x is the union of the
        walked <g> that contain x."""
        n = self.order
        flat = self._flat
        self.elem_orders = orders = [1] + [0] * (n - 1)
        self.inverses = invs = [0] * n
        self._gen_bits = gen_bits = [1] * n
        self.pair_rows = rows = [1] + [0] * (n - 1)
        for g in range(1, n):
            if orders[g]:
                continue
            powers = [0, g]
            x = flat[g * n + g]
            while x:
                powers.append(x)
                x = flat[x * n + g]
            size = len(powers)
            by_gcd = {}
            for k in range(1, size):
                h = powers[k]
                if not orders[h]:
                    d = gcd(k, size)
                    if d not in by_gcd:
                        by_gcd[d] = sum(1 << m for m in powers[::d])
                    orders[h] = size // d
                    invs[h] = powers[size - k]
                    gen_bits[h] = by_gcd[d]
            for m in powers:
                rows[m] |= gen_bits[g]
        first: dict[int, int] = {}
        for g, bits in enumerate(gen_bits):
            first.setdefault(bits, g)
        self.cyclic_subgroups = tuple((g, bits) for bits, g in first.items())
        self.order_counts = dict(sorted(Counter(orders).items()))

    # -- basic queries ----------------------------------------------------

    def mult(self, i: int, j: int) -> int:
        n = self.order
        if not (0 <= i < n and 0 <= j < n):  # inline: loops call mult often
            _check_elements(n, i, j)
        return self._table.item(i, j)

    def np_table(self) -> np.ndarray:
        """The table, read-only: the group's other data are computed from it."""
        return self._table

    def elements(self) -> range:
        return range(self.order)

    def validate_full(self) -> None:
        """Re-run the exact group-axiom check that construction runs."""
        _validate_structure(self._table)

    def generated_cyclic_bits(self, x: int) -> int:
        """Member bitset of <x>."""
        return self._gen_bits[x]

    def is_pair_cyclic(self, x: int, y: int) -> bool:
        """True iff <x, y> is cyclic."""
        _check_elements(self.order, x, y)
        return bool((self.pair_rows[x] >> y) & 1)

    def __repr__(self):
        return f"Group({self.label!r}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member indices in the parent group."""

    parent: Group
    members: tuple

    @property
    def order(self) -> int:
        return len(self.members)

    def is_cyclic(self) -> bool:
        return any(self.parent.elem_orders[m] == len(self.members)
                   for m in self.members)

    def as_group(self, label: Optional[str] = None) -> Group:
        """The subgroup as a group of its own, member i at index i; raises
        NotAGroup when the members are not closed under multiplication."""
        par = self.parent
        members = np.asarray(self.members, dtype=np.intp)
        pos = np.full(par.order, -1, dtype=np.intc)
        pos[members] = np.arange(len(members))
        table = pos[par.np_table()[np.ix_(members, members)]]
        if (table < 0).any():
            raise NotAGroup("members are not closed under multiplication")
        return Group(table, labels=[par.labels[m] for m in self.members],
                     label=label or f"{par.label}|sub{len(members)}")


def subgroup_generated(group: Group, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``gens``."""
    gens = list(gens)
    _check_elements(group.order, *gens)
    reached = np.zeros(group.order, dtype=bool)
    reached[0] = True
    _close(group.np_table(), reached, gens)
    return Subgroup(group, tuple(np.flatnonzero(reached).tolist()))


def is_pair_cyclic(group: Group, x: int, y: int) -> bool:
    return group.is_pair_cyclic(x, y)


def exponent(group: Group) -> int:
    return lcm(*group.order_counts)


def pi_e(group: Group) -> tuple:
    """Sorted set of element orders."""
    return tuple(group.order_counts)


def mu(group: Group) -> tuple:
    """Divisibility-maximal element orders, ascending."""
    pe = group.order_counts
    return tuple(t for t in pe if not any(s != t and s % t == 0 for s in pe))


def maximal_generators(group: Group) -> list:
    """The least generator of each maximal cyclic subgroup, that is of each
    <g> with Cyc(g) = <g>, by ascending g. The maximal cyclic subgroups
    cover G, so these elements generate it."""
    return [g for g, bits in group.cyclic_subgroups
            if group.pair_rows[g] == bits]


def center(group: Group) -> Subgroup:
    """Z(G): the elements that commute with each of
    ``maximal_generators``, which generate G. The members are memoized on
    the group; the subgroup is not, as it refers back to the group."""
    if group._center is None:
        t = group.np_table()
        gens = maximal_generators(group)
        mask = (t[:, gens] == t[gens].T).all(axis=1)
        group._center = tuple(np.flatnonzero(mask).tolist())
    return Subgroup(group, group._center)


def is_cyclic_group(group: Group) -> bool:
    return group.order in group.order_counts


# ---------------------------------------------------------------------------
# Group specifications


@dataclass(frozen=True)
class GroupSpec:
    """Constructor expression describing how to build a group."""

    kind: str
    params: tuple = ()
    children: tuple = ()
    name: Optional[str] = None

    def label(self) -> str:
        """The spec's name, else its family's label format filled with its
        params, its factors' labels joined with x for a product, or its
        kind when no family has it."""
        if self.name is not None:
            return self.name
        if self.kind == "product":
            return "x".join(c.label() for c in self.children)
        family = _FAMILIES.get(self.kind)
        if family is None:
            return self.kind
        fmt = family[0]
        return fmt(*self.params) if callable(fmt) else fmt.format(*self.params)

    def order(self) -> Optional[int]:
        """Group order when it is determined by the spec alone: by its
        family's order rule, or the product of its factors' orders."""
        if self.kind == "product":
            out = 1
            for c in self.children:
                o = c.order()
                if o is None:
                    return None
                out *= o
            return out
        family = _FAMILIES.get(self.kind)
        if family is None or family[1] is None:
            return None
        return family[1](*self.params)


def cyclic(n: int) -> GroupSpec:
    if n < 1:
        raise InvalidParameter("cyclic group order must be >= 1")
    return GroupSpec("cyclic", (n,))


def dihedral(order: int) -> GroupSpec:
    if order % 2 or order // 2 <= 2:
        raise InvalidParameter(
            "dihedral groups here have order 2n with n > 2")
    return GroupSpec("dihedral", (order,))


def generalized_quaternion(order: int) -> GroupSpec:
    if order < 8 or order & (order - 1):
        raise InvalidParameter(
            "generalized quaternion groups have order 2^n with n >= 3")
    return GroupSpec("quaternion", (order,))


def modular_pgroup(p: int, n: int) -> GroupSpec:
    if not _is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    if n < 3:
        raise InvalidParameter("modular p-groups need n >= 3")
    return GroupSpec("modular", (p, n))


def semidihedral(m: int) -> GroupSpec:
    if m < 4:
        raise InvalidParameter("semidihedral groups need m >= 4")
    return GroupSpec("semidihedral", (m,))


def symmetric(n: int) -> GroupSpec:
    if not 1 <= n <= MAX_SYMMETRIC_DEGREE:
        raise InvalidParameter(
            f"symmetric groups supported for degree 1..{MAX_SYMMETRIC_DEGREE}")
    return GroupSpec("symmetric", (n,))


def alternating(n: int) -> GroupSpec:
    if not 1 <= n <= MAX_SYMMETRIC_DEGREE:
        raise InvalidParameter(
            f"alternating groups supported for degree 1..{MAX_SYMMETRIC_DEGREE}")
    return GroupSpec("alternating", (n,))


def direct_product(children: Sequence[GroupSpec],
                   name: Optional[str] = None) -> GroupSpec:
    children = tuple(children)
    if not children:
        raise InvalidParameter("direct product needs at least one factor")
    return GroupSpec("product", (), children, name)


def elementary_abelian(p: int, k: int) -> GroupSpec:
    if not _is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    if k < 1:
        raise InvalidParameter("need k >= 1")
    return direct_product([cyclic(p)] * k, name=_EA.format(p, k))


def cyclic_times_p(p: int, n: int) -> GroupSpec:
    """Z_{p^(n-1)} + Z_p, written K(p,n) in the expression language."""
    if not _is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    if n < 2:
        raise InvalidParameter("need n >= 2")
    return direct_product([cyclic(p ** (n - 1)), cyclic(p)],
                          name=_K.format(p, n))


def abelian(factors: Sequence[int]) -> GroupSpec:
    factors = list(factors)
    if not factors or any(d < 1 for d in factors):
        raise InvalidParameter("abelian factors must be positive")
    return direct_product([cyclic(d) for d in factors])


def cayley_file(path: str) -> GroupSpec:
    return GroupSpec("cayley", (str(path),))


def perm_group(degree: int, gens: Sequence[tuple]) -> GroupSpec:
    if degree < 1:
        raise InvalidParameter("degree must be positive")
    gens = tuple(tuple(g) for g in gens)
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise InvalidParameter(f"not a permutation of 0..{degree-1}: {g}")
    return GroupSpec("perm", (degree, gens))


def _perm_expr(degree: int, gens: tuple) -> str:
    """The expression of a permutation group, which parses back to it."""
    return f"perm:{degree}:" + ",".join(_perm_label(g, "()") for g in gens)


# Each family once: spec kind -> (label format, or a function of the params
# for a permutation group, whose label is its whole expression; order from
# the params or None when only the build tells it; constructor of the
# expression-language atom the format spells, or None when the parser reads
# a prefix). Each {} of a format is one integer param of the atom. The
# elementary abelian and K(p,n) products are named by _EA and _K.
_FAMILIES = {
    "cyclic": ("Z{}", lambda n: n, cyclic),
    "dihedral": ("D{}", lambda n: n, dihedral),
    "quaternion": ("Q{}", lambda n: n, generalized_quaternion),
    "modular": ("G({},{})", pow, modular_pgroup),
    "semidihedral": ("H({})", lambda m: 2 ** m, semidihedral),
    "symmetric": ("S{}", factorial, symmetric),
    "alternating": ("A{}", lambda n: max(factorial(n) // 2, 1), alternating),
    "cayley": ("cayley:{}", None, None),
    "perm": (_perm_expr, None, None),
}
_EA, _K = "EA({},{})", "K({},{})"


# ---------------------------------------------------------------------------
# Builders


def _presentation(kind: str, params: tuple) -> tuple[int, int, int, int]:
    """(m, p, u, s) with 0 <= u, s < m presenting the group of a dihedral,
    quaternion, modular or semidihedral spec as in ``_metacyclic_table``.
    The modular and semidihedral groups are given by x^-1 a x = a^r, so
    u = r^-1 mod m."""
    if kind in ("dihedral", "quaternion"):
        m = params[0] // 2
        return m, 2, m - 1, m // 2 if kind == "quaternion" else 0
    prime, n = params if kind == "modular" else (2, params[0])
    m = prime ** (n - 1)
    r = 1 + prime ** (n - 2) if kind == "modular" else 2 ** (n - 2) - 1
    return m, prime, pow(r, -1, m), 0


def _metacyclic_table(m: int, p: int, u: int, s: int) -> np.ndarray:
    """<a, x | a^m = 1, x^p = a^s, x a x^-1 = a^u>, with a^i x^j at index
    j*m + i: (a^i x^j)(a^k x^l) = a^(i + k*u^j + s*[j+l >= p]) x^((j+l) % p).
    The parameters are not checked to present a group of order m*p."""
    j, i = np.divmod(np.arange(m * p, dtype=np.int64), m)
    upow = np.array([pow(u, e, m) for e in range(p)], dtype=np.int64)
    jl = j[:, None] + j[None, :]
    a = (i[:, None] + upow[j][:, None] * i[None, :] + s * (jl >= p)) % m
    return np.add((jl % p) * m, a, dtype=np.intc)


@cache
def _check_presentation(m: int, p: int, u: int, s: int) -> None:
    """Raise NotAGroup unless (m, p, u, s) presents a group of order m*p.
    Cached, as the table depends on them alone; failures are not."""
    _validate_structure(_metacyclic_table(m, p, u, s))


def _words(m: int, p: int, a: str, x: str,
           x_first: bool = False) -> list[str]:
    """Labels of the elements a^i x^j at index j*m + i, such as a2x or sr2."""
    def power(sym, k):
        return "" if k == 0 else sym if k == 1 else f"{sym}{k}"

    return [(power(x, j) + power(a, i) if x_first
             else power(a, i) + power(x, j)) or "e"
            for j in range(p) for i in range(m)]


def _perm_label(p: tuple, identity: str = "e") -> str:
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(cycles) or identity


def _perm_table(perms: list[tuple], gens: Sequence[tuple]) -> np.ndarray:
    """The table of ``perms`` (identity first) under (a*b)(x) = a(b(x)),
    given generators of the group they form. If b = g*c for a generator g
    then b*a = g*(c*a), so row b is row c gathered through left
    multiplication by g; a walk from the identity row fills the rest."""
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    left = [np.fromiter((index[tuple(g[x] for x in p)] for p in perms),
                        dtype=np.intc, count=n) for g in gens]
    table = np.empty((n, n), dtype=np.intc)
    table[0] = np.arange(n)
    done = bytearray(n)
    done[0] = 1
    queue = [0]
    for c in queue:
        for m in left:
            b = int(m[c])
            if not done[b]:
                done[b] = 1
                table[b] = m[table[c]]
                queue.append(b)
    return table


def _classical_gens(kind: str, n: int) -> list[tuple]:
    """Generators of S_n, (1 2) and (1 2 ... n), or of A_n, (1 2 3) and
    (1 2 ... n) for odd n, (2 3 ... n) for even n."""
    if kind == "symmetric":
        return [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
    return [(1, 2, 0, *range(3, n)), (*range(1, n), 0) if n % 2
            else (0, *range(2, n), 1)] if n > 2 else []


def _perm_closure(degree: int, gens: Sequence[tuple]) -> list[tuple]:
    """The group the permutations ``gens`` generate, identity first, in
    breadth-first order; ClosureTooLarge past DEFAULT_CLOSURE_CAP elements."""
    ordered = [tuple(range(degree))]
    seen = set(ordered)
    for x in ordered:
        for g in gens:
            y = tuple(x[i] for i in g)
            if y not in seen:
                if len(ordered) >= DEFAULT_CLOSURE_CAP:
                    raise ClosureTooLarge(f"closure exceeds cap of "
                                          f"{DEFAULT_CLOSURE_CAP} elements")
                seen.add(y)
                ordered.append(y)
    return ordered


def _product_table(factors: list[tuple[np.ndarray, Sequence[str]]]
                   ) -> tuple[np.ndarray, list[str]]:
    """Table and labels of the direct product of the (table, labels)
    factors, in mixed radix with the leftmost factor most significant."""
    acc = factors[0][0]
    for t2, _ in factors[1:]:
        n1, n2 = acc.shape[0], t2.shape[0]
        out = np.empty((n1 * n2, n1 * n2), dtype=np.intc)
        np.add(acc[:, None, :, None] * n2, t2[None, :, None, :],
               out=out.reshape(n1, n2, n1, n2))
        acc = out
    labels = ["(" + ",".join(parts) + ")"
              for parts in iter_product(*(labels for _, labels in factors))]
    return acc, labels


def _table(spec: GroupSpec, max_order: Optional[int] = None
           ) -> tuple[np.ndarray, Sequence[str]]:
    """A new C-contiguous intc Cayley table, which ``build`` hands over to
    its Group, and the element labels of the group ``spec`` describes.
    Metacyclic presentations are validated by ``_check_presentation`` and
    Cayley files by ``_read_cayley_file``; cyclic, permutation and product
    tables are groups by construction. This is the one order gate: a group
    over ``max_order`` raises OrderTooLarge before its table is built, by
    the spec's order, else a Cayley file's first line, the permutation
    closure or, its factors checked first, the product of their orders.
    No bound is above DEFAULT_CLOSURE_CAP, which None also means."""
    max_order = (DEFAULT_CLOSURE_CAP if max_order is None
                 else min(max_order, DEFAULT_CLOSURE_CAP))
    _check_order(spec.order(), max_order)
    k, p = spec.kind, spec.params
    if k == "cyclic":
        n = p[0]
        idx = np.arange(n, dtype=np.intc)
        t = np.add.outer(idx, idx)
        np.remainder(t, n, out=t)
        return t, [str(i) for i in range(n)]
    if k in ("dihedral", "quaternion", "modular", "semidihedral"):
        m, prime, u, s = _presentation(k, p)
        _check_presentation(m, prime, u, s)
        t = _metacyclic_table(m, prime, u, s)
        words = (_words(m, 2, "r", "s", x_first=True) if k == "dihedral"
                 else _words(m, prime, "a", "b" if k == "quaternion" else "x"))
        return t, words
    if k in ("symmetric", "alternating", "perm"):
        # sorted S_n and A_n closures list the permutations in lexicographic
        # order, the identity first
        degree, gens = p if k == "perm" else (p[0], _classical_gens(k, p[0]))
        perms = _perm_closure(degree, gens)
        _check_order(len(perms), max_order)
        if k != "perm":
            perms.sort()
        return (_perm_table(perms, gens),
                [_perm_label(x) for x in perms])
    if k == "product":
        factors = [_table(c, max_order) for c in spec.children]
        _check_order(prod(len(labels) for _, labels in factors), max_order)
        return _product_table(factors)
    if k == "cayley":
        return _read_cayley_file(p[0], max_order)
    raise InvalidParameter(f"unknown spec kind {k!r}")


def build(spec: GroupSpec, *, label: Optional[str] = None,
          max_order: Optional[int] = None) -> Group:
    """Build the group described by ``spec``, labelled ``label``, else the
    spec's name, else after its constructor (a Cayley file's basename).

    Only metacyclic tables and Cayley files are validated, and a group whose
    order exceeds ``max_order``, or DEFAULT_CLOSURE_CAP (20160) when that is
    None or larger, raises OrderTooLarge before its table is built;
    ``_table`` says why and how.
    """
    table, labels = _table(spec, max_order)
    if label is None:
        label = (os.path.basename(spec.params[0])
                 if spec.kind == "cayley" and spec.name is None
                 else spec.label())
    return Group(table, labels=labels, label=label, validate=False)


def _check_order(order: Optional[int], max_order: int) -> None:
    if order is not None and order > max_order:
        raise OrderTooLarge(
            f"order {order} exceeds the maximum order {max_order}")


# ---------------------------------------------------------------------------
# Cayley-table files
#
# Format: line 1 is n; an optional line of n whitespace-separated labels;
# then n lines of n integers in 0..n-1, row i giving the products of g_i.
# Blank lines are skipped; there are no comments.


def from_cayley_file(path: str, label: Optional[str] = None) -> Group:
    """``build`` of the Cayley-table file ``path``, validated on load."""
    return build(cayley_file(path), label=label)


def _read_cayley_file(path: str, max_order: int
                      ) -> tuple[np.ndarray, list]:
    """The validated table and the element labels (``e0``, ``e1``, ...
    when the file has none) of a Cayley-table file, read once.

    Its errors come in this order: an unreadable file (ParseError), a bad
    first line, an order n over ``max_order`` (OrderTooLarge, before the
    body is read), the line count, a label line that is not UTF-8, the
    label count, the first malformed row in table order (``bad table body:
    row R ...``), an entry outside 0..n-1 (NotAGroup), then validation. A
    byte that is not UTF-8 decodes to a lone surrogate, which no int parses.

    The lines after line 2 are read lazily and parsed in blocks of rows,
    sized by ``_BLOCK_BYTES``, into rows 1.. of an (n + 1) x n table. Line
    2 is parsed into row 0 only when the line count shows that it is not a
    label line, and the group keeps rows 1..n or 0..n-1. A regular file too
    short to hold n rows of n entries cannot be valid, so no table is made
    for it: its blocks are parsed to find its error and dropped. A load
    thus takes the table, if any, plus O(block * n) memory on every path.
    """
    try:
        with open(path, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            lines = (s for s in map(str.strip, fh) if s)
            n = _cayley_order(next(lines, None))
            _check_order(n, max_order)
            info = os.fstat(fh.fileno())
            # a pipe's size is unknown, so its table is made from the header
            t = (np.empty((n + 1, n), dtype=np.intc)
                 if not stat.S_ISREG(info.st_mode)
                 or info.st_size >= n * (2 * n - 1) else None)
            second = next(lines, None)
            step = _block_rows(n * 8)
            # lines after line 2, the first malformed one, and whether every
            # entry parsed is in 0..n-1
            done, bad, in_range = 0, None, True
            while block := list(islice(lines, step)):
                # past n lines the line count fails, and it comes first
                if bad is None and done + len(block) <= n:
                    bad, ok = _parse_rows(block, done, n, t)
                    in_range &= ok
                done += len(block)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if second is None or done not in (n - 1, n):
        raise InvalidCayleyFile(f"expected {n + 1} or {n + 2} non-empty lines, "
                                f"got {done + 1 + (second is not None)}")
    labels = second.split() if done == n else None
    if labels is None:
        # row 0 comes before every other row
        bad0, ok = _parse_rows([second], -1, n, t)
        bad = bad0 or bad
        in_range &= ok
    elif re.search("[\udc80-\udcff]", second):
        # valid UTF-8 never decodes to such a surrogate
        raise InvalidCayleyFile("label line is not UTF-8")
    elif len(labels) != n:
        raise InvalidCayleyFile(
            f"label line has {len(labels)} entries, expected {n}")
    if bad is not None:
        i, fault = bad
        raise InvalidCayleyFile(f"bad table body: row {i + (labels is None)} "
                                f"{fault}")
    if not in_range:
        raise NotAGroup("table entries out of range")
    table = t[:n] if labels is None else t[1:]
    _validate_structure(table)
    return table, labels or [f"e{i}" for i in range(n)]


def _cayley_order(first: Optional[str]) -> int:
    if first is None:
        raise InvalidCayleyFile("empty file")
    try:
        n = int(first)
    except ValueError as exc:
        raise InvalidCayleyFile(f"first line must be the order: {first!r}") from exc
    if n < 1:
        raise InvalidCayleyFile("order must be positive")
    return n


def _parse_rows(lines: list[str], index: int, n: int,
                t: Optional[np.ndarray]) -> tuple[Optional[tuple], bool]:
    """Parse ``lines``, the body lines numbered index.. (the file's line 3
    is 0, line 2 is -1), into rows index + 1.. of ``t``, or nowhere if it
    is None. Returns (None, whether every entry is in 0..n-1), or ((i,
    fault), True) for the first line i that is not n 64-bit integers: a
    block that fails is parsed again a line at a time by the same call, so
    the parse and the fault it names always agree."""
    try:
        rows = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError):
        rows = None
    if rows is not None and rows.shape[1] == n:
        if t is not None:
            t[index + 1:index + 1 + len(lines)] = rows
        return None, bool(rows.min() >= 0 and rows.max() < n)
    if len(lines) == 1:
        return (index, "has an entry that is not a 64-bit integer"
                if rows is None
                else f"has {rows.shape[1]} entries, expected {n}"), True
    for i, line in enumerate(lines):
        bad, _ = _parse_rows([line], index + i, n, None)
        if bad is not None:
            return bad, True


def to_cayley_file(group: Group, path: str) -> None:
    """Write the exact file format read back by :func:`from_cayley_file`.

    Labels are emitted with internal whitespace stripped so the label line
    stays whitespace-separated; colliding sanitized labels fall back to
    positional names.
    """
    sanitized = ["".join(lab.split()) for lab in group.labels]
    if len(set(sanitized)) != len(sanitized) or any(not s for s in sanitized):
        sanitized = [f"e{i}" for i in range(group.order)]
    n = group.order
    # Token i is "i " (or "i\n" ending a row) NUL-padded to a fixed width,
    # so a block of rows is one gather whose bytes, NULs dropped, are text.
    width = len(str(n - 1)) + 1
    sep = np.array([f"{i} " for i in range(n)], dtype=f"S{width}")
    end = np.array([f"{i}\n" for i in range(n)], dtype=f"S{width}")
    t = group.np_table()
    with open(path, "wb") as fh:
        fh.write(f"{n}\n{' '.join(sanitized)}\n".encode("utf-8"))
        for b in _row_blocks(n, n * width):
            text = np.take(sep, t[b])
            text[:, -1] = end[t[b, -1]]
            fh.write(text.tobytes().replace(b"\0", b""))


# ---------------------------------------------------------------------------
# Expression language
#
# Atoms: Z4, D8, Q16, S5, A5, G(3,3), H(4), EA(2,3), K(3,3), cayley:PATH,
# perm:DEG:(1 2),(1 2 3). Products join atoms with the letter x.

# An atom is a family's label format with each {} an integer param.
_ATOM_PATTERNS = [
    (re.compile(re.escape(fmt).replace(r"\{\}", r"(\d+)") + "$"), make)
    for fmt, _, make in [*_FAMILIES.values(), (_EA, None, elementary_abelian),
                         (_K, None, cyclic_times_p)]
    if make is not None
]


def _parse_perm_gens(degree: int, text: str) -> tuple:
    gens = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ParseError("empty permutation generator")
        cycles = re.findall(r"\(([^()]*)\)", part)
        if not cycles or re.sub(r"\([^()]*\)", "", part).strip():
            raise ParseError(f"cannot parse permutation {part!r}")
        img = list(range(degree))
        for cyc in cycles:
            pts = [int(x) - 1 for x in cyc.split()]
            if any(not 0 <= x < degree for x in pts):
                raise ParseError(f"point out of range in cycle ({cyc})")
            if len(set(pts)) != len(pts):
                raise ParseError(f"repeated point in cycle ({cyc})")
            for i, pt in enumerate(pts):
                img[pt] = pts[(i + 1) % len(pts)]
        gens.append(tuple(img))
    return tuple(gens)


def _parse_atom(text: str) -> GroupSpec:
    if text.startswith("perm:"):
        head, _, gen_text = text[len("perm:"):].partition(":")
        try:
            degree = int(head)
        except ValueError as exc:
            raise ParseError(f"perm: needs a degree, got {head!r}") from exc
        if not gen_text:
            raise ParseError("perm: needs generators")
        return perm_group(degree, _parse_perm_gens(degree, gen_text))
    if text.startswith("cayley:"):
        raise ParseError("a cayley: file cannot be a product factor, as its "
                         f"path may hold x: {text!r}")
    for pattern, make in _ATOM_PATTERNS:
        m = pattern.match(text)
        if m:
            return make(*map(int, m.groups()))
    raise ParseError(f"unrecognized group expression atom: {text!r}")


def parse_group_expr(text: str) -> GroupSpec:
    """Parse the expression language into a GroupSpec."""
    text = text.strip()
    if not text:
        raise ParseError("empty group expression")
    if text.startswith("cayley:"):
        path = text[len("cayley:"):]
        if not path:
            raise ParseError("cayley: needs a path")
        return cayley_file(path)
    # split on x at parenthesis depth 0; a perm: atom holds none there
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if ch == "x" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    atoms = [_parse_atom(p) for p in parts]
    if len(atoms) == 1:
        return atoms[0]
    return direct_product(atoms)
