"""Catalog of small groups plus executable checks of the structural claims
about cyclicizers and non-cyclic graphs.

Each check runs over every applicable catalog group and reports
counterexamples (expected none), documented findings, and skip reasons.
A check has one of four kinds. "group" and "graph" checks run once per
catalog entry; the runner skips "graph" checks on cyclic groups, whose
non-cyclic graph is not defined. "global" checks read the collected
profiles (graph-isomorphism classes, order spectra, recognizer flags),
whose classes ``form_classes`` sets once every entry has run, and "fixed"
checks build their own groups. A check states only its claim; the runner
does the rest. A per-entry check returns its skip reason, if any; the
runner records it, or the entry's error, counts an entry not skipped as
tested once, and puts ``"group": label`` first in each counterexample and
finding (global and fixed checks count and name their own cases). A
library error (``NonCyclicError``) that a check raises is one
counterexample, naming the entry if any, and the run goes on; one raised
while an entry is condensed into its profile is a skip reason for the
global checks. The runner also keeps catalog order and times each call.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial
from itertools import combinations, product
from math import gcd
from typing import Callable, Optional

import numpy as np

from . import structure
from .canon import (TwinQuotient, canonical_form,
                    check_goormaghtigh_condition)
from .cyclicizers import (CyclicizerTable, _packed_rows, _quotient_pairs,
                          central_cosets, check_central, cyclicizer_table,
                          is_tidy, quotient_pair_matrix)
from .errors import (InvalidParameter, NonCyclicError, OrderTooLarge,
                     ParseError, Timeout, TooLarge, UnknownCheck,
                     VerificationFailure)
from .graph import (NonCyclicGraph, build_graph, clique_and_chromatic,
                    degree_kinds, diameter_info, distance, independence_info,
                    omega_bound_info, subgroup_graph)
from .groups import (MAX_SYMMETRIC_DEGREE, Group, GroupSpec, abelian,
                     alternating, build, center, cyclic, dihedral,
                     direct_product, generalized_quaternion, is_cyclic_group,
                     modular_pgroup, mu, parse_group_expr, pi_e,
                     prime_factorization, semidihedral, symmetric)

MAX_REPORTED = 10


# ---------------------------------------------------------------------------
# Catalog


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    spec: Optional[GroupSpec]
    max_order: Optional[int] = None     # a larger group is not built


@dataclass(frozen=True)
class BadEntry(CatalogEntry):
    """A catalog-file item whose spec names no group; every check skips it
    with ``error``."""
    error: str = ""


class Catalog:
    """Labeled list of group specifications, bounded by a maximum order."""

    def __init__(self, entries, max_order: Optional[int] = None):
        self.entries = list(entries)
        self.max_order = max_order
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise VerificationFailure(f"duplicate catalog labels: {dup[:5]}")

    def __len__(self):
        return len(self.entries)

    def subset(self, labels) -> "Catalog":
        want = set(labels)
        return Catalog([e for e in self.entries if e.label in want],
                       self.max_order)

    @classmethod
    def from_file(cls, path: str,
                  max_order: Optional[int] = None) -> "Catalog":
        """The entries of a JSON list of {"spec": ..., "label": ...}
        objects, each label a string defaulting to its spec's label (to the
        spec's text when the spec is bad). A file that cannot be read or is
        not such a list, or whose labels repeat, raises ParseError naming
        the file, and the items' indices when items are at fault. A spec
        that does not parse or names an invalid group is an entry whose
        skip reason names the file, the item and the error."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ParseError(f"cannot read catalog {path}: {exc}") from exc
        if not isinstance(data, list):
            raise ParseError(f"catalog {path} is not a JSON list")
        entries = []
        first_item: dict[str, int] = {}
        for i, item in enumerate(data):
            if not (isinstance(item, dict)
                    and isinstance(item.get("spec"), str)):
                raise ParseError(
                    f'catalog {path} item {i}: needs a string "spec"')
            try:
                spec, error = parse_group_expr(item["spec"]), None
            except (ParseError, InvalidParameter) as exc:
                spec = None
                error = f"catalog {path} item {i}: {type(exc).__name__}: {exc}"
            label = item.get("label", item["spec"] if spec is None
                             else spec.label())
            if not isinstance(label, str):
                raise ParseError(
                    f'catalog {path} item {i}: "label" must be a string')
            if label in first_item:
                raise ParseError(f"catalog {path} items {first_item[label]} "
                                 f"and {i}: both are labelled {label!r}")
            first_item[label] = i
            order = None if spec is None else spec.order()
            if max_order is not None and order is not None and order > max_order:
                continue
            entries.append(CatalogEntry(label, spec) if error is None
                           else BadEntry(label, spec, error=error))
        return cls(entries, max_order)

    @classmethod
    def default(cls, max_order: int = 200) -> "Catalog":
        return cls(_default_entries(max_order), max_order)


@cache
def _partitions(e: int, cap: Optional[int] = None) -> tuple:
    """Partitions of e into non-increasing parts, none above cap."""
    if e == 0:
        return ((),)
    return tuple((first,) + tail for first in range(min(e, cap or e), 0, -1)
                 for tail in _partitions(e - first, first))


def _abelian_factor_lists(order: int) -> list[tuple[int, ...]]:
    """Non-cyclic abelian groups of the given order as sorted tuples of
    prime-power cyclic factors."""
    per_prime = [[tuple(p ** k for k in part) for part in _partitions(e)]
                 for p, e in prime_factorization(order)]
    # one factor per prime is the cyclic group, listed separately
    return sorted(tuple(sorted(sum(choice, ())))
                  for choice in product(*per_prime)
                  if any(len(factors) > 1 for factors in choice))


def _default_entries(max_order: int):
    base = [(spec.label(), spec, spec.order())
            for spec in _base_specs(max_order)]
    entries = [(order, label, spec)
               for label, spec, order in base + _products(base, max_order)
               if order <= max_order]
    entries.sort(key=lambda t: t[:2])
    return [CatalogEntry(label, spec) for _, label, spec in entries]


def _base_specs(max_order: int) -> list[GroupSpec]:
    """The catalog's families before products of pairs."""
    family_bound = min(128, max_order)
    specs = [cyclic(n) for n in range(1, family_bound + 1)]
    specs += [abelian(factors) for n in range(4, family_bound + 1)
              for factors in _abelian_factor_lists(n)]
    specs += [dihedral(order) for order in range(6, family_bound + 1, 2)]
    # a p-power p^n <= family_bound has n < family_bound.bit_length()
    exponents = range(family_bound.bit_length())
    specs += [generalized_quaternion(2 ** n) for n in exponents[3:]]
    specs += [modular_pgroup(p, n) for p in (2, 3, 5, 7, 11)
              for n in exponents[3:] if p ** n <= family_bound]
    specs += [semidihedral(m) for m in exponents[4:]]
    specs += [spec for n in range(3, MAX_SYMMETRIC_DEGREE + 1)
              for spec in (symmetric(n), alternating(n))
              if spec.order() <= max_order]
    return specs


def _products(base: list[tuple[str, GroupSpec, int]], max_order: int
              ) -> list[tuple[str, GroupSpec, int]]:
    """(label, spec, order) of the products of pairs of ``base`` entries up
    to ``max_order``. The pairs are visited as in a scan of base[i] against
    base[i:], and a product label made twice (such as Z2xZ2xZ2xZ2xZ17)
    keeps the spec of the first pair; but only the partners with
    oa * ob <= max_order are visited, found by bisection among the base
    orders."""
    products = []
    seen = {label for label, _, _ in base}
    factors = [(o, i) for i, (_, _, o) in enumerate(base) if o >= 2]
    by_order = sorted(factors)
    orders = [o for o, _ in by_order]
    for oa, i in factors:
        la, sa, _ = base[i]
        stop = bisect_right(orders, max_order // oa)
        for j in sorted(j for _, j in by_order[:stop] if j >= i):
            lb, sb, ob = base[j]
            # the factor of smaller (order, label) goes first
            pair = ((la, sa), (lb, sb)) if (oa, la) <= (ob, lb) else (
                (lb, sb), (la, sa))
            label = f"{pair[0][0]}x{pair[1][0]}"
            if label not in seen:
                seen.add(label)
                products.append((label, direct_product(
                    [pair[0][1], pair[1][1]], name=label), oa * ob))
    return products


# ---------------------------------------------------------------------------
# Per-group analysis


@dataclass
class AnalyzedGroup:
    label: str
    spec: GroupSpec
    group: Optional[Group] = None
    ctable: Optional[CyclicizerTable] = None
    graph: Optional[NonCyclicGraph] = None
    error: Optional[str] = None     # why the entry is skipped

    @property
    def is_cyclic(self) -> bool:
        return self.group is not None and is_cyclic_group(self.group)

    @cached_property
    def diameter(self):
        return diameter_info(self.graph)

    @property
    def center(self) -> tuple:
        return center(self.group).members

    @cached_property
    def cyc_cosets(self) -> np.ndarray:
        """The cosets of Cyc(G), one per row (``central_cosets``)."""
        return central_cosets(self.group, self.ctable.cyc_members())

    @cached_property
    def cyc_incidence(self) -> np.ndarray:
        """[r, k, c]: whether ``cyc_cosets``[c, k] is in distinct row r."""
        return self.ctable.distinct[0][:, self.cyc_cosets.T]


@dataclass
class GroupProfile:
    """Picklable cross-group summary of one analyzed catalog entry; the
    global checks read only these, and a profile never holds the group or
    the graph. A non-cyclic group's profile carries its graph's vertex
    count, degree census and twin quotient. For a nilpotent group with
    trivial cyclicizer, Cyc(G) is the product of the Cyc(P), all trivial,
    so each Sylow graph is the subgraph induced on P minus the identity;
    with more than one prime, ``sylow_quotients`` holds its twin quotient
    per prime. ``form_classes`` then sets the classes."""

    label: str
    spec: Optional[GroupSpec]
    order: int = 0
    cyc_size: int = 0
    pi_e: tuple = ()
    is_nilpotent: bool = False
    is_pgroup: Optional[tuple] = None       # (p, e)
    is_gen_quaternion: bool = False
    dihedral_n: Optional[int] = None
    self_cyc_orders: tuple = ()
    regular_family: Optional[tuple] = None
    vertex_count: Optional[int] = None
    degrees_gcd: Optional[int] = None
    degree_census: Optional[tuple] = None
    quotient: Optional[TwinQuotient] = None
    sylow_quotients: Optional[tuple] = None     # ((p, TwinQuotient), ...)
    # set by form_classes: equal values mean isomorphic graphs, and
    # ((p, class), ...) compares the Sylow graphs prime by prime
    graph_class: Optional[tuple] = None
    sylow_classes: Optional[tuple] = None
    cert_error: Optional[str] = None  # why the entry has no class
    error: Optional[str] = None


def analyze_entry(entry: CatalogEntry) -> AnalyzedGroup:
    """Build the entry's group, cyclicizer table and graph; a group larger
    than the entry's ``max_order`` is not built, and its error says so."""
    az = AnalyzedGroup(entry.label, entry.spec)
    if isinstance(entry, BadEntry):
        az.error = entry.error
        return az
    try:
        az.group = build(entry.spec, label=entry.label,
                         max_order=entry.max_order)
        az.ctable = cyclicizer_table(az.group)
        if not is_cyclic_group(az.group):
            az.graph = build_graph(az.group, az.ctable)
    except OrderTooLarge as exc:
        az.error = str(exc)
    except NonCyclicError as exc:
        az.error = f"build failed ({type(exc).__name__}: {exc})"
    return az


def profile_of(az: AnalyzedGroup) -> GroupProfile:
    """The entry's profile, with the twin quotients the class phase reads."""
    if az.error is not None:
        return GroupProfile(az.label, az.spec, error=az.error)
    g, ct = az.group, az.ctable
    sylows = structure.sylow_decomposition(g)
    prof = GroupProfile(
        az.label, az.spec,
        order=g.order,
        cyc_size=ct.cyc_size,
        pi_e=pi_e(g),
        is_nilpotent=sylows is not None,
        is_pgroup=structure.pgroup_parameters(g),
        is_gen_quaternion=structure.is_generalized_quaternion(g),
        dihedral_n=structure.dihedral_parameter(g),
        self_cyc_orders=structure.self_cyclicizer_orders(g),
        regular_family=structure.regular_family(g),
    )
    if (graph := az.graph) is not None:
        prof.vertex_count = graph.n_vertices
        prof.degree_census = graph.degree_census
        prof.degrees_gcd = gcd(*(d for d, _ in prof.degree_census))
        prof.quotient = TwinQuotient.of(graph)
        if sylows is not None and ct.cyc_size == 1 and len(sylows) > 1:
            prof.sylow_quotients = tuple(
                (p, TwinQuotient.of(subgroup_graph(g, ct, mem)))
                for p, mem in sylows.items())
    return prof


# ---------------------------------------------------------------------------
# Graph classes


def _structural_key(prof: GroupProfile) -> tuple:
    """The entry's factor multiset, each cyclic factor split into its
    prime-power parts. Entries with one key are isomorphic groups, as x is
    commutative and associative and Z_mn = Z_m x Z_n for coprime m, n; so
    are their graphs and their Sylow graphs. A Cayley-file factor keys on
    the entry's label, so its entry shares its key with no other."""
    atoms = []
    stack = [prof.spec]
    while stack:
        spec = stack.pop()
        if spec.kind == "product":
            stack.extend(spec.children)
        elif spec.kind == "cyclic":
            atoms += [("cyclic", (p ** e,))
                      for p, e in prime_factorization(spec.params[0])]
        else:
            atoms.append((spec.kind, (prof.label,) if spec.kind == "cayley"
                          else spec.params))
    return tuple(sorted(atoms))


def _certificate_of(quotient: TwinQuotient) -> tuple:
    """(certificate, None), or (None, why it is missing)."""
    try:
        return canonical_form(quotient).certificate, None
    except (TooLarge, Timeout) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _forms_by_key(profiles, group_of: Callable, quotients_of: Callable,
                  mapper: Callable):
    """(key, members, certificates, why) for each structural key among the
    ``profiles`` of each group (by ``group_of``). Members of one key are
    alike, so a group's only key needs no form: certificates is None. A
    group of several keys gets the certificates of its first member's
    ``quotients_of``, mapped in order by ``mapper``, and why names the
    first that is missing, else None."""
    groups: dict = {}
    for p in profiles:
        groups.setdefault(group_of(p), {}).setdefault(
            _structural_key(p), []).append(p)
    todo = [m for keys in groups.values() if len(keys) > 1
            for m in keys.values()]
    found = iter(mapper(_certificate_of,
                        [q for m in todo for q in quotients_of(m[0])]))
    for keys in groups.values():
        for key, members in keys.items():
            if len(keys) == 1:
                yield key, members, None, None
                continue
            got = [next(found) for _ in quotients_of(members[0])]
            yield (key, members, [cert for cert, _ in got],
                   next((why for _, why in got if why), None))


def form_classes(profiles: list[GroupProfile], mapper: Callable = map
                 ) -> None:
    """Set the graph and Sylow classes of the profiles that carry a twin
    quotient, computing canonical forms only where a class can form.

    The degree census is an isomorphism invariant, so graphs of different
    (vertex count, census) are in different classes, and entries with one
    structural key are in one class. A bucket of one key is therefore one
    class with no form; in a bucket of several keys each key's first entry
    gets a form and the key's other entries share it. Sylow graphs are
    compared only between the multi-prime members of one class, so their
    forms are computed only in a class where such members have several
    keys. ``mapper`` maps the forms in order; under --jobs it is the
    process pool's. A needed form that is missing (TooLarge, Timeout)
    leaves its key's entries with no class and sets their ``cert_error``."""
    for _, members, certs, why in _forms_by_key(
            [p for p in profiles if p.quotient is not None],
            lambda p: (p.vertex_count, p.degree_census),
            lambda p: [p.quotient], mapper):
        for p in members:
            if why:
                p.cert_error = why
            else:
                p.graph_class = (p.vertex_count, p.degree_census,
                                 None if certs is None else certs[0])
    for p in profiles:
        if (p.graph_class is not None and p.is_nilpotent and p.cyc_size == 1
                and p.sylow_quotients is None):
            # a p-group: its graph is its Sylow graph
            p.sylow_classes = ((p.is_pgroup[0], p.graph_class),)
    for key, members, certs, why in _forms_by_key(
            [p for p in profiles
             if p.graph_class is not None and p.sylow_quotients],
            lambda p: p.graph_class,
            lambda p: [q for _, q in p.sylow_quotients], mapper):
        # key-mates' Sylow graphs are alike prime by prime
        ids = certs or [key] * len(members[0].sylow_quotients)
        for p in members:
            if why:
                p.graph_class, p.cert_error = None, why
            else:
                p.sylow_classes = tuple(
                    (q, i) for (q, _), i in zip(p.sylow_quotients, ids))


# ---------------------------------------------------------------------------
# Check registry


@dataclass
class CheckResult:
    name: str
    statement: str
    tested: int = 0
    skipped: list = field(default_factory=list)        # (label, reason)
    counterexamples: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    elapsed_ms: float = 0.0   # rounded only when reported

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self, with_timing: bool = False) -> dict:
        reasons = Counter(reason for _, reason in self.skipped)
        out = {
            "check": self.name,
            "statement": self.statement,
            "tested": self.tested,
            "skipped": {
                "total": len(self.skipped),
                "reasons": dict(sorted(reasons.items())),
                "labels": [lab for lab, _ in self.skipped[:MAX_REPORTED]],
            },
            "counterexamples": self.counterexamples[:MAX_REPORTED],
            "findings": self.findings[:MAX_REPORTED],
            "pass": self.passed,
        }
        if with_timing:
            out["elapsed_ms"] = round(self.elapsed_ms)
        return out


@dataclass(frozen=True)
class Check:
    name: str
    statement: str
    kind: str   # "group" or "graph" (per entry), "global" or "fixed"
    fn: Callable


CHECKS: dict[str, Check] = {}


def _register(name, statement, kind):
    def deco(fn):
        CHECKS[name] = Check(name, statement, kind, fn)
        return fn
    return deco


def _ce(result: CheckResult, **data) -> None:
    if len(result.counterexamples) < MAX_REPORTED * 4:
        result.counterexamples.append(data)


# -- per-group checks -------------------------------------------------------
# Each returns the reason it skips its entry, or None when it tests it.


@_register("cyc_coset_union",
           "every element cyclicizer is a union of cosets of the group "
           "cyclicizer, whose size therefore divides it", "group")
def _check_coset_union(az: AnalyzedGroup, result: CheckResult):
    g, ct = az.group, az.ctable
    if ct.cyc_size == 1:
        return
    rows, row_of = az.ctable.distinct
    cosets = az.cyc_cosets   # the rows partition G
    inside = az.cyc_incidence   # [r, k, c]: is cosets[c, k] in row r
    leaks = inside.any(axis=1) & ~inside.all(axis=1)
    indivisible = np.count_nonzero(rows, axis=1) % ct.cyc_size != 0
    bad = np.flatnonzero((indivisible | leaks.any(axis=1))[row_of])
    if not bad.size:
        return
    x = int(bad[0])
    r = row_of[x]
    if indivisible[r]:
        _ce(result, element=g.labels[x],
            reason="cyclicizer size not divisible by group cyclicizer")
        return
    # the least element of Cyc(x) whose coset leaks
    y = int(cosets[leaks[r]][inside[r].T[leaks[r]]].min())
    _ce(result, element=g.labels[x], coset_rep=g.labels[y],
        reason="coset leaks outside the cyclicizer")


@_register("cyc_core_cyclic",
           "for D = Cyc(x), the simultaneous cyclicizer of D within D is a "
           "cyclic subgroup containing x", "group")
def _check_core_cyclic(az: AnalyzedGroup, result: CheckResult):
    """The core of each distinct D = Cyc(x) (``_cyc_cores``) is
    {y in D : D <= Cyc(y)}, as Cyc is a symmetric relation; x is scanned in
    ascending order, as the failures are reported for the least x."""
    g, n = az.group, az.group.order
    rows, row_of = az.ctable.distinct
    cores = _cyc_cores(rows, row_of)
    # a cyclic subgroup equal to a core is generated by one of its members
    cyclic = {bits for _, bits in g.cyclic_subgroups}
    ok = np.array([bits in cyclic for bits in _packed_rows(cores)])
    xs = np.arange(n)
    has_self = (cores[row_of, xs >> 3] >> (xs & 7) & 1).astype(bool)
    bad = np.flatnonzero(~has_self | ~ok[row_of])
    if bad.size:
        x = int(bad[0])
        _ce(result, element=g.labels[x],
            reason="core is not a cyclic subgroup" if has_self[x]
            else "core misses the element itself")


def _cyc_cores(rows: np.ndarray, row_of: np.ndarray) -> np.ndarray:
    """D & AND(Cyc(w) for w in D) for each distinct row D of
    ``CyclicizerTable.distinct``, packed little-endian along axis 1. All
    come from one gather of the packed rows, cut into one segment per D by
    ``bitwise_and.reduceat``."""
    of_d, members = np.nonzero(rows)
    # the packed rows, then an all-true row that closes the gather: the
    # start of an empty trailing D indexes it and every earlier segment
    # keeps its whole range; an empty D's segment is cleared by the AND
    packed = np.packbits(np.vstack([rows, np.ones(rows.shape[1], dtype=bool)]),
                         axis=1, bitorder="little")
    return packed[:-1] & np.bitwise_and.reduceat(
        packed[np.append(row_of[members], -1)],
        np.searchsorted(of_d, np.arange(len(rows))), axis=0)


@_register("pgroup_cyc_nontrivial",
           "a finite p-group has non-trivial group cyclicizer exactly when "
           "it is cyclic or generalized quaternion", "group")
def _check_pgroup_cyc(az: AnalyzedGroup, result: CheckResult):
    if structure.pgroup_parameters(az.group) is None:
        return "not a p-group"
    quaternion = structure.is_generalized_quaternion(az.group)
    if (az.ctable.cyc_size > 1) != (az.is_cyclic or quaternion):
        _ce(result, cyc_size=az.ctable.cyc_size, cyclic=az.is_cyclic,
            generalized_quaternion=quaternion)


@_register("quotient_cyc_trivial",
           "modding out the group cyclicizer leaves trivial cyclicizer and "
           "maps element cyclicizers to coset cyclicizers; the central "
           "quotient also has trivial cyclicizer", "group")
def _check_quotient(az: AnalyzedGroup, result: CheckResult):
    """Reads each quotient's cyclicizers off G's, with no quotient group.
    Every cyclic subgroup of G/N is the image <gN> of a cyclic <g>, so
    <xN, yN> is cyclic iff some x' in xN and y' in yN generate a cyclic
    subgroup, and Cyc(xN) is the image of the union of Cyc(x') over x' in
    xN (``quotient_pair_matrix``). Cyc(G/N) is then trivial iff the
    identity coset's column is the matrix's only all-true column. Cyc(G) is
    first checked exactly to be a central subgroup; Z(G) is one by
    construction."""
    g, ct = az.group, az.ctable
    rows, row_of = az.ctable.distinct
    if ct.cyc_size > 1:
        check_central(g, ct.cyc_members())
        cosets = az.cyc_cosets
        meets = az.cyc_incidence.any(axis=1)    # row r meets coset c
        quo = _quotient_pairs(meets, row_of, cosets)
        if not _cyc_trivial(quo):
            _ce(result,
                reason="quotient by cyclicizer keeps non-trivial cyclicizer")
            return
        bad = np.flatnonzero((meets[row_of[cosets[:, 0]]] != quo).any(axis=1))
        if bad.size:
            _ce(result, coset=f"[{g.labels[cosets[bad[0], 0]]}]",
                reason="cyclicizer does not project onto the quotient")
            return
    z = az.center
    if 1 < len(z) < g.order and not _cyc_trivial(
            quotient_pair_matrix(rows, row_of, central_cosets(g, z))):
        _ce(result, reason="central quotient has non-trivial cyclicizer")


def _cyc_trivial(pairs: np.ndarray) -> bool:
    """Whether a group with this pair-cyclicity matrix, identity at index
    0, has trivial cyclicizer: column 0 is its only all-true column."""
    return np.flatnonzero(pairs.all(axis=0)).tolist() == [0]


@_register("complete_iff_ea2",
           "the non-cyclic graph is complete exactly for elementary abelian "
           "2-groups", "graph")
def _check_complete(az: AnalyzedGroup, result: CheckResult):
    nv = az.graph.n_vertices
    complete = degree_kinds(az.graph)[0] == ((nv - 1, nv),)
    # an elementary abelian group of order p^e is homocyclic (p, 1, e)
    params = structure.homocyclic_parameters(az.group)
    ea = (params[0], params[2]) if params and params[1] == 1 else None
    if complete != (ea is not None and ea[0] == 2):
        _ce(result, complete=complete, elementary_abelian=ea)


@_register("diam_le_3",
           "the non-cyclic graph is connected with diameter at most 3, and "
           "diameter exactly 2 when the center equals the group cyclicizer",
           "graph")
def _check_diameter(az: AnalyzedGroup, result: CheckResult):
    info = az.diameter
    if info.diameter > 3:
        _ce(result, diameter=info.diameter,
            witness=info.witness_labels(az.graph))
        return
    if az.center == az.ctable.cyc_members() and info.diameter != 2:
        _ce(result, diameter=info.diameter,
            reason="center equals cyclicizer but diameter is not 2")


@_register("nilpotent_diam_le_2",
           "finite non-cyclic nilpotent groups have graph diameter at most 2",
           "graph")
def _check_nilpotent_diam(az: AnalyzedGroup, result: CheckResult):
    if not structure.is_nilpotent(az.group):
        return "not nilpotent"
    info = az.diameter
    if info.diameter > 2:
        _ce(result, diameter=info.diameter,
            witness=info.witness_labels(az.graph))


@_register("omega_chi_s",
           "clique number and chromatic number both equal the number of "
           "maximal cyclic subgroups, with validated witnesses", "graph")
def _check_omega_chi(az: AnalyzedGroup, result: CheckResult):
    cc = clique_and_chromatic(az.graph, az.ctable)
    if cc.omega != cc.chi or cc.omega != len(az.ctable.maximal):
        _ce(result, omega=cc.omega, chi=cc.chi, s=len(az.ctable.maximal))


@_register("omega_index_bounds",
           "the clique number is at most the index of the group cyclicizer, "
           "and for s >= 3 the covering bound "
           "max((s-1)^2 (s-3)!, (s-2)^3 (s-3)!) dominates that index",
           "graph")
def _check_bounds(az: AnalyzedGroup, result: CheckResult):
    info = omega_bound_info(az.group, az.ctable)
    if not info.index_bound_ok:
        _ce(result, s=info.s, index=info.index,
            reason="clique count exceeds cyclicizer index")
    if info.covering_ok is False:
        _ce(result, s=info.s, index=info.index, bound=info.covering_value,
            reason="covering bound violated")
    if info.covering_ok is None:
        result.findings.append(
            {"s": info.s,
             "note": "covering bound skipped, fewer than 3 maximal cyclics"})


@_register("alpha_formula",
           "the independence number equals the largest element order minus "
           "the group cyclicizer size; exact search cross-checks small "
           "graphs and disagreements are surfaced", "graph")
def _check_alpha(az: AnalyzedGroup, result: CheckResult):
    info = independence_info(az.graph, az.ctable)
    if info.brute_value is not None and info.brute_value < info.formula_value:
        _ce(result, formula=info.formula_value, exact=info.brute_value,
            reason="closed form exceeds the exact independence number")
    elif info.mismatch:
        result.findings.append(
            {"formula": info.formula_value, "exact": info.brute_value,
             "note": "closed form undershoots the exact value"})


@_register("regular_classification",
           "the graph is regular exactly for Q8 x Z_n (n odd) and for "
           "P x Z_m with P non-cyclic of prime exponent p, gcd(m, p) = 1",
           "graph")
def _check_regular(az: AnalyzedGroup, result: CheckResult):
    _, _, regular = degree_kinds(az.graph)
    fam = structure.regular_family(az.group)
    if regular != (fam is not None):
        _ce(result, regular=regular, family=fam)


HOMOCYCLIC_REQUIRED = ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (5, 2, 2))


def _homocyclic_expected_size(p: int, m: int, n: int, ell: int) -> int:
    """Cyclicizer size of an element of order p^ell in (Z_{p^m})^n.

    An element of order p^i (i > ell) lies above x of order p^ell exactly
    when its leading coordinate carries a unit times p^(m-i) and every other
    coordinate is a multiple of p^(m-i+ell), leaving p^(i-ell) choices per
    coordinate.
    """
    if ell == m:
        return p ** m
    total = p ** ell
    for i in range(ell + 1, m + 1):
        total += (p ** i - p ** (i - 1)) * p ** ((n - 1) * (i - ell))
    return total


def _homocyclic_case(az: AnalyzedGroup, p: int, m: int, n: int,
                     result: CheckResult):
    group, ct = az.group, az.ctable
    if ct.cyc_size != 1:
        _ce(result, reason="group cyclicizer is not trivial")
        return
    expected = {p ** ell: _homocyclic_expected_size(p, m, n, ell)
                for ell in range(m + 1)}
    for x in range(1, group.order):
        want = expected.get(group.elem_orders[x])
        if ct.rows[x].bit_count() != want:
            _ce(result, element=group.labels[x],
                got=ct.rows[x].bit_count(), expected=want)
            return
    _, kinds, _ = degree_kinds(az.graph)
    if kinds != m:
        _ce(result, kind_degrees=kinds, expected=m)
        return
    if m > 1 and is_tidy(group):
        _ce(result, reason="expected a cyclicizer that is not a subgroup")


@_register("homocyclic_degree_formula",
           "in a direct sum of n copies of Z_{p^m} (n > 1), cyclicizer "
           "sizes follow the closed form in the element order, the graph "
           "has exactly m kind degrees, and for m > 1 some cyclicizer "
           "fails to be a subgroup", "group")
def _check_homocyclic(az: AnalyzedGroup, result: CheckResult):
    params = structure.homocyclic_parameters(az.group)
    if params is None or params[2] < 2:
        return "not homocyclic on more than one factor"
    _homocyclic_case(az, *params, result)


@_register("abelian_two_kind_degrees",
           "a non-cyclic abelian group has exactly two kind degrees exactly "
           "when it is Z_m plus n > 1 copies of Z_{p^2} with gcd(m, p) = 1; "
           "non-abelian two-kind groups are logged", "graph")
def _check_two_kinds(az: AnalyzedGroup, result: CheckResult):
    _, kinds, _ = degree_kinds(az.graph)
    if not structure.is_abelian(az.group):
        if kinds == 2:
            result.findings.append(
                {"note": "non-abelian with two kind degrees"})
        return "not abelian"
    family = structure.two_kind_abelian_family(az.group)
    if (kinds == 2) != family:
        _ce(result, kind_degrees=kinds, family=family)


@_register("mu_cyc_disjoint",
           "no divisibility-maximal element order occurs as an element "
           "order inside the group cyclicizer of a non-cyclic group",
           "graph")
def _check_mu_disjoint(az: AnalyzedGroup, result: CheckResult):
    g, ct = az.group, az.ctable
    cyc_orders = {g.elem_orders[x] for x in ct.cyc_members()}
    clash = sorted(set(mu(g)) & cyc_orders)
    if clash:
        _ce(result, orders=clash)


@_register("mu_self_cyclicizer",
           "an element whose order is divisibility-maximal has cyclicizer "
           "equal to the cyclic subgroup it generates", "group")
def _check_mu_self(az: AnalyzedGroup, result: CheckResult):
    g, ct = az.group, az.ctable
    maximal_orders = set(mu(g))
    for x in range(g.order):
        if g.elem_orders[x] in maximal_orders:
            if ct.rows[x] != g.generated_cyclic_bits(x):
                _ce(result, element=g.labels[x])
                return


# -- fixed checks -----------------------------------------------------------


@_register("z6xs3_diam_3",
           "the graph of Z6 x S3 has diameter 3, achieved by the pair "
           "((3,e), (2,e))", "fixed")
def _check_z6xs3(result: CheckResult):
    g = build(direct_product([cyclic(6), symmetric(3)]))
    graph = build_graph(g)
    result.tested += 1
    info = diameter_info(graph)
    a = graph.vertices.index(g.labels.index("(3,e)"))
    b = graph.vertices.index(g.labels.index("(2,e)"))
    if info.diameter != 3:
        _ce(result, group="Z6xS3", diameter=info.diameter)
        return
    d = distance(graph, a, b)
    if d != 3:
        _ce(result, group="Z6xS3", pair=("(3,e)", "(2,e)"), distance=d)


@_register("homocyclic_required_cases",
           "the homocyclic cyclicizer-size formula verified on the five "
           "required (p, m, n) parameter triples by brute force", "fixed")
def _check_homocyclic_fixed(result: CheckResult):
    for p, m, n in HOMOCYCLIC_REQUIRED:
        label = f"(Z{p ** m})^{n}"
        spec = direct_product([cyclic(p ** m)] * n, name=label)
        g = build(spec)
        result.tested += 1
        case = CheckResult(result.name, result.statement)
        _homocyclic_case(AnalyzedGroup(label, spec, g, cyclicizer_table(g),
                                       build_graph(g)), p, m, n, case)
        _merge(result, _named(case, label))


def _family_graph(expr: str):
    return canonical_form(build_graph(build(parse_group_expr(expr))))


@_register("cyclic_maximal_families",
           "among the 2-groups with a cyclic subgroup of index 2 and the "
           "odd modular p-groups, graph-isomorphism classes at orders 8-32 "
           "are: modular matches Z_{p^(n-1)} x Z_p whenever n > 3 or p > 2, "
           "while the order-8 chain group, the semidihedral groups and the "
           "dihedral groups sit in singleton classes", "fixed")
def _check_families(result: CheckResult):
    certs = {expr: _family_graph(expr).certificate
             for expr in ("G(2,3)", "K(2,3)", "D8",
                          "G(2,4)", "K(2,4)", "H(4)", "D16", "Q16",
                          "G(2,5)", "K(2,5)", "H(5)", "D32", "Q32",
                          "G(3,3)", "K(3,3)")}

    def expect(a, b, same):
        result.tested += 1
        if (certs[a] == certs[b]) != same:
            _ce(result, pair=(a, b), expected="isomorphic" if same
                else "non-isomorphic")

    expect("G(2,4)", "K(2,4)", True)
    expect("G(2,5)", "K(2,5)", True)
    expect("G(3,3)", "K(3,3)", True)
    expect("G(2,3)", "D8", True)       # the order-8 modular group is dihedral
    expect("D8", "K(2,3)", False)
    expect("G(2,3)", "K(2,3)", False)
    for other in ("K(2,4)", "G(2,4)", "D16", "Q16"):
        expect("H(4)", other, False)
    for other in ("K(2,4)", "G(2,4)", "H(4)", "Q16"):
        expect("D16", other, False)
    for other in ("K(2,5)", "G(2,5)", "H(5)", "Q32"):
        expect("D32", other, False)
    for other in ("K(2,5)", "G(2,5)", "D32", "Q32"):
        expect("H(5)", other, False)


# -- global checks ----------------------------------------------------------


def _graph_classes(profiles) -> list[list[GroupProfile]]:
    buckets: dict[tuple, list[GroupProfile]] = {}
    for p in profiles:
        if p.graph_class is not None:
            buckets.setdefault(p.graph_class, []).append(p)
    classes = [sorted(v, key=lambda p: p.label) for v in buckets.values()]
    classes.sort(key=lambda c: (c[0].order, c[0].label))
    return classes


@_register("iso_order_spectrum",
           "groups with isomorphic non-cyclic graphs and equal order share "
           "their element-order spectrum; equal-graph pairs with different "
           "order would answer an open question and are logged", "global")
def _check_order_spectrum(profiles, result: CheckResult):
    for cls in _graph_classes(profiles):
        result.tested += len(cls)
        for a, b in combinations(cls, 2):
            if a.order != b.order:
                result.findings.append(
                    {"pair": (a.label, b.label),
                     "orders": (a.order, b.order),
                     "note": "isomorphic graphs with different group order"})
            elif a.pi_e != b.pi_e:
                _ce(result, pair=(a.label, b.label),
                    pi_e=(list(a.pi_e), list(b.pi_e)))


@_register("iso_cyc_divisibility",
           "when two non-cyclic graphs are isomorphic, each group "
           "cyclicizer size divides the gcd of the other graph's vertex "
           "degrees and vertex count", "global")
def _check_fi(profiles, result: CheckResult):
    for cls in _graph_classes(profiles):
        for a, b in combinations(cls, 2):
            for left, right in ((a, b), (b, a)):
                result.tested += 1
                bound = gcd(left.degrees_gcd, left.vertex_count)
                if bound % right.cyc_size:
                    _ce(result, pair=(left.label, right.label),
                        cyc_size=right.cyc_size, gcd=bound)


@_register("nilpotent_transfer",
           "if two groups with trivial cyclicizers have isomorphic graphs "
           "and one is nilpotent, so is the other, with isomorphic Sylow "
           "graphs prime by prime", "global")
def _check_transfer(profiles, result: CheckResult):
    """Compares nilpotency, then primes, then the profiles' Sylow-graph
    classes prime by prime; no group is rebuilt."""
    for cls in _graph_classes(profiles):
        for a, b in combinations([p for p in cls if p.cyc_size == 1], 2):
            if not (a.is_nilpotent or b.is_nilpotent):
                continue
            result.tested += 1
            if a.is_nilpotent != b.is_nilpotent:
                _ce(result, pair=(a.label, b.label),
                    nilpotent=(a.is_nilpotent, b.is_nilpotent))
                continue
            primes_a = [p for p, _ in a.sylow_classes]
            primes_b = [p for p, _ in b.sylow_classes]
            if primes_a != primes_b:
                _ce(result, pair=(a.label, b.label),
                    primes=(primes_a, primes_b))
                continue
            for (p, class_a), (_, class_b) in zip(a.sylow_classes,
                                                  b.sylow_classes):
                if class_a != class_b:
                    _ce(result, pair=(a.label, b.label), prime=p,
                        reason="Sylow graphs are not isomorphic")
                    break


@_register("multipartite_iso_condition",
           "for P x Z_n with P non-cyclic of prime exponent (|P| = p^m, "
           "m > 1, gcd(n, p) = 1), two such graphs are isomorphic exactly "
           "when the part-count and part-size equations both hold", "global")
def _check_goor(profiles, result: CheckResult):
    # regular_family's P is non-cyclic, so |P| = p^m with m > 1
    members = [p for p in profiles if p.graph_class is not None
               and p.regular_family and p.regular_family[0] == "P"]
    for a, b in combinations(members, 2):
        result.tested += 1
        (_, p1, m1, n1), (_, p2, m2, n2) = a.regular_family, b.regular_family
        c1, c2 = check_goormaghtigh_condition(p1, m1, n1, p2, m2, n2)
        iso = a.graph_class == b.graph_class
        if iso != (c1 and c2):
            _ce(result, pair=(a.label, b.label), condition=(c1, c2), iso=iso)


@_register("regular_uniqueness",
           "a graph isomorphic to that of Q8 x Z_n forces the same group; "
           "likewise for elementary abelian P x Z_n when P is a 2-group or "
           "has rank 2", "global")
def _check_regular_unique(profiles, result: CheckResult):
    for cls in _graph_classes(profiles):
        for anchor in [p for p in cls if p.regular_family is not None]:
            fam = anchor.regular_family
            covered = (fam[0] == "Q8"
                       or (fam[0] == "P" and (fam[1] == 2 or fam[2] == 2)))
            if not covered:
                continue
            result.tested += 1
            for other in cls:
                if other.regular_family != fam:
                    _ce(result, anchor=anchor.label, other=other.label,
                        families=(fam, other.regular_family))


@_register("dihedral_uniqueness",
           "a graph isomorphic to a dihedral graph of order 2n forces group "
           "order 2n with an element of order n, and for odd n forces the "
           "dihedral group itself", "global")
def _check_dihedral_unique(profiles, result: CheckResult):
    for cls in _graph_classes(profiles):
        anchor = next((p for p in cls if p.dihedral_n is not None), None)
        if anchor is None:
            continue
        n = anchor.dihedral_n
        for other in cls:
            result.tested += 1
            if other.order != 2 * n or n not in other.pi_e:
                _ce(result, anchor=anchor.label, other=other.label,
                    reason="order or element-order constraint fails")
                continue
            if n % 2 == 1 and other.dihedral_n != n:
                _ce(result, anchor=anchor.label, other=other.label,
                    reason="odd half-order class contains a non-dihedral group")


@_register("pgroup_order_recovery",
           "for a non-cyclic p-group of order p^e (e >= 3): a non-trivial "
           "group cyclicizer forces generalized quaternion on the whole "
           "class; and a self-cyclicizing element of order 2, p^(e-1) or "
           "p^(e-2) forces equal order across the class", "global")
def _check_pgroup_recovery(profiles, result: CheckResult):
    for cls in _graph_classes(profiles):
        for a in cls:
            if a.is_pgroup is None or a.is_pgroup[1] < 3:
                continue
            p, e = a.is_pgroup
            if a.cyc_size > 1:
                result.tested += 1
                if not a.is_gen_quaternion:
                    _ce(result, group=a.label,
                        reason="non-trivial cyclicizer without generalized "
                               "quaternion structure")
                    continue
                for other in cls:
                    if other.order != a.order or not other.is_gen_quaternion:
                        _ce(result, anchor=a.label, other=other.label,
                            reason="classmate is not the same generalized "
                                   "quaternion group")
                continue
            premise = ((p == 2 and 2 in a.self_cyc_orders)
                       or p ** (e - 1) in a.self_cyc_orders
                       or p ** (e - 2) in a.self_cyc_orders)
            if premise:
                result.tested += 1
                for other in cls:
                    if other.order != a.order:
                        _ce(result, anchor=a.label, other=other.label,
                            orders=(a.order, other.order))


# ---------------------------------------------------------------------------
# Runners


def _timed(result: CheckResult, fn: Callable, *args) -> Optional[str]:
    """What ``fn(*args, result)`` returns, its time added to the result. A
    library error it raises means the check's claim failed there: it is one
    counterexample, its reason, and the run goes on."""
    t0 = time.perf_counter()
    try:
        return fn(*args, result)
    except NonCyclicError as exc:
        _ce(result, reason=f"{type(exc).__name__}: {exc}")
    finally:
        result.elapsed_ms += 1000 * (time.perf_counter() - t0)


def _named(part: CheckResult, label: str) -> CheckResult:
    """``part``, with ``"group": label`` first in each of its records."""
    for records in filter(None, (part.counterexamples, part.findings)):
        records[:] = [{"group": label, **r} for r in records]
    return part


def _check_entry(az: AnalyzedGroup, name: str) -> CheckResult:
    """Per-entry check ``name`` on ``az``: skipped for the entry's error,
    as "cyclic" for a graph check on a cyclic group, or for the reason the
    check returns, else tested once; its records are ``_named``."""
    check = CHECKS[name]
    part = CheckResult(name, check.statement)
    if az.error is not None:
        reason = az.error
    elif check.kind == "graph" and az.graph is None:
        reason = "cyclic"
    else:
        reason = _timed(part, check.fn, az)
    part.tested = int(reason is None)
    if reason is not None:
        part.skipped.append((az.label, reason))
    return _named(part, az.label)


def _run_entry(entry: CatalogEntry, entry_checks: list[str],
               want_profile: bool, max_order: Optional[int]):
    """The entry's per-entry check results, then its profile if
    ``want_profile`` (a global check reads it), else None."""
    if max_order is not None:
        entry = replace(entry, max_order=max_order)
    az = analyze_entry(entry)
    outcomes = {name: _check_entry(az, name) for name in entry_checks}
    if not want_profile:
        return outcomes, None
    try:
        return outcomes, profile_of(az)
    except NonCyclicError as exc:
        return outcomes, GroupProfile(az.label, az.spec, error=(
            f"profile failed ({type(exc).__name__}: {exc})"))


def _merge(into: CheckResult, part: CheckResult) -> None:
    into.tested += part.tested
    into.skipped.extend(part.skipped)
    into.counterexamples.extend(part.counterexamples)
    into.findings.extend(part.findings)
    into.elapsed_ms += part.elapsed_ms


@contextmanager
def _mapper(jobs: int):
    """``map``, or the ``map`` of a pool of ``jobs`` processes, open until
    the block ends; either gives results in input order."""
    if jobs <= 1:
        yield map
        return
    # the pool's modules are imported only when it is used
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield partial(pool.map, chunksize=8)


def run_check(catalog: Catalog, name: str, jobs: int = 1) -> CheckResult:
    return run_all(catalog, jobs=jobs, names=[name])[0]


def run_all(catalog: Catalog, jobs: int = 1,
            names: Optional[list[str]] = None) -> list[CheckResult]:
    """Run the selected checks (all by default) over the catalog; results
    merge in catalog order whatever the number of jobs. The entries run
    first, then ``form_classes`` (on the same pool), then the global and
    the fixed checks."""
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise UnknownCheck(
            f"unknown check(s) {unknown}; available: {sorted(CHECKS)}")
    entry_checks = [n for n in names if CHECKS[n].kind in ("group", "graph")]
    global_checks = [n for n in names if CHECKS[n].kind == "global"]
    fixed_checks = [n for n in names if CHECKS[n].kind == "fixed"]
    results = {n: CheckResult(n, CHECKS[n].statement) for n in names}

    profiles: list[GroupProfile] = []
    if entry_checks or global_checks:
        run_entry = partial(_run_entry, entry_checks=entry_checks,
                            want_profile=bool(global_checks),
                            max_order=catalog.max_order)
        with _mapper(jobs) as mapper:
            for outcomes, prof in mapper(run_entry, catalog.entries):
                for name, part in outcomes.items():
                    _merge(results[name], part)
                if prof is not None:
                    profiles.append(prof)
            if global_checks:
                form_classes(profiles, mapper)
    ok_profiles = [p for p in profiles if p.error is None]
    for p in profiles:
        if p.error is not None or p.cert_error is not None:
            reason = (p.error if p.error is not None
                      else f"no certificate ({p.cert_error})")
            for name in global_checks:
                results[name].skipped.append((p.label, reason))
    for name in global_checks:
        _timed(results[name], CHECKS[name].fn, ok_profiles)
    for name in fixed_checks:
        _timed(results[name], CHECKS[name].fn)
    return [results[n] for n in names]


def all_pass(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


def report_json(results: list[CheckResult], with_timing: bool = False) -> str:
    return json.dumps([r.to_json_dict(with_timing) for r in results],
                      indent=2)


def render_table(results: list[CheckResult]) -> str:
    name_w = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        extra = ""
        if r.counterexamples:
            extra = f"  counterexamples={len(r.counterexamples)}"
        elif r.findings:
            extra = f"  findings={len(r.findings)}"
        lines.append(f"{r.name:<{name_w}}  {status}  tested={r.tested}"
                     f" skipped={len(r.skipped)}{extra}")
    total = "PASS" if all_pass(results) else "FAIL"
    lines.append(f"overall: {total}")
    return "\n".join(lines)
