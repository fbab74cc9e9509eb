"""The non-cyclic graph of a finite group and its invariants.

Vertices are the elements outside the group cyclicizer; x ~ y when y is not
in Cyc(x), so vertices with one cyclicizer are false twins and the graph is
the blow-up of a quotient Q, one vertex per non-central Cyc(x), held as bit
rows. Invariants, eccentricities and distances read Q alone; twin
contraction belongs to ``canon``. Only ``to_dot`` and a canonical form's
matrix and bijection check expand the whole graph's ``adjacency``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property, reduce
from math import factorial
from typing import Optional, Sequence

import numpy as np

from .cyclicizers import (CyclicizerTable, _bit_matrix, _bit_rows,
                          bits_to_indices, cyclicizer_table, distinct_rows,
                          prime_graph)
from .errors import (Disconnected, GroupIsCyclic, InvalidParameter,
                     VerificationFailure)
from .groups import Group, is_cyclic_group


@dataclass(frozen=True)
class NonCyclicGraph:
    """The blow-up of Q, whose vertices ascend by least member."""
    group: Group
    vertices: tuple      # group element indices, ascending
    class_of: tuple      # vertex position -> Q vertex
    qrows: tuple         # bitset rows over Q vertices
    members: tuple       # Q vertex -> its vertex positions, ascending
    class_degrees: tuple  # Q vertex -> its members' degree

    @cached_property
    def adjacency(self) -> tuple:
        """Bitset rows over vertex positions, one object per Q vertex; only
        ``to_dot`` and a canonical form's matrix and bijection check expand
        it."""
        rows = _bit_rows(_bit_matrix(self.qrows).take(self.class_of, 1))
        return tuple(map(rows.__getitem__, self.class_of))

    @cached_property
    def positions(self) -> dict:
        """Group element -> vertex position."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def degree_census(self) -> tuple:
        """Sorted (degree, count) pairs."""
        return tuple(sorted(Counter(map(self.class_degrees.__getitem__,
                                        self.class_of)).items()))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def degree(self, pos: int) -> int:
        return self.class_degrees[self.class_of[pos]]

    def vertex_label(self, pos: int) -> str:
        return self.group.labels[self.vertices[pos]]


def _graph_on(group: Group, rows: np.ndarray, row_of: np.ndarray,
              elements: Optional[np.ndarray] = None) -> NonCyclicGraph:
    """The graph of ``group``, or of its subgroup on ascending ``elements``,
    from its distinct cyclicizers (``distinct_rows``); row 0 is central."""
    local = np.flatnonzero(row_of)
    class_of = (row_of[local] - 1).tolist()
    members = [[] for _ in range(len(rows) - 1)]
    for p, c in enumerate(class_of):
        members[c].append(p)
    # Q_ij: y not in Cyc(x), for any x in class i and y in class j; x is
    # joined to every vertex outside Cyc(x), which holds the centre
    qrows = _bit_rows(~rows[1:].take(local[[m[0] for m in members]], 1))
    degrees = len(row_of) - rows[1:].view(np.uint8).sum(axis=1)
    vertices = local if elements is None else elements[local]
    return NonCyclicGraph(group, tuple(vertices.tolist()), tuple(class_of),
                          qrows, tuple(map(tuple, members)),
                          tuple(degrees.tolist()))


def build_graph(group: Group,
                ctable: Optional[CyclicizerTable] = None) -> NonCyclicGraph:
    """Build the non-cyclic graph; raises GroupIsCyclic when undefined."""
    if is_cyclic_group(group):
        raise GroupIsCyclic(f"{group.label} is cyclic")
    if ctable is None:
        ctable = cyclicizer_table(group)
    return _graph_on(group, *ctable.distinct)


def subgroup_graph(group: Group, ctable: CyclicizerTable,
                   members: Sequence[int]) -> NonCyclicGraph:
    """The graph of the subgroup H on ascending ``members``, identity first."""
    rows, row_of = ctable.distinct
    mem = np.asarray(members)
    sub = _bit_rows(rows[row_of[mem]].take(mem, 1))    # Cyc_H(x) = Cyc(x) & H
    return _graph_on(group, *distinct_rows(sub), mem)


# ---------------------------------------------------------------------------
# Invariants


def _bfs_levels(adj: Sequence[int], start: int):
    """Yield (distance, frontier bitset); stops when no new vertices."""
    visited = frontier = 1 << start
    dist = 0
    while frontier:
        yield dist, frontier
        nxt = 0
        for v in bits_to_indices(frontier):
            nxt |= adj[v]
        frontier = nxt & ~visited
        visited |= frontier
        dist += 1


@dataclass(frozen=True)
class DiameterInfo:
    diameter: int
    witness: tuple        # (pos, pos), lexicographically least pair
    eccentricities: tuple

    def witness_labels(self, graph: NonCyclicGraph) -> tuple:
        return tuple(graph.vertex_label(p) for p in self.witness)


def diameter_info(graph: NonCyclicGraph) -> DiameterInfo:
    """Eccentricities on Q; asserts connectivity (a disconnected non-cyclic
    graph would contradict the connectivity theorem and raises
    Disconnected).

    Q is the graph on one member per class, and a member's distance to any
    other class is its class's distance in Q, so a vertex's eccentricity is
    its class's in Q, raised to 2 when it has class mates: they are not
    joined, and in a connected graph they share a neighbour. A search from
    the least vertex s of maximum eccentricity, on Q, checks connectivity
    and finds the witness.
    """
    qrows, members = graph.qrows, graph.members
    k = len(qrows)
    apart = Disconnected(f"graph of {graph.group.label} is not connected")
    # all balls grow at once, ball <- ball | ball.A, by numpy's own boolean
    # product (no BLAS), which stops a sum at its first true term: so the
    # steps start from the radius-1 balls; no eccentricity reaches k
    adj = _bit_matrix(qrows)
    ball = adj | np.eye(k, dtype=bool)
    ecc_q = np.full(k, min(k - 1, 1))
    while not (full := ball.all(axis=1)).all():
        ecc_q += ~full
        if ecc_q.max() >= k:
            raise apart
        ball |= ball @ adj
    ecc_q = [max(e, 2) if len(m) > 1 else e
             for e, m in zip(ecc_q.tolist(), members)]
    ecc = tuple(map(ecc_q.__getitem__, graph.class_of))
    diam = max(ecc)
    s = ecc.index(diam)
    c = graph.class_of[s]
    reached = 0
    for dist, frontier in _bfs_levels(qrows, c):
        reached |= frontier
    mate = members[c][1:2]
    if reached != (1 << k) - 1 or mate and not dist:
        raise apart
    # the least vertex at maximum distance from s
    far = members[(frontier & -frontier).bit_length() - 1][0]
    if mate and dist <= 2:
        far, dist = min(far, mate[0]) if dist == 2 else mate[0], 2
    if dist != diam:
        raise VerificationFailure(
            "eccentricity on Q disagrees with the search on Q")
    return DiameterInfo(diam, (s, far), ecc)


def distance(graph: NonCyclicGraph, pos_a: int, pos_b: int) -> int:
    """The distance between two vertex positions, read on Q: class mates
    are at distance 2, any other pair at its classes' distance in Q."""
    if not (0 <= pos_a < graph.n_vertices and 0 <= pos_b < graph.n_vertices):
        raise InvalidParameter(
            f"vertex position out of range: {(pos_a, pos_b)}")
    a, b = graph.class_of[pos_a], graph.class_of[pos_b]
    if a != b:
        for d, frontier in _bfs_levels(graph.qrows, a):
            if (frontier >> b) & 1:
                return d
    elif pos_a == pos_b:
        return 0
    elif graph.qrows[a]:    # class mates are not joined, but share neighbours
        return 2
    raise Disconnected(f"no path between positions {pos_a} and {pos_b}")


@dataclass(frozen=True)
class CliqueChromatic:
    omega: int
    clique: tuple        # vertex positions, pairwise adjacent
    chi: int
    coloring: tuple      # color per vertex position


def clique_and_chromatic(graph: NonCyclicGraph,
                         ctable: Optional[CyclicizerTable] = None
                         ) -> CliqueChromatic:
    """Clique and chromatic numbers via the maximal-cyclic-subgroup count.

    The designated generators of the maximal cyclic subgroups form a clique,
    and coloring each vertex by the first maximal cyclic subgroup containing
    it is proper, so both bounds meet at s; the colours are read off the s
    maximal rows, which cover G. Both witnesses are validated before
    returning; a failure indicates an implementation bug.
    """
    if ctable is None:
        ctable = cyclicizer_table(graph.group)
    maximal = ctable.maximal
    s = len(maximal)
    cyc = ctable.cyc_bits
    if any((cyc >> m.generator) & 1 for m in maximal):
        raise VerificationFailure(
            "maximal cyclic generator sits in the group cyclicizer")
    clique = tuple(graph.positions[m.generator] for m in maximal)
    qrows, class_of = graph.qrows, graph.class_of
    at = [class_of[a] for a in clique]      # the clique's Q vertices
    mask = sum(1 << c for c in set(at))
    # a repeated generator, or two in one class, misses an edge too
    if mask.bit_count() < s or any(mask & ~qrows[c] != 1 << c for c in at):
        raise VerificationFailure("clique witness has a missing edge")
    # colour: the first maximal cyclic subgroup that holds the vertex
    bits, n = [m.bits for m in maximal], graph.group.order
    if reduce(int.__or__, bits) != (1 << n) - 1:
        raise VerificationFailure("vertex lies in no maximal cyclic subgroup")
    colour = _bit_matrix(bits, n).argmax(axis=0).tolist()
    coloring = tuple(map(colour.__getitem__, graph.vertices))
    on = [0] * s      # the Q vertices of each colour, which Q must not join
    for c, i in set(zip(class_of, coloring)):
        on[i] |= 1 << c
    if any(qrows[c] & m for m in on for c in bits_to_indices(m)):
        raise VerificationFailure("coloring is not proper")
    return CliqueChromatic(s, clique, s, coloring)


def _max_clique_bits(rows: Sequence[int], weights: Sequence[int]):
    """Exact maximum-weight clique by branch and bound on bitsets."""
    best = 0
    best_set = 0

    def expand(cand: int, cur_set: int, cur: int):
        nonlocal best, best_set
        while cand:
            if cur + sum(weights[v] for v in bits_to_indices(cand)) <= best:
                return
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            new_set = cur_set | b
            new = cur + weights[v]
            new_cand = cand & rows[v]
            if new > best:
                best = new
                best_set = new_set
            if new_cand:
                expand(new_cand, new_set, new)

    expand((1 << len(rows)) - 1, 0, 0)
    return best, best_set


@dataclass(frozen=True)
class IndependenceInfo:
    alpha: int
    formula_value: int
    brute_value: Optional[int]   # None when the brute-force cap is exceeded
    witness: tuple               # vertex positions, pairwise non-adjacent
    mismatch: bool


_BRUTE_CAP = 64


def independence_info(graph: NonCyclicGraph,
                      ctable: Optional[CyclicizerTable] = None
                      ) -> IndependenceInfo:
    """Independence number: closed form (largest element order minus the
    group cyclicizer size) plus an exact cross-check for small graphs.

    A disagreement is reported, not resolved: alpha is the max of the two
    and ``mismatch`` flags the case.
    """
    group = graph.group
    if ctable is None:
        ctable = cyclicizer_table(group)
    e = max(group.order_counts)
    formula = e - ctable.cyc_size
    gen = group.elem_orders.index(e)
    members = group.generated_cyclic_bits(gen) & ~ctable.cyc_bits
    witness = tuple(graph.positions[v] for v in bits_to_indices(members))
    if len(witness) != formula:
        raise VerificationFailure(
            "independent-set witness does not meet the closed form; the "
            "group cyclicizer escaped a maximum-order cyclic subgroup")
    qwitness = {graph.class_of[a] for a in witness}
    mask = sum(1 << c for c in qwitness)
    if any(graph.qrows[c] & mask for c in qwitness):
        raise VerificationFailure("independence witness has an edge")
    brute = None
    if graph.n_vertices <= _BRUTE_CAP:
        # false twins are not joined: weight Q's vertices by class size
        full = (1 << len(graph.qrows)) - 1
        comp = [~row & full & ~(1 << c) for c, row in enumerate(graph.qrows)]
        brute, bset = _max_clique_bits(comp, [len(m) for m in graph.members])
        if brute < formula:
            raise VerificationFailure(
                "exact independence number fell below the closed form")
        if brute > formula:
            witness = tuple(sorted(p for c in bits_to_indices(bset)
                                   for p in graph.members[c]))
    alpha = max(formula, brute if brute is not None else formula)
    return IndependenceInfo(alpha, formula, brute, witness,
                            brute is not None and brute != formula)


def degree_kinds(graph: NonCyclicGraph):
    """(sorted (degree, count) pairs, number of kinds, is_regular)."""
    multiset = graph.degree_census
    return multiset, len(multiset), len(multiset) == 1


def multipartite_profile(graph: NonCyclicGraph) -> Optional[list[int]]:
    """Sorted part sizes when the graph is complete multipartite, else None.

    The parts of a complete multipartite graph are its false-twin classes,
    Q's vertices, so it is complete multipartite iff Q is complete.
    """
    full = (1 << len(graph.qrows)) - 1
    if any(row != full & ~(1 << c) for c, row in enumerate(graph.qrows)):
        return None
    return sorted(len(m) for m in graph.members)


@dataclass(frozen=True)
class OmegaBoundInfo:
    s: int
    index: int                      # |G : Cyc(G)|
    index_bound_ok: bool            # s <= index
    covering_value: Optional[int]   # factorial bound, None when s < 3
    covering_ok: Optional[bool]

    @property
    def holds(self) -> bool:
        return self.index_bound_ok and self.covering_ok is not False


def omega_bound_info(group: Group,
                     ctable: Optional[CyclicizerTable] = None
                     ) -> OmegaBoundInfo:
    """Check s <= |G : Cyc(G)| and, for s >= 3, the covering bound
    |G/Cyc(G)| <= max((s-1)^2 (s-3)!, (s-2)^3 (s-3)!)."""
    if ctable is None:
        ctable = cyclicizer_table(group)
    s = len(ctable.maximal)
    index = group.order // ctable.cyc_size
    index_ok = s <= index
    if s < 3:
        return OmegaBoundInfo(s, index, index_ok, None, None)
    f = factorial(s - 3)
    bound = max((s - 1) ** 2 * f, (s - 2) ** 3 * f)
    return OmegaBoundInfo(s, index, index_ok, bound, index <= bound)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class InvariantReport:
    label: str
    order: int
    cyc_size: int
    vertex_count: int
    degree_multiset: tuple
    kind_degrees: int
    is_regular: bool
    is_connected: bool
    diameter: int
    clique_number: int
    chromatic_number: int
    s: int
    independence_number: int
    multipartite_profile: Optional[tuple]
    prime_graph_components: int

    def to_json_dict(self) -> dict:
        return {name: _json_value(getattr(self, name))
                for name in REPORT_FIELDS}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def csv_header() -> str:
        return ",".join(REPORT_FIELDS)

    def to_csv_row(self) -> str:
        cells = []
        for name in REPORT_FIELDS:
            val = getattr(self, name)
            if isinstance(val, (tuple, bool)) or val is None:
                cell = json.dumps(_json_value(val))
            else:
                cell = str(val)
            if "," in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        return ",".join(cells)


REPORT_FIELDS = tuple(f.name for f in fields(InvariantReport))


def _json_value(val):
    """``val`` with a tuple, and each tuple in it, made a list."""
    if isinstance(val, tuple):
        return [list(v) if isinstance(v, tuple) else v for v in val]
    return val


def invariant_report(group: Group,
                     ctable: Optional[CyclicizerTable] = None,
                     graph: Optional[NonCyclicGraph] = None,
                     label: Optional[str] = None) -> InvariantReport:
    """Full invariant record for one non-cyclic group."""
    if ctable is None:
        ctable = cyclicizer_table(group)
    if graph is None:
        graph = build_graph(group, ctable)
    multiset, kinds, regular = degree_kinds(graph)
    diam = diameter_info(graph)
    cc = clique_and_chromatic(graph, ctable)
    alpha = independence_info(graph, ctable)
    profile = multipartite_profile(graph)
    pg = prime_graph(group)
    return InvariantReport(
        label=label or group.label,
        order=group.order,
        cyc_size=ctable.cyc_size,
        vertex_count=graph.n_vertices,
        degree_multiset=multiset,
        kind_degrees=kinds,
        is_regular=regular,
        is_connected=True,
        diameter=diam.diameter,
        clique_number=cc.omega,
        chromatic_number=cc.chi,
        s=len(ctable.maximal),
        independence_number=alpha.alpha,
        multipartite_profile=tuple(profile) if profile is not None else None,
        prime_graph_components=pg.component_count,
    )


def to_dot(graph: NonCyclicGraph) -> str:
    """DOT text; vertex names are group element labels."""

    def q(s: str) -> str:
        return '"' + s.replace('"', '\\"') + '"'

    lines = [f"graph {q(graph.group.label)} {{"]
    for pos in range(graph.n_vertices):
        lines.append(f"  {q(graph.vertex_label(pos))};")
    for a, row in enumerate(graph.adjacency):
        for b in bits_to_indices(row >> (a + 1)):
            lines.append(f"  {q(graph.vertex_label(a))} -- "
                         f"{q(graph.vertex_label(a + 1 + b))};")
    lines.append("}")
    return "\n".join(lines) + "\n"
