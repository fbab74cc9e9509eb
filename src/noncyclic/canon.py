"""Canonical forms and isomorphism testing for non-cyclic graphs.

Two graphs are isomorphic iff their certificates are equal. The pipeline
alternately contracts false-twin classes (equal neighborhoods) and
true-twin classes (equal closed neighborhoods) from a graph's quotient Q
or from bare rows, here alone (``twin_contraction``), and canonicalizes the
type-annotated quotient by individualization-refinement with
node-invariant, orbit and backjump pruning, the orbits fed by automorphisms
found at leaves and guessed beside the first path. The certificate is the
canonical annotated quotient; a form expands back to the whole graph's
labeling and canonical matrix only when asked, and only that matrix and the
bijection check expand a graph's ``adjacency``.
Non-cyclic graphs collapse hard under the contraction: the complete
multipartite ones, the dominant case, reduce to a handful of vertices.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate
from math import gcd, inf, isnan, nan
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .cyclicizers import _bit_matrix, _bit_rows
from .errors import (InvalidParameter, Timeout, TooLarge,
                     VerificationFailure)
from .graph import NonCyclicGraph
from .groups import _is_prime

DEFAULT_VERTEX_CAP = 2048
DEFAULT_TIMEOUT_SECS = 30.0
TIMEOUT_ENV_VAR = "NONCYC_TIMEOUT_SECS"


def induced_rows(rows: Sequence[int], idx: Sequence[int]) -> tuple:
    """Rows of the subgraph induced on the vertices idx, with idx[i]
    renamed to i."""
    # unpack only the kept rows; a take gathers faster than an np.ix_ index
    return _bit_rows(_bit_matrix([rows[i] for i in idx], len(rows))
                     .take(idx, 1))


def relabel_rows(rows: Sequence[int], perm: Sequence[int]) -> tuple:
    """Rows of the graph with vertex v renamed to perm[v]."""
    return induced_rows(rows, np.argsort(perm))


def _rows_of(graph_or_rows) -> tuple:
    """The whole graph's bit rows; a graph expands its ``adjacency``."""
    if isinstance(graph_or_rows, NonCyclicGraph):
        return graph_or_rows.adjacency
    return tuple(graph_or_rows)


def _vertex_count(graph_or_rows) -> int:
    if isinstance(graph_or_rows, NonCyclicGraph):
        return graph_or_rows.n_vertices
    return len(graph_or_rows)


@cache
def _descriptor(tag, size, inner):
    """The twin-class descriptor (tag, size, inner), one object per value:
    profiles keep every quotient, and distinct values are few."""
    return tag, size, inner


def _merge_classes(keys, qrows, descs, members, tag):
    """One contraction round over the vertices' ``keys``, in vertex order;
    the merged arrays, or None when every class is a singleton. Quotient
    vertices ascend by least member, which their members list first, so the
    classes, in order of first appearance, ascend by least member and list
    their vertices in member order: the merged vertices keep the invariant."""
    classes: dict = {}
    for v, key in enumerate(keys):
        classes.setdefault(key, []).append(v)
    if len(classes) == len(qrows):
        return None
    classes = list(classes.values())
    # twins share their neighborhoods, so the representatives' induced
    # subgraph is the quotient
    new_rows = induced_rows(qrows, [cls[0] for cls in classes])
    new_descs = tuple(descs[cls[0]] if len(cls) == 1
                      else _descriptor(tag, len(cls), descs[cls[0]])
                      for cls in classes)
    new_members = tuple(members[cls[0]] if len(cls) == 1
                        else tuple(u for v in cls for u in members[v])
                        for cls in classes)
    return new_rows, new_descs, new_members


def twin_contraction(graph_or_rows) -> tuple:
    """Alternately contract classes of false twins (equal neighborhoods,
    mutually non-adjacent) and true twins (equal closed neighborhoods,
    mutually adjacent) carrying equal nested type descriptors, from the
    lone vertices of bare rows or, for a ``NonCyclicGraph``, from Q, whose
    vertices are its false-twin classes, so its first round is true twins.

    Returns tuples of quotient rows, descriptors and original members per
    quotient vertex. A descriptor is ("v",) for a lone vertex, else (tag,
    class size, member descriptor) with tag "I" or "C" for false or true.

    Interchanging two members of a class is an automorphism, and the
    member-order adjacency pattern of a contracted vertex is a function of
    its descriptor alone, so expansion in any fixed member order yields a
    labeling-invariant matrix.
    """
    return _contract(graph_or_rows, inf)


def _contract(graph_or_rows, deadline: float) -> tuple:
    """``twin_contraction``, with ``deadline`` checked between rounds."""
    false_round = not isinstance(graph_or_rows, NonCyclicGraph)
    qrows = tuple(graph_or_rows) if false_round else graph_or_rows.qrows
    members = (tuple((v,) for v in range(len(qrows))) if false_round
               else graph_or_rows.members)
    descs = tuple(_descriptor("I", len(m), ("v",)) if len(m) > 1 else ("v",)
                  for m in members)
    while True:
        merged = false_round and _merge_classes(zip(qrows, descs), qrows,
                                                descs, members, "I")
        if not merged:
            closed = [r | 1 << v for v, r in enumerate(qrows)]
            merged = _merge_classes(zip(closed, descs), qrows, descs,
                                    members, "C")
        if merged is None:
            return qrows, descs, members
        _check_deadline(deadline)
        (qrows, descs, members), false_round = merged, True


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical form of an n-vertex graph whose twin quotient has k
    vertices. ``certificate`` is n and k (8 bytes each, big-endian), the
    canonical quotient's k bit rows ((k + 7) // 8 bytes each, big-endian)
    and the quotient vertices' twin descriptors in canonical order (see
    ``_descriptor_bytes``). The quotient rows and the descriptors determine
    the expanded graph, so two graphs are isomorphic iff their certificates
    are equal, and ``==`` compares forms by certificate alone.

    ``labeling`` (labeling[original position] = canonical position) and
    ``matrix`` (the canonical adjacency bit rows of the whole graph) are
    computed on first use from the quotient's canonical labeling and the
    twin classes' members; only bijections need them."""

    vertex_count: int
    certificate: bytes
    # (k, nodes, leaves, automorphisms, backjumps) of the search on the
    # k-vertex twin quotient; not part of the form. automorphisms counts
    # those found at leaves and those guessed and verified at first-path
    # siblings; a guess settles its node without a leaf or a backjump
    effort: tuple = field(compare=False)
    source: object = field(compare=False, repr=False)   # graph or rows
    # canonical position -> quotient vertex, and each quotient vertex's
    # members in expansion order
    quotient_labeling: tuple = field(compare=False, repr=False)
    members: tuple = field(compare=False, repr=False)

    @cached_property
    def hash_hex(self) -> str:
        """128-bit digest of the certificate."""
        # imported here: only noncyc compare prints a digest
        from hashlib import blake2b
        return blake2b(self.certificate, digest_size=16).hexdigest()

    @cached_property
    def labeling(self) -> tuple:
        if self.members is None:
            raise InvalidParameter("a form of a bare twin quotient has no "
                                   "labeling of the whole graph")
        # the inverse of the expansion order
        return tuple(np.argsort([v for qv in self.quotient_labeling
                                 for v in self.members[qv]]).tolist())

    @cached_property
    def matrix(self) -> tuple:
        return relabel_rows(_rows_of(self.source), self.labeling)


class TwinQuotient(NamedTuple):
    """What a certificate needs of an n-vertex graph: its iterated twin
    quotient's rows and descriptors (see ``twin_contraction``). It is small
    and picklable, so it can travel without the graph; a form computed from
    it has no ``labeling`` or ``matrix``."""

    n: int
    rows: tuple
    descs: tuple

    @classmethod
    def of(cls, graph_or_rows) -> "TwinQuotient":
        qrows, descs, members = twin_contraction(graph_or_rows)
        return cls(sum(map(len, members)), qrows, descs)


def _deadline(timeout: Optional[float]) -> float:
    if timeout is None:
        env = os.environ.get(TIMEOUT_ENV_VAR)
        try:
            timeout = float(env) if env else DEFAULT_TIMEOUT_SECS
        except ValueError:
            timeout = nan
        if isnan(timeout):
            raise InvalidParameter(
                f"{TIMEOUT_ENV_VAR} must be a number of seconds, not {env!r}")
    return time.monotonic() + timeout


def _check_deadline(deadline: float) -> None:
    if time.monotonic() > deadline:
        raise Timeout("canonical form search exceeded its time budget")


# ---------------------------------------------------------------------------
# Individualization-refinement on the twin-contracted quotient


def _codegree_split(qrows: Sequence[int], cells: list[list[int]],
                    pivot: int) -> list[list[int]]:
    """Split every cell by common-neighbor count with the pivot vertex.

    One bounded pass of 2-dimensional information; it cracks cells whose
    members plain counting cannot separate after an individualization.
    """
    pivot_row = qrows[pivot]
    out = []
    for cell in cells:
        if len(cell) == 1:
            out.append(cell)
            continue
        sig: dict[int, list[int]] = {}
        for v in cell:
            sig.setdefault((qrows[v] & pivot_row).bit_count(), []).append(v)
        if len(sig) == 1:
            out.append(cell)
        else:
            for key in sorted(sig):
                out.append(sig[key])
    return out


class _Backjump(Exception):
    """Unwind the search to the node at the given prefix depth."""

    def __init__(self, depth):
        super().__init__(depth)
        self.depth = depth


_BIG_ENDIAN_UINTS = tuple(np.dtype(f">u{w}") for w in (1, 2, 4, 8))


def _invariant_dtype(k: int) -> np.dtype:
    """Big-endian unsigned integers of the fewest bytes (1, 2, 4 or 8) that
    hold k. Fixed-width big-endian bytes of non-negative integers compare
    like the tuple of the integers, a proper prefix first."""
    return next(d for d in _BIG_ENDIAN_UINTS if k >> (8 * d.itemsize) == 0)


class _Search:
    """Individualization-refinement on the twin quotient. The best leaf is
    the first leaf, in depth-first order of the unpruned tree, that carries
    the least key (node invariants along its path, then its matrix); every
    pruning step removes only subtrees that an automorphism maps onto ground
    already explored or on a worse invariant, so it never removes that leaf,
    and the form and the labeling do not depend on which automorphisms turn
    up or when.

    Automorphisms come from two places. A leaf with the first or the best
    leaf's matrix gives one. And at a sibling of the first path, the node
    with prefix first_path[:d] + (w,), w != first_path[d], whose invariant
    equals the first path's at depth d + 1, the search guesses one before
    descending (nauty's cheap automorphisms, McKay & Piperno 2014): pair the
    node's ordered cells P_i with the first path's Q_i at depth d + 1, fix
    P_i & Q_i and map sorted(P_i - Q_i) onto sorted(Q_i - P_i) in order. A
    guess counts only once verified: it preserves adjacency and the initial
    vertex keys, fixes first_path[:d] and sends w to first_path[d]. The
    node's subtree is then its image of the first path's, fully explored,
    so the node returns and orbit pruning in the parent skips the rest of
    w's orbit; a rejected guess leaves the node to descend as usual."""

    # the triangle census runs in row blocks of about this many
    # multiply-adds, with a deadline check before each block
    CENSUS_BLOCK_OPS = 1 << 24

    def __init__(self, qrows, descs, deadline):
        self.qrows = qrows
        self.k = len(qrows)
        self.deadline = deadline
        self.best_key = None
        self.best_lab = None       # canonical position -> quotient vertex
        self.first_mat = None      # first leaf; a second automorphism anchor
        self.first_lab = None
        self.first_path = None
        self.first_seq = None      # node invariants along the first path
        self.first_path_idx = None
        # refined cells along the first path, each turned into a
        # _cell_index array when a guess first needs it
        self.first_cells = []
        self.autos: list[tuple] = []
        self.supports: list[int] = []  # bitset of the points each moves
        self._auto_seen: set = set()
        self.adj_bool = _bit_matrix(qrows)
        # integer adjacency: a segment sum of booleans would be an or
        self.adj = self.adj_bool.astype(np.int32)
        # a node invariant's cell sizes and neighbor counts are at most k
        self.inv_dtype = _invariant_dtype(self.k)
        # label-invariant initial vertex keys: descriptors plus a triangle
        # census of the quotient, a cheap invariant that plain refinement
        # misses. einsum's integer product needs no BLAS and is several
        # times faster than matmul's at these sizes.
        census = []
        block = max(1, self.CENSUS_BLOCK_OPS // (self.k * self.k))
        for i in range(0, self.k, block):
            _check_deadline(self.deadline)
            rows = self.adj[i:i + block]
            census.extend((np.einsum("ij,jk->ik", rows, self.adj)
                           * rows).sum(axis=1, dtype=np.int64).tolist())
        self.keys = list(zip(descs, census))
        # search effort
        self.nodes = self.leaves = self.automorphisms = self.backjumps = 0

    def run(self):
        order = sorted(range(self.k), key=lambda v: self.keys[v])
        cells: list[list[int]] = []
        for v in order:
            if cells and self.keys[cells[-1][0]] == self.keys[v]:
                cells[-1].append(v)
            else:
                cells.append([v])
        # initial cell of each vertex: a guess must keep it
        self.key_class = self._cell_index(cells)
        self._search(cells, (), ())
        return self.best_lab

    def _cell_index(self, cells):
        """Array mapping each vertex to the index of its cell."""
        out = np.empty(self.k, np.intp)
        out[[v for c in cells for v in c]] = np.repeat(
            np.arange(len(cells)), [len(c) for c in cells])
        return out

    def _refine(self, cells):
        """Coarsest equitable refinement and its node invariant. Each pass
        counts every vertex's neighbors in every cell with one segment sum;
        a cell splits by its members' count rows, and its new cells are
        ordered by those rows, which keeps the procedure labeling-invariant.
        The invariant is the cell sizes and the representatives' count rows
        of the last, stable pass, each as the bytes of one inv_dtype array:
        two invariants compare like the tuples of their integers, so no
        node turns its counts into Python ints."""
        while True:
            sizes = [len(c) for c in cells]
            starts = list(accumulate(sizes[:-1], initial=0))
            order = [v for c in cells for v in c]
            counts = np.add.reduceat(self.adj[:, order], starts,
                                     axis=1)[order]
            # rows are in cell order: a cell is equitable iff its
            # consecutive rows agree
            step = (counts[1:] != counts[:-1]).any(axis=1)
            step[[s - 1 for s in starts[1:]]] = False
            if not step.any():
                return cells, (np.array(sizes, self.inv_dtype).tobytes(),
                               counts[starts].astype(self.inv_dtype).tobytes())
            new_cells = []
            for cell, s in zip(cells, starts):
                if not step[s:s + len(cell) - 1].any():
                    new_cells.append(cell)
                    continue
                sig: dict[tuple, list[int]] = {}
                for v, row in zip(cell, counts[s:s + len(cell)].tolist()):
                    sig.setdefault(tuple(row), []).append(v)
                new_cells.extend(sig[key] for key in sorted(sig))
            cells = new_cells

    def _leaf(self, cells, seq, fixed):
        self.leaves += 1
        lab = [c[0] for c in cells]
        mat = _bit_rows(self.adj_bool.take(lab, 0).take(lab, 1))
        key = (seq, mat)
        auto = None
        if self.first_mat is None:
            self.first_mat = mat
            self.first_lab = lab
            self.first_path = fixed
            self.first_seq = seq
            self.first_path_idx = np.array(fixed, np.intp)
        elif mat == self.first_mat:
            auto = self._record_auto(lab, self.first_lab)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_lab = lab
        elif mat == self.best_key[1]:
            self._record_auto(lab, self.best_lab)
        if auto is not None:
            # If gamma fixes the common prefix with the first path and sends
            # the divergence vertex to the first path's choice, the rest of
            # this subtree is the gamma-image of fully explored ground.
            gamma, support = auto
            c = 0
            while (c < len(fixed) and c < len(self.first_path)
                   and fixed[c] == self.first_path[c]):
                c += 1
            if (c < len(fixed) and c < len(self.first_path)
                    and not support & sum(1 << f for f in fixed[:c])
                    and gamma[fixed[c]] == self.first_path[c]):
                self.backjumps += 1
                raise _Backjump(c)

    def _record_auto(self, lab, ref_lab):
        """The automorphism lab[p] -> ref_lab[p] with its support, or None
        for the identity."""
        gamma = [0] * self.k
        for p in range(self.k):
            gamma[lab[p]] = ref_lab[p]
        g = tuple(gamma)
        support = sum(1 << v for v in range(self.k) if g[v] != v)
        if not support:
            return None
        self._add_auto(g, support)
        return g, support

    def _add_auto(self, g, support):
        if g not in self._auto_seen:
            self._auto_seen.add(g)
            self.autos.append(g)
            self.supports.append(support)
            self.automorphisms += 1

    def _guess(self, cells, inv, fixed):
        """Whether a verified guessed automorphism settles the node with
        refined cells ``cells``, invariant ``inv`` and prefix ``fixed`` (see
        the class docstring); the guess is recorded like a leaf's. Until
        the first leaf, the nodes are the first path's, and their cells are
        kept instead."""
        fp = self.first_path
        if fp is None:
            self.first_cells.append(cells)
            return False
        d = len(fixed) - 1
        if (d < 0 or d >= len(fp) or fixed[d] == fp[d]
                or inv != self.first_seq[d + 1] or fixed[:d] != fp[:d]):
            return False
        first = self.first_cells[d + 1]
        if not isinstance(first, np.ndarray):
            first = self.first_cells[d + 1] = self._cell_index(first)
        mine = self._cell_index(cells)
        moved = mine != first
        # equal invariants give equal cell sizes, so P_i - Q_i and Q_i - P_i
        # have equal sizes: sorting the moved points by cell pairs them
        movers = np.flatnonzero(moved)
        src = movers[np.argsort(mine[movers], kind="stable")]
        dst = movers[np.argsort(first[movers], kind="stable")]
        gamma = np.arange(self.k)
        gamma[src] = dst
        adj = self.adj_bool
        if (gamma[fixed[d]] != fp[d]
                or moved[self.first_path_idx[:d]].any()
                or not np.array_equal(self.key_class[src],
                                      self.key_class[dst])
                # rows of the moved points suffice: the adjacency is
                # symmetric and the rest of gamma is the identity
                or not np.array_equal(adj.take(dst, 0).take(gamma, 1),
                                      adj.take(src, 0))):
            return False
        self._add_auto(tuple(gamma.tolist()), int.from_bytes(
            np.packbits(moved, bitorder="little").tobytes(), "little"))
        return True

    def _search(self, cells, seq, fixed, fixed_mask=0):
        """Explore the node whose individualized prefix is ``fixed``, which
        is ``fixed_mask`` as a bitset."""
        _check_deadline(self.deadline)
        self.nodes += 1
        cells, inv = self._refine(cells)
        seq = seq + (inv,)
        if self.best_key is not None:
            best_seq = self.best_key[0]
            d = len(seq) - 1
            if d < len(best_seq) and seq[d] > best_seq[d]:
                return
        if self._guess(cells, inv, fixed):
            return
        if len(cells) == self.k:
            self._leaf(cells, seq, fixed)
            return
        _, target_idx = min((len(c), ci) for ci, c in enumerate(cells)
                            if len(c) > 1)
        target = cells[target_idx]

        # orbit pruning: candidates equivalent under automorphisms that fix
        # the individualized prefix explore identical subtrees; the union
        # structure absorbs each discovered automorphism once per node. A
        # recorded automorphism keeps the initial cells (leaf position p
        # always lies in the initial cell at p, and a guess is checked for
        # it), and refinement,
        # individualization and the codegree split are equivariant, so one
        # that fixes the prefix maps every cell of this node to itself: the
        # union structure needs the target alone.
        parent = {v: v for v in target}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        absorbed = 0

        def absorb_new():
            nonlocal absorbed
            while absorbed < len(self.autos):
                g = self.autos[absorbed]
                support = self.supports[absorbed]
                absorbed += 1
                # fixing the prefix is moving none of it
                if not support & fixed_mask:
                    for v in target:
                        # a point g fixes joins no other point's orbit
                        if g[v] != v:
                            ra, rb = find(v), find(g[v])
                            if ra != rb:
                                parent[ra] = rb

        tried: list[int] = []
        for v in target:
            absorb_new()
            rv = find(v)
            if any(find(u) == rv for u in tried):
                continue
            tried.append(v)
            child = (cells[:target_idx]
                     + [[v], [u for u in target if u != v]]
                     + cells[target_idx + 1:])
            child = _codegree_split(self.qrows, child, v)
            try:
                self._search(child, seq, fixed + (v,), fixed_mask | 1 << v)
            except _Backjump as bj:
                if bj.depth != len(fixed):
                    raise


def canonical_form(graph_or_rows: Union[NonCyclicGraph, Sequence[int],
                                        TwinQuotient], *,
                   vertex_cap: int = DEFAULT_VERTEX_CAP,
                   timeout: Optional[float] = None) -> CanonicalForm:
    """Deterministic canonical form; relabelings of the same graph produce
    the same certificate and the same canonical matrix. A ``TwinQuotient``
    gives the certificate its graph would, with no labeling or matrix."""
    if isinstance(graph_or_rows, TwinQuotient):
        source, n = None, graph_or_rows.n
    else:
        source = (graph_or_rows if isinstance(graph_or_rows, NonCyclicGraph)
                  else tuple(graph_or_rows))
        n = _vertex_count(source)
    if n > vertex_cap:
        raise TooLarge(f"{n} vertices exceeds the cap of {vertex_cap}")
    if n == 0:
        raise InvalidParameter("cannot canonicalize an empty graph")
    deadline = _deadline(timeout)

    qrows, descs, members = (
        (graph_or_rows.rows, graph_or_rows.descs, None) if source is None
        else _contract(source, deadline))
    k = len(qrows)
    if k == 1:
        lab_q, qmatrix, effort = [0], (0,), (1, 0, 0, 0, 0)
    else:
        search = _Search(qrows, descs, deadline)
        lab_q = search.run()
        qmatrix = search.best_key[1]
        effort = (k, search.nodes, search.leaves, search.automorphisms,
                  search.backjumps)

    row_bytes = (k + 7) // 8
    width = _invariant_dtype(n).itemsize
    cert = b"".join([n.to_bytes(8, "big"), k.to_bytes(8, "big"),
                     *(row.to_bytes(row_bytes, "big") for row in qmatrix),
                     *(_descriptor_bytes(descs[qv], width) for qv in lab_q)])
    return CanonicalForm(n, cert, effort, source, tuple(lab_q), members)


def _descriptor_bytes(desc: tuple, width: int) -> bytes:
    """Prefix-free bytes of a twin descriptor whose class sizes fit in
    ``width`` bytes: the tag byte (I or C) and the size of each nested
    class from the outside in, then v for the lone vertex."""
    out = []
    while desc[0] != "v":
        tag, size, desc = desc
        out.append(tag.encode("ascii") + size.to_bytes(width, "big"))
    out.append(b"v")
    return b"".join(out)


# ---------------------------------------------------------------------------
# Isomorphism


def _verify_bijection(rows1, rows2, mapping) -> None:
    if sorted(mapping) != list(range(len(rows1))):
        raise VerificationFailure("vertex mapping is not a bijection")
    if relabel_rows(rows1, mapping) != tuple(rows2):
        raise VerificationFailure("bijection does not preserve adjacency")


def bijection_from_forms(g1: Union[NonCyclicGraph, Sequence[int]],
                         g2: Union[NonCyclicGraph, Sequence[int]],
                         cf1: CanonicalForm, cf2: CanonicalForm
                         ) -> Optional[list[tuple[int, int]]]:
    """are_isomorphic's answer for g1 and g2, from their canonical forms
    cf1 and cf2."""
    if cf1.certificate != cf2.certificate:
        return None
    # g1's v -> canonical position -> g2's vertex there
    mapping = np.argsort(cf2.labeling)[list(cf1.labeling)].tolist()
    _verify_bijection(_rows_of(g1), _rows_of(g2), mapping)
    return list(enumerate(mapping))


def are_isomorphic(g1: Union[NonCyclicGraph, Sequence[int]],
                   g2: Union[NonCyclicGraph, Sequence[int]], *,
                   vertex_cap: int = DEFAULT_VERTEX_CAP,
                   timeout: Optional[float] = None
                   ) -> Optional[list[tuple[int, int]]]:
    """None when the graphs differ; otherwise a verified vertex bijection
    as (position in g1, position in g2) pairs."""
    if _vertex_count(g1) != _vertex_count(g2):
        return None
    cf1 = canonical_form(g1, vertex_cap=vertex_cap, timeout=timeout)
    cf2 = canonical_form(g2, vertex_cap=vertex_cap, timeout=timeout)
    return bijection_from_forms(g1, g2, cf1, cf2)


# ---------------------------------------------------------------------------
# The Diophantine condition governing isomorphism of the complete
# multipartite graphs coming from prime-exponent groups with a coprime
# cyclic factor.


def check_goormaghtigh_condition(p: int, m: int, n: int,
                                 q: int, s: int, t: int) -> tuple[bool, bool]:
    """For P x Z_n and Q x Z_t (P, Q non-cyclic of prime exponents p, q,
    orders p^m, q^s): the graphs are isomorphic iff both booleans hold:
    (p^m - 1)/(p - 1) == (q^s - 1)/(q - 1) and n(p - 1) == t(q - 1)."""
    if not (_is_prime(p) and _is_prime(q)):
        raise InvalidParameter("p and q must be prime")
    if m <= 1 or s <= 1:
        raise InvalidParameter("m and s must exceed 1")
    if n < 1 or t < 1 or gcd(p, n) != 1 or gcd(q, t) != 1:
        raise InvalidParameter("cyclic factors must be positive and coprime "
                               "to their prime")
    same_parts = (p ** m - 1) // (p - 1) == (q ** s - 1) // (q - 1)
    same_size = n * (p - 1) == t * (q - 1)
    return (same_parts, same_size)
