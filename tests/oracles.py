"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results from first principles (set closure,
exhaustive search, permutation enumeration) without touching the library's
optimized paths, so tests can cross-check the two. The one exception is
``rebuilt_sylow_certificate``, which runs the library's graph and canonical
form on a Sylow subgroup rebuilt as a group of its own.
"""

import os
import re
from itertools import permutations
from operator import itemgetter

import numpy as np

from noncyclic.canon import _Backjump, _codegree_split, _Search, canonical_form
from noncyclic.cyclicizers import _bit_matrix, _bit_rows
from noncyclic.errors import InvalidCayleyFile, OrderTooLarge, ParseError
from noncyclic.graph import build_graph
from noncyclic.groups import (DEFAULT_CLOSURE_CAP, Group, Subgroup,
                              _row_blocks, direct_product)
from noncyclic.harness import CatalogEntry, _ce


def closure(group, gens):
    """Subgroup closure by plain set saturation over the full table."""
    members = {0}
    members.update(gens)
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                c = group.mult(a, b)
                if c not in members:
                    members.add(c)
                    changed = True
    return sorted(members)


def row_major_escape(group, members):
    """The first (a, b), a then b running over ``members`` in their order,
    whose product lies outside ``members``, or None: the plain double loop."""
    inside = set(members)
    for a in members:
        for b in members:
            if group.mult(a, b) not in inside:
                return a, b
    return None


def associativity_failure(table):
    """First triple (i, j, k), in lexicographic order, with
    (i*j)*k != i*(j*k), or None: the exact O(n^3) loop over every triple,
    chunked by first coordinate to bound memory."""
    t = np.asarray(table)
    for i in range(t.shape[0]):
        left = t[t[i], :]          # (i*j)*k
        right = t[i][t]            # i*(j*k)
        if not np.array_equal(left, right):
            j, k = (int(x) for x in np.argwhere(left != right)[0])
            return (i, j, k)
    return None


def unblocked_validation_failure(table):
    """(message, triple) of the first group axiom ``table`` breaks,
    or None, checked as whole-table passes: identity, Latin square, then
    Light's test over n x n temporaries for each g not yet reached from the
    identity by right multiplication with the generators that passed."""
    t = np.asarray(table)
    n = t.shape[0]
    idx = np.arange(n)
    if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
        return "index 0 is not a two-sided identity", None
    if not (np.array_equal(np.sort(t, axis=1), np.broadcast_to(idx, t.shape))
            and np.array_equal(np.sort(t, axis=0),
                               np.broadcast_to(idx[:, None], t.shape))):
        return "table is not a Latin square", None
    reached = {0}
    gens = []
    for g in range(1, n):
        if g in reached:
            continue
        bad = t[t[:, g], :] != t[:, t[g]]
        if bad.any():
            x, y = (int(v) for v in np.argwhere(bad)[0])
            return f"associativity fails at ({x},{g},{y})", (x, g, y)
        gens.append(g)
        frontier = list(reached)
        while frontier:
            frontier = [int(t[x, h]) for x in frontier for h in gens
                        if int(t[x, h]) not in reached]
            reached.update(frontier)
    return None


def cayley_file_text(group):
    """The Cayley-table file of ``group`` formatted one str per entry."""
    sanitized = [re.sub(r"\s+", "", lab) for lab in group.labels]
    if len(set(sanitized)) != len(sanitized) or any(not s for s in sanitized):
        sanitized = [f"e{i}" for i in range(group.order)]
    lines = [str(group.order), " ".join(sanitized)]
    lines += [" ".join(map(str, row)) for row in group.np_table().tolist()]
    return "\n".join(lines) + "\n"


def whole_file_cayley_load(path, label=None):
    """Read and validate a Cayley-table file held whole: every stripped
    non-empty line in a list, then one ``np.loadtxt`` over the body. If that
    parse fails, or gives rows of another length, the first row that alone
    is not n 64-bit integers is named. An order above DEFAULT_CLOSURE_CAP,
    the bound of every build, is refused before the line count. A byte that
    is not UTF-8 is read as its lone surrogate, which a label line must not
    hold and no integer parses."""
    try:
        with open(path, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise InvalidCayleyFile("empty file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise InvalidCayleyFile(f"first line must be the order: {lines[0]!r}") from exc
    if n < 1:
        raise InvalidCayleyFile("order must be positive")
    if n > DEFAULT_CLOSURE_CAP:
        raise OrderTooLarge(f"order {n} exceeds the maximum order "
                            f"{DEFAULT_CLOSURE_CAP}")
    if len(lines) == n + 1:
        labels = None
        rows_text = lines[1:]
    elif len(lines) == n + 2:
        try:
            lines[1].encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidCayleyFile("label line is not UTF-8") from None
        labels = lines[1].split()
        if len(labels) != n:
            raise InvalidCayleyFile(
                f"label line has {len(labels)} entries, expected {n}")
        rows_text = lines[2:]
    else:
        raise InvalidCayleyFile(
            f"expected {n + 1} or {n + 2} non-empty lines, got {len(lines)}")
    try:
        table = np.loadtxt(rows_text, dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError):
        table = None
    if table is None or table.shape != (n, n):
        for r, text in enumerate(rows_text):
            try:
                row = np.loadtxt([text], dtype=np.int64, comments=None)
            except (ValueError, OverflowError):
                raise InvalidCayleyFile(f"bad table body: row {r} has an "
                                        "entry that is not a 64-bit integer")
            if row.size != n:
                raise InvalidCayleyFile(f"bad table body: row {r} has "
                                        f"{row.size} entries, expected {n}")
    if label is None:
        label = os.path.basename(path)
    return Group(table, labels=labels, label=label)


def walk_orders_and_inverses(group):
    """(element orders, inverses) by walking the powers of every element."""
    n = group.order
    orders = [1] * n
    invs = [0] * n
    for g in range(1, n):
        o = 1
        prev = g
        x = group.mult(g, g)
        while x != 0:
            o += 1
            prev = x
            x = group.mult(x, g)
        orders[g] = o + 1
        invs[g] = prev
    return orders, invs


def walk_cyclic_subgroups(group):
    """(<x> bitsets, distinct cyclic subgroups as (smallest generator,
    bitset) by ascending generator, pair-cyclicity rows), walking the
    powers of every element."""
    n = group.order
    rows = [0] * n
    gen_bits = [0] * n
    seen = {}
    for g in range(n):
        members = [0]
        x = g
        while x != 0:
            members.append(x)
            x = group.mult(x, g)
        bits = 0
        for m in members:
            bits |= 1 << m
        gen_bits[g] = bits
        if bits in seen:
            continue
        seen[bits] = g
        for m in members:
            rows[m] |= bits
    return gen_bits, tuple((g, bits) for bits, g in seen.items()), rows


def pair_row_self_cyclicizer_orders(group):
    """Sorted orders of the cyclic subgroups <g> with Cyc(g) = <g>, read
    from the group's pair rows."""
    return tuple(sorted({group.elem_orders[g]
                         for g, bits in group.cyclic_subgroups
                         if group.pair_rows[g] == bits}))


def edge_search_components(primes, edges):
    """Connected components of the graph on ``primes`` with ``edges``, each
    sorted, by a depth-first search from each prime not yet reached, in
    ascending order."""
    adjacent = {p: set() for p in primes}
    for p, q in edges:
        adjacent[p].add(q)
        adjacent[q].add(p)
    reached, components = set(), []
    for p in sorted(primes):
        if p in reached:
            continue
        stack, component = [p], {p}
        while stack:
            for q in adjacent[stack.pop()] - component:
                component.add(q)
                stack.append(q)
        reached |= component
        components.append(tuple(sorted(component)))
    return tuple(components)


def transpose_center(group):
    """Members of Z(G): the elements whose table row equals their column."""
    t = group.np_table()
    return tuple(np.flatnonzero((t == t.T).all(axis=1)).tolist())


def naive_pair_cyclic(group, x, y):
    """<x, y> is cyclic iff it contains an element of full order."""
    sub = closure(group, [x, y])
    return any(group.elem_orders[m] == len(sub) for m in sub)


def naive_cyclicizer(group, x):
    return sorted(y for y in range(group.order)
                  if naive_pair_cyclic(group, x, y))


def per_vertex_adjacency(group, ctable):
    """(vertices, adjacency) of the non-cyclic graph with every vertex's
    cyclicizer row complemented on its own, a block of rows at a time."""
    n = group.order
    vertices = np.flatnonzero(~_bit_matrix((ctable.cyc_bits,), n)[0])
    rows = [ctable.rows[v] for v in vertices.tolist()]
    adjacency = ()
    for b in _row_blocks(len(rows), n):
        adjacency += _bit_rows(~_bit_matrix(rows[b], n).take(vertices, 1))
    return tuple(vertices.tolist()), adjacency


def loop_is_tidy(group):
    """(is_tidy, witness, violating_pair) by testing every product a*b of
    members of Cyc(x), for every x in ascending order."""
    rows, t = group.pair_rows, group.np_table().tolist()
    for x in range(group.order):
        members = [y for y in range(group.order) if (rows[x] >> y) & 1]
        for a in members:
            for b in members:
                if not (rows[x] >> t[a][b]) & 1:
                    return False, x, (a, b)
    return True, None, None


def naive_maximal_cyclic(group):
    """Distinct maximal cyclic subgroups as frozensets of indices."""
    subs = {frozenset(closure(group, [x])) for x in range(group.order)}
    return {s for s in subs
            if not any(s < t for t in subs)}


def rows_to_sets(rows):
    out = []
    for row in rows:
        s = set()
        v = 0
        while row:
            if row & 1:
                s.add(v)
            row >>= 1
            v += 1
        out.append(s)
    return out


def brute_max_independent(rows):
    """Exact maximum independent set size by subset search with pruning."""
    n = len(rows)
    sets = rows_to_sets(rows)
    best = 0

    def grow(candidates, size):
        nonlocal best
        if size + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        v = min(candidates)
        grow([u for u in candidates if u != v and u not in sets[v]], size + 1)
        grow([u for u in candidates if u != v], size)

    grow(list(range(n)), 0)
    return best


def brute_max_clique(rows):
    n = len(rows)
    comp = [((1 << n) - 1) ^ row ^ (1 << v) for v, row in enumerate(rows)]
    return brute_max_independent(comp)


def brute_chromatic(rows, upper):
    """Smallest k <= upper admitting a proper coloring (backtracking with
    fresh-color symmetry breaking)."""
    n = len(rows)
    sets = rows_to_sets(rows)
    order = sorted(range(n), key=lambda v: -len(sets[v]))

    def colorable(k):
        colors = [-1] * n

        def assign(i, used_max):
            if i == n:
                return True
            v = order[i]
            forbidden = {colors[w] for w in sets[v] if colors[w] >= 0}
            for c in range(min(k, used_max + 2)):
                if c in forbidden:
                    continue
                colors[v] = c
                if assign(i + 1, max(used_max, c)):
                    return True
                colors[v] = -1
            return False

        return assign(0, -1)

    for k in range(1, upper + 1):
        if colorable(k):
            return k
    return upper + 1


def string_induced(rows, idx):
    """Rows of the subgraph induced on the non-empty idx, with idx[i]
    renamed to i, picked from each row's binary string."""
    pick = itemgetter(*idx)
    width = len(rows)
    return tuple(int("".join(pick(format(rows[v], f"0{width}b")[::-1]))[::-1],
                     2) for v in idx)


def _sorted_merge_classes(qrows, descs, members, key_of, tag):
    """One twin-contraction round with a key function per vertex, the
    classes sorted by least member and each class's vertices by member."""
    groups = {}
    for v in range(len(qrows)):
        groups.setdefault(key_of(v), []).append(v)
    if all(len(g) == 1 for g in groups.values()):
        return None
    classes = sorted(groups.values(), key=lambda c: min(members[v][0]
                                                        for v in c))
    new_rows = string_induced(qrows, [cls[0] for cls in classes])
    new_descs = []
    new_members = []
    for cls in classes:
        desc = descs[cls[0]]
        new_descs.append(desc if len(cls) == 1 else (tag, len(cls), desc))
        order = sorted(cls, key=lambda v: members[v][0])
        new_members.append(tuple(u for v in order for u in members[v]))
    return tuple(new_rows), tuple(new_descs), tuple(new_members)


def sorted_twin_contraction(rows):
    """The iterated twin contraction (quotient rows, descriptors, members)
    by sorted key-function rounds: false twins, then true twins when no
    false twins are left, until neither merges."""
    qrows = tuple(rows)
    descs = (("v",),) * len(rows)
    members = tuple((v,) for v in range(len(rows)))
    while True:
        merged = _sorted_merge_classes(qrows, descs, members,
                                       lambda v: (qrows[v], descs[v]), "I")
        if merged is None:
            merged = _sorted_merge_classes(
                qrows, descs, members,
                lambda v: (qrows[v] | (1 << v), descs[v]), "C")
        if merged is None:
            return qrows, descs, members
        qrows, descs, members = merged


def scanned_clique_and_coloring(graph, ctable):
    """(clique, coloring) of the maximal-cyclic-subgroup witnesses: the
    generators' positions, checked pairwise to be a clique, and each vertex
    coloured by the first maximal cyclic subgroup whose bits contain it,
    scanned vertex by vertex."""
    pos_of = {v: i for i, v in enumerate(graph.vertices)}
    clique = [pos_of[m.generator] for m in ctable.maximal]
    adj = graph.adjacency
    for i, a in enumerate(clique):
        for b in clique[i + 1:]:
            assert (adj[a] >> b) & 1, "clique witness has a missing edge"
    coloring = tuple(next(ci for ci, m in enumerate(ctable.maximal)
                          if (m.bits >> v) & 1) for v in graph.vertices)
    return tuple(clique), coloring


def pairwise_independent_witness(graph, ctable):
    """Positions of <g> minus Cyc(G) for the least g of largest order,
    checked pairwise to be independent."""
    group = graph.group
    e = max(group.elem_orders)
    gen = group.elem_orders.index(e)
    powers = [0]
    while (x := group.mult(powers[-1], gen)) != 0:
        powers.append(x)
    pos_of = {v: i for i, v in enumerate(graph.vertices)}
    witness = tuple(pos_of[v] for v in sorted(powers)
                    if not (ctable.cyc_bits >> v) & 1)
    for i, a in enumerate(witness):
        for b in witness[i + 1:]:
            assert not (graph.adjacency[a] >> b) & 1, "witness has an edge"
    return witness


def recounted_degrees(rows):
    """Sorted (degree, count) pairs, each degree counted bit by bit."""
    census = {}
    for row in rows:
        d = bin(row).count("1")
        census[d] = census.get(d, 0) + 1
    return tuple(sorted(census.items()))


def perm_isomorphic(rows1, rows2):
    """Exhaustive isomorphism test for very small graphs."""
    n = len(rows1)
    if n != len(rows2):
        return False
    s1, s2 = rows_to_sets(rows1), rows_to_sets(rows2)
    for perm in permutations(range(n)):
        if all({perm[w] for w in s1[v]} == s2[perm[v]] for v in range(n)):
            return True
    return False


def is_complete_multipartite(rows):
    """Direct definition: non-adjacency is an equivalence relation."""
    n = len(rows)
    sets = rows_to_sets(rows)
    part_of = {}
    for v in range(n):
        non = {u for u in range(n) if u != v and u not in sets[v]}
        part_of[v] = non | {v}
    for v in range(n):
        for u in part_of[v]:
            if part_of[u] != part_of[v]:
                return None
    seen = set()
    sizes = []
    for v in range(n):
        if v not in seen:
            seen |= part_of[v]
            sizes.append(len(part_of[v]))
    return sorted(sizes)


def bit_loop_relabel(rows, perm):
    """Rows with vertex v renamed to perm[v], one bit at a time."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        acc = 0
        while row:
            b = row & -row
            acc |= 1 << perm[b.bit_length() - 1]
            row ^= b
        out[perm[v]] = acc
    return tuple(out)


def set_induced(rows, idx):
    """Rows of the subgraph induced on idx, with idx[i] renamed to i."""
    sets = rows_to_sets(rows)
    return tuple(sum(1 << j for j, u in enumerate(idx) if u in sets[v])
                 for v in idx)


def bfs_levels(rows, start):
    """Yield (distance, frontier bitset) of a bitset BFS from start."""
    visited = frontier = 1 << start
    dist = 0
    while frontier:
        yield dist, frontier
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= rows[b.bit_length() - 1]
            f ^= b
        frontier = nxt & ~visited
        visited |= frontier
        dist += 1


def bfs_distances(rows, start):
    """Each vertex's distance from start by a BFS on the whole graph's
    rows, None for a vertex not reached."""
    out = [None] * len(rows)
    for dist, frontier in bfs_levels(rows, start):
        for v in range(len(rows)):
            if (frontier >> v) & 1:
                out[v] = dist
    return out


def bfs_diameter(rows):
    """(diameter, witness, eccentricities) by BFS from every vertex, or
    None when the graph is disconnected. The witness is the
    lexicographically least pair at maximum distance."""
    n = len(rows)
    full = (1 << n) - 1
    ecc = []
    for s in range(n):
        reached = 0
        for dist, frontier in bfs_levels(rows, s):
            reached |= frontier
        if reached != full:
            return None
        ecc.append(dist)
    diam = max(ecc)
    s = ecc.index(diam)
    last = [f for d, f in bfs_levels(rows, s) if d == diam][0]
    return diam, (s, (last & -last).bit_length() - 1), tuple(ecc)


def rebuilt_sylow_certificate(group, members):
    """Certificate of the non-cyclic graph of the subgroup on ``members``,
    computed from the subgroup's own Cayley table."""
    return canonical_form(build_graph(
        Subgroup(group, tuple(members)).as_group())).certificate


# ---------------------------------------------------------------------------
# Bitset refinement with a separate node invariant, and orbit pruning over
# all quotient vertices: the reference for canon._Search.


def bitset_refine(qrows, cells):
    """Coarsest equitable refinement; each vertex's count signature is one
    masked bit count per cell, and new cells are ordered by signature."""
    while True:
        masks = [0] * len(cells)
        for ci, cell in enumerate(cells):
            m = 0
            for v in cell:
                m |= 1 << v
            masks[ci] = m
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig = {}
            for v in cell:
                key = tuple((qrows[v] & m).bit_count() for m in masks)
                sig.setdefault(key, []).append(v)
            if len(sig) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(sig):
                    new_cells.append(sig[key])
        cells = new_cells
        if not changed:
            return cells


def big_endian_bytes(values, k):
    """Each value as big-endian bytes of the fewest of 1, 2, 4 or 8 bytes
    that hold k; int.to_bytes refuses a value that does not fit."""
    width = min(w for w in (1, 2, 4, 8) if k < 256 ** w)
    return b"".join(x.to_bytes(width, "big") for x in values)


def bitset_node_invariant(qrows, cells):
    """Cell sizes plus the quotient count matrix of an equitable
    partition, each as big_endian_bytes for the quotient size k."""
    masks = []
    for cell in cells:
        m = 0
        for v in cell:
            m |= 1 << v
        masks.append(m)
    sizes = [len(c) for c in cells]
    counts = [(qrows[cell[0]] & m).bit_count()
              for cell in cells for m in masks]
    k = len(qrows)
    return (big_endian_bytes(sizes, k), big_endian_bytes(counts, k))


def triangle_census(qrows):
    """Per vertex v, the sum over its neighbors u of |N(v) & N(u)|."""
    return [sum((row & qrows[u]).bit_count() for u in range(len(qrows))
                if row >> u & 1)
            for row in qrows]


def is_quotient_automorphism(qrows, descs, gamma):
    """Whether gamma (gamma[v] = image of v) is a permutation of the
    quotient vertices that keeps every descriptor and maps each row, bit by
    bit, onto the row of the image."""
    k = len(qrows)
    if sorted(gamma) != list(range(k)):
        return False
    for u in range(k):
        if descs[gamma[u]] != descs[u]:
            return False
        image = 0
        for v in range(k):
            if qrows[u] >> v & 1:
                image |= 1 << gamma[v]
        if image != qrows[gamma[u]]:
            return False
    return True


class ReferenceSearch(_Search):
    """canon._Search with bitset refinement and an orbit union-find over
    all k quotient vertices; leaves, guessed automorphisms, automorphisms
    and backjumps are shared, and so are the effort counters."""

    def _search(self, cells, seq, fixed):
        self.nodes += 1
        cells = bitset_refine(self.qrows, cells)
        seq = seq + (bitset_node_invariant(self.qrows, cells),)
        if self.best_key is not None:
            best_seq = self.best_key[0]
            d = len(seq) - 1
            if d < len(best_seq) and seq[d] > best_seq[d]:
                return
        if self._guess(cells, seq[-1], fixed):
            return
        if all(len(c) == 1 for c in cells):
            self._leaf(cells, seq, fixed)
            return
        target_idx = None
        for ci, cell in enumerate(cells):
            if len(cell) > 1 and (target_idx is None
                                  or len(cell) < len(cells[target_idx])):
                target_idx = ci
        target = cells[target_idx]
        parent = list(range(self.k))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        absorbed = 0
        tried = []
        for v in target:
            while absorbed < len(self.autos):
                g = self.autos[absorbed]
                absorbed += 1
                if all(g[f] == f for f in fixed):
                    for u in range(self.k):
                        ra, rb = find(u), find(g[u])
                        if ra != rb:
                            parent[ra] = rb
            rv = find(v)
            if any(find(u) == rv for u in tried):
                continue
            tried.append(v)
            child = (cells[:target_idx]
                     + [[v], [u for u in target if u != v]]
                     + cells[target_idx + 1:])
            child = _codegree_split(self.qrows, child, v)
            try:
                self._search(child, seq, fixed + (v,))
            except _Backjump as bj:
                if bj.depth != len(fixed):
                    raise


# ---------------------------------------------------------------------------
# Entry-by-entry table builders, the reference for the metacyclic,
# permutation and product tables of groups._table. Each returns (table as
# lists, labels).


def perm_cycles(p):
    """Cycle notation on points 1..d, fixed points omitted, "e" if none."""
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        seen.add(i)
        while p[cyc[-1]] != i:
            cyc.append(p[cyc[-1]])
            seen.add(cyc[-1])
        out.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(out) or "e"


def loop_perm_table(perms):
    """Table of ``perms`` under (a*b)(x) = a(b(x)), one lookup per entry."""
    index = {p: i for i, p in enumerate(perms)}
    t = [[index[tuple(a[x] for x in b)] for b in perms] for a in perms]
    return t, [perm_cycles(p) for p in perms]


def symmetric_perms(n, even_only=False):
    """Permutations of 0..n-1 in lexicographic order, only the even ones
    (by inversion count) when ``even_only``."""
    return [p for p in permutations(range(n))
            if not even_only
            or sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0]


def perm_closure(degree, gens):
    """Elements reached from the identity by right multiplication with
    ``gens``, in breadth-first order."""
    out = [tuple(range(degree))]
    seen = set(out)
    for x in out:
        for g in gens:
            y = tuple(x[g[i]] for i in range(degree))
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def loop_dihedral(order):
    n = order // 2
    t = [[0] * order for _ in range(order)]
    for k in (0, 1):
        for i in range(n):
            a = k * n + i
            row = t[a]
            for l in (0, 1):
                for j in range(n):
                    jj = (i + j) % n if k == 0 else (i - j) % n
                    row[l * n + j] = ((k + l) % 2) * n + jj
    labels = ["e"] + [f"r{i}" if i > 1 else "r" for i in range(1, n)]
    labels += ["s"] + [f"sr{i}" if i > 1 else "sr" for i in range(1, n)]
    return t, labels


def loop_quaternion(order):
    m = order // 2
    half = m // 2
    t = [[0] * order for _ in range(order)]
    for k in (0, 1):
        for i in range(m):
            row = t[k * m + i]
            for l in (0, 1):
                for j in range(m):
                    jj = (i + j) % m if k == 0 else (i - j) % m
                    if k and l:
                        jj = (jj + half) % m
                    row[l * m + j] = ((k + l) % 2) * m + jj
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    labels += ["b"] + [(f"a{i}b" if i > 1 else "ab") for i in range(1, m)]
    return t, labels


def loop_two_generator_pgroup(p, n, r):
    """Group <a, x | x^p = a^(p^(n-1)) = 1, x a x^-1 = a^u> with u = r^-1,
    elements a^i x^j indexed as j*p^(n-1) + i."""
    big = p ** (n - 1)
    u = pow(r, -1, big)
    upow = [1]
    for _ in range(p - 1):
        upow.append(upow[-1] * u % big)
    order = big * p
    t = [[0] * order for _ in range(order)]
    for j in range(p):
        uj = upow[j]
        for i in range(big):
            row = t[j * big + i]
            for l in range(p):
                off = ((j + l) % p) * big
                for k in range(big):
                    row[l * big + k] = off + (i + k * uj) % big
    labels = []
    for j in range(p):
        for i in range(big):
            ai = "" if i == 0 else ("a" if i == 1 else f"a{i}")
            xj = "" if j == 0 else ("x" if j == 1 else f"x{j}")
            labels.append((ai + xj) or "e")
    return t, labels


def loop_product(factors):
    """Direct product of the groups ``factors``, folded left one factor at a
    time: (a, b) sits at index a*|B| + b and (a, b)(c, d) = (ac, bd)."""
    t, parts = [[0]], [()]
    for f in factors:
        ft, n2 = f.np_table().tolist(), f.order
        t = [[x * n2 + y for x in t[a] for y in ft[b]]
             for a in range(len(t)) for b in range(n2)]
        parts = [p + (lab,) for p in parts for lab in f.labels]
    return t, ["(" + ",".join(p) + ")" for p in parts]


def _prime_power(n):
    """(p, e) when n = p^e for a prime p, else None."""
    for p in range(2, n + 1):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            return (p, e) if n == 1 else None
    return None


def _ppower(n, p):
    """True when n is 1 or a power of the prime p."""
    while n % p == 0:
        n //= p
    return n == 1


def closure_sylow_members(group, p):
    """The p-elements when there are |G|_p of them and their set closure is
    itself (the normal Sylow p-subgroup), else None."""
    pel = [x for x in range(group.order) if _ppower(group.elem_orders[x], p)]
    size = 1
    while group.order % (size * p) == 0:
        size *= p
    return (tuple(pel) if len(pel) == size and closure(group, pel) == pel
            else None)


def walked_regular_family(group, sylows):
    """regular_family by walking the members of each Sylow subgroup, given
    as ``sylows`` = {p: ``closure_sylow_members(group, p)``} over the prime
    divisors p: None unless all are normal and exactly one is non-cyclic
    (its largest member order below its size); then ("P", p, m, cofactor)
    when its orders lie in {1, p}, ("Q8", cofactor) when it has order 8 and
    one involution."""
    if None in sylows.values():
        return None
    orders = group.elem_orders
    noncyclic = [(p, members) for p, members in sylows.items()
                 if max(orders[x] for x in members) < len(members)]
    if len(noncyclic) != 1:
        return None
    (p, sylow), = noncyclic
    size = len(sylow)
    cof = group.order // size
    if {orders[x] for x in sylow} <= {1, p}:
        return ("P", p, _prime_power(size)[1], cof)
    if size == 8 and sum(1 for x in sylow if orders[x] == 2) == 1:
        return ("Q8", cof)
    return None


def recounted_abelian_ptype(group, p):
    """Partition (descending) of the abelian p-part from
    c_k = #{x : x^(p^k) = e}, counted over every element for each k: the
    p-part has log_p(c_k / c_(k-1)) parts of size at least k."""
    orders = [o for o in group.elem_orders if _ppower(o, p)]
    at_least = []
    c_prev, k = 1, 1
    while (c_k := sum(1 for o in orders if o <= p ** k)) != c_prev:
        ratio, parts = c_k // c_prev, 0
        while ratio > 1:
            ratio //= p
            parts += 1
        at_least.append(parts)
        c_prev, k = c_k, k + 1
    partition = []
    for k, cnt in enumerate(at_least, start=1):
        nxt = at_least[k] if k < len(at_least) else 0
        partition.extend([k] * (cnt - nxt))
    return sorted(partition, reverse=True)


def _loop_power(group, g, k):
    out = 0
    x = g
    while k:
        if k & 1:
            out = group.mult(out, x)
        x = group.mult(x, x)
        k >>= 1
    return out


def loop_is_generalized_quaternion(group):
    """A non-cyclic 2-group of order >= 8 with a unique involution."""
    pe = _prime_power(group.order)
    if pe is None or pe[0] != 2 or group.order < 8:
        return False
    if max(group.elem_orders) == group.order:
        return False
    return sum(1 for o in group.elem_orders if o == 2) == 1


def loop_dihedral_parameter(group):
    """n when some a of order n has every b outside <a> an involution with
    b a b = a^-1, the group having order 2n >= 6; else None."""
    size = group.order
    if size % 2 or size < 6:
        return None
    n = size // 2
    for a in range(size):
        if group.elem_orders[a] != n:
            continue
        rot = group.generated_cyclic_bits(a)
        if all(group.elem_orders[b] == 2
               and group.mult(group.mult(b, a), b) == group.inverses[a]
               for b in range(size) if not (rot >> b) & 1):
            return n
    return None


def loop_semidihedral_parameter(group):
    """m when the order is 2^m >= 16 and some a of order 2^(m-1) and
    involution x outside <a> have x a x = a^(2^(m-2) - 1); else None."""
    pe = _prime_power(group.order)
    if pe is None or pe[0] != 2 or pe[1] < 4:
        return None
    m = pe[1]
    size = group.order
    for a in range(size):
        if group.elem_orders[a] != size // 2:
            continue
        rot = group.generated_cyclic_bits(a)
        target = _loop_power(group, a, 2 ** (m - 2) - 1)
        for x in range(size):
            if (rot >> x) & 1 or group.elem_orders[x] != 2:
                continue
            if group.mult(group.mult(x, a), x) == target:
                return m
    return None


def loop_modular_parameters(group):
    """(p, n) when the order is p^n, n >= 3, and some a of order p^(n-1)
    and x of order p outside <a> have x^-1 a x = a^(1 + p^(n-2)); else
    None."""
    pe = _prime_power(group.order)
    if pe is None or pe[1] < 3:
        return None
    p, n = pe
    size = group.order
    for a in range(size):
        if group.elem_orders[a] != size // p:
            continue
        rot = group.generated_cyclic_bits(a)
        target = _loop_power(group, a, 1 + p ** (n - 2))
        for x in range(size):
            if (rot >> x) & 1 or group.elem_orders[x] != p:
                continue
            if group.mult(group.mult(group.inverses[x], a), x) == target:
                return (p, n)
    return None


def coset_union_loop(az, result):
    """The cyc_coset_union check, rebuilding the coset y*Cyc(G) bit by bit
    for every x whose cyclicizer contains y."""
    g, ct = az.group, az.ctable
    n = g.order
    cyc = ct.cyc_members()
    if len(cyc) == 1:
        return
    for x in range(n):
        row = ct.rows[x]
        if row.bit_count() % len(cyc):
            _ce(result, group=az.label, element=g.labels[x],
                reason="cyclicizer size not divisible by group cyclicizer")
            return
        rest = row
        while rest:
            b = rest & -rest
            y = b.bit_length() - 1
            coset = 0
            for c in cyc:
                coset |= 1 << g.mult(y, c)
            if coset & ~row:
                _ce(result, group=az.label, element=g.labels[x],
                    coset_rep=g.labels[y],
                    reason="coset leaks outside the cyclicizer")
                return
            rest &= ~coset


def core_cyclic_loop(az, result):
    """The cyc_core_cyclic check, testing each member y of each distinct
    D = Cyc(x) with D <= Cyc(y), and the core's cyclicity by looking for a
    member that generates all of it."""
    g, ct = az.group, az.ctable
    n = g.order
    verdicts = {}
    for x in range(n):
        d_bits = ct.rows[x]
        cached = verdicts.get(d_bits)
        if cached is None:
            core_bits = 0
            rest = d_bits
            while rest:
                b = rest & -rest
                if ct.rows[b.bit_length() - 1] & d_bits == d_bits:
                    core_bits |= b
                rest ^= b
            rest = core_bits
            ok = False
            while rest and not ok:
                b = rest & -rest
                ok = g.generated_cyclic_bits(b.bit_length() - 1) == core_bits
                rest ^= b
            cached = (core_bits, ok)
            verdicts[d_bits] = cached
        core_bits, ok = cached
        if not (core_bits >> x) & 1:
            _ce(result, group=az.label, element=g.labels[x],
                reason="core misses the element itself")
            return
        if not ok:
            _ce(result, group=az.label, element=g.labels[x],
                reason="core is not a cyclic subgroup")
            return


def loop_quotient(group, members):
    """(reps, coset_of, table, labels) of the quotient by the central
    subgroup ``members``: one pass over the elements, where each element not
    yet placed starts a new coset, filled member by member."""
    n = group.order
    coset_of = [-1] * n
    reps = []
    for r in range(n):
        if coset_of[r] >= 0:
            continue
        reps.append(r)
        for c in members:
            coset_of[group.mult(r, c)] = len(reps) - 1
    table = np.asarray(coset_of)[group.np_table()[np.ix_(reps, reps)]]
    return (tuple(reps), tuple(coset_of), table,
            tuple(f"[{group.labels[r]}]" for r in reps))


def quotient_loop(az, result):
    """The quotient_cyc_trivial check over ``loop_quotient`` tables, each
    coset representative's cyclicizer projected bit by bit; the centre is
    found by comparing every pair of elements."""
    g, ct = az.group, az.ctable
    n = g.order

    def cyc_bits(rows):
        inter = -1
        for row in rows:
            inter &= row
        return inter

    if ct.cyc_size > 1:
        reps, coset_of, table, labels = loop_quotient(g, ct.cyc_members())
        qrows = Group(table).pair_rows
        if cyc_bits(qrows) != 1:
            _ce(result, group=az.label,
                reason="quotient by cyclicizer keeps non-trivial cyclicizer")
            return
        for qi, rep in enumerate(reps):
            image = 0
            for y in rows_to_sets([ct.rows[rep]])[0]:
                image |= 1 << coset_of[y]
            if image != qrows[qi]:
                _ce(result, group=az.label, coset=labels[qi],
                    reason="cyclicizer does not project onto the quotient")
                return
    z = [x for x in range(n)
         if all(g.mult(x, y) == g.mult(y, x) for y in range(n))]
    if 1 < len(z) < n and cyc_bits(
            Group(loop_quotient(g, z)[2]).pair_rows) != 1:
        _ce(result, group=az.label,
            reason="central quotient has non-trivial cyclicizer")


def scanned_default_entries(specs, max_order):
    """The default catalog's entries from its base (label, spec) pairs by
    scanning every pair, calling ``spec.order()`` wherever an order is
    needed."""
    seen = {label for label, _ in specs}
    base = [(label, spec, spec.order()) for label, spec in specs]
    products = []
    for i, (la, sa, oa) in enumerate(base):
        if oa is None or oa < 2:
            continue
        for lb, sb, ob in base[i:]:
            if ob is None or ob < 2 or oa * ob > max_order:
                continue
            pair = sorted([(oa, la, sa), (ob, lb, sb)],
                          key=lambda t: (t[0], t[1]))
            label = f"{pair[0][1]}x{pair[1][1]}"
            if label in seen:
                continue
            seen.add(label)
            products.append(
                (label, direct_product([pair[0][2], pair[1][2]], name=label)))
    entries = [CatalogEntry(label, spec) for label, spec in specs + products
               if spec.order() is not None and spec.order() <= max_order]
    entries.sort(key=lambda e: (e.spec.order(), e.label))
    return entries
