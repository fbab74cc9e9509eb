import dataclasses
import hashlib
import random
import time

import numpy as np
import pytest

from noncyclic import canon
from noncyclic import groups as G
from noncyclic.canon import (are_isomorphic, canonical_form,
                             check_goormaghtigh_condition, induced_rows,
                             relabel_rows, twin_contraction)
from noncyclic.cyclicizers import _bit_rows
from noncyclic.errors import InvalidParameter, Timeout, TooLarge
from noncyclic.graph import build_graph

import oracles


# two catalog labellings of Z2^4 x Z3^2 and A4 x Z2^2 x Z3: the sweep's
# slowest searches, with many automorphisms and, without guessed
# automorphisms, many backjumps
TAIL_EXPRS = ("Z2xZ2xZ2xZ2xZ3xZ3", "Z3xZ3xZ2xZ2xZ2xZ2", "A4xZ2xZ2xZ3")
# searches where some guesses fail verification, so leaves still find
# automorphisms and backjump
REJECTED_GUESS_EXPRS = ("Z6xZ6", "Z12xZ12")


def graph_of(expr):
    return build_graph(G.build(G.parse_group_expr(expr)))


def _variants(g, rng, count=2):
    """g's rows and ``count`` random relabellings of them."""
    out = [g.adjacency]
    for _ in range(count):
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        out.append(relabel_rows(g.adjacency, perm))
    return out


def test_k3_certificate_is_labeling_invariant():
    rows = (0b110, 0b101, 0b011)
    base = canonical_form(rows)
    for perm in ([0, 1, 2], [1, 2, 0], [2, 1, 0]):
        cf = canonical_form(relabel_rows(rows, perm))
        assert cf.matrix == base.matrix
        assert cf.hash_hex == base.hash_hex


@pytest.mark.parametrize("expr", [
    "EA(2,2)", "Z2xZ4", "D8", "Q8", "G(2,4)", "H(4)", "Z4xZ4", "S4",
    "Z6xS3", "Q8xZ3",
])
def test_relabeling_stability(expr):
    g = graph_of(expr)
    base = canonical_form(g)
    rng = random.Random(20259)
    for _ in range(12):
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        cf = canonical_form(relabel_rows(g.adjacency, perm))
        assert cf.matrix == base.matrix
    assert base.labeling[0] in range(g.n_vertices)
    assert sorted(base.labeling) == list(range(g.n_vertices))


def test_relabel_and_induced_rows_match_bit_loops(oracle_graphs):
    rng = random.Random(4099)
    for g in oracle_graphs:
        rows = g.adjacency
        n = len(rows)
        perm = list(range(n))
        rng.shuffle(perm)
        assert relabel_rows(rows, perm) == oracles.bit_loop_relabel(rows, perm)
        idx = rng.sample(range(n), rng.randrange(1, n + 1))
        assert induced_rows(rows, idx) == oracles.set_induced(rows, idx)


def test_search_matches_bitset_reference(oracle_graphs, monkeypatch):
    # count-matrix refinement and target-cell orbit pruning against the
    # bitset refinement and all-vertex union-find: equal forms, equal node
    # invariants along the best leaf's path, and a search that visits the
    # same nodes, leaves, automorphisms and backjumps
    efforts = []

    def recording(search):
        class Recording(search):
            def run(self):
                lab = super().run()
                efforts.append((self.nodes, self.leaves, self.automorphisms,
                                self.backjumps, self.best_key))
                return lab
        return Recording

    new = recording(canon._Search)
    ref = recording(oracles.ReferenceSearch)
    rng = random.Random(0xC0DE)
    totals = [0, 0, 0, 0]
    for g in oracle_graphs + [graph_of(e) for e in TAIL_EXPRS]:
        for rows in _variants(g, rng):
            efforts.clear()
            monkeypatch.setattr(canon, "_Search", new)
            got = canonical_form(rows)
            monkeypatch.setattr(canon, "_Search", ref)
            want = canonical_form(rows)
            assert got == want, g.group.label
            assert got.labeling == want.labeling, g.group.label
            assert len(efforts) in (0, 2)
            if efforts:
                assert efforts[0] == efforts[1], g.group.label
                totals = [a + b for a, b in zip(totals, efforts[0][:4])]
    # every counter is exercised
    assert all(totals), totals


def test_effort_is_the_search_counters(monkeypatch):
    # CanonicalForm.effort is (k, nodes, leaves, automorphisms, backjumps)
    # of the search, the reference search's counters, and == ignores it
    new = canon._Search
    searches = []

    class Recording(oracles.ReferenceSearch):
        def run(self):
            searches.append(self)
            return super().run()

    for expr in (("EA(2,2)", "Z2xZ4", "S4", "Z6xS3") + TAIL_EXPRS
                 + REJECTED_GUESS_EXPRS):
        g = graph_of(expr)
        k = len(twin_contraction(g)[0])
        monkeypatch.setattr(canon, "_Search", new)
        cf = canonical_form(g)
        searches.clear()
        monkeypatch.setattr(canon, "_Search", Recording)
        ref = canonical_form(g)
        if k == 1:
            assert not searches
            assert cf.effort == (1, 0, 0, 0, 0), expr
        else:
            [s] = searches
            assert cf.effort == (k, s.nodes, s.leaves, s.automorphisms,
                                 s.backjumps), expr
        assert ref == cf and ref.effort == cf.effort, expr
        assert ref.labeling == cf.labeling, expr
        other = dataclasses.replace(cf, effort=None)
        assert other == cf and hash(other) == hash(cf)
    # the rejected-guess graphs exercise automorphisms and backjumps
    assert cf.effort[3] and cf.effort[4]


class _NoGuess(canon._Search):
    """The search without guessed automorphisms: every first-path sibling
    descends."""

    def _guess(self, cells, inv, fixed):
        return False


class _GuessLog(canon._Search):
    """The search, logging every recorded automorphism and every guess as
    accepted or rejected."""

    log = {"autos": [], "accepted": 0, "rejected": 0}

    def _guess(self, cells, inv, fixed):
        fp, d = self.first_path, len(fixed) - 1
        candidate = (fp is not None and 0 <= d < len(fp) and fixed[d] != fp[d]
                     and inv == self.first_seq[d + 1] and fixed[:d] == fp[:d])
        settled = super()._guess(cells, inv, fixed)
        if candidate:
            self.log["accepted" if settled else "rejected"] += 1
        else:
            assert not settled
        return settled

    def _add_auto(self, g, support):
        assert support == sum(1 << v for v in range(self.k) if g[v] != v)
        self.log["autos"].append((self.qrows, [d for d, _ in self.keys], g))
        super()._add_auto(g, support)


def test_every_recorded_automorphism_is_one(oracle_graphs, monkeypatch):
    # automorphisms from leaves and from guesses alike, checked bit by bit;
    # the corpus has guesses that pass verification and guesses that fail
    monkeypatch.setattr(canon, "_Search", _GuessLog)
    log = _GuessLog.log
    log.update(autos=[], accepted=0, rejected=0)
    rng = random.Random(0xA070)
    checked = 0
    for g in oracle_graphs + [graph_of(e) for e in TAIL_EXPRS]:
        for rows in _variants(g, rng):
            canonical_form(rows)
            for qrows, descs, gamma in log["autos"]:
                assert any(gamma[v] != v for v in range(len(gamma)))
                assert oracles.is_quotient_automorphism(qrows, descs, gamma)
            checked += len(log["autos"])
            log["autos"].clear()
    assert checked and log["accepted"] and log["rejected"], log


def test_guessing_changes_only_the_effort(oracle_graphs, monkeypatch):
    # the search with guesses off gives the same form and labeling; on the
    # tail graphs it takes strictly more nodes
    rng = random.Random(0x6E55)
    for g in (oracle_graphs + [graph_of(e) for e in TAIL_EXPRS]
              + [graph_of(e) for e in REJECTED_GUESS_EXPRS]):
        for rows in _variants(g, rng, 1):
            monkeypatch.setattr(canon, "_Search", _NoGuess)
            off = canonical_form(rows)
            monkeypatch.undo()
            on = canonical_form(rows)
            assert on == off and on.labeling == off.labeling, g.group.label
            if g.group.label in TAIL_EXPRS:
                assert on.effort[1] < off.effort[1], g.group.label


def _guess_on_hexagon(descs, first_path, fixed, first, mine):
    """Run one guess on the 6-cycle i ~ i +- 1 with a hand-made first path:
    ``first`` is its partition at depth len(fixed), ``mine`` the node's.
    Returns (settled, recorded automorphisms)."""
    search = canon._Search(tuple((1 << (v + 1) % 6) | (1 << (v - 1) % 6)
                                 for v in range(6)), descs, float("inf"))
    search.key_class = search._cell_index(
        [[v for v in range(6) if descs[v] == d] for d in sorted(set(descs))])
    search.first_path = first_path
    search.first_path_idx = np.array(first_path, np.intp)
    search.first_seq = ("root",) + ("inv",) * len(first_path)
    search.first_cells = [None] * len(fixed) + [first]
    return search._guess(mine, "inv", fixed), search.autos


def test_guess_checks_each_condition():
    # each pairing below is an automorphism of the 6-cycle; the guess must
    # also keep the descriptors, fix the prefix and send the divergence
    # vertex to the first path's, and each case breaks exactly one of these
    depth1 = [[0], [1, 5], [2, 4], [3]]
    # v -> 3 - v sends 3 to 0: accepted
    assert _guess_on_hexagon("aaaaaa", (0, 1), (3,), depth1,
                             [[3], [2, 4], [1, 5], [0]]) == (
        True, [(3, 2, 1, 0, 5, 4)])
    # the same pairing swaps the descriptors a and b
    assert _guess_on_hexagon("ababab", (0, 1), (3,), depth1,
                             [[3], [2, 4], [1, 5], [0]]) == (False, [])
    # v -> 2 - v sends the divergence vertex 3 to 5, not 0
    assert _guess_on_hexagon("aaaaaa", (0, 1), (3,), depth1,
                             [[2], [1, 3], [0, 4], [5]]) == (False, [])
    # v -> 3 - v sends 2 to 1 but moves the prefix vertex 0
    assert _guess_on_hexagon("aaaaaa", (0, 1), (0, 2),
                             [[v] for v in range(6)],
                             [[3], [2], [1], [0], [5], [4]]) == (False, [])
    # this pairing sends 3 to 0 but the edge 1-2 to the non-edge 3-1
    assert _guess_on_hexagon("aaaaaa", (0, 1), (3,), depth1,
                             [[3], [2, 4], [0, 5], [1]]) == (False, [])


def test_guessed_automorphisms_pin_the_effort(monkeypatch):
    # (k, nodes, leaves, automorphisms, backjumps) of Z2^4 x Z3^2: one
    # leaf, and every first-path level settled by a guess
    g = graph_of("Z2xZ2xZ2xZ2xZ3xZ3")
    assert canonical_form(g).effort == (79, 35, 1, 17, 0)
    monkeypatch.setattr(canon, "_Search", _NoGuess)
    assert canonical_form(g).effort == (79, 171, 18, 17, 17)


def test_triangle_census_keys_match_bit_loop(oracle_graphs):
    for g in oracle_graphs + [graph_of(e) for e in TAIL_EXPRS]:
        qrows, descs, _ = twin_contraction(g)
        if len(qrows) > 1:
            search = canon._Search(qrows, descs, float("inf"))
            assert search.keys == list(
                zip(descs, oracles.triangle_census(qrows))), g.group.label


def test_invariant_bytes_order_like_int_tuples():
    # the node invariant's encoding: for values up to k, fixed-width
    # big-endian bytes order like the int tuples (a proper prefix first),
    # never wrap, and equal the oracle's int.to_bytes encoding
    rng = random.Random(0xB17E5)
    for k in (1, 255, 256, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 3, 2 ** 20,
              2 ** 32 - 1, 2 ** 32):
        dtype = canon._invariant_dtype(k)
        assert k < 256 ** dtype.itemsize
        assert dtype.itemsize == 1 or k >= 256 ** (dtype.itemsize // 2)
        pool = (0, 1, k // 2, k - 1, k)
        seqs = [[rng.choice(pool) if rng.random() < 0.7
                 else rng.randrange(k + 1)
                 for _ in range(rng.randrange(6))] for _ in range(80)]
        enc = []
        for seq in seqs:
            b = np.array(seq, dtype).tobytes()
            assert np.array(seq, np.int64).astype(dtype).tobytes() == b
            assert np.frombuffer(b, dtype).tolist() == seq
            assert oracles.big_endian_bytes(seq, k) == b
            enc.append(b)
        for a, ea in zip(seqs, enc):
            for b, eb in zip(seqs, enc):
                assert (a < b) == (ea < eb) and (a == b) == (ea == eb)


def _partition(keys):
    """The classes of equal keys, as sorted lists of positions."""
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, set()).add(i)
    return sorted(map(sorted, classes.values()))


def test_catalog_certificates_are_labeling_invariant(catalog_groups):
    # every non-cyclic graph of the default catalog, two relabelings each;
    # the base certificates and labelings are pinned by their SHA-256 in
    # catalog order, and the quotient certificates split the graphs into
    # the classes of the expanded canonical matrices
    rng = random.Random(0x5EED)
    digest = hashlib.sha256()
    labelings = hashlib.sha256()
    certificates, matrices = [], []
    for entry, group in catalog_groups:
        if G.is_cyclic_group(group):
            continue
        g = build_graph(group)
        base = canonical_form(g)
        digest.update(base.certificate)
        labelings.update(np.array(base.labeling, ">u4").tobytes())
        certificates.append(base.certificate)
        matrices.append(base.matrix)
        for _ in range(2):
            perm = list(range(g.n_vertices))
            rng.shuffle(perm)
            cf = canonical_form(relabel_rows(g.adjacency, perm))
            assert cf.certificate == base.certificate, entry.label
            assert cf.matrix == base.matrix, entry.label
    assert len(certificates) == 1454
    assert _partition(certificates) == _partition(matrices)
    assert digest.hexdigest() == ("8c906c616a2b39b5ccad9f123dfafc76"
                                  "2f462b3c54d2ccf4c9b091eff890ce25")
    assert labelings.hexdigest() == ("d68dbf6613299474c6fa1b4050097c9c"
                                     "599385447ce0de88e4fdc055b01e6053")


def test_certificate_matrix_is_relabeled_input():
    g = graph_of("D8")
    cf = canonical_form(g)
    assert cf.matrix == relabel_rows(g.adjacency, cf.labeling)


def test_certificate_is_the_annotated_quotient():
    # n, k, the best leaf's quotient rows and the descriptors in canonical
    # order; the lazy labeling lists each quotient vertex's members in turn
    for expr in ("Q8", "Z6xS3", "Z2xZ2xZ2xZ2xZ3xZ3"):
        g = graph_of(expr)
        qrows, descs, members = twin_contraction(g)
        n, k = g.n_vertices, len(qrows)
        cf = canonical_form(g)
        lab_q = cf.quotient_labeling
        width = canon._invariant_dtype(n).itemsize
        row_bytes = (k + 7) // 8
        quotient = induced_rows(qrows, lab_q)
        assert cf.certificate == (
            n.to_bytes(8, "big") + k.to_bytes(8, "big")
            + b"".join(r.to_bytes(row_bytes, "big") for r in quotient)
            + b"".join(canon._descriptor_bytes(descs[q], width)
                       for q in lab_q)), expr
        order = [v for q in lab_q for v in members[q]]
        assert [cf.labeling[v] for v in order] == list(range(n)), expr
        # n and the quotient alone give the same search and certificate,
        # but no labeling of the whole graph
        carried = canon.TwinQuotient.of(g)
        assert carried == canon.TwinQuotient.of(g.adjacency) == (n, qrows,
                                                                  descs)
        alone = canonical_form(carried)
        assert (alone.certificate, alone.effort) == (cf.certificate,
                                                     cf.effort), expr
        with pytest.raises(InvalidParameter):
            alone.labeling


def _decode_descriptors(data, width):
    """Descriptors read back from concatenated _descriptor_bytes."""
    out, i = [], 0
    while i < len(data):
        chain = []
        while data[i:i + 1] != b"v":
            tag = data[i:i + 1].decode("ascii")
            assert tag in "IC"
            chain.append((tag, int.from_bytes(data[i + 1:i + 1 + width],
                                              "big")))
            i += 1 + width
        i += 1
        desc = ("v",)
        for tag, size in reversed(chain):
            desc = (tag, size, desc)
        out.append(desc)
    return out


def test_descriptor_bytes_are_prefix_free_and_injective():
    v = ("v",)
    c_over_i = ("C", 2, ("I", 2, v))
    i_over_c = ("I", 2, ("C", 2, v))
    descs = [v, ("I", 2, v), ("C", 2, v), c_over_i, i_over_c,
             ("I", 3, ("C", 2, ("I", 2, v))), ("I", 300, v),
             ("C", 2, ("C", 2, v))]
    for width in (2, 4):
        enc = [canon._descriptor_bytes(d, width) for d in descs]
        assert len(set(enc)) == len(enc)
        assert not any(a != b and b.startswith(a) for a in enc for b in enc)
        seq = descs + descs[::-1]
        assert _decode_descriptors(
            b"".join(canon._descriptor_bytes(d, width) for d in seq),
            width) == seq
    # the 4-cycle is C over I, two disjoint edges I over C: one quotient
    # vertex each, told apart by the descriptor alone
    square = canonical_form((0b1010, 0b0101, 0b1010, 0b0101))
    edges = canonical_form((0b0010, 0b0001, 0b1000, 0b0100))
    assert square.certificate[:17] == edges.certificate[:17]
    assert square.certificate != edges.certificate
    assert are_isomorphic((0b1010, 0b0101, 0b1010, 0b0101),
                          (0b0010, 0b0001, 0b1000, 0b0100)) is None


def test_paper_families_iso_and_noniso():
    assert are_isomorphic(graph_of("G(2,4)"), graph_of("K(2,4)")) is not None
    assert are_isomorphic(graph_of("G(3,3)"), graph_of("K(3,3)")) is not None
    assert are_isomorphic(graph_of("G(2,5)"), graph_of("K(2,5)")) is not None
    assert are_isomorphic(graph_of("D8"), graph_of("K(2,3)")) is None
    assert are_isomorphic(graph_of("H(4)"), graph_of("K(2,4)")) is None
    assert are_isomorphic(graph_of("H(4)"), graph_of("D16")) is None
    assert are_isomorphic(graph_of("D16"), graph_of("Q16")) is None


def test_bijections_are_verified_and_returned():
    g = graph_of("G(2,4)")
    h = graph_of("K(2,4)")
    bij = are_isomorphic(g, h)
    mapping = dict(bij)
    assert sorted(mapping) == list(range(g.n_vertices))
    assert sorted(mapping.values()) == list(range(h.n_vertices))
    for u in range(g.n_vertices):
        for v in range(g.n_vertices):
            assert ((g.adjacency[u] >> v) & 1) == \
                ((h.adjacency[mapping[u]] >> mapping[v]) & 1)


def test_self_isomorphism():
    g = graph_of("S3")
    bij = are_isomorphic(g, g)
    assert bij is not None


def test_small_graph_oracle_agreement():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 7)
        rows1 = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows1[i] |= 1 << j
                    rows1[j] |= 1 << i
        perm = list(range(n))
        rng.shuffle(perm)
        rows2 = list(relabel_rows(rows1, perm))
        # relabeled copy: always isomorphic
        assert are_isomorphic(rows1, rows2) is not None
        # random other graph: compare the decision against brute force
        rows3 = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows3[i] |= 1 << j
                    rows3[j] |= 1 << i
        got = are_isomorphic(rows1, rows3) is not None
        assert got == oracles.perm_isomorphic(rows1, rows3)


def test_vertex_cap():
    g = graph_of("S3")
    with pytest.raises(TooLarge):
        canonical_form(g, vertex_cap=2)


def test_timeout_budget(monkeypatch):
    g = graph_of("Z2xZ4")  # not complete multipartite, so the search runs
    with pytest.raises(Timeout):
        canonical_form(g, timeout=0.0)
    monkeypatch.setenv("NONCYC_TIMEOUT_SECS", "0")
    with pytest.raises(Timeout):
        canonical_form(g)
    monkeypatch.setenv("NONCYC_TIMEOUT_SECS", "30")
    assert canonical_form(g).vertex_count == 7


def test_timeout_holds_during_the_triangle_census():
    # a dense random graph at the vertex cap has no twins, and its O(k^3)
    # triangle census alone takes seconds; the deadline is checked between
    # the census's row blocks
    rng = np.random.default_rng(2048)
    upper = np.triu(rng.random((2048, 2048)) < 0.5, 1)
    rows = _bit_rows(upper | upper.T)
    budget = 0.5
    start = time.monotonic()
    with pytest.raises(Timeout):
        canonical_form(rows, timeout=budget)
    assert time.monotonic() - start < 4 * budget


def test_timeout_holds_during_the_twin_contraction(monkeypatch):
    # K(2,2,1) as bare rows: its false-twin pairs merge, then those two
    # classes as true twins, leaving a 2-vertex quotient to search; the
    # deadline is checked between the rounds, before any search
    rows = [0b11100, 0b11100, 0b10011, 0b10011, 0b01111]
    assert len(twin_contraction(rows)[0]) == 2

    def searched(*args):
        raise AssertionError("the search was set up")

    monkeypatch.setattr(canon, "_Search", searched)
    with pytest.raises(Timeout):
        canonical_form(rows, timeout=0)


def test_goormaghtigh_condition():
    # identical parameters always match
    assert check_goormaghtigh_condition(2, 2, 3, 2, 2, 3) == (True, True)
    # part-count equation across distinct prime powers: 2^5 and 5^3
    assert check_goormaghtigh_condition(2, 5, 1, 5, 3, 1)[0] is True
    # 2^2 versus 3^2: 3 parts versus 4 parts
    assert check_goormaghtigh_condition(2, 2, 3, 3, 2, 1)[0] is False
    # part sizes: n(p-1) = t(q-1)
    assert check_goormaghtigh_condition(2, 2, 3, 3, 2, 1)[1] is False
    assert check_goormaghtigh_condition(3, 2, 2, 5, 2, 1)[1] is True
    with pytest.raises(InvalidParameter):
        check_goormaghtigh_condition(4, 2, 1, 2, 2, 1)
    with pytest.raises(InvalidParameter):
        check_goormaghtigh_condition(2, 1, 1, 2, 2, 1)
    with pytest.raises(InvalidParameter):
        check_goormaghtigh_condition(2, 2, 2, 2, 2, 1)


def test_multipartite_isomorphism_agrees_with_canonical_form():
    # prime-exponent groups with coprime cyclic factors give complete
    # multipartite graphs; are_isomorphic and canonical forms must agree
    a = graph_of("EA(2,2)xZ3")
    b = graph_of("EA(2,2)xZ5")
    c = graph_of("EA(2,2)xZ3")
    assert are_isomorphic(a, b) is None
    bij = are_isomorphic(a, c)
    assert bij is not None
    assert canonical_form(a).matrix == canonical_form(c).matrix
    assert canonical_form(a).matrix != canonical_form(b).matrix
