import dataclasses
import functools
import gc
import json
import random
import types
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import oracles
from noncyclic import canon, cyclicizers, graph, groups, harness, structure
from noncyclic.errors import Disconnected, UnknownCheck, VerificationFailure
from noncyclic.harness import (CHECKS, Catalog, CheckResult, GroupProfile,
                               all_pass, analyze_entry, profile_of,
                               render_table, report_json, run_all, run_check)


@pytest.fixture(scope="module")
def small_catalog():
    return Catalog.default(max_order=32)


def test_default_catalog_contents():
    cat = Catalog.default(max_order=64)
    labels = {e.label for e in cat.entries}
    for expected in ("Z1", "Z64", "Z2xZ4", "D8", "Q8", "G(2,3)", "H(4)",
                     "S4", "A5", "Z3xQ8", "Z2xZ2xZ2xZ2"):
        assert expected in labels
    assert "S5" not in labels  # order 120 > 64
    assert all(e.spec.order() <= 64 for e in cat.entries)
    assert len(labels) == len(cat.entries)


def test_default_catalog_bound_filters_symmetric_groups():
    cat = Catalog.default(max_order=200)
    labels = {e.label for e in cat.entries}
    assert "S5" in labels and "A5" in labels
    assert "S6" not in labels and "A6" not in labels  # orders exceed 200
    big = Catalog.default(max_order=720)
    assert "S6" in {e.label for e in big.entries}


def test_catalog_products_match_the_full_pair_scan():
    # bisected partners, orders carried once: the same entries in the same
    # order as scanning every base pair, including which pair's spec a
    # colliding product label keeps
    # at 5040 the degree-7 groups fit, as every family does under its bound
    for max_order in (30, 200, 720, 5040):
        specs = [(spec.label(), spec)
                 for spec in harness._base_specs(max_order)]
        entries = Catalog.default(max_order).entries
        assert entries == oracles.scanned_default_entries(specs, max_order)
        assert ({"A7", "S7", "Z2xA7"} <= {e.label for e in entries}) == (
            max_order == 5040)
    entries = {e.label: e.spec for e in Catalog.default(720).entries}
    assert [c.label() for c in entries["Z2xZ2xZ2xZ2xZ17"].children] == [
        "Z2xZ2xZ2xZ2", "Z17"]


def test_catalog_subset_and_unknown_check(small_catalog):
    sub = small_catalog.subset(["Q8"])
    assert len(sub) == 1
    with pytest.raises(UnknownCheck):
        run_check(sub, "does_not_exist")


def test_omega_chi_s_on_q8(small_catalog):
    res = run_check(small_catalog.subset(["Q8"]), "omega_chi_s")
    assert res.passed and res.tested == 1


def test_graph_checks_skip_cyclic_groups(small_catalog):
    per_entry = [n for n, c in CHECKS.items() if c.kind in ("group", "graph")]
    assert len(per_entry) == 15
    results = run_all(small_catalog.subset(["Z4"]), names=per_entry)
    for res in results:
        assert res.passed, res.name
        if CHECKS[res.name].kind == "graph":
            assert (res.tested, res.skipped) == (0, [("Z4", "cyclic")]), \
                res.name
        elif res.name == "homocyclic_degree_formula":   # one factor only
            assert res.skipped == [
                ("Z4", "not homocyclic on more than one factor")]
        else:
            assert (res.tested, res.skipped) == (1, []), res.name


def test_run_all_small_catalog_passes(small_catalog):
    results = run_all(small_catalog)
    assert set(r.name for r in results) == set(CHECKS)
    failing = [r.name for r in results if not r.passed]
    assert failing == []
    assert all_pass(results)
    table = render_table(results)
    assert "overall: PASS" in table
    doc = json.loads(report_json(results))
    assert all(set(item) == {"check", "statement", "tested", "skipped",
                             "counterexamples", "findings", "pass"}
               for item in doc)
    timed = json.loads(report_json(results, with_timing=True))
    assert all("elapsed_ms" in item for item in timed)


def test_fault_injected_catalog_entry(tmp_path, small_catalog):
    entries = [{"label": "ok", "spec": "Q8"}]
    for i, body in enumerate(["0 1 2\n1 0 2\n2 0 1\n",   # not a Latin square
                              "0 4294967297\n1 0\n",       # 2^32 + 1
                              "0 1.5\n1.5 0\n",
                              "0 99999999999999999999\n1 0\n"]):
        path = tmp_path / f"broken{i}.cayley"
        path.write_text(f"{len(body.splitlines())}\n{body}")
        entries.append({"label": f"broken{i}", "spec": f"cayley:{path}"})
    cat_file = tmp_path / "catalog.json"
    cat_file.write_text(json.dumps(entries))
    cat = Catalog.from_file(str(cat_file))
    res = run_check(cat, "diam_le_3")
    assert res.passed
    assert res.tested == 1
    assert sorted(label for label, reason in res.skipped
                  if reason.startswith("build failed (")) == \
        ["broken0", "broken1", "broken2", "broken3"]


def _doctored(az, rng):
    """Copies of ``az`` whose cyclicizer rows lose members: one member of a
    row (its size is no longer divisible by |Cyc(G)|), |Cyc(G)| members
    taken from two cosets in a row (both cosets leak), both at once, and one
    whole coset taken from the row of a coset's smallest element (its image
    in G/Cyc(G) loses that coset)."""
    g, ct = az.group, az.ctable
    cyc = ct.cyc_members()

    def drop(rows, counts):
        x = rng.randrange(1, g.order)
        members = oracles.rows_to_sets([rows[x]])[0]
        cosets = sorted({tuple(sorted(g.mult(y, c) for c in cyc))
                         for y in members})
        for coset, k in zip(rng.sample(cosets, len(counts)), counts):
            for y in rng.sample(coset, k):
                rows[x] &= ~(1 << y)

    out = []
    for plan in ([(1,)], [(1, len(cyc) - 1)], [(1,), (1, len(cyc) - 1)]):
        rows = list(ct.rows)
        for counts in rng.sample(plan, len(plan)):
            drop(rows, counts)
        out.append(dataclasses.replace(
            az, ctable=dataclasses.replace(ct, rows=tuple(rows))))
    cosets = {}   # smallest element -> coset
    for y in range(g.order):
        cosets.setdefault(min(g.mult(y, c) for c in cyc), []).append(y)
    rows = list(ct.rows)
    rep = rng.choice(sorted(cosets))
    dropped = rng.choice([r for r in sorted(cosets) if (rows[rep] >> r) & 1])
    for y in cosets[dropped]:
        rows[rep] &= ~(1 << y)
    out.append(dataclasses.replace(
        az, ctable=dataclasses.replace(ct, rows=tuple(rows))))
    return out


def test_coset_union_matches_loop_oracle(analyzed_64):
    """cyc_coset_union and quotient_cyc_trivial agree with their loop
    oracles on every catalog group and on doctored cyclicizer rows."""
    rng = random.Random(0xC05E7)
    reasons = Counter()
    for az in analyzed_64:
        cases = [az]
        if az.ctable.cyc_size > 1 and not az.is_cyclic:
            cases += _doctored(az, rng)
        for case in cases:
            for name, oracle in (("cyc_coset_union", oracles.coset_union_loop),
                                 ("quotient_cyc_trivial",
                                  oracles.quotient_loop)):
                got = harness._check_entry(case, name)
                want = CheckResult(name, got.statement, tested=1,
                                   elapsed_ms=got.elapsed_ms)
                oracle(case, want)
                assert got == want, (az.label, name)
                reasons.update(ce["reason"] for ce in got.counterexamples)
    assert reasons["cyclicizer size not divisible by group cyclicizer"] > 0
    assert reasons["coset leaks outside the cyclicizer"] > 0
    assert reasons["cyclicizer does not project onto the quotient"] > 0


def _core_doctored(az, rng):
    """Copies of ``az`` whose cyclicizer rows stay a symmetric relation, as
    real rows are (the check's core and the loop's agree only then): x loses
    its own bit in Cyc(x), and a pair y, z in the core of some Cyc(x) is
    cleared from both Cyc(y) and Cyc(z)."""
    g, ct = az.group, az.ctable
    missing = list(ct.rows)
    x = rng.randrange(g.order)
    missing[x] &= ~(1 << x)
    split = list(ct.rows)
    x = rng.randrange(1, g.order)   # its core holds x and the identity
    d_bits = ct.rows[x]
    core = [y for y in sorted(oracles.rows_to_sets([d_bits])[0])
            if ct.rows[y] & d_bits == d_bits]
    y, z = rng.sample(core, 2)
    split[y] &= ~(1 << z)
    split[z] &= ~(1 << y)
    return [dataclasses.replace(az, ctable=dataclasses.replace(
        ct, rows=tuple(rows))) for rows in (missing, split)]


def test_core_cyclic_matches_loop_oracle(analyzed_64):
    """cyc_core_cyclic agrees with its loop oracle on every catalog group
    and on doctored cyclicizer rows, and both failures occur."""
    rng = random.Random(0xC0DE)
    reasons = Counter()
    for az in analyzed_64:
        cases = [az] + (_core_doctored(az, rng) if az.group.order > 1 else [])
        for case in cases:
            got = harness._check_entry(case, "cyc_core_cyclic")
            want = CheckResult("cyc_core_cyclic", got.statement, tested=1,
                               elapsed_ms=got.elapsed_ms)
            oracles.core_cyclic_loop(case, want)
            assert got == want, az.label
            reasons.update(ce["reason"] for ce in got.counterexamples)
    assert reasons["core misses the element itself"] > 0
    assert reasons["core is not a cyclic subgroup"] > 0


def test_cyc_cores_with_empty_rows():
    """The packed cores equal D & AND(Cyc(w) for w in D) over Python ints on
    random rows, among them empty rows in the middle and as the last row,
    right after rows of two or more members."""
    rng = np.random.default_rng(0xC0DE)
    empty_last = 0
    for case in range(400):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, 8))
        rows = rng.random((k, n)) < rng.random()
        rows[rng.random(k) < 0.2] = False
        if case % 2:
            rows[-1] = False
        row_of = rng.integers(0, k, size=n)
        ints = cyclicizers._packed_rows(np.packbits(rows, axis=1,
                                              bitorder="little"))
        want = []
        for d_bits in ints:
            core = d_bits
            for w in oracles.rows_to_sets([d_bits])[0]:
                core &= ints[row_of[w]]
            want.append(core)
        got = cyclicizers._packed_rows(harness._cyc_cores(rows, row_of))
        assert list(got) == want, case
        empty_last += k > 1 and not rows[-1].any() and rows[-2].sum() > 1
    assert empty_last > 50


def test_quotient_check_builds_no_group(monkeypatch, analyzed_64):
    """quotient_cyc_trivial reads the quotients' cyclicizers off the
    entry's `CyclicizerTable.distinct`: it constructs no Group."""
    built = []
    init = groups.Group.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("label"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.Group, "__init__", counted_init)
    quotients = 0
    for az in analyzed_64:
        result = CheckResult("quotient_cyc_trivial", "")
        CHECKS["quotient_cyc_trivial"].fn(az, result)
        assert result.passed, az.label
        quotients += (az.ctable.cyc_size > 1) + (1 < len(az.center)
                                                 < az.group.order)
    assert not built
    assert quotients > 100
    groups.build(groups.parse_group_expr("Z2"))
    assert built     # the patch sees a construction


def test_catalog_from_file_respects_max_order(tmp_path):
    cat_file = tmp_path / "catalog.json"
    cat_file.write_text(json.dumps([
        {"label": "a", "spec": "Z4"},
        {"label": "b", "spec": "S5"},
    ]))
    cat = Catalog.from_file(str(cat_file), max_order=30)
    assert [e.label for e in cat.entries] == ["a"]


def test_catalog_from_file_drops_a_product_with_an_a1_factor(tmp_path):
    # A1 has order 1, so A1xS7 has order 5040
    cat_file = tmp_path / "catalog.json"
    cat_file.write_text(json.dumps([{"spec": "A1xS7"}, {"spec": "A1xZ4"}]))
    cat = Catalog.from_file(str(cat_file), max_order=100)
    assert [e.label for e in cat.entries] == ["A1xZ4"]


def test_catalog_from_file_skips_oversized_perm_and_cayley(tmp_path):
    s4 = tmp_path / "s4.cayley"
    groups.to_cayley_file(groups.build(groups.parse_group_expr("S4")), str(s4))
    cat_file = tmp_path / "catalog.json"
    cat_file.write_text(json.dumps([
        {"spec": "perm:4:(1 2),(1 2 3 4)"},
        {"label": "s4file", "spec": f"cayley:{s4}"},
        {"label": "v4", "spec": "perm:4:(1 2)(3 4),(1 3)(2 4)"},
        {"spec": "Z2xZ2"},
        {"label": "missing", "spec": f"cayley:{tmp_path / 'missing'}"},
        {"spec": "Z2xperm:3:(1 2),(1 2 3)"},
    ]))
    res = run_check(Catalog.from_file(str(cat_file), max_order=10),
                    "diam_le_3")
    assert res.passed
    assert res.tested == 2
    assert res.skipped[:2] == [
        ("perm:4:(1 2),(1 2 3 4)", "order 24 exceeds the maximum order 10"),
        ("s4file", "order 24 exceeds the maximum order 10")]
    assert res.skipped[2][0] == "missing"
    assert res.skipped[2][1].startswith("build failed (ParseError: ")
    # a product's order is known once its factors' tables are
    assert res.skipped[3] == ("Z2xperm:3:(1 2),(1 2 3)",
                              "order 12 exceeds the maximum order 10")
    assert run_check(Catalog.from_file(str(cat_file)), "diam_le_3").tested == 5


def test_jobs_parallel_matches_serial(small_catalog):
    names = ["diam_le_3", "iso_order_spectrum", "nilpotent_transfer"]
    serial = run_all(small_catalog, names=names)
    parallel = run_all(small_catalog, jobs=2, names=names)
    assert serial[2].tested > 0
    assert ([r.to_json_dict() for r in serial]
            == [r.to_json_dict() for r in parallel])
    # the JSON report keeps only the first skip labels; compare them all
    assert len(serial[0].skipped) > harness.MAX_REPORTED
    for s, p in zip(serial, parallel):
        assert ((s.skipped, s.counterexamples, s.findings)
                == (p.skipped, p.counterexamples, p.findings))


def test_iso_classes_contain_known_duplicates():
    cat = Catalog.default(max_order=32).subset(
        ["D8", "G(2,3)", "Z2xZ4", "G(2,4)", "Z2xZ8", "Q8", "D6", "S3"])
    res = run_check(cat, "iso_order_spectrum")
    assert res.passed
    res = run_check(cat, "nilpotent_transfer")
    assert res.passed
    res = run_check(cat, "dihedral_uniqueness")
    assert res.passed


def test_homocyclic_required_cases():
    res = run_check(Catalog([], None), "homocyclic_required_cases")
    assert res.passed
    assert res.tested == 5


def test_cyclic_maximal_families():
    res = run_check(Catalog([], None), "cyclic_maximal_families")
    assert res.passed
    assert res.tested >= 18


def test_oversized_certificate_is_a_skip_reason(monkeypatch, small_catalog):
    # the 9-vertex graphs of A3xZ2xZ2 and of Z2xZ2xZ3 = Z2xZ6 share their
    # degree census under two structural keys, so their forms are needed,
    # and they exceed the cap; without certificates they must not compare
    # as isomorphic. Z2xZ10 (15 vertices) is alone in its bucket: it needs
    # no form and enters the classes.
    monkeypatch.setattr(harness, "canonical_form",
                        functools.partial(canon.canonical_form, vertex_cap=8))
    cat = small_catalog.subset(["Z2xZ2", "Z2xZ6", "Z2xZ2xZ3", "A3xZ2xZ2",
                                "Z2xZ10", "Q8"])
    results = {r.name: r for r in run_all(cat, names=[
        "multipartite_iso_condition", "iso_order_spectrum", "diam_le_3"])}
    goor = results["multipartite_iso_condition"]
    assert goor.passed and goor.tested == 1     # Z2xZ2 and Z2xZ10
    reason = "no certificate (TooLarge: 9 vertices exceeds the cap of 8)"
    assert goor.skipped == [(lab, reason) for lab in
                            ("A3xZ2xZ2", "Z2xZ2xZ3", "Z2xZ6")]
    assert results["iso_order_spectrum"].tested == 3   # Z2xZ2, Q8, Z2xZ10
    assert results["diam_le_3"].tested == 6
    assert results["diam_le_3"].skipped == []


def test_certificate_timeout_is_a_skip_reason(monkeypatch, small_catalog):
    monkeypatch.setenv("NONCYC_TIMEOUT_SECS", "0")
    # Q8 and Z2xZ4, whose search would time out, are alone in their buckets
    # and need no form; Z2xZ12 and Z4xZ6 share a bucket and a structural
    # key, so they form a class with no form. D8 and G(2,3) share a bucket
    # under two keys: their forms are needed and time out. The forms of
    # Z2xZ6 and A3xZ2xZ2 are needed too, but their graphs contract to one
    # vertex and need no search.
    cat = small_catalog.subset(["Q8", "Z2xZ4", "D8", "G(2,3)", "Z2xZ6",
                                "A3xZ2xZ2", "Z2xZ12", "Z4xZ6"])
    spectrum, divisibility = run_all(cat, names=["iso_order_spectrum",
                                                 "iso_cyc_divisibility"])
    reason = ("no certificate (Timeout: canonical form search exceeded its "
              "time budget)")
    for res in (spectrum, divisibility):
        assert res.passed
        assert res.skipped == [(lab, reason) for lab in ("D8", "G(2,3)")]
    assert spectrum.tested == 6
    # ordered pairs within the classes {A3xZ2xZ2, Z2xZ6} and {Z2xZ12, Z4xZ6}
    assert divisibility.tested == 4


def test_elapsed_ms_is_rounded_once(monkeypatch, small_catalog):
    # every timed span reads 0.4 ms; five entries must report 2 ms, not 0
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(
        perf_counter=lambda: next(ticks) * 0.0004))
    cat = small_catalog.subset(["Q8", "D8", "S3", "Z2xZ4", "Z2xZ2"])
    res = run_check(cat, "omega_chi_s")
    assert res.tested == 5
    assert res.to_json_dict(with_timing=True)["elapsed_ms"] == 2
    assert "elapsed_ms" not in res.to_json_dict()


def test_group_checks_alone_compute_no_certificate(monkeypatch, small_catalog):
    def no_canonical_form(*args, **kwargs):
        raise AssertionError("canonical form computed without a global check")

    monkeypatch.setattr(harness, "canonical_form", no_canonical_form)
    res = run_check(small_catalog.subset(["Q8", "D8", "Z2xZ4"]), "diam_le_3")
    assert res.passed and res.tested == 3


def test_profiles_are_made_only_for_a_global_check(monkeypatch,
                                                   small_catalog):
    # a per-entry check alone makes no profile, and reports as it does
    # beside a global check, which makes each entry's profile after its
    # checks
    steps = []
    check_entry, profile_of = harness._check_entry, harness.profile_of

    def checked(az, name):
        steps.append((az.label, name))
        return check_entry(az, name)

    def profiled(az, *args):
        steps.append((az.label, "profile"))
        return profile_of(az, *args)

    monkeypatch.setattr(harness, "_check_entry", checked)
    monkeypatch.setattr(harness, "profile_of", profiled)
    labels = [e.label for e in small_catalog.entries]
    alone = run_all(small_catalog, names=["diam_le_3"])
    assert steps == [(label, "diam_le_3") for label in labels]
    steps.clear()
    beside = run_all(small_catalog, names=["diam_le_3", "iso_order_spectrum"])
    assert steps == [step for label in labels
                     for step in ((label, "diam_le_3"), (label, "profile"))]
    assert alone[0].to_json_dict() == beside[0].to_json_dict()
    assert beside[1].passed and beside[1].tested > 0


def test_profiles_expand_no_canonical_form(monkeypatch):
    # the certificates of the profiles' twin quotients are the quotient
    # certificates alone: no canonical labeling or matrix of a whole graph
    # is built, for the graph or a Sylow graph
    def no_expansion(*args, **kwargs):
        raise AssertionError("canonical form expanded")

    monkeypatch.setattr(canon, "relabel_rows", no_expansion)
    sylow_graphs = 0
    for entry in Catalog.default(max_order=64).entries:
        az = analyze_entry(entry)
        prof = profile_of(az)
        if az.graph is None:
            continue
        n = az.graph.n_vertices
        k = len(canon.twin_contraction(az.graph)[0])
        cert, _ = harness._certificate_of(prof.quotient)
        assert cert[:16] == n.to_bytes(8, "big") + k.to_bytes(8, "big")
        for _, quotient in prof.sylow_quotients or ():
            assert harness._certificate_of(quotient)[0] is not None
            sylow_graphs += 1
    assert sylow_graphs


def test_sylow_certificates_match_rebuilt_subgroups():
    # every nilpotent catalog group of order <= 100 with trivial cyclicizer
    checked = Counter()
    for entry in Catalog.default(max_order=100).entries:
        az = analyze_entry(entry)
        prof = profile_of(az)
        sylows = structure.sylow_decomposition(az.group)
        if sylows is None or az.graph is None or prof.cyc_size != 1:
            assert prof.sylow_quotients is None
            continue
        # a p-group's Sylow graph is its graph
        quotients = prof.sylow_quotients or ((prof.is_pgroup[0],
                                              prof.quotient),)
        assert tuple((p, harness._certificate_of(q)[0])
                     for p, q in quotients) == tuple(
            (p, oracles.rebuilt_sylow_certificate(az.group, members))
            for p, members in sylows.items())
        checked[len(sylows) > 1] += 1
    assert checked == {False: 100, True: 19}


def _synthetic_profile(label, nilpotent=True,
                       sylows=((2, b"cert-2"), (3, b"cert-3"))):
    return GroupProfile(label, None, order=36, cyc_size=1,
                        is_nilpotent=nilpotent,
                        sylow_classes=sylows if nilpotent else None,
                        graph_class=("graph",))


def test_nilpotent_transfer_reports_each_mismatch():
    anchor = _synthetic_profile("A")
    cases = [
        (_synthetic_profile("B"), []),
        (_synthetic_profile("B", nilpotent=False),
         [{"pair": ("A", "B"), "nilpotent": (True, False)}]),
        (_synthetic_profile("B", sylows=((2, b"cert-2"), (5, b"cert-3"))),
         [{"pair": ("A", "B"), "primes": ([2, 3], [2, 5])}]),
        (_synthetic_profile("B", sylows=((2, b"cert-2"), (3, b"other"))),
         [{"pair": ("A", "B"), "prime": 3,
           "reason": "Sylow graphs are not isomorphic"}]),
    ]
    for other, expected in cases:
        result = CheckResult("nilpotent_transfer", "")
        CHECKS["nilpotent_transfer"].fn([anchor, other], result)
        assert result.tested == 1
        assert result.counterexamples == expected


def test_transfer_reads_profiles_only(monkeypatch, small_catalog):
    real_as_group = groups.Subgroup.as_group
    real_members = structure.sylow_members
    as_group_calls = []
    member_calls = Counter()

    def counting_as_group(self, *args, **kwargs):
        as_group_calls.append(self)
        return real_as_group(self, *args, **kwargs)

    def counting_members(group, p):
        member_calls[group.label, p] += 1
        return real_members(group, p)

    monkeypatch.setattr(groups.Subgroup, "as_group", counting_as_group)
    monkeypatch.setattr(structure, "sylow_members", counting_members)
    res = run_check(small_catalog.subset(["G(2,4)", "Z2xZ8"]),
                    "nilpotent_transfer")
    assert res.passed and res.tested == 1
    assert as_group_calls == []
    assert member_calls == {("G(2,4)", 2): 1, ("Z2xZ8", 2): 1}


def _analyzed(expr):
    return analyze_entry(harness.CatalogEntry(expr,
                                              groups.parse_group_expr(expr)))


def _class_degrees(az, degrees):
    """``az`` whose graph's Q vertices have the given degrees."""
    return dataclasses.replace(az, graph=dataclasses.replace(
        az.graph, class_degrees=tuple(degrees)))


def _profile(label, **fields):
    return GroupProfile(label, None, graph_class=("class",), **fields)


# Planted violations: for each check, a generator of (the check's arguments
# before its result, the counterexamples they must give), built from a
# doctored entry, doctored profiles, or a builder or an invariant patched
# through ``mp``, a pytest MonkeyPatch.


def _with_cyc(az, *members):
    """``az`` whose Cyc(G) is the given members."""
    bits = sum(1 << x for x in members)
    return dataclasses.replace(az, ctable=dataclasses.replace(
        az.ctable, cyc_bits=bits))


def _with_member_everywhere(az, y):
    """``az`` with y put into every element's cyclicizer."""
    rows = tuple(row | 1 << y for row in az.ctable.rows)
    return dataclasses.replace(az, ctable=dataclasses.replace(
        az.ctable, rows=rows))


def _planted_quotient(mp):
    # the coset of b (of r) meets every cyclicizer, so Q8/Cyc(Q8) (D8/Z(D8))
    # gets a non-trivial cyclicizer
    q8 = _analyzed("Q8")
    yield ((_with_member_everywhere(q8, q8.group.labels.index("b")),),
           [{"group": "Q8",
             "reason": "quotient by cyclicizer keeps non-trivial cyclicizer"}])
    d8 = _analyzed("D8")
    yield ((_with_member_everywhere(d8, d8.group.labels.index("r")),),
           [{"group": "D8",
             "reason": "central quotient has non-trivial cyclicizer"}])


def _planted_pgroup_cyc(mp):
    # D8's central involution r2 put into its trivial Cyc(G)
    yield ((_with_cyc(_analyzed("D8"), 0, 2),),
           [{"group": "D8", "cyc_size": 2, "cyclic": False,
             "generalized_quaternion": False}])


def _planted_complete(mp):
    ea2, ea3, z2z4 = _analyzed("Z2xZ2"), _analyzed("Z3xZ3"), _analyzed("Z2xZ4")
    yield ((_class_degrees(ea2, [1, 2, 2]),),
           [{"group": "Z2xZ2", "complete": False,
             "elementary_abelian": (2, 2)}])
    for az, ea in ((ea3, (3, 2)), (z2z4, None)):
        complete = [az.graph.n_vertices - 1] * len(az.graph.class_degrees)
        yield ((_class_degrees(az, complete),),
               [{"group": az.label, "complete": True,
                 "elementary_abelian": ea}])


def _with_diameter(mp, diameter):
    real = graph.diameter_info
    mp.setattr(harness, "diameter_info", lambda g: dataclasses.replace(
        real(g), diameter=diameter))


def _planted_diameter(mp):
    _with_diameter(mp, 4)
    yield ((_analyzed("S3"),),
           [{"group": "S3", "diameter": 4, "witness": ("(1 2 3)", "(1 3 2)")}])
    # Z(Q8) = Cyc(Q8)
    _with_diameter(mp, 3)
    yield ((_analyzed("Q8"),),
           [{"group": "Q8", "diameter": 3,
             "reason": "center equals cyclicizer but diameter is not 2"}])


def _planted_nilpotent_diameter(mp):
    _with_diameter(mp, 3)
    yield ((_analyzed("Q8"),),
           [{"group": "Q8", "diameter": 3, "witness": ("a", "a3")}])


def _planted_omega_chi(mp):
    real = graph.clique_and_chromatic
    for omega, chi in ((4, 5), (5, 5)):
        mp.setattr(harness, "clique_and_chromatic",
                   lambda g, ct, omega=omega, chi=chi: dataclasses.replace(
                       real(g, ct), omega=omega, chi=chi))
        yield ((_analyzed("S3"),),
               [{"group": "S3", "omega": omega, "chi": chi, "s": 4}])


def _planted_bounds(mp):
    # S3 has s = 4 maximal cyclic subgroups, and Z2xZ6 has 3
    yield ((_with_cyc(_analyzed("S3"), 0, 1),),
           [{"group": "S3", "s": 4, "index": 3,
             "reason": "clique count exceeds cyclicizer index"}])
    yield ((_with_cyc(_analyzed("Z2xZ6"), 0),),
           [{"group": "Z2xZ6", "s": 3, "index": 12, "bound": 4,
             "reason": "covering bound violated"}])


def _planted_alpha(mp):
    real = graph.independence_info
    mp.setattr(harness, "independence_info", lambda g, ct: dataclasses.replace(
        real(g, ct), brute_value=1, mismatch=True))
    yield ((_analyzed("S3"),),
           [{"group": "S3", "formula": 2, "exact": 1,
             "reason": "closed form exceeds the exact independence number"}])


def _planted_regular(mp):
    yield ((_class_degrees(_analyzed("Z2xZ2"), [1, 2, 2]),),
           [{"group": "Z2xZ2", "regular": False, "family": ("P", 2, 2, 1)}])


def _planted_homocyclic(mp):
    az = _analyzed("Z4xZ4")
    yield ((_with_cyc(az, 0, 8),),
           [{"group": "Z4xZ4", "reason": "group cyclicizer is not trivial"}])
    rows = list(az.ctable.rows)
    rows[1] &= ~(1 << 3)    # (0,3) leaves Cyc((0,1))
    yield ((dataclasses.replace(az, ctable=dataclasses.replace(
        az.ctable, rows=tuple(rows))),),
           [{"group": "Z4xZ4", "element": "(0,1)", "got": 3, "expected": 4}])
    one = [az.graph.class_degrees[0]] * len(az.graph.class_degrees)
    yield ((_class_degrees(az, one),),
           [{"group": "Z4xZ4", "kind_degrees": 1, "expected": 2}])
    mp.setattr(harness, "is_tidy", lambda g: True)
    yield ((az,), [{"group": "Z4xZ4",
                    "reason": "expected a cyclicizer that is not a subgroup"}])


def _planted_two_kinds(mp):
    z4z4, ea = _analyzed("Z4xZ4"), _analyzed("Z2xZ2")
    one = [z4z4.graph.class_degrees[0]] * len(z4z4.graph.class_degrees)
    yield ((_class_degrees(z4z4, one),),
           [{"group": "Z4xZ4", "kind_degrees": 1, "family": True}])
    two = [d + (i > 0) for i, d in enumerate(ea.graph.class_degrees)]
    yield ((_class_degrees(ea, two),),
           [{"group": "Z2xZ2", "kind_degrees": 2, "family": False}])


def _planted_mu_disjoint(mp):
    # an element of the maximal order 4 put into Cyc(G)
    az = _analyzed("Z2xZ4")
    x = az.group.elem_orders.index(4)
    ct = dataclasses.replace(az.ctable, cyc_bits=az.ctable.cyc_bits | 1 << x)
    yield ((dataclasses.replace(az, ctable=ct),),
           [{"group": "Z2xZ4", "orders": [4]}])


def _planted_mu_self(mp):
    # the last element of a maximal order gains a member outside <x>
    az = _analyzed("S3")
    g, ct = az.group, az.ctable
    maximal = set(groups.mu(g))
    x = max(y for y in range(g.order) if g.elem_orders[y] in maximal)
    outside = next(y for y in range(g.order)
                   if not g.generated_cyclic_bits(x) >> y & 1)
    rows = list(ct.rows)
    rows[x] |= 1 << outside
    yield ((dataclasses.replace(az, ctable=dataclasses.replace(
        ct, rows=tuple(rows))),), [{"group": "S3", "element": g.labels[x]}])


def _planted_z6xs3(mp):
    _with_diameter(mp, 2)
    yield (), [{"group": "Z6xS3", "diameter": 2}]
    mp.setattr(harness, "diameter_info", graph.diameter_info)
    mp.setattr(harness, "distance", lambda g, a, b: 2)
    yield (), [{"group": "Z6xS3", "pair": ("(3,e)", "(2,e)"), "distance": 2}]


def _planted_homocyclic_fixed(mp):
    # every required case has m > 1
    mp.setattr(harness, "is_tidy", lambda g: True)
    yield (), [{"group": label,
                "reason": "expected a cyclicizer that is not a subgroup"}
               for label in ("(Z4)^2", "(Z4)^3", "(Z8)^2", "(Z9)^2",
                             "(Z25)^2")]


def _planted_families(mp):
    # every group's graph in a class of its own
    mp.setattr(harness, "canonical_form",
               lambda g: types.SimpleNamespace(certificate=g.group.label))
    yield (), [{"pair": pair, "expected": "isomorphic"} for pair in (
        ("G(2,4)", "K(2,4)"), ("G(2,5)", "K(2,5)"), ("G(3,3)", "K(3,3)"),
        ("G(2,3)", "D8"))]


def _planted_order_spectrum(mp):
    yield ([[_profile("A", order=8, pi_e=(1, 2, 4)),
             _profile("B", order=8, pi_e=(1, 2))]],
           [{"pair": ("A", "B"), "pi_e": ([1, 2, 4], [1, 2])}])


def _planted_divisibility(mp):
    # gcd(4, 6) = 2 is not divisible by B's |Cyc(G)| = 3
    yield ([[_profile("A", degrees_gcd=4, vertex_count=6, cyc_size=1),
             _profile("B", degrees_gcd=6, vertex_count=6, cyc_size=3)]],
           [{"pair": ("A", "B"), "cyc_size": 3, "gcd": 2}])


def _planted_goor(mp):
    # Z2xZ2 and EA(3,2) meet neither equation, (Z2xZ2) twice meets both
    z2z2, ea3 = ("P", 2, 2, 1), ("P", 3, 2, 1)
    yield ([[_profile("A", regular_family=z2z2),
             _profile("B", regular_family=ea3)]],
           [{"pair": ("A", "B"), "condition": (False, False), "iso": True}])
    yield ([[_profile("A", regular_family=z2z2),
             dataclasses.replace(_profile("B", regular_family=z2z2),
                                 graph_class=("other",))]],
           [{"pair": ("A", "B"), "condition": (True, True), "iso": False}])


def _planted_regular_unique(mp):
    yield ([[_profile("A", regular_family=("Q8", 3)), _profile("B")]],
           [{"anchor": "A", "other": "B", "families": (("Q8", 3), None)}])
    # P of odd order and rank 3 is outside the claim
    yield [[_profile("A", regular_family=("P", 3, 3, 1)), _profile("B")]], []


def _planted_dihedral_unique(mp):
    anchor = _profile("A", order=6, pi_e=(1, 2, 3), dihedral_n=3)
    yield ([[anchor, _profile("B", order=12, pi_e=(1, 2, 3))]],
           [{"anchor": "A", "other": "B",
             "reason": "order or element-order constraint fails"}])
    yield ([[anchor, _profile("B", order=6, pi_e=(1, 2, 3, 6))]],
           [{"anchor": "A", "other": "B", "reason": "odd half-order class "
                                                   "contains a non-dihedral "
                                                   "group"}])


def _planted_pgroup_recovery(mp):
    yield ([[_profile("A", order=16, is_pgroup=(2, 4), cyc_size=2)]],
           [{"group": "A", "reason": "non-trivial cyclicizer without "
                                     "generalized quaternion structure"}])
    yield ([[_profile("A", order=16, is_pgroup=(2, 4), cyc_size=2,
                      is_gen_quaternion=True), _profile("B", order=32)]],
           [{"anchor": "A", "other": "B", "reason": "classmate is not the "
                                                   "same generalized "
                                                   "quaternion group"}])
    yield ([[_profile("A", order=27, is_pgroup=(3, 3), cyc_size=1,
                      self_cyc_orders=(9,)), _profile("B", order=54)]],
           [{"anchor": "A", "other": "B", "orders": (27, 54)}])


PLANTED = {
    "pgroup_cyc_nontrivial": _planted_pgroup_cyc,
    "quotient_cyc_trivial": _planted_quotient,
    "complete_iff_ea2": _planted_complete,
    "diam_le_3": _planted_diameter,
    "nilpotent_diam_le_2": _planted_nilpotent_diameter,
    "omega_chi_s": _planted_omega_chi,
    "omega_index_bounds": _planted_bounds,
    "alpha_formula": _planted_alpha,
    "regular_classification": _planted_regular,
    "homocyclic_degree_formula": _planted_homocyclic,
    "abelian_two_kind_degrees": _planted_two_kinds,
    "mu_cyc_disjoint": _planted_mu_disjoint,
    "mu_self_cyclicizer": _planted_mu_self,
    "z6xs3_diam_3": _planted_z6xs3,
    "homocyclic_required_cases": _planted_homocyclic_fixed,
    "cyclic_maximal_families": _planted_families,
    "iso_order_spectrum": _planted_order_spectrum,
    "iso_cyc_divisibility": _planted_divisibility,
    "multipartite_iso_condition": _planted_goor,
    "regular_uniqueness": _planted_regular_unique,
    "dihedral_uniqueness": _planted_dihedral_unique,
    "pgroup_order_recovery": _planted_pgroup_recovery,
}
# the loop-oracle tests and test_nilpotent_transfer_reports_each_mismatch
# plant violations of the other three
FAILED_ELSEWHERE = {"cyc_coset_union", "cyc_core_cyclic",
                    "nilpotent_transfer"}


def test_every_check_has_a_planted_violation():
    assert set(PLANTED) | FAILED_ELSEWHERE == set(CHECKS)
    assert not set(PLANTED) & FAILED_ELSEWHERE


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_violation_is_reported(name, monkeypatch):
    """Each planted violation makes the check report exactly its expected
    counterexamples; a per-entry check runs through the runner's per-entry
    step, which names the entry."""
    for args, expected in PLANTED[name](monkeypatch):
        if CHECKS[name].kind in ("group", "graph"):
            result = harness._check_entry(*args, name)
        else:
            result = CheckResult(name, "")
            CHECKS[name].fn(*args, result)
        assert result.counterexamples == expected


def _plant_failure(monkeypatch, name, on=None):
    """Make check ``name`` raise VerificationFailure after its own run: on
    the entry labelled ``on``, or on every call of a global or fixed check.
    Pool workers fork after the patch, so they see it too."""
    real = CHECKS[name].fn

    def planted(*args):
        reason = real(*args)
        if on is None or args[0].label == on:
            raise VerificationFailure(f"planted in {name}")
        return reason

    monkeypatch.setitem(CHECKS, name,
                        dataclasses.replace(CHECKS[name], fn=planted))


def test_an_error_in_a_per_entry_check_is_one_counterexample(monkeypatch,
                                                            small_catalog):
    clean = run_check(small_catalog, "omega_chi_s")
    _plant_failure(monkeypatch, "omega_chi_s", on="Q8")
    serial = run_check(small_catalog, "omega_chi_s")
    assert serial.counterexamples == [
        {"group": "Q8", "reason": "VerificationFailure: planted in omega_chi_s"}]
    assert (serial.tested, serial.skipped) == (clean.tested, clean.skipped)
    parallel = run_check(small_catalog, "omega_chi_s", jobs=2)
    assert parallel.to_json_dict() == serial.to_json_dict()
    assert parallel.skipped == serial.skipped


@pytest.mark.parametrize("name", ["iso_order_spectrum",
                                  "homocyclic_required_cases"])
def test_an_error_in_a_global_or_fixed_check_is_one_counterexample(
        monkeypatch, small_catalog, name):
    clean = run_check(small_catalog, name)
    _plant_failure(monkeypatch, name)
    res = run_check(small_catalog, name)
    assert res.counterexamples == [
        {"reason": f"VerificationFailure: planted in {name}"}]
    assert (res.tested, res.skipped) == (clean.tested, clean.skipped)


def test_a_disconnected_nilpotent_graph_fails_two_checks(monkeypatch,
                                                        small_catalog):
    # the cached diameter does not cache the error: both checks meet it
    names = ["diam_le_3", "nilpotent_diam_le_2"]
    clean = run_all(small_catalog, names=names)
    real = harness.diameter_info

    def planted(g):
        if g.group.label == "Q8":
            raise Disconnected("graph of Q8 is not connected")
        return real(g)

    monkeypatch.setattr(harness, "diameter_info", planted)
    results = run_all(small_catalog, names=names)
    want = [{"group": "Q8", "reason": "Disconnected: graph of Q8 is not "
                                      "connected"}]
    assert [r.counterexamples for r in results] == [want, want]
    assert ([(r.tested, r.skipped) for r in results]
            == [(r.tested, r.skipped) for r in clean])


def test_a_form_timeout_in_a_fixed_check_is_one_counterexample(monkeypatch):
    monkeypatch.setenv("NONCYC_TIMEOUT_SECS", "0")
    res = run_check(Catalog([], None), "cyclic_maximal_families")
    assert res.counterexamples == [
        {"reason": "Timeout: canonical form search exceeded its time budget"}]
    assert res.tested == 0


def test_the_runner_names_each_entry_and_records_returned_skips(
        monkeypatch, small_catalog):
    """A per-entry check records without the entry's name and returns its
    skip reason; the runner puts "group" first in each record and records
    the skip, serially and under jobs=2 alike."""
    name = "mu_self_cyclicizer"     # a group check: no entry is cyclic-skipped

    def planted(az, result):
        if az.label == "Q8":
            harness._ce(result, element="a", reason="planted")
            result.findings.append({"note": "planted"})
        elif az.label == "D8":
            return "planted skip"

    monkeypatch.setitem(CHECKS, name,
                        dataclasses.replace(CHECKS[name], fn=planted))
    serial = run_check(small_catalog, name)
    assert [list(ce.items()) for ce in serial.counterexamples] == [
        [("group", "Q8"), ("element", "a"), ("reason", "planted")]]
    assert [list(f.items()) for f in serial.findings] == [
        [("group", "Q8"), ("note", "planted")]]
    assert serial.skipped == [("D8", "planted skip")]
    assert serial.tested == len(small_catalog) - 1
    parallel = run_check(small_catalog, name, jobs=2)
    assert report_json([parallel]) == report_json([serial])


def test_a_profile_error_is_a_skip_reason(monkeypatch, small_catalog):
    """An error raised while an entry is condensed into its profile is the
    profile's error: the run returns, the global check skips that entry and
    tests the others, and the per-entry checks still test it."""
    names = ["diam_le_3", "iso_order_spectrum"]
    clean = run_all(small_catalog, names=names)
    real = structure.dihedral_parameter

    def planted(g):
        if g.label == "Q8":
            raise VerificationFailure("planted in a recognizer")
        return real(g)

    monkeypatch.setattr(structure, "dihedral_parameter", planted)
    entry, spectrum = run_all(small_catalog, names=names)
    assert entry.to_json_dict() == clean[0].to_json_dict()
    assert spectrum.skipped == clean[1].skipped + [
        ("Q8", "profile failed (VerificationFailure: planted in a "
               "recognizer)")]
    assert spectrum.passed and spectrum.tested == clean[1].tested - 1 > 0


@pytest.fixture
def contractions(monkeypatch):
    """Record every twin contraction, from graph objects or bare rows:
    ``twin_contraction`` and ``canonical_form`` both run ``_contract``."""
    real = canon._contract
    calls = []

    def counting(graph_or_rows, deadline):
        # the vertex count of the graph contracted
        calls.append(canon._vertex_count(graph_or_rows))
        return real(graph_or_rows, deadline)

    monkeypatch.setattr(canon, "_contract", counting)
    return calls


def test_diameter_contracts_nothing_and_a_form_contracts_once(contractions):
    g = graph.build_graph(groups.build(groups.parse_group_expr("S4")))
    graph.diameter_info(g)
    assert contractions == []
    canon.canonical_form(g)
    assert contractions == [g.n_vertices]


def test_are_isomorphic_contracts_each_graph_once(contractions):
    g = graph.build_graph(groups.build(groups.parse_group_expr("S4")))
    h = graph.build_graph(groups.build(groups.parse_group_expr(
        "perm:4:(1 2),(1 2 3 4)")))
    graph.diameter_info(g)
    assert canon.are_isomorphic(g, h) is not None
    assert contractions == [g.n_vertices, h.n_vertices]


def test_run_entry_contracts_a_non_nilpotent_graph_once(contractions):
    entry = Catalog.default(max_order=24).subset(["S4"]).entries[0]
    entry_checks = [n for n, c in CHECKS.items()
                    if c.kind in ("group", "graph")]
    outcomes, profile = harness._run_entry(entry, entry_checks, True, None)
    assert not profile.is_nilpotent
    assert harness._certificate_of(profile.quotient)[0] is not None
    assert outcomes["diam_le_3"].tested == 1
    assert contractions == [profile.vertex_count]


def test_analysed_groups_are_freed_without_the_cycle_collector():
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, groups.Group)]
    gc.disable()
    try:
        for expr in ("S4", "Z2xZ4", "D12xZ2"):
            az = analyze_entry(harness.CatalogEntry(
                expr, groups.parse_group_expr(expr)))
            prof = profile_of(az)
            report = graph.invariant_report(az.group, az.ctable, az.graph,
                                            label=expr)
            del az, prof, report
        kept = {id(o) for o in before}
        left = [o for o in gc.get_objects()
                if isinstance(o, groups.Group) and id(o) not in kept]
        assert left == []
    finally:
        gc.enable()


def test_one_perm_closure_per_entry_under_max_order(monkeypatch, tmp_path):
    calls = []
    closure = groups._perm_closure

    def counted(degree, gens):
        calls.append(degree)
        return closure(degree, gens)

    monkeypatch.setattr(groups, "_perm_closure", counted)
    cat_file = tmp_path / "catalog.json"
    cat_file.write_text(json.dumps([
        {"spec": "perm:4:(1 2),(1 2 3 4)"},
        {"label": "v4", "spec": "perm:4:(1 2)(3 4),(1 3)(2 4)"},
        {"label": "s3", "spec": "perm:3:(1 2),(1 2 3)"},
        {"spec": "Z2xZ2"},
    ]))
    res = run_check(Catalog.from_file(str(cat_file), max_order=10),
                    "diam_le_3")
    assert calls == [4, 4, 3]
    assert res.passed and res.tested == 3
    assert res.skipped == [("perm:4:(1 2),(1 2 3 4)",
                            "order 24 exceeds the maximum order 10")]


def test_key_mates_share_their_certificates(old_forms):
    # the rule that lets a key's entries share one form: every repeat of a
    # structural key in the default catalog has the graph and Sylow
    # certificates of the key's first entry
    first = {}
    pairs = 0
    for entry in Catalog.default(max_order=200).entries:
        if entry.label not in old_forms:
            continue
        key = harness._structural_key(GroupProfile(entry.label, entry.spec))
        if key in first:
            assert old_forms[entry.label] == old_forms[first[key]], (
                entry.label, first[key])
            pairs += 1
        else:
            first[key] = entry.label
    assert pairs == 362


def _partition_of(values):
    classes = {}
    for label, value in values:
        classes.setdefault(value, set()).add(label)
    return sorted(map(sorted, classes.values()))


def test_classes_are_the_certificate_partition(old_forms, classed_sweep):
    profiles, _ = classed_sweep
    graphs = [p for p in profiles if p.graph_class is not None]
    assert len(graphs) == len(old_forms) == 1454
    assert not any(p.cert_error for p in profiles)
    partition = _partition_of((p.label, p.graph_class) for p in graphs)
    assert partition == _partition_of(
        (label, cert) for label, (cert, _) in old_forms.items())
    assert len(partition) == 705
    buckets = Counter((p.vertex_count, p.degree_census) for p in graphs)
    assert sum(n == 1 for n in buckets.values()) == 321
    # within a class, Sylow classes agree exactly when Sylow certificates do
    by_class = {}
    for p in graphs:
        assert (p.sylow_classes is None) == (old_forms[p.label][1] is None)
        if p.sylow_classes is not None:
            by_class.setdefault(p.graph_class, []).append(p)
    compared = 0
    for members in by_class.values():
        for a, b in combinations(members, 2):
            compared += 1
            assert ((a.sylow_classes == b.sylow_classes)
                    == (old_forms[a.label][1] == old_forms[b.label][1]))
    assert compared > 100


def test_sweep_computes_only_the_needed_forms(classed_sweep):
    # 699 graph and 52 Sylow forms from the carried quotients, and the 15
    # that cyclic_maximal_families computes from its own graphs, where
    # profiles used to compute 1454 + 144
    _, forms = classed_sweep
    assert forms == {"TwinQuotient": 751, "NonCyclicGraph": 15}


def test_unlabelled_perm_entries_of_one_degree(tmp_path):
    # each is labelled with its expression, so two of one degree do not
    # collide; both are S3, under two structural keys
    cat_file = tmp_path / "catalog.json"
    cat_file.write_text(json.dumps([{"spec": "perm:3:(1 2),(1 2 3)"},
                                    {"spec": "perm:3:(1 2 3),(2 3)"}]))
    cat = Catalog.from_file(str(cat_file))
    assert [e.label for e in cat.entries] == ["perm:3:(1 2),(1 2 3)",
                                              "perm:3:(1 2 3),(2 3)"]
    res = run_check(cat, "iso_cyc_divisibility")
    assert res.passed and res.tested == 2 and res.skipped == []


def _prebuilt(monkeypatch, built):
    """Make the harness take each non-Cayley entry's group from ``built``,
    by label, instead of building it."""
    real = harness.build

    def build(spec, label=None, max_order=None):
        if spec.kind == "cayley":
            return real(spec, label=label, max_order=max_order)
        return built[label]

    monkeypatch.setattr(harness, "build", build)


ENTRY_CHECKS = [n for n, c in CHECKS.items() if c.kind in ("group", "graph")]


def test_per_entry_path_never_expands_the_graph(catalog_groups, monkeypatch):
    # the per-entry checks, the profiles and the reports read the graph's
    # quotient by cyclicizer; only to_dot and a whole-graph form's matrix
    # and bijection check expand its rows
    def expanded(self):
        raise AssertionError(f"{self.group.label}: adjacency expanded")

    monkeypatch.setattr(graph.NonCyclicGraph, "adjacency", property(expanded))
    _prebuilt(monkeypatch, {e.label: g for e, g in catalog_groups})
    graphs = 0
    for entry, group in catalog_groups[::8]:
        outcomes, profile = harness._run_entry(entry, ENTRY_CHECKS, True, None)
        assert all(r.passed for r in outcomes.values()), entry.label
        graphs += profile.quotient is not None
    assert graphs > 150
    for expr in ("S6", "G(2,3)xZ2xZ2xZ2xZ3xZ3"):
        report = graph.invariant_report(groups.build(
            groups.parse_group_expr(expr)))
        assert report.diameter == 2 and report.is_connected


def test_whole_graph_forms_expand_only_when_asked(monkeypatch):
    # a form keeps its graph and expands it for the matrix alone; the
    # certificates and the family check read the contraction of Q
    g = graph.build_graph(groups.build(groups.parse_group_expr("S4")))
    want = canon.canonical_form(g.adjacency)

    def expanded(self):
        raise AssertionError(f"{self.group.label}: adjacency expanded")

    with monkeypatch.context() as mp:
        mp.setattr(graph.NonCyclicGraph, "adjacency", property(expanded))
        cf = canon.canonical_form(g)
        assert cf.certificate == want.certificate
        assert canon.are_isomorphic(g, graph.build_graph(groups.build(
            groups.parse_group_expr("D8")))) is None
        res = run_check(Catalog([], None), "cyclic_maximal_families")
        assert res.passed and res.tested > 0
    assert cf.matrix == want.matrix


def _relabelled(group, rng):
    """``group`` with element x renamed perm[x], for a random permutation
    perm that fixes the identity; each label moves with its element."""
    perm = np.arange(group.order)
    rng.shuffle(perm[1:])
    t = group.np_table()
    table = np.empty_like(t)
    table[np.ix_(perm, perm)] = perm[t]
    labels = [None] * group.order
    for x, label in zip(perm.tolist(), group.labels):
        labels[x] = label
    return groups.Group(table, labels=labels, label=group.label,
                        validate=False)


def _entry_run(entry):
    """_run_entry's checks (tested, skips, counterexamples, findings) and
    its profile."""
    outcomes, profile = harness._run_entry(entry, ENTRY_CHECKS, True, None)
    return {n: (r.tested, r.skipped, r.counterexamples, r.findings)
            for n, r in outcomes.items()}, profile


def test_pipeline_is_relabelling_invariant(catalog_groups, old_forms,
                                           tmp_path, monkeypatch):
    # the power walk, the cyclicizer table, its distinct rows, the graph,
    # its contraction and every check see a second labelling of one group;
    # no report field names a position, so reports compare equal
    wanted = {"S5", "Z2xA5"}   # Z2xA5 is A5 x Z2
    chosen = [(e, g) for i, (e, g) in enumerate(catalog_groups)
              if (i % 4 == 0 or e.label in wanted)
              and not groups.is_cyclic_group(g)]
    s6 = groups.build(groups.parse_group_expr("S6"), label="S6")
    chosen.append((harness.CatalogEntry("S6", groups.parse_group_expr("S6")),
                   s6))
    assert len(chosen) > 350
    built = {e.label: g for e, g in chosen}
    _prebuilt(monkeypatch, built)
    rng = np.random.default_rng(31)
    path = tmp_path / "relabelled.cayley"
    for i, (entry, group) in enumerate(chosen):
        moved = _relabelled(group, rng)
        g = graph.build_graph(moved)
        assert graph.invariant_report(moved, graph=g) == \
            graph.invariant_report(group), entry.label
        # a witness names least positions of one labelling: it need only
        # be valid in the other
        info = graph.diameter_info(g)
        assert graph.distance(g, *info.witness) == info.diameter
        # every other group reaches the checks through a Cayley file,
        # which the loader validates; the others as built
        if i % 2 == 0:
            groups.to_cayley_file(moved, str(path))
            fed = harness.CatalogEntry(entry.label, groups.cayley_file(path))
        else:
            fed, built[entry.label] = entry, moved
        got, profile = _entry_run(fed)
        built[entry.label] = group
        want, want_profile = _entry_run(entry)
        assert got == want, entry.label
        assert profile.quotient.n == want_profile.quotient.n
        assert sorted(map(repr, profile.quotient.descs)) == \
            sorted(map(repr, want_profile.quotient.descs)), entry.label
        # certificates, but for S6, whose search is the deepest (the CI
        # step comparing S6 with a permutation presentation pins its own)
        if entry.label in old_forms:
            cert, sylow_certs = old_forms[entry.label]
            assert harness._certificate_of(profile.quotient)[0] == cert
            if profile.sylow_quotients:
                assert tuple((p, harness._certificate_of(q)[0])
                             for p, q in profile.sylow_quotients) == \
                    sylow_certs, entry.label
