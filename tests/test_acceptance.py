"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The catalog-wide criteria share a single full run over the default catalog
(every entry of order at most 200); the fixed-scope criteria time their own
dedicated computations.
"""

import hashlib
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from noncyclic import groups as G
from noncyclic.canon import are_isomorphic, canonical_form, relabel_rows
from noncyclic.cyclicizers import cyclicizer, is_tidy
from noncyclic.graph import build_graph, diameter_info, distance, omega_bound_info
from noncyclic.harness import Catalog, report_json, run_all, run_check

EXPECTED_SWEEP = (Path(__file__).resolve().parent.parent / "perfbench"
                  / "expected" / "sweep.json")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS  {description}")


@pytest.fixture(scope="session")
def catalog_run():
    catalog = Catalog.default(max_order=200)
    t0 = time.perf_counter()
    results = run_all(catalog)
    elapsed = time.perf_counter() - t0
    return {r.name: r for r in results}, elapsed, catalog


def test_criterion_01_cyclicizer_example_and_tidiness():
    with criterion(1, "cyclicizer of (0,2) in Z2xZ4 and untidiness, exact"):
        h = G.build(G.parse_group_expr("Z2xZ4"))
        idx = h.labels.index("(0,2)")
        t0 = time.perf_counter()
        cyc = cyclicizer(h, idx)
        elapsed = time.perf_counter() - t0
        got = {h.labels[i] for i in cyc}
        assert got == {"(0,0)", "(0,1)", "(0,2)", "(0,3)", "(1,1)", "(1,3)"}
        res = is_tidy(h)
        assert not res.is_tidy
        assert h.labels[res.witness] == "(0,2)"
        assert elapsed < 0.001


def test_criterion_02_connectivity_diameter_sweep(catalog_run):
    results, elapsed, _ = catalog_run
    with criterion(2, "connected, diam <= 3, diam 1 iff elementary abelian "
                      "2-group, nilpotent => diam <= 2, sweep < 60 s"):
        assert results["diam_le_3"].passed
        assert results["diam_le_3"].tested > 1000
        assert results["complete_iff_ea2"].passed
        assert results["nilpotent_diam_le_2"].passed
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_sweep_report_matches_recorded_hash(catalog_run):
    results, _, _ = catalog_run
    expected = json.loads(EXPECTED_SWEEP.read_text(encoding="utf-8"))
    report = report_json(list(results.values()))
    assert hashlib.sha256(report.encode()).hexdigest() \
        == expected["report_sha256"]


def test_criterion_03_z6xs3_diameter():
    with criterion(3, "Z6 x S3 has diameter 3 via the pair ((3,e),(2,e)), "
                      "< 1 s"):
        t0 = time.perf_counter()
        group = G.build(G.direct_product([G.cyclic(6), G.symmetric(3)],
                                         name="Z6xS3"))
        graph = build_graph(group)
        info = diameter_info(graph)
        assert info.diameter == 3
        assert set(info.witness_labels(graph)) == {"(3,e)", "(2,e)"}
        a = graph.vertices.index(group.labels.index("(3,e)"))
        b = graph.vertices.index(group.labels.index("(2,e)"))
        assert distance(graph, a, b) == 3
        assert time.perf_counter() - t0 < 1.0


def test_criterion_04_clique_chromatic_and_bounds(catalog_run):
    results, _, _ = catalog_run
    with criterion(4, "omega = chi = s with witnesses, covering bound, Q8 "
                      "attains it with equality"):
        assert results["omega_chi_s"].passed
        assert results["omega_index_bounds"].passed
        info = omega_bound_info(G.build(G.parse_group_expr("Q8")))
        assert info.s == 3
        assert info.index == 4 and info.covering_value == 4


def test_criterion_05_homocyclic_formula():
    with criterion(5, "cyclicizer-size closed form on the five required "
                      "homocyclic cases, < 30 s"):
        t0 = time.perf_counter()
        res = run_check(Catalog([], None), "homocyclic_required_cases")
        assert res.passed and res.tested == 5
        assert time.perf_counter() - t0 < 30.0


def test_criterion_06_regular_classification(catalog_run):
    results, _, _ = catalog_run
    with criterion(6, "regular graphs occur exactly for Q8 x Z_n (n odd) "
                      "and prime-exponent P x Z_m"):
        res = results["regular_classification"]
        assert res.passed and res.tested > 1000


def test_criterion_07_prime_power_family_classes():
    with criterion(7, "graph classes among the order 8-32 two-generator "
                      "2-groups and odd modular groups, < 10 s"):
        t0 = time.perf_counter()
        res = run_check(Catalog([], None), "cyclic_maximal_families")
        assert res.passed
        assert time.perf_counter() - t0 < 10.0


def test_criterion_08_multipartite_condition(catalog_run):
    results, _, _ = catalog_run
    with criterion(8, "graph isomorphism for prime-exponent products holds "
                      "iff the two part equations hold"):
        res = results["multipartite_iso_condition"]
        assert res.passed and res.tested > 100


def test_criterion_09_iso_classes_share_order_spectrum(catalog_run):
    results, _, _ = catalog_run
    with criterion(9, "certificate classes share group order and element "
                      "orders; violations would be surfaced as findings"):
        res = results["iso_order_spectrum"]
        assert res.passed
        # equal-graph different-order pairs would be open-question evidence
        assert isinstance(res.findings, list)


STABILITY_SPECS = [
    "EA(2,2)", "EA(2,3)", "EA(3,2)", "Z2xZ4", "D8", "Q8", "G(2,4)",
    "K(2,4)", "H(4)", "D16", "Q16", "G(3,3)", "K(3,3)", "Z4xZ4", "S3",
    "S4", "A4", "Z6xS3", "Q8xZ3", "A5",
]


def test_criterion_10_canonical_stability():
    with criterion(10, "100 random relabelings of 20 graphs keep the "
                       "certificate; bijections verified, < 60 s"):
        t0 = time.perf_counter()
        rng = random.Random(0xC0FFEE)
        assert len(STABILITY_SPECS) == 20
        for expr in STABILITY_SPECS:
            graph = build_graph(G.build(G.parse_group_expr(expr)))
            base = canonical_form(graph)
            rows = graph.adjacency
            n = graph.n_vertices
            for trial in range(100):
                perm = list(range(n))
                rng.shuffle(perm)
                shuffled = relabel_rows(rows, perm)
                cf = canonical_form(shuffled)
                assert cf.matrix == base.matrix, (expr, trial)
                assert cf.hash_hex == base.hash_hex
            bij = are_isomorphic(rows, shuffled)
            assert bij is not None
            mapping = dict(bij)
            for u in range(n):
                for v in range(n):
                    assert ((rows[u] >> v) & 1) == \
                        ((shuffled[mapping[u]] >> mapping[v]) & 1)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_11_independence_cross_check(catalog_run):
    results, _, _ = catalog_run
    with criterion(11, "exact independence numbers cross-check the closed "
                       "form on all graphs with at most 64 vertices; "
                       "disagreements are surfaced"):
        res = results["alpha_formula"]
        assert res.passed
        # disagreements, if any, appear as findings rather than being hidden
        for finding in res.findings:
            assert "formula" in finding and "exact" in finding
