"""scripts/paired_times.py run as a command, with this checkout as both
PARENT and CHANGE."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "paired_times.py"


def paired_times(mode, parent, change, *options, max_order=12):
    return subprocess.run(
        [sys.executable, str(SCRIPT), mode, str(parent), str(change),
         "--max-order", str(max_order), *options],
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("mode, options, trials, measures", [
    ("entries", [], 38, ["entry_ms"]),
    ("entries", ["--every", "100"], 1, ["entry_ms"]),
    ("catalog", ["--rounds", "4"], 4, ["catalog_ms"]),
    ("catalog", ["--rounds", "1"], 1, ["catalog_ms"]),
    ("canon", ["--rounds", "2"], 2, ["canon_s", "forms", "wall_s"]),
    ("canon", ["--rounds", "1"], 1, ["canon_s", "forms", "wall_s"]),
])
def test_each_mode_reports_its_trials(mode, options, trials, measures):
    out = paired_times(mode, ROOT, ROOT, *options)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout)
    assert summary["mode"] == mode and summary["max_order"] == 12
    assert summary["trials"] == trials
    assert summary["repeats"] == (3 if mode == "entries" else 1)
    assert sorted(k for k in summary if k.endswith(("_ms", "_s", "forms"))) \
        == measures
    for measure in measures:
        report = summary[measure]
        for side in ("parent", "change"):
            q1, q2, q3 = report[side]["quartiles"]
            assert q1 <= q2 == report[side]["p50"] <= q3
            assert report[side]["sum"] >= q3 >= 0
            if trials == 1:
                assert q1 == q3 == report[side]["sum"]
        q1, q2, q3 = report["ratio_quartiles"]
        assert 0 < q1 <= q2 <= q3
        assert 0 <= report["change_won"] <= trials
    if mode == "entries":
        # fewer than 20 trials leave under 10 beyond p75: the tail is the
        # nearest-rank median
        report = summary["entry_ms"]
        assert report["tail_quantile"] == 0.5
        for side in ("parent", "change"):
            q1, _, q3 = report[side]["quartiles"]
            assert q1 <= report[side]["tail"] <= q3
        assert report["tail_ratio"] == round(
            report["change"]["tail"] / report["parent"]["tail"], 4)
    if mode == "canon":
        # both sides make the same forms
        assert summary["forms"]["parent"] == summary["forms"]["change"]
        assert summary["forms"]["ratio_quartiles"] == [1.0] * 3
        assert summary["forms"]["change_won"] == 0


def test_tail_is_the_benchmarks_quantile():
    spec = importlib.util.spec_from_file_location("paired_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the sweep's 1827 entries: p99, with 18 beyond it
    assert module.tail(list(range(1827, 0, -1))) == (0.99, 1809)
    assert module.tail(list(range(200))) == (0.95, 189)
    assert module.tail([2.0]) == (0.5, 2.0)


def test_canon_ratio_is_null_without_forms():
    # every graph of order at most 4 is alone in its degree-census bucket
    out = paired_times("canon", ROOT, ROOT, "--rounds", "1", max_order=4)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout)
    assert summary["forms"]["parent"]["sum"] == 0
    assert summary["canon_s"]["parent"]["sum"] == 0
    assert summary["canon_s"]["ratio_quartiles"] is None
    assert summary["wall_s"]["ratio_quartiles"] is not None


@pytest.mark.parametrize("mode, message", [
    ("entries", "the two checkouts give different trial counts"),
    ("catalog", "trial 0: the two sides' results differ"),
])
def test_differing_sides_are_refused(tmp_path, mode, message):
    # a change whose default catalog drops its last entry
    package = tmp_path / "src" / "noncyclic"
    shutil.copytree(ROOT / "src" / "noncyclic", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "harness.py", "a") as fh:
        fh.write("\n_all_entries = _default_entries\n\n\n"
                 "def _default_entries(*args):\n"
                 "    return _all_entries(*args)[:-1]\n")
    options = ["--rounds", "1"] if mode == "catalog" else []
    out = paired_times(mode, ROOT, tmp_path, *options)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.strip() == message
