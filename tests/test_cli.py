import json
import os
import subprocess
import sys

import numpy as np
import pytest

import noncyclic
from noncyclic import canon, cli, groups
from noncyclic.cli import main
from noncyclic.errors import UnknownCheck


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build(capsys):
    code, out, _ = run_cli(capsys, "build", "Z6")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"label": "Z6", "order": 6, "pi_e": [1, 2, 3, 6],
                   "mu": [6]}


def test_analyze_z2xz4(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Z2xZ4")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "Z2xZ4"
    assert doc["vertex_count"] == 7
    assert doc["cyc_size"] == 1
    assert doc["clique_number"] == doc["chromatic_number"] == doc["s"]


def test_analyze_csv_and_dot(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = run_cli(capsys, "analyze", "EA(2,2)", "--csv",
                           "--dot", str(dot))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("label,order,cyc_size")
    assert len(lines) == 2
    assert dot.read_text().startswith('graph "EA(2,2)"')


def test_analyze_cyclic_group_errors(capsys):
    code, out, err = run_cli(capsys, "analyze", "Z6")
    assert code == 1
    doc = json.loads(err)
    assert doc["error"]["type"] == "GroupIsCyclic"


def test_compare_modular_vs_chain(capsys):
    code, out, _ = run_cli(capsys, "compare", "G(2,4)", "K(2,4)")
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    assert doc["certificate_1"] == doc["certificate_2"]
    assert len(doc["bijection"]) == 15
    assert "elapsed_ms" not in doc


def test_compare_negative(capsys):
    code, out, _ = run_cli(capsys, "compare", "D8", "K(2,3)")
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is False
    assert doc["bijection"] is None
    assert doc["certificate_1"] != doc["certificate_2"]


def test_compare_timing_flag(capsys):
    code, out, _ = run_cli(capsys, "compare", "Q8", "Q8", "--timing")
    doc = json.loads(out)
    assert code == 0 and "elapsed_ms" in doc


def test_byte_identical_output(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "Q8")
    _, out2, _ = run_cli(capsys, "analyze", "Q8")
    assert out1 == out2
    _, cmp1, _ = run_cli(capsys, "compare", "G(3,3)", "K(3,3)")
    _, cmp2, _ = run_cli(capsys, "compare", "G(3,3)", "K(3,3)")
    assert cmp1 == cmp2


def test_compare_computes_each_canonical_form_once(capsys, monkeypatch):
    real = canon.canonical_form
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(canon, "canonical_form", counting)
    monkeypatch.setattr(cli, "canonical_form", counting)
    code, out, _ = run_cli(capsys, "compare", "S4xZ2", "S4xZ2")
    assert code == 0 and json.loads(out)["isomorphic"] is True
    assert len(calls) == 2


@pytest.mark.parametrize("value", ["abc", "nan"])
@pytest.mark.parametrize("argv", [("compare", "S3", "S3"),
                                  ("verify", "--max-order", "8")])
def test_bad_timeout_variable_is_a_json_error(capsys, monkeypatch, value,
                                              argv):
    monkeypatch.setenv("NONCYC_TIMEOUT_SECS", value)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    doc = json.loads(err)
    assert doc["error"]["type"] == "InvalidParameter"
    assert "NONCYC_TIMEOUT_SECS" in doc["error"]["message"]


def test_verify_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "diam_le_3",
                           "--max-order", "64")
    assert code == 0
    assert "diam_le_3" in out
    assert "overall: PASS" in out


def test_verify_json_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--check", "omega_chi_s",
                           "--max-order", "24", "--json",
                           "--report", str(report))
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["check"] == "omega_chi_s"
    assert doc[0]["pass"] is True
    assert json.loads(report.read_text()) == doc


@pytest.mark.parametrize("make, message", [
    (lambda path: None, "cannot read catalog"),
    (lambda path: path.mkdir(), "cannot read catalog"),
    (lambda path: path.write_bytes(b"\xff["), "cannot read catalog"),
    (lambda path: path.write_text('[{"spec": "Z4"}, {"spec": "Z'),
     "cannot read catalog"),
    (lambda path: path.write_text('{"spec": "Z4"}'), "is not a JSON list"),
    (lambda path: path.write_text('[{"spec": "Z4"}, {"label": "Z6"}]'),
     'item 1: needs a string "spec"'),
    (lambda path: path.write_text('[{"spec": "Z4"}, {"spec": 6}]'),
     'item 1: needs a string "spec"'),
    (lambda path: path.write_text('[{"spec": "Z4"}, "Z6"]'),
     'item 1: needs a string "spec"'),
    (lambda path: path.write_text('[{"spec": "Z4", "label": 4}]'),
     'item 0: "label" must be a string'),
    (lambda path: path.write_text('[{"spec": "Z4", "label": "a"}, '
                                  '{"spec": "Z6"}, {"spec": "D8", '
                                  '"label": "a"}]'),
     "items 0 and 2: both are labelled 'a'"),
    (lambda path: path.write_text('[{"spec": "Z0"}, {"spec": "Z0"}]'),
     "items 0 and 1: both are labelled 'Z0'"),
])
def test_bad_catalog_file_is_a_parse_error(capsys, tmp_path, make, message):
    path = tmp_path / "catalog.json"
    make(path)
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
    assert code == 1 and out == ""
    doc = json.loads(err)["error"]
    assert doc["type"] == "ParseError"
    assert f"catalog {path}" in doc["message"]
    assert message in doc["message"]


def test_bad_catalog_items_are_skipped(capsys, tmp_path):
    # a spec that does not parse or names no valid group is an entry that
    # every check skips, naming the file and the item; the good items
    # around it are still checked
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([
        {"spec": "Z4"}, {"spec": "Z0"}, {"spec": "D8"},
        {"spec": "Z4x", "label": "typo"}, {"spec": "Q8"}]))
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path),
                             "--json")
    assert code == 0 and err == ""
    doc = {item["check"]: item for item in json.loads(out)}
    bad = {f"catalog {path} item 1: InvalidParameter: cyclic group order "
           "must be >= 1": 1,
           f"catalog {path} item 3: ParseError: unrecognized group "
           "expression atom: ''": 1}
    diameter = doc["diam_le_3"]
    assert diameter["tested"] == 2                    # D8 and Q8
    assert diameter["skipped"]["labels"] == ["Z4", "Z0", "typo"]
    assert diameter["skipped"]["reasons"] == {"cyclic": 1, **bad}
    spectrum = doc["iso_order_spectrum"]
    assert spectrum["tested"] == 2 and spectrum["pass"]
    assert spectrum["skipped"]["reasons"] == bad
    assert doc["pgroup_cyc_nontrivial"]["tested"] == 3   # Z4, D8, Q8


def test_unknown_check_message_is_plain(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "bogus",
                             "--max-order", "8")
    assert code == 1 and out == ""
    doc = json.loads(err)["error"]
    assert doc["type"] == "UnknownCheck"
    assert doc["message"].startswith("unknown check(s) ['bogus']; ")
    assert issubclass(UnknownCheck, KeyError)


def test_export_cayley_roundtrip(capsys, tmp_path):
    path = tmp_path / "s3.cayley"
    code, _, _ = run_cli(capsys, "export-cayley", "S3", str(path))
    assert code == 0
    _, direct, _ = run_cli(capsys, "analyze", "S3")
    _, via_file, _ = run_cli(capsys, "analyze", f"cayley:{path}")
    a = json.loads(direct)
    b = json.loads(via_file)
    a.pop("label")
    b.pop("label")
    assert a == b


def test_export_dot(capsys, tmp_path):
    path = tmp_path / "q8.dot"
    code, _, _ = run_cli(capsys, "export-dot", "Q8", str(path))
    assert code == 0
    assert path.read_text().count("--") > 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_max_order_below_one_is_a_usage_error(capsys, bound):
    # an empty catalog would pass every check
    code, out, err = run_cli(capsys, "verify", "--max-order", bound)
    assert (code, out) == (2, "")
    assert "--max-order must be at least 1" in err


def test_bad_spec_is_computation_error(capsys):
    code, _, err = run_cli(capsys, "build", "Z0x")
    assert code == 1
    assert json.loads(err)["error"]["type"] in ("ParseError",
                                                "InvalidParameter")


@pytest.mark.parametrize("body", ["0 4294967297\n1 0\n", "0 1.5\n1.5 0\n",
                                  "0 99999999999999999999\n1 0\n"])
def test_bad_cayley_entry_is_computation_error(capsys, tmp_path, body):
    path = tmp_path / "bad.cayley"
    path.write_text("2\n" + body)
    code, out, err = run_cli(capsys, "build", f"cayley:{path}")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] in ("NotAGroup",
                                                "InvalidCayleyFile")


def _built(*args, **kwargs):
    raise AssertionError("a table was built")


def test_a_build_with_no_bound_is_capped_before_any_table(capsys,
                                                          monkeypatch):
    monkeypatch.setattr(np, "empty", _built)
    monkeypatch.setattr(groups, "_perm_closure", _built)
    code, _, err = run_cli(capsys, "build", "S7xS7")
    assert code == 1
    assert json.loads(err) == {"error": {
        "type": "OrderTooLarge",
        "message": "order 25401600 exceeds the maximum order 20160"}}


def test_a_catalog_entry_over_the_cap_is_skipped(capsys, monkeypatch,
                                                 tmp_path):
    # the bound is capped at 20160 whatever --max-order says, so no S7 is
    # built
    monkeypatch.setattr(groups, "_perm_closure", _built)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"spec": s} for s in ("Z2", "S7xS7",
                                                      "Z2xZ2")]))
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(path),
                           "--max-order", "30000000", "--check",
                           "cyc_core_cyclic", "--json")
    assert code == 0
    [res] = json.loads(out)
    assert res["tested"] == 2
    assert res["skipped"] == {"total": 1, "labels": ["S7xS7"], "reasons": {
        "order 25401600 exceeds the maximum order 20160": 1}}


@pytest.mark.parametrize("code", [
    "import noncyclic",
    "from noncyclic.cli import main; main(['verify', '--max-order', '16'])",
])
def test_no_process_pool_or_hashlib_without_need(code):
    # the process pool's modules load only for --jobs > 1, and hashlib only
    # for the digest that noncyc compare prints
    probe = (f"import sys\n{code}\n"
             "print([m for m in ('concurrent.futures', 'hashlib') "
             "if m in sys.modules])")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(noncyclic.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
