"""Command-line interface: determinism, exit codes, report shapes."""

from __future__ import annotations

import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import causalorder as co
from causalorder import cli, order
from causalorder.cli import ALL_SUITES, _build_parser, main

from conftest import K66_LAW_COUNTS, MALFORMED_CAUSALITY, complete_bipartite, fan_relation, k66


def run(*argv):
    return main(list(argv))


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def strict_loads(text):
    """Parse strict JSON: the NaN and Infinity tokens raise."""
    return json.loads(text, parse_constant=_reject_constant)


def _causality_file(tmp_path, c, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(co.causality_to_dict(c)))
    return str(path)


@pytest.fixture
def chain3_file(tmp_path, chain3):
    return _causality_file(tmp_path, chain3, "chain3")


@pytest.fixture
def l33_file(tmp_path, l33):
    return _causality_file(tmp_path, l33, "l33")


# ---------------------------------------------------------------------------
# sprinkle
# ---------------------------------------------------------------------------

def test_sprinkle_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["sprinkle", "--dim", "1", "--box", "0:1,0:1", "--n", "30", "--seed", "5"]
    assert run(*args, "--output", str(out1)) == 0
    assert run(*args, "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sprinkle_lattice_fixture(tmp_path, l33):
    out = tmp_path / "lat.json"
    assert run("sprinkle", "--dim", "1", "--box", "0:2,0:2", "--mode", "lattice",
               "--output", str(out)) == 0
    doc = strict_loads(out.read_text())
    assert len(doc["events"]) == 9
    c = co.causality_from_dict(doc["causality"])
    assert (c.relation == l33.relation).all()


def test_sprinkle_empty(tmp_path):
    out = tmp_path / "empty.json"
    assert run("sprinkle", "--dim", "1", "--box", "0:1,0:1", "--n", "0",
               "--output", str(out)) == 0
    doc = strict_loads(out.read_text())
    assert doc["events"] == [] and doc["causality"]["points"] == []


def test_sprinkle_bad_box_is_usage_error(tmp_path):
    assert run("sprinkle", "--box", "zap", "--output", str(tmp_path / "x")) == 1


@pytest.mark.parametrize("box", ["0:inf,0:1", "0:nan,0:1"])
def test_sprinkle_non_finite_box_exits_2(tmp_path, box):
    out = tmp_path / "x.json"
    assert run("sprinkle", "--dim", "1", "--box", box, "--n", "3",
               "--output", str(out)) == 2
    assert not out.exists()


def test_sprinkle_to_stdout_in_subprocess():
    src = Path(co.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = ["sprinkle", "--dim", "1", "--n", "12", "--seed", "3", "--output", "-"]
    proc = subprocess.run([sys.executable, "-m", "causalorder.cli", *argv],
                          capture_output=True, text=True, env=env, check=True)
    doc = strict_loads(proc.stdout)
    assert proc.stdout == json.dumps(doc, sort_keys=True) + "\n"
    assert len(doc["events"]) == 12 and len(doc["causality"]["points"]) == 12


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passing_suites(chain3_file, tmp_path):
    out = tmp_path / "report.jsonl"
    rc = run("verify", "--input", chain3_file, "--suite", "crossing,reversal",
             "--output", str(out))
    assert rc == 0
    lines = [strict_loads(line) for line in out.read_text().splitlines()]
    assert lines[-1] == {"summary": {"all_hold": True}}
    assert any(entry.get("law") == "crossing-property" for entry in lines)


def test_verify_default_suites_fail_on_distributivity(chain3_file, tmp_path):
    out = tmp_path / "report.jsonl"
    rc = run("verify", "--input", chain3_file, "--output", str(out))
    assert rc == 2
    lines = [strict_loads(line) for line in out.read_text().splitlines()]
    failing = [e["law"] for e in lines if e.get("verdict") == "fails"]
    assert any(law.startswith("IV[") or law.startswith("V[") for law in failing)
    # failures carry counterexamples
    bad = next(e for e in lines if e.get("verdict") == "fails" and e.get("counterexample"))
    assert bad["counterexample"]


def test_verify_measure_suite(chain3_file, tmp_path, chain3):
    mfile = tmp_path / "measure.json"
    mfile.write_text(json.dumps(co.constant_measure(chain3).to_dict()))
    rc = run("verify", "--input", chain3_file, "--suite", "measure-axioms,monotonicity",
             "--measure", str(mfile), "--output", str(tmp_path / "m.jsonl"))
    assert rc == 0


def test_verify_infinite_measure_writes_strict_json(chain3_file, tmp_path, chain3):
    # every singleton at "inf", every other set at 2.0: the counterexamples
    # hold infinite and NaN floats, which must come out as strings
    doc = co.constant_measure(chain3).to_dict()
    for entry in doc["entries"]:
        entry["sigma"] = "inf" if len(entry["set"]) == 1 else 2.0
    mfile, out = tmp_path / "measure.json", tmp_path / "m.jsonl"
    mfile.write_text(json.dumps(doc))
    rc = run("verify", "--input", chain3_file, "--suite", "measure-axioms,monotonicity",
             "--measure", str(mfile), "--output", str(out))
    assert rc == 2
    lines = [strict_loads(line) for line in out.read_text().splitlines()]
    examples = {e["law"]: e["counterexample"] for e in lines if "law" in e}
    assert examples["super-multiplicativity"]["bound"] == "nan"
    assert examples["super-multiplicativity"]["sigma_union"] == "inf"
    assert examples["family-pairs"]["sigma_a"] == "inf"
    assert lines[-1] == {"summary": {"all_hold": False}}


def test_verify_monotonicity_of_incomplete_measure_exits_2(chain3_file, tmp_path, capsys, chain3):
    doc = co.constant_measure(chain3).to_dict()
    doc["entries"] = [e for e in doc["entries"] if e["set"] != ["a"]]
    mfile, out = tmp_path / "measure.json", tmp_path / "m.jsonl"
    mfile.write_text(json.dumps(doc))
    assert run("verify", "--input", chain3_file, "--suite", "monotonicity",
               "--measure", str(mfile), "--output", str(out)) == 2
    assert capsys.readouterr().err == "error: measure has no value for ('a',)\n"
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["NaN", '"2.0"', "null", "true"])
def test_verify_measure_with_bad_sigma_exits_2(chain3_file, tmp_path, chain3, sigma):
    text = json.dumps(co.constant_measure(chain3).to_dict()).replace("1.0", sigma, 1)
    mfile, out = tmp_path / "measure.json", tmp_path / "m.jsonl"
    mfile.write_text(text)
    assert run("verify", "--input", chain3_file, "--suite", "measure-axioms",
               "--measure", str(mfile), "--output", str(out)) == 2
    assert not out.exists()  # rejected on load, not reported as a failed law


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_verify_bad_tolerance_exits_2(chain3_file, tmp_path, capsys, chain3, tolerance):
    # a NaN tolerance once meant exact equality and an infinite one
    # accepted everything, both with exit 0
    mfile, out = tmp_path / "measure.json", tmp_path / "m.jsonl"
    mfile.write_text(json.dumps(co.constant_measure(chain3).to_dict()))
    assert run("verify", "--input", chain3_file, "--suite", "measure-axioms,monotonicity",
               "--measure", str(mfile), "--tolerance", tolerance, "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tolerance must be finite and non-negative") and err.count("\n") == 1
    assert not out.exists()


# CLI verify of the measure suites with the unit table, either kind, as
# the member-pair scans wrote it: grid(3,4) has crossing, K(2,2) has not
_UNIT_TABLE_LINES = {
    "grid34": [(119, 0, "normalization", "measure-axioms"), (5671, 0, "super-multiplicativity", "measure-axioms"),
               (1915, 0, "family-pairs", "monotonicity")],
    "k22": [(16, 0, "normalization", "measure-axioms"), (49, 17, "super-multiplicativity", "measure-axioms"),
            (39, 0, "family-pairs", "monotonicity")],
}


@pytest.mark.parametrize("name, c", [("grid34", co.grid(3, 4)), ("k22", complete_bipartite(2, 2))],
                         ids=["grid34", "k22"])
@pytest.mark.parametrize("kind", ["convergent", "divergent"])
def test_verify_unit_table_output_pinned(tmp_path, name, c, kind):
    path, mfile, out = _causality_file(tmp_path, c, name), tmp_path / "m.json", tmp_path / "m.jsonl"
    mfile.write_text(json.dumps(co.constant_measure(c, co.Kind(kind)).to_dict()))
    assert run("verify", "--input", path, "--suite", "measure-axioms,monotonicity",
               "--measure", str(mfile), "--output", str(out)) == 0
    assert out.read_text().splitlines() == [
        f'{{"checked": {checked}, "counterexample": null, "law": "{law}", "skipped": {skipped}, '
        f'"suite": "{suite}", "verdict": "holds"}}' for checked, skipped, law, suite in _UNIT_TABLE_LINES[name]
    ] + ['{"summary": {"all_hold": true}}']


def test_verify_tolerance_defaults_to_the_library_tolerance():
    # the default is the one the library compares with, not a copy of it
    args = _build_parser().parse_args(["verify", "--input", "x"])
    assert args.tolerance is co.measure.EQUALITY_RTOL


MALFORMED_MEASURES = [
    ({"kind": "divergent", "entries": [{"set": ["00"], "sigma": 1.0}]},
     "measure entry 0 names unknown point '00'"),
    ({"kind": "divergent"}, 'measure document has no "entries"'),
    ([{"set": ["a"], "sigma": 1.0}], "measure document must be an object, got array"),
    ({"entries": [{"set": "abc", "sigma": 1.0}]},
     '"set" of measure entry 0 must be an array, got string'),
    ({"entries": {"set": ["a"]}}, '"entries" must be an array, got object'),
    ({"entries": [{"set": ["a"], "sigma": 1.0}, ["b"]]},
     "measure entry 1 must be an object, got array"),
    ({"entries": [{"set": ["a"]}]}, 'measure entry 0 has no "sigma"'),
    ({"entries": [{"set": ["a", 1], "sigma": 1.0}]}, "measure entry 0 names unknown point 1"),
    ({"entries": [{"set": ["a"], "sigma": 1}, {"set": ["a"], "sigma": 5}]},
     "measure entries 0 and 1 name the same set"),
    ({"entries": [{"set": ["a", "b"], "sigma": 1}, {"set": ["c"], "sigma": 1},
                  {"set": ["b", "a"], "sigma": 1}]},
     "measure entries 0 and 2 name the same set"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_MEASURES, ids=repr)
def test_verify_malformed_measure_exits_2(chain3_file, tmp_path, capsys, doc, message):
    mfile, out = tmp_path / "measure.json", tmp_path / "m.jsonl"
    mfile.write_text(json.dumps(doc))
    assert run("verify", "--input", chain3_file, "--suite", "measure-axioms",
               "--measure", str(mfile), "--output", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_verify_measure_with_an_integer_past_the_float_range_exits_2(chain3_file, tmp_path, capsys):
    # a valid JSON integer of 401 digits printed a traceback and exited 1
    mfile, out = tmp_path / "measure.json", tmp_path / "m.jsonl"
    mfile.write_text('{"entries": [{"set": ["a"], "sigma": 1' + "0" * 400 + "}]}")
    assert run("verify", "--input", chain3_file, "--suite", "measure-axioms",
               "--measure", str(mfile), "--output", str(out)) == 2
    assert capsys.readouterr().err == "error: sigma of ['a'] is an integer too large for a float\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "reconstruct"])
@pytest.mark.parametrize("doc, message", MALFORMED_CAUSALITY, ids=repr)
def test_malformed_causality_exits_2(tmp_path, capsys, command, doc, message):
    path, out = tmp_path / "c.json", tmp_path / "r"
    path.write_text(json.dumps(doc))
    assert run(command, "--input", str(path), "--output", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _slots(node, found):
    """Every (container, key) at or below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        found.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, found)
    return found


@st.composite
def _mutated(draw, doc):
    """``doc`` with one key or item dropped, one value of another type,
    or one string (a point id, a kind, a closure mode) renamed."""
    holder = [copy.deepcopy(doc)]
    how = draw(st.sampled_from(["drop", "retype", "rename"]))
    slots = _slots(holder, [])
    if how == "rename":
        slots = [(node, key) for node, key in slots if isinstance(node[key], str)]
    elif how == "drop":
        slots = slots[1:]  # not the document itself
    node, key = draw(st.sampled_from(slots))
    if how == "drop":
        del node[key]
    elif how == "retype":
        node[key] = draw(st.sampled_from([None, True, 0, 2.5, "ab", [], {}, [["a"]]]))
    else:
        node[key] = draw(st.sampled_from(["a", "b", "c", "zz", ""]))
    return holder[0]


_CHAIN3 = co.chain(3)
_CAUSALITY_DOC = co.causality_to_dict(_CHAIN3)
_MEASURE_DOC = co.constant_measure(_CHAIN3).to_dict()


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(docs=st.tuples(_mutated(_CAUSALITY_DOC), st.just(_MEASURE_DOC))
       | st.tuples(st.just(_CAUSALITY_DOC), _mutated(_MEASURE_DOC)))
def test_mutated_documents_exit_0_2_or_3(tmp_path, docs):
    # the command returns: no exception escapes main, so no traceback
    cfile, mfile, out = tmp_path / "c.json", tmp_path / "m.json", str(tmp_path / "out")
    cfile.write_text(json.dumps(docs[0]))
    mfile.write_text(json.dumps(docs[1]))
    assert run("verify", "--input", str(cfile), "--suite", ",".join(ALL_SUITES),
               "--measure", str(mfile), "--output", out) in (0, 2, 3)
    assert run("reconstruct", "--input", str(cfile), "--output", out) in (0, 2, 3)


def test_verify_measure_suite_needs_measure(chain3_file):
    assert run("verify", "--input", chain3_file, "--suite", "measure-axioms") == 1


def test_verify_broken_relation_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(
        {"points": ["a", "b", "c"], "relation": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}
    ))
    assert run("verify", "--input", str(path)) == 2


@pytest.mark.parametrize("command", ["verify", "reconstruct"])
def test_relation_entry_2_exits_2(tmp_path, command):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"points": ["a", "b"], "relation": [[1, 2], [0, 1]]}))
    assert run(command, "--input", str(path), "--output", str(tmp_path / "r")) == 2


def test_verify_ragged_relation_exits_2(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"points": ["a", "b"], "relation": [[1, 0], [1]]}))
    assert run("verify", "--input", str(path), "--output", str(tmp_path / "r")) == 2
    assert "relation row 1 has 1 entries, not 2" in capsys.readouterr().err


def test_verify_relation_behind_256_paths_exits_2(tmp_path):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "points": [f"p{i}" for i in range(258)],
        "relation": fan_relation(256).astype(int).tolist(),
    }))
    assert run("verify", "--input", str(path), "--output", str(tmp_path / "r")) == 2


def test_verify_k66_union_laws_as_scanned(tmp_path):
    # every union law holds on K(6,6), with the counts the member scans
    # gave; the closure axioms fail, since crossing does
    path, out = _causality_file(tmp_path, k66(), "k66"), tmp_path / "r"
    assert run("verify", "--input", path, "--suite", "union-laws,algebra-axioms",
               "--output", str(out)) == 2
    lines = [strict_loads(line) for line in out.read_text().splitlines()]
    assert lines[:10] == [
        {"checked": checked, "counterexample": None, "law": f"{law}[{tag}]",
         "skipped": skipped, "suite": "union-laws", "verdict": "holds"}
        for tag in ("convergent", "divergent") for law, (checked, skipped) in K66_LAW_COUNTS.items()]
    assert [e["verdict"] for e in lines[10:14]] == ["fails"] * 4
    assert lines[-1] == {"summary": {"all_hold": False}}


@pytest.mark.parametrize("c, scans", [(co.chain(3), 1), (k66(), 1)], ids=["chain3", "k66"])
def test_verify_scans_crossing_once_per_order(tmp_path, monkeypatch, c, scans):
    # the crossing suite and the algebra axioms share the stored verdict;
    # without crossing, the axioms read the divergent witnesses off the
    # same one, so no reversed order is scanned
    scanned, scan = [], order._unrelated_pairs
    monkeypatch.setattr(order, "_unrelated_pairs",
                        lambda d: scanned.append(d.relation.tobytes()) or scan(d))
    path = _causality_file(tmp_path, c, "c")
    assert run("verify", "--input", path, "--output", str(tmp_path / "r")) == 2
    assert len(scanned) == len(set(scanned)) == scans


def test_cli_jobs_leave_only_the_store_entries_they_read_again(tmp_path, monkeypatch):
    # the store-key kinds that the default verify suites, the measure
    # suites and reconstruct leave on one input (without crossing, so the
    # divergent witnesses are needed too): each kind is read again, by a
    # later suite or by another entry's builder, so a new kind needs a reader
    loaded, load = [], cli._load_causality
    monkeypatch.setattr(cli, "_load_causality", lambda path: loaded.append(load(path)) or loaded[-1])
    c = k66()
    path, out, mfile = _causality_file(tmp_path, c, "k66"), str(tmp_path / "r"), tmp_path / "m.json"
    mfile.write_text(json.dumps(co.constant_measure(c).to_dict()))
    assert run("verify", "--input", path, "--output", out) == 2
    assert run("verify", "--input", path, "--suite", "measure-axioms,monotonicity",
               "--measure", str(mfile), "--output", out) == 0
    assert run("reconstruct", "--input", path, "--output", out) == 0
    # the measure job reads the crossing verdict for its unit table
    families = {"cover", "rows", "succ", "pred", "class_codes", "family"}
    assert [{key if isinstance(key, str) else key[0] for key in d._derived} for d in loaded] == [
        families | {"crossing", "laws"}, families | {"crossing"}, families]


def test_verify_cap_exits_3(tmp_path, capsys):
    # the default suites: crossing passes, then union-law verification
    # refuses 13 points and no output file is written
    path, out = _causality_file(tmp_path, co.chain(13), "chain13"), tmp_path / "r"
    assert run("verify", "--input", path, "--output", str(out)) == 3
    assert "union-law verification is capped at 12 points" in capsys.readouterr().err
    assert not out.exists()


def test_verify_crossing_above_law_cap_exits_0(tmp_path):
    # each suite applies the cap of its own scan: MATRIX_CAP for crossing
    path, out = _causality_file(tmp_path, co.grid(4, 4), "grid44"), tmp_path / "r"
    assert run("verify", "--input", path, "--suite", "crossing", "--output", str(out)) == 0
    assert strict_loads(out.read_text().splitlines()[0])["verdict"] == "holds"


@pytest.mark.parametrize("suite", ["measure-axioms", "monotonicity"])
def test_verify_measure_suites_cap_exits_3(tmp_path, capsys, suite):
    c = co.chain(13)
    path = _causality_file(tmp_path, c, "chain13")
    mfile = tmp_path / "measure.json"
    mfile.write_text(json.dumps(co.constant_measure(c).to_dict()))
    assert run("verify", "--input", path, "--suite", suite, "--measure", str(mfile),
               "--output", str(tmp_path / "r")) == 3
    assert "capped at 12 points" in capsys.readouterr().err


def test_verify_missing_file_exits_1():
    assert run("verify", "--input", "/definitely/not/here.json") == 1


@pytest.mark.parametrize("argv, err", [
    (["verify", "--input", "{dir}"], "cannot read input: [Errno 21] Is a directory"),
    (["sprinkle", "--output", "{dir}"], "cannot write output: [Errno 21] Is a directory"),
    (["sprinkle", "--output", "{dir}/missing/out.json"],
     "cannot write output: [Errno 2] No such file or directory"),
], ids=["input-dir", "output-dir", "output-under-missing-dir"])
def test_file_errors_exit_1(tmp_path, capsys, argv, err):
    assert run(*(a.format(dir=tmp_path) for a in argv)) == 1
    assert capsys.readouterr().err.startswith(err)


def test_verify_unknown_suite_exits_1(chain3_file):
    assert run("verify", "--input", chain3_file, "--suite", "nope") == 1


@pytest.mark.parametrize("suite", [",", "", " , "])
def test_verify_without_a_suite_exits_1(chain3_file, tmp_path, capsys, suite):
    # these used to run nothing and report {"summary": {"all_hold": true}}
    out = tmp_path / "r.jsonl"
    assert run("verify", "--input", chain3_file, "--suite", suite, "--output", str(out)) == 1
    assert "usage error: --suite names no suite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_l33(l33_file, tmp_path):
    out = tmp_path / "rec.json"
    assert run("reconstruct", "--input", l33_file, "--output", str(out)) == 0
    doc = strict_loads(out.read_text())
    assert doc["domain"] == []
    assert doc["agreement"]["diffs"] == []
    assert doc["diagnostics"]["11"]["ribbon_pairs"] == 9


def test_reconstruct_empty_input(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"points": [], "relation": []}))
    out = tmp_path / "rec.json"
    assert run("reconstruct", "--input", str(path), "--output", str(out)) == 0
    doc = strict_loads(out.read_text())
    assert doc["domain"] == [] and doc["relation"] == []


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_values(tmp_path):
    out = tmp_path / "e.json"
    assert run("entropy", "--t", "1", "--alpha", "1", "--output", str(out)) == 0
    doc = strict_loads(out.read_text())
    assert abs(doc["entropy"] - 12.56637) < 5e-6

    assert run("entropy", "--t", "2", "--alpha", "1", "--output", str(out)) == 0
    doc = strict_loads(out.read_text())
    assert abs(doc["entropy"] - 50.26548) < 5e-6


def test_entropy_bekenstein_hawking(tmp_path):
    import math

    out = tmp_path / "e.json"
    assert run("entropy", "--t", "2", "--bekenstein-hawking", "--output", str(out)) == 0
    doc = strict_loads(out.read_text())
    assert doc["entropy_in_kB_over_lp2"] == math.pi * 4.0
    assert doc["alpha"] == 0.25
    # the radius of the slice at the cut, t minus the apex time
    assert run("entropy", "--t", "3", "--apex", "1,0,0,0", "--bekenstein-hawking",
               "--output", str(out)) == 0
    assert strict_loads(out.read_text())["entropy_in_kB_over_lp2"] == math.pi * 4.0


def test_entropy_with_mc_check(tmp_path):
    out = tmp_path / "e.json"
    assert run("entropy", "--t", "1", "--mc-samples", "200000", "--seed", "4",
               "--output", str(out)) == 0
    doc = strict_loads(out.read_text())
    assert abs(doc["mc_entropy"] - doc["entropy"]) / doc["entropy"] < 0.02


def test_entropy_bad_apex_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "e.json"
    assert run("entropy", "--t", "1", "--apex", "0,x,0,0", "--output", str(out)) == 1
    assert capsys.readouterr().err == "usage error: bad apex '0,x,0,0'; expected comma-separated numbers\n"
    assert not out.exists()


def test_entropy_1plus1_apex_rejected(tmp_path):
    assert run("entropy", "--t", "1", "--apex", "0,0",
               "--output", str(tmp_path / "e.json")) == 2


@pytest.mark.parametrize("argv", [
    ["--t", "nan"],
    ["--t", "inf"],
    ["--t", "1", "--alpha", "nan"],
    ["--t", "1", "--apex", "nan,0,0,0"],
    ["--t", "1", "--bekenstein-hawking", "--planck-length", "0"],
    ["--t", "1", "--bekenstein-hawking", "--planck-length", "1e-200"],
    ["--t", "1e200"],  # finite inputs whose entropy overflows float64
])
def test_entropy_non_finite_exits_2_without_output(tmp_path, argv):
    out = tmp_path / "e.json"
    assert run("entropy", *argv, "--output", str(out)) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# output bytes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["sprinkle", "--dim", "1", "--box", "0:1,0:1", "--n", "40", "--seed", "2"],
    ["sprinkle", "--dim", "3", "--box", "0:1,0:1,0:1,0:1", "--n", "25", "--seed", "9"],
    ["sprinkle", "--dim", "1", "--box", "0:2,-1:3", "--mode", "lattice"],
    ["sprinkle", "--dim", "1", "--n", "0"],
    ["entropy", "--t", "1.5", "--apex", "0.25,0,0,0", "--mc-samples", "20000",
     "--seed", "6"],
    ["entropy", "--t", "2", "--kind", "past", "--apex", "3,0,0,0",
     "--bekenstein-hawking", "--kB", "2", "--planck-length", "0.5"],
    ["sprinkle", "--dim", "3", "--box", "0:1,0:1,0:1,0:1", "--n", "300", "--seed", "5"],
])
def test_output_bytes_match_pure_python_encoder(tmp_path, argv):
    # json.dump(doc, fp, sort_keys=True) writes exactly these bytes
    out = tmp_path / "out.json"
    assert run(*argv, "--output", str(out)) == 0
    doc = strict_loads(out.read_text())
    expected = "".join(json.JSONEncoder(sort_keys=True).iterencode(doc)) + "\n"
    assert out.read_bytes() == expected.encode()


# ---------------------------------------------------------------------------
# standard streams
# ---------------------------------------------------------------------------

def test_stdout_output_leaves_stdout_open(capsys):
    assert run("entropy", "--t", "1", "--output", "-") == 0
    assert run("entropy", "--t", "1", "--output", "-") == 0
    assert not sys.stdout.closed
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    assert strict_loads(first)["entropy"] > 0


def test_stdin_input_leaves_stdin_open(monkeypatch, chain3, tmp_path):
    stdin = io.StringIO(json.dumps(co.causality_to_dict(chain3)))
    monkeypatch.setattr(sys, "stdin", stdin)
    out = tmp_path / "rec.json"
    assert run("reconstruct", "--input", "-", "--output", str(out)) == 0
    assert not stdin.closed
    assert strict_loads(out.read_text())["diagnostics"].keys() == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_one_parser_serves_successive_calls(chain3_file, l33_file, tmp_path, capsys):
    """A usage error, verify and reconstruct run one after another on the
    process's one parser, and each gives the exit code, output bytes and
    standard error of a call on a freshly built parser."""
    jobs = [
        ["verify", "--output"],  # no --input: a usage error
        ["verify", "--input", chain3_file, "--output"],
        ["reconstruct", "--input", l33_file, "--output"],
    ]

    def outcomes(fresh):
        got = []
        for k, argv in enumerate(jobs):
            if fresh:
                _build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{k}.out"
            rc = main([*argv, str(out)])
            got.append((rc, out.read_bytes() if out.exists() else None,
                        capsys.readouterr().err))
        return got

    assert _build_parser() is _build_parser()
    shared = outcomes(fresh=False)
    assert [rc for rc, _, _ in shared] == [1, 2, 0]
    assert shared == outcomes(fresh=True)
