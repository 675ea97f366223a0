"""Command-line interface: determinism, exit codes, report shapes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalorder as co
from causalorder.cli import main

from conftest import fan_relation


def run(*argv):
    return main(list(argv))


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def strict_loads(text):
    """Parse strict JSON: the NaN and Infinity tokens raise."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture
def chain3_file(tmp_path, chain3):
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(co.causality_to_dict(chain3)))
    return str(path)


@pytest.fixture
def l33_file(tmp_path, l33):
    path = tmp_path / "l33.json"
    path.write_text(json.dumps(co.causality_to_dict(l33)))
    return str(path)


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


@pytest.mark.parametrize("sigma", ["NaN", '"2.0"', "null", "true"])
def test_verify_measure_with_bad_sigma_exits_2(chain3_file, tmp_path, chain3, sigma):
    text = json.dumps(co.constant_measure(chain3).to_dict()).replace("1.0", sigma, 1)
    mfile, out = tmp_path / "measure.json", tmp_path / "m.jsonl"
    mfile.write_text(text)
    assert run("verify", "--input", chain3_file, "--suite", "measure-axioms",
               "--measure", str(mfile), "--output", str(out)) == 2
    assert not out.exists()  # rejected on load, not reported as a failed law


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


def test_verify_cap_exits_3(l33_file):
    assert run("verify", "--input", l33_file, "--max-n", "5") == 3


def test_verify_missing_file_exits_1():
    assert run("verify", "--input", "/definitely/not/here.json") == 1


def test_verify_unknown_suite_exits_1(chain3_file):
    assert run("verify", "--input", chain3_file, "--suite", "nope") == 1


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


def test_entropy_with_mc_check(tmp_path):
    out = tmp_path / "e.json"
    assert run("entropy", "--t", "1", "--mc-samples", "200000", "--seed", "4",
               "--output", str(out)) == 0
    doc = strict_loads(out.read_text())
    assert abs(doc["mc_entropy"] - doc["entropy"]) / doc["entropy"] < 0.02


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
