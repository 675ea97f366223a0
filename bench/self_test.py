"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/self_test.py

1. Runs every workload at the tiny size, untraced and traced, each in a
   process of its own, and checks that the last output line has exactly
   the keys correct, attempted, failed and metrics, with every metric that
   BENCHMARK.json names, in its unit, and that sprinkle-export reports
   the state of its two known-defect jobs.
2. Checks that every per-layer metric has a prediction, and that a copy
   holding only BENCHMARK.json and bench/ fails without printing a result.
3. Tampers with the answers of real passes and checks that the output
   checks catch each tampering.

Exits 0 when every check passes.  Writes only under .bench_work/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def metrics_print_with_units(spec: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(["--workload", name, "--seed", "1", "--seconds", "0.5",
                         "--trace", str(trace), "--size", "tiny"])
            what = f"{name} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what} exits 0 (got {proc.returncode}: {proc.stderr[-300:]})")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if name == "sprinkle-export":
                probes = [line for line in proc.stdout.splitlines()
                          if line.startswith("known defect, outside correct: ")]
                expect(len(probes) == 2, f"{what}: both known-defect jobs report their state")
            expect(set(result) == RESULT_KEYS, f"{what}: result keys")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
                   and isinstance(result["failed"], int), f"{what}: operation counts")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{what}: every {key} metric, with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{what}: metric values are numbers")


def predictions_cover_layers(spec: dict) -> None:
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {k: v[0] for k, v in spans.PREDICTIONS.items()}
    expect(got == want, "every per-layer metric has a prediction, in its unit")


def fails_without_library() -> None:
    bare = os.path.join(ROOT, ".bench_work", "self-test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(["--workload", "verify-batch", "--seed", "1", "--seconds", "1"], cwd=bare)
    expect(proc.returncode != 0 and "metrics" not in proc.stdout,
           "without the library the run fails and prints no result")
    shutil.rmtree(bare)


def _fresh_pass(name: str, work: str):
    import causalorder
    import causalorder.cli
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    w = workloads.WORKLOADS[name]()
    w.prepare(1, workloads.SIZES["tiny"], work)
    return w, w.run_pass(causalorder, causalorder.cli)


def _caught(w, ps, label: str, tamper, how: str) -> None:
    """``label`` checks clean, and fails once ``tamper(output)`` replaces it."""
    before = {lab.split(":")[0] for lab, _ in w.check(ps)}
    i = next(i for i, (lab, *_) in enumerate(ps.outputs) if lab == label)
    lab, got, exp = ps.outputs[i]
    ps.outputs[i] = (lab, tamper(got, exp), exp)
    after = {lab.split(":")[0] for lab, _ in w.check(ps)}
    ps.outputs[i] = (lab, got, exp)
    expect(label not in before and label in after, f"{label}: {how} is caught")


def _edit_json(path: str, edit) -> None:
    with open(path) as fp:
        doc = json.load(fp)
    edit(doc)
    with open(path, "w") as fp:
        json.dump(doc, fp)


def _edit_lines(path: str, edit) -> None:
    with open(path) as fp:
        lines = [json.loads(line) for line in fp]
    edit(lines)
    with open(path, "w") as fp:
        fp.writelines(json.dumps(line) + "\n" for line in lines)


def tampering_is_caught() -> None:
    work = os.path.join(ROOT, ".bench_work", "self-test")

    w, ps = _fresh_pass("sprinkle-export", work)
    _caught(w, ps, "to_dot 3+1", lambda dot, _: "\n".join(
        line for i, line in enumerate(dot.splitlines()) if i != len(dot.splitlines()) - 2),
        "a dropped cover edge")

    def flip_relation(rc, exp):
        def edit(doc):
            row = doc["causality"]["relation"][0]
            row[1] = 1 - row[1]
        _edit_json(exp[1], edit)
        return rc
    _caught(w, ps, "cli sprinkle 1+1", flip_relation, "a flipped relation entry")
    _caught(w, ps, "cli entropy --mc-samples", lambda rc, _: 1, "a wrong exit code")

    w, ps = _fresh_pass("verify-batch", work)
    label = "cli verify grid2x3"

    def fake_counterexample(rc, exp):
        def edit(lines):
            law = next(e for e in lines if e.get("law", "").startswith("IV["))
            law["verdict"], law["counterexample"] = "fails", {"a": [], "b": [], "c": []}
            lines[-1]["summary"]["all_hold"] = False
        _edit_lines(exp[1], edit)
        return 2
    _caught(w, ps, label, fake_counterexample, "a IV counterexample that holds")

    def wrong_summary(rc, exp):
        _edit_lines(exp[1], lambda lines: lines[-1]["summary"].__setitem__("all_hold", True))
        return rc
    w, ps = _fresh_pass("verify-batch", work)
    _caught(w, ps, label, wrong_summary, "a summary that contradicts the verdicts")

    reconstruct = next(lab for lab, *_ in ps.outputs if lab.startswith("cli reconstruct"))

    def extra_ribbon_pair(rc, exp):
        def edit(doc):
            first = next(iter(doc["diagnostics"].values()))
            first["ribbon_pairs"] += 1
        _edit_json(exp[1], edit)
        return rc
    _caught(w, ps, reconstruct, extra_ribbon_pair, "a wrong ribbon-pair count")

    def all_hold(rc, exp):
        def edit(lines):
            for e in lines[:-1]:
                e["verdict"], e["counterexample"] = "holds", None
            lines[-1]["summary"]["all_hold"] = True
        _edit_lines(exp[1], edit)
        return 0
    w, ps = _fresh_pass("verify-batch", work)
    _caught(w, ps, label, all_hold, "'holds' for every law, the failing ones included")

    w, ps = _fresh_pass("family-queries", work)
    _caught(w, ps, "grid3x3 enumerate convergent", lambda sets, _: sets[:-1], "a missing set")
    wrong_answers_are_caught(w)
    shutil.rmtree(work)


def wrong_answers_are_caught(w) -> None:
    """Runs family-queries passes against a library whose one query
    function answers wrong, and checks that its queries fail."""
    import types

    import causalorder as co
    import causalorder.cli

    def wrong_intersection(c, a, b):
        inter, cls = co.intersect_causal(c, a, b)
        return co.PointSet(c, inter.mask ^ 1), cls

    fakes = {
        "union": ("causal_union", lambda c, a, b, kind=None:
                  co.PointSet(c, co.causal_union(c, a, b, kind).mask ^ 1)),
        "classify": ("classify", lambda c, u: co.SetClass(co.classify(c, u).value ^ 1)),
        "intersect": ("intersect_causal", wrong_intersection),
    }
    clean = {lab for lab, _ in w.check(w.run_pass(co, causalorder.cli))}
    expect(not clean, "family-queries: a clean pass has no failures")
    for what, (name, fake) in fakes.items():
        tampered = types.SimpleNamespace(**{**vars(co), name: fake})
        failed = [lab for lab, _ in w.check(w.run_pass(tampered, causalorder.cli))]
        expect(any(f"{what} op" in lab for lab in failed), f"a wrong {what} answer is caught")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    metrics_print_with_units(spec)
    predictions_cover_layers(spec)
    fails_without_library()
    tampering_is_caught()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
