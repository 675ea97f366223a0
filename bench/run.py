"""Benchmark of the causalorder library: one workload, one seed, one run.

    python3 bench/run.py --workload family-queries --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  A
run makes its inputs from ``--seed``, sets up (imports the library and
loads the small inputs) 11 times, repeats passes of the workload for
``--seconds`` (no pass starts that would end after them; at least one
pass runs), checking every pass's outputs against the oracle, and sets
up 10 more times; ``setup_s`` is the median of the ``SETUP_REPS`` = 21
set-ups.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` untraced and
traced passes alternate (untraced, traced, traced, untraced, ...), the
metrics are the per-layer ones, and the spans of the last traced pass are
written to ``.bench_work/<workload>/spans.jsonl``.  Everything the run
writes stays under ``.bench_work/``.
"""

from __future__ import annotations

import os
import sys

# one thread: a 2-core machine shared with other work times steadier
# without BLAS worker threads, and the benchmark starts no threads itself
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import SIZES, WORKLOADS, net_clock_ns, reference_reading, speed_factor  # noqa: E402

SETUP_REPS = 21
LAYERS = ("order", "minkowski", "io", "algebra", "measure", "reconstruction", "cli")


def _fresh_import():
    """Import causalorder and its CLI as a new process would."""
    for name in [k for k in sys.modules if k == "causalorder" or k.startswith("causalorder.")]:
        del sys.modules[name]
    return importlib.import_module("causalorder"), importlib.import_module("causalorder.cli")


def _set_up(workload, reps: int, setups: list[float]):
    """Import the library and load the workload's small inputs ``reps``
    times; appends each time, at reference speed, to ``setups``."""
    reading = reference_reading()
    for _ in range(reps):
        t0 = time.perf_counter()
        co, cli = _fresh_import()
        workload.setup(co, cli)
        dt = time.perf_counter() - t0
        reading, before = reference_reading(), reading
        setups.append(dt * (speed_factor(before) + speed_factor(reading)) / 2)
    return co, cli


def _end_to_end(setups, untraced) -> dict:
    def latency_us(q: int) -> float:  # median over passes of each pass's percentile
        return statistics.median(ps.percentiles[q] * 1e6 for ps in untraced)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(ps.wall for ps in untraced), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "query_p50_us": (latency_us(50), "us"),
        "query_p99_us": (latency_us(99), "us"),
    }


def _per_layer(traced, untraced) -> dict:
    per_pass = []
    for ps, metrics in traced:  # times to reference speed, by the pass's mean factor
        factor = ps.wall / ps.seconds
        per_pass.append({k: v * factor if spans.PREDICTIONS[k][0] in ("s", "us") else v
                         for k, v in metrics.items()})
    out = {name: (statistics.median(m[name] for m in per_pass), spans.PREDICTIONS[name][0])
           for name in per_pass[0]}
    overhead = (statistics.median(ps.wall for ps, _ in traced)
                / statistics.median(ps.wall for ps in untraced) - 1)
    out["trace.overhead_share"] = (overhead, "share")
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    work = os.path.join(ROOT, ".bench_work", workload_name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[workload_name]()
    workload.prepare(seed, SIZES[size], work)

    setups = []
    co, cli = _set_up(workload, SETUP_REPS // 2 + 1, setups)
    if not os.path.abspath(co.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported causalorder from {co.__file__}, not from {SRC}")
    modules = {k: sys.modules[f"causalorder.{k}"] for k in LAYERS
               if f"causalorder.{k}" in sys.modules}

    untraced, traced, failures, last_tracer = [], [], Counter(), None
    start = last = time.perf_counter()
    for i in itertools.count():
        tracer = spans.Tracer(net_clock_ns) if trace and i % 4 in (1, 2) else None
        if tracer:
            tracer.install(modules)
        try:
            ps = workload.run_pass(co, cli)
        finally:
            if tracer:
                tracer.uninstall()
        failures.update(workload.check(ps))
        ps.outputs.clear()
        # keep the percentiles, not the samples
        ps.samples, ps.percentiles = len(ps.latencies), dict(zip(
            (50, 99), np.percentile(ps.latencies, (50, 99)).tolist()))
        ps.latencies = None
        if tracer:
            traced.append((ps, spans.layer_metrics(tracer, (ps.bytes_read, ps.bytes_written))))
            last_tracer = tracer
        else:
            untraced.append(ps)
        # stop before a pass that would end after the deadline
        now = time.perf_counter()
        if now + (now - last) - start > seconds and untraced and (traced or not trace):
            break
        last = now

    probe = getattr(workload, "known_defects", None)
    defects = probe(co, cli) if probe else []
    # the other set-ups, after the passes: two windows of the machine's speed
    _set_up(workload, SETUP_REPS // 2, setups)
    passes = untraced + [ps for ps, _ in traced]
    attempted = sum(ps.attempted for ps in passes)
    failed = sum(failures.values())
    print(f"{workload_name} seed {seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes, {attempted} operations, {failed} failed "
          f"(fail_share {failed / attempted}), "
          f"{sum(ps.samples for ps in untraced)} latency samples")
    print(f"median untraced pass: {statistics.median(ps.seconds for ps in untraced)} s measured,"
          f" {statistics.median(ps.wall for ps in untraced)} s at reference speed")
    for label in untraced[0].by_label:
        print(f"  {label}: median {statistics.median(ps.by_label[label] for ps in untraced)} s")
    for (label, why), count in sorted(failures.items()):
        print(f"FAILED x{count} {label}: {why}")
    for label, why in defects:
        print(f"known defect, outside correct: {label}: {why or 'fixed, the output is right'}")
    if trace:
        last_tracer.write(os.path.join(work, "spans.jsonl"))
        if last_tracer.missing:
            print("entry points not found (their metrics read 0): "
                  + ", ".join(last_tracer.missing))
        metrics = _per_layer(traced, untraced)
        for name, (value, unit) in metrics.items():
            _, moves, where = spans.PREDICTIONS[name]
            print(f"{name} = {value} {unit}; expected to move {', '.join(moves) or 'nothing'}"
                  f" on {', '.join(where)}")
    else:
        metrics = _end_to_end(setups, untraced)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny: the self-test's small inputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "causalorder", "__init__.py")):
        print(f"no library source at {SRC}/causalorder", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
