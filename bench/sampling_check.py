"""Does reading the speed during an operation steady its scaled time?

    python3 bench/sampling_check.py --seconds 150

Run from the repository root.  Repeats one family-queries operation (load
and enumerate grid(4,5), the 2^20 scan, about 2.5 s) for ``--seconds``
through :meth:`workloads.Pass.measure`, which reads the speed before and
after it and every SAMPLE_S seconds during it.  From the same operations
it scales each time twice, by the two boundary readings alone and by all
readings, and prints the spread (interquartile range over median) of the
raw and of both scaled times.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=150)
    args = parser.parse_args()
    import causalorder as co

    work = os.path.join(ROOT, ".bench_work", "sampling-check")
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "grid4x5.json")
    workloads._write_causality(path, *oracle.grid_relation(4, 5))
    kinds = [co.Kind(k) for k in workloads.KINDS]
    ps, rows = workloads.Pass(), []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        first = len(ps.factors) - 1
        _, factor, dt = ps.measure(workloads._load_and_enumerate, co, path, kinds)
        boundary = (ps.factors[first] + ps.factors[-1]) / 2
        rows.append((dt, dt * boundary, dt * factor, len(ps.factors) - first))
    print(f"{len(rows)} operations, median {statistics.median(r[3] for r in rows)} readings each")
    for i, what in enumerate(("raw", "boundary readings", "all readings"), start=0):
        print(f"{what}: IQR/median {spread([r[i] for r in rows]):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
