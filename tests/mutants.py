"""Replay a fixed list of source mutants against the tests meant to kill them.

Each mutant is (file under ``src/causalorder``, exact old text, new text,
test node ids).  The script copies ``src/`` to a temporary directory,
applies one mutant at a time to the copy, and runs the named tests
against the copy with ``pytest -x``, one process after another.  A mutant
is killed when its tests fail, a survivor when they pass, and stale when
its old text no longer occurs exactly once in its file.  First the tests
of every mutant run once on the unmutated copy, and must pass.

Run it from the repository root::

    python tests/mutants.py

Pytest does not collect this file (its name does not start with
``test_``).  The exit status is 0 when every mutant is killed, 1 when one
survives or is stale, and 2 when the tests fail on the unmutated copy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_STORE = "tests/test_io.py::test_loads_sprinkles_and_cover_exports_keep_only_the_packed_forms"
_CLI_STORE = "tests/test_cli.py::test_cli_jobs_leave_only_the_store_entries_they_read_again"
_MISSING = "tests/test_measure.py::test_every_table_reader_raises_missing_value"
_FILE_ERRORS = "tests/test_cli.py::test_file_errors_exit_1"

MUTANTS = [
    # the order: relation kept in the store again
    ("order.py",
     'return _frozen(_unpack(self._derived["rows"], self.n))',
     'return _stored(self, "relation", lambda c: _frozen(_unpack(c._derived["rows"], c.n)))',
     [_STORE]),
    # the vertex-group tables: stored again, or the superset count off
    ("algebra.py",
     "group, size, meets, union = _vertex_groups(c, kind)",
     'group, size, meets, union = _stored(c, ("groups", kind), _vertex_groups, kind)',
     [_CLI_STORE]),
    ("algebra.py",
     "meets != _NONE, size, dtype=np.int64)) + len(fam)) // 2",
     "meets != _NONE, size, dtype=np.int64)) + len(fam)) // 2 - 1",
     ["tests/test_cli.py::test_verify_k66_union_laws_as_scanned",
      "tests/test_algebra.py::test_laws_and_closures_equal_the_scans_on_every_small_poset"]),
    # a measure's values: a second σ array, or a bare table read
    ("measure.py",
     "    fam, sigma = _family_sigma(c, measure)\n    fam_arr",
     "    fam = family_masks(c, measure.kind)\n"
     "    sigma = np.array([measure.table[m] for m in fam], dtype=float)\n    fam_arr",
     [_MISSING,
      "tests/test_cli.py::test_verify_monotonicity_of_incomplete_measure_exits_2"]),
    ("measure.py",
     "best = max(best, measure._sigma(m))",
     "best = max(best, measure.table[m])",
     [_MISSING]),
    ("measure.py",
     "best = min(best, measure._sigma(m))",
     "best = min(best, measure.table[m])",
     [_MISSING]),
    # the density test
    ("reconstruction.py",
     "*_ribbon_pair_masks(c, p, pair)) is None",
     "*_ribbon_pair_masks(c, p, pair)) is not None",
     ["tests/test_reconstruction.py::test_no_dense_pair_on_fixtures"]),
    # relation lists: the ragged-row check
    ("io.py",
     "len({len(row) for row in rows}) > 1",
     "len({len(row) for row in rows}) > 2",
     ["tests/test_io.py::test_ragged_relation_names_the_first_short_row"]),
    # horizon entropy: a boosted diamond, and the CLI's slice radius
    ("minkowski.py",
     "lo, hi = _diamond_apexes(desc)\n        r = ",
     "lo, hi = desc.apex, desc.apex2\n        r = ",
     ["tests/test_minkowski.py::test_diamond_offset_apexes_rejected_for_area"]),
    ("cli.py",
     "span = _cross_section_radius(desc, args.t)",
     "span = args.t",
     ["tests/test_cli.py::test_entropy_bekenstein_hawking"]),
    # CLI file errors and --apex
    ("cli.py",
     "except (OSError, json.JSONDecodeError) as exc:",
     "except (FileNotFoundError, json.JSONDecodeError) as exc:",
     [_FILE_ERRORS]),
    ("cli.py",
     'what = "read input" if mode == "r" else "write output"',
     'what = "read input"',
     [_FILE_ERRORS]),
    ("cli.py",
     "apex = _parse_apex(args.apex) if args.apex",
     'apex = tuple(map(float, args.apex.split(","))) if args.apex',
     ["tests/test_cli.py::test_entropy_bad_apex_is_a_usage_error"]),
]


def _passes(src: Path, tests: list[str]) -> bool:
    """Whether ``tests`` pass with the package imported from ``src``.  No
    bytecode is written, so each run compiles the copy as it stands."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    start = time.perf_counter()
    outcome: dict[str, list[str]] = {"killed": [], "survivors": [], "stale": []}
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not _passes(src, sorted({t for *_, tests in MUTANTS for t in tests})):
            print("the named tests fail on the unmutated source")
            return 2
        for name, old, new, tests in MUTANTS:
            path = src / "causalorder" / name
            text = path.read_text()
            label = f"{name}: {old.strip()!r} -> {new.strip()!r}"
            if text.count(old) != 1:
                outcome["stale"].append(label)
                continue
            path.write_text(text.replace(old, new))
            try:
                outcome["survivors" if _passes(src, tests) else "killed"].append(label)
            finally:
                path.write_text(text)
    for title, labels in outcome.items():
        print(f"{title} ({len(labels)}):")
        for label in labels:
            print("  " + label)
    print(f"wall time: {time.perf_counter() - start:.1f} s")
    return 1 if outcome["survivors"] or outcome["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
