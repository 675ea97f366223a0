"""Spans around the library's entry points, recorded from benchmark code.

:class:`Tracer` replaces each entry point named in :data:`ENTRY_POINTS`
by a wrapper, in every ``causalorder`` module namespace that holds it
(``from .x import f`` copies included), and restores the originals on
:meth:`Tracer.uninstall`.  A span is (name, start, end, parent, error);
spans stay in memory until the run writes them out.  Self time is a
span's duration minus the durations of its direct children, so a layer's
self time excludes the work it delegated to another traced entry point.

The per-layer metrics (:func:`layer_metrics`) are derived from the spans
plus the values the wrapped calls returned, and :data:`PREDICTIONS`
records which end-to-end metric each of them is expected to move.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute) of every wrapped entry point.  "Causality.__init__"
# is patched on the class.  Private names are wrapped only where a named
# metric has no public boundary: _class_table is the 2^n scan.
ENTRY_POINTS = [
    ("order", "validate_matrix"),
    ("order", "Causality.__init__"),
    ("order", "has_crossing_property"),
    ("minkowski", "sprinkle"),
    ("io", "load_causality"),
    ("io", "causality_from_dict"),
    ("io", "causality_to_dict"),
    ("io", "cover_relation"),
    ("algebra", "_class_table"),
    ("algebra", "family_masks"),
    ("algebra", "classify"),
    ("algebra", "causal_union"),
    ("algebra", "intersect_causal"),
    ("algebra", "verify_union_laws"),
    ("algebra", "verify_algebra_axioms"),
    ("measure", "verify_measure_axioms"),
    ("measure", "check_monotonicity"),
    ("reconstruction", "reconstruct_order"),
    ("reconstruction", "verify_reversal_theorem"),
    ("cli", "main"),
]

SPRINKLE, VERIFY, FAMILY = "sprinkle-export", "verify-batch", "family-queries"
ALL = (SPRINKLE, VERIFY, FAMILY)

# per-layer metric -> (unit, end-to-end metrics it should move, workloads
# where it should move them).  On the other workloads the prediction is
# no change.
PREDICTIONS = {
    "order.validate_s": ("s", ["wall_s"], [SPRINKLE]),
    "order.build_s": ("s", ["wall_s"], [SPRINKLE]),
    "order.points_validated": ("count", ["wall_s"], [SPRINKLE]),
    "order.crossing_s": ("s", ["wall_s"], [VERIFY]),
    "minkowski.sprinkle_s": ("s", ["wall_s"], [SPRINKLE]),
    "minkowski.events": ("count", ["wall_s"], [SPRINKLE]),
    "io.load_s": ("s", ["wall_s"], [SPRINKLE]),
    "io.dump_s": ("s", ["wall_s"], [SPRINKLE]),
    "io.cover_s": ("s", ["wall_s"], [SPRINKLE]),
    "io.bytes_read": ("B", ["wall_s"], [SPRINKLE]),
    "io.bytes_written": ("B", ["wall_s"], [SPRINKLE]),
    "algebra.class_table_s": ("s", ["wall_s"], [FAMILY, VERIFY]),
    "algebra.tables_built": ("count", ["wall_s"], [FAMILY, VERIFY]),
    "algebra.subsets_scanned": ("count", ["wall_s"], [FAMILY, VERIFY]),
    "algebra.family_sets": ("count", ["wall_s"], [FAMILY, VERIFY]),
    "algebra.family_yield": ("set/subset", ["wall_s"], [FAMILY, VERIFY]),
    "algebra.union_p50_us": ("us", ["query_p50_us", "query_p99_us", "peak_rss_mb"], [FAMILY]),
    "algebra.classify_p50_us": ("us", ["query_p50_us", "query_p99_us", "peak_rss_mb"], [FAMILY]),
    "algebra.intersect_p50_us": ("us", ["query_p50_us", "query_p99_us", "peak_rss_mb"], [FAMILY]),
    "algebra.union_undefined_share": ("share", ["query_p50_us", "query_p99_us", "peak_rss_mb"], [FAMILY]),
    "algebra.union_laws_s": ("s", ["wall_s"], [VERIFY]),
    "algebra.axioms_s": ("s", ["wall_s"], [VERIFY]),
    "algebra.laws_checked": ("count", ["wall_s"], [VERIFY]),
    "algebra.laws_skipped": ("count", ["wall_s"], [VERIFY]),
    "measure.axioms_s": ("s", ["wall_s"], [VERIFY]),
    "measure.monotonicity_s": ("s", ["wall_s"], [VERIFY]),
    "measure.pairs_checked": ("count", ["wall_s"], [VERIFY]),
    "reconstruction.reconstruct_s": ("s", ["wall_s"], [VERIFY]),
    "reconstruction.reversal_s": ("s", ["wall_s"], [VERIFY]),
    "reconstruction.ribbon_pairs": ("count", ["wall_s"], [VERIFY]),
    "reconstruction.domain_points": ("count", ["wall_s"], [VERIFY]),
    "cli.self_s": ("s", ["setup_s", "wall_s"], list(ALL)),
    "cli.jobs": ("count", ["setup_s", "wall_s"], list(ALL)),
    "trace.overhead_share": ("share", [], list(ALL)),
}

# self-time metric -> spans whose self time it sums
_SELF_TIMES = {
    "order.validate_s": ["order.validate_matrix"],
    "order.build_s": ["order.Causality.__init__"],
    "order.crossing_s": ["order.has_crossing_property"],
    "minkowski.sprinkle_s": ["minkowski.sprinkle"],
    "io.load_s": ["io.load_causality", "io.causality_from_dict"],
    "io.dump_s": ["io.causality_to_dict"],
    "io.cover_s": ["io.cover_relation"],
    "algebra.class_table_s": ["algebra._class_table", "algebra.family_masks"],
    "algebra.union_laws_s": ["algebra.verify_union_laws"],
    "algebra.axioms_s": ["algebra.verify_algebra_axioms"],
    "measure.axioms_s": ["measure.verify_measure_axioms"],
    "measure.monotonicity_s": ["measure.check_monotonicity"],
    "reconstruction.reconstruct_s": ["reconstruction.reconstruct_order"],
    "reconstruction.reversal_s": ["reconstruction.verify_reversal_theorem"],
    "cli.self_s": ["cli.main"],
}

_LATENCIES = {
    "algebra.union_p50_us": "algebra.causal_union",
    "algebra.classify_p50_us": "algebra.classify",
    "algebra.intersect_p50_us": "algebra.intersect_causal",
}

_UNDEFINED_UNION = ("NoCausalSuperset", "NotClosed")

# entry points whose return values the metrics read
_KEEP_RESULTS = {
    "minkowski.sprinkle", "algebra._class_table",
    "algebra.family_masks", "algebra.verify_union_laws",
    "algebra.verify_algebra_axioms", "measure.verify_measure_axioms",
    "measure.check_monotonicity", "reconstruction.reconstruct_order",
}


class Tracer:
    """Records spans for one pass; install before it, uninstall after.
    ``clock`` gives the span times; the benchmark's leaves out the time
    spent in its speed readings."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock  # nanoseconds
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, error]
        self.returned: dict[str, dict[int, object]] = defaultdict(dict)
        self.points_validated = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, returned = self.spans, self._stack, self.returned[name]
        clock = self.clock
        keep = name in _KEEP_RESULTS
        count_points = name == "order.validate_matrix"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if keep:  # distinct objects: a cached result counts once
                returned.setdefault(id(out), out)
            if count_points:
                self.points_validated += len(args[0])
            return out

        return traced

    def install(self, modules: dict) -> None:
        """``modules`` maps short names ("order", "cli", ...) to the
        imported ``causalorder`` submodules."""
        namespaces = [m for k, m in sys.modules.items()
                      if k == "causalorder" or k.startswith("causalorder.")]
        for mod_name, attr in ENTRY_POINTS:
            name = f"{mod_name}.{attr}"
            owner = modules.get(mod_name)
            if attr == "Causality.__init__":
                owner, attr = getattr(owner, "Causality", None), "__init__"
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(original, name)
            targets = [owner] if attr == "__init__" else [
                ns for ns in namespaces if getattr(ns, attr, None) is original
            ]
            for ns in targets:
                self._patches.append((ns, attr, original))
                setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += (end - start - inner) / 1e9
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: name, start and end (ns), parent index, error."""
        with open(path, "w") as fp:
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, io_bytes: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_share)."""
    selfs = tracer.self_times()
    out = {m: sum(selfs.get(s, 0.0) for s in names) for m, names in _SELF_TIMES.items()}

    by_name: dict[str, list] = defaultdict(list)
    for span in tracer.spans:
        by_name[span[0]].append(span)
    for metric, name in _LATENCIES.items():
        durs = [(s[2] - s[1]) / 1e3 for s in by_name[name]]
        out[metric] = statistics.median(durs) if durs else 0.0
    unions = by_name["algebra.causal_union"]
    undefined = sum(s[4] in _UNDEFINED_UNION for s in unions)
    out["algebra.union_undefined_share"] = undefined / len(unions) if unions else 0.0

    ret = tracer.returned
    tables = list(ret["algebra._class_table"].values())
    out["algebra.tables_built"] = len(tables)
    out["algebra.subsets_scanned"] = sum(len(t) for t in tables)
    out["algebra.family_sets"] = sum(len(f) for f in ret["algebra.family_masks"].values())
    scanned = out["algebra.subsets_scanned"]
    out["algebra.family_yield"] = out["algebra.family_sets"] / scanned if scanned else 0.0

    def results(*names):
        return [r for n in names for rep in ret[n].values() for r in rep.results]

    laws = results("algebra.verify_union_laws", "algebra.verify_algebra_axioms")
    out["algebra.laws_checked"] = sum(r.checked for r in laws)
    out["algebra.laws_skipped"] = sum(r.skipped for r in laws)
    out["measure.pairs_checked"] = sum(
        r.checked for r in results("measure.verify_measure_axioms", "measure.check_monotonicity"))

    recon = list(ret["reconstruction.reconstruct_order"].values())
    out["reconstruction.ribbon_pairs"] = sum(
        d["ribbon_pairs"] for rep in recon for d in rep.diagnostics.values())
    out["reconstruction.domain_points"] = sum(len(rep.domain) for rep in recon)

    out["order.points_validated"] = tracer.points_validated
    out["minkowski.events"] = sum(len(r.events) for r in ret["minkowski.sprinkle"].values())
    out["io.bytes_read"], out["io.bytes_written"] = io_bytes
    out["cli.jobs"] = len(by_name["cli.main"])
    return out
