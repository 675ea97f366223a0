"""The three workloads: seeded inputs, one timed pass, and its output checks.

Each workload has four steps:

``prepare``   benchmark-only work: make the inputs from the seed with the
              benchmark's own RNG and formulas, write them to files and
              compute the expected answers with :mod:`oracle`.
``setup``     library work done once before timing: load the inputs the
              timed pass does not load itself (part of ``setup_s``).
``run_pass``  the timed section: drive the public CLI (in-process, always
              with ``--output`` files) and the public API.
``check``     untimed: compare what the pass produced against the oracle.
              Returns one (label, problem) per failed operation.

An operation fails if it raises unexpectedly, returns a wrong exit code or
fails an output check.  Sizes come from a dict so that the self-test can
run every workload small.
"""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import time

import numpy as np

import oracle

SIZES = {
    "full": {
        "sprinkle_n": 1000, "load_n": 1000, "mc_samples": 1_000_000,
        "verify_grids": [(3, 4), (2, 6)], "verify_n": 12, "measure_grid": (3, 4),
        "reconstruct_n": 14, "reconstruct_inputs": 2,
        "query_grid": (4, 5), "query_n": 18, "queries": 50_000,
        # per spatial dimension: the bands, around the median, of the
        # measures (see MEASURES) that set the work of a seeded input
        "verify_band": {1: {"families": (90, 125)}, 3: {"families": (30, 42)}},
        "reconstruct_band": {1: {"ribbon_pairs": (1700, 2400), "complete": (2150, 3200)},
                             3: {"ribbon_pairs": (350, 550), "complete": (12500, 15000)}},
        "query_band": {1: {"families": (340, 460), "complete": (7800, 11300)}},
    },
    "tiny": {
        "sprinkle_n": 40, "load_n": 40, "mc_samples": 10_000,
        "verify_grids": [(2, 3)], "verify_n": 6, "measure_grid": (2, 3),
        "reconstruct_n": 6, "reconstruct_inputs": 1,
        "query_grid": (3, 3), "query_n": 8, "queries": 500,
        "verify_band": {}, "reconstruct_band": {}, "query_band": {},
    },
}

# family-queries stream mix, per causality.  The shares are those of the
# public calls the repository's own code makes: bench/consumer_mix.py
# counted 1 300 941 calls from demos/ and the tier-1 suite (bench/README.md).
UNION_SHARE = 0.9808  # 1 275 914 causal_union calls
INTERSECT_SHARE = 0.0185  # 24 105 intersect_causal calls; the rest (922) classify
REPEAT_SHARE = 0.9967  # unions that repeat a pair asked before (1 271 676)
NON_CAUSAL_SHARE = 0.46  # classify calls on a set that is no causal set (427)
QUERY_CHUNK = 2000  # queries timed between two reference-speed readings
KINDS = oracle.KINDS


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _write_causality(path: str, points, rel) -> None:
    """Causality JSON, written a row at a time."""
    with open(path, "w") as fp:
        fp.write('{"points": %s, "closure": "explicit", "relation": [' % json.dumps(list(points)))
        fp.write(", ".join(json.dumps(row.astype(int).tolist()) for row in np.asarray(rel)))
        fp.write("]}")


# Measures of a class table that set the work done on an input: the
# exhaustive scans cost up to the cube of a family size, reconstruction
# scales with the ribbon pairs, and the 2^n class-table scan tests every
# complete subset further, so its time follows their count (which varies
# sixfold between seeds with the same family sizes).
MEASURES = {
    "families": lambda t: (len(t.family("convergent")), len(t.family("divergent"))),
    "ribbon_pairs": lambda t: (sum(t.ribbon_pairs(p) for p in range(t.n)),),
    "complete": lambda t: (t.masks.size,),
}


def _sprinkled(seed: int, stream: int, n: int, dim: int, band=None):
    """Seeded sprinkle of n events in the unit box, as (ids, relation).

    With a ``band`` {measure: (lo, hi)} the events are redrawn until every
    value of each measure of :data:`MEASURES` lies in its band, so the work
    of a pass is nearly the same for every seed."""
    for attempt in range(10_000):
        events = oracle.uniform_events(_rng(seed, stream, attempt), n, dim)
        rel = oracle.minkowski_relation(events)
        if band is None or _in_band(oracle.ClassTable(rel), band):
            return [f"e{i}" for i in range(n)], rel
    raise RuntimeError(f"no sprinkle in the band {band} after 10000 draws")


def _in_band(table, band: dict) -> bool:
    return all(lo <= x <= hi for name, (lo, hi) in band.items() for x in MEASURES[name](table))


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# The machine's speed is read from two fixed kernels, a pure-Python loop
# and a small uint8 matrix product: at every operation boundary and, inside
# operations, every SAMPLE_S seconds from a SIGALRM handler (the readings'
# own time is taken off the operation, and off every span).  A shared
# 2-core machine switches between speed modes up to 40% apart, at times
# within a second.  Every time the benchmark reports is the measured time
# times the mean speed factor of the readings around and during it:
# seconds at the speed where both kernels take REF_S.  bench/sampling_check.py
# compares boundary readings alone with the in-operation samples.
REF_LOOPS = 10_000
REF_MATRIX = (np.random.default_rng(0).random((128, 128)) < 0.3).astype(np.uint8)
REF_S = (1.2e-3, 1.2e-3)
SAMPLE_S = 0.1
_reading_ns = 0  # time this process has spent in speed readings


def reference_reading() -> tuple[float, float]:
    """Times of the two reference kernels right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    t1 = time.perf_counter()
    REF_MATRIX @ REF_MATRIX
    return t1 - t0, time.perf_counter() - t1


def speed_factor(reading: tuple[float, float]) -> float:
    """Scales a time measured at this reading's speed to reference speed."""
    return math.sqrt(math.prod(ref / r for ref, r in zip(REF_S, reading)))


def read_speed() -> float:
    """Speed factor right now; its own time is kept off :func:`net_clock_ns`."""
    global _reading_ns
    t0 = time.perf_counter_ns()
    factor = speed_factor(reference_reading())
    _reading_ns += time.perf_counter_ns() - t0
    return factor


def net_clock_ns() -> int:
    """perf_counter_ns without the time spent in speed readings."""
    return time.perf_counter_ns() - _reading_ns


class Pass:
    """What one pass did: per-operation times, outputs awaiting checks,
    and the bytes its jobs read and wrote.  Times are at reference speed."""

    def __init__(self):
        self.attempted = 0
        self.latencies: list[float] = []  # per job or per query
        self.by_label: dict[str, float] = {}  # time of each checked operation
        self.outputs: list[tuple] = []
        self.wall = 0.0  # sum of operation times at reference speed
        self.seconds = 0.0  # the same, as measured
        self.bytes_read = 0
        self.bytes_written = 0
        self.factors = [read_speed()]

    def _read(self, *_signal) -> None:
        self.factors.append(read_speed())

    def measure(self, fn, *args):
        """Run ``fn(*args)`` while the speed is read every SAMPLE_S seconds;
        returns its output (or :class:`Raised`), the factor that scales its
        measured time to reference speed, and the measured time."""
        first = len(self.factors) - 1
        previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = net_clock_ns()
        try:
            out = fn(*args)
        except Exception as exc:
            out = Raised(f"raised {type(exc).__name__}: {exc}")
        finally:
            dt = (net_clock_ns() - t0) / 1e9
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self._read()
        factor = statistics.fmean(self.factors[first:])
        self.seconds += dt
        self.wall += dt * factor
        return out, factor, dt

    def op(self, label: str, expect, fn, *args):
        """One timed operation whose latency counts and whose output is checked."""
        out, factor, dt = self.measure(fn, *args)
        self.latencies.append(dt * factor)
        self.by_label[label] = dt * factor
        self.outputs.append((label, out, expect))
        self.attempted += 1
        return out

    def cli(self, cli, argv: list[str], label: str, expect,
            reads: tuple[str, ...] = (), writes: tuple[str, ...] = ()) -> None:
        self.op(label, expect, cli.main, argv)
        self.bytes_read += sum(map(_size, reads))
        self.bytes_written += sum(map(_size, writes))

    def failures(self, problem) -> list[tuple[str, str]]:
        """(label, problem) for each output that raised or that ``problem``
        rejects; ``problem(output, expect)`` returns None when it is right."""
        out = []
        for label, got, expect in self.outputs:
            if isinstance(got, Raised):
                out.append((label, got))
                continue
            try:
                why = problem(got, expect)
            except (LookupError, TypeError, ValueError, AttributeError, OSError) as exc:
                why = f"unreadable output: {type(exc).__name__}: {exc}"
            if why:
                out.append((label, why))
        return out


class Raised(str):
    """The output of an operation that raised."""


def _load(co, path: str):
    with open(path) as fp:
        return co.load_causality(fp)


def _export_dot(co, c, path: str) -> str:
    if isinstance(c, Raised):
        raise ValueError("nothing to export: the load failed")
    dot = co.to_dot(c)
    with open(path, "w") as fp:
        fp.write(dot)
    return dot


def _check_exit(rc, want: int) -> str | None:
    return None if rc == want else f"exit code {rc}, expected {want}"


# ---------------------------------------------------------------------------
# sprinkle-export
# ---------------------------------------------------------------------------


class SprinkleExport:
    """Large n: sprinkling, relation validation, row masks, JSON, DOT."""

    name = "sprinkle-export"

    def prepare(self, seed: int, size: dict, work: str) -> None:
        self.work, self.seed, self.size = work, seed, size
        self.loads = []
        for stream, dim in ((1, 1), (2, 3)):
            points, rel = _sprinkled(seed, stream, size["load_n"], dim)
            path = os.path.join(work, f"load{dim}.json")
            _write_causality(path, points, rel)
            self.loads.append((dim, path, points, rel, oracle.cover_pairs(points, rel)))
        self.rejected = os.path.join(work, "nontransitive258.json")
        _write_causality(self.rejected, *oracle.non_transitive_258())

    def setup(self, co, cli) -> None:
        """Nothing beyond the import: every input here is loaded by a timed job."""

    def run_pass(self, co, cli) -> Pass:
        ps, w, n = Pass(), self.work, str(self.size["sprinkle_n"])
        for dim, box in ((1, "0:1,0:1"), (3, "0:1,0:1,0:1,0:1")):
            out = os.path.join(w, f"sprinkle{dim}.json")
            ps.cli(cli, ["sprinkle", "--dim", str(dim), "--box", box, "--n", n,
                         "--seed", str(self.seed + dim), "--output", out],
                   f"cli sprinkle {dim}+1", ("sprinkle", out, dim), writes=(out,))
        for dim, path, points, rel, cover in self.loads:
            c = ps.op(f"load {dim}+1", ("load", points, rel), _load, co, path)
            ps.bytes_read += _size(path)
            if dim == 1:  # its cover diagram is a known defect: see known_defects
                continue
            dot_path = os.path.join(w, f"cover{dim}.dot")
            ps.op(f"to_dot {dim}+1", ("dot", points, cover), _export_dot, co, c, dot_path)
            ps.bytes_written += _size(dot_path)
        out = os.path.join(w, "entropy.json")
        ps.cli(cli, ["entropy", "--t", "1", "--mc-samples", str(self.size["mc_samples"]),
                     "--seed", str(self.seed), "--output", out],
               "cli entropy --mc-samples", ("entropy", out), writes=(out,))
        return ps

    def known_defects(self, co, cli) -> list[tuple[str, str | None]]:
        """The two jobs that fail at the commit that added the benchmark,
        run once per run, untimed and outside ``correct``: (label, problem),
        the problem None once the defect is fixed.  ``to_dot`` of the 1+1
        sprinkle returns spurious cover edges (``cover_relation`` counts
        paths in uint8), and the uint8 transitivity check accepts the
        n = 258 relation, so ``verify`` exits 3, not 2."""
        _, path, points, _, cover = self.loads[0]
        dot_path = os.path.join(self.work, "cover1.dot")
        out = os.path.join(self.work, "rejected.jsonl")
        jobs = [("to_dot 1+1", lambda: _export_dot(co, _load(co, path), dot_path),
                 ("dot", points, cover)),
                ("cli verify non-transitive n=258",
                 lambda: cli.main(["verify", "--input", self.rejected, "--output", out]),
                 ("exit", 2))]
        found = []
        for label, job, expect in jobs:
            try:
                found.append((label, self._problem(job(), expect)))
            except Exception as exc:
                found.append((label, f"raised {type(exc).__name__}: {exc}"))
        return found

    def check(self, ps: Pass) -> list[tuple[str, str]]:
        return ps.failures(self._problem)

    def _problem(self, got, expect) -> str | None:
        what = expect[0]
        if what == "exit":
            return _check_exit(got, expect[1])
        if what == "load":
            _, points, rel = expect
            if tuple(got.points) != tuple(points) or not np.array_equal(got.relation, rel):
                return "loaded causality differs from the input file"
            return None
        if what == "dot":
            _, points, cover = expect
            edges = oracle.dot_edges(got)
            if edges != cover:
                return (f"{len(edges)} cover edges, expected {len(cover)} "
                        f"({len(edges - cover)} spurious, {len(cover - edges)} missing)")
            return None
        if (bad := _check_exit(got, 0)) is not None:
            return bad
        with open(expect[1]) as fp:
            doc = json.load(fp)
        if what == "entropy":
            want = oracle.horizon_entropy(1.0, 1.0)
            if not math.isclose(doc["entropy"], want, rel_tol=1e-12):
                return f"entropy {doc['entropy']}, expected {want}"
            tol = oracle.mc_tolerance(self.size["mc_samples"])
            if abs(doc["mc_entropy"] / want - 1) > tol:
                return f"Monte-Carlo entropy {doc['mc_entropy']} is off {want} by > {tol:.1%}"
            return None
        dim = expect[2]
        events = np.asarray(doc["events"], dtype=float)
        rel = np.asarray(doc["causality"]["relation"], dtype=bool)
        del doc  # ~8 MB of lists at n = 1000; free it before the recomputation
        if events.shape != (self.size["sprinkle_n"], dim + 1):
            return f"events have shape {events.shape}"
        if ((events < 0) | (events > 1)).any():
            return "an event lies outside the box"
        if not np.array_equal(rel, oracle.minkowski_relation(events)):
            return "relation differs from the Minkowski order of the events"
        return oracle.order_defect(rel)


# ---------------------------------------------------------------------------
# verify-batch
# ---------------------------------------------------------------------------


class VerifyBatch:
    """Bulk algebra: union tables, laws I-VI, axioms, measures, reconstruction."""

    name = "verify-batch"

    def prepare(self, seed: int, size: dict, work: str) -> None:
        self.work = work
        inputs = [(f"grid{u}x{v}", *oracle.grid_relation(u, v)) for u, v in size["verify_grids"]]
        for stream, dim in ((1, 1), (2, 3)):
            inputs.append((f"sprinkle{dim}", *_sprinkled(
                seed, stream, size["verify_n"], dim, size["verify_band"].get(dim))))
        self.verify = []
        for label, points, rel in inputs:
            path = os.path.join(work, f"{label}.json")
            _write_causality(path, points, rel)
            self.verify.append((label, path, points, oracle.ClassTable(rel),
                                oracle.law_verdicts(rel)))

        u, v = size["measure_grid"]
        points, rel = oracle.grid_relation(u, v)
        self.measure_input = os.path.join(work, f"measure-grid{u}x{v}.json")
        _write_causality(self.measure_input, points, rel)
        self.measure_table = oracle.ClassTable(rel)
        self.measure_file = os.path.join(work, "constant-measure.json")
        with open(self.measure_file, "w") as fp:
            fam = self.measure_table.family("divergent")
            json.dump({"kind": "divergent", "entries": [
                {"set": [points[i] for i in range(len(points)) if m >> i & 1], "sigma": 1.0}
                for m in fam.tolist()]}, fp)

        self.reconstruct = []
        for i in range(size["reconstruct_inputs"]):
            for stream, dim in ((10 + 2 * i, 1), (11 + 2 * i, 3)):
                points, rel = _sprinkled(seed, stream, size["reconstruct_n"], dim,
                                         size["reconstruct_band"].get(dim))
                path = os.path.join(work, f"reconstruct{i}-{dim}.json")
                _write_causality(path, points, rel)
                self.reconstruct.append((f"{i}-{dim}", path, points, rel, oracle.ClassTable(rel)))

    def setup(self, co, cli) -> None:
        paths = [p for _, p, *_ in self.verify] + [p for _, p, *_ in self.reconstruct]
        for path in paths + [self.measure_input]:
            _load(co, path)

    def run_pass(self, co, cli) -> Pass:
        ps, w = Pass(), self.work
        for label, path, points, table, verdicts in self.verify:
            out = os.path.join(w, f"verify-{label}.jsonl")
            ps.cli(cli, ["verify", "--input", path, "--output", out], f"cli verify {label}",
                   ("verify", out, points, table, verdicts), reads=(path,), writes=(out,))
        out = os.path.join(w, "verify-measure.jsonl")
        ps.cli(cli, ["verify", "--input", self.measure_input, "--suite",
                     "measure-axioms,monotonicity", "--measure", self.measure_file,
                     "--output", out], "cli verify measure suites", ("measure", out),
               reads=(self.measure_input, self.measure_file), writes=(out,))
        for label, path, points, rel, table in self.reconstruct:
            out = os.path.join(w, f"reconstruct-{label}.json")
            ps.cli(cli, ["reconstruct", "--input", path, "--output", out],
                   f"cli reconstruct {label}", ("reconstruct", out, points, rel, table),
                   reads=(path,), writes=(out,))
        return ps

    def check(self, ps: Pass) -> list[tuple[str, str]]:
        return ps.failures(self._problem)

    def _problem(self, rc, expect) -> str | None:
        what, out = expect[0], expect[1]
        if not isinstance(rc, int) or rc not in (0, 2):
            return f"exit code {rc}"
        if what == "reconstruct":
            return _check_exit(rc, 0) or _reconstruction_problem(out, *expect[2:])
        with open(out) as fp:
            lines = [json.loads(line) for line in fp]
        summary, entries = lines[-1].get("summary"), lines[:-1]
        if summary is None:
            return "report has no summary line"
        if summary["all_hold"] != all(e["verdict"] != "fails" for e in entries):
            return "summary disagrees with the verdicts"
        if (bad := _check_exit(rc, 0 if summary["all_hold"] else 2)) is not None:
            return bad + " for the report's summary"
        if what == "measure":
            return _measure_problem(entries, self.measure_table)
        return _law_problem(entries, *expect[2:])


# exponent of the family size f that bounds the triples, pairs or sets a
# law can cover: the domain, which no scan may exceed
_LAW_DOMAIN = {"I": 2, "II": 1, "III": 3, "IV": 3, "V": 3, "VI": 2,
               "intersection-closure": 2, "causal-union-closure": 2}
_REQUIRED_LAWS = ["crossing-property"] + [
    f"{law}[{kind}]" for kind in KINDS for law in ("I", "II", "III", "IV", "V")]


def _law_problem(entries, points, table, verdicts) -> str | None:
    """Every verdict the oracle knows must match it; reported IV/V
    counterexamples must re-evaluate as failures; scan counts must stay
    within the law's domain.  The reversal suite's verdicts are not
    recomputed: the oracle has no ribbon regularity."""
    index = {p: i for i, p in enumerate(points)}

    def mask(ids):
        return sum(1 << index[p] for p in ids)

    reported = {e["law"] for e in entries}
    if missing := [law for law in _REQUIRED_LAWS if law not in reported]:
        return f"no verdict for {', '.join(missing)}"
    for e in entries:
        law, verdict = e["law"], e["verdict"]
        if law in verdicts and verdict != verdicts[law]:
            return f"{law} {verdict}, expected {verdicts[law]}"
        name, _, kind = law.rstrip("]").partition("[")
        if name in _LAW_DOMAIN:
            domain = len(table.family(kind)) ** _LAW_DOMAIN[name]
            if e["checked"] + e["skipped"] > domain:
                return f"{law} covers {e['checked'] + e['skipped']} cases of {domain}"
        if verdict == "fails" and name in ("IV", "V"):
            ce = e["counterexample"]
            if not oracle.distributivity_fails(table, name, kind, mask(ce["a"]),
                                               mask(ce["b"]), mask(ce["c"])):
                return f"{law} counterexample {ce} does not re-evaluate as a failure"
    return None


def _measure_problem(entries, table) -> str | None:
    """The constant measure satisfies every law.  family-pairs must cover
    its domain, the nested pairs of family sets; the other scan counts
    must stay within their domains."""
    fam = table.family("divergent")
    f, n = len(fam), table.n
    exact = {"family-pairs": int(((fam[:, None] & ~fam[None, :]) == 0).sum())}
    at_most = {"normalization": 1 + n + f, "super-multiplicativity": f * (f + 1) // 2,
               "inner-extension": 3 ** n, "outer-extension": 3 ** n}
    reported = {e["law"] for e in entries}
    if missing := sorted({"normalization", "super-multiplicativity", "family-pairs"} - reported):
        return f"no verdict for {', '.join(missing)}"
    for e in entries:
        law, covered = e["law"], e["checked"] + e["skipped"]
        if e["verdict"] != "holds":
            return f"{law} {e['verdict']} for the constant measure"
        if law in exact and e["checked"] != exact[law]:
            return f"{law} checked {e['checked']}, expected {exact[law]}"
        if law in at_most and covered > at_most[law]:
            return f"{law} covers {covered} cases of {at_most[law]}"
    return None


def _reconstruction_problem(out, points, rel, table) -> str | None:
    with open(out) as fp:
        doc = json.load(fp)
    diag = doc["diagnostics"]
    if sorted(diag) != sorted(points):
        return "diagnostics do not cover the points"
    for i, p in enumerate(points):
        if diag[p]["ribbon_pairs"] != (want := table.ribbon_pairs(i)):
            return f"{diag[p]['ribbon_pairs']} ribbon pairs over {p}, expected {want}"
    idx = [points.index(p) for p in doc["domain"]]
    ref = rel[np.ix_(idx, idx)].astype(int).tolist()
    if doc["agreement"]["reference"] != ref:
        return "reference relation differs from the input"
    if doc["agreement"]["diffs"] != [] or doc["relation"] != ref:
        return "reconstructed relation differs from the input on the domain"
    return None


# ---------------------------------------------------------------------------
# family-queries
# ---------------------------------------------------------------------------


class FamilyQueries:
    """Point queries on the set algebra, after a 2^n family enumeration."""

    name = "family-queries"

    def prepare(self, seed: int, size: dict, work: str) -> None:
        u, v = size["query_grid"]
        inputs = [(f"grid{u}x{v}", *oracle.grid_relation(u, v)),
                  ("sprinkle1", *_sprinkled(seed, 1, size["query_n"], 1,
                                            size["query_band"].get(1)))]
        self.inputs = []
        for stream, (label, points, rel) in enumerate(inputs, start=2):
            path = os.path.join(work, f"{label}.json")
            _write_causality(path, points, rel)
            table = oracle.ClassTable(rel)
            ops = _query_stream(_rng(seed, stream), table, size["queries"])
            self.inputs.append((label, path, table, ops, {}))

    def setup(self, co, cli) -> None:
        for _, path, *_ in self.inputs:
            _load(co, path)

    def run_pass(self, co, cli) -> Pass:
        """Each chunk of queries is checked as soon as it is timed, so no
        pass holds more than one chunk of answers."""
        ps = Pass()
        ps.query_failures = []
        ps.latencies = np.empty(sum(len(ops) for _, _, _, ops, _ in self.inputs))
        kinds = [co.Kind(k) for k in KINDS]
        done = 0
        for label, path, table, ops, unions in self.inputs:
            ps.bytes_read += _size(path)
            loaded, factor, dt = ps.measure(_load_and_enumerate, co, path, kinds)
            ps.by_label[f"{label} load and enumerate"] = dt * factor
            c, families = (None, [loaded] * len(kinds)) if isinstance(loaded, Raised) else loaded
            for kind, got in zip(KINDS, families):
                ps.outputs.append((f"{label} enumerate {kind}", got, table.family(kind).tolist()))
            for at in range(0, len(ops), QUERY_CHUNK):
                chunk = ops[at:at + QUERY_CHUNK].tolist()
                lat = []
                out, factor, _ = ps.measure(_run_queries, co, c, kinds, chunk, lat)
                results = [("raised", out)] * len(chunk) if isinstance(out, Raised) else out
                ps.latencies[done:done + len(lat)] = lat
                ps.latencies[done:done + len(lat)] *= factor
                done += len(lat)
                ps.query_failures += [
                    (f"{label} queries: {op}", why)
                    for op, why in _query_problems(results, table, chunk, at, unions)]
            ps.attempted += len(kinds) + len(ops)
        ps.latencies = ps.latencies[:done]
        return ps

    def check(self, ps: Pass) -> list[tuple[str, str]]:
        failures = list(ps.query_failures)
        for label, got, expect in ps.outputs:
            if isinstance(got, Raised):
                failures.append((label, got))
            elif got != expect:
                failures.append((label, f"{len(got)} sets, expected {len(expect)}"))
        return failures


def _load_and_enumerate(co, path: str, kinds):
    c = _load(co, path)
    return c, [[s.mask for s in co.enumerate_causal_sets(c, k)] for k in kinds]


def _query_stream(rng: np.random.Generator, table, count: int) -> np.ndarray:
    """(op, a, b, kind index) rows, op 0 union, 1 classify, 2 intersect;
    a and b are masks.  A repeated union draws a pair already drawn."""
    fams = [table.family(k).tolist() for k in KINDS]
    full = (1 << table.n) - 1
    ops = np.zeros((count, 4), dtype=np.int64)
    used = []
    for at in range(0, count, QUERY_CHUNK):  # a chunk at a time, to keep its lists small
        m = min(QUERY_CHUNK, count - at)
        draw, picks = rng.random((m, 4)).tolist(), rng.integers(0, 1 << 62, size=(m, 2)).tolist()
        rows = []
        for (r_op, r_rep, r_kind, r_fam), (p, q) in zip(draw, picks):
            k = int(r_kind * 2)
            fam = fams[k]
            if r_op < UNION_SHARE:
                if used and r_rep < REPEAT_SHARE:
                    rows.append(used[p % len(used)])
                else:
                    rows.append((0, fam[p % len(fam)], fam[q % len(fam)], k))
                    used.append(rows[-1])
            elif r_op < UNION_SHARE + INTERSECT_SHARE:
                rows.append((2, fam[p % len(fam)], fam[q % len(fam)], k))
            else:
                rows.append((1, p & full if r_fam < NON_CAUSAL_SHARE else fam[p % len(fam)], 0, k))
        ops[at:at + m] = rows
    return ops


def _run_queries(co, c, kinds, chunk, latencies: list[float]) -> list:
    point_set, union = co.PointSet, co.causal_union
    classify, intersect = co.classify, co.intersect_causal
    undefined = (co.NoCausalSuperset, co.NotClosed)
    clock = time.perf_counter
    results = []
    for op, a, b, k in chunk:
        t0 = clock()
        try:
            if op == 0:
                out = union(c, point_set(c, a), point_set(c, b), kinds[k]).mask
            elif op == 1:
                out = classify(c, point_set(c, a)).value
            else:
                inter, cls = intersect(c, point_set(c, a), point_set(c, b))
                out = (inter.mask, cls.value)
        except undefined as exc:
            out = (type(exc).__name__, getattr(exc, "intersection_mask", 0))
        except Exception as exc:  # counted as a failed operation
            out = ("raised", f"{type(exc).__name__}: {exc}")
        latencies.append(clock() - t0)
        results.append(out)
    return results


_UNION_STATUS = {"no_superset": "NoCausalSuperset", "not_closed": "NotClosed"}


def _query_problems(results, table, chunk, first: int, unions: dict):
    """(operation, problem) for every wrong answer of one chunk.  ``unions``
    memoizes the oracle's union of each distinct pair."""
    for i, ((op, a, b, k), got) in enumerate(zip(chunk, results), start=first):
        if isinstance(got, tuple) and got[0] == "raised":
            yield f"op {i}", got[1]
        elif op == 1 and got != (want := table.code(a)):
            yield f"classify op {i}", f"class {got}, expected {want}"
        elif op == 2 and got != (want := (a & b, table.code(a & b))):
            yield f"intersect op {i}", f"{got}, expected {want}"
        elif op == 0:
            if (a, b, k) not in unions:
                status, mask = table.union(a, b, KINDS[k])
                unions[a, b, k] = mask if status == "ok" else (
                    _UNION_STATUS[status], mask if status == "not_closed" else 0)
            if got != (want := unions[a, b, k]):
                yield f"union op {i}", f"{got}, expected {want}"


WORKLOADS = {w.name: w for w in (SprinkleExport, VerifyBatch, FamilyQueries)}
