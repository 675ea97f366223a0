"""Command-line front end for reproducible batch runs.

Four subcommands: ``sprinkle`` generates finite causalities from flat
spacetime, ``verify`` runs the law suites over a causality file,
``reconstruct`` rebuilds the order from the set algebra and diffs it
against the input, and ``entropy`` evaluates truncated-cone horizon
entropy (optionally with the Monte-Carlo cross-check).

Exit codes: 0 success, 1 usage error, 2 verification failure or invalid
input relation, 3 size-cap violation.  All randomness flows from the
explicit ``--seed``; identical configurations produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from typing import ContextManager, IO

from . import config
from .algebra import verify_algebra_axioms, verify_union_laws
from .errors import (
    CausalOrderError,
    GroundSetTooLarge,
    InvalidRelation,
    MissingValue,
)
from .io import _causality_json, causality_from_dict
from .measure import CausalMeasure, check_monotonicity, verify_measure_axioms
from .minkowski import (
    ConeKind,
    ConeSetDescriptor,
    SprinkleConfig,
    SprinkleMode,
    bekenstein_hawking_alpha,
    horizon_entropy,
    monte_carlo_cross_section,
    sprinkle,
)
from .order import has_crossing_property
from .reconstruction import reconstruct_order, verify_reversal_theorem

DEFAULT_SUITES = ("crossing", "union-laws", "algebra-axioms", "reversal")
ALL_SUITES = DEFAULT_SUITES + ("measure-axioms", "monotonicity")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="causalorder", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sprinkle", help="generate a causality from flat spacetime")
    p.add_argument("--dim", type=int, default=1, help="spatial dimension (1 or 3)")
    p.add_argument(
        "--box",
        default="0:1,0:1",
        help="comma-separated lo:hi per axis; light-cone axes in lattice mode",
    )
    p.add_argument("--n", type=int, default=0, help="number of events (uniform mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["uniform", "lattice"], default="uniform")
    p.add_argument("--output", default="-")

    p = sub.add_parser("verify", help="run law suites over a causality file")
    p.add_argument("--input", required=True)
    p.add_argument("--suite", default=",".join(DEFAULT_SUITES),
                   help="comma-separated: " + ",".join(ALL_SUITES))
    p.add_argument("--measure", help="measure JSON for the measure suites")
    p.add_argument("--max-n", type=int, default=config.LAW_SCAN_CAP,
                   help="refuse inputs larger than this")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--output", default="-")

    p = sub.add_parser("reconstruct", help="rebuild the order from the set algebra")
    p.add_argument("--input", required=True)
    p.add_argument("--max-n", type=int, default=config.RIBBON_CAP)
    p.add_argument("--output", default="-")

    p = sub.add_parser("entropy", help="horizon entropy of a truncated cone")
    p.add_argument("--t", type=float, required=True, help="time cut of the cone")
    p.add_argument("--apex", default=None,
                   help="comma-separated apex coordinates (default: 3+1 origin)")
    p.add_argument("--kind", choices=["future", "past"], default="future")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--kB", type=float, default=1.0)
    p.add_argument("--planck-length", type=float, default=1.0)
    p.add_argument("--bekenstein-hawking", action="store_true",
                   help="use alpha = kB / (4 lp^2) and report in symbolic units")
    p.add_argument("--mc-samples", type=int, default=0,
                   help="add a Monte-Carlo cross-check with this many samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="-")
    return parser


def _parse_box(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for axis in text.split(","):
        lo, _, hi = axis.partition(":")
        try:
            out.append((float(lo), float(hi)))
        except ValueError:
            raise _UsageError(f"bad box axis {axis!r}; expected lo:hi") from None
    return tuple(out)


def _open_out(path: str) -> ContextManager[IO[str]]:
    return nullcontext(sys.stdout) if path == "-" else open(path, "w")


def _write_out(path: str, text: str) -> None:
    # text is whole before the file opens, so a failed encoding leaves no file;
    # one-shot json.dumps runs the C encoder, json.dump the pure-Python one
    with _open_out(path) as fp:
        fp.write(text + "\n")


def _load_json(path: str) -> dict:
    with (nullcontext(sys.stdin) if path == "-" else open(path)) as fp:
        return json.load(fp)


def _cmd_sprinkle(args) -> int:
    cfg = SprinkleConfig(
        d=args.dim,
        box=_parse_box(args.box),
        n=args.n,
        seed=args.seed,
        mode=SprinkleMode(args.mode),
    )
    result = sprinkle(cfg)
    # json.dumps({"causality": ..., "events": ...}, sort_keys=True), with
    # the relation written in bulk rather than one list entry at a time
    events = json.dumps([list(e) for e in result.events], allow_nan=False)
    text = '{"causality": ' + _causality_json(result.causality) + ', "events": ' + events + "}"
    _write_out(args.output, text)
    return 0


def _cmd_verify(args) -> int:
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    unknown = set(suites) - set(ALL_SUITES)
    if unknown:
        raise _UsageError(f"unknown suites: {sorted(unknown)}")
    c = causality_from_dict(_load_json(args.input))
    if c.n > args.max_n:
        raise GroundSetTooLarge(c.n, args.max_n, "verify input")

    measure = None
    if any(s in suites for s in ("measure-axioms", "monotonicity")):
        if not args.measure:
            raise _UsageError("the measure suites need --measure")
        measure = CausalMeasure.from_dict(c, _load_json(args.measure))

    lines: list[dict] = []
    ok = True
    for name in suites:
        if name == "crossing":
            res = has_crossing_property(c)
            lines.append(
                {"suite": name, "law": "crossing-property",
                 "verdict": "holds" if res.holds else "fails",
                 "counterexample": None if res.holds else {"quadruple": res.witness}}
            )
            ok &= res.holds
            continue
        if name == "union-laws":
            report = verify_union_laws(c)
        elif name == "algebra-axioms":
            report = verify_algebra_axioms(c)
        elif name == "reversal":
            report = verify_reversal_theorem(c)
        elif name == "measure-axioms":
            report = verify_measure_axioms(c, measure, rtol=args.tolerance)
        else:
            report = check_monotonicity(c, measure)
        for r in report.results:
            entry = r.to_dict()
            entry["suite"] = name
            lines.append(entry)
        ok &= report.all_hold

    with _open_out(args.output) as fp:
        for entry in lines:
            entry["counterexample"] = _spelled_out(entry["counterexample"])
            fp.write(json.dumps(entry, sort_keys=True, allow_nan=False) + "\n")
        fp.write(json.dumps({"summary": {"all_hold": ok}}, sort_keys=True) + "\n")
    return 0 if ok else 2


def _spelled_out(value):
    """``value`` with each non-finite float written as the string "inf",
    "-inf" or "nan", as measure files spell them, so the JSON is strict."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _spelled_out(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spelled_out(v) for v in value]
    return value


def _cmd_reconstruct(args) -> int:
    c = causality_from_dict(_load_json(args.input))
    if c.n > args.max_n:
        raise GroundSetTooLarge(c.n, args.max_n, "reconstruction input")
    report = reconstruct_order(c)
    _write_out(args.output, report.to_json(indent=1))
    return 0


def _cmd_entropy(args) -> int:
    apex = (
        tuple(float(v) for v in args.apex.split(","))
        if args.apex
        else (0.0, 0.0, 0.0, 0.0)
    )
    kind = ConeKind.FUTURE_CONE if args.kind == "future" else ConeKind.PAST_CONE
    desc = ConeSetDescriptor(kind, apex, cut=args.t)
    alpha = (
        bekenstein_hawking_alpha(args.kB, args.planck_length)
        if args.bekenstein_hawking
        else args.alpha
    )
    doc = {"kind": args.kind, "apex": list(apex), "cut": args.t, "alpha": alpha}
    doc["entropy"] = horizon_entropy(desc, alpha)
    if args.bekenstein_hawking:
        # S = kB * pi * t^2 / lp^2: report the dimensionless coefficient
        span = abs(args.t - apex[0])
        doc["entropy_in_kB_over_lp2"] = math.pi * span * span
    if args.mc_samples:
        area = monte_carlo_cross_section(desc, args.t, args.mc_samples, args.seed)
        doc["mc_cross_section_area"] = area
        doc["mc_entropy"] = alpha * area
    _write_out(args.output, json.dumps(doc, sort_keys=True, allow_nan=False))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "sprinkle": _cmd_sprinkle,
            "verify": _cmd_verify,
            "reconstruct": _cmd_reconstruct,
            "entropy": _cmd_entropy,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 1
    except GroundSetTooLarge as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InvalidRelation as exc:
        print(f"invalid causality: {exc} (witness {exc.witness})", file=sys.stderr)
        return 2
    except (MissingValue, CausalOrderError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
