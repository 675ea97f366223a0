"""Count the public point queries that the repository's own code makes.

    python3 bench/consumer_mix.py

Run from the repository root (needs pytest).  It wraps
``causal_union``, ``classify`` and ``intersect_causal`` and counts the
calls made directly from the demos (``demos/*.py``) and from the tier-1
suite (``tests/``), then prints, per consumer and in total:

* the calls of each function;
* the share of ``causal_union`` calls that repeat a pair already asked of
  the same causality with the same kind (a cache hit in the library);
* the share of ``causal_union`` calls that raise NoCausalSuperset or
  NotClosed;
* the share of ``classify`` calls on a set that is no causal set.

The family-queries stream mix in ``workloads.py`` is taken from its total.
Calls the library makes to itself are not counted.
"""

from __future__ import annotations

import glob
import io
import os
import runpy
import sys
from collections import Counter
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import causalorder as co  # noqa: E402
import causalorder.algebra as algebra  # noqa: E402

CONSUMERS = {os.path.join(ROOT, "demos"): "demos", os.path.join(ROOT, "tests"): "tier-1"}
counts: dict[str, Counter] = {name: Counter() for name in CONSUMERS.values()}
_seen: dict[int, set] = {}
_alive: list = []  # keeps every causality alive, so no id() is reused


def _consumer() -> str | None:
    caller = sys._getframe(2).f_code.co_filename
    return next((name for path, name in CONSUMERS.items() if caller.startswith(path)), None)


def _wrap(name: str, fn):
    def wrapper(c, *args, **kwargs):
        who = _consumer()
        if who is None:
            return fn(c, *args, **kwargs)
        tally = counts[who]
        tally[name] += 1
        if name == "causal_union":
            a, b = args[0].mask, args[1].mask
            kind = args[2] if len(args) > 2 else kwargs.get("kind")
            key = (min(a, b), max(a, b), kind)
            if id(c) not in _seen:
                _seen[id(c)] = set()
                _alive.append(c)
            tally["union repeats"] += key in _seen[id(c)]
            _seen[id(c)].add(key)
        try:
            out = fn(c, *args, **kwargs)
        except (co.NoCausalSuperset, co.NotClosed):
            tally[f"{name} undefined"] += 1
            raise
        if name == "classify":
            tally["classify non-causal"] += out is co.SetClass.NEITHER
        return out
    return wrapper


def main() -> int:
    import pytest

    for name in ("causal_union", "classify", "intersect_causal"):
        wrapped = _wrap(name, getattr(algebra, name))
        setattr(algebra, name, wrapped)
        setattr(co, name, wrapped)
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        with redirect_stdout(io.StringIO()):
            runpy.run_path(path, run_name="__main__")
    with redirect_stdout(io.StringIO()):
        pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])

    counts["total"] = sum(counts.values(), Counter())
    for who, t in counts.items():
        calls = t["causal_union"] + t["classify"] + t["intersect_causal"]
        print(f"{who}: {calls} calls")
        for name in ("causal_union", "classify", "intersect_causal"):
            print(f"  {name}: {t[name]} ({t[name] / max(calls, 1):.6f} of calls)")
        unions = max(t["causal_union"], 1)
        print(f"  union repeats: {t['union repeats']} ({t['union repeats'] / unions:.6f})")
        print(f"  union undefined: {t['causal_union undefined']}"
              f" ({t['causal_union undefined'] / unions:.6f})")
        print(f"  classify non-causal: {t['classify non-causal']}"
              f" ({t['classify non-causal'] / max(t['classify'], 1):.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
