"""Serialization: causality JSON files and DOT export of cover diagrams.

Causality JSON format::

    {"points": ["a", "b", ...],
     "relation": [[1, 0, ...], ...],
     "closure": "explicit" | "cover"}

With ``"closure": "cover"`` the matrix holds only the cover (Hasse)
relation and the loader computes the reflexive-transitive closure.
"""

from __future__ import annotations

import json
import re
from typing import IO

import numpy as np

from .order import Causality, _closure, _compose, validate_causality

__all__ = [
    "causality_to_dict",
    "causality_from_dict",
    "dump_causality",
    "load_causality",
    "cover_relation",
    "to_dot",
]


def causality_to_dict(c: Causality) -> dict:
    return {
        "points": list(c.points),
        "relation": c.relation.astype(int).tolist(),
        "closure": "explicit",
    }


def _relation_matrix(rows) -> np.ndarray:
    """The relation of a file as a bool matrix.  Entries must be 0 or 1
    (JSON true and false count as 1 and 0); anything else raises
    ValueError naming the first bad entry."""
    rel = np.asarray(rows)
    if rel.dtype.kind in "biuf" and ((rel == 0) | (rel == 1)).all():
        return rel.astype(bool)
    if rel.ndim == 2:
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not isinstance(v, (int, float)) or v not in (0, 1):
                    raise ValueError(f"relation entry ({i}, {j}) is {v!r}, not 0 or 1")
    raise ValueError("relation must be a matrix of 0 and 1 entries")


def causality_from_dict(data: dict) -> Causality:
    points = [str(p) for p in data["points"]]
    rel = _relation_matrix(data["relation"])
    if not points:
        rel = rel.reshape(0, 0)
    mode = data.get("closure", "explicit")
    if mode == "cover":
        n = len(points)
        if rel.shape != (n, n):
            raise ValueError("cover matrix must be square over the points")
        rel = _closure(rel)
    elif mode != "explicit":
        raise ValueError(f"unknown closure mode {mode!r}")
    return validate_causality(points, rel)


def dump_causality(c: Causality, fp: IO[str]) -> None:
    json.dump(causality_to_dict(c), fp, indent=1, sort_keys=True)
    fp.write("\n")


def load_causality(fp: IO[str]) -> Causality:
    return causality_from_dict(json.load(fp))


def cover_relation(c: Causality) -> list[tuple[str, str]]:
    """The transitive reduction: pairs x < y with nothing strictly between."""
    strict = c.relation & ~np.eye(c.n, dtype=bool)
    cov = strict & ~_compose(strict, strict)
    return [
        (c.points[i], c.points[j]) for i, j in np.argwhere(cov)
    ]


_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def to_dot(c: Causality, name: str = "causality") -> str:
    """DOT digraph of the cover diagram, edges pointing up the order.

    ``name`` must be a DOT identifier (letters, digits and underscores,
    not starting with a digit, not a DOT keyword).  Point ids are quoted
    with each ``"`` escaped; an id ending in a backslash is rejected,
    because DOT has no escape that can end a quoted string after one.
    """
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name.lower() in _DOT_KEYWORDS:
        raise ValueError(f"graph name {name!r} is not a DOT identifier")
    for p in c.points:
        if p.endswith("\\"):
            raise ValueError(f"point id {p!r} ends in a backslash, which DOT cannot quote")
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    quoted = {p: '"' + p.replace('"', '\\"') + '"' for p in c.points}
    for p in c.points:
        lines.append(f"  {quoted[p]};")
    for a, b in cover_relation(c):
        lines.append(f"  {quoted[a]} -> {quoted[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
