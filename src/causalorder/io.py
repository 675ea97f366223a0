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


_FLAT = ("[", ", ", "]")


def _brackets(indent: int | None, level: int) -> tuple[str, str, str]:
    """How ``json.dumps`` frames a non-empty list at nesting ``level``:
    its opening, item separator and closing."""
    if indent is None:
        return _FLAT
    inner = "\n" + " " * (indent * (level + 1))
    return "[" + inner, "," + inner, "\n" + " " * (indent * level) + "]"


def _relation_json(rel: np.ndarray, rows=_FLAT, cells=_FLAT) -> str:
    """``json.dumps(rel.astype(int).tolist())`` of a square bool matrix,
    framed by the (opening, separator, closing) triples of the outer list
    and of each row.  One byte template per row, its digits raised by the
    relation, decoded once."""
    n = len(rel)
    if n == 0:
        return "[]"
    cell_open, cell_sep, cell_close = (s.encode() for s in cells)
    row_sep = rows[1].encode()
    line = cell_open + cell_sep.join([b"0"] * n) + cell_close + row_sep
    text = np.tile(np.frombuffer(line, np.uint8), (n, 1))
    step = 1 + len(cell_sep)
    text[:, len(cell_open):len(cell_open) + n * step:step] |= rel
    return rows[0] + text.ravel()[:-len(row_sep)].tobytes().decode("ascii") + rows[2]


def _causality_json(c: Causality, indent: int | None = None) -> str:
    """``json.dumps(causality_to_dict(c), indent=indent, sort_keys=True)``
    with the relation written by :func:`_relation_json`."""
    head = {"closure": "explicit", "points": list(c.points), "relation": 0}
    # "relation" sorts last, so the last "0" of the text is its value
    before, _, after = json.dumps(head, indent=indent, sort_keys=True).rpartition("0")
    rows, cells = _brackets(indent, 1), _brackets(indent, 2)
    return before + _relation_json(c.relation, rows, cells) + after


def _relation_matrix(rows) -> np.ndarray:
    """The relation of a file as a bool matrix.  Entries must be 0 or 1
    (JSON true and false count as 1 and 0); anything else raises
    ValueError naming the first bad entry, or the first row of a ragged
    matrix whose length differs from the number of rows."""
    n = len(rows) if type(rows) is list else 0
    if n and all(type(row) is list for row in rows):
        lengths = {len(row) for row in rows}
        if len(lengths) > 1:
            i = next(i for i, row in enumerate(rows) if len(row) != n)
            raise ValueError(f"relation row {i} has {len(rows[i])} entries, not {n}")
        if lengths == {n}:
            # bytes() takes ints 0-255 and bools only, one C pass per row;
            # anything it refuses is left to the checks below
            try:
                cells = np.frombuffer(b"".join(map(bytes, rows)), np.uint8)
            except (TypeError, ValueError):
                pass
            else:
                if (cells <= 1).all():
                    return cells.view(bool).reshape(n, n)
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
    fp.write(_causality_json(c, indent=1) + "\n")


def load_causality(fp: IO[str]) -> Causality:
    return causality_from_dict(json.load(fp))


def cover_relation(c: Causality) -> list[tuple[str, str]]:
    """The transitive reduction: pairs x < y with nothing strictly between."""
    strict = c.relation & ~np.eye(c.n, dtype=bool)
    cov = strict & ~_compose(strict, strict)
    # index an object array, so no Python int is made per pair
    rows, cols = np.nonzero(cov)
    points = np.array(c.points, dtype=object)
    return list(zip(points[rows].tolist(), points[cols].tolist()))


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
