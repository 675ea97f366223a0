"""Serialization: causality JSON files and DOT export of cover diagrams.

Causality JSON format::

    {"points": ["a", "b", ...],
     "relation": [[1, 0, ...], ...],
     "closure": "explicit" | "cover"}

With ``"closure": "cover"`` the matrix holds only the cover (Hasse)
relation and the loader computes the reflexive-transitive closure.
:func:`load_causality` reads a relation framed as this module writes it
(flat, or with ``indent=1``) at fixed strides, and any other text with
``json.loads``; the result is the same either way.
"""

from __future__ import annotations

import json
import re
from typing import IO

import numpy as np

from .order import Causality, _bool_matrix, _closure, _cover_of, _stored, validate_causality

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


def _relation_bytes(rel: np.ndarray, rows=_FLAT, cells=_FLAT) -> bytearray:
    """``json.dumps(rel.astype(int).tolist())`` of a square bool matrix, as
    ASCII bytes, framed by the (opening, separator, closing) triples of the
    outer list and of each row.  Written into one buffer: every row as the
    text of a zero row, its digits then raised by the relation."""
    n = len(rel)
    if n == 0:
        return bytearray(b"[]")
    (row_open, row_sep, row_close), (cell_open, cell_sep, cell_close) = (
        [s.encode() for s in t] for t in (rows, cells))
    line = cell_open + cell_sep.join([b"0"] * n) + cell_close
    head, stride = len(row_open), len(line) + len(row_sep)
    out = bytearray(head + n * stride - len(row_sep) + len(row_close))
    out[:head], out[len(out) - len(row_close):] = row_open, row_close
    np.ndarray((n, len(line)), np.uint8, out, head, (stride, 1))[...] = memoryview(line)
    np.ndarray((n - 1, len(row_sep)), np.uint8, out, head + len(line), (stride, 1))[...] = memoryview(row_sep)
    np.ndarray((n, n), np.uint8, out, head + len(cell_open), (stride, 1 + len(cell_sep)))[...] |= rel
    return out


def _causality_json(c: Causality, indent: int | None = None) -> list[str]:
    """``json.dumps(causality_to_dict(c), indent=indent, sort_keys=True)`` in
    three pieces: the text before the relation, the relation as
    :func:`_relation_bytes` writes it, and the text after it.  Written in
    turn, they need no joined copy of the relation."""
    head = {"closure": "explicit", "points": list(c.points), "relation": 0}
    # "relation" sorts last, so the last "0" of the text is its value
    before, _, after = json.dumps(head, indent=indent, sort_keys=True).rpartition("0")
    rows, cells = _brackets(indent, 1), _brackets(indent, 2)
    return [before, _relation_bytes(c.relation, rows, cells).decode("ascii"), after]


def _relation_matrix(rows) -> np.ndarray:
    """The relation of a file as an array of numbers or JSON values, for
    order._bool_matrix, which states the 0/1 rule (JSON true and false
    count as 1 and 0).  Raises ValueError naming the first row of a
    ragged matrix whose length differs from the number of rows, or the
    first string entry of a matrix of mixed JSON values (numpy would read
    its numbers as text)."""
    n = len(rows) if type(rows) is list else 0
    if n and all(type(row) is list for row in rows) and len({len(row) for row in rows}) > 1:
        i = next(i for i, row in enumerate(rows) if len(row) != n)
        raise ValueError(f"relation row {i} has {len(rows[i])} entries, not {n}")
    rel = np.asarray(rows)
    if rel.dtype.kind in "biuf" or rel.dtype.kind == "O" and rel.ndim == 2:
        return rel
    if rel.ndim == 2:
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if isinstance(v, str):
                    raise ValueError(f"relation entry ({i}, {j}) is {v!r}, not 0 or 1")
    raise ValueError("relation must be a matrix of 0 and 1 entries")


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "number", float: "number", type(None): "null"}


def _json_type(value) -> str:
    """The JSON name of a parsed value's type, for error messages."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def causality_from_dict(data: dict) -> Causality:
    if not isinstance(data, dict):
        raise ValueError(f"causality document must be an object, got {_json_type(data)}")
    for key in ("points", "relation"):
        if key not in data:
            raise ValueError(f'causality document has no "{key}"')
    if not isinstance(data["points"], list):
        raise ValueError(f'"points" must be an array, got {_json_type(data["points"])}')
    points = [str(p) for p in data["points"]]
    rel = _relation_matrix(data["relation"])
    if not points and not rel.size:  # [] is the 0 x 0 matrix
        rel = rel.reshape(0, 0)
    mode = data.get("closure", "explicit")
    if mode == "cover":
        rel = _closure(_bool_matrix(rel))
    elif mode != "explicit":
        raise ValueError(f"unknown closure mode {mode!r}")
    return validate_causality(points, rel)


def dump_causality(c: Causality, fp: IO[str]) -> None:
    fp.writelines([*_causality_json(c, indent=1), "\n"])


def _words(pattern: str) -> list[tuple[int, np.dtype, int]]:
    """``pattern``'s bytes as little-endian ints of the widest width w <=
    its length in 1, 2, 4 and 8 bytes: (offset, dtype, value) for every w
    bytes, the last ending where the pattern ends."""
    raw = pattern.encode()
    w = 1 << min(3, len(raw).bit_length() - 1)
    return [(at, np.dtype(f"<u{w}"), int.from_bytes(raw[at:at + w], "little"))
            for at in sorted({*range(0, len(raw) - w, w), len(raw) - w})]


# The relation framings the library writes: flat (CLI sprinkle, and
# json.dumps of causality_to_dict) and indent=1 (dump_causality); each
# with the words of its cell separator.
_FRAMINGS = [(rows, cells, _words(cells[1])) for rows, cells in (
    (_brackets(None, 1), _brackets(None, 2)), (_brackets(1, 1), _brackets(1, 2)))]
_RELATION_KEY = '"relation": '
_HOLE = object()  # what the placeholder of the relation parses to


def _framed_relation(text: str) -> tuple[int, int, np.ndarray] | None:
    """``(start, end, rel)`` when the first ``"relation": [`` of ``text``
    opens a framing of :data:`_FRAMINGS`, and ``text[start:end]``, its
    value, is exactly what :func:`_relation_bytes` writes for ``rel`` in
    it.  Inside a JSON string every ``"`` is escaped, so ``relation"``
    ends a key.  The writer's texts are ASCII (``json.dumps`` escapes the
    rest), so the text is read as its ASCII bytes.

    It is checked in place, on strided views of those bytes (ndarray
    checks that each lies inside them): the digits, the words of every
    cell separator, the joints from each row's last digit to the next
    row's first, and the close of the last row."""
    at = text.find(_RELATION_KEY + "[") if text.isascii() else -1
    start = at + len(_RELATION_KEY)
    for rows, cells, words in _FRAMINGS:
        if at >= 0 and text.startswith(rows[0] + cells[0], start):
            break
    else:
        return None
    (row_open, row_sep, row_close), (cell_open, cell_sep, cell_close) = rows, cells
    first = start + len(row_open)  # where the first row opens
    row_len = text.find(cell_close, first) + len(cell_close) - first
    step = 1 + len(cell_sep)  # from one digit to the next
    n, extra = divmod(row_len - len(cell_open) - len(cell_close) + len(cell_sep), step)
    stride = row_len + len(row_sep)  # from one row to the next
    end = first + n * stride - len(row_sep) + len(row_close)
    if n < 1 or extra or end > len(text) or not text.endswith(cell_close + row_close, start, end):
        return None
    raw = text.encode()
    at = first + len(cell_open)  # the first digit
    digits = np.ndarray((n, n), np.uint8, raw, at, (stride, step)) ^ ord("0")
    if digits.max() > 1:
        return None
    for offset, dtype, value in words:
        if (np.ndarray((n, n - 1), dtype, raw, at + 1 + offset, (stride, step)) != value).any():
            return None
    joint = cell_close + row_sep + cell_open
    joints = np.ndarray((n - 1, len(joint)), np.uint8, raw, at + n * step - len(cell_sep), (stride, 1))
    if joints.tobytes() != joint.encode() * (n - 1):
        return None
    return start, end, digits.view(bool)


def _fast_document(text) -> dict | None:
    """The document ``json.loads(text)`` gives, with its relation as a bool
    matrix, when the relation is framed as the library writes it; else
    None.  The text outside the relation is parsed with a ``NaN`` in its
    place: the document must hold no other NaN or Infinity token, and that
    one must be the value of its top-level ``"relation"``, the one
    ``json.loads`` keeps when the key is repeated."""
    found = _framed_relation(text) if isinstance(text, str) else None
    if found is None:
        return None
    start, end, rel = found
    constants = []
    try:
        doc = json.loads(text[:start] + "NaN" + text[end:],
                         parse_constant=lambda token: constants.append(token) or _HOLE)
    except ValueError:
        return None
    if constants == ["NaN"] and isinstance(doc, dict) and doc.get("relation") is _HOLE:
        doc["relation"] = rel
        return doc
    return None


def load_causality(fp: IO[str]) -> Causality:
    """Read a causality document.  A relation framed as the library writes
    it is read at fixed strides; any other text goes to ``json.loads``.
    Either way the result, or the exception, is that of
    ``causality_from_dict(json.load(fp))``."""
    text = fp.read()
    doc = _fast_document(text)
    return causality_from_dict(json.loads(text) if doc is None else doc)


def cover_relation(c: Causality) -> list[tuple[str, str]]:
    """The transitive reduction: pairs x < y with nothing strictly between,
    in row-major order, read off the packed cover the causality keeps,
    which a certified sprinkle makes on this first read.  Only its nonzero
    bytes are unpacked; with little bit order, bit k of byte j in row i is
    column 8j + k."""
    bits = _stored(c, "cover", _cover_of)
    rows, byte = np.nonzero(bits)
    cell, bit = np.nonzero(np.unpackbits(bits[rows, byte][:, None], axis=1, bitorder="little"))
    rows, cols = rows[cell], byte[cell] * 8 + bit
    # index an object array, so no Python int is made per pair
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
