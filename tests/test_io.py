"""Causality JSON files and DOT export."""

from __future__ import annotations

import copy
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import causalorder as co
from causalorder.io import _fast_document, _framed_relation, _relation_bytes

from conftest import MALFORMED_CAUSALITY, random_poset


def test_json_roundtrip_explicit(l33):
    buf = io.StringIO()
    co.dump_causality(l33, buf)
    buf.seek(0)
    back = co.load_causality(buf)
    assert back.points == l33.points
    assert np.array_equal(back.relation, l33.relation)


def test_cover_closure(chain3):
    doc = {
        "points": ["a", "b", "c"],
        "relation": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        "closure": "cover",
    }
    c = co.causality_from_dict(doc)
    assert np.array_equal(c.relation, chain3.relation)


def test_cover_closure_diamond(d4):
    doc = {
        "points": ["p", "q", "r", "s"],
        "relation": [
            [0, 1, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ],
        "closure": "cover",
    }
    assert np.array_equal(co.causality_from_dict(doc).relation, d4.relation)


def test_cover_mode_rejects_a_matrix_of_another_size_as_explicit_mode_does():
    # the closure of a 3 x 3 cover over two points is a valid order of
    # three, so construction names the size mismatch
    for mode in ("cover", "explicit"):
        doc = {"points": ["a", "b"], "relation": np.eye(3, dtype=int).tolist(), "closure": mode}
        with pytest.raises(ValueError, match="^points and relation size disagree$"):
            co.causality_from_dict(doc)


def test_explicit_mode_rejects_broken_relation():
    doc = {"points": ["a", "b", "c"], "relation": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}
    with pytest.raises(co.NotTransitive):
        co.causality_from_dict(doc)


def test_unknown_closure_mode():
    with pytest.raises(ValueError):
        co.causality_from_dict({"points": [], "relation": [], "closure": "weird"})


def test_empty_causality_roundtrip():
    c = co.causality_from_dict({"points": [], "relation": []})
    assert c.n == 0
    assert co.causality_to_dict(c)["points"] == []


@pytest.mark.parametrize("relation", [[[1]], [[1, 0], [0, 1]]])
def test_relation_without_points_is_a_size_mismatch(relation):
    with pytest.raises(ValueError, match="^points and relation size disagree$"):
        co.causality_from_dict({"points": [], "relation": relation})


def test_cover_relation_is_transitive_reduction(l33):
    covers = set(co.cover_relation(l33))
    # covers of the grid: one-step moves
    assert ("00", "01") in covers and ("00", "10") in covers
    assert ("00", "11") not in covers
    assert len(covers) == 12  # 2 * nu * nv - nu - nv for a 3x3 grid


def test_cover_relation_of_long_chain():
    # p0 < p257 has 256 paths through one middle point: a uint8 path
    # count wraps to 0 there and reports a spurious cover.
    covers = co.cover_relation(co.chain(258, prefix="p"))
    assert covers == [(f"p{i}", f"p{i + 1}") for i in range(257)]


def test_dot_export(d4):
    dot = co.to_dot(d4, name="d4")
    assert dot.startswith("digraph d4 {")
    assert '"p" -> "q";' in dot and '"q" -> "s";' in dot
    assert '"p" -> "s";' not in dot  # only cover edges
    data = json.dumps(dot)  # sanity: plain serializable text
    assert "->" in data


def test_dot_escapes_quotes_in_ids():
    c = co.from_cover_pairs(['a"b', "c"], [('a"b', "c")])
    dot = co.to_dot(c)
    assert '  "a\\"b";' in dot.splitlines()
    assert '  "a\\"b" -> "c";' in dot.splitlines()


def test_dot_rejects_id_ending_in_backslash():
    c = co.from_cover_pairs(["a\\", "b"], [("a\\", "b")])
    with pytest.raises(ValueError, match=re.escape("'a\\\\'")):
        co.to_dot(c)


def test_dot_keeps_backslash_inside_id():
    c = co.from_cover_pairs(['a\\"b', "c"], [('a\\"b', "c")])
    # DOT reads \\ as two characters and \" as a quote: the id is a\"b
    assert '  "a\\\\"b" -> "c";' in co.to_dot(c).splitlines()


@pytest.mark.parametrize("name", ["my graph", "1st", "", "a-b", "x\n", "Graph", "strict"])
def test_dot_rejects_name_that_is_not_an_identifier(d4, name):
    with pytest.raises(ValueError, match="not a DOT identifier"):
        co.to_dot(d4, name=name)


def test_dot_default_header_unchanged(d4):
    assert co.to_dot(d4).splitlines()[:2] == ["digraph causality {", "  rankdir=BT;"]
    assert co.to_dot(d4, name="_d4_x").startswith("digraph _d4_x {\n")


@pytest.mark.parametrize("entry", [2, 0.5, -1, "1"], ids=repr)
def test_relation_entries_other_than_0_and_1_rejected(entry):
    doc = {"points": ["a", "b"], "relation": [[1, entry], [0, 1]]}
    with pytest.raises(ValueError, match=re.escape(f"(0, 1) is {entry!r}")):
        co.causality_from_dict(doc)


def test_relation_entries_may_be_json_booleans(chain3):
    doc = json.loads(json.dumps(
        {"points": ["a", "b", "c"], "relation": chain3.relation.tolist()}))
    assert doc["relation"][0] == [True, True, True]
    c = co.causality_from_dict(doc)
    assert np.array_equal(c.relation, chain3.relation)


def test_ragged_relation_names_the_first_short_row():
    doc = {"points": ["a", "b"], "relation": [[1, 0], [1]]}
    with pytest.raises(ValueError, match=re.escape("relation row 1 has 1 entries, not 2")):
        co.causality_from_dict(doc)
    doc = {"points": ["a", "b", "c"], "relation": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1]]}
    with pytest.raises(ValueError, match=re.escape("relation row 0 has 4 entries, not 3")):
        co.causality_from_dict(doc)


# causality_from_dict of {"points": ["a", "b"], "relation": R}: the matrix
# it returns, or the exception type and message, as before the bulk decoder
T, F = True, False
_NOT_0_OR_1 = "relation entry (0, 1) is {}, not 0 or 1"
FROM_DICT_PARITY = [
    ([[T, T], [F, T]], [[1, 1], [0, 1]]),
    ([[1, 1], [0, 1]], [[1, 1], [0, 1]]),
    ([[1.0, 1.0], [0.0, 1.0]], [[1, 1], [0, 1]]),
    ([[T, 1.0], [0, 1]], [[1, 1], [0, 1]]),
    ([[1, 2], [0, 1]], (ValueError, _NOT_0_OR_1.format("2"))),
    ([[1, -1], [0, 1]], (ValueError, _NOT_0_OR_1.format("-1"))),
    ([[1, 0.5], [0, 1]], (ValueError, _NOT_0_OR_1.format("0.5"))),
    ([[1, 256], [0, 1]], (ValueError, _NOT_0_OR_1.format("256"))),
    ([[1, 2**70], [0, 1]], (ValueError, _NOT_0_OR_1.format(2**70))),
    ([[1, float("nan")], [0, 1]], (ValueError, _NOT_0_OR_1.format("nan"))),
    ([[1, "1"], [0, 1]], (ValueError, _NOT_0_OR_1.format("'1'"))),
    ([[1, None], [0, 1]], (ValueError, _NOT_0_OR_1.format("None"))),
    ([[[1], [1]], [[0], [1]]], (ValueError, "relation must be a square matrix")),
    (["11", "01"], (ValueError, "relation must be a matrix of 0 and 1 entries")),
    ([[1, 1], [1, 1]], (co.NotAntisymmetric,
                        "relation is not antisymmetric: indices 0 and 1 precede each other")),
    ([[0, 1], [0, 1]], (co.NotReflexive, "relation is not reflexive at index 0")),
    ([], (ValueError, "relation must be a square matrix")),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (ValueError, "points and relation size disagree")),
    ([[1, 0, 0], [0, 1, 0]], (ValueError, "relation must be a square matrix")),
    (1, (ValueError, "relation must be a square matrix")),
    (None, (ValueError, "relation must be a matrix of 0 and 1 entries")),
    ("1101", (ValueError, "relation must be a matrix of 0 and 1 entries")),
]


@pytest.mark.parametrize("relation, expected", FROM_DICT_PARITY, ids=repr)
def test_from_dict_parity(relation, expected):
    doc = {"points": ["a", "b"], "relation": relation}
    if isinstance(expected, tuple):
        exc, message = expected
        with pytest.raises(exc) as info:
            co.causality_from_dict(doc)
        assert type(info.value) is exc and str(info.value) == message
    else:
        assert co.causality_from_dict(doc).relation.tolist() == np.array(expected, bool).tolist()


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 40).flatmap(
    lambda n: hnp.arrays(bool, (n, n)) | st.sampled_from([np.ones((n, n), bool),
                                                          np.zeros((n, n), bool)])))
def test_relation_json_equals_json_dumps(rel):
    assert _relation_bytes(rel).decode("ascii") == json.dumps(rel.astype(int).tolist())


@pytest.mark.parametrize("n", [0, 1])
def test_relation_json_at_sizes_0_and_1(n):
    for rel in (np.zeros((n, n), bool), np.ones((n, n), bool)):
        assert _relation_bytes(rel).decode("ascii") == json.dumps(rel.astype(int).tolist())


def test_loads_sprinkles_and_cover_exports_keep_only_the_packed_forms(l33):
    # the order is stored once, as its packed rows next to the packed
    # cover: construction, a load and a sprinkle build no other form, nor
    # do the exports and the point-map check, which unpack the rows per
    # call; a certified sprinkle holds its rows alone until its cover is read
    buf = io.StringIO()
    co.dump_causality(l33, buf)
    sprinkled = co.sprinkle(co.SprinkleConfig(d=1, box=((0, 1), (0, 1)), n=40, seed=3))
    for c in (co.validate_causality(l33.points, l33.relation),
              co.load_causality(io.StringIO(buf.getvalue())),
              co.causality_from_dict(co.causality_to_dict(l33)), sprinkled.causality):
        assert set(c._derived) == ({"rows"} if c is sprinkled.causality else {"cover", "rows"})
        co.dump_causality(c, io.StringIO())
        co.causality_to_dict(c)
        co.cover_relation(c)
        co.to_dot(c)
        assert set(c._derived) == {"cover", "rows"}
    c = co.grid(3, 3)
    flip = {f"{u}{v}": f"{2 - u}{2 - v}" for u in range(3) for v in range(3)}
    co.OrderReversal.point_map(c, flip)
    assert set(c._derived) == {"cover", "rows"}


def _assert_dump_matches_pure_python_encoder(c):
    buf, ref = io.StringIO(), io.StringIO()
    co.dump_causality(c, buf)
    json.dump(co.causality_to_dict(c), ref, indent=1, sort_keys=True)
    assert buf.getvalue() == ref.getvalue() + "\n"


@pytest.mark.parametrize("name", ["chain3", "d4", "l5", "l33", "anti3", "not_dense_7"])
def test_dump_causality_bytes_match_pure_python_encoder(request, name):
    _assert_dump_matches_pure_python_encoder(request.getfixturevalue(name))


@pytest.mark.parametrize("n", [0, 1])
def test_dump_causality_bytes_at_sizes_0_and_1(n):
    _assert_dump_matches_pure_python_encoder(co.chain(n))


def test_dump_causality_bytes_of_300_point_sprinkle():
    cfg = co.SprinkleConfig(d=3, box=((0, 1),) * 4, n=300, seed=4)
    c = co.sprinkle(cfg).causality
    assert 0 < c.relation.sum() - c.n < c.n * c.n
    _assert_dump_matches_pure_python_encoder(c)


# ---------------------------------------------------------------------------
# malformed documents and the fixed-stride reader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("doc, message", MALFORMED_CAUSALITY, ids=repr)
def test_malformed_causality_document_rejected(doc, message):
    for read in (co.causality_from_dict, lambda d: co.load_causality(io.StringIO(json.dumps(d)))):
        with pytest.raises(ValueError) as info:
            read(doc)
        assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("n", [1, 2, 40])
def test_library_framings_take_the_fast_path(n):
    # a change to the writer's framing must fail here, not fall back quietly
    c = random_poset(n, 0.2, np.random.default_rng(n))
    doc = co.causality_to_dict(c)
    dumped = io.StringIO()
    co.dump_causality(c, dumped)
    texts = [dumped.getvalue(), json.dumps(doc),
             json.dumps({k: doc[k] for k in ("points", "closure", "relation")})]
    for text in texts:
        fast = _fast_document(text)
        assert fast is not None, text[:60]
        assert isinstance(fast["relation"], np.ndarray)
        assert np.array_equal(fast["relation"], c.relation)
        back = co.load_causality(io.StringIO(text))
        assert back.points == c.points and np.array_equal(back.relation, c.relation)


def _outcome(read):
    """The points and relation ``read()`` returns, or its exception's type and message."""
    try:
        c = read()
    except Exception as exc:
        return type(exc), str(exc)
    return c.points, c.relation.tolist()


def _cells(doc, f):
    doc["relation"] = [[f(v) for v in row] for row in doc["relation"]]


def _set_cell(doc, value):
    if doc["relation"]:
        doc["relation"][-1][0] = value


def _insert(text, entry, at_start):
    """``text`` with the member ``entry`` added first or last in its top-level object."""
    if at_start:
        return "{" + entry + ", " + text[1:]
    return text.rstrip()[:-1] + ", " + entry + "}"


def _put_first(doc, key, value):
    rest = dict(doc)
    doc.clear()
    doc[key] = value
    doc.update(rest)


# (name, doc -> None) edits of the parsed document
DOC_MUTATIONS = {
    "none": lambda doc: None,
    "booleans": lambda doc: _cells(doc, bool),
    "floats": lambda doc: _cells(doc, float),
    "a 2": lambda doc: _set_cell(doc, 2),
    "ragged": lambda doc: doc["relation"] and doc["relation"][0].pop(),
    "extra point": lambda doc: doc["points"].append("zz"),
    "missing point": lambda doc: doc["points"] and doc["points"].pop(),
    "nested key first": lambda doc: _put_first(doc, "meta", {"relation": doc["relation"]}),
    "escaped key first": lambda doc: _put_first(doc, 'x"relation', doc["relation"]),
    "NaN elsewhere": lambda doc: doc.update({"weight": float("nan")}),
    "ids holding the key": lambda doc: doc["points"] and doc["points"].__setitem__(
        0, 'x": 0, "relation": [[1]], "y'),
    "id ending in relation": lambda doc: doc["points"] and doc["points"].__setitem__(
        0, 'x"relation'),
    "no closure": lambda doc: doc.pop("closure"),
    "cover": lambda doc: doc.update({"closure": "cover"}),
}


def _widen_last_cell(text):
    """The last " 0" or " 1" of ``text`` made "10" or "11": a cell of the
    same width as the framing's, but not 0 or 1."""
    i = max(text.rfind(" 0"), text.rfind(" 1"))
    return text if i < 0 else text[:i] + "1" + text[i + 1:]


# (name, text -> text) edits of the written document
TEXT_MUTATIONS = {
    "none": lambda text: text,
    "compact": lambda text: json.dumps(json.loads(text), separators=(",", ":")),
    "indent 2": lambda text: json.dumps(json.loads(text), indent=2),
    "padded": lambda text: "  \n" + text.replace('"relation": ', '"relation" :  ') + " \n",
    "two-digit cell": lambda text: _widen_last_cell(text),
    "trailing comma": lambda text: text.rstrip()[:-1] + ",}",
    "list": lambda text: "[" + text + "]",
    "duplicate 0 after": lambda text: _insert(text, '"relation": 0', False),
    "duplicate 0 before": lambda text: _insert(text, '"relation": 0', True),
    "duplicate matrix after": lambda text: _insert(text, '"relation": [[1]]', False),
    "duplicate NaN after": lambda text: _insert(text, '"relation": NaN', False),
}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(0, 6), p_edge=st.floats(0, 1), seed=st.integers(0, 2**16),
       order=st.permutations(["points", "closure", "relation"]),
       indent=st.sampled_from([None, 1]))
def test_reader_matches_json_loads(n, p_edge, seed, order, indent):
    # every edit of the document, then every edit of its text
    full = co.causality_to_dict(random_poset(n, p_edge, np.random.default_rng(seed)))
    for doc_edit in DOC_MUTATIONS.values():
        doc = copy.deepcopy({k: full[k] for k in order})
        doc_edit(doc)
        for text_edit in TEXT_MUTATIONS.values():
            text = text_edit(json.dumps(doc, indent=indent))
            fast = _outcome(lambda: co.load_causality(io.StringIO(text)))
            slow = _outcome(lambda: co.causality_from_dict(json.loads(text)))
            assert fast == slow, text


def _same_outcome(text):
    """Whether the reader and ``json.loads`` agree on ``text``."""
    return (_outcome(lambda: co.load_causality(io.StringIO(text)))
            == _outcome(lambda: co.causality_from_dict(json.loads(text))))


@pytest.mark.parametrize("indent", [None, 1])
def test_reader_matches_json_loads_on_every_byte_of_the_relation(chain3, indent):
    # every ASCII character, and one that is not, in place of each one of
    # the relation's text: the fixed-stride reader rejects what the
    # writer would not write, and json.loads decides
    text = json.dumps(co.causality_to_dict(chain3), indent=indent)
    start, end, _ = _framed_relation(text)
    for at in range(start, end):
        for char in map(chr, [*range(128), 0xE9]):
            if char != text[at]:
                edited = text[:at] + char + text[at + 1:]
                assert _same_outcome(edited), edited


@pytest.mark.parametrize("indent", [None, 1])
def test_reader_matches_json_loads_on_a_separator_of_the_last_row(indent):
    # a 300-point relation with one cell separator of its last row edited:
    # into another one json accepts, and into one it rejects
    c = co.sprinkle(co.SprinkleConfig(d=3, box=((0, 1),) * 4, n=300, seed=4)).causality
    text = json.dumps(co.causality_to_dict(c), indent=indent)
    start, end, _ = _framed_relation(text)
    at = text.rindex(",", start, end - 10)
    for edit in ("\t", ";"):
        edited = text[:at + 1] + edit + text[at + 2:]
        assert _framed_relation(edited) is None
        assert _same_outcome(edited)
