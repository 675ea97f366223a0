"""Causality JSON files and DOT export."""

from __future__ import annotations

import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import causalorder as co
from causalorder.io import _relation_json


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
    assert _relation_json(rel) == json.dumps(rel.astype(int).tolist())


@pytest.mark.parametrize("n", [0, 1])
def test_relation_json_at_sizes_0_and_1(n):
    for rel in (np.zeros((n, n), bool), np.ones((n, n), bool)):
        assert _relation_json(rel) == json.dumps(rel.astype(int).tolist())


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
