"""The boolean relation kernel against frozenset oracles.

Sizes reach past n = 256, where a product that counts paths in uint8
wraps, and the large draws include a fan of 250-260 two-step paths
between two points so the count sits near the wrap.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import causalorder as co
from causalorder.order import _closure, _compose, _row_masks

from conftest import matrix_of, oracle_closure, oracle_compose, oracle_cover, pairs_of


@st.composite
def digraphs(draw, acyclic=False):
    """(n, edge set): small dense digraphs, or sparse ones with n > 256."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        max_edges = n * n
        fan = 0
    else:
        n = draw(st.integers(257, 300))
        max_edges = n // 2
        fan = draw(st.integers(250, min(260, n - 2)))
    node = st.integers(0, n - 1)
    edges = set(draw(st.sets(st.tuples(node, node), max_size=max_edges)))
    edges |= {(0, j) for j in range(1, fan + 1)}
    edges |= {(j, n - 1) for j in range(1, fan + 1)}
    if acyclic:
        edges = {(min(i, j), max(i, j)) for i, j in edges if i != j}
    return n, frozenset(edges)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(digraphs(), st.data())
def test_compose_matches_oracle(graph, data):
    n, a = graph
    node = st.integers(0, n - 1)
    b = data.draw(st.sets(st.tuples(node, node), max_size=2 * n))
    out = _compose(matrix_of(n, a), matrix_of(n, b))
    assert out.dtype == bool
    assert pairs_of(out) == oracle_compose(a, b)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(digraphs())
def test_closure_matches_oracle(graph):
    n, edges = graph
    assert pairs_of(_closure(matrix_of(n, edges))) == oracle_closure(n, edges)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(digraphs(acyclic=True))
def test_cover_relation_matches_oracle(graph):
    n, edges = graph
    c = co.validate_causality(
        [f"v{i}" for i in range(n)], matrix_of(n, oracle_closure(n, edges))
    )
    covers = co.cover_relation(c)
    assert len(covers) == len(set(covers))
    assert set(covers) == oracle_cover(c)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(digraphs())
def test_row_masks_match_rows(graph):
    n, edges = graph
    rel = matrix_of(n, edges)
    for masks, mat in ((_row_masks(rel), rel), (_row_masks(rel.T), rel.T)):
        assert masks == [
            sum(1 << int(j) for j in np.flatnonzero(row)) for row in mat
        ]


def test_kernel_on_empty_relation():
    empty = np.zeros((0, 0), dtype=bool)
    assert _compose(empty, empty).shape == (0, 0)
    assert _closure(empty).shape == (0, 0)
    assert _row_masks(empty) == []
