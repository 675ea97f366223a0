"""The boolean relation kernel against frozenset oracles and against
one dense float32 product.

Sizes reach past n = 256, where a product that counts paths in uint8
wraps, and the large draws include a fan of 250-260 two-step paths
between two points so the count sits near the wrap.  Past _BLOCK rows
the kernel sorts and skips zero blocks; at n = 257-700 it is checked
against ``product_compose`` on relabelled orders, non-transitive
relations, disjoint unions and pairs of different factors.  The cover
diagram that validation keeps is checked against one dense product too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalorder as co
from causalorder.order import _BLOCK, _closure, _compose, _ints, _transpose, validate_matrix

from conftest import (
    matrix_of,
    oracle_closure,
    oracle_compose,
    oracle_cover,
    pairs_of,
    product_compose,
    product_cover,
    random_poset,
    relabelled,
)


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
    rows = np.packbits(rel, axis=1, bitorder="little")
    for masks, mat in ((_ints(rows), rel), (_ints(_transpose(rows, n)), rel.T)):
        assert masks == [
            sum(1 << int(j) for j in np.flatnonzero(row)) for row in mat
        ]


def test_kernel_on_empty_relation():
    empty = np.zeros((0, 0), dtype=bool)
    assert _compose(empty, empty).shape == (0, 0)
    assert _closure(empty).shape == (0, 0)
    assert _ints(_transpose(np.packbits(empty, axis=1, bitorder="little"), 0)) == []


# ---------------------------------------------------------------------------
# The blocked product against one dense product, past _BLOCK rows
# ---------------------------------------------------------------------------

def _product_closure(rel):
    closed = rel | np.eye(len(rel), dtype=bool)
    while not np.array_equal(squared := product_compose(closed, closed), closed):
        closed = squared
    return closed


def _order(rng, n, kind):
    """A partial order on n points: a sprinkle of 1+1 or 3+1 Minkowski
    space in the unit box (events in draw order), a chain, an antichain,
    or a random DAG over 0 .. n-1 closed transitively."""
    if kind == "chain":
        return np.triu(np.ones((n, n), dtype=bool))
    if kind == "antichain":
        return np.eye(n, dtype=bool)
    if kind.startswith("sprinkle"):
        ev = rng.uniform(0.0, 1.0, size=(n, int(kind[-1]) + 1))
        d = ev[None, :, :] - ev[:, None, :]  # d[i, j] = event j - event i
        return (d[..., 0] >= 0) & (d[..., 0] ** 2 >= (d[..., 1:] ** 2).sum(axis=-1))
    p = {"dag-sparse": 0.003, "dag-dense": 0.03}[kind]
    return _product_closure(np.triu(rng.random((n, n)) < p))


ORDER_KINDS = ["sprinkle1", "sprinkle3", "dag-sparse", "dag-dense", "chain"]


def _relabel(rng, rel):
    perm = rng.permutation(len(rel))
    return rel[np.ix_(perm, perm)]


@st.composite
def large_orders(draw):
    """(rng, order) with n = 257-700 under a random labelling."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(257, 700))
    return rng, _relabel(rng, _order(rng, n, draw(st.sampled_from(ORDER_KINDS))))


def test_large_draws_pass_the_block_size():
    assert _BLOCK < 257


def _matches_product_with_strict_part(rel):
    """Validation's product of rel and the cover diagram's of its strict part."""
    strict = rel & ~np.eye(len(rel), dtype=bool)
    for m in (rel, strict):
        assert np.array_equal(_compose(m, m), product_compose(m, m))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(large_orders())
def test_blocked_compose_matches_product_on_orders(drawn):
    _matches_product_with_strict_part(drawn[1])


def _product_witness(rel):
    """validate_matrix's NotTransitive witness, from the dense product."""
    missing = product_compose(rel, rel) & ~rel
    if not missing.any():
        return None
    i, k = np.argwhere(missing)[0]
    return int(i), int(np.flatnonzero(rel[i, :] & rel[:, k])[0]), int(k)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(large_orders(), st.sampled_from([1e-4, 1e-3, 1e-2]))
def test_blocked_compose_gives_the_product_witness(drawn, share):
    """Strict cells deleted from an order: the relation stays reflexive
    and antisymmetric, and validation reports the first failing triple
    in row-major order, the one the dense product finds."""
    rng, rel = drawn
    rel = (rel & ~(rng.random(rel.shape) < share)) | np.eye(len(rel), dtype=bool)
    assert np.array_equal(_compose(rel, rel), product_compose(rel, rel))
    want = _product_witness(rel)
    if want is None:
        validate_matrix(rel)
    else:
        with pytest.raises(co.NotTransitive) as err:
            validate_matrix(rel)
        assert err.value.witness == want


@st.composite
def disjoint_unions(draw):
    """Block-diagonal orders of 2-4 components, n = 257-700, relabelled
    or not: every off-diagonal block of the input is zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(ORDER_KINDS + ["antichain"]), min_size=2, max_size=4))
    sizes = draw(st.lists(st.integers(1, 300), min_size=len(kinds), max_size=len(kinds))
                 .filter(lambda s: 257 <= sum(s) <= 700))
    rel = np.zeros((sum(sizes), sum(sizes)), dtype=bool)
    at = 0
    for kind, size in zip(kinds, sizes):
        rel[at:at + size, at:at + size] = _order(rng, size, kind)
        at += size
    return _relabel(rng, rel) if draw(st.booleans()) else rel


@settings(max_examples=20, deadline=None, derandomize=True)
@given(disjoint_unions())
def test_blocked_compose_matches_product_on_disjoint_unions(rel):
    _matches_product_with_strict_part(rel)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(large_orders(), st.sampled_from(["order", "transpose", "digraph", "zero", "one-cell"]))
def test_blocked_compose_matches_product_on_different_factors(drawn, other):
    """a ≠ b: the sort follows a alone, so b's blocks need not be
    triangular in it."""
    rng, a = drawn
    n = len(a)
    b = {
        "order": lambda: _relabel(rng, _order(rng, n, "sprinkle1")),
        "transpose": lambda: a.T.copy(),
        "digraph": lambda: rng.random((n, n)) < 0.01,
        "zero": lambda: np.zeros((n, n), dtype=bool),
        "one-cell": lambda: matrix_of(n, [tuple(rng.integers(0, n, size=2))]),
    }[other]()
    assert np.array_equal(_compose(a, b), product_compose(a, b))
    assert np.array_equal(_compose(b, a), product_compose(b, a))


def test_blocked_compose_returns_c_order():
    rng = np.random.default_rng(0)
    a = _relabel(rng, _order(rng, _BLOCK + 1, "sprinkle1"))
    assert _compose(a, a).flags.c_contiguous


# ---------------------------------------------------------------------------
# The cover diagram kept by validation, and transposed for a reverse
# ---------------------------------------------------------------------------

def _check_cover(c, kept):
    """Whether validation kept the cover (``kept``), and the cover then
    held, and cover_relation's row-major pairs, against one product."""
    assert ("cover" in c._derived) == kept
    want = product_cover(c.relation)
    assert co.cover_relation(c) == [(c.points[i], c.points[j]) for i, j in zip(*np.nonzero(want))]
    got = np.unpackbits(c._derived["cover"], axis=1, count=c.n, bitorder="little")
    assert np.array_equal(got.view(bool), want)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(large_orders())
def test_kept_cover_matches_product_on_large_orders(drawn):
    rel = drawn[1]
    _check_cover(co.validate_causality([f"v{i}" for i in range(len(rel))], rel), True)


@pytest.mark.parametrize("seed", range(12))
def test_kept_cover_matches_product_on_small_orders(seed):
    rng = np.random.default_rng(seed)
    c = random_poset(int(rng.integers(0, 14)), float(rng.uniform(0.1, 0.6)), rng)
    _check_cover(relabelled(c, rng), True)


@pytest.mark.parametrize("n", [0, 1, 9, 300])
def test_kept_cover_of_a_cover_format_load(n):
    rng = np.random.default_rng(n)
    rel = _relabel(rng, _order(rng, n, "sprinkle1"))
    doc = {"points": [f"v{i}" for i in range(n)], "closure": "cover",
           "relation": product_cover(rel).astype(int).tolist()}
    c = co.causality_from_dict(doc)
    assert np.array_equal(c.relation, rel)
    _check_cover(c, True)


@pytest.mark.parametrize("n", [0, 5, _BLOCK + 44])
def test_reverse_structure_takes_its_cover_with_no_product(n, monkeypatch):
    """A validated causality exports its cover with no product, and so
    does its structural reverse, built unvalidated with the transposed
    cover."""
    rng = np.random.default_rng(n)
    c = co.validate_causality([f"v{i}" for i in range(n)], _relabel(rng, _order(rng, n, "sprinkle3")))
    calls = []
    monkeypatch.setattr(co.order, "_compose", lambda a, b: calls.append(1) or _compose(a, b))
    co.to_dot(c)
    rev = co.reverse_structure(c)
    _check_cover(rev, True)
    co.to_dot(rev)
    assert calls == []


# ---------------------------------------------------------------------------
# The packed rows, the one stored form of the order, and their views
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, _BLOCK + 44])
def test_views_match_the_matrix_passed_in(n):
    """relation, succ_masks, pred_masks and leq read the packed rows; each
    equals the matrix the causality was built from, and the reverse's its
    transpose, at sizes on either side of a byte of the packing and past
    _BLOCK (a sprinkle, validated by the blocked kernel)."""
    rng = np.random.default_rng(n)
    rel = _order(rng, n, "sprinkle1") if n > _BLOCK else _product_closure(np.triu(rng.random((n, n)) < 0.3))
    rel = _relabel(rng, rel)
    given = rel.copy()
    c = co.validate_causality([f"v{i}" for i in range(n)], given)
    given[:] = False  # the causality keeps no reference to its input
    assert set(c._derived) == {"cover", "rows"}
    rev = co.reverse_structure(c)
    for d, mat in ((c, rel), (rev, rel.T)):
        assert d.relation.dtype == bool and d.relation.shape == (n, n)
        assert not d.relation.flags.writeable
        assert np.array_equal(d.relation, mat)
        assert d.succ_masks == [sum(1 << int(j) for j in np.flatnonzero(row)) for row in mat]
        assert d.pred_masks == [sum(1 << int(j) for j in np.flatnonzero(row)) for row in mat.T]
        assert [[d.leq(x, y) for y in d.points] for x in d.points] == mat.tolist()
    assert (rev.succ_masks, rev.pred_masks) == (c.pred_masks, c.succ_masks)
