"""Core order structure: validation, diamonds, cone predicates, reversal."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalorder as co
from causalorder import Direction, OrderReversal, PointSet, config

from conftest import (
    fan_relation,
    naturally_labelled_posets,
    oracle_complete,
    oracle_convergent,
    oracle_crossing,
    oracle_crossing_witness,
    oracle_diamond,
    oracle_divergent,
    product_crossing_witness,
    random_poset,
)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_validate_accepts_chain(chain3):
    assert chain3.leq("a", "c")
    assert not chain3.leq("c", "a")


def test_validate_rejects_symmetry():
    rel = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    with pytest.raises(co.NotAntisymmetric) as exc:
        co.validate_causality(["a", "b", "c"], rel)
    assert set(exc.value.witness) == {0, 1}


def test_validate_names_the_first_symmetric_pair_past_the_block_size():
    # one pair made symmetric in a 300-point order, so the product is
    # blocked: the witness is the first symmetric pair in row-major order
    cfg = co.SprinkleConfig(d=1, box=((0, 1), (0, 1)), n=300, seed=5)
    rel = co.sprinkle(cfg).causality.relation.copy()
    i, j = np.argwhere(rel & ~np.eye(300, dtype=bool))[-1]
    rel[j, i] = True
    strict = rel & ~np.eye(300, dtype=bool)
    with pytest.raises(co.NotAntisymmetric) as exc:
        co.validate_causality([f"p{k}" for k in range(300)], rel)
    assert exc.value.witness == tuple(np.argwhere(strict & strict.T)[0]) == (min(i, j), max(i, j))


def test_validate_rejects_missing_closure():
    rel = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    with pytest.raises(co.NotTransitive) as exc:
        co.validate_causality(["a", "b", "c"], rel)
    assert exc.value.witness == (0, 1, 2)


def test_validate_rejects_missing_closure_behind_256_paths():
    # 256 two-step paths from the first point to the last: a uint8 path
    # count wraps to 0 here and would accept the relation.
    with pytest.raises(co.NotTransitive) as exc:
        co.validate_causality([f"p{i}" for i in range(258)], fan_relation(256))
    i, j, k = exc.value.witness
    assert (i, k) == (0, 257) and 1 <= j <= 256


def test_validate_rejects_missing_diagonal():
    rel = [[1, 0], [0, 0]]
    with pytest.raises(co.NotReflexive) as exc:
        co.validate_causality(["a", "b"], rel)
    assert exc.value.witness == (1,)


@pytest.mark.parametrize("rel, message", [
    ([[2]], "relation entry (0, 0) is 2, not 0 or 1"),
    ([[0.5]], "relation entry (0, 0) is 0.5, not 0 or 1"),
    ([[float("nan")]], "relation entry (0, 0) is nan, not 0 or 1"),
    ([["0"]], "relation entry (0, 0) is '0', not 0 or 1"),
    ([[None]], "relation entry (0, 0) is None, not 0 or 1"),
    ([[1, 3], [0, 1]], "relation entry (0, 1) is 3, not 0 or 1"),
], ids=repr)
def test_validate_rejects_entries_other_than_0_and_1_as_a_file_does(rel, message):
    # a cast to bool would read 2, 0.5, nan and "0" as True and None as False
    points = [f"p{i}" for i in range(len(rel))]
    for build in (lambda: co.validate_causality(points, rel),
                  lambda: co.causality_from_dict({"points": points, "relation": rel})):
        with pytest.raises(ValueError) as exc:
            build()
        assert type(exc.value) is ValueError and str(exc.value) == message


def test_duplicate_point_ids_rejected():
    with pytest.raises(ValueError):
        co.validate_causality(["a", "a"], np.eye(2, dtype=bool))


@pytest.mark.parametrize("dtype", [bool, np.int64])
def test_validated_relation_is_a_read_only_copy(dtype):
    rel = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=dtype)
    c = co.validate_causality(["a", "b", "c"], rel)
    rel[0, 1] = rel[2, 2] = 0  # the caller's array, after validation
    assert c.relation.tolist() == [[True, True, False], [False, True, False], [False, False, True]]
    assert not c.relation.flags.writeable
    with pytest.raises(ValueError):
        c.relation[0, 2] = True


# ---------------------------------------------------------------------------
# Diamonds
# ---------------------------------------------------------------------------

def test_diamond_chain(chain3):
    assert co.diamond(chain3, "a", "c").ids() == ("a", "b", "c")
    assert co.diamond(chain3, "c", "a").ids() == ()
    assert co.diamond(chain3, "b", "b").ids() == ("b",)


def test_diamond_diamond4(d4):
    assert set(co.diamond(d4, "p", "s").ids()) == {"p", "q", "r", "s"}
    assert co.diamond(d4, "q", "r").ids() == ()


def test_diamond_matches_oracle(d4, l5, l33):
    for c in (d4, l5, l33):
        for x in c.points:
            for y in c.points:
                assert set(co.diamond(c, x, y).ids()) == oracle_diamond(c, x, y)


def test_incomplete_diamond(chain3, d4):
    assert co.incomplete_diamond(chain3, "b", Direction.UPPER).ids() == ("a", "b")
    assert co.incomplete_diamond(chain3, "b", Direction.LOWER).ids() == ("b", "c")
    assert set(co.incomplete_diamond(d4, "p", Direction.LOWER).ids()) == {
        "p", "q", "r", "s"
    }


def test_diamond_equals_cone_intersection(d4, l5, l33):
    # C[x, y] = future(x) ∩ past(y), exhaustively
    for c in (d4, l5, l33):
        for x in c.points:
            fut = co.incomplete_diamond(c, x, Direction.LOWER)
            for y in c.points:
                past = co.incomplete_diamond(c, y, Direction.UPPER)
                assert co.diamond(c, x, y).mask == (fut & past).mask


# ---------------------------------------------------------------------------
# Completeness / convergence / divergence
# ---------------------------------------------------------------------------

def test_completeness_examples(chain3, d4):
    assert not co.is_causally_complete(chain3, chain3.subset(["a", "c"]))
    assert co.is_causally_complete(chain3, chain3.subset([]))
    assert co.is_causally_complete(d4, d4.subset(["q", "r"]))


def test_convergence_examples(d4):
    qrs = d4.subset(["q", "r", "s"])
    pqr = d4.subset(["p", "q", "r"])
    qr = d4.subset(["q", "r"])
    assert co.is_convergent(d4, qrs) and not co.is_divergent(d4, qrs)
    assert co.is_divergent(d4, pqr) and not co.is_convergent(d4, pqr)
    assert not co.is_convergent(d4, qr) and not co.is_divergent(d4, qr)


def test_singletons_vacuously_convergent_and_divergent(l5):
    for p in l5.points:
        u = l5.subset([p])
        assert co.is_convergent(l5, u) and co.is_divergent(l5, u)


def test_predicates_match_oracle_exhaustively(d4, l5):
    for c in (d4, l5):
        for mask in range(1 << c.n):
            u = PointSet(c, mask)
            ids = set(u.ids())
            assert co.is_causally_complete(c, u) == oracle_complete(c, ids)
            assert co.is_convergent(c, u) == oracle_convergent(c, ids)
            assert co.is_divergent(c, u) == oracle_divergent(c, ids)


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7), st.floats(0.1, 0.7))
def test_predicates_match_oracle_random(seed, n, p_edge):
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for mask in rng.integers(0, 1 << n, size=12):
        u = PointSet(c, int(mask))
        ids = set(u.ids())
        assert co.is_causally_complete(c, u) == oracle_complete(c, ids)
        assert co.is_convergent(c, u) == oracle_convergent(c, ids)
        assert co.is_divergent(c, u) == oracle_divergent(c, ids)


# ---------------------------------------------------------------------------
# Crossing property
# ---------------------------------------------------------------------------

def test_crossing_on_fixtures(chain3, d4, l5, l33, anti3):
    for c in (chain3, d4, l5, l33, anti3):
        assert co.has_crossing_property(c).holds


def test_crossing_witness_reevaluates():
    # y-shaped poset: two incomparable tops over crossing diamonds fail
    c = co.from_cover_pairs(
        ["x", "y", "z", "w"], [("x", "z"), ("y", "z"), ("x", "w"), ("y", "w")]
    )
    res = co.has_crossing_property(c)
    if not res.holds:
        x, y, z, w = res.witness
        assert not (
            oracle_diamond(c, x, z) & oracle_diamond(c, y, w)
            or oracle_diamond(c, x, w) & oracle_diamond(c, y, z)
        )
    assert res.holds == oracle_crossing(c)


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(3, 9), st.floats(0.1, 0.7))
def test_crossing_matches_oracle_random(seed, n, p_edge):
    # shuffled point order, so the witness order is not a linear extension
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    perm = np.random.default_rng(seed + 1).permutation(n)
    c = co.validate_causality([c.points[i] for i in perm], c.relation[np.ix_(perm, perm)])
    res = co.has_crossing_property(c)
    assert res.holds == oracle_crossing(c)
    assert res.witness == oracle_crossing_witness(c)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(10, 40), st.floats(0.05, 0.5))
def test_crossing_matches_product_reference_random(seed, n, p_edge):
    # sizes where the quadruple oracle is too slow: the per-pair product
    # gives the reference verdict and witness
    rng = np.random.default_rng(seed)
    c = random_poset(n, p_edge, rng)
    perm = rng.permutation(n)
    c = co.validate_causality([c.points[i] for i in perm], c.relation[np.ix_(perm, perm)])
    res = co.has_crossing_property(c)
    assert res.witness == product_crossing_witness(c)
    assert res.holds == (res.witness is None)


def test_crossing_matches_product_reference_on_every_small_poset(chain3, d4, l5, l33, anti3):
    posets = [chain3, d4, l5, l33, anti3, co.grid(4, 5)]
    posets += [c for n in range(6) for c in naturally_labelled_posets(n)]
    for c in posets:
        res = co.has_crossing_property(c)
        assert res.witness == product_crossing_witness(c), c.relation.tolist()
        assert res.holds == (res.witness is None)


def test_crossing_fails_iff_a_singleton_union_is_not_closed():
    # crossing says every unrelated pair with a common upper bound has a
    # join, so it fails exactly where the convergent union of two
    # singletons raises NotClosed, first at the witness's pair
    failing = 0
    for n in range(6):
        for c in naturally_labelled_posets(n):
            not_closed = []
            for i, x in enumerate(c.points):
                for y in c.points[i + 1:]:
                    try:
                        co.causal_union(c, c.subset([x]), c.subset([y]), co.Kind.CONVERGENT)
                    except co.NotClosed:
                        not_closed.append((x, y))
                    except co.NoCausalSuperset:
                        pass
            res = co.has_crossing_property(c)
            assert res.holds == (not not_closed), c.relation.tolist()
            if not res.holds:
                assert res.witness[:2] == not_closed[0]
                failing += 1
    assert failing  # the sweep reaches failing posets


def test_crossing_holds_on_product_lattices():
    for nu in range(1, 5):
        for nv in range(1, 5):
            assert co.has_crossing_property(co.grid(nu, nv)).holds


def _digit_ids(nu, nv):
    return tuple(f"{u}{v}" for u in range(nu) for v in range(nv))


def test_grid_keeps_concatenated_ids_where_unique():
    for nu, nv in ((3, 3), (11, 11), (12, 2)):
        assert co.grid(nu, nv).points == _digit_ids(nu, nv)


def test_grid_ids_separated_where_digits_collide():
    # "111" is both (1, 11) and (11, 1)
    g = co.grid(12, 12)
    assert g.n == 144 and len(set(g.points)) == 144
    assert g.leq("1,11", "11,11") and not g.leq("1,11", "11,1")


# ---------------------------------------------------------------------------
# Reversal
# ---------------------------------------------------------------------------

def test_structural_reverse_roundtrip(l5):
    rev = co.reverse_structure(l5)
    assert co.reverse_structure(rev) is l5
    assert np.array_equal(rev.relation, l5.relation.T)


def test_finished_causality_freed_without_cycle_collector():
    # the reverse refers back weakly, so a causality and its structural
    # reverse form no reference cycle, and both are freed as soon as the
    # last reference goes
    c = co.grid(3, 3)
    assert co.verify_reversal_theorem(c).all_hold
    alive = weakref.ref(c), weakref.ref(co.reverse_structure(c))
    gc.disable()
    try:
        del c
        assert [r() for r in alive] == [None, None]
    finally:
        gc.enable()


def test_reverse_empty_set(d4):
    out = co.reverse(d4, OrderReversal.structural(), d4.subset([]))
    assert out.mask == 0


def test_structural_reverse_swaps_verdicts(d4):
    pqr = d4.subset(["p", "q", "r"])
    assert co.is_divergent(d4, pqr)
    image = co.reverse(d4, OrderReversal.structural(), pqr)
    assert co.is_convergent(image.parent, image)
    assert not co.is_divergent(image.parent, image)
    assert co.classify(image.parent, image) is co.SetClass.STRICTLY_CONVERGENT


def test_structural_reverse_involution_on_point_sets(l33):
    rev = co.reverse_structure(l33)
    for mask in (0, 5, 37, l33.full_mask):
        u = PointSet(l33, mask)
        image = co.reverse(l33, OrderReversal.structural(), u)
        back = co.reverse(rev, OrderReversal.structural(), image)
        assert back.parent is l33 and back.mask == mask


def test_point_map_reversal_on_centered_lattice():
    res = co.sprinkle(
        co.SprinkleConfig(d=1, box=((-1, 1), (-1, 1)), mode=co.SprinkleMode.LATTICE)
    )
    c, events = res.causality, res.events
    mapping = {}
    for i, e in enumerate(events):
        j = events.index((-e[0], e[1]))
        mapping[c.points[i]] = c.points[j]
    t = OrderReversal.point_map(c, mapping)

    origin = c.points[events.index((0.0, 0.0))]
    future = co.incomplete_diamond(c, origin, Direction.LOWER)
    past = co.incomplete_diamond(c, origin, Direction.UPPER)
    assert co.reverse(c, t, future).mask == past.mask

    # involution on point sets
    for mask in (0, 3, 17, c.full_mask):
        u = PointSet(c, mask)
        assert co.reverse(c, t, co.reverse(c, t, u)).mask == mask


def test_reverse_rejects_point_map_of_another_causality():
    c = co.chain(2)
    t = OrderReversal.point_map(co.antichain(2), {"a0": "a0", "a1": "a1"})
    with pytest.raises(ValueError, match="reversal does not belong to this causality"):
        co.reverse(c, t, c.subset(["a"]))


def test_point_map_validation_rejects_non_involution(anti3):
    # a 3-cycle of unrelated points reverses the (empty) order, so only
    # the involution test can reject it
    with pytest.raises(co.InvalidReversal, match="^mapping is not an involution at a0$"):
        OrderReversal.point_map(anti3, {"a0": "a1", "a1": "a2", "a2": "a0"})


def test_point_map_validation_rejects_a_mapping_that_misses_a_point(chain3):
    with pytest.raises(co.InvalidReversal, match="^mapping must cover every point$"):
        OrderReversal.point_map(chain3, {"a": "c", "c": "a"})


def test_point_map_validation_rejects_order_preserving(chain3):
    with pytest.raises(co.InvalidReversal):
        OrderReversal.point_map(chain3, {"a": "a", "b": "b", "c": "c"})


@pytest.mark.parametrize("mapping, unknown", [
    ({"a": "c", "b": "b", "c": "a", "z": "a"}, "'z'"),
    ({"a": "c", "b": "zz", "c": "a"}, "'zz'"),
], ids=["source", "target"])
def test_point_map_validation_names_unknown_point(chain3, mapping, unknown):
    with pytest.raises(co.InvalidReversal, match=f"mapping names unknown point {unknown}"):
        OrderReversal.point_map(chain3, mapping)


def _involutions(n, start=0):
    """Every involution of range(start, n), as a dict point -> image."""
    if start == n:
        yield {}
        return
    for rest in _involutions(n, start + 1):
        yield {**rest, start: start}
        for j in range(start + 1, n):
            if rest[j] == j:
                yield {**rest, start: j, j: start}


def _first_unreversed_pair(c, perm):
    for i in range(c.n):
        for j in range(c.n):
            if c.relation[perm[i], perm[j]] != c.relation[j, i]:
                return i, j
    return None


def test_point_map_validation_names_first_unreversed_pair(d4):
    # swapping the two middle points keeps the order; the first pair in
    # row-major order it fails to reverse is (p, q): p <= r but not q <= p
    with pytest.raises(co.InvalidReversal) as err:
        OrderReversal.point_map(d4, {"p": "p", "q": "r", "r": "q", "s": "s"})
    assert str(err.value) == "mapping does not reverse the order at (p, q)"
    for c in (co.chain(3), d4, co.star5(), co.grid(2, 2)):
        for inv in _involutions(c.n):
            mapping = {c.points[i]: c.points[j] for i, j in inv.items()}
            pair = _first_unreversed_pair(c, [inv[i] for i in range(c.n)])
            if pair is None:
                assert OrderReversal.point_map(c, mapping).mapping == tuple(
                    inv[i] for i in range(c.n))
                continue
            with pytest.raises(co.InvalidReversal) as err:
                OrderReversal.point_map(c, mapping)
            i, j = pair
            assert str(err.value) == (
                f"mapping does not reverse the order at ({c.points[i]}, {c.points[j]})")


def test_reverse_distributes_over_meet_join(l5):
    # image of intersections/unions equals intersections/unions of images,
    # exhaustively over all subset pairs up to 8 points
    for c in (l5, co.grid(2, 4)):
        rev = co.reverse_structure(c)
        t = OrderReversal.structural()
        for a in range(1 << c.n):
            pa = co.reverse(c, t, PointSet(c, a))
            for b in range(1 << c.n):
                pb = co.reverse(c, t, PointSet(c, b))
                assert co.reverse(c, t, PointSet(c, a & b)).mask == (pa & pb).mask
                assert co.reverse(c, t, PointSet(c, a | b)).mask == (pa | pb).mask
                assert pa.parent is rev


def test_crossing_cap():
    big = co.antichain(config.MATRIX_CAP + 1)
    with pytest.raises(co.GroundSetTooLarge):
        co.has_crossing_property(big)


# ---------------------------------------------------------------------------
# PointSet basics
# ---------------------------------------------------------------------------

def test_point_set_operations(d4):
    u = d4.subset(["p", "q"])
    v = d4.subset(["q", "r"])
    assert (u & v).ids() == ("q",)
    assert set((u | v).ids()) == {"p", "q", "r"}
    assert (u - v).ids() == ("p",)
    assert "p" in u and "r" not in u
    assert len(u) == 2


def test_point_set_parent_mismatch(d4, chain3):
    with pytest.raises(ValueError):
        d4.subset(["p"]) & chain3.subset(["a"])


def test_point_set_mask_bounds(d4):
    for mask in (1 << 10, d4.full_mask + 1, -1):
        with pytest.raises(ValueError, match="membership mask exceeds the ground set"):
            PointSet(d4, mask)


def test_point_set_value_semantics(d4):
    # equal iff the same causality object and the same mask, hashed alike
    u, same = d4.subset(["p", "q"]), PointSet(d4, d4.mask_of(["q", "p"]))
    assert u == same and not u != same and hash(u) == hash(same)
    assert hash(u) == hash((d4, u.mask))
    other = co.diamond4()  # the same points and order, another object
    assert u != PointSet(other, u.mask) and u != d4.subset(["p"])
    assert u != u.mask and u != (d4, u.mask)
    assert same in {u} and {u: 1}[same] == 1 and PointSet(other, u.mask) not in {u}
    assert len({u, same, PointSet(d4, 0), PointSet(d4, 0)}) == 2
    assert repr(u) == "PointSet{p,q}" and repr(PointSet(d4, 0)) == "PointSet{}"
    assert u.parent is d4 and u.mask == 0b11
    for name in ("mask", "parent"):
        with pytest.raises(AttributeError):
            setattr(u, name, getattr(same, name))
    assert u.parent is d4 and u.mask == 0b11
