"""Classification, causal unions, and the algebra's laws.

The distributivity laws (intersection over causal union and vice versa)
are checked for what they actually do at finite scale: they fail, with
counterexamples as small as a three-point chain, because the causal union
is a closure and closures do not distribute over intersection.  The tests
freeze the failing triples and re-verify them with the naive oracle.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalorder as co
from causalorder import Direction, Kind, PointSet, SetClass, config
from causalorder.algebra import (
    _NONE,
    _bound_table,
    _class_code,
    _closed_union,
    _family_array,
    _law_counts,
    _member_pairs,
    _union_mask,
    _union_table,
    _vertex_groups,
    _vertex_sets,
    class_of_mask,
    family_masks,
)
from causalorder.order import _bound_meet

from conftest import (
    K66_LAW_COUNTS,
    NOT_DENSE_7_RELATION,
    below_one_top,
    complete_bipartite,
    k66,
    member_tables,
    naturally_labelled_posets,
    oracle_causal_union,
    oracle_class,
    oracle_complete,
    oracle_convergent,
    oracle_crossing,
    oracle_divergent,
    oracle_family,
    random_poset,
    reference_closure_axioms,
    reference_union_laws,
    relabelled,
    sprinkle12,
)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_spec_cases(d4):
    assert co.classify(d4, d4.subset(["p"])) is SetClass.BOTH
    assert co.classify(d4, d4.subset([])) is SetClass.BOTH
    assert co.classify(d4, d4.subset(["p", "q", "r"])) is SetClass.STRICTLY_DIVERGENT
    assert co.classify(d4, d4.subset(["q", "r"])) is SetClass.NEITHER
    assert co.classify(d4, d4.subset(["q", "r", "s"])) is SetClass.STRICTLY_CONVERGENT
    assert co.classify(d4, d4.full_set()) is SetClass.BOTH


def test_classify_star5_strict_set(l5):
    assert co.classify(l5, l5.subset(["m", "bl", "br"])) is SetClass.STRICTLY_CONVERGENT


def test_classify_matches_oracle(d4, l5):
    for c in (d4, l5):
        for mask in range(1 << c.n):
            u = PointSet(c, mask)
            assert co.classify(c, u).name.lower() == oracle_class(c, set(u.ids()))


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.floats(0.1, 0.7))
def test_classify_matches_oracle_random(seed, n, p_edge):
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    for mask in range(1 << n):
        u = PointSet(c, mask)
        assert co.classify(c, u).name.lower() == oracle_class(c, set(u.ids()))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(65, 80), st.floats(0.02, 0.3))
def test_per_mask_classifier_matches_oracle_above_64_points(seed, n, p_edge):
    # No class codes exist above ENUMERATION_CAP, so every answer here
    # comes from the per-mask tests, on masks wider than 64 bits.
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    z = int(rng.integers(60, n))
    window = (1 << z + 9) - (1 << z - 8)  # points z-8 .. z+8
    # z with up to three points below it, above it, or anywhere near it
    for rows in (c.pred_masks, c.succ_masks, [c.full_mask] * n):
        pool = [i for i in range(n) if rows[z] & window >> i & 1]
        picks = rng.choice(pool, size=min(3, len(pool)), replace=False)
        mask = 1 << z | c.mask_of(c.points[i] for i in picks)
        down = up = 0
        for i in co.order.bits(mask):
            down |= c.pred_masks[i]
            up |= c.succ_masks[i]
        for u in (PointSet(c, mask), PointSet(c, down & up)):  # as drawn, completed
            ids = set(u.ids())
            assert co.is_causally_complete(c, u) == oracle_complete(c, ids)
            assert co.is_convergent(c, u) == oracle_convergent(c, ids)
            assert co.is_divergent(c, u) == oracle_divergent(c, ids)
            assert co.classify(c, u).name.lower() == oracle_class(c, ids)
    assert "class_codes" not in c._derived


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumeration_matches_oracle(chain3, d4, l5):
    for c in (chain3, d4, l5):
        for kind, oracle_kind in [
            (Kind.CONVERGENT, "convergent"),
            (Kind.DIVERGENT, "divergent"),
            (Kind.BOTH, "both"),
            (Kind.STRICTLY_CONVERGENT, "strictly_convergent"),
            (Kind.STRICTLY_DIVERGENT, "strictly_divergent"),
        ]:
            got = {frozenset(u.ids()) for u in co.enumerate_causal_sets(c, kind)}
            assert got == set(oracle_family(c, oracle_kind))


def test_chain_has_no_strict_sets(chain3):
    assert co.enumerate_causal_sets(chain3, Kind.STRICTLY_CONVERGENT) == []
    assert co.enumerate_causal_sets(chain3, Kind.STRICTLY_DIVERGENT) == []


def test_enumeration_ascending_mask_order(d4):
    masks = [u.mask for u in co.enumerate_causal_sets(d4, Kind.CONVERGENT)]
    assert masks == sorted(masks)


def test_enumeration_both_appears_in_both_families(l33):
    both = set(u.mask for u in co.enumerate_causal_sets(l33, Kind.BOTH))
    conv = set(u.mask for u in co.enumerate_causal_sets(l33, Kind.CONVERGENT))
    div = set(u.mask for u in co.enumerate_causal_sets(l33, Kind.DIVERGENT))
    assert both <= conv and both <= div
    assert conv & div == both


def test_enumeration_cap():
    with pytest.raises(co.GroundSetTooLarge):
        co.enumerate_causal_sets(co.antichain(21), Kind.BOTH)


def test_enumeration_cap_checked_before_allocation():
    c = co.antichain(config.ENUMERATION_CAP + 1)
    tracemalloc.start()
    try:
        with pytest.raises(co.GroundSetTooLarge):
            family_masks(c, Kind.CONVERGENT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "class_codes" not in c._derived
    assert peak < 64 * 1024  # any table over the 2^21 subsets would show


@pytest.mark.parametrize("make", [lambda: co.grid(4, 5), lambda: co.antichain(20)],
                         ids=["grid45", "antichain20"])
def test_families_built_without_a_subset_table(make):
    """All five families come from the causal sets themselves: a 2^20-entry
    table over the subsets would peak at megabytes."""
    c = make()
    tracemalloc.start()
    try:
        for kind in Kind:
            family_masks(c, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("n", range(6))
def test_vertex_sets_are_the_families_on_every_small_poset(n):
    for c in naturally_labelled_posets(n):
        conv, div = set(oracle_family(c, "convergent")), set(oracle_family(c, "divergent"))
        want = {Kind.CONVERGENT: conv, Kind.DIVERGENT: div, Kind.BOTH: conv & div,
                Kind.STRICTLY_CONVERGENT: conv - div, Kind.STRICTLY_DIVERGENT: div - conv}
        for rows, cones, kind in ((c.succ_masks, c.pred_masks, Kind.CONVERGENT),
                                  (c.pred_masks, c.succ_masks, Kind.DIVERGENT)):
            sets = list(_vertex_sets(rows, cones))  # every nonempty set of the family
            assert len(sets) == len(set(sets))
            assert {frozenset(c.ids_of(m)) for m in [0, *sets]} == want[kind]
        for kind in Kind:
            assert {frozenset(c.ids_of(m)) for m in family_masks(c, kind)} == want[kind]


def test_class_of_mask_rejects_masks_outside_the_ground_set(d4):
    for built in (False, True):
        if built:
            family_masks(d4, Kind.CONVERGENT)
        for mask in (-1, -16, 1 << d4.n, d4.full_mask + 5):
            with pytest.raises(ValueError, match="exceeds the ground set"):
                class_of_mask(d4, mask)
        assert class_of_mask(d4, d4.full_mask) is SetClass.BOTH
    assert "class_codes" in d4._derived


def test_class_of_mask_takes_numpy_integers():
    # a mask read off a family array is a numpy integer: it classifies as
    # the int does, and one outside the ground set raises the same error
    c = co.chain(3)
    assert class_of_mask(c, np.uint64(3)) is class_of_mask(c, 3)
    assert class_of_mask(c, np.int64(5)) is class_of_mask(c, 5)
    with pytest.raises(ValueError, match="exceeds the ground set"):
        class_of_mask(c, np.uint64(8))


def _per_mask_table(c):
    return np.array([_class_code(c, m) for m in range(1 << c.n)], dtype=np.uint8)


def _table_after_families(c):
    """The class of every subset as class_of_mask reads it once the
    families, and with them the class codes, are built."""
    family_masks(c, Kind.CONVERGENT)
    assert "class_codes" in c._derived
    return np.array([class_of_mask(c, m).value for m in range(1 << c.n)], dtype=np.uint8)


@pytest.mark.parametrize("make", [
    lambda: co.grid(4, 4),
    co.star5,
    lambda: co.validate_causality([f"v{i}" for i in range(7)], np.array(NOT_DENSE_7_RELATION, dtype=bool)),
    lambda: co.antichain(12),
    lambda: co.chain(16),
    lambda: co.antichain(0),
    lambda: co.chain(1),
], ids=["grid44", "star5", "not_dense_7", "antichain12", "chain16", "n0", "n1"])
def test_class_table_equals_per_mask_codes(make):
    c = make()
    np.testing.assert_array_equal(_table_after_families(c), _per_mask_table(c))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.floats(0.0, 0.8))
def test_class_table_matches_oracle(seed, n, p_edge):
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    table = _table_after_families(c)
    for mask in range(1 << n):
        assert SetClass(int(table[mask])).name.lower() == oracle_class(c, set(c.ids_of(mask)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.floats(0.0, 0.8))
def test_family_masks_ascending_and_match_oracle(seed, n, p_edge):
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    for kind in Kind:
        masks = family_masks(c, kind)
        assert masks == sorted(masks)
        assert {frozenset(c.ids_of(m)) for m in masks} == set(oracle_family(c, kind.value))


def test_star5_strict_convergent_example(l5):
    strict = {frozenset(u.ids()) for u in co.enumerate_causal_sets(l5, Kind.STRICTLY_CONVERGENT)}
    assert frozenset({"m", "bl", "br"}) in strict


# ---------------------------------------------------------------------------
# Vertices
# ---------------------------------------------------------------------------

def test_vertex_examples(d4):
    assert co.vertex(d4, d4.subset(["q", "r", "s"]), Direction.UPPER) == "s"
    assert co.vertex(d4, d4.subset(["p", "q", "r"]), Direction.LOWER) == "p"
    assert co.vertex(d4, d4.subset(["q", "r"]), Direction.UPPER) is None
    assert co.vertex(d4, d4.subset([]), Direction.UPPER) is None


def test_vertex_unique_by_scan(l33):
    # oracle: a vertex is a member related to every member
    for mask in range(1 << l33.n):
        u = PointSet(l33, mask)
        ids = set(u.ids())
        uppers = [x for x in ids if all(l33.leq(y, x) for y in ids)]
        assert co.vertex(l33, u, Direction.UPPER) == (uppers[0] if uppers else None)


# ---------------------------------------------------------------------------
# Causal union
# ---------------------------------------------------------------------------

def test_union_examples(d4):
    a, b = d4.subset(["p", "q"]), d4.subset(["p", "r"])
    assert set(co.causal_union(d4, a, b, Kind.DIVERGENT).ids()) == {"p", "q", "r"}

    pqr = d4.subset(["p", "q", "r"])
    assert co.causal_union(d4, pqr, pqr, Kind.DIVERGENT).mask == pqr.mask

    qrs = d4.subset(["q", "r", "s"])
    assert co.causal_union(d4, qrs, pqr).mask == 0  # strict cross pair


def test_union_kind_matters(d4):
    q, r = d4.subset(["q"]), d4.subset(["r"])
    assert set(co.causal_union(d4, q, r, Kind.CONVERGENT).ids()) == {"q", "r", "s"}
    assert set(co.causal_union(d4, q, r, Kind.BOTH).ids()) == {"p", "q", "r", "s"}


def test_union_matches_oracle(chain3, d4, l5):
    for c in (chain3, d4, l5):
        for kind, name in [(Kind.CONVERGENT, "convergent"), (Kind.DIVERGENT, "divergent")]:
            fam = co.enumerate_causal_sets(c, kind)
            for a in fam:
                for b in fam:
                    want = oracle_causal_union(c, a.ids(), b.ids(), name)
                    try:
                        got = co.causal_union(c, a, b, kind)
                    except co.NoCausalSuperset:
                        assert want is None
                        continue
                    except co.NotClosed as exc:
                        # oracle intersection exists but is not of the kind
                        assert want is not None
                        assert oracle_class(c, want) not in _kind_names(name)
                        assert set(c.ids_of(exc.intersection_mask)) == set(want)
                        continue
                    assert want is not None and set(got.ids()) == set(want)


def _kind_names(name):
    return ("both", "strictly_" + name)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(0.1, 0.7))
def test_union_tables_match_oracle(seed, n, p_edge):
    """Every entry of the union and intersection tables against the
    per-pair oracle union, defined or not."""
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    for kind in (Kind.CONVERGENT, Kind.DIVERGENT):
        family = oracle_family(c, kind.value)
        fam, meets, u_idx, i_idx = member_tables(c, kind)
        sets = [frozenset(c.ids_of(int(m))) for m in fam]
        assert set(sets) == set(family) and len(sets) == len(family)
        index = {u: i for i, u in enumerate(sets)}
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                want = oracle_causal_union(c, a, b, kind.value, family)
                if want is None:
                    assert meets[i, j] == _NONE and u_idx[i, j] == -1
                else:
                    assert frozenset(c.ids_of(int(meets[i, j]))) == want
                    assert u_idx[i, j] == index.get(want, -1)
                assert i_idx[i, j] == index.get(a & b, -1)


def _check_bound_table(c):
    """_bound_table against the kernel, pair by pair, on both sides."""
    for side in (Direction.UPPER, Direction.LOWER):
        table = _bound_table(c, side)
        assert table.shape == (c.n + 1, c.n + 1)
        assert table[c.n, c.n] == 0  # ∅ ∪ ∅ = ∅
        for v in range(c.n):
            # every point bounds ∅: the meet for v alone, its cone
            cone = _bound_meet(c, 1 << v, side)[1]
            assert table[v, c.n] == table[c.n, v] == cone, (side, v)
            for w in range(c.n):
                bounds, meet, _ = _bound_meet(c, 1 << v | 1 << w, side)
                assert table[v, w] == (meet if bounds else _NONE), (side, v, w)


def test_bound_table_equals_the_kernel_on_every_small_poset():
    for n in range(6):
        for c in naturally_labelled_posets(n):
            _check_bound_table(c)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.0, 0.7))
def test_bound_table_equals_the_kernel_on_relabelled_posets(seed, n, p_edge):
    rng = np.random.default_rng(seed)
    _check_bound_table(relabelled(random_poset(n, p_edge, rng), rng))


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_bound_table_of_an_antichain(n):
    # a point is its own one bound; two distinct points have none; with
    # ∅ a point's meet is its cone, itself, and ∅ with ∅ gives ∅
    c = co.antichain(n)
    want = np.full((n + 1, n + 1), _NONE)
    want[range(n), range(n)] = want[range(n), n] = want[n, range(n)] = [1 << v for v in range(n)]
    want[n, n] = 0
    for side in (Direction.UPPER, Direction.LOWER):
        assert np.array_equal(_bound_table(c, side), want)
    _check_bound_table(c)


def _check_closed_form(c, pairs):
    """_closed_union of each mask pair (a, b) in each union kind equals the
    oracle's intersection of every kind-superset of a | b: the result
    mask, or the exception type and NotClosed's mask."""
    subsets = [frozenset(c.ids_of(m)) for m in range(1 << c.n)]
    classes = {u: oracle_class(c, u) for u in subsets}
    for kind in (Kind.CONVERGENT, Kind.DIVERGENT, Kind.BOTH):
        family = [u for u in subsets if classes[u] in _OPERANDS[kind.value]]
        for a, b in pairs:
            want = oracle_causal_union(c, subsets[a], subsets[b], kind.value, family)
            if want is None:
                want = "NoCausalSuperset", None
            elif classes[want] in _OPERANDS[kind.value]:
                want = "ok", c.mask_of(want)
            else:
                want = "NotClosed", c.mask_of(want)
            got = _closed_union(c, a, b, kind)
            if type(got) is int:
                got = "ok", got
            else:
                got = got[0].__name__, got[1][1] if got[0] is co.NotClosed else None
            assert got == want, (c.relation.tolist(), a, b, kind)


def test_closed_form_union_on_every_small_poset():
    # every poset up to 5 points up to isomorphism, every a | b
    for n in range(6):
        for c in naturally_labelled_posets(n):
            _check_closed_form(c, [(x, 0) for x in range(1 << n)])


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.floats(0.0, 0.8))
def test_closed_form_union_matches_oracle(seed, n, p_edge):
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    members = [m for kind in (Kind.CONVERGENT, Kind.DIVERGENT) for m in family_masks(c, kind)]
    draws = rng.integers(0, len(members), size=(40, 2))
    pairs = [(members[i], members[j]) for i, j in draws]
    pairs += [tuple(map(int, p)) for p in rng.integers(0, 1 << n, size=(20, 2))]
    _check_closed_form(c, pairs)


# ---------------------------------------------------------------------------
# Public query path against the oracles, cold and warm
# ---------------------------------------------------------------------------

_UNION_KINDS = (Kind.CONVERGENT, Kind.DIVERGENT, Kind.BOTH, None)
_OPERANDS = {  # the operand classes each union kind accepts
    "convergent": ("strictly_convergent", "both"),
    "divergent": ("strictly_divergent", "both"),
    "both": ("both",),
}


def _oracle_union(c, a, b, kind, classes, families):
    """What causal_union returns or raises, straight off the definitions:
    ("ok", mask) or (exception name, message, NotClosed's mask)."""
    cls_a, cls_b = classes[a], classes[b]
    if {cls_a, cls_b} == {"strictly_convergent", "strictly_divergent"}:
        return "ok", 0
    if kind is None:
        if "neither" in (cls_a, cls_b):
            return "ValueError", "causal union operands must be causal sets", None
        kind = ("both" if cls_a == cls_b == "both"
                else "convergent" if "strictly_convergent" in (cls_a, cls_b) else "divergent")
    else:
        kind = kind.value
    if cls_a not in _OPERANDS[kind] or cls_b not in _OPERANDS[kind]:
        return ("ValueError", f"operand classes {cls_a.upper()}, {cls_b.upper()} "
                f"are not compatible with kind {kind.upper()}", None)
    want = oracle_causal_union(c, a, b, kind, families[kind])
    if want is None:
        return "NoCausalSuperset", f"no {kind} set contains {sorted([*a, *b])}", None
    if classes[want] not in _OPERANDS[kind]:
        return ("NotClosed", f"the intersection of all {kind} supersets is not {kind}",
                c.mask_of(want))
    return "ok", c.mask_of(want)


def _oracle_intersect(c, a, b, classes, crossing):
    inter = a & b
    for kind in ("convergent", "divergent"):
        ok = _OPERANDS[kind]
        if classes[a] in ok and classes[b] in ok and classes[inter] not in ok and crossing:
            return ("TheoremViolation", f"crossing property holds but {c.ids_of(c.mask_of(a))} ∩ "
                    f"{c.ids_of(c.mask_of(b))} is not {kind}", None)
    return "ok", (c.mask_of(inter), classes[inter])


def _answer(call):
    """A query's outcome in the oracle's form."""
    try:
        out = call()
    except (ValueError, co.CausalOrderError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "intersection_mask", None)
    if isinstance(out, PointSet):
        return "ok", out.mask
    if isinstance(out, SetClass):
        return "ok", out.name.lower()
    return "ok", (out[0].mask, out[1].name.lower())


def _random_queries(c, families, rng, count=12):
    """(op, a, b, kind) with masks a and b: members of each oracle family,
    mixed with arbitrary subsets."""
    pools = [[c.mask_of(u) for u in fam] for fam in families.values()]
    pools.append(list(range(1 << c.n)))

    def draw():
        pool = pools[rng.integers(len(pools))]
        return pool[rng.integers(len(pool))]

    out = [("classify", draw(), 0, None) for _ in range(count)]
    out += [("intersect", draw(), draw(), None) for _ in range(count)]
    out += [("union", draw(), draw(), kind) for kind in _UNION_KINDS for _ in range(count)]
    return out


def _all_queries(c, families):
    """Every subset classified; every ordered pair of family members
    intersected and united in every union kind."""
    members = sorted({c.mask_of(u) for fam in families.values() for u in fam})
    out = [("classify", m, 0, None) for m in range(1 << c.n)]
    out += [("intersect", a, b, None) for a in members for b in members]
    out += [("union", a, b, kind) for kind in _UNION_KINDS for a in members for b in members]
    return out


def _run(c, queries):
    calls = {
        "classify": lambda a, b, kind: co.classify(c, PointSet(c, a)),
        "intersect": lambda a, b, kind: co.intersect_causal(c, PointSet(c, a), PointSet(c, b)),
        "union": lambda a, b, kind: co.causal_union(c, PointSet(c, a), PointSet(c, b), kind),
    }
    return [_answer(lambda: calls[op](a, b, kind)) for op, a, b, kind in queries]


def _check_public_queries(make, pick):
    """The answers to the queries ``pick(c, families)`` lists equal the
    oracle's on a fresh causality cold, then warm, then on another fresh
    one whose union cache verify_union_laws and _union_mask filled first.
    Returns the oracle's answers."""
    cold = make()
    subsets = {m: frozenset(cold.ids_of(m)) for m in range(1 << cold.n)}
    classes = {u: oracle_class(cold, u) for u in subsets.values()}
    families = {k: oracle_family(cold, k) for k in _OPERANDS}
    crossing = oracle_crossing(cold)
    queries = pick(cold, families)
    want = []
    for op, a, b, kind in queries:
        a, b = subsets[a], subsets[b]
        if op == "classify":
            want.append(("ok", classes[a]))
        elif op == "intersect":
            want.append(_oracle_intersect(cold, a, b, classes, crossing))
        else:
            want.append(_oracle_union(cold, a, b, kind, classes, families))
    assert _run(cold, queries) == want
    assert _run(cold, queries) == want  # warm: every union answer is cached
    filled = make()
    co.verify_union_laws(filled)
    for _, a, b, _ in queries:
        for kind in (Kind.CONVERGENT, Kind.DIVERGENT, Kind.BOTH):
            _union_mask(filled, a, b, kind)
    assert _run(filled, queries) == want
    return want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.floats(0.0, 0.8))
def test_public_queries_match_oracle_on_random_posets(seed, n, p_edge):
    _check_public_queries(
        lambda: random_poset(n, p_edge, np.random.default_rng(seed)),
        lambda c, families: _random_queries(c, families, np.random.default_rng(seed + 1)))


def _named(c, outcome):
    """An outcome of _answer or _oracle_union with its masks as point ids."""
    return tuple(c.ids_of(v) if type(v) is int else v for v in outcome)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(65, 80), st.integers(1, 8), st.floats(0.0, 0.8))
def test_unions_match_oracle_above_64_points(seed, n, k, p_edge):
    """causal_union and classify on n = 65-80 points, where no class codes
    exist: the operand classes come from the per-mask tests and the
    union from the closed form, on masks wider than 64 bits.  The top k
    points form a random poset P that no lower point is related to, so a
    set of the kind holding a subset of P meets P in one, and the oracle
    answers on P alone."""
    rng = np.random.default_rng(seed)
    part = random_poset(k, p_edge, rng)
    rel = np.zeros((n, n), dtype=bool)
    rel[:n - k, :n - k] = random_poset(n - k, 0.1, rng).relation
    rel[n - k:, n - k:] = part.relation
    c = co.validate_causality([f"u{i}" for i in range(n - k)] + list(part.points), rel)
    classes = {u: oracle_class(part, u) for u in map(frozenset, map(part.ids_of, range(1 << k)))}
    families = {kind: oracle_family(part, kind) for kind in _OPERANDS}
    queries = [q for q in _random_queries(part, families, rng) if q[0] != "intersect"]
    want = []
    for op, a, b, kind in queries:
        a, b = frozenset(part.ids_of(a)), frozenset(part.ids_of(b))
        want.append(("ok", classes[a]) if op == "classify"
                    else _oracle_union(part, a, b, kind, classes, families))
    shifted = [(op, a << n - k, b << n - k, kind) for op, a, b, kind in queries]
    assert [_named(c, w) for w in _run(c, shifted)] == [_named(part, w) for w in want]
    assert "class_codes" not in c._derived


@pytest.mark.parametrize("make, outcomes", [
    (lambda: co.chain(3), {"ok"}),
    (co.diamond4, {"ok", "ValueError"}),
    (co.star5, {"ok", "ValueError", "NoCausalSuperset"}),
    (lambda: co.grid(3, 3), {"ok", "ValueError"}),
    (lambda: co.antichain(3), {"ok", "NoCausalSuperset"}),
    (lambda: co.validate_causality([f"v{i}" for i in range(7)],
                                   np.array(NOT_DENSE_7_RELATION, dtype=bool)),
     {"ok", "ValueError", "NoCausalSuperset", "NotClosed"}),
], ids=["chain3", "d4", "l5", "l33", "anti3", "not_dense_7"])
def test_public_queries_match_oracle_on_fixtures(make, outcomes):
    want = _check_public_queries(make, _all_queries)
    assert {answer[0] for answer in want} == outcomes


def test_warm_queries_compute_nothing(l33, monkeypatch):
    # once the families are listed, a replayed mix of unions, classifies
    # and intersects is answered from the class codes and the store of
    # union answers alone, and the store keeps masks, not PointSets
    for kind in Kind:
        co.enumerate_causal_sets(l33, kind)
    families = {k: oracle_family(l33, k) for k in _OPERANDS}
    queries = _random_queries(l33, families, np.random.default_rng(3), count=40) * 2
    calls = dict.fromkeys(["_closed_union", "_class_code", "_class_codes"], 0)
    for name in calls:
        def spy(*args, _name=name, _fn=getattr(co.algebra, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(co.algebra, name, spy)
    cold = _run(l33, queries)
    assert calls["_closed_union"] > 0
    calls.update(dict.fromkeys(calls, 0))
    assert _run(l33, queries) == cold
    assert calls == dict.fromkeys(calls, 0)
    assert not [v for v in l33._derived.values() if isinstance(v, PointSet)]


@pytest.mark.parametrize("fixture", ["chain3", "d4", "l5", "l33", "anti3", "not_dense_7"])
def test_union_mask_and_causal_union_share_answers(fixture, request):
    c = request.getfixturevalue(fixture)
    for kind in (Kind.CONVERGENT, Kind.DIVERGENT, Kind.BOTH):
        fam = co.enumerate_causal_sets(c, kind)
        for i, a in enumerate(fam):
            for j, b in enumerate(fam):
                first_mask = (i + j) % 2 == 0  # either call may fill the entry
                mask = _union_mask(c, a.mask, b.mask, kind) if first_mask else None
                try:
                    got = co.causal_union(c, a, b, kind).mask
                except (co.NoCausalSuperset, co.NotClosed):
                    got = None
                if not first_mask:
                    mask = _union_mask(c, a.mask, b.mask, kind)
                assert mask == got


def test_family_array_built_on_first_use(l33):
    # a family is stored once, as one read-only uint64 array under
    # ("family", kind): listing it builds that array, which every later
    # read hands back as the same object
    for kind in Kind:
        listed = [s.mask for s in co.enumerate_causal_sets(l33, kind)]
        arr = l33._derived["family", kind]
        assert [key for key in l33._derived if key[1:] == (kind,)] == [("family", kind)]
        assert arr.dtype == np.uint64 and arr.tolist() == listed == family_masks(l33, kind)
        assert _family_array(l33, kind) is arr
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_derived_data_kept_only_in_the_store(l33):
    c = l33
    attrs = set(vars(c))
    assert {a for a in attrs if a.startswith("_")} == {"_derived"}
    rev = co.reverse_structure(c)
    co.has_crossing_property(c)
    co.verify_union_laws(c)
    co.verify_algebra_axioms(c)
    co.verify_reversal_theorem(c)
    measure = co.constant_measure(c)
    co.verify_measure_axioms(c, measure)
    co.check_monotonicity(c, measure)
    co.reconstruct_order(c)
    fam = co.enumerate_causal_sets(c, Kind.DIVERGENT)
    for _ in range(2):  # cold, then warm
        for a in fam[:6]:
            for b in fam[-6:]:
                co.classify(c, a)
                co.intersect_causal(c, a, b)
                try:
                    co.causal_union(c, a, b, Kind.DIVERGENT)
                except (co.NoCausalSuperset, co.NotClosed):
                    pass
    assert set(vars(c)) == attrs and set(vars(rev)) == attrs


def _traceback_depth(exc):
    depth, tb = 0, exc.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


@pytest.mark.parametrize("fixture, a, b, kind, error", [
    ("l5", ["tl"], ["tr"], Kind.CONVERGENT, co.NoCausalSuperset),
    ("not_dense_7", ["v0"], ["v1"], Kind.CONVERGENT, co.NotClosed),
])
def test_undefined_union_raises_fresh_instances(fixture, a, b, kind, error, request):
    c = request.getfixturevalue(fixture)
    raised = []
    for _ in range(3):
        with pytest.raises(error) as info:
            co.causal_union(c, c.subset(a), c.subset(b), kind)
        raised.append(info.value)
    assert len({id(exc) for exc in raised}) == 3
    assert len({_traceback_depth(exc) for exc in raised}) == 1
    assert len({str(exc) for exc in raised}) == 1
    assert len({getattr(exc, "intersection_mask", None) for exc in raised}) == 1


def test_union_no_superset_on_star5(l5):
    with pytest.raises(co.NoCausalSuperset):
        co.causal_union(l5, l5.subset(["tl"]), l5.subset(["tr"]), Kind.CONVERGENT)


def test_union_incompatible_kind(d4):
    pqr = d4.subset(["p", "q", "r"])  # strictly divergent
    with pytest.raises(ValueError):
        co.causal_union(d4, pqr, pqr, Kind.CONVERGENT)
    with pytest.raises(ValueError):
        co.causal_union(d4, pqr, d4.subset(["p"]), Kind.BOTH)


def test_union_rejects_non_causal_operand(d4):
    qr = d4.subset(["q", "r"])  # neither
    with pytest.raises(ValueError):
        co.causal_union(d4, qr, qr)


def test_union_result_minimal(chain3, d4, l5):
    # no proper subset containing a | b has the kind
    for c in (chain3, d4, l5):
        for kind in (Kind.CONVERGENT, Kind.DIVERGENT):
            fam = co.enumerate_causal_sets(c, kind)
            members = {u.mask for u in fam}
            for a in fam:
                for b in fam:
                    try:
                        got = co.causal_union(c, a, b, kind)
                    except (co.NoCausalSuperset, co.NotClosed):
                        continue
                    target = a.mask | b.mask
                    for m in members:
                        if m != got.mask and (m & target) == target:
                            assert (got.mask & m) != m or got.mask == m, (
                                "smaller superset of the kind exists"
                            )


def test_union_monotone(d4):
    fam = co.enumerate_causal_sets(d4, Kind.DIVERGENT)
    for a in fam:
        for a2 in fam:
            if not a.issubset(a2):
                continue
            for b in fam:
                try:
                    u1 = co.causal_union(d4, a, b, Kind.DIVERGENT)
                    u2 = co.causal_union(d4, a2, b, Kind.DIVERGENT)
                except (co.NoCausalSuperset, co.NotClosed):
                    continue
                assert u1.issubset(u2)


# ---------------------------------------------------------------------------
# Intersection theorem
# ---------------------------------------------------------------------------

def test_intersection_examples(d4):
    inter, cls = co.intersect_causal(d4, d4.subset(["p", "q", "r"]), d4.subset(["p", "q"]))
    assert set(inter.ids()) == {"p", "q"} and cls is SetClass.BOTH
    inter, cls = co.intersect_causal(d4, d4.subset(["p", "q"]), d4.subset([]))
    assert inter.mask == 0 and cls is SetClass.BOTH


@pytest.mark.parametrize("a, b", [(["p", "q"], ["q", "r"]), (["s"], ["s"])])
def test_intersection_rejects_operands_of_another_causality(d4, a, b):
    # the first pair used to return a set of d4 classified in chain(3),
    # the second an IndexError
    with pytest.raises(ValueError, match="operands must belong to this causality"):
        co.intersect_causal(co.chain(3), d4.subset(a), d4.subset(b))


_NOT_OWNED = "point set does not belong to this causality"
_NOT_A_PAIR = "is not a ribbon pair over"
_NOT_MEASURED = "measure does not belong to this causality"

_D4, _L33, _CHAIN3 = co.diamond4(), co.grid(3, 3), co.chain(3)
_STAR5_PAIR = co.ribbon(co.star5(), "m").pairs[0]
_L33_PAIR = co.ribbon(_L33, "11").pairs[0]  # over 11, not over 01

# each call hands a function an object of another causality, or a pair
# that is no ribbon pair over the point named; the comment says what the
# call did instead of raising ValueError
_FOREIGN_CALLS = {
    # IndexError: the grid's 9-bit masks index the diamond's 4 rows
    "vertex": (lambda: co.vertex(_D4, _L33.full_set(), Direction.UPPER), _NOT_OWNED),
    "is_causally_complete": (lambda: co.is_causally_complete(_D4, _L33.full_set()), _NOT_OWNED),
    "is_convergent": (lambda: co.is_convergent(_D4, _L33.full_set()), _NOT_OWNED),
    "is_divergent": (lambda: co.is_divergent(_D4, _L33.full_set()), _NOT_OWNED),
    "classify": (lambda: co.classify(_D4, _L33.full_set()), _NOT_OWNED),
    # {00, 01}: the diamond's p and q read as the grid's 00 and 01
    "causal_union": (
        lambda: co.causal_union(_L33, _D4.subset(["p"]), _D4.subset(["q"]), Kind.DIVERGENT),
        "operands must belong to this causality"),
    # True: read as the grid's points 01 and 02, which are related
    "is_convergent-smaller": (lambda: co.is_convergent(_L33, _D4.subset(["q", "r"])), _NOT_OWNED),
    # False, as if the star's pair were the grid's
    "is_dense": (lambda: co.is_dense(_L33, "11", _STAR5_PAIR), _NOT_OWNED),
    "congruent": (lambda: co.congruent(_L33, "11", _STAR5_PAIR, _STAR5_PAIR), _NOT_OWNED),
    # answers for a pair over 11 as if it were over 01
    "is_dense-other-point": (lambda: co.is_dense(_L33, "01", _L33_PAIR), _NOT_A_PAIR),
    "congruent-other-point": (lambda: co.congruent(_L33, "01", _L33_PAIR, _L33_PAIR), _NOT_A_PAIR),
    # numpy's argmin error: ({11}, {11}) has components of both kinds
    "is_dense-not-strict": (
        lambda: co.is_dense(_L33, "11", co.RibbonPair(_L33.subset(["11"]), _L33.subset(["11"]))),
        _NOT_A_PAIR),
    # "holds", and a report, for the measure of another chain(3) instance
    "check_monotonicity": (
        lambda: co.check_monotonicity(_CHAIN3, co.constant_measure(co.chain(3))), _NOT_MEASURED),
    "verify_measure_axioms": (
        lambda: co.verify_measure_axioms(_CHAIN3, co.constant_measure(co.chain(3))),
        _NOT_MEASURED),
    # inf, 1.0 and 0.0, read off the grid's mask
    "outer_measure_value": (
        lambda: co.outer_measure_value(_D4, co.constant_measure(_D4), _L33.full_set()), _NOT_OWNED),
    "inner_measure_value": (
        lambda: co.inner_measure_value(_D4, co.constant_measure(_D4), _L33.full_set()), _NOT_OWNED),
    "formal_entropy": (
        lambda: co.formal_entropy(_D4, co.constant_measure(_D4), _L33.full_set()), _NOT_OWNED),
    "formal_entropy-measure": (
        lambda: co.formal_entropy(_D4, co.constant_measure(co.diamond4()), _D4.subset(["p"])),
        _NOT_MEASURED),
}


@pytest.mark.parametrize("name", _FOREIGN_CALLS)
def test_queries_reject_objects_of_another_causality(name):
    call, message = _FOREIGN_CALLS[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_intersection_above_crossing_cap():
    # the theorem needs no crossing scan when the intersection stays in
    # the family, so the scan's cap does not apply
    c = co.chain(config.MATRIX_CAP + 1)
    inter, cls = co.intersect_causal(c, c.subset(["0"]), c.subset(["1"]))
    assert inter.mask == 0 and cls is SetClass.BOTH
    inter, cls = co.intersect_causal(c, c.subset(["0", "1"]), c.subset(["1", "2"]))
    assert inter.ids() == ("1",) and cls is SetClass.BOTH


def test_intersection_may_leave_family_without_crossing():
    # x, y below z and w: no crossing property, and two convergent sets
    # whose intersection is not convergent
    c = co.from_cover_pairs(
        ["x", "y", "z", "w"], [("x", "z"), ("y", "z"), ("x", "w"), ("y", "w")]
    )
    assert not co.has_crossing_property(c).holds
    inter, cls = co.intersect_causal(c, c.subset(["x", "y", "z"]), c.subset(["x", "y", "w"]))
    assert inter.ids() == ("x", "y") and cls is SetClass.NEITHER


def test_intersection_leaving_family_on_65_points():
    # the poset above plus 61 isolated points: the crossing scan it needs
    # runs below MATRIX_CAP, where 64 points used to raise GroundSetTooLarge
    points = ["x", "y", "z", "w"] + [f"i{k}" for k in range(61)]
    c = co.from_cover_pairs(points, [("x", "z"), ("y", "z"), ("x", "w"), ("y", "w")])
    assert c.n == 65
    inter, cls = co.intersect_causal(c, c.subset(["x", "y", "z"]), c.subset(["x", "y", "w"]))
    assert inter.ids() == ("x", "y") and cls is SetClass.NEITHER


def test_intersection_never_violates_on_crossing_fixtures(chain3, d4, l5, l33, anti3):
    for c in (chain3, d4, l5, l33, anti3):
        assert co.has_crossing_property(c).holds
        for kind in (Kind.CONVERGENT, Kind.DIVERGENT):
            fam = co.enumerate_causal_sets(c, kind)
            for a in fam:
                for b in fam:
                    co.intersect_causal(c, a, b)  # must not raise


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.floats(0.1, 0.7))
def test_intersection_never_violates_on_random_crossing_posets(seed, n, p_edge):
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    if not co.has_crossing_property(c).holds:
        return
    fam = co.enumerate_causal_sets(c, Kind.CONVERGENT)
    for a in fam:
        for b in fam:
            co.intersect_causal(c, a, b)


def _bowtie(n):
    """n - 4 isolated points, then x, y below z and w: no crossing, and a
    crossing scan reaches its failing pair x, y last."""
    points = [f"i{k}" for k in range(n - 4)] + ["x", "y", "z", "w"]
    return co.from_cover_pairs(points, [("x", "z"), ("y", "z"), ("x", "w"), ("y", "w")])


@pytest.mark.parametrize("n", [config.MATRIX_CAP, config.MATRIX_CAP + 1])
def test_intersection_reads_no_crossing_scan(n):
    # the intersection leaves the convergent family of both operands; it
    # used to run the crossing scan (and past MATRIX_CAP raise
    # GroundSetTooLarge), though the answer is the intersection's class
    c = _bowtie(n)
    inter, cls = co.intersect_causal(c, c.subset(["x", "y", "z"]), c.subset(["x", "y", "w"]))
    assert (inter.ids(), cls) == (("x", "y"), SetClass.NEITHER)
    assert "crossing" not in c._derived


_CLOSURE_LAWS = [f"{law}[{kind}]" for kind in ("convergent", "divergent")
                 for law in ("intersection-closure", "causal-union-closure")]
_FAMILY_CLASSES = {Kind.CONVERGENT: ("both", "strictly_convergent"),
                   Kind.DIVERGENT: ("both", "strictly_divergent")}


def _split_by_minimal_bounds(c, x, y, rel):
    """intersect_causal's construction: for x and y unrelated with common
    upper bounds (under ``rel``) but no join, the sets ↑{x, y} ∩ ↓m for
    two minimal common upper bounds m, as id sets."""
    i, j = c.index[x], c.index[y]
    up = rel[i] | rel[j]
    bounds = np.flatnonzero(rel[i] & rel[j])
    minimal = [m for m in bounds if not any(rel[b, m] and b != m for b in bounds)]
    assert len(minimal) >= 2  # one minimal bound would be the join
    return [frozenset(c.ids_of(sum(1 << int(k) for k in np.flatnonzero(up & rel[:, m]))))
            for m in minimal[:2]]


def _check_crossing_is_closure(c):
    """Each closure verdict of verify_algebra_axioms, and the crossing
    verdict of the reversed order, equals the crossing verdict.  With
    crossing, every intersection of two members of a family is in it
    (by the oracle); without, the constructions in intersect_causal and
    verify_algebra_axioms give the failing sets in both families."""
    crossing = co.has_crossing_property(c)
    axioms = co.verify_algebra_axioms(c)
    assert [axioms.result(law).verdict for law in _CLOSURE_LAWS] == \
        ["holds" if crossing.holds else "fails"] * 4
    rev = co.reverse_structure(c)
    dual = co.has_crossing_property(rev)
    assert dual.holds == crossing.holds
    if crossing.holds:
        for kind, ok in _FAMILY_CLASSES.items():
            fam = family_masks(c, kind)
            meets = {a & b for a in fam for b in fam}
            assert all(oracle_class(c, c.ids_of(m)) in ok for m in meets)
        return
    for (x, y, _, _), rel, kind in ((crossing.witness, c.relation, Kind.CONVERGENT),
                                    (dual.witness, c.relation.T, Kind.DIVERGENT)):
        s1, s2 = _split_by_minimal_bounds(c, x, y, rel)
        ok = _FAMILY_CLASSES[kind]
        assert oracle_class(c, s1) in ok and oracle_class(c, s2) in ok
        assert oracle_class(c, s1 & s2) not in ok
        with pytest.raises(co.NotClosed):
            co.causal_union(c, c.subset([x]), c.subset([y]), kind)


def test_crossing_is_closure_on_every_small_poset():
    verdicts = set()
    for n in range(6):
        for c in naturally_labelled_posets(n):
            _check_crossing_is_closure(c)
            verdicts.add(co.has_crossing_property(c).holds)
    assert verdicts == {True, False}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 8), st.floats(0.1, 0.7))
def test_crossing_is_closure_on_relabelled_posets(seed, n, p_edge):
    rng = np.random.default_rng(seed)
    _check_crossing_is_closure(relabelled(random_poset(n, p_edge, rng), rng))


# ---------------------------------------------------------------------------
# Union laws
# ---------------------------------------------------------------------------

def _law(report, name):
    return report.result(name)


def test_laws_containment_idempotence_associativity_reversal(chain3, d4, l5, l33):
    for c in (chain3, d4, l5, l33):
        report = co.verify_union_laws(c)
        for tag in ("convergent", "divergent"):
            for law in ("I", "II", "III"):
                res = _law(report, f"{law}[{tag}]")
                assert res.verdict == "holds", (c, res.law, res.counterexample)


def test_distributivity_laws_fail_with_reevaluable_counterexamples(chain3):
    """The closure does not distribute over intersection: the smallest
    convergent superset of {a} and {c} on a three-chain must contain b by
    completeness, but both intersections with {b} are empty."""
    report = co.verify_union_laws(chain3)
    for tag in ("convergent", "divergent"):
        kind = Kind.CONVERGENT if tag == "convergent" else Kind.DIVERGENT

        res = _law(report, f"IV[{tag}]")
        assert res.verdict == "fails"
        ce = res.counterexample
        a, b, cc = (chain3.subset(ce[k]) for k in ("a", "b", "c"))
        lhs = cc & co.causal_union(chain3, a, b, kind)
        rhs = co.causal_union(chain3, cc & a, cc & b, kind)
        assert lhs.mask != rhs.mask

        res = _law(report, f"V[{tag}]")
        assert res.verdict == "fails"
        ce = res.counterexample
        a, b, cc = (chain3.subset(ce[k]) for k in ("a", "b", "c"))
        lhs = co.causal_union(chain3, a, b & cc, kind)
        rhs = co.causal_union(chain3, a, b, kind) & co.causal_union(chain3, a, cc, kind)
        assert lhs.mask != rhs.mask


def test_distributivity_inclusions_hold_on_crossing_fixtures(chain3, d4, l33):
    # the direction the closure arguments do give:
    #   (C∩A) ∪c (C∩B)  ⊆  C ∩ (A ∪c B)      and
    #   A ∪c (B∩C)      ⊆  (A ∪c B) ∩ (A ∪c C)
    for c in (chain3, d4, l33):
        for kind in (Kind.CONVERGENT, Kind.DIVERGENT):
            fam = co.enumerate_causal_sets(c, kind)
            members = {u.mask for u in fam}
            unions = {}

            def union(a, b):
                # each public causal_union once per mask pair; None if undefined
                key = (a.mask, b.mask)
                if key not in unions:
                    try:
                        unions[key] = co.causal_union(c, a, b, kind)
                    except (co.NoCausalSuperset, co.NotClosed):
                        unions[key] = None
                return unions[key]

            for a in fam:
                for b in fam:
                    u_ab = union(a, b)
                    if u_ab is None:
                        continue
                    for k3 in fam:
                        if (k3.mask & a.mask) in members and (k3.mask & b.mask) in members:
                            rhs = union(k3 & a, k3 & b)
                            if rhs is not None:
                                assert rhs.issubset(k3 & u_ab)
                        if (b.mask & k3.mask) in members:
                            lhs, u_ac = union(a, b & k3), union(a, k3)
                            if lhs is not None and u_ac is not None:
                                assert lhs.issubset(u_ab & u_ac)


_ALL_KINDS = (Kind.CONVERGENT, Kind.DIVERGENT, Kind.BOTH)


def _check_associativity_counts(c):
    report = co.verify_union_laws(c, _ALL_KINDS)
    want = reference_union_laws(c, _ALL_KINDS)
    for kind in _ALL_KINDS:
        res = report.result(f"III[{kind.value}]")
        assert (res.verdict, res.checked, res.skipped) == want[res.law], (kind, c.relation.tolist())


@pytest.mark.parametrize("fixture", ["chain3", "d4", "l5", "l33"])
def test_associativity_counts_equal_the_scan(fixture, request):
    _check_associativity_counts(request.getfixturevalue(fixture))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.floats(0.0, 0.8))
def test_associativity_counts_equal_the_scan_on_random_posets(seed, n, p_edge):
    _check_associativity_counts(random_poset(n, p_edge, np.random.default_rng(seed)))


def _reevaluate(c, res):
    """A failing union-law or closure result re-evaluated through the
    public causal_union and &: the sides of IV or V differ with every
    union defined; the intersection of two members leaves the family;
    the union of two members raises NotClosed carrying the reported
    mask."""
    law, _, tag = res.law.rstrip("]").partition("[")
    kind, ce = Kind(tag), res.counterexample
    a, b = c.subset(ce["a"]), c.subset(ce["b"])
    if law == "IV":
        cc = c.subset(ce["c"])
        lhs = cc & co.causal_union(c, a, b, kind)
        assert lhs.mask != co.causal_union(c, cc & a, cc & b, kind).mask
    elif law == "V":
        cc = c.subset(ce["c"])
        rhs = co.causal_union(c, a, b, kind) & co.causal_union(c, a, cc, kind)
        assert co.causal_union(c, a, b & cc, kind).mask != rhs.mask
    elif law == "intersection-closure":
        ok = {s.upper() for s in _FAMILY_CLASSES[kind]}
        assert co.classify(c, a).name in ok and co.classify(c, b).name in ok
        assert co.classify(c, a & b).name not in ok
        assert (a & b).ids() == tuple(ce["intersection"])
    else:
        assert law == "causal-union-closure", res.law
        with pytest.raises(co.NotClosed) as caught:
            co.causal_union(c, a, b, kind)
        assert caught.value.intersection_mask == c.mask_of(ce["intersection_of_supersets"])


def _check_laws_against_the_scans(c):
    """Every verdict and count of the union laws (all three kinds) and of
    the closure axioms equals the reference scans', and every reported
    failure re-evaluates as one."""
    laws = co.verify_union_laws(c, _ALL_KINDS).results
    closures = co.verify_algebra_axioms(c).results[:4]
    got = {r.law: (r.verdict, r.checked, r.skipped) for r in laws + closures}
    want = {**reference_union_laws(c, _ALL_KINDS), **reference_closure_axioms(c)}
    assert got == want, c.relation.astype(int).tolist()
    for res in laws + closures:
        if res.verdict == "fails":
            _reevaluate(c, res)
    return {r.law: r.verdict for r in laws + closures}


def test_laws_and_closures_equal_the_scans_on_every_small_poset():
    verdicts = set()
    for n in range(6):
        for c in naturally_labelled_posets(n):
            verdicts.update(_check_laws_against_the_scans(c).items())
    laws = [f"{law}[{kind.value}]" for kind in _ALL_KINDS for law in ("IV", "V")] + _CLOSURE_LAWS
    assert {(law, v) for law in laws for v in ("holds", "fails")} <= verdicts


def test_superset_pairs_equal_the_scan_on_every_small_poset():
    # the count read off the vertices equals the unordered member pairs
    # whose union table entry has a superset, in all three kinds; the
    # closure counts above cover CONVERGENT and DIVERGENT alone
    for n in range(6):
        for c in naturally_labelled_posets(n):
            for kind in _ALL_KINDS:
                _, meets, _, _ = member_tables(c, kind)
                want = int(np.count_nonzero(np.triu(meets != _NONE)))
                assert _law_counts(c, kind)[4] == want, (c.relation.tolist(), kind)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 10), st.floats(0.1, 0.6))
def test_laws_and_closures_equal_the_scans_on_relabelled_posets(seed, n, p_edge):
    rng = np.random.default_rng(seed)
    _check_laws_against_the_scans(relabelled(random_poset(n, p_edge, rng), rng))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(11, config.LAW_SCAN_CAP), st.floats(0.1, 0.5))
def test_laws_and_closures_equal_the_scans_up_to_the_cap(seed, n, p_edge):
    rng = np.random.default_rng(seed)
    _check_laws_against_the_scans(relabelled(random_poset(n, p_edge, rng), rng))


@pytest.mark.parametrize("make, one_class", [(lambda: co.grid(3, 4), True),
                                             (lambda: complete_bipartite(3, 4), False)],
                         ids=["lattice", "k34"])
def test_laws_and_closures_equal_the_scans_at_either_end_of_the_ok_classes(make, one_class):
    # in a lattice every union is defined, so all vertex groups fall into
    # one class of equal ok rows; in K(3,4) each group has a row of its own
    c = make()
    for kind in _ALL_KINDS:
        union = _vertex_groups(c, kind)[2]
        classes = len(np.unique(union >= 0, axis=0))
        assert classes == (1 if one_class else len(union)), kind
    _check_laws_against_the_scans(c)


@pytest.mark.parametrize("make", [lambda: co.grid(3, 4), sprinkle12], ids=["grid34", "sprinkle"])
def test_laws_and_axioms_build_no_member_union_table(make, monkeypatch):
    c = make()
    co.verify_union_laws(c)
    co.verify_algebra_axioms(c)
    sizes = {len(family_masks(c, kind)) for kind in (Kind.CONVERGENT, Kind.DIVERGENT)}
    assert min(sizes) > c.n + 1  # no f x f table passes for a group or bound table
    values = [v for value in c._derived.values()
              for v in (value if isinstance(value, tuple) else (value,))]
    assert not [v.shape for v in values if isinstance(v, np.ndarray) and v.ndim == 2
                and v.shape[0] in sizes]
    # the measure suite decides the unit table from the order, with no
    # union table; any other table it scans with one over the unordered
    # member pairs, a flat list per block of the walk, the blocks covering
    # them once.  A singleton 1e-12 off 1 fails normalization alone, so
    # the scan runs to the last block
    built = []

    def spy(c, kind, masks):
        table = _union_table(c, kind, masks)

        def recorded(i, j):
            built.append((len(masks), np.broadcast_shapes(i.shape, j.shape)))
            return table(i, j)

        return recorded

    monkeypatch.setattr(co.measure, "_union_table", spy)
    f = len(family_masks(c, Kind.DIVERGENT))
    unit = co.constant_measure(c)
    assert co.verify_measure_axioms(c, unit).all_hold and not built
    off = co.CausalMeasure(c, Kind.DIVERGENT, {**unit.table, 1: 1.0 + 1e-12})
    report = co.verify_measure_axioms(c, off)
    assert report.result("normalization").verdict == "fails"
    res = report.result("super-multiplicativity")
    assert res.verdict == "holds"
    assert {(m, len(shape)) for m, shape in built} == {(f, 1)}
    assert sum(shape[0] for _, shape in built) == res.checked + res.skipped == f * (f + 1) // 2


@pytest.mark.parametrize("make", [lambda: co.grid(3, 4), lambda: complete_bipartite(3, 4), sprinkle12,
                                  co.star5], ids=["grid34", "k34", "sprinkle", "star5"])
def test_law_counts_walked_one_row_at_a_time(make, monkeypatch):
    # blocks of one row each give every law count and the superset-pair
    # count of one block, which the reference scans pin as well
    whole = {kind: _law_counts(make(), kind) for kind in _ALL_KINDS}
    monkeypatch.setattr(co.algebra, "_PAIRS", 1)
    c = make()
    fam = _family_array(c, Kind.CONVERGENT)
    assert [i.ravel().tolist() for i, _, _ in _member_pairs(fam)] == [[r] for r in range(len(fam))]
    assert {kind: _law_counts(c, kind) for kind in _ALL_KINDS} == whole
    _check_laws_against_the_scans(c)


def test_law_counts_memory_in_blocks_of_member_pairs():
    # f = 2,060: one f x f intersection index of 8-byte entries alone
    # would take 32 MiB; the walk holds one block of rows at a time
    c = below_one_top(11)
    assert len(_family_array(c, Kind.CONVERGENT)) == 2060
    tracemalloc.start()
    try:
        counts = _law_counts(c, Kind.CONVERGENT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[0] == 2060**2  # every union is defined: the family is a lattice
    assert peak < 8 * 2**20


def test_k66_law_counts_pinned():
    # six minimal points below six maximal ones: every union law holds,
    # each over its whole domain, and crossing fails (two minimal points
    # have six minimal common upper bounds)
    c = k66()
    report = co.verify_union_laws(c)
    assert [(r.law, r.verdict, r.checked, r.skipped) for r in report.results] == [
        (f"{law}[{tag}]", "holds", *counts)
        for tag in ("convergent", "divergent") for law, counts in K66_LAW_COUNTS.items()]
    axioms = co.verify_algebra_axioms(c)
    assert not co.has_crossing_property(c)
    for law in _CLOSURE_LAWS:
        assert axioms.result(law).verdict == "fails"
        _reevaluate(c, axioms.result(law))


def test_axioms_without_crossing_leave_no_reference_cycle():
    # neither the axioms' closure witnesses nor the reversed structure
    # leave anything in the store that refers back to the causality
    c = k66()
    co.verify_algebra_axioms(c)
    alive = weakref.ref(c), weakref.ref(co.reverse_structure(c))
    gc.disable()
    try:
        del c
        assert [r() for r in alive] == [None, None]
    finally:
        gc.enable()


def test_union_answers_leave_no_reference_cycle():
    # the store of union answers keeps masks, which do not refer back to c
    c = co.grid(3, 3)
    co.causal_union(c, c.subset(["00"]), c.subset(["01"]))
    alive = weakref.ref(c)
    gc.disable()
    try:
        del c
        assert alive() is None
    finally:
        gc.enable()


def test_strict_kinds_have_no_union_laws(chain3):
    for kind in (Kind.STRICTLY_CONVERGENT, Kind.STRICTLY_DIVERGENT):
        with pytest.raises(ValueError):
            co.verify_union_laws(chain3, (kind,))


def test_law_skips_counted_on_star5(l5):
    report = co.verify_union_laws(l5)
    res = _law(report, "I[convergent]")
    assert res.skipped > 0  # pairs like {tl},{tr} have no convergent superset


def test_law_cache_keeps_kinds_apart(chain3):
    laws = ("I", "II", "III", "IV", "V")
    conv = co.verify_union_laws(chain3, kinds=(Kind.CONVERGENT,))
    assert [r.law for r in conv.results] == [f"{law}[convergent]" for law in laws]
    both = co.verify_union_laws(chain3)
    assert [r.law for r in both.results] == [
        f"{law}[{tag}]" for tag in ("convergent", "divergent") for law in laws
    ]


def test_law_reports_are_fresh_each_call(chain3):
    # the store keeps the counts and the witness, not a report, so editing
    # a report changes no later verdict
    co.verify_union_laws(chain3).results.clear()
    assert len(co.verify_union_laws(chain3).results) == 10
    res = co.verify_algebra_axioms(chain3).result("union-laws")
    assert (res.verdict, res.checked) == ("fails", 2170)
    co.verify_algebra_axioms(chain3).results.clear()
    assert len(co.verify_algebra_axioms(chain3).results) == 5
    co.verify_union_laws(chain3).result("IV[convergent]").counterexample.clear()
    assert co.verify_union_laws(chain3).result("IV[convergent]").counterexample == {
        "a": ("a",), "b": ("c",), "c": ("b",)}
    assert co.verify_union_laws(chain3) is not co.verify_union_laws(chain3)


def test_family_masks_hands_out_a_copy(chain3):
    family_masks(chain3, Kind.CONVERGENT).pop()
    assert len(co.enumerate_causal_sets(chain3, Kind.CONVERGENT)) == 7
    assert len(co.constant_measure(chain3, Kind.CONVERGENT).table) == 7


def test_law_report_json_shape(chain3):
    doc = co.verify_union_laws(chain3).to_dict()
    assert {"subject", "all_hold", "results"} <= doc.keys()
    for entry in doc["results"]:
        assert {"law", "verdict", "counterexample", "checked", "skipped"} <= entry.keys()
        assert entry["verdict"] in ("holds", "fails", "skipped")


def test_law_scan_cap():
    with pytest.raises(co.GroundSetTooLarge):
        co.verify_union_laws(co.antichain(13))


# ---------------------------------------------------------------------------
# Algebra axioms
# ---------------------------------------------------------------------------

def test_axioms_families_and_reversal(chain3, d4, l5, l33):
    for c in (chain3, d4, l5, l33):
        report = co.verify_algebra_axioms(c)
        for law in (
            "intersection-closure[convergent]",
            "intersection-closure[divergent]",
            "causal-union-closure[convergent]",
            "causal-union-closure[divergent]",
        ):
            res = report.result(law)
            assert res.verdict == "holds", (c, law, res.counterexample)
        # the reversal axioms are proved, so no reversed structure is built
        assert "reversed" not in c._derived


def test_axioms_inherit_distributivity_failure(chain3):
    report = co.verify_algebra_axioms(chain3)
    assert report.result("union-laws").verdict == "fails"
    assert not report.all_hold


def test_reversal_swaps_families_exactly(l33):
    rev = co.reverse_structure(l33)
    conv = {u.mask for u in co.enumerate_causal_sets(l33, Kind.CONVERGENT)}
    div_rev = {u.mask for u in co.enumerate_causal_sets(rev, Kind.DIVERGENT)}
    assert conv == div_rev


def _union_or_undefined(c, a, b, kind):
    try:
        return co.causal_union(c, a, b, kind).mask
    except (co.NoCausalSuperset, co.NotClosed) as exc:
        return type(exc)


def _self_dual_fixtures():
    for k in (2, 3):
        antipodal = {f"{u}{v}": f"{k - 1 - u}{k - 1 - v}" for u in range(k) for v in range(k)}
        yield pytest.param(co.grid(k, k), antipodal, id=f"grid{k}{k}")
    for n in (1, 4):
        ch = co.chain(n)
        flip = {p: ch.points[n - 1 - i] for i, p in enumerate(ch.points)}
        yield pytest.param(ch, flip, id=f"chain{n}")
    yield pytest.param(co.diamond4(), {"p": "s", "q": "q", "r": "r", "s": "p"}, id="diamond4")
    for name, c in (("chain3", co.chain(3)), ("diamond4", co.diamond4()),
                    ("star5", co.star5()), ("grid33", co.grid(3, 3))):
        yield pytest.param(c, None, id=f"structural-{name}")


@pytest.mark.parametrize("c, mapping", list(_self_dual_fixtures()))
def test_point_map_reversal_dualizes_families_and_unions(c, mapping):
    """An order-reversing involution of the points (or, with no mapping,
    the structural reversal onto the transposed order) sends each family
    onto the dual family, and each causal union, defined or not, to the
    dual union of the images."""
    if mapping is None:
        t, image = co.OrderReversal.structural(), co.reverse_structure(c)
    else:
        t, image = co.OrderReversal.point_map(c, mapping), c
    dual = {Kind.CONVERGENT: Kind.DIVERGENT, Kind.DIVERGENT: Kind.CONVERGENT}
    for kind in dual:
        fam = co.enumerate_causal_sets(c, kind)
        images = [co.reverse(c, t, u) for u in fam]
        assert {u.mask for u in images} == {
            u.mask for u in co.enumerate_causal_sets(image, dual[kind])}
        for a, ia in zip(fam, images):
            for b, ib in zip(fam, images):
                union = _union_or_undefined(c, a, b, kind)
                if isinstance(union, int):
                    union = co.reverse(c, t, PointSet(c, union)).mask
                assert union == _union_or_undefined(image, ia, ib, dual[kind]), (a.ids(), b.ids())
