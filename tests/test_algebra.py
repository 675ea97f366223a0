"""Classification, causal unions, and the algebra's laws.

The distributivity laws (intersection over causal union and vice versa)
are checked for what they actually do at finite scale: they fail, with
counterexamples as small as a three-point chain, because the causal union
is a closure and closures do not distribute over intersection.  The tests
freeze the failing triples and re-verify them with the naive oracle.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalorder as co
from causalorder import Direction, Kind, PointSet, SetClass, config
from causalorder.algebra import (
    _NONE,
    _class_code,
    _class_table,
    _union_mask,
    _union_tables,
    family_masks,
)

from conftest import (
    NOT_DENSE_7_RELATION,
    oracle_causal_union,
    oracle_class,
    oracle_crossing,
    oracle_family,
    random_poset,
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
            _class_table(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c._class_table is None
    assert peak < 64 * 1024  # the 2^21-byte table, or one OR table, would show


def _per_mask_table(c):
    return np.array([_class_code(c, m) for m in range(1 << c.n)], dtype=np.uint8)


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
    table = _class_table(c)
    assert table.dtype == np.uint8
    np.testing.assert_array_equal(table, _per_mask_table(c))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.floats(0.0, 0.8))
def test_class_table_matches_oracle(seed, n, p_edge):
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    table = _class_table(c)
    assert len(table) == 1 << n
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
        fam, meets, u_idx, i_idx = _union_tables(c, kind)
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
            "empty-set-in-both",
            "singletons-in-both",
            "intersection-closure[convergent]",
            "intersection-closure[divergent]",
            "causal-union-closure[convergent]",
            "causal-union-closure[divergent]",
            "reversal-swaps-families",
        ):
            res = report.result(law)
            assert res.verdict == "holds", (c, law, res.counterexample)


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
