"""Causal measures, their axioms, extensions, entropy and composition."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalorder as co
from causalorder import Kind, PointSet, config
from causalorder.algebra import _union_mask, _union_table, family_masks
from causalorder.measure import EQUALITY_RTOL, _isclose

from conftest import (
    below_one_top,
    complete_bipartite,
    naturally_labelled_posets,
    oracle_causal_union,
    oracle_family,
    random_poset,
    reference_closure_axioms,
    sprinkle12,
)


def _perturbed(c, overrides, kind=Kind.DIVERGENT):
    table = dict(co.constant_measure(c, kind).table)
    for ids, value in overrides.items():
        table[c.mask_of(ids)] = value
    return co.CausalMeasure(c, kind, table)


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------

def test_constant_measure_passes(chain3, d4, l5, l33):
    for c in (chain3, d4, l5, l33):
        for kind in (Kind.DIVERGENT, Kind.CONVERGENT):
            report = co.verify_measure_axioms(c, co.constant_measure(c, kind))
            assert report.all_hold, report.to_dict()


def test_range_violation_reported(d4):
    bad = _perturbed(d4, {("p", "q"): 0.5})
    report = co.verify_measure_axioms(d4, bad)
    res = report.result("normalization")
    assert res.verdict == "fails"
    assert res.counterexample["sigma"] == 0.5


def test_singleton_violation_reported(d4):
    bad = _perturbed(d4, {("p",): 2.0})
    report = co.verify_measure_axioms(d4, bad)
    assert report.result("normalization").verdict == "fails"


def test_equality_clause_violation(chain3):
    # bumping one two-point set breaks the equality case for {a} u {b}
    bad = _perturbed(chain3, {("a", "b"): 2.0})
    report = co.verify_measure_axioms(chain3, bad)
    res = report.result("super-multiplicativity")
    assert res.verdict == "fails"
    assert res.counterexample["reason"].startswith("equality required")


def test_strict_inequality_violation(d4):
    # {q,s} and {r,s} force the divergent closure {p,q,r,s}: the bound
    # sigma(A)sigma(B)/sigma(A∩B) = 4 exceeds the union's 3
    bad = _perturbed(
        d4, {("q", "s"): 2.0, ("r", "s"): 2.0, ("p", "q", "r", "s"): 3.0}
    )
    a, b = d4.subset(["q", "s"]), d4.subset(["r", "s"])
    union = co.causal_union(d4, a, b, Kind.DIVERGENT)
    assert set(union.ids()) == {"p", "q", "r", "s"}  # gap: p joined in
    bound = bad.value(a) * bad.value(b) / bad.value(a & b)
    assert bad.value(union) < bound
    report = co.verify_measure_axioms(d4, bad)
    assert report.result("super-multiplicativity").verdict == "fails"


def _pairwise_super_multiplicativity(c, kind, table, rtol):
    """The axiom pair by pair, with oracle unions: (verdict,
    counterexample, checked, skipped) as verify_measure_axioms reports."""
    family = oracle_family(c, kind.value)
    fam = sorted(c.mask_of(u) for u in family)
    members = set(fam)
    checked = skipped = 0
    for i, a in enumerate(fam):
        for b in fam[i:]:
            union = oracle_causal_union(c, c.ids_of(a), c.ids_of(b), kind.value, family)
            u = None if union is None else c.mask_of(union)
            if a & b not in members or u not in members:
                skipped += 1
                continue
            checked += 1
            lhs, rhs = table[u], table[a] * table[b] / table[a & b]
            ce = {"a": c.ids_of(a), "b": c.ids_of(b), "sigma_union": lhs, "bound": rhs}
            if lhs < rhs and not math.isclose(lhs, rhs, rel_tol=rtol):
                return "fails", ce, checked, skipped
            if u == a | b and not (math.isinf(lhs) and math.isinf(rhs)) and not math.isclose(
                    lhs, rhs, rel_tol=rtol):
                ce["reason"] = "equality required when the causal union is the plain union"
                return "fails", ce, checked, skipped
    return "holds", None, checked, skipped


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.floats(0.1, 0.7),
       st.sampled_from([Kind.DIVERGENT, Kind.CONVERGENT]),
       st.sampled_from([1e-9, 0.3]), st.data())
def test_super_multiplicativity_matches_pairwise_check(seed, n, p_edge, kind, rtol, data):
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    fam = [u.mask for u in co.enumerate_causal_sets(c, kind)]
    # the unit table with up to three entries changed
    sigmas = st.sampled_from([1.0 + 1e-12, 0.5, 1.5, 2.0, 3.0, 4.5, math.inf, -math.inf])
    table = dict.fromkeys(fam, 1.0)
    table.update(data.draw(st.lists(st.tuples(st.sampled_from(fam), sigmas), max_size=3)))
    res = co.verify_measure_axioms(c, co.CausalMeasure(c, kind, table), rtol=rtol).result(
        "super-multiplicativity")
    got = (res.verdict, res.counterexample, res.checked, res.skipped)
    # repr, so that a NaN bound compares equal to itself
    assert repr(got) == repr(_pairwise_super_multiplicativity(c, kind, table, rtol))


def _loop_normalization(c, measure):
    """Normalization one set at a time, the reference for the scan."""
    res = co.LawResult("normalization", "holds")
    checks = [(0, "empty set")] + [(1 << i, c.points[i]) for i in range(c.n)]
    for mask, label in checks:
        res.checked += 1
        if measure.table[mask] != 1.0:
            return co.LawResult("normalization", "fails",
                                {"set": label, "sigma": measure.table[mask]}, res.checked)
    for m in family_masks(c, measure.kind):
        res.checked += 1
        if not measure.table[m] >= 1.0:
            return co.LawResult("normalization", "fails",
                                {"set": c.ids_of(m), "sigma": measure.table[m],
                                 "reason": "below the codomain [1, inf]"}, res.checked)
    return res


def _loop_monotonicity(c, measure):
    """Monotonicity one nested pair at a time, the reference for the scan."""
    fam = family_masks(c, measure.kind)
    res = co.LawResult("family-pairs", "holds")
    for a in fam:
        for b in fam:
            if a & ~b:
                continue
            res.checked += 1
            sa, sb = measure.table[a], measure.table[b]
            if sa > sb and not math.isclose(sa, sb, rel_tol=EQUALITY_RTOL):
                return co.LawResult(res.law, "fails", {"a": c.ids_of(a), "b": c.ids_of(b),
                                                       "sigma_a": sa, "sigma_b": sb},
                                    res.checked)
    return res


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.floats(0.1, 0.7),
       st.sampled_from([Kind.DIVERGENT, Kind.CONVERGENT]), st.data())
def test_normalization_and_monotonicity_match_the_loops(seed, n, p_edge, kind, data):
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    fam = family_masks(c, kind)
    # the unit table with a few entries changed, the empty set and the
    # singletons among them; ints keep their type in the witnesses
    sigmas = st.sampled_from([1, 2, 1.0 + 1e-12, 1.0 - 1e-12, 0.5, 1.5, 2.0, 3.0,
                              -1.0, math.inf, -math.inf, math.nan])
    table = dict.fromkeys(fam, 1.0)
    table.update(data.draw(st.lists(st.tuples(st.sampled_from(fam), sigmas), max_size=5)))
    m = co.CausalMeasure(c, kind, table)
    # repr, so that a NaN witness compares equal to itself
    got = co.verify_measure_axioms(c, m).result("normalization")
    assert repr(got) == repr(_loop_normalization(c, m))
    assert repr(co.check_monotonicity(c, m).results) == repr([_loop_monotonicity(c, m)])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.floats(0.1, 0.7),
       st.sampled_from([Kind.DIVERGENT, Kind.CONVERGENT]), st.booleans())
def test_unit_table_reports_match_the_loops(seed, n, p_edge, kind, layered):
    # decided from the order with crossing, scanned without it: the loops
    # over the pairs report the same either way.  Two layers, the first
    # half below the second, lack crossing on every K(2,2) they hold
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    if layered:
        low = np.arange(n) < n // 2
        c = co.validate_causality(c.points, c.relation & low[:, None] & ~low | np.eye(n, dtype=bool))
    m = co.constant_measure(c, kind)
    assert repr(co.verify_measure_axioms(c, m).results) == repr([
        _loop_normalization(c, m),
        co.LawResult("super-multiplicativity", *_pairwise_super_multiplicativity(c, kind, m.table, EQUALITY_RTOL))])
    assert repr(co.check_monotonicity(c, m).results) == repr([_loop_monotonicity(c, m)])


def test_unit_table_checks_the_closure_pairs_on_every_small_poset():
    # with crossing, the unit table's super-multiplicativity checks the
    # pairs that causal-union closure checks, as the reference scans count
    # them; without crossing the table is scanned
    for n in range(6):
        for c in naturally_labelled_posets(n):
            if co.has_crossing_property(c):
                want = reference_closure_axioms(c)
                for kind in (Kind.DIVERGENT, Kind.CONVERGENT):
                    res = co.verify_measure_axioms(c, co.constant_measure(c, kind)).result(
                        "super-multiplicativity")
                    assert (res.verdict, res.checked, res.skipped) == want[
                        f"causal-union-closure[{kind.value}]"], (c.relation.tolist(), kind)


@pytest.mark.parametrize("make, crossing", [(lambda: co.grid(3, 4), True), (sprinkle12, True),
                                            (lambda: complete_bipartite(2, 2), False)],
                         ids=["grid34", "sprinkle", "k22"])
def test_unit_table_builds_no_union_table_with_crossing(make, crossing, monkeypatch):
    built = []
    monkeypatch.setattr(co.measure, "_union_table", lambda *args: built.append(args) or _union_table(*args))
    c = make()
    assert bool(co.has_crossing_property(c)) is crossing
    for kind in (Kind.DIVERGENT, Kind.CONVERGENT):
        assert co.verify_measure_axioms(c, co.constant_measure(c, kind)).all_hold
    assert len(built) == (0 if crossing else 2)


@pytest.mark.parametrize("make", [lambda: co.grid(3, 4), lambda: complete_bipartite(2, 2)],
                         ids=["grid34", "k22"])
def test_unit_table_monotonicity_compares_no_values(make, monkeypatch):
    # the unit table only counts the nested pairs, with or without
    # crossing: the count of the scan, with no value compared
    c = make()
    for kind in (Kind.DIVERGENT, Kind.CONVERGENT):
        unit = co.constant_measure(c, kind)
        near = co.CausalMeasure(c, kind, {**unit.table, max(unit.table): 1.0 + 1e-12})
        want = co.check_monotonicity(c, near).results
        with monkeypatch.context() as m:
            m.setattr(co.measure, "_isclose", None)
            assert repr(co.check_monotonicity(c, unit).results) == repr(want)


def test_a_singleton_off_one_within_the_tolerance_fails_normalization():
    # 1 + 1e-12 is within the tolerance of 1, but the table is no unit
    # table: a singleton must weigh exactly 1
    c = co.grid(3, 4)
    for kind in (Kind.DIVERGENT, Kind.CONVERGENT):
        m = co.CausalMeasure(c, kind, {**co.constant_measure(c, kind).table, 1 << 5: 1.0 + 1e-12})
        res = co.verify_measure_axioms(c, m).result("normalization")
        assert (res.verdict, res.counterexample, res.checked) == (
            "fails", {"set": c.points[5], "sigma": 1.0 + 1e-12}, 7)


def test_measure_scans_cap_before_any_work():
    c = co.chain(13)
    m = co.CausalMeasure(c, Kind.DIVERGENT, {})  # no table: the cap comes first
    for fn in (co.verify_measure_axioms, co.check_monotonicity):
        with pytest.raises(co.GroundSetTooLarge, match="capped at 12 points, got 13"):
            fn(c, m)


def _near_unit(c, kind):
    """The unit table with its largest member 1e-12 off 1: every law
    holds, but only the scans decide it."""
    table = dict(co.constant_measure(c, kind).table)
    table[max(table)] = 1.0 + 1e-12
    return co.CausalMeasure(c, kind, table)


def test_measure_axioms_memory_on_the_unordered_pairs():
    # nine points below one top: a convergent family of 2^9 + 9 + 1 = 522
    # members, 136,503 unordered pairs.  One flat list of them peaked near
    # 12 MiB, f x f tables of the per-pair quantities near 20 MiB; the
    # walk holds one block of member rows at a time
    c = below_one_top(9)
    m = _near_unit(c, Kind.CONVERGENT)
    assert len(m.table) == 522
    tracemalloc.start()
    try:
        report = co.verify_measure_axioms(c, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    res = report.result("super-multiplicativity")
    assert (res.verdict, res.checked, res.skipped) == ("holds", 522 * 523 // 2, 0)
    assert peak < 14 * 2**20


@pytest.mark.parametrize("check, bound", [(co.verify_measure_axioms, 16), (co.check_monotonicity, 8)],
                         ids=["axioms", "monotonicity"])
def test_measure_scans_memory_in_blocks_of_member_pairs(check, bound):
    # eleven points below one top, f = 2,060: the flat list of the
    # unordered pairs peaked at 184 MiB and the nested-pair mask at 36 MiB
    c = below_one_top(11)
    m = _near_unit(c, Kind.CONVERGENT)
    tracemalloc.start()
    try:
        report = check(c, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_hold
    assert peak < bound * 2**20


def _late_member(c, kind):
    """A family member of two or more points, past the first half of the
    family in mask order, so that its pairs lie past the first rows."""
    fam = family_masks(c, kind)
    return next(m for m in fam[len(fam) // 2:] if m & (m - 1))


@pytest.mark.parametrize("make", [lambda: co.grid(3, 3), lambda: random_poset(7, 0.3, np.random.default_rng(3)),
                                  lambda: below_one_top(4)], ids=["grid33", "poset7", "below_top4"])
@pytest.mark.parametrize("kind", [Kind.DIVERGENT, Kind.CONVERGENT])
@pytest.mark.parametrize("sigma", [None, 2.0, 0.5, math.inf], ids=["unit", "above", "below", "inf"])
def test_measure_scans_walked_one_row_at_a_time(make, kind, sigma, monkeypatch):
    # blocks of one row each report what one block does, and what the
    # loops over the pairs report; a table off 1 on a late member fails
    # first in a later block
    c = make()
    table = dict(co.constant_measure(c, kind).table)
    if sigma is not None:
        table[_late_member(c, kind)] = sigma
    m = co.CausalMeasure(c, kind, table)

    def reports():
        return repr([co.verify_measure_axioms(c, m).results, co.check_monotonicity(c, m).results])

    whole = reports()
    monkeypatch.setattr(co.algebra, "_PAIRS", 1)
    assert reports() == whole == repr([
        [_loop_normalization(c, m), co.LawResult("super-multiplicativity",
                                                 *_pairwise_super_multiplicativity(c, kind, table, EQUALITY_RTOL))],
        [_loop_monotonicity(c, m)]])
    res = co.verify_measure_axioms(c, m).result("super-multiplicativity")
    assert res.checked + res.skipped > len(table)  # past the first row, ∅ with each member
    late = _late_member(c, kind)
    if sigma == 2.0 and any(b != late and b & late == late for b in table):
        mono = co.check_monotonicity(c, m).results[0]  # fails first on the row of the late member
        assert (mono.verdict, mono.counterexample["a"]) == ("fails", c.ids_of(late))


def test_super_multiplicativity_skips_equality_between_infinities(chain3):
    # the plain union {a, b} weighs +inf against a bound of -inf: no
    # equality is required between two infinities, so the first failure
    # is {b} with itself, whose bound is NaN
    table = dict.fromkeys(family_masks(chain3, Kind.DIVERGENT), 1.0)
    table[chain3.mask_of("b")], table[chain3.mask_of("ab")] = -math.inf, math.inf
    res = co.verify_measure_axioms(chain3, co.CausalMeasure(chain3, Kind.DIVERGENT, table))
    res = res.result("super-multiplicativity")
    assert (res.counterexample["a"], res.counterexample["b"]) == (("b",), ("b",))
    assert repr((res.verdict, res.counterexample, res.checked, res.skipped)) == repr(
        _pairwise_super_multiplicativity(chain3, Kind.DIVERGENT, table, 1e-9))


def test_isclose_matches_math_isclose():
    values = [0.0, 1.0, 1.0 + 1e-12, -1.0, 2.0, 1e308, -1e308, math.inf, -math.inf, math.nan]
    a, b = np.array([(x, y) for x in values for y in values]).T
    for rtol in (0.0, 1e-9, 0.3, math.nan):
        with np.errstate(invalid="ignore", over="ignore"):
            got = _isclose(a, b, rtol).tolist()
        assert got == [math.isclose(x, y, rel_tol=rtol) for x, y in zip(a, b)], rtol
    # _isclose takes a valid tolerance: verify_measure_axioms checks it
    with pytest.raises(ValueError):
        co.verify_measure_axioms(co.chain(1), co.constant_measure(co.chain(1)), rtol=-1e-9)


@pytest.mark.parametrize("rtol", [math.nan, math.inf, -math.inf, -1e-9])
def test_measure_axioms_reject_bad_tolerance_before_any_work(rtol):
    # checked first: the 13-point chain would exceed LAW_SCAN_CAP, and no
    # family is listed
    c = co.chain(config.LAW_SCAN_CAP + 1)
    with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
        co.verify_measure_axioms(c, co.CausalMeasure(c, Kind.DIVERGENT, {}), rtol=rtol)
    assert "class_codes" not in c._derived


def test_measure_axioms_accept_zero_and_large_finite_tolerance(chain3):
    for rtol in (0.0, 1e300):
        assert co.verify_measure_axioms(chain3, co.constant_measure(chain3), rtol=rtol).all_hold


def test_missing_value_raises(d4):
    table = dict(co.constant_measure(d4).table)
    del table[d4.mask_of(["p", "q"])]
    with pytest.raises(co.MissingValue):
        co.verify_measure_axioms(d4, co.CausalMeasure(d4, Kind.DIVERGENT, table))


def test_every_table_reader_raises_missing_value(chain3):
    # each reader names the set it lacks; the extensions only for a set
    # that qualifies
    table = dict(co.constant_measure(chain3).table)
    del table[chain3.mask_of(["a"])]
    m, a, c = co.CausalMeasure(chain3, Kind.DIVERGENT, table), chain3.subset(["a"]), chain3.subset(["c"])
    calls = [lambda: co.check_monotonicity(chain3, m),
             lambda: co.inner_measure_value(chain3, m, a),
             lambda: co.outer_measure_value(chain3, m, a),
             lambda: co.formal_entropy(chain3, m, a),
             lambda: co.formal_entropy(chain3, m, a, extension="outer")]
    for call in calls:
        with pytest.raises(co.MissingValue, match=r"^measure has no value for \('a',\)$"):
            call()
    assert co.inner_measure_value(chain3, m, c) == co.outer_measure_value(chain3, m, c) == 1.0


def test_axioms_force_constant_measure(chain3, d4, l5):
    """Peeling a maximal element off any divergent set keeps it divergent
    and triggers the equality case, so by induction every axiom-passing
    table is constant 1.  Check the contrapositive: any table with a value
    above 1 on these fixtures fails."""
    for c in (chain3, d4, l5):
        fam = [u for u in co.enumerate_causal_sets(c, Kind.DIVERGENT) if len(u) >= 2]
        for u in fam:
            bad = _perturbed(c, {u.ids(): 1.5})
            assert not co.verify_measure_axioms(c, bad).all_hold, u.ids()


def _peeled(c, s, kind):
    """The point that the proof in constant_measure peels off s: a maximal
    member for the divergent family, a minimal one for the convergent."""
    rows = c.succ_masks if kind is Kind.DIVERGENT else c.pred_masks
    return next(i for i in range(c.n) if s >> i & 1 and rows[i] & s == 1 << i)


def test_peeling_a_point_leaves_a_family_set_on_every_small_poset():
    # S ∖ {m} is in the family, and its causal union with {m} is S, the
    # plain union, so the equality case ties σ(S) to σ(S ∖ {m})
    for n in range(6):
        for c in naturally_labelled_posets(n):
            for kind in (Kind.DIVERGENT, Kind.CONVERGENT):
                fam = family_masks(c, kind)
                members = set(fam)
                for s in fam:
                    if s & (s - 1) == 0:  # ∅ and singletons
                        continue
                    m = 1 << _peeled(c, s, kind)
                    assert s & ~m in members, (c.relation.tolist(), kind, s)
                    assert _union_mask(c, s & ~m, m, kind) == s, (c.relation.tolist(), kind, s)


@pytest.mark.parametrize("rtol", [EQUALITY_RTOL, 0.01])
def test_moving_one_constant_entry_fails_the_axioms(chain3, d4, l5, l33, rtol):
    for c in (chain3, d4, l5, l33):
        for kind in (Kind.DIVERGENT, Kind.CONVERGENT):
            table = co.constant_measure(c, kind).table
            for m in table:
                for sigma in (1 + 2 * rtol, 1 - 2 * rtol):
                    moved = co.CausalMeasure(c, kind, {**table, m: sigma})
                    report = co.verify_measure_axioms(c, moved, rtol)
                    assert not report.all_hold, (c.ids_of(m), kind, sigma)


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------

def test_extensions_agree_on_family_members(d4):
    m = co.constant_measure(d4)
    pqr = d4.subset(["p", "q", "r"])
    assert co.inner_measure_value(d4, m, pqr) == 1.0
    assert co.outer_measure_value(d4, m, pqr) == 1.0


def test_inner_extension_on_non_causal_set(d4):
    m = co.constant_measure(d4)
    qr = d4.subset(["q", "r"])  # classifies neither
    assert co.inner_measure_value(d4, m, qr) == 1.0


def test_outer_extension_infinite_when_no_superset(l5):
    m = co.constant_measure(l5, Kind.CONVERGENT)
    tltr = l5.subset(["tl", "tr"])  # no convergent superset exists
    assert co.outer_measure_value(l5, m, tltr) == math.inf


def test_inner_extension_at_least_one(d4):
    m = co.constant_measure(d4)
    assert co.inner_measure_value(d4, m, d4.subset([])) == 1.0


def _extension_by_loop(c, measure, a, outer):
    """The extensions as a loop over the family: the ascending fold, the
    table read through the measure, so the first missing member raises."""
    best = math.inf if outer else 0.0
    for m in family_masks(c, measure.kind):
        if (a.mask & ~m if outer else m & ~a.mask) == 0:
            best = (min if outer else max)(best, measure._sigma(m))
    return best


def _outcome(call):
    try:
        return call()
    except co.MissingValue as exc:
        return str(exc)


@pytest.mark.parametrize("kind", [Kind.DIVERGENT, Kind.CONVERGENT])
@pytest.mark.parametrize("name", ["chain3", "d4", "l5", "l33"])
def test_extensions_match_the_loop_over_the_family(request, name, kind):
    # on the unit table, one with a NaN and a value either side of 1, and
    # one missing a member: the same value, or the same set named missing
    c = request.getfixturevalue(name)
    unit = dict(co.constant_measure(c, kind).table)
    members = sorted(unit)
    nan = dict(unit)
    nan.update({members[-1]: math.nan, members[len(members) // 2]: 3.0, members[1]: 0.5})
    missing = dict(unit)
    del missing[members[len(members) // 2]]
    for table in (unit, nan, missing):
        m = co.CausalMeasure(c, kind, table)
        for mask in range(1 << c.n):
            a = PointSet(c, mask)
            for fn, outer in ((co.inner_measure_value, False), (co.outer_measure_value, True)):
                want = _outcome(lambda: _extension_by_loop(c, m, a, outer))
                assert _outcome(lambda: fn(c, m, a)) == want, (fn.__name__, mask)


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------

def test_entropy_zero_on_unit_measure(d4):
    m = co.constant_measure(d4)
    ent = co.formal_entropy(d4, m, d4.subset(["p", "q", "r"]))
    assert ent.value == 0.0


def test_entropy_logarithm(chain3):
    m = _perturbed(chain3, {("a", "b"): math.e**2})
    ent = co.formal_entropy(chain3, m, chain3.subset(["a", "b"]))
    assert math.isclose(ent.value, 2.0, rel_tol=1e-12)


def test_entropy_infinite_value(chain3):
    m = _perturbed(chain3, {("a", "b"): math.inf})
    ent = co.formal_entropy(chain3, m, chain3.subset(["a", "b"]))
    assert math.isinf(ent.value)


def test_entropy_boltzmann_scaling(d4):
    m = _perturbed(d4, {("p", "q"): math.e})
    ent = co.formal_entropy(d4, m, d4.subset(["p", "q"]), boltzmann=3.0)
    assert math.isclose(ent.value, 3.0, rel_tol=1e-12)
    assert ent.boltzmann == 3.0


def test_entropy_reads_the_table_only_on_family_members(chain3):
    # {a, c} is incomplete, so not divergent: a stray table entry for it
    # is never read, by the axioms as by the entropy, which measures it
    # through either extension
    m = _perturbed(chain3, {("a", "c"): 5.0})
    ac = chain3.subset(["a", "c"])
    assert co.verify_measure_axioms(chain3, m).all_hold
    assert co.formal_entropy(chain3, m, ac).value == 0.0
    assert co.formal_entropy(chain3, m, ac, extension="outer").value == 0.0


def test_entropy_rejects_an_unknown_extension_for_every_set(chain3):
    m = co.constant_measure(chain3)
    for mask in range(1 << chain3.n):
        with pytest.raises(ValueError, match="^unknown extension 'bogus'$"):
            co.formal_entropy(chain3, m, PointSet(chain3, mask), extension="bogus")


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_entropy_of_a_value_without_logarithm(chain3, value):
    m = _perturbed(chain3, {("a",): value})
    with pytest.raises(ValueError, match=rf"^measure value {value} of \('a',\) has no logarithm$"):
        co.formal_entropy(chain3, m, chain3.subset(["a"]))


def test_entropy_additive_on_disjoint_equality_case(chain3):
    # for an axiom-passing measure: A ∪ B = A ∪c B disjoint gives
    # S(A ∪ B) = S(A) + S(B); with the forced constant table this is 0 = 0,
    # checked through the actual arithmetic
    m = co.constant_measure(chain3)
    a = chain3.subset(["a"])
    b = chain3.subset(["b"])
    union = co.causal_union(chain3, a, b, Kind.DIVERGENT)
    assert union.mask == (a | b).mask
    s_union = co.formal_entropy(chain3, m, union).value
    s_parts = (
        co.formal_entropy(chain3, m, a).value + co.formal_entropy(chain3, m, b).value
    )
    assert abs(s_union - s_parts) < 1e-9


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------

def test_monotonicity_of_passing_measures(chain3, d4, l5, l33):
    for c in (chain3, d4, l5, l33):
        m = co.constant_measure(c)
        assert co.verify_measure_axioms(c, m).all_hold
        report = co.check_monotonicity(c, m)
        assert report.all_hold
        assert report.result("family-pairs").verdict == "holds"
        assert [r.law for r in report.results] == ["family-pairs"]


def test_monotonicity_detects_decreasing_table(d4):
    bad = _perturbed(d4, {("p",): 1.0, ("p", "q"): 1.0, ("p", "q", "r"): 1.0,
                          ("p", "r"): 5.0})
    # {p, r} ⊂ {p, q, r} but 5 > 1
    report = co.check_monotonicity(d4, bad)
    assert report.result("family-pairs").verdict == "fails"


def test_monotonicity_holds_on_equal_negative_values(d4):
    # sigma_b * (1 + rtol) lies below sigma_b when sigma_b < 0, so a
    # multiplicative tolerance flags a = b as a decrease
    table = {m: -1.0 for m in co.constant_measure(d4).table}
    report = co.check_monotonicity(d4, co.CausalMeasure(d4, Kind.DIVERGENT, table))
    assert report.result("family-pairs").verdict == "holds"


_SIGMAS = st.one_of(
    st.floats(-5.0, 5.0), st.sampled_from([math.inf, -math.inf, math.nan]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(0.1, 0.7),
       st.sampled_from([Kind.DIVERGENT, Kind.CONVERGENT]), st.data())
def test_extensions_monotone_under_inclusion(seed, n, p_edge, kind, data):
    """check_monotonicity does not scan the extensions: they are monotone
    for any table, negative, infinite and NaN entries included."""
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    fam = [u.mask for u in co.enumerate_causal_sets(c, kind)]
    table = dict(zip(fam, data.draw(st.lists(_SIGMAS, min_size=len(fam), max_size=len(fam)))))
    m = co.CausalMeasure(c, kind, table)
    for fn in (co.inner_measure_value, co.outer_measure_value):
        values = [fn(c, m, PointSet(c, mask)) for mask in range(1 << n)]
        assert not any(math.isnan(v) for v in values)
        for a in range(1 << n):
            for b in range(1 << n):
                if a & ~b == 0:
                    assert values[a] <= values[b], (fn.__name__, a, b)


# ---------------------------------------------------------------------------
# Composition rule
# ---------------------------------------------------------------------------

def test_tsallis_additive_limit():
    assert co.tsallis_compose(1.5, 2.5, q=1.0) == 4.0


def test_tsallis_q2_values():
    assert co.tsallis_compose(2.0, 2.0, q=2.0) == 0.0
    assert co.tsallis_compose(0.5, 0.5, q=2.0) == 0.75


def test_tsallis_finder_concrete_q2_violation():
    hit = co.find_tsallis_violation(q_values=(2.0,), entropy_values=(2.0,))
    assert hit == {
        "q": 2.0,
        "entropy_a": 2.0,
        "entropy_rest": 2.0,
        "entropy_whole": 0.0,
    }
    assert hit["entropy_whole"] < hit["entropy_a"]


def test_tsallis_finder_no_violation_at_q_leq_1():
    assert co.find_tsallis_violation(q_values=(0.5, 1.0)) is None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_measure_json_roundtrip(d4):
    m = _perturbed(d4, {("p", "q"): 2.5, ("p", "q", "r"): math.inf})
    doc = m.to_dict()
    back = co.CausalMeasure.from_dict(d4, doc)
    assert back.table == m.table
    assert back.kind is Kind.DIVERGENT
    entry = next(e for e in doc["entries"] if set(e["set"]) == {"p", "q", "r"})
    assert entry["sigma"] == "inf"


@pytest.mark.parametrize("sigma", [math.nan, "2.0", "-inf", None, True, [1.0]])
def test_measure_from_dict_rejects_nan_and_non_numbers(d4, sigma):
    doc = co.constant_measure(d4).to_dict()
    doc["entries"][0]["sigma"] = sigma
    with pytest.raises(ValueError, match="not a number"):
        co.CausalMeasure.from_dict(d4, doc)


@pytest.mark.parametrize("sigma", [10**400, -(10**400)])
def test_measure_from_dict_rejects_an_integer_past_the_float_range(d4, sigma):
    # a valid JSON integer that no float holds; math.isnan raised a bare
    # OverflowError on it
    doc = co.constant_measure(d4).to_dict()
    doc["entries"][1]["sigma"] = sigma
    with pytest.raises(ValueError, match=r"^sigma of \['p'\] is an integer too large for a float$"):
        co.CausalMeasure.from_dict(d4, doc)


@pytest.mark.parametrize("first, second", [(["p"], ["p"]), (["p", "q"], ["q", "p"]),
                                           (["q", "r", "s"], ["s", "q", "r", "q"])])
def test_measure_from_dict_rejects_a_set_named_twice(d4, first, second):
    doc = {"kind": "divergent", "entries": [
        {"set": first, "sigma": 1}, {"set": ["r"], "sigma": 1}, {"set": second, "sigma": 5}]}
    with pytest.raises(ValueError, match="^measure entries 0 and 2 name the same set$"):
        co.CausalMeasure.from_dict(d4, doc)


def test_measure_rejects_the_kind_both(d4):
    with pytest.raises(ValueError, match="^measure kind must be DIVERGENT or CONVERGENT$"):
        co.CausalMeasure(d4, Kind.BOTH, {0: 1.0})


def test_measure_value_rejects_a_set_of_another_causality(d4):
    # the same mask, valued 1 in the table, of an equal but other causality
    m, other = co.constant_measure(d4), co.diamond4()
    with pytest.raises(ValueError, match="^point set does not belong to the measured causality$"):
        m.value(other.subset(["p", "q", "r"]))


def test_measure_value_lookup(d4):
    m = co.constant_measure(d4)
    assert m.value(d4.subset(["p", "q", "r"])) == 1.0
    with pytest.raises(co.MissingValue):
        m.value(d4.subset(["q", "r"]))
