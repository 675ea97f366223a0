"""Ribbons, density, congruence, and order reconstruction.

On a finite ground set no ribbon pair is dense: for every pair, a strict
set through the point cuts one component down to two points {p, y}, and
no two-point set holds a strict set (proof in is_dense; the cut need not
be a chain).  The tests therefore check the machinery on what finite
posets actually exhibit: non-empty ribbons that fail density with
concrete witnesses, the construction of the proof case by case,
vacuously regular empty ribbons, reflexivity/symmetry of congruence and
the meet lemma on real congruent pairs, and reconstruction reports whose
diagnostics say precisely why the domain is empty.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalorder as co
from causalorder import Kind, SetClass
from causalorder.algebra import _union_mask, class_of_mask, family_masks
from causalorder.reconstruction import (
    _density_gap,
    _ribbon_masks,
    _strict_through,
)

from conftest import (
    naturally_labelled_posets,
    oracle_family,
    oracle_ribbon,
    product_density_gap,
    random_poset,
    reference_assert_partial_order,
    reference_congruence_classes,
    reference_reconstruct_order,
    reference_regularity,
    reference_reversal_theorem,
    relabelled,
)


# ---------------------------------------------------------------------------
# Ribbons
# ---------------------------------------------------------------------------

def test_star5_center_ribbon(l5):
    rib = co.ribbon(l5, "m")
    assert len(rib) == 1
    (pair,) = rib.pairs
    assert set(pair.upper.ids()) == {"bl", "br", "m"}
    assert set(pair.lower.ids()) == {"m", "tl", "tr"}


def test_ribbon_pairs_are_ribboned(l33):
    for p in l33.points:
        bit = 1 << l33.index[p]
        for pair in co.ribbon(l33, p).pairs:
            assert co.classify(l33, pair.upper) is SetClass.STRICTLY_CONVERGENT
            assert co.classify(l33, pair.lower) is SetClass.STRICTLY_DIVERGENT
            assert pair.upper.mask & pair.lower.mask == bit


def test_global_extremes_have_empty_ribbons(d4, l33):
    # no strict convergent set contains a global minimum: the minimum
    # bounds every unrelated pair from below, forcing divergence
    assert len(co.ribbon(d4, "p")) == 0
    assert len(co.ribbon(d4, "s")) == 0
    assert len(co.ribbon(l33, "00")) == 0
    assert len(co.ribbon(l33, "22")) == 0


def test_antichain_ribbons_empty(anti3):
    for p in anti3.points:
        assert len(co.ribbon(anti3, p)) == 0


def test_ribbon_cap():
    with pytest.raises(co.GroundSetTooLarge):
        co.ribbon(co.antichain(15), "a0")


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------

def test_star5_pair_not_dense(l5):
    # the strictly divergent set {bl, m, tl, tr} cuts the upper component
    # down to the chain {bl, m}, which contains no strict refinement
    (pair,) = co.ribbon(l5, "m").pairs
    assert not co.is_dense(l5, "m", pair)


def test_seven_point_fixture_not_dense(not_dense_7):
    rib = co.ribbon(not_dense_7, "v0")
    assert len(rib) > 0
    assert any(not co.is_dense(not_dense_7, "v0", pair) for pair in rib.pairs)
    reg = co.is_regular_ribbon(not_dense_7, "v0")
    assert not reg.regular and reg.failing_condition == "density"


def test_no_dense_pair_on_fixtures(d4, l5, l33, not_dense_7):
    for c in (d4, l5, l33, not_dense_7):
        for p in c.points:
            for pair in co.ribbon(c, p).pairs:
                assert not co.is_dense(c, p, pair)


def test_density_witness_is_a_real_cut(l33):
    for p in l33.points:
        rib = co.ribbon(l33, p)
        for pair in rib.pairs:
            witness = _density_gap(l33, l33.index[p], *pair.masks())
            assert witness is not None
            cut_a, cut_b = (co.PointSet(l33, m) for m in witness)
            bit = 1 << l33.index[p]
            assert cut_a.mask & bit and cut_b.mask & bit
            assert cut_a.mask != bit and cut_b.mask != bit
            # no ribbon pair refines the witness cuts
            for other in rib.pairs:
                assert not (
                    other.upper.issubset(cut_a) and other.lower.issubset(cut_b)
                )


# ---------------------------------------------------------------------------
# Ribbon arrays against the oracle and the pair scan
# ---------------------------------------------------------------------------

def _pair_scan(c, ip):
    """The ribbon over point ip as the pair scan found it before ribbons
    became mask arrays: (its pairs as mask tuples, every strict set
    through ip).  Each (strictly convergent, strictly divergent) pair
    through ip is tested in a Python loop."""
    bit = 1 << ip
    ups = [m for m in family_masks(c, Kind.STRICTLY_CONVERGENT) if m & bit]
    downs = [m for m in family_masks(c, Kind.STRICTLY_DIVERGENT) if m & bit]
    return [(a, b) for a in ups for b in downs if a & b == bit], ups + downs


def _scan_witness(c, ip, a, b):
    """Density of the pair (a, b) over point ip by the cut x pair scan:
    None when dense, else the first (cut of a, cut of b), in ascending
    order, that no ribbon pair refines."""
    pairs, pool = _pair_scan(c, ip)
    cuts_a = sorted({a & v for v in pool} - {1 << ip})
    cuts_b = sorted({b & v for v in pool} - {1 << ip})
    for ca in cuts_a:
        for cb in cuts_b:
            if not any(x & ~ca == 0 and y & ~cb == 0 for x, y in pairs):
                return ca, cb
    return None


def _check_ribbons(c):
    families = (oracle_family(c, "strictly_convergent"),
                oracle_family(c, "strictly_divergent"))
    for ip, p in enumerate(c.points):
        rib = co.ribbon(c, p)
        got = [(frozenset(pr.upper.ids()), frozenset(pr.lower.ids())) for pr in rib.pairs]
        assert got == oracle_ribbon(c, p, families), (p, c.relation.tolist())
        for pair in rib.pairs:
            assert _density_gap(c, ip, *pair.masks()) == _scan_witness(c, ip, *pair.masks())
        reg = co.is_regular_ribbon(c, p)
        witness = reg.witness and tuple(
            x.masks() if isinstance(x, co.RibbonPair) else x.mask for x in reg.witness)
        assert (reg.regular, reg.empty, reg.failing_condition, witness) == reference_regularity(
            c, ip, _scan_witness), (p, c.relation.tolist())


def test_ribbons_match_oracle_on_every_small_poset():
    # every poset up to 5 points up to isomorphism
    for n in range(6):
        for c in naturally_labelled_posets(n):
            _check_ribbons(c)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 9), st.floats(0.1, 0.7))
def test_ribbons_match_oracle_on_random_posets(seed, n, p_edge):
    _check_ribbons(random_poset(n, p_edge, np.random.default_rng(seed)))


def test_reconstruction_stores_only_the_strict_families(l33, not_dense_7):
    # reconstruction counts each point's pairs from the two strict family
    # arrays, which it reads once per point: it stores no strict sets, no
    # ribbon and no PointSet, which would point back at the causality
    strict = (Kind.STRICTLY_CONVERGENT, Kind.STRICTLY_DIVERGENT)
    want = {"cover", "rows", "succ", "pred", "class_codes", *(("family", kind) for kind in strict)}
    for c in (l33, not_dense_7):
        for _ in range(2):
            co.reconstruct_order(c)
            assert set(c._derived) == want
        assert not any(c._derived["family", kind].flags.writeable for kind in strict)


def test_reversal_report_builds_nothing(l33):
    # the report follows from the proof: no reverse, no family of either
    # side, and no form of the order but the packed rows and cover
    rep = co.verify_reversal_theorem(l33)
    assert rep.all_hold
    assert set(l33._derived) == {"cover", "rows"}


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------

def test_empty_ribbon_regular_and_flagged(d4):
    reg = co.is_regular_ribbon(d4, "p")
    assert reg.regular and reg.empty


def test_nonempty_ribbons_fail_density_on_fixtures(l5, l33):
    for c in (l5, l33):
        for p in c.points:
            if len(co.ribbon(c, p)):
                reg = co.is_regular_ribbon(c, p)
                assert not reg.regular
                assert reg.failing_condition == "density"
                assert reg.witness is not None


def test_dense_first_pair_is_a_theorem_violation(l5, monkeypatch):
    # is_dense proves that the first pair has a gap; a test that found
    # none would contradict the proof, and says so instead of reporting
    monkeypatch.setattr(co.reconstruction, "_density_gap", lambda *args: None)
    with pytest.raises(co.TheoremViolation, match="first ribbon pair over m is dense"):
        co.is_regular_ribbon(l5, "m")


# ---------------------------------------------------------------------------
# Congruence
# ---------------------------------------------------------------------------

def test_congruence_reflexive_and_symmetric(l33):
    for p in l33.points:
        pairs = co.ribbon(l33, p).pairs
        for pr in pairs:
            assert co.congruent(l33, p, pr, pr)
        for i, pr1 in enumerate(pairs):
            for pr2 in pairs[i + 1:]:
                try:
                    fwd = co.congruent(l33, p, pr1, pr2)
                    bwd = co.congruent(l33, p, pr2, pr1)
                except co.NotCongruentDecidable:
                    continue
                assert fwd == bwd


def test_congruent_pairs_exist_and_satisfy_meet_lemma(l33):
    # whenever (A,B) ~ (C,D): A ∩ D = B ∩ C = {p}
    found = 0
    for p in l33.points:
        bit = 1 << l33.index[p]
        pairs = co.ribbon(l33, p).pairs
        for i, pr1 in enumerate(pairs):
            for pr2 in pairs[i + 1:]:
                try:
                    if not co.congruent(l33, p, pr1, pr2):
                        continue
                except co.NotCongruentDecidable:
                    continue
                found += 1
                assert pr1.upper.mask & pr2.lower.mask == bit
                assert pr1.lower.mask & pr2.upper.mask == bit
    assert found > 0


def test_congruence_classes_require_regular(l5):
    with pytest.raises(co.NotRegular):
        co.congruence_classes(l5, "m")


def test_congruence_classes_on_empty_ribbon(d4):
    rib = co.congruence_classes(d4, "p")
    assert rib.regular and rib.classes == ()


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_l33_domain_empty_with_diagnostics(l33):
    rep = co.reconstruct_order(l33)
    assert rep.domain == ()
    assert rep.relation.shape == (0, 0)
    assert rep.agrees
    for p in l33.points:
        diag = rep.diagnostics[p]
        if diag["ribbon_pairs"]:
            assert diag["regular"] is False
            assert diag["failing_condition"] == "density"
        else:
            assert diag["regular"] is True and diag["empty"] is True


def test_reconstruct_empty_causality():
    c = co.validate_causality([], np.zeros((0, 0), dtype=bool))
    rep = co.reconstruct_order(c)
    assert rep.domain == () and rep.diffs == []


def test_reconstruct_report_json(l33):
    doc = co.reconstruct_order(l33).to_dict()
    assert {"domain", "relation", "diagnostics", "agreement"} <= doc.keys()
    assert doc["agreement"]["diffs"] == []
    assert set(doc["diagnostics"]) == set(l33.points)


def test_reconstruct_cap():
    # the reversal report is proved and builds nothing, but keeps the cap,
    # so CLI verify --suite reversal still exits 3 past it
    for check in (co.reconstruct_order, co.verify_reversal_theorem):
        with pytest.raises(co.GroundSetTooLarge, match="order reconstruction is capped at 14"):
            check(co.antichain(15))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7), st.floats(0.1, 0.7))
def test_reconstruct_random_posets_is_partial_order(seed, n, p_edge):
    # reconstruct_order asserts reflexivity/antisymmetry/transitivity
    # internally and raises on violation; re-check here
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    rep = co.reconstruct_order(c)
    k = len(rep.domain)
    rel = rep.relation
    assert rel.diagonal().all() if k else True
    assert not (rel & rel.T & ~np.eye(k, dtype=bool)).any()


# ---------------------------------------------------------------------------
# Reversal theorem
# ---------------------------------------------------------------------------

def test_reversal_theorem_on_fixtures(l5, l33, chain3):
    for c in (l5, l33, chain3):
        rep = co.verify_reversal_theorem(c)
        assert rep.all_hold, rep.to_dict()


def test_reversal_theorem_empty_causality():
    c = co.validate_causality([], np.zeros((0, 0), dtype=bool))
    assert co.verify_reversal_theorem(c).all_hold


# ---------------------------------------------------------------------------
# The finite collapse applied: counts and the proved report against the
# paper's construction
# ---------------------------------------------------------------------------

def _check_reconstruction(c):
    """reconstruct_order, verify_reversal_theorem and congruence_classes
    against the construction they replaced: regularity by both
    conditions, union-find classes, the relation loop with its
    partial-order check, and a reconstruction of the reverse."""
    assert co.reconstruct_order(c).to_dict() == reference_reconstruct_order(
        c).to_dict(), c.relation.tolist()
    assert co.verify_reversal_theorem(c).to_dict() == reference_reversal_theorem(c).to_dict()
    for p in c.points:
        try:
            want = reference_congruence_classes(c, p)
        except co.NotRegular as exc:
            with pytest.raises(co.NotRegular) as got:
                co.congruence_classes(c, p)
            assert str(got.value) == str(exc)
        else:
            rib = co.congruence_classes(c, p)
            assert rib.regular and rib.pairs == () and rib.classes == want == ()


def test_reconstruction_matches_reference_on_every_small_poset():
    for n in range(6):
        for c in naturally_labelled_posets(n):
            _check_reconstruction(c)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 14), st.floats(0.1, 0.7))
def test_reconstruction_matches_reference_on_relabelled_random_posets(seed, n, p_edge):
    rng = np.random.default_rng(seed)
    _check_reconstruction(relabelled(random_poset(n, p_edge, rng), rng))


# ---------------------------------------------------------------------------
# Regular causalities
# ---------------------------------------------------------------------------

def test_fixtures_are_regular_causalities(chain3, d4, l5, l33, anti3):
    for c in (chain3, d4, l5, l33, anti3):
        rep = co.is_regular_causality(c)
        assert rep.regular and rep.crossing
        assert all(rep.point_ok(p) for p in c.points)
        assert rep.to_dict()["extension_failures"] == []


def test_regular_causality_point_ok_rejects_an_unknown_id(l33):
    with pytest.raises(KeyError, match="zz"):
        co.is_regular_causality(l33).point_ok("zz")


def test_regular_causality_vertex_closure_is_checked(l33):
    # the interior point passes: its bounded strict sets union to bounded
    # strict sets (proved in the is_regular_causality docstring)
    rep = co.is_regular_causality(l33)
    assert rep.pair_ok("00", "11")
    doc = rep.to_dict()
    assert {"regular", "crossing", "points", "extension_failures"} <= doc.keys()


def test_vertex_sets_union_keeps_vertex(l33):
    # bullet carried out by hand at the interior point: every pair of
    # strictly convergent sets with upper vertex 11 unions to another one
    ip = l33.index["11"]
    fam = [a for a in family_masks(l33, Kind.STRICTLY_CONVERGENT)
           if a >> ip & 1 and a & ~l33.pred_masks[ip] == 0]
    assert fam
    for a in fam:
        for b in fam:
            u = co.causal_union(
                l33, co.PointSet(l33, a), co.PointSet(l33, b), Kind.CONVERGENT
            )
            assert co.classify(l33, u) is SetClass.STRICTLY_CONVERGENT
            assert co.vertex(l33, u, co.Direction.UPPER) == "11"


def _bounded_strict(c, ip, kind):
    """Strict sets through point ip whose vertex is ip itself."""
    ups, downs = _strict_through(c, ip)
    if kind is Kind.STRICTLY_CONVERGENT:
        fam, bound = ups, c.pred_masks[ip]
    else:
        fam, bound = downs, c.succ_masks[ip]
    return fam[(fam & np.uint64(c.full_mask & ~bound)) == 0].tolist()


def _scanned_regular_causality(c):
    """is_regular_causality(c).to_dict() with the cone-union and the
    extension conditions scanned set by set, the reference for the proofs
    in its docstring."""
    crossing = co.has_crossing_property(c).holds
    point_diag = {}
    for ip, p in enumerate(c.points):
        diag = {"cone_union_up": None, "cone_union_down": None}
        for key, kind, union_kind, strict_cls in (
            ("cone_union_up", Kind.STRICTLY_CONVERGENT, Kind.CONVERGENT,
             SetClass.STRICTLY_CONVERGENT),
            ("cone_union_down", Kind.STRICTLY_DIVERGENT, Kind.DIVERGENT,
             SetClass.STRICTLY_DIVERGENT),
        ):
            fam = _bounded_strict(c, ip, kind)
            bound = c.pred_masks[ip] if kind is Kind.STRICTLY_CONVERGENT else c.succ_masks[ip]
            for i, a in enumerate(fam):
                for b in fam[i:]:
                    u = _union_mask(c, a, b, union_kind)
                    if u is None or class_of_mask(c, u) is not strict_cls or u & ~bound:
                        diag[key] = {"a": c.ids_of(a), "b": c.ids_of(b),
                                     "reason": "undefined union" if u is None
                                     else "union is not a strict vertex set at the point"}
                        break
                if diag[key]:
                    break
        point_diag[p] = diag

    extension_failures = []
    for ip, p in enumerate(c.points):
        ups_p = _bounded_strict(c, ip, Kind.STRICTLY_CONVERGENT)
        downs_p = _bounded_strict(c, ip, Kind.STRICTLY_DIVERGENT)
        for iq, q in enumerate(c.points):
            if ip == iq or not c.relation[ip, iq]:
                continue
            ups_q = _bounded_strict(c, iq, Kind.STRICTLY_CONVERGENT)
            downs_q = _bounded_strict(c, iq, Kind.STRICTLY_DIVERGENT)
            for a in ups_p:
                if not any(a & ~b == 0 for b in ups_q):
                    extension_failures.append(
                        {"p": p, "q": q, "set": c.ids_of(a),
                         "reason": "no enclosing vertex set at the later point"})
                    break
            for a in downs_q:
                if not any(a & ~b == 0 for b in downs_p):
                    extension_failures.append(
                        {"p": p, "q": q, "set": c.ids_of(a),
                         "reason": "no enclosing vertex set at the earlier point"})
                    break

    regular = crossing and all(
        d["cone_union_up"] is None and d["cone_union_down"] is None
        for d in point_diag.values()) and not extension_failures
    return {"regular": regular, "crossing": crossing, "points": point_diag,
            "extension_failures": extension_failures}


def test_regular_causality_matches_scan_on_every_small_poset():
    for n in range(6):
        for c in naturally_labelled_posets(n):
            assert co.is_regular_causality(c).to_dict() == _scanned_regular_causality(c), (
                c.relation.tolist())


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 10), st.floats(0.1, 0.7))
def test_regular_causality_matches_scan_on_random_posets(seed, n, p_edge):
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    assert co.is_regular_causality(c).to_dict() == _scanned_regular_causality(c)


def test_regular_causality_lists_no_family():
    # only the crossing scan runs, so no class codes are built, and the
    # check answers above RIBBON_CAP
    c = co.grid(4, 4)
    rep = co.is_regular_causality(c)
    assert rep.regular and rep.crossing
    assert "class_codes" not in c._derived


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.floats(0.1, 0.7))
def test_congruence_decidable_or_flagged_random(seed, n, p_edge):
    # congruence either returns a verdict or raises the dedicated error;
    # anything else is a bug
    c = random_poset(n, p_edge, np.random.default_rng(seed))
    for p in c.points:
        pairs = co.ribbon(c, p).pairs
        for i, pr1 in enumerate(pairs):
            for pr2 in pairs[i:]:
                try:
                    verdict = co.congruent(c, p, pr1, pr2)
                except co.NotCongruentDecidable:
                    continue
                assert verdict in (True, False)


def test_non_partial_order_names_domain_points():
    rel = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool)
    with pytest.raises(co.TheoremViolation, match=r"\('x', 'y', 'z'\)"):
        reference_assert_partial_order(rel, ["x", "y", "z"])


# ---------------------------------------------------------------------------
# The finite collapse: no ribbon pair is dense
# ---------------------------------------------------------------------------

def _members(m):
    return [i for i in range(m.bit_length()) if m >> i & 1]


def _cone(rows, m):
    """The union of the rows of the members of m: ↑m for succ_masks, ↓m
    for pred_masks."""
    out = 0
    for i in _members(m):
        out |= rows[i]
    return out


def _extremes(rows, m):
    """The members of m whose row meets m only in themselves: the maximal
    members for succ_masks, the minimal ones for pred_masks."""
    return [i for i in _members(m) if rows[i] & m == 1 << i]


def _collapse_cut(c, ip, a, b):
    """The construction in is_dense's docstring for the ribbon pair (a, b)
    over point p = ip: (case, side, s, y), where s should be a strict set
    through p that cuts side, "upper" (a) or "lower" (b), to {p, y}."""
    up, down = c.succ_masks, c.pred_masks
    bit = 1 << ip

    def hull(m):
        return _cone(up, m) & _cone(down, m)

    (t,), (bottom,) = _extremes(up, a), _extremes(down, b)
    if t != ip and up[ip] & b != bit:
        y = _extremes(down, a & _cone(up, b) & ~bit)[0]
        return 1, "upper", hull(b | 1 << y), y
    z_pool = b & _cone(down, a) & ~bit
    if bottom != ip and down[ip] & a != bit:
        z = _extremes(up, z_pool)[0]
        return 2, "lower", hull(a | 1 << z), z
    if t == bottom == ip:
        y = _extremes(up, a & ~bit)[0]
        return 3, "upper", hull(b | 1 << y), y
    z = _extremes(up, z_pool)[0]
    minimal = _extremes(down, a)
    if any(not up[z] >> m & 1 for m in minimal):
        return 4, "lower", hull(a | 1 << z), z
    y = next(m for m in minimal if m != ip)
    return 4, "upper", hull(b | 1 << y), y


def _check_collapse(c, cases):
    """Every ribbon pair of c: the construction gives a strict set through
    the point that cuts one side to {p, y}, the scan finds the pair not
    dense, and the per-cut test returns the product's first gap.  The
    case numbers met are added to ``cases``."""
    strict = {"upper": SetClass.STRICTLY_DIVERGENT, "lower": SetClass.STRICTLY_CONVERGENT}
    for ip in range(c.n):
        bit = 1 << ip
        upper, lower = _ribbon_masks(c, ip)
        for a, b in zip(upper.tolist(), lower.tolist()):
            case, side, s, y = _collapse_cut(c, ip, a, b)
            cases.add(case)
            where = (c.relation.tolist(), ip, a, b, case)
            assert s & bit and class_of_mask(c, s) is strict[side], where
            assert y != ip and (a if side == "upper" else b) & s == bit | 1 << y, where
            gap = _scan_witness(c, ip, a, b)
            assert gap is not None, where
            assert _density_gap(c, ip, a, b) == product_density_gap(c, ip, a, b) == gap


def test_collapse_on_every_small_poset():
    cases = set()
    for n in range(6):
        for c in naturally_labelled_posets(n):
            _check_collapse(c, cases)
    assert cases == {1, 2, 3, 4}


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 9), st.floats(0.1, 0.7))
def test_collapse_on_relabelled_random_posets(seed, n, p_edge):
    rng = np.random.default_rng(seed)
    _check_collapse(relabelled(random_poset(n, p_edge, rng), rng), set())


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 9), st.floats(0.1, 0.7))
def test_ribbons_match_oracle_on_relabelled_random_posets(seed, n, p_edge):
    # the checks of test_ribbons_match_oracle_on_random_posets, on
    # labellings that need not be natural
    rng = np.random.default_rng(seed)
    _check_ribbons(relabelled(random_poset(n, p_edge, rng), rng))


def _is_chain(c, m):
    idx = _members(m)
    sub = c.relation[np.ix_(idx, idx)]
    return bool((sub | sub.T).all())


def _scan_cells(c, ip, a, b):
    """(every cell (cut of a, cut of b), the cells no ribbon pair refines),
    both in ascending order, by the scan behind _scan_witness."""
    pairs, pool = _pair_scan(c, ip)
    cuts_a = sorted({a & v for v in pool} - {1 << ip})
    cuts_b = sorted({b & v for v in pool} - {1 << ip})
    cells = [(x, y) for x in cuts_a for y in cuts_b]
    gaps = [(x, y) for x, y in cells if not any(u & ~x == 0 and w & ~y == 0 for u, w in pairs)]
    return cells, gaps


def _ribbon_pair(c, p, upper, lower):
    masks = (c.mask_of(upper), c.mask_of(lower))
    return next(pr for pr in co.ribbon(c, p).pairs if pr.masks() == masks)


def test_density_gap_cuts_need_not_be_chains(antichain_gap_5):
    c = antichain_gap_5
    pair = _ribbon_pair(c, "v3", ["v2", "v3", "v4"], ["v0", "v1", "v3"])
    cut_a, cut_b = _density_gap(c, c.index["v3"], *pair.masks())
    assert (c.ids_of(cut_a), c.ids_of(cut_b)) == (("v2", "v3"), ("v1", "v3"))
    assert not _is_chain(c, cut_a) and not _is_chain(c, cut_b)
    # no failing cell of the pair has a chain for either cut
    _, gaps = _scan_cells(c, c.index["v3"], *pair.masks())
    assert gaps[0] == (cut_a, cut_b)
    assert not any(_is_chain(c, x) or _is_chain(c, y) for x, y in gaps)
    _check_ribbons(c)


def test_density_gap_past_the_first_cell(late_gap_7):
    c = late_gap_7
    pair = _ribbon_pair(c, "v4", ["v0", "v1", "v2", "v4"], ["v3", "v4", "v5", "v6"])
    cut_a, cut_b = _density_gap(c, c.index["v4"], *pair.masks())
    assert (c.ids_of(cut_a), c.ids_of(cut_b)) == (("v0", "v1", "v4"), ("v4", "v6"))
    cells, gaps = _scan_cells(c, c.index["v4"], *pair.masks())
    assert gaps[0] == (cut_a, cut_b)
    # the first cell, the two smallest cuts, is refined by a ribbon pair
    first = cells[0]
    assert (c.ids_of(first[0]), c.ids_of(first[1])) == (("v0", "v1", "v4"), ("v3", "v4", "v5"))
    assert first not in gaps
    _check_ribbons(c)
