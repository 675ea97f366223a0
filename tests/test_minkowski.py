"""Metric order, sprinkling, horizons, and the Monte-Carlo oracle."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalorder as co
from causalorder import ConeKind, ConeSetDescriptor, SetClass, SprinkleConfig, SprinkleMode
from causalorder.cli import main
from causalorder.minkowski import _ROWS, _relation_from_events
from causalorder.order import _compose, validate_matrix

from conftest import full_minkowski_relation, product_cover


# ---------------------------------------------------------------------------
# Intervals and the metric order
# ---------------------------------------------------------------------------

def test_interval_values():
    assert co.interval((0, 0), (1, 0)) == 1.0
    assert co.interval((0, 0), (1, 1)) == 0.0
    assert co.interval((0, 0, 0, 0), (1, 2, 0, 0)) == -3.0


def test_interval_classification():
    assert co.classify_interval(1.0) == "timelike"
    assert co.classify_interval(0.0) == "lightlike"
    assert co.classify_interval(-3.0) == "spacelike"


def test_precedes():
    assert co.precedes((0, 0), (2, 1))
    assert not co.precedes((0, 0), (-1, 0))
    assert not co.precedes((0, 0), (1, 2))
    assert co.precedes((0, 0), (1, 1))  # lightlike counts
    assert co.precedes((0, 0), (0, 0))


def test_dimension_mismatch():
    with pytest.raises(co.DimensionMismatch):
        co.interval((0, 0), (0, 0, 0, 0))


# ---------------------------------------------------------------------------
# Sprinkling
# ---------------------------------------------------------------------------

def test_lattice_sprinkle_is_product_lattice(l33):
    res = co.sprinkle(SprinkleConfig(d=1, box=((0, 2), (0, 2)), mode=SprinkleMode.LATTICE))
    assert res.causality.n == 9
    assert np.array_equal(res.causality.relation, l33.relation)


def test_lattice_events_are_lightcone_mapped():
    res = co.sprinkle(SprinkleConfig(d=1, box=((0, 1), (0, 1)), mode=SprinkleMode.LATTICE))
    assert set(res.events) == {(0.0, 0.0), (1.0, -1.0), (1.0, 1.0), (2.0, 0.0)}


def test_empty_sprinkle():
    res = co.sprinkle(SprinkleConfig(d=1, box=((0, 1), (0, 1)), n=0, seed=1))
    assert res.causality.n == 0 and res.events == ()


def test_uniform_sprinkle_deterministic_and_valid():
    cfg = SprinkleConfig(d=1, box=((0, 1), (0, 1)), n=120, seed=77)
    r1, r2 = co.sprinkle(cfg), co.sprinkle(cfg)
    assert r1.events == r2.events
    assert np.array_equal(r1.causality.relation, r2.causality.relation)
    # construction validates the poset axioms; reflexivity spot check
    assert r1.causality.relation.diagonal().all()


def test_uniform_sprinkle_3d():
    cfg = SprinkleConfig(d=3, box=((0, 1),) * 4, n=40, seed=5)
    res = co.sprinkle(cfg)
    assert res.causality.n == 40
    assert len(res.events[0]) == 4


def test_sprinkle_config_validation():
    with pytest.raises(co.UnsupportedDimension):
        SprinkleConfig(d=2, box=((0, 1),) * 3, n=5)
    with pytest.raises(co.DimensionMismatch):
        SprinkleConfig(d=1, box=((0, 1),) * 4, n=5)
    with pytest.raises(ValueError):
        SprinkleConfig(d=1, box=((0, 0), (0, 1)), n=5)
    with pytest.raises(co.UnsupportedDimension):
        SprinkleConfig(d=3, box=((0, 1),) * 4, mode=SprinkleMode.LATTICE)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        SprinkleConfig(d=1, box=((0, 1), (0, 1)), n=-1)


@pytest.mark.parametrize("mode", list(SprinkleMode))
@pytest.mark.parametrize("axis", [(0, math.inf), (-math.inf, 0), (0, math.nan),
                                  (-1e308, 1e308)])
def test_sprinkle_config_rejects_non_finite_box(axis, mode):
    # (-1e308, 1e308) has finite bounds but a width that overflows float64
    with pytest.raises(ValueError, match="must be finite"):
        SprinkleConfig(d=1, box=(axis, (0, 1)), n=3, mode=mode)


def test_boost_preserves_induced_order():
    cfg = SprinkleConfig(d=1, box=((0, 1), (0, 1)), n=60, seed=11)
    res = co.sprinkle(cfg)
    for phi in (0.5, 1.0):
        boosted = co.boost(res.events, phi)
        again = co.induced_causality(boosted)
        assert np.array_equal(res.causality.relation, again.relation)


def test_boost_is_lorentz():
    (t, x), = co.boost([(1.0, 0.0)], 0.7)
    assert math.isclose(t * t - x * x, 1.0, rel_tol=1e-12)


def test_uniform_events_are_the_drawn_floats():
    cfg = SprinkleConfig(d=3, box=((0, 1), (-1, 2), (0, 1), (0, 5)), n=50, seed=8)
    pts = np.random.default_rng(8).uniform([0, -1, 0, 0], [1, 2, 1, 5], size=(50, 4))
    events = co.sprinkle(cfg).events
    assert events == tuple(tuple(map(float, row)) for row in pts)
    assert {type(x) for e in events for x in e} == {float}


@pytest.mark.parametrize("events, bad, dims", [
    ([(0.0, 0.0), (1.0, 0.0, 0.0)], 1, (2, 3)),
    ([(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (2.0, 0.0)], 2, (4, 2)),
])
def test_ragged_events_raise_dimension_mismatch(events, bad, dims):
    with pytest.raises(co.DimensionMismatch,
                       match=f"events 0 and {bad} have dimensions {dims[0]} and {dims[1]}"):
        co.induced_causality(events)


# ---------------------------------------------------------------------------
# The relation builder in a time sort against the whole-matrix expression
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308]


@st.composite
def event_arrays(draw):
    """(n, d+1) events, n = 0-300 and d = 0, 1 or 3: uniform draws, scaled
    into the subnormal range or not; times taken from a few values (±0.0
    among them) or not; rows copied over others or not; and a share of
    cells set to ±0.0, ±inf, NaN or a tiny float."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 300))
    ev = rng.uniform(-1.0, 1.0, size=(n, draw(st.sampled_from([1, 2, 4]))))
    ev *= draw(st.sampled_from([1.0, 1e-300, 1e-310]))
    if n and draw(st.booleans()):
        ev[:, 0] = rng.choice(np.r_[ev[:n // 8 + 1, 0], 0.0, -0.0], size=n)
    if n and draw(st.booleans()):
        ev[rng.integers(0, n, size=n // 4 + 1)] = ev[rng.integers(0, n, size=n // 4 + 1)]
    hit = rng.random(ev.shape) < draw(st.sampled_from([0.0, 0.0, 0.002, 0.05]))
    ev[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
    return ev


def _outcome(build):
    """The relation a build gives, or its exception type and witness."""
    try:
        return build().relation
    except co.InvalidRelation as exc:
        return type(exc), exc.witness


def test_event_draws_pass_the_row_block():
    assert _ROWS < 300


@settings(max_examples=80, deadline=None, derandomize=True)
@given(event_arrays(), st.booleans())
def test_relation_from_events_matches_the_full_matrix(ev, as_tuples):
    with np.errstate(invalid="ignore", over="ignore"):
        want = full_minkowski_relation(ev)
        assert np.array_equal(_relation_from_events(ev)[0], want)
        got = _outcome(lambda: co.induced_causality(ev.tolist() if as_tuples else ev))
        ids = [f"e{i}" for i in range(len(ev))]
        expected = _outcome(lambda: co.validate_causality(ids, want))
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and got == expected
    else:
        assert np.array_equal(got, expected)


def test_events_numpy_cannot_read_raise_numpys_error():
    # every event has one length, so no DimensionMismatch names a pair
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        co.induced_causality([("x", 0.0)])


def _cover_pairs(c):
    return [(c.points[i], c.points[j]) for i, j in zip(*np.nonzero(product_cover(c.relation)))]


@pytest.mark.parametrize("d", [1, 3])
def test_certified_sprinkle_runs_no_product_until_its_cover_is_read(d, monkeypatch, tmp_path):
    """Every pair of a uniform 1000-point sprinkle is certified: building
    it, writing it with CLI sprinkle and reversing it run no product, and
    the cover each of the pair makes on its first read is the product's."""
    calls = []
    monkeypatch.setattr(co.order, "_compose", lambda a, b: calls.append(1) or _compose(a, b))
    box = ",".join(["0:1"] * (d + 1))
    assert main(["sprinkle", "--dim", str(d), "--box", box, "--n", "1000", "--seed", "7",
                 "--output", str(tmp_path / "run.json")]) == 0
    c = co.sprinkle(SprinkleConfig(d=d, box=((0, 1),) * (d + 1), n=1000, seed=7)).causality
    rev = co.reverse_structure(c)
    assert calls == [] and "cover" not in c._derived and "cover" not in rev._derived
    for x in (c, rev):
        assert co.cover_relation(x) == _cover_pairs(x)
    assert len(calls) == 2


@pytest.mark.parametrize("events, outcome", [
    # |ŝ| is about 2e-15, below τ = 2e-12: the sign is not certified
    ([(0.0, 0.0), (1.0, 1.0 - 1e-15)], [[True, True], [False, True]]),
    (co.sprinkle(SprinkleConfig(d=1, box=((0, 2), (0, 2)), mode=SprinkleMode.LATTICE)).events,
     co.grid(3, 3).relation.tolist()),
    ([(0.0, 0.0), (0.5, 0.1), (0.0, 0.0)], (co.NotAntisymmetric, (0, 2))),
    ([(math.nan, 0.0)], (co.NotReflexive, (0,))),
    ([(0.0, 0.0), (1.0, 0.0), (math.nan, 0.5)], (co.NotReflexive, (2,))),
    # every cell is past τ, but the rounding bound needs d < 4000
    ([(0.0,) * 4001, (1.0,) + (0.0,) * 4000], [[True, True], [False, True]]),
], ids=["near-lightlike", "lattice", "duplicate", "nan", "nan-among-others", "d=4000"])
def test_uncertified_events_take_the_validation(events, outcome, monkeypatch):
    seen = []
    monkeypatch.setattr(co.order, "validate_matrix", lambda rel: seen.append(len(rel)) or validate_matrix(rel))
    with np.errstate(invalid="ignore"):
        got = _outcome(lambda: co.induced_causality(events))
    assert seen == [len(events)]
    assert (got.tolist() if isinstance(got, np.ndarray) else got) == outcome


def test_relation_builder_holds_no_n_by_n_float_temporaries():
    """The whole-matrix expression peaks at about 30 MB on these events."""
    ev = np.random.default_rng(7).uniform(0.0, 1.0, size=(1000, 4))
    tracemalloc.start()
    try:
        _relation_from_events(ev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ---------------------------------------------------------------------------
# Horizon area and entropy
# ---------------------------------------------------------------------------

ORIGIN4 = (0.0, 0.0, 0.0, 0.0)


def test_horizon_area_future_cone():
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=1.0)
    assert math.isclose(co.horizon_area(desc, 1.0), 4 * math.pi, rel_tol=1e-12)
    assert co.horizon_area(desc, 0.0) == 0.0          # apex
    assert co.horizon_area(desc, 1.5) == 0.0          # beyond the cut
    assert co.horizon_area(desc, -0.5) == 0.0         # before the apex


def test_horizon_area_past_cone():
    desc = ConeSetDescriptor(ConeKind.PAST_CONE, (2.0, 0.0, 0.0, 0.0), cut=0.0)
    assert math.isclose(co.horizon_area(desc, 1.0), 4 * math.pi, rel_tol=1e-12)
    assert co.horizon_area(desc, 2.5) == 0.0


def test_horizon_area_diamond():
    desc = ConeSetDescriptor(
        ConeKind.DIAMOND, ORIGIN4, apex2=(2.0, 0.0, 0.0, 0.0)
    )
    assert math.isclose(co.horizon_area(desc, 0.5), math.pi, rel_tol=1e-12)
    assert math.isclose(co.horizon_area(desc, 1.0), 4 * math.pi, rel_tol=1e-12)
    assert math.isclose(co.horizon_area(desc, 1.5), math.pi, rel_tol=1e-12)
    assert co.horizon_area(desc, 2.5) == 0.0


@pytest.mark.parametrize("desc", [
    ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4),
    ConeSetDescriptor(ConeKind.PAST_CONE, ORIGIN4, cut=-1.0),
    ConeSetDescriptor(ConeKind.DIAMOND, ORIGIN4, apex2=(2.0, 0.0, 0.0, 0.0)),
])
def test_horizon_slices_reject_a_nan_time(desc):
    # every comparison with NaN is false, so the radius would come out NaN
    # (horizon_area) or as a sampling box numpy refuses (the Monte Carlo)
    for call in (lambda: co.horizon_area(desc, math.nan),
                 lambda: co.monte_carlo_cross_section(desc, math.nan, 10**4)):
        with pytest.raises(ValueError, match="^slice time must be a number, got nan$"):
            call()


def test_horizon_entropy_formula():
    for t in (0.5, 1.0, 2.0):
        desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=t)
        assert math.isclose(
            co.horizon_entropy(desc, 1.0), 4 * math.pi * t * t, rel_tol=1e-12
        )


def test_horizon_entropy_quadratic_scaling():
    s1 = co.horizon_entropy(ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=1.0), 1.0)
    s2 = co.horizon_entropy(ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=2.0), 1.0)
    assert s2 / s1 == 4.0


def test_horizon_entropy_unbounded_cone_is_infinite():
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4)
    assert co.horizon_entropy(desc, 1.0) == math.inf


def test_horizon_entropy_bekenstein_hawking():
    for t in (0.5, 1.0, 2.0):
        desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=t)
        alpha = co.bekenstein_hawking_alpha(boltzmann=1.0, planck_length=1.0)
        assert co.horizon_entropy(desc, alpha) == math.pi * t * t


def test_horizon_refuses_1plus1():
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, (0.0, 0.0), cut=1.0)
    with pytest.raises(co.UnsupportedDimension):
        co.horizon_area(desc, 0.5)
    with pytest.raises(co.UnsupportedDimension):
        co.horizon_entropy(desc, 1.0)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=-1.0)
    with pytest.raises(ValueError, match="^past-cone cut lies after the apex$"):
        ConeSetDescriptor(ConeKind.PAST_CONE, ORIGIN4, cut=1.0)
    with pytest.raises(ValueError):
        ConeSetDescriptor(ConeKind.DIAMOND, ORIGIN4)
    with pytest.raises(ValueError):
        ConeSetDescriptor(ConeKind.DIAMOND, (1.0, 0.0), apex2=(0.0, 0.0))


@pytest.mark.parametrize("apex, cut, apex2", [
    ((0.0, 0.0, 0.0, 0.0), math.nan, None),
    ((0.0, 0.0, 0.0, 0.0), math.inf, None),
    ((math.nan, 0.0, 0.0, 0.0), 1.0, None),
    ((0.0, math.inf, 0.0, 0.0), 1.0, None),
    ((0.0, 0.0), None, (math.inf, 0.0)),
])
def test_descriptor_rejects_non_finite_coordinates(apex, cut, apex2):
    kind = ConeKind.DIAMOND if apex2 else ConeKind.FUTURE_CONE
    with pytest.raises(ValueError, match="finite"):
        ConeSetDescriptor(kind, apex, cut=cut, apex2=apex2)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_horizon_entropy_rejects_bad_alpha(alpha):
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=1.0)
    with pytest.raises(ValueError, match="alpha"):
        co.horizon_entropy(desc, alpha)


@pytest.mark.parametrize("kwargs", [
    {"planck_length": 0.0}, {"planck_length": -1.0}, {"planck_length": math.nan},
    {"boltzmann": 0.0}, {"boltzmann": math.inf}, {"planck_length": 1e-200},
])
def test_bekenstein_hawking_alpha_rejects_bad_constants(kwargs):
    with pytest.raises(ValueError, match="planck_length|boltzmann"):
        co.bekenstein_hawking_alpha(**kwargs)


def test_diamond_offset_apexes_rejected_for_area():
    desc = ConeSetDescriptor(
        ConeKind.DIAMOND, ORIGIN4, apex2=(3.0, 1.0, 0.0, 0.0)
    )
    with pytest.raises(ValueError):
        co.horizon_area(desc, 1.0)
    # the diamond (0,0,0,0) -> (2,0,0,0) boosted by rapidity 0.5
    boosted = ConeSetDescriptor(ConeKind.DIAMOND, ORIGIN4, apex2=tuple(co.boost([(2.0, 0, 0, 0)], 0.5)[0]))
    with pytest.raises(ValueError, match="coincident spatial apexes"):
        co.horizon_entropy(boosted, 1.0)


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------

def test_mc_zero_radius():
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=1.0)
    assert co.monte_carlo_cross_section(desc, 0.0, 10_000, seed=1) == 0.0


def test_mc_agrees_with_analytic_within_one_percent():
    for radius, seed in ((0.5, 1), (1.0, 2), (2.0, 3)):
        desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=radius)
        est = co.monte_carlo_cross_section(desc, radius, 1_000_000, seed=seed)
        exact = co.horizon_area(desc, radius)
        assert abs(est - exact) / exact < 0.01


def test_mc_requires_enough_samples():
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=1.0)
    with pytest.raises(ValueError):
        co.monte_carlo_cross_section(desc, 1.0, 100, seed=1)


def test_mc_blocks_equal_one_draw_in_less_memory():
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=1.0)
    samples, seed = 200_003, 4  # three full blocks and a partial one
    r = 1.0
    eps, half = 0.05 * r, 1.05 * r
    pts = np.random.default_rng(seed).uniform(-half, half, size=(samples, 3))
    hits = int(np.count_nonzero(np.abs(np.linalg.norm(pts, axis=1) - r) <= eps / 2))
    reference = hits / samples * (2.0 * half) ** 3 / eps
    del pts
    tracemalloc.start()
    try:
        got = co.monte_carlo_cross_section(desc, r, samples, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == reference
    assert peak < samples * 3 * 8  # one draw of every sample at once


@pytest.mark.parametrize("r, samples, seed", [
    (0.5, 1_000_000, 1), (1.0, 1_000_000, 2), (2.0, 1_000_000, 3),
    (1.0, 200_003, 4), (1.0, 50_000, 9),
])
def test_mc_hits_equal_the_norm_reference(r, samples, seed):
    """The shell test counts the same hits as np.linalg.norm's distances,
    on the seeds of the tests above.  The estimate is hits times a
    positive constant, so equal estimates mean equal hit counts."""
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=r)
    eps = 0.05 * r
    half = r + eps
    pts = np.random.default_rng(seed).uniform(-half, half, size=(samples, 3))
    hits = int(np.count_nonzero(np.abs(np.linalg.norm(pts, axis=1) - r) <= eps / 2))
    del pts
    got = co.monte_carlo_cross_section(desc, r, samples, seed=seed)
    assert got == hits / samples * (2.0 * half) ** 3 / eps


def test_mc_deterministic_per_seed():
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, ORIGIN4, cut=1.0)
    a = co.monte_carlo_cross_section(desc, 1.0, 50_000, seed=9)
    b = co.monte_carlo_cross_section(desc, 1.0, 50_000, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# Canonical truncated sets on sprinkled causalities
# ---------------------------------------------------------------------------

def _centered_lattice():
    return co.sprinkle(
        SprinkleConfig(d=1, box=((-1, 1), (-1, 1)), mode=SprinkleMode.LATTICE)
    )


def test_future_truncation_is_divergent():
    res = _centered_lattice()
    bottom = min(res.events)  # (-2, 0)
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, bottom, cut=0.0)
    sel = co.cone_region_points(desc, res.events, res.causality)
    assert len(sel) > 1
    cls = co.classify(res.causality, sel)
    assert cls in (SetClass.STRICTLY_DIVERGENT, SetClass.BOTH)
    assert co.is_divergent(res.causality, sel)
    assert co.is_causally_complete(res.causality, sel)


def test_past_truncation_is_convergent():
    res = _centered_lattice()
    top = max(res.events)  # (2, 0)
    desc = ConeSetDescriptor(ConeKind.PAST_CONE, top, cut=0.0)
    sel = co.cone_region_points(desc, res.events, res.causality)
    assert len(sel) > 1
    assert co.is_convergent(res.causality, sel)
    assert co.is_causally_complete(res.causality, sel)


def test_diamond_selection_is_both():
    res = _centered_lattice()
    desc = ConeSetDescriptor(ConeKind.DIAMOND, min(res.events), apex2=max(res.events))
    sel = co.cone_region_points(desc, res.events, res.causality)
    assert len(sel) == res.causality.n  # whole lattice
    assert co.classify(res.causality, sel) is SetClass.BOTH


def test_empty_region_selection():
    res = _centered_lattice()
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, (10.0, 0.0), cut=11.0)
    sel = co.cone_region_points(desc, res.events, res.causality)
    assert sel.mask == 0
    assert co.classify(res.causality, sel) is SetClass.BOTH


def test_region_selection_without_causality():
    res = _centered_lattice()
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, (0.0, 0.0))
    sel = co.cone_region_points(desc, res.events)
    assert set(sel.ids()) == {
        sel.parent.points[i]
        for i, e in enumerate(res.events)
        if co.precedes((0.0, 0.0), e)
    }


def test_region_selection_rejects_a_causality_of_another_size():
    res = _centered_lattice()
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, (0.0, 0.0))
    with pytest.raises(ValueError, match="^causality and event list disagree on size$"):
        co.cone_region_points(desc, res.events[1:], res.causality)


def test_truncated_sets_divergent_on_random_sprinkles():
    cfg = SprinkleConfig(d=1, box=((0, 1), (0, 1)), n=30, seed=21)
    res = co.sprinkle(cfg)
    apex = res.events[0]
    desc = ConeSetDescriptor(ConeKind.FUTURE_CONE, apex, cut=1.0)
    sel = co.cone_region_points(desc, res.events, res.causality)
    assert co.is_divergent(res.causality, sel)
    assert co.is_causally_complete(res.causality, sel)
