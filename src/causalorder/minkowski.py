"""Flat-spacetime bridge: metric order, sprinkling, horizon entropy.

Events are (d+1)-tuples of coordinates with the time component first,
under the signature (+, -, ..., -).  Finite causalities are induced from
event samples by the metric order; truncated cones and diamonds supply
the canonical causal sets whose horizon area gives an entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, UnsupportedDimension
from .order import Causality, PointSet, _pack, validate_causality

__all__ = [
    "interval",
    "classify_interval",
    "precedes",
    "SprinkleMode",
    "SprinkleConfig",
    "SprinkleResult",
    "sprinkle",
    "induced_causality",
    "boost",
    "ConeKind",
    "ConeSetDescriptor",
    "horizon_area",
    "horizon_entropy",
    "monte_carlo_cross_section",
    "cone_region_points",
    "bekenstein_hawking_alpha",
]

Event = Sequence[float]


def _check_dims(x: Event, y: Event) -> None:
    if len(x) != len(y):
        raise DimensionMismatch(f"events have dimensions {len(x)} and {len(y)}")


def interval(x: Event, y: Event) -> float:
    """The squared separation (x - y)^2 under signature (+, -, ..., -)."""
    _check_dims(x, y)
    dt = x[0] - y[0]
    out = dt * dt
    for a, b in zip(x[1:], y[1:]):
        out -= (a - b) * (a - b)
    return out


def classify_interval(value: float) -> str:
    if value > 0:
        return "timelike"
    if value == 0:
        return "lightlike"
    return "spacelike"


def precedes(x: Event, y: Event) -> bool:
    """True iff y lies in the future cone of x: causal separation and
    a time component no earlier than x's.  Lightlike-related distinct
    events count as ordered."""
    return interval(x, y) >= 0 and y[0] >= x[0]


class SprinkleMode(Enum):
    UNIFORM = "uniform"
    LATTICE = "lattice"


@dataclass(frozen=True)
class SprinkleConfig:
    """Parameters for generating a finite causality from flat spacetime.

    ``box`` holds one (min, max) interval per coordinate.  UNIFORM mode
    samples ``n`` i.i.d. points in the box.  LATTICE mode (1+1 only)
    ignores ``n`` and places events on the integer grid of the box read
    in light-cone axes (u, v), mapped to (t, x) = (u + v, u - v); aligning
    the grid with the null directions makes the induced order the product
    order of the grid, so boxes give genuine lattices.
    """

    d: int
    box: tuple[tuple[float, float], ...]
    n: int = 0
    seed: int = 0
    mode: SprinkleMode = SprinkleMode.UNIFORM

    def __post_init__(self):
        if self.d not in (1, 3):
            raise UnsupportedDimension(f"spatial dimension must be 1 or 3, got {self.d}")
        if len(self.box) != self.d + 1:
            raise DimensionMismatch(
                f"box needs {self.d + 1} axis intervals, got {len(self.box)}"
            )
        for lo, hi in self.box:
            # NaN, infinite and overflowing-width axes all make hi - lo non-finite
            if not math.isfinite(hi - lo):
                raise ValueError(f"box interval {lo}:{hi} must be finite, with a finite width")
            # a zero-width axis still holds one integer in lattice mode
            if not (lo <= hi if self.mode is SprinkleMode.LATTICE else lo < hi):
                raise ValueError("box intervals must be nondegenerate")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.mode is SprinkleMode.LATTICE and self.d != 1:
            raise UnsupportedDimension("lattice mode is defined for d = 1 only")


@dataclass(frozen=True)
class SprinkleResult:
    causality: Causality
    events: tuple[tuple[float, ...], ...]


_ROWS = 64  # event rows per block of _relation_from_events


def _relation_from_events(coords: np.ndarray) -> tuple[np.ndarray, bool]:
    """The whole-matrix float test t_j - t_i >= 0 and (e_j - e_i)^2 >= 0,
    run in a stable sort by time, _ROWS rows at a time, from the first
    column tying the block's first time, then un-permuted; and whether
    every cell off the diagonal is certified, so that the relation is the
    exact light-cone order.

    A skipped cell is false.  NaN sorts last, so either its row time is
    NaN, and so is t_j - t_i, or t_j < t_i, and t_j - t_i < 0: with
    gradual underflow the exact difference of unequal floats is at least
    the least subnormal in size, so x - y = 0 iff x = y, and rounding
    keeps the sign.

    The certificate.  Let u = 2⁻⁵³, span_k the computed range of
    coordinate k, S the computed Σ_k span_k², and τ = max(1e-12·S,
    2⁻¹⁰⁰⁰).  A computed cell is certified iff its float interval ŝ has
    |ŝ| > τ.  Let I be the cell's exact interval and N the sum of the
    squares of its rounded coordinate differences.  Each difference
    rounds once (and is exact where it would underflow), each square once
    (with an absolute error of at most 2⁻¹⁰⁷⁵ where it underflows) and
    each of the d running subtractions once, on a partial sum at most N
    in size, so |ŝ - I| ≤ (d+4)·u·N + (d+1)·2⁻¹⁰⁷⁴.  Rounding is
    monotone, so no rounded difference exceeds span_k in size, and N ≤
    (1+u)^(d+3)·S + (d+1)·2⁻¹⁰⁷⁴.  For d below 4000 the error is then
    below τ, so |ŝ| > τ gives sign(ŝ) = sign(I) ≠ 0; events of 4000
    coordinates or more certify nothing.  The sign of t_j -
    t_i is exact (above), so a relation with every cell certified is the
    exact causal order: reflexive; antisymmetric, since distinct events
    of one time have I ≤ 0, and so I < 0 once certified; and transitive,
    since the future cone is a convex cone.  The n diagonal cells have ŝ = 0 and are
    counted apart; a NaN ŝ is not certified; and a NaN or an inf in the
    coordinates, or an S that overflows, certifies nothing.
    """
    n = len(coords)
    order = np.argsort(coords[:, 0], kind="stable")
    ev = coords[order]
    t, d = ev[:, 0], ev.shape[1] - 1
    norm = float(np.sum(np.ptp(ev, axis=0) ** 2)) if n else 0.0
    tau = max(1e-12 * norm, 2.0 ** -1000)
    out = np.zeros((n, n), dtype=bool)
    uncertain = 0  # cells with |ŝ| ≤ τ or ŝ NaN, the diagonal among them
    for lo in range(0, n, _ROWS):
        start = int(np.searchsorted(t, t[lo]))
        rows, cols = ev[lo:lo + _ROWS, None], ev[None, start:]
        diff0 = cols[..., 0] - rows[..., 0]
        sq = diff0 * diff0
        for k in range(1, ev.shape[1]):
            dk = cols[..., k] - rows[..., k]
            sq -= dk * dk
        np.logical_and(sq >= 0, diff0 >= 0, out=out[lo:lo + _ROWS, start:])
        uncertain += int(np.count_nonzero(~(np.abs(sq, out=sq) > tau)))
    back = np.argsort(order)
    return out.take(back, 0).take(back, 1), math.isfinite(norm) and uncertain == n and d < 4000


def induced_causality(events: Sequence[Event], ids: Sequence[str] | None = None) -> Causality:
    """The finite causality the metric order induces on a list of events.
    Events of different lengths raise DimensionMismatch.

    A relation whose every pair is certified (_relation_from_events) is
    a partial order by the proof there, and is built with no validation;
    its cover diagram is made on its first read.  Any other, such as
    lattice events (exactly lightlike), coincident events or NaN, is
    validated as validate_causality validates it."""
    try:
        coords = np.asarray(events, dtype=float)
    except ValueError:
        dim = len(events[0])
        bad = next((i for i, e in enumerate(events) if len(e) != dim), None)
        if bad is None:
            raise
        raise DimensionMismatch(
            f"events 0 and {bad} have dimensions {dim} and {len(events[bad])}") from None
    if coords.size == 0:
        coords = coords.reshape(0, 2)
    if ids is None:
        ids = [f"e{i}" for i in range(len(coords))]
    rel, certified = _relation_from_events(coords)
    if certified:
        return Causality(ids, None, {"rows": _pack(rel)})
    return validate_causality(list(ids), rel)


def sprinkle(cfg: SprinkleConfig) -> SprinkleResult:
    """Generate events and the causality they induce; deterministic per seed."""
    if cfg.mode is SprinkleMode.LATTICE:
        (ulo, uhi), (vlo, vhi) = cfg.box
        us = range(math.ceil(ulo), math.floor(uhi) + 1)
        vs = range(math.ceil(vlo), math.floor(vhi) + 1)
        pts = events = tuple((float(u + v), float(u - v)) for u in us for v in vs)
    else:
        rng = np.random.default_rng(cfg.seed)
        lows = np.array([lo for lo, _ in cfg.box])
        highs = np.array([hi for _, hi in cfg.box])
        pts = rng.uniform(lows, highs, size=(cfg.n, cfg.d + 1))
        events = tuple(map(tuple, pts.tolist()))
    return SprinkleResult(induced_causality(pts), events)


def boost(events: Sequence[Event], rapidity: float) -> list[tuple[float, ...]]:
    """Apply a boost along the first spatial axis to every event."""
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    out = []
    for e in events:
        t, x, rest = e[0], e[1], tuple(e[2:])
        out.append((ch * t + sh * x, sh * t + ch * x) + rest)
    return out


# ---------------------------------------------------------------------------
# Truncated cones, diamonds, horizon entropy
# ---------------------------------------------------------------------------

class ConeKind(Enum):
    FUTURE_CONE = "future_cone"
    PAST_CONE = "past_cone"
    DIAMOND = "diamond"


@dataclass(frozen=True)
class ConeSetDescriptor:
    """A truncated cone or a diamond in flat spacetime.

    FUTURE_CONE: everything the apex precedes, up to time ``cut``
    (``cut=None`` leaves it unbounded).  PAST_CONE mirrors it.  DIAMOND
    takes the apex as the bottom and ``apex2`` as the top.
    """

    kind: ConeKind
    apex: tuple[float, ...]
    cut: float | None = None
    apex2: tuple[float, ...] | None = None

    def __post_init__(self):
        cut = () if self.cut is None else (self.cut,)
        if not all(map(math.isfinite, (*self.apex, *(self.apex2 or ()), *cut))):
            raise ValueError("cone apexes and cut must be finite")
        if self.kind is ConeKind.DIAMOND:
            if self.apex2 is None:
                raise ValueError("a diamond needs two apexes")
            _check_dims(self.apex, self.apex2)
            if not precedes(self.apex, self.apex2):
                raise ValueError("diamond apexes must be causally related")
        elif self.cut is not None:
            if self.kind is ConeKind.FUTURE_CONE and self.cut < self.apex[0]:
                raise ValueError("future-cone cut lies before the apex")
            if self.kind is ConeKind.PAST_CONE and self.cut > self.apex[0]:
                raise ValueError("past-cone cut lies after the apex")

    def _require_3d(self) -> None:
        if len(self.apex) != 4:
            raise UnsupportedDimension(
                "horizon areas are 2-sphere cross sections; they need d = 3"
            )


def _diamond_apexes(desc: ConeSetDescriptor) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A diamond's bottom and top apexes; ValueError unless they share
    their spatial coordinates, the only diamonds with spherical slices."""
    lo, hi = desc.apex, desc.apex2
    if lo[1:] != hi[1:]:
        raise ValueError(
            "analytic horizon slices cover diamonds with coincident spatial apexes only"
        )
    return lo, hi


def _cross_section_radius(desc: ConeSetDescriptor, t: float) -> float:
    """Radius of the null-boundary slice at time t, or 0 outside the set.
    Raises ValueError for a NaN t, which every comparison below would
    pass or fail silently."""
    if math.isnan(t):
        raise ValueError(f"slice time must be a number, got {t}")
    if desc.kind is ConeKind.FUTURE_CONE:
        if t < desc.apex[0] or (desc.cut is not None and t > desc.cut):
            return 0.0
        return t - desc.apex[0]
    if desc.kind is ConeKind.PAST_CONE:
        if t > desc.apex[0] or (desc.cut is not None and t < desc.cut):
            return 0.0
        return desc.apex[0] - t
    lo, hi = _diamond_apexes(desc)
    if t < lo[0] or t > hi[0]:
        return 0.0
    mid = 0.5 * (lo[0] + hi[0])
    return (t - lo[0]) if t <= mid else (hi[0] - t)


def horizon_area(desc: ConeSetDescriptor, t: float) -> float:
    """Area 4*pi*R^2 of the horizon slice at time t (d = 3 only)."""
    desc._require_3d()
    r = _cross_section_radius(desc, t)
    return 4.0 * math.pi * r * r


def horizon_entropy(desc: ConeSetDescriptor, alpha: float) -> float:
    """alpha times the supremum over time of the horizon-slice area.

    For truncated cones the supremum sits at the cut; for diamonds at the
    midpoint, which needs coincident spatial apexes as horizon_area does.
    Untruncated cones have unbounded horizon: returns +inf.
    """
    desc._require_3d()
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if desc.kind is ConeKind.DIAMOND:
        lo, hi = _diamond_apexes(desc)
        r = 0.5 * (hi[0] - lo[0])
    elif desc.cut is None:
        return math.inf
    else:
        r = _cross_section_radius(desc, desc.cut)
    return alpha * 4.0 * math.pi * r * r


# Sample rows drawn per block: the draws and hit count are those of one
# draw of every sample, without holding all of them at once.
_MC_BLOCK = 1 << 16


def monte_carlo_cross_section(
    desc: ConeSetDescriptor, t: float, samples: int, seed: int = 0
) -> float:
    """Estimate the horizon-slice area without the sphere-area formula.

    Samples a cube around the spatial apex and counts points whose
    distance from the apex falls in a thin shell about the slice radius;
    the shell volume divided by its thickness estimates the area.  Used
    as an independent cross-check of :func:`horizon_area`.
    """
    desc._require_3d()
    if samples < 10_000:
        raise ValueError("cross-section estimation needs at least 10^4 samples")
    r = _cross_section_radius(desc, t)
    if r == 0.0:
        return 0.0
    eps = 0.05 * r
    half = r + eps
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, samples, _MC_BLOCK):
        pts = rng.uniform(-half, half, size=(min(_MC_BLOCK, samples - start), 3))
        # x², then + y², then + z²: the order of np.linalg.norm(pts, axis=1),
        # so the same bits, without its strided 3-wide reduce
        sq = pts[:, 0] * pts[:, 0]
        sq += pts[:, 1] * pts[:, 1]
        sq += pts[:, 2] * pts[:, 2]
        dist = np.sqrt(sq)
        hits += int(np.count_nonzero(np.abs(dist - r) <= eps / 2))
    volume = (2.0 * half) ** 3
    return hits / samples * volume / eps


def cone_region_points(
    desc: ConeSetDescriptor,
    events: Sequence[Event],
    causality: Causality | None = None,
) -> PointSet:
    """Select the sprinkled events lying in the described region.

    Returns a subset of ``causality`` (induced from the events when not
    supplied).  On the finite causality, past-cone and diamond selections
    classify convergent and future-cone ones divergent.
    """
    if causality is None:
        causality = induced_causality(events)
    elif causality.n != len(events):
        raise ValueError("causality and event list disagree on size")
    mask = 0
    for i, e in enumerate(events):
        if desc.kind is ConeKind.FUTURE_CONE:
            ok = precedes(desc.apex, e) and (desc.cut is None or e[0] <= desc.cut)
        elif desc.kind is ConeKind.PAST_CONE:
            ok = precedes(e, desc.apex) and (desc.cut is None or e[0] >= desc.cut)
        else:
            ok = precedes(desc.apex, e) and precedes(e, desc.apex2)
        if ok:
            mask |= 1 << i
    return PointSet(causality, mask)


def bekenstein_hawking_alpha(boltzmann: float = 1.0, planck_length: float = 1.0) -> float:
    """The area coefficient k_B / (4 l_p^2) that reproduces black-hole
    entropy scaling."""
    for name, value in (("boltzmann", boltzmann), ("planck_length", planck_length)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    area = 4.0 * planck_length * planck_length
    if area == 0.0:
        raise ValueError(f"planck_length {planck_length} underflows when squared")
    return boltzmann / area
