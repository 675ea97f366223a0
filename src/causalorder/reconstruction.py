"""Recovering the partial order from the set algebra alone.

For a point p, a ribbon pair is a strictly convergent set and a strictly
divergent set that pass through p and meet exactly at p.  Ribbon pairs
whose componentwise causal unions are again a ribbon pair are congruent.
Reconstruction relates two points when the congruence classes of their
ribbons absorb each other's pairs in the right direction; it applies
only to points whose ribbon is regular (every pair dense, condition 2 on
unions).  On a finite ground set no ribbon pair is dense: a strict set
through p always cuts one component down to two points {p, y}, which
hold no strict set (proof in is_dense).  So only empty ribbons are
regular and every reconstruction domain is empty.  Reconstruction
therefore counts each point's ribbon pairs and reports why each point
fails, the reversal theorem's report follows from the same proof, and
the congruence classes of a regular ribbon are the empty partition.
Everything here is exhaustive and capped at RIBBON_CAP points, except
is_regular_causality, whose one scan is the crossing property's: a
join-kernel call per unrelated pair, under MATRIX_CAP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import config
from .algebra import (
    Kind,
    LawReport,
    LawResult,
    SetClass,
    _family_array,
    _union_mask,
    class_of_mask,
)
from .errors import GroundSetTooLarge, NotCongruentDecidable, NotRegular, TheoremViolation
from .order import Causality, PointSet, _require_owner, has_crossing_property

__all__ = [
    "RibbonPair",
    "Ribbon",
    "RegularityReport",
    "ReconstructionReport",
    "RegularCausalityReport",
    "ribbon",
    "is_dense",
    "is_regular_ribbon",
    "congruent",
    "congruence_classes",
    "reconstruct_order",
    "verify_reversal_theorem",
    "is_regular_causality",
]


@dataclass(frozen=True)
class RibbonPair:
    """A strictly convergent / strictly divergent pair meeting at one point."""

    upper: PointSet
    lower: PointSet

    def masks(self) -> tuple[int, int]:
        return (self.upper.mask, self.lower.mask)


@dataclass(frozen=True)
class Ribbon:
    basepoint: str
    pairs: tuple[RibbonPair, ...]
    regular: bool | None = None
    classes: tuple[tuple[RibbonPair, ...], ...] | None = None

    def __len__(self) -> int:
        return len(self.pairs)


def _cap(c: Causality, what: str) -> None:
    if c.n > config.RIBBON_CAP:
        raise GroundSetTooLarge(c.n, config.RIBBON_CAP, what)


def _strict_through(c: Causality, ip: int) -> tuple[np.ndarray, np.ndarray]:
    """The strictly convergent and the strictly divergent sets through
    point ip, as ascending uint64 mask arrays, filtered from the stored
    strict families."""
    bit = np.uint64(1 << ip)
    ups = _family_array(c, Kind.STRICTLY_CONVERGENT)
    downs = _family_array(c, Kind.STRICTLY_DIVERGENT)
    return ups[(ups & bit) != 0], downs[(downs & bit) != 0]


def _pair_grid(ups: np.ndarray, downs: np.ndarray, ip: int) -> np.ndarray:
    """The ups × downs grid of the strict sets through point ip, true
    where the two meet exactly at ip: one cell per ribbon pair."""
    return (ups[:, None] & downs[None, :]) == np.uint64(1 << ip)


def _ribbon_masks(c: Causality, ip: int) -> tuple[np.ndarray, np.ndarray]:
    """The ribbon over point ip as two aligned uint64 arrays, the upper
    and the lower component of each pair, ascending by (upper, lower).
    Row-major order of the pair grid gives that order."""
    ups, downs = _strict_through(c, ip)
    i, j = np.nonzero(_pair_grid(ups, downs, ip))
    return ups[i], downs[j]


def _pair(c: Causality, a: int, b: int) -> RibbonPair:
    return RibbonPair(PointSet(c, a), PointSet(c, b))


def _ribbon_pair_masks(c: Causality, p: str, pair: RibbonPair) -> tuple[int, int]:
    """The masks of ``pair``, after checking that it is a ribbon pair over
    p in c: a strictly convergent and a strictly divergent set of c that
    meet exactly at p."""
    _require_owner(c, pair.upper, pair.lower)
    a, b = pair.masks()
    if (a & b != 1 << c.index[p] or class_of_mask(c, a) is not SetClass.STRICTLY_CONVERGENT
            or class_of_mask(c, b) is not SetClass.STRICTLY_DIVERGENT):
        raise ValueError(f"{pair.upper.ids()}, {pair.lower.ids()} is not a ribbon pair over {p}")
    return a, b


def ribbon(c: Causality, p: str) -> Ribbon:
    """All ribbon pairs over p.

    The trivial pair ({p}, {p}) never appears because singletons are of
    both kinds, hence never strict.
    """
    _cap(c, "ribbon computation")
    upper, lower = _ribbon_masks(c, c.index[p])
    return Ribbon(p, tuple(_pair(c, a, b) for a, b in zip(upper.tolist(), lower.tolist())))


# ---------------------------------------------------------------------------
# Density and regularity
# ---------------------------------------------------------------------------

def _cut_masks(strict: tuple[np.ndarray, np.ndarray], ip: int, base: int) -> np.ndarray:
    """Non-trivial cuts of ``base`` by the strict sets through point ip
    (_strict_through), ascending.

    Non-trivial means different from the bare singleton {p}; every cut
    contains p because both operands do.
    """
    cuts = np.unique(np.concatenate(strict) & np.uint64(base))
    return cuts[cuts != np.uint64(1 << ip)]


def _density_gap(c: Causality, ip: int, a: int, b: int) -> tuple[int, int] | None:
    """None when the pair (a, b) over point ip is dense, else the first
    (cut of a, cut of b), in ascending order, that no ribbon pair refines.

    Per-cut lemma: a ribbon pair refines the cell (ca, cb) iff ca holds a
    strictly convergent set through p and cb a strictly divergent one.
    Two such sets meet inside ca ∩ cb ⊆ a ∩ b = {p} and both contain p,
    so together they are a ribbon pair.  So each cut is tested once
    against the strict sets through p, and the first gap is in the first
    row when some cut of b holds no divergent set, else in the first row
    whose cut of a holds no convergent set.  Neither cut list is empty:
    a and b are cuts of themselves.  The collapse in is_dense says a gap
    always exists; the test does not assume it.
    """
    ups, downs = strict = _strict_through(c, ip)
    cuts_a, cuts_b = _cut_masks(strict, ip, a), _cut_masks(strict, ip, b)
    ok_a = ((ups[None, :] & ~cuts_a[:, None]) == 0).any(axis=1)
    ok_b = ((downs[None, :] & ~cuts_b[:, None]) == 0).any(axis=1)
    i = int(np.argmin(ok_a)) if ok_b.all() else 0
    if ok_a[i] and ok_b.all():
        return None
    j = int(np.argmin(ok_b)) if ok_a[i] else 0
    return int(cuts_a[i]), int(cuts_b[j])


def is_dense(c: Causality, p: str, pair: RibbonPair) -> bool:
    """A pair is dense when every non-trivial cut of its components by
    strict sets through p can be refined back to some ribbon pair.

    No ribbon pair (A, B) of a finite causality is dense.  A two-point
    set {p, y} holds no strict set through p: {p} is of both kinds, and
    {p, y} is a chain (top and bottom, so both kinds) or an unrelated
    pair (neither top nor bottom, so neither kind).  So a strict set
    through p that cuts A to {p, y} leaves the gap ({p, y}, B), and one
    that cuts B to {p, z} leaves the gap (A, {p, z}).  One always exists.
    Let t be the top of A and b the bottom of B, write hull(X) = ↑X ∩ ↓X
    (complete, and containing X), and recall that a point between two
    members of A is in A, likewise for B, and that A ∩ B = {p}.

    1. t ≠ p and p not maximal in B.  (A ∩ ↑B) ∖ {p} holds t; take y
       minimal in it and S = hull(B ∪ {y}).  S has bottom b.  It has no
       top: B has none, and y above every member of B would be above
       some q > p in B, putting q in A (p ≤ q ≤ y).  A member x ≠ p of
       S ∩ A is in ↑B; below a member of B it would be in B and so be
       p, so x ≤ y, and x = y.  So S is strictly divergent and
       S ∩ A = {p, y}.
    2. b ≠ p and p not minimal in A: the dual, with z maximal in
       (B ∩ ↓A) ∖ {p} and T = hull(A ∪ {z}) strictly convergent,
       T ∩ B = {p, z}.
    3. t = b = p.  A has no bottom, so take y maximal in A ∖ {p} and
       S = hull(B ∪ {y}).  y ≤ p ≤ B, so y is the bottom of S, and S has
       no top (B has none, and y is not above p).  A member x of S ∩ A
       has y ≤ x ≤ p, so x is p or, by the choice of y, y.
    4. Otherwise.  t = p would give b ≠ p (else case 3) and p minimal
       in A (else case 2), so A = {p}; dually b = p would give B = {p}.
       So p is maximal in B (else case 1) and minimal in A, and b ≠ p.
       Take z and T as in case 2: T has top t, meets B in {p, z}, and
       has a bottom only if z is below all of A.  If some minimal point
       of A is not above z, T is the set.  Otherwise take
       y, a minimal point of A other than p (A has no bottom), and
       S = hull(B ∪ {y}).  b ≤ z ≤ y gives S the bottom b; y is not
       above p (both are minimal in A), so S has no top.  A member x of
       S ∩ A below y is y.  One below a member of B is also above one
       (it is above a member of B or above y ≥ z), so it is in B and
       x = p.

    So is_dense is false on every pair, and the density test returns the
    first gap in ascending order, which may lie elsewhere.  Raises
    ValueError for a pair that is no ribbon pair over p in c.
    """
    return _density_gap(c, c.index[p], *_ribbon_pair_masks(c, p, pair)) is None


@dataclass(frozen=True)
class RegularityReport:
    point: str
    regular: bool
    empty: bool
    failing_condition: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.regular


def is_regular_ribbon(c: Causality, p: str) -> RegularityReport:
    """Check both regularity conditions for the ribbon over p.

    1. every ribbon pair is dense;
    2. whenever two pairs satisfy (A ∪ C) ∩ (B ∪ D) = {p} with plain
       unions, the componentwise causal unions also meet exactly at p.
    An empty ribbon is regular vacuously and flagged as such.

    On a finite causality no pair is dense (proof in is_dense), so a
    non-empty ribbon fails condition 1 at its first pair, and condition
    2 is never reached.  The report names that pair and its first density
    gap.  A first pair with no gap would contradict the proof and raises
    TheoremViolation.
    """
    _cap(c, "ribbon regularity")
    ip = c.index[p]
    upper, lower = _ribbon_masks(c, ip)
    if not upper.size:
        return RegularityReport(p, True, True)
    a, b = int(upper[0]), int(lower[0])
    gap = _density_gap(c, ip, a, b)
    if gap is None:
        raise TheoremViolation(f"the first ribbon pair over {p} is dense")
    witness = (_pair(c, a, b), PointSet(c, gap[0]), PointSet(c, gap[1]))
    return RegularityReport(p, False, False, "density", witness)


# ---------------------------------------------------------------------------
# Congruence
# ---------------------------------------------------------------------------

def congruent(c: Causality, p: str, pair1: RibbonPair, pair2: RibbonPair) -> bool:
    """True iff the componentwise causal unions form a ribbon pair over p.

    Raises NotCongruentDecidable when a needed causal union is undefined,
    so callers can tell "false" from "unanswerable", and ValueError for a
    pair that is no ribbon pair over p in c.
    """
    a, b = _ribbon_pair_masks(c, p, pair1)
    cc, d = _ribbon_pair_masks(c, p, pair2)
    u = _union_mask(c, a, cc, Kind.CONVERGENT)
    lo = _union_mask(c, b, d, Kind.DIVERGENT)
    if u is None or lo is None:
        raise NotCongruentDecidable(
            "a causal union needed by the congruence test is undefined"
        )
    return (
        class_of_mask(c, u) is SetClass.STRICTLY_CONVERGENT
        and class_of_mask(c, lo) is SetClass.STRICTLY_DIVERGENT
        and u & lo == 1 << c.index[p]
    )


def congruence_classes(c: Causality, p: str) -> Ribbon:
    """Partition the (regular) ribbon over p into congruence classes.

    Raises NotRegular for irregular ribbons.  A finite causality has no
    regular non-empty ribbon (is_dense), so a regular ribbon is empty and
    its partition has no class.
    """
    reg = is_regular_ribbon(c, p)
    if not reg.regular:
        raise NotRegular(f"ribbon over {p} is not regular: {reg.failing_condition}")
    return Ribbon(p, (), regular=True, classes=())


# ---------------------------------------------------------------------------
# Order reconstruction
# ---------------------------------------------------------------------------

@dataclass
class ReconstructionReport:
    domain: tuple[str, ...]
    relation: np.ndarray
    diagnostics: dict[str, dict]
    reference: np.ndarray | None = None
    diffs: list[dict] = field(default_factory=list)

    @property
    def agrees(self) -> bool:
        return not self.diffs

    def to_dict(self) -> dict:
        out = {
            "domain": list(self.domain),
            "relation": self.relation.astype(int).tolist(),
            "diagnostics": self.diagnostics,
        }
        if self.reference is not None:
            out["agreement"] = {
                "reference": self.reference.astype(int).tolist(),
                "diffs": self.diffs,
            }
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def reconstruct_order(c: Causality) -> ReconstructionReport:
    """Rebuild the order between points with non-empty regular ribbons.

    In the paper, p precedes q when some pair of congruence classes
    (alpha over p, gamma over q) satisfies the inclusion statement for
    every member pair, and the result is a partial order on the domain.
    On a finite causality the domain is always empty, because no
    non-empty ribbon is regular (is_dense).  So the report holds the
    empty relation, and each point's diagnostics hold its number of
    ribbon pairs: with none the ribbon is regular and empty, and with
    some it fails condition 1, density.  The pairs are counted in the
    pair grid, with no pair gathered or stored.  The report also holds
    the input order on the domain, likewise empty, and no diff.
    """
    _cap(c, "order reconstruction")
    diagnostics: dict[str, dict] = {}
    for ip, p in enumerate(c.points):
        count = int(np.count_nonzero(_pair_grid(*_strict_through(c, ip), ip)))
        diag = {"ribbon_pairs": count, "regular": not count, "empty": not count}
        if count:
            diag["failing_condition"] = "density"
        diagnostics[p] = diag
    empty = np.zeros((0, 0), dtype=bool)
    return ReconstructionReport((), empty, diagnostics, empty)


def verify_reversal_theorem(c: Causality) -> LawReport:
    """The reversal theorem: the points with regular ribbons are the same
    in c and in its reverse, and the relations reconstructed on them are
    mutual transposes.

    c and its reverse are both finite, so both reconstruction domains are
    empty (is_dense).  The domains coincide, one check, and the two
    relations are 0 × 0, so the transpose check compares no cell.  The
    report says so without building the reverse.
    """
    _cap(c, "order reconstruction")
    return LawReport("reversal of reconstructed order", [
        LawResult("regular-domain-preserved", "holds", checked=1),
        LawResult("reconstruction-transposes", "holds", checked=0),
    ])


# ---------------------------------------------------------------------------
# Regular causalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularCausalityReport:
    """The regular-causality verdict, which is the crossing verdict: the
    per-point and per-pair conditions hold on every finite causality (see
    is_regular_causality), so only the point ids are kept for them."""

    crossing: bool
    points: tuple[str, ...]

    @property
    def regular(self) -> bool:
        return self.crossing

    def __bool__(self) -> bool:
        return self.crossing

    def point_ok(self, p: str) -> bool:
        """True for every point of the causality; KeyError for an unknown id."""
        if p not in self.points:
            raise KeyError(p)
        return True

    def pair_ok(self, p: str, q: str) -> bool:
        """True for any two points of the causality: the per-point and
        extension conditions hold everywhere; KeyError for an unknown id."""
        return self.point_ok(p) and self.point_ok(q)

    def to_dict(self) -> dict:
        return {
            "regular": self.crossing,
            "crossing": self.crossing,
            "points": {p: {"cone_union_up": None, "cone_union_down": None} for p in self.points},
            "extension_failures": [],
        }


def is_regular_causality(c: Causality) -> RegularCausalityReport:
    """Check the conditions under which reconstruction provably matches
    the original order: vertex-preserving causal unions of bounded strict
    sets in both directions, extension of bounded strict sets along the
    order, and the crossing property.

    Only the crossing property is scanned (under MATRIX_CAP); the other
    two hold on every finite causality.  Call a strictly convergent set
    with top p bounded at p.

    - Unions: take A and B bounded at p.  p lies in A ∪ B above all of
      it, so p is their join and the convergent union is U = ↑(A ∪ B) ∩
      ↓p (algebra._closed_union), which has top p.  Every member of U
      lies above a member of A ∪ B, so every minimal member of U lies in
      A ∪ B, and a least member of U would be the least member of A or
      of B; neither has one.  So U is bounded at p.
    - Extension: for p ≤ q and A bounded at p, ↑A ∩ ↓q is complete, has
      top q and contains A, and it has no least member by the same
      argument, so it is bounded at q.

    Both duals hold the same way.  So no point and no pair fails, and the
    causality is regular iff it has the crossing property: iff every
    unrelated pair with a common upper bound has a join, one join-kernel
    call per unrelated pair (order.has_crossing_property).  That is the
    closure of the algebra: crossing holds iff both families are closed
    under intersection, iff both are closed under every defined causal
    union, and failing it, all four closure axioms fail (proofs in
    algebra.intersect_causal and algebra.verify_algebra_axioms).  So a
    finite causality is regular iff its algebra is closed.  The report
    keeps the crossing verdict and the point ids, and nothing else.
    """
    return RegularCausalityReport(has_crossing_property(c).holds, c.points)
