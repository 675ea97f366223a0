"""Multiplicative weights on causal-set families and their formal entropy.

A causal measure assigns each set of one family a weight in [1, inf],
equal to 1 on the empty set and on singletons, and super-multiplicative
under causal union (with equality when the causal union is the plain
union).  Entropy is the logarithm of the weight.  Measures are supplied
as explicit tables and verified here; on a finite ground set the axioms
force the constant measure (proof in constant_measure), so non-constant
tables exist only to exercise the violation reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, starmap

import numpy as np

from .algebra import (
    _KIND_CODES,
    Kind,
    LawReport,
    LawResult,
    _code_of,
    _family_array,
    _index_in,
    _law_cap,
    _member_pairs,
    _sides,
    _superset_pairs,
    _union_table,
    _vertices,
    family_masks,
)
from .errors import MissingValue
from .io import _json_type
from .order import Causality, PointSet, _require_owner, has_crossing_property

__all__ = [
    "CausalMeasure",
    "EntropyValue",
    "constant_measure",
    "verify_measure_axioms",
    "outer_measure_value",
    "inner_measure_value",
    "formal_entropy",
    "check_monotonicity",
    "tsallis_compose",
    "find_tsallis_violation",
]

EQUALITY_RTOL = 1e-9


@dataclass(frozen=True)
class CausalMeasure:
    """An explicit weight table over one family of causal sets."""

    parent: Causality
    kind: Kind  # Kind.DIVERGENT or Kind.CONVERGENT
    table: dict[int, float]

    def __post_init__(self):
        if self.kind not in (Kind.DIVERGENT, Kind.CONVERGENT):
            raise ValueError("measure kind must be DIVERGENT or CONVERGENT")

    def value(self, u: PointSet) -> float:
        if u.parent is not self.parent:
            raise ValueError("point set does not belong to the measured causality")
        return self._sigma(u.mask)

    def _sigma(self, mask: int) -> float:
        """The table's value on ``mask``; MissingValue, naming the set,
        when it has none.  Every reader of the table reads through here."""
        try:
            return self.table[mask]
        except KeyError:
            raise MissingValue(f"measure has no value for {self.parent.ids_of(mask)}") from None

    @staticmethod
    def from_dict(c: Causality, data: dict) -> "CausalMeasure":
        """The measure of a measure document.  Raises ValueError naming the
        missing key, the wrong type or the unknown point id of an invalid
        one, the two entries that name one set, or an integer sigma past
        the float range."""
        if not isinstance(data, dict):
            raise ValueError(f"measure document must be an object, got {_json_type(data)}")
        kind = Kind(data.get("kind", "divergent"))
        if "entries" not in data:
            raise ValueError('measure document has no "entries"')
        if not isinstance(data["entries"], list):
            raise ValueError(f'"entries" must be an array, got {_json_type(data["entries"])}')
        table, first = {}, {}  # mask -> sigma, and the entry that named it
        for i, entry in enumerate(data["entries"]):
            if not isinstance(entry, dict):
                raise ValueError(f"measure entry {i} must be an object, got {_json_type(entry)}")
            for key in ("set", "sigma"):
                if key not in entry:
                    raise ValueError(f'measure entry {i} has no "{key}"')
            if not isinstance(entry["set"], list):
                raise ValueError(f'"set" of measure entry {i} must be an array, '
                                 f'got {_json_type(entry["set"])}')
            for p in entry["set"]:
                if not isinstance(p, str) or p not in c.index:
                    raise ValueError(f"measure entry {i} names unknown point {p!r}")
            mask = c.mask_of(entry["set"])
            if mask in first:
                raise ValueError(f"measure entries {first[mask]} and {i} name the same set")
            first[mask] = i
            sigma = entry["sigma"]
            if sigma == "inf":
                sigma = math.inf
            elif type(sigma) not in (int, float) or sigma != sigma:  # NaN is unequal to itself
                raise ValueError(f'sigma of {entry["set"]} is {sigma!r}, not a number or "inf"')
            try:
                table[mask] = float(sigma)
            except OverflowError:  # an int past the float range
                raise ValueError(f'sigma of {entry["set"]} is an integer too large for a float') from None
        return CausalMeasure(c, kind, table)

    def to_dict(self) -> dict:
        entries = []
        for mask, sigma in sorted(self.table.items()):
            entries.append(
                {
                    "set": list(self.parent.ids_of(mask)),
                    "sigma": "inf" if math.isinf(sigma) else sigma,
                }
            )
        return {"kind": self.kind.value, "entries": entries}


def constant_measure(c: Causality, kind: Kind = Kind.DIVERGENT) -> CausalMeasure:
    """The unit table on every set of the family; the one measure every
    finite causality admits.

    Take a divergent S of two or more points: it has a bottom b and a
    maximal point m ≠ b.  S ∖ {m} is complete (a point between two of
    its members is in S, and it is not m, which is below no other
    member) and has bottom b, so it is divergent; {m} and the
    intersection ∅ are in the family too.  S is divergent and holds
    both, so their causal union is S, the plain union, and the equality
    case gives σ(S) = σ(S ∖ {m}) σ({m}) / σ(∅) = σ(S ∖ {m}).  By
    induction on |S|, σ(S) = σ({b}) = 1.  The convergent family is the
    dual: peel a minimal point off S and end at its top.  So a table
    that moves one entry of this one off 1 by more than the tolerance
    fails verify_measure_axioms: normalization on ∅ and singletons, the
    equality case on every larger set.
    """
    return CausalMeasure(c, kind, {m: 1.0 for m in family_masks(c, kind)})


def _scan(law: str, blocks) -> LawResult:
    """The result of scanning the cases of ``blocks``, (checked, bad,
    witness) triples of flat arrays, in order: ``checked`` cases count as
    checked and the others as skipped, until the first ``bad`` one (a
    checked case), which fails with the counterexample ``witness(k)`` for
    its position k in its block.  No block after that one is taken."""
    n_checked = n_cases = 0
    for checked, bad, witness in blocks:
        hits = np.flatnonzero(bad)
        stop = int(hits[0]) + 1 if hits.size else len(bad)
        n_checked += int(np.count_nonzero(checked[:stop]))
        n_cases += stop
        if hits.size:
            return LawResult(law, "fails", witness(stop - 1), n_checked, n_cases - n_checked)
    return LawResult(law, "holds", None, n_checked, n_cases - n_checked)


def _family_sigma(c: Causality, measure: CausalMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The measure's family, as the stored uint64 array, and its value on
    each member as a float array; MissingValue for the first member the
    table lacks."""
    fam = _family_array(c, measure.kind)
    return fam, np.array([measure._sigma(m) for m in fam.tolist()], dtype=float)


def verify_measure_axioms(
    c: Causality, measure: CausalMeasure, rtol: float = EQUALITY_RTOL
) -> LawReport:
    """Check normalization and super-multiplicativity over all family pairs.

    Pairs whose causal union is undefined, or whose intersection leaves
    the family, fall outside the axiom and are counted as skipped.
    Raises MissingValue if the table lacks any enumerated family set, and
    ValueError, before any work, for an ``rtol`` that is not finite and
    non-negative (a NaN would silently mean exact equality).

    Normalization checks the value 1 on the empty set and on each
    singleton, then the codomain [1, inf] on each family set, in that
    order, and stops at the first failure.  Super-multiplicativity takes
    the unordered pairs, a member with itself included, from the walk
    over the member pairs (_member_pairs), one block of rows at a time
    in row-major order, and stops at the block of the first failure.

    A table that is exactly 1 on every member, the unit table of
    constant_measure, is decided from the order when the causality has
    the crossing property, with no union table and no value per pair.
    Every comparison is then 1 against 1 * 1 / 1, so both results hold,
    normalization with its n + 1 + f values checked.  A pair is checked
    when its union and its intersection are members.  With crossing,
    every intersection is a member (intersect_causal), and so is the
    union of every pair with a superset of the kind (proof in
    verify_algebra_axioms), so the checked pairs are those with a
    superset, counted by _superset_pairs.  Every other table, and a unit
    table without crossing, is scanned.
    """
    if not 0 <= rtol < math.inf:  # NaN fails both comparisons
        raise ValueError(f"tolerance must be finite and non-negative, got {rtol}")
    _require_owner(c, measure)
    _law_cap(c, "measure-axiom verification")
    fam, sigma = _family_sigma(c, measure)
    if (sigma == 1.0).all() and has_crossing_property(c):
        f, kind = len(fam), measure.kind
        found = _superset_pairs(c, kind, [_vertices(c, fam, side) for side in _sides(kind)])
        return LawReport("measure axioms", [
            LawResult("normalization", "holds", None, c.n + 1 + f, 0),
            LawResult("super-multiplicativity", "holds", None, found, f * (f + 1) // 2 - found)])
    union = _union_table(c, measure.kind, fam)
    units = [0] + [1 << i for i in range(c.n)]  # ∅, then each singleton
    units_bad = np.array([measure._sigma(m) for m in units], dtype=float) != 1.0

    def unit(k):
        return {"set": c.points[k - 1] if k else "empty set", "sigma": measure._sigma(units[k])}

    def member(k):
        m = int(fam[k])
        return {"set": c.ids_of(m), "sigma": measure._sigma(m), "reason": "below the codomain [1, inf]"}

    def pairs(i, j, meet):  # a block of the unordered pairs i <= j, in row-major order
        keep = i <= j
        i, j, meet = (x[keep] for x in np.broadcast_arrays(i, j, meet))
        meets, u_idx = union(i, j)
        i_idx = _index_in(fam, meet)
        ok = (u_idx >= 0) & (i_idx >= 0)
        with np.errstate(all="ignore"):
            lhs = sigma[u_idx]
            rhs = sigma[i] * sigma[j] / sigma[i_idx]
            close = _isclose(lhs, rhs, rtol)
            below = (lhs < rhs) & ~close
            plain = meets == (fam[i] | fam[j])
            unequal = plain & ~(np.isinf(lhs) & np.isinf(rhs)) & ~close

        def witness(k):
            out = {"a": c.ids_of(int(fam[i[k]])), "b": c.ids_of(int(fam[j[k]])),
                   "sigma_union": float(lhs[k]), "bound": float(rhs[k])}
            if not below[k]:
                out["reason"] = "equality required when the causal union is the plain union"
            return out

        return ok, ok & (below | unequal), witness

    return LawReport("measure axioms", [
        _scan("normalization", [(np.ones_like(units_bad), units_bad, unit),
                                (np.ones_like(sigma, dtype=bool), ~(sigma >= 1.0), member)]),
        _scan("super-multiplicativity", starmap(pairs, _member_pairs(fam)))])


def _isclose(a: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
    """``math.isclose(a, b, rel_tol=rtol)``, elementwise, for a finite
    rtol >= 0."""
    diff = np.abs(a - b)
    finite = np.isfinite(a) & np.isfinite(b)
    return (a == b) | finite & (diff <= rtol * np.maximum(np.abs(a), np.abs(b)))


def outer_measure_value(c: Causality, measure: CausalMeasure, a: PointSet) -> float:
    """Infimum of the measure over family supersets of ``a``; +inf when
    no family set contains it.  Raises MissingValue for a family superset
    the table lacks.  The supersets are found by one test on the stored
    family array and folded in ascending order, so a NaN value never
    wins."""
    _require_owner(c, measure, a)
    fam = _family_array(c, measure.kind)
    return min([math.inf, *map(measure._sigma, fam[(fam & a.mask) == a.mask].tolist())])


def inner_measure_value(c: Causality, measure: CausalMeasure, a: PointSet) -> float:
    """Supremum of the measure over family subsets of ``a``; at least 1,
    because the empty set always qualifies.  Raises MissingValue for a
    family subset the table lacks.  Found and folded as the supersets of
    :func:`outer_measure_value` are."""
    _require_owner(c, measure, a)
    fam = _family_array(c, measure.kind)
    return max([0.0, *map(measure._sigma, fam[(fam | a.mask) == a.mask].tolist())])


@dataclass(frozen=True)
class EntropyValue:
    value: float
    boltzmann: float = 1.0


def formal_entropy(
    c: Causality,
    measure: CausalMeasure,
    a: PointSet,
    boltzmann: float = 1.0,
    extension: str = "inner",
) -> EntropyValue:
    """k_B times the natural log of the measure of ``a``.

    A member of the measure's family, by its class code, is measured by
    its table value (MissingValue when the table lacks it).  Every other
    set is measured through the inner extension by default (supremum over
    family subsets), or the outer one on request, whatever the table
    holds for it.  Raises ValueError for an unknown ``extension``, before
    any work, and for a value that is not > 0 (NaN included), which has no
    logarithm.
    """
    extend = {"inner": inner_measure_value, "outer": outer_measure_value}.get(extension)
    if extend is None:
        raise ValueError(f"unknown extension {extension!r}")
    _require_owner(c, measure, a)
    bits, want = _KIND_CODES[measure.kind]
    member = _code_of(c, a.mask) & bits == want
    sigma = measure._sigma(a.mask) if member else extend(c, measure, a)
    if not sigma > 0:  # NaN included
        raise ValueError(f"measure value {sigma} of {c.ids_of(a.mask)} has no logarithm")
    return EntropyValue(boltzmann * math.log(sigma), boltzmann)


def check_monotonicity(c: Causality, measure: CausalMeasure) -> LawReport:
    """Verify that the measure grows along inclusion of family sets.

    Reports one result, "family-pairs", over every nested pair a ⊆ b of
    family sets, taken in row-major order from the walk over the member
    pairs (_member_pairs), and raises MissingValue if the table lacks a
    family set.  A table that is exactly 1 on every member holds on every
    nested pair, so the walk then only counts them, with no value array
    and no witness.  The extensions to other sets need no scan, because they are
    monotone by construction, for any table:

    - for a ⊆ b, every family subset of a is also a family subset of b,
      so inner(a) ≤ inner(b);
    - for a ⊆ b, every family superset of b is also a family superset
      of a, so outer(a) ≤ outer(b);
    - a NaN table entry never wins Python's ``max``/``min`` against the
      non-NaN start values 0.0 and inf, so neither extension is NaN.
    """
    _require_owner(c, measure)
    _law_cap(c, "monotonicity check")
    fam, sigma = _family_sigma(c, measure)
    if (sigma == 1.0).all():  # no nested pair of the unit table fails: count them
        count = sum(int(np.count_nonzero(meet == fam[i])) for i, _, meet in _member_pairs(fam))
        return LawReport("measure monotonicity", [LawResult("family-pairs", "holds", None, count, 0)])

    def nested(i, j, meet):  # a block of the nested pairs fam[i] ⊆ fam[j], in row-major order
        keep = meet == fam[i]
        i, j = (x[keep] for x in np.broadcast_arrays(i, j))
        with np.errstate(invalid="ignore"):  # inf - inf in _isclose
            bad = (sigma[i] > sigma[j]) & ~_isclose(sigma[i], sigma[j], EQUALITY_RTOL)

        def witness(k):
            a, b = int(fam[i[k]]), int(fam[j[k]])
            return {"a": c.ids_of(a), "b": c.ids_of(b),
                    "sigma_a": measure._sigma(a), "sigma_b": measure._sigma(b)}

        return np.ones_like(bad), bad, witness

    return LawReport("measure monotonicity", [_scan("family-pairs", starmap(nested, _member_pairs(fam)))])


# ---------------------------------------------------------------------------
# Tsallis composition
# ---------------------------------------------------------------------------

def tsallis_compose(sa: float, sb: float, q: float, boltzmann: float = 1.0) -> float:
    """Entropy of a disjoint union under the q-deformed composition rule.

    At q = 1 this reduces to plain addition; for q > 1 the composed value
    can drop below the larger operand, breaking monotonicity.
    """
    return sa + sb + (1.0 - q) / boltzmann * sa * sb


def find_tsallis_violation(
    q_values=(1.0, 1.5, 2.0),
    entropy_values=(0.0, 0.5, 1.0, 2.0, 4.0),
    boltzmann: float = 1.0,
) -> dict | None:
    """Grid-search for a monotonicity violation S(A ∪ rest) < S(A).

    Returns the first witness found, or None (for example when every
    q <= 1)."""
    for q, sa, s_rest in product(q_values, entropy_values, entropy_values):
        composed = tsallis_compose(sa, s_rest, q, boltzmann)
        if composed < sa:
            return {
                "q": q,
                "entropy_a": sa,
                "entropy_rest": s_rest,
                "entropy_whole": composed,
            }
    return None
