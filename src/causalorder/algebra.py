"""The set algebra over a finite causality.

Subsets that are causally complete and convergent behave like truncated
past cones; complete and divergent ones like truncated future cones.
Together with intersection, the causal union (smallest superset of the
same kind) and order reversal they form an algebra, whose laws this
module decides at desk scale, each verdict by a proof from order facts
(verify_union_laws, verify_algebra_axioms).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from . import config
from .errors import (
    GroundSetTooLarge,
    NoCausalSuperset,
    NotClosed,
)
from .order import (
    Causality,
    Direction,
    PointSet,
    _bound_meet,
    _frozen,
    _require_owner,
    _rows_cones,
    _stored,
    _unrelated_pairs,
    complete_mask,
    has_crossing_property,
    vertex_bit,
)

__all__ = [
    "SetClass",
    "Kind",
    "LawResult",
    "LawReport",
    "classify",
    "class_of_mask",
    "enumerate_causal_sets",
    "family_masks",
    "vertex",
    "causal_union",
    "intersect_causal",
    "verify_union_laws",
    "verify_algebra_axioms",
]


class SetClass(Enum):
    """Four-way classification of a subset.

    A complete set is STRICTLY_CONVERGENT when every unrelated pair has a
    common upper bound inside but some pair lacks a lower one, and dually
    for STRICTLY_DIVERGENT.  Complete sets satisfying both are BOTH; the
    empty set and singletons land there vacuously.  Anything incomplete,
    or complete but neither convergent nor divergent, is NEITHER.
    """

    NEITHER = 0
    STRICTLY_CONVERGENT = 1
    STRICTLY_DIVERGENT = 2
    BOTH = 3


class Kind(Enum):
    """Families of causal sets, and the kinds a causal union can close in."""

    CONVERGENT = "convergent"
    DIVERGENT = "divergent"
    BOTH = "both"
    STRICTLY_CONVERGENT = "strictly_convergent"
    STRICTLY_DIVERGENT = "strictly_divergent"

    # Members are singletons, so identity is their equality; hashing by it
    # runs in C, where Enum.__hash__ hashes the name in Python.  Kinds key
    # the derived-data store, the finished union answers on the per-call
    # path among them.
    __hash__ = object.__hash__


# class code bit 0 = convergent family, bit 1 = divergent family; the
# codes of a kind's family are those with code & bits == want
_KIND_CODES = {
    Kind.CONVERGENT: (1, 1),
    Kind.DIVERGENT: (2, 2),
    Kind.BOTH: (3, 3),
    Kind.STRICTLY_CONVERGENT: (3, 1),
    Kind.STRICTLY_DIVERGENT: (3, 2),
}

# SetClass members by value, so a class code reads its member by tuple index
_CLASSES = tuple(SetClass)


def _class_code(c: Causality, mask: int) -> int:
    """The SetClass value of a subset: 0 when incomplete, else bit 0 for
    convergent (empty, or a member above all) and bit 1 for divergent
    (empty, or a member below all)."""
    if not complete_mask(c, mask):
        return 0
    if not mask:
        return 3
    conv = vertex_bit(c, mask, Direction.UPPER) != 0
    return conv | (vertex_bit(c, mask, Direction.LOWER) != 0) << 1


def _code_of(c: Causality, mask: int) -> int:
    """The class code of a subset, read off the class codes once they are
    built, else computed by _class_code."""
    codes = c._derived.get("class_codes")
    return _class_code(c, mask) if codes is None else codes.get(mask, 0)


def classify(c: Causality, u: PointSet) -> SetClass:
    """Classify a subset of the causality's ground set."""
    if u._parent is not c:
        raise ValueError("point set does not belong to this causality")
    return _CLASSES[_code_of(c, u._mask)]


def class_of_mask(c: Causality, mask: int) -> SetClass:
    """Classify a subset given as a bit-mask: an int, or any integer that
    ``operator.index`` takes, such as a numpy one read off a family array."""
    return classify(c, PointSet(c, operator.index(mask)))


def _vertex_sets(rows: list[int], cones: list[int]) -> Iterator[int]:
    """Every nonempty causal set with a vertex, once each: with
    (succ_masks, pred_masks) the convergent sets, with (pred_masks,
    succ_masks) the divergent ones.

    A convergent set S with top v lies in ↓v and, being complete, holds
    ↑S ∩ ↓v; so the convergent sets with top v are the nonempty up-sets of
    ↓v, and each of these is complete with top v.  They are found by
    branching on the lowest undecided point x of ↓v: include ↑x, or
    exclude ↓x.  Both choices stay consistent (the included points form an
    up-set, the excluded ones a down-set), so every leaf is a distinct
    up-set and the work is proportional to the output.  The one empty
    leaf per v is the one that excludes v.
    """
    for cone in cones:
        stack = [(0, 0)]  # (included, excluded), both within the cone
        while stack:
            inc, exc = stack.pop()
            free = cone & ~(inc | exc)
            if free:
                x = (free & -free).bit_length() - 1
                stack.append((inc, exc | cones[x]))
                stack.append((inc | rows[x] & cone, exc))
            elif inc:
                yield inc


def _class_codes(c: Causality) -> dict[int, int]:
    """The class code of every causal set, by mask (stored as
    "class_codes"); every subset missing from it is NEITHER.  Built from
    the vertex theorem: a nonempty convergent set has a top, a divergent
    one a bottom (_vertex_sets)."""
    if c.n > config.ENUMERATION_CAP:
        raise GroundSetTooLarge(c.n, config.ENUMERATION_CAP, "subset enumeration")
    codes = dict.fromkeys(_vertex_sets(c.succ_masks, c.pred_masks), 1)
    for m in _vertex_sets(c.pred_masks, c.succ_masks):
        codes[m] = codes.get(m, 0) | 2
    codes[0] = 3  # ∅ is in both families
    return codes


def _family(c: Causality, kind: Kind) -> np.ndarray:
    """The masks of the kind's family, ascending, as a read-only uint64
    array.  _class_codes stops at ENUMERATION_CAP (20) points, so every
    mask stays below 2^64."""
    bits, want = _KIND_CODES[kind]
    codes = _stored(c, "class_codes", _class_codes)
    return _frozen(np.array(sorted(m for m, code in codes.items() if code & bits == want),
                            dtype=np.uint64))


def _family_array(c: Causality, kind: Kind) -> np.ndarray:
    """The kind's family as it is stored: built on first use, by _family."""
    return _stored(c, ("family", kind), _family, kind)


def family_masks(c: Causality, kind: Kind) -> list[int]:
    """All subset masks of the requested kind, ascending: a fresh list of
    the stored family array."""
    return _family_array(c, kind).tolist()


def enumerate_causal_sets(c: Causality, kind: Kind) -> list[PointSet]:
    """Materialize every subset with the requested classification.

    Capped at ENUMERATION_CAP points.  The sets are enumerated by vertex
    (_vertex_sets), so the work is proportional to the family, not to the
    2^n subsets.  Results come in ascending bit-mask order.
    """
    return [PointSet(c, m) for m in family_masks(c, kind)]


def vertex(c: Causality, u: PointSet, direction: Direction) -> str | None:
    """The unique member of ``u`` bounding all of ``u``, or None.

    Uniqueness is guaranteed by antisymmetry.  UPPER looks for a member
    above every member, LOWER below.  A nonempty set has an UPPER vertex
    iff it is convergent, a LOWER one iff it is divergent.
    """
    _require_owner(c, u)
    bit = vertex_bit(c, u.mask, direction)
    return c.points[bit.bit_length() - 1] if bit else None


# ---------------------------------------------------------------------------
# Causal union
# ---------------------------------------------------------------------------

# Every bit set: the mark of a pair with no common superset in the union
# and bound tables, and the AND fold's identity.  Every mask they meet is
# a subset of a ground set of at most ENUMERATION_CAP (20) points, since
# the families stop there, so none has all 64 bits set.
_NONE = np.uint64(2**64 - 1)

# The sides on which the sets of each union kind have their vertex: a top
# (UPPER) in the convergent family, a bottom (LOWER) in the divergent one,
# and both in BOTH, whose nonempty sets are the intervals [p, q].
_SIDES = {
    Kind.CONVERGENT: (Direction.UPPER,),
    Kind.DIVERGENT: (Direction.LOWER,),
    Kind.BOTH: (Direction.UPPER, Direction.LOWER),
}


def _sides(kind: Kind) -> tuple[Direction, ...]:
    try:
        return _SIDES[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(
            f"causal unions close in CONVERGENT, DIVERGENT or BOTH, not {kind}") from None


def _union_answer(c: Causality, a: int, b: int, kind: Kind):
    """The finished answer of the kind-union of masks a and b (kept in the
    store under (a, b, kind) with a <= b): the result mask, or the
    (exception class, constructor arguments) that causal_union raises a
    fresh instance of.  Only masks are kept, so the store holds nothing
    that refers back to c; causal_union wraps each answer afresh."""
    return _stored(c, (a, b, kind) if a <= b else (b, a, kind), _closed_union, a, b, kind)


def _closed_union(c: Causality, a: int, b: int, kind: Kind):
    """The kind-union of masks a and b in closed form, as _union_answer
    gives it: an int mask, or (exception class, arguments).

    Take X = a | b nonempty.  A convergent superset of X has a top q
    (order.vertex_bit), a common upper bound of X, and being complete it
    holds ↑X ∩ ↓q, which is a convergent superset itself.  So the
    convergent supersets of X meet in ↑X ∩ ⋂ ↓q over the common upper
    bounds q of X, and there is none when X has no upper bound.  The AND is
    convergent, so that the union exists, iff the bounds have a least
    element j, the join; the union is then ↑X ∩ ↓j.  DIVERGENT is the
    dual, ↓X ∩ ⋂ ↑p over the lower bounds p of X; the sets of BOTH are
    the intervals [p, q], which meet in ⋂ ↑p ∩ ⋂ ↓q.
    """
    x, sides = a | b, _sides(kind)
    if not x:
        return 0
    mask, closed = c.full_mask, True
    for side in sides:
        bounds, meet, reach = _bound_meet(c, x, side)
        if not bounds:
            ids = sorted(c.ids_of(a) + c.ids_of(b))
            return NoCausalSuperset, (f"no {kind.value} set contains {ids}",)
        mask &= meet
        closed = closed and meet & bounds != 0
    if len(sides) == 1:
        mask &= reach  # a convergent set holds ↑X, a divergent one ↓X
    if closed:
        return mask
    return NotClosed, (f"the intersection of all {kind.value} supersets is not {kind.value}", mask)


def _union_mask(c: Causality, a: int, b: int, kind: Kind) -> int | None:
    """The mask of the smallest kind-superset of a | b, or None when the
    causal union is undefined."""
    answer = _union_answer(c, a, b, kind)
    return answer if type(answer) is int else None


def causal_union(
    c: Causality, a: PointSet, b: PointSet, kind: Kind | None = None
) -> PointSet:
    """The smallest set of the requested kind containing ``a`` and ``b``.

    Computed in closed form (_closed_union).  With X = a | b, the
    convergent union is ↑X ∩ ↓j for the least common upper bound j of X,
    the divergent one ↓X ∩ ↑m for the greatest common lower bound m, and
    the BOTH union is the interval [m, j].  No family is needed: the
    operand classes come from the class codes when they are built and from
    the per-mask tests otherwise, so this answers above ENUMERATION_CAP
    and above 64 points.  A strictly convergent operand combined with a
    strictly divergent one yields the empty set regardless of kind.  When
    ``kind`` is omitted it is inferred from the operand classes.

    Raises NoCausalSuperset when no superset of the kind exists (X has no
    common bound on a side the kind needs), and NotClosed, carrying the
    intersection of all supersets of the kind, when those bounds have no
    least (greatest) element, so that no smallest superset exists.
    """
    if a._parent is not c or b._parent is not c:
        raise ValueError("operands must belong to this causality")
    a, b = a._mask, b._mask  # the operands as masks from here on
    codes = c._derived.get("class_codes")
    if codes is None:
        code_a, code_b = _class_code(c, a), _class_code(c, b)
    else:
        code_a, code_b = codes.get(a, 0), codes.get(b, 0)
    if code_a * code_b == 2:  # codes 1 and 2: strictly convergent and strictly divergent
        return PointSet(c, 0)
    if kind is None:
        kind = _infer_kind(code_a, code_b)
    _sides(kind)  # rejects a kind that no union closes in
    bits, want = _KIND_CODES[kind]
    if code_a & code_b & bits != want:  # both operands in the kind's family
        raise ValueError(
            f"operand classes {_CLASSES[code_a].name}, {_CLASSES[code_b].name} "
            f"are not compatible with kind {kind.name}"
        )
    answer = c._derived.get((a, b, kind) if a <= b else (b, a, kind))
    if answer is None:
        answer = _union_answer(c, a, b, kind)
    if type(answer) is int:
        return PointSet(c, answer)
    exc, args = answer
    raise exc(*args)  # a fresh instance: a stored one would grow its traceback


def _infer_kind(code_a: int, code_b: int) -> Kind:
    if not (code_a and code_b):
        raise ValueError("causal union operands must be causal sets")
    if code_a == code_b == 3:
        return Kind.BOTH
    if 1 in (code_a, code_b):
        return Kind.CONVERGENT
    return Kind.DIVERGENT


def intersect_causal(c: Causality, a: PointSet, b: PointSet) -> tuple[PointSet, SetClass]:
    """Intersection of two causal sets of the same kind, with its class.

    Only the intersection's class code is read.  Whether a family holds
    the intersection of two of its members is the crossing property
    (order.has_crossing_property: every unrelated pair with a common
    upper bound has a join), so no check is made here:

    - With crossing, A ∩ B is in the family of convergent members A and
      B.  It is complete, since a diamond between two of its members lies
      in A and in B.  Were it neither empty nor topped, it would have two
      maximal members m1 and m2, unrelated, with the tops of A and B as
      common upper bounds.  Their join j lies below both tops and above
      m1, so j is in A and in B, which are complete: a member of A ∩ B
      above m1 other than m1 (m2 ≤ j), against maximality.  The divergent
      family is the dual, since crossing gives its dual, every unrelated
      pair with a common lower bound has a meet (proof in
      has_crossing_property).
    - Without crossing, take x and y unrelated with common upper bounds U
      but no join.  U has two minimal members m1 ≠ m2, since a single one
      would be least.  S_i = ↑{x, y} ∩ ↓m_i is complete with top m_i, so
      convergent, while S_1 ∩ S_2 holds x and y and has no top: a top
      would be in U and below m1 and m2, so it would be both.  The
      divergent case is the dual, through a pair with common lower bounds
      and no meet.

    So a causality keeps both families closed under intersection or
    neither, as verify_algebra_axioms reports, and the answer never
    needs the crossing scan or its cap.
    """
    if a._parent is not c or b._parent is not c:
        raise ValueError("operands must belong to this causality")
    inter = a._mask & b._mask
    return PointSet(c, inter), _CLASSES[_code_of(c, inter)]


# ---------------------------------------------------------------------------
# Law reports
# ---------------------------------------------------------------------------

@dataclass
class LawResult:
    law: str
    verdict: str  # "holds" | "fails" | "skipped"
    counterexample: dict | None = None
    checked: int = 0
    skipped: int = 0

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "verdict": self.verdict,
            "counterexample": self.counterexample,
            "checked": self.checked,
            "skipped": self.skipped,
        }


@dataclass
class LawReport:
    subject: str
    results: list[LawResult] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(r.verdict != "fails" for r in self.results)

    def result(self, law: str) -> LawResult:
        for r in self.results:
            if r.law == law:
                return r
        raise KeyError(law)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "all_hold": self.all_hold,
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def __str__(self) -> str:
        lines = [f"{self.subject}:"]
        for r in self.results:
            extra = f" ({r.checked} checked, {r.skipped} skipped)"
            lines.append(f"  {r.law}: {r.verdict}{extra}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Union laws I-V
# ---------------------------------------------------------------------------

def _law_cap(c: Causality, what: str) -> None:
    if c.n > config.LAW_SCAN_CAP:
        raise GroundSetTooLarge(c.n, config.LAW_SCAN_CAP, what)


def _index_in(fam: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The family index of each mask, or -1 where it is not a member."""
    pos = np.minimum(np.searchsorted(fam, masks), len(fam) - 1)
    return np.where(fam[pos] == masks, pos, -1)


def _fold(fam: np.ndarray, rows: list[int], op: np.ufunc) -> np.ndarray:
    """``op`` (bitwise OR or AND) of ``rows[i]`` over the set bits i of
    each mask of the uint64 array ``fam``, reduced over its (f x n)
    membership matrix; ∅ gets the identity of op, 0 or _NONE."""
    member = (fam[:, None] >> np.arange(len(rows), dtype=np.uint64)) & np.uint64(1) != 0
    identity = _NONE if op is np.bitwise_and else np.uint64(0)
    return op.reduce(np.where(member, np.array(rows, dtype=np.uint64), identity), axis=1)


def _vertices(c: Causality, fam: np.ndarray, side: Direction) -> np.ndarray:
    """The index of the vertex on ``side`` of each mask of the uint64
    array ``fam``, c.n when it has none, as ∅."""
    bit = _fold(fam, _rows_cones(c, side)[0], np.bitwise_and) & fam
    return np.where(bit == 0, c.n, np.log2(np.maximum(bit, 1)).astype(np.intp))


def _bound_table(c: Causality, side: Direction) -> np.ndarray:
    """B[v, w] = the kernel's meet for the points v and w on ``side`` (the
    AND of ↓q over their common upper bounds q, for UPPER), or _NONE
    where they have no common bound: one AND fold of the cones over the
    common-bound masks.  Index c.n is ∅, which every point bounds, so
    B[v, c.n] is the meet for v alone, its cone ↓v; B[c.n, c.n] is 0,
    as ∅ ∪ ∅ = ∅."""
    rows, cones = _rows_cones(c, side)
    r = np.array([*rows, c.full_mask], dtype=np.uint64)
    meet = _fold((r[:, None] & r).ravel(), cones, np.bitwise_and).reshape(c.n + 1, c.n + 1)
    meet[c.n, c.n] = 0
    return meet


def _union_table(c: Causality, kind: Kind, masks: np.ndarray, i: np.ndarray,
                 j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(meets, index) over the pairs (masks[i], masks[j]) of family
    members, for index arrays i and j that broadcast together: meets is
    the AND of the family supersets of each pair (_NONE when there is
    none), and index the family index of that AND, their causal union,
    or -1 when the union is undefined.  This is _closed_union's AND read
    off the vertices: the common bounds of a | b on a side are those of
    the vertices v_a and v_b, so the AND is (reach_a | reach_b) &
    B[v_a, v_b] with B the _bound_table, whose ∅ entries make ∅ every
    union's identity, and the AND of both sides' B entries for BOTH.
    The laws and axioms pass the grid of one member per vertex group
    (_vertex_groups), the measure suite the unordered member pairs."""
    sides = _sides(kind)
    meets = np.full(np.broadcast_shapes(i.shape, j.shape), c.full_mask, dtype=np.uint64)
    undefined = np.zeros(meets.shape, dtype=bool)
    for side in sides:
        v = _vertices(c, masks, side)
        bound = _bound_table(c, side)[v[i], v[j]]
        undefined |= bound == _NONE
        meets &= bound
    if len(sides) == 1:  # ↑X for CONVERGENT, ↓X for DIVERGENT
        reach = _fold(masks, _rows_cones(c, sides[0])[0], np.bitwise_or)
        meets &= reach[i] | reach[j]
    meets[undefined] = _NONE
    return meets, _index_in(_family_array(c, kind), meets)


def _vertex_groups(c: Causality, kind: Kind):
    """(group, size, meets, union): group[i] is the group of member i by
    its vertices (both sides' for BOTH), size[g] counts group g, group 0
    is {∅}, and meets and union are the _union_table of one member per
    group, over every pair of groups.  Whether a union is defined, and
    the vertices of the result, depend on the operands' vertices alone
    (_closed_union)."""
    fam = _family_array(c, kind)
    key = np.zeros(len(fam), dtype=np.intp)
    for side in _sides(kind):  # ∅, with vertex c.n on every side, keys 0
        key = key * (c.n + 1) + c.n - _vertices(c, fam, side)
    _, first, group, size = np.unique(key, return_index=True, return_inverse=True,
                                      return_counts=True)
    return group, size, *_union_table(c, kind, fam[first], *np.ogrid[:len(first), :len(first)])


def _law_counts(c: Causality, kind: Kind) -> tuple[int, int, int, int, int]:
    """The numbers of member pairs (A, B) on which law I, and of triples
    (A, B, C) on which law III, IV and V, has both sides defined: every
    union is defined and every intersection that is united is a member;
    then the number of unordered member pairs, a member with itself
    included, that have a superset of the kind (verify_algebra_axioms).

    ok[g, h] tells whether the union of a member of vertex group g and
    one of group h is defined, at[g, h] is the group of that union
    (_vertex_groups), and ok is symmetric.  Laws I and III count each
    pair or triple of groups where it is defined at the product of their
    sizes.
    Laws IV and V read ok alone, so they sum over classes of groups with
    equal ok rows: g and g' of one class are interchangeable in each ok
    factor, as ok[g, h] = ok[g', h] by their equal rows and ok[h, g] =
    ok[h, g'] by symmetry.  hist[K, p, q] counts the members M of class p
    whose intersection with member K is a member of class q.  Law IV
    needs A ∪c B and (C ∩ A) ∪c (C ∩ B), so it counts, over the members
    C, <hist[C], ok hist[C] ok> = <ok hist[C], hist[C] ok>.  Law V needs
    A ∪c (B ∩ C), A ∪c B and A ∪c C, which depend on A through its class
    alone, so it sums hist with its rows K summed by class.  Counts are int64.
    """
    fam = _family_array(c, kind)
    group, size, meets, union = _vertex_groups(c, kind)
    # the ordered pairs with a superset, the f pairs A, A among them, halved
    found = (int(np.einsum("g,gh,h->", size, meets != _NONE, size, dtype=np.int64)) + len(fam)) // 2
    ok, at = union >= 0, group[union]  # at: the group of the union, where ok
    defined = ok[:, :, None] & ok[at] & ok[None, :, :] & ok[:, at]
    law_i = np.einsum("p,pq,q->", size, ok, size, dtype=np.int64)
    law_iii = np.einsum("pqr,p,q,r->", defined, size, size, size, dtype=np.int64)
    _, first, cls = np.unique([row.tobytes() for row in ok], return_index=True, return_inverse=True)
    k, ok, cls = len(first), ok[np.ix_(first, first)].astype(np.int64), cls[group]
    inter = np.append(cls, k)[_index_in(fam, fam[:, None] & fam)]  # index -1 (no member): k

    def histogram(keys: np.ndarray, m: int) -> np.ndarray:
        cell = (keys[:, None] * k + cls) * (k + 1) + inter
        return np.bincount(cell.ravel(), minlength=m * k * (k + 1)).reshape(m, k, k + 1)[:, :, :k]

    hist = histogram(np.arange(len(fam)), len(fam))
    law_iv = (np.einsum("cda,de->cea", hist, ok) * np.einsum("cad,de->cae", hist, ok)).sum()
    by_class = np.einsum("bgh,ah->abg", histogram(cls, k), ok)
    law_v = np.einsum("a,ab,ag,abg->", np.bincount(cls, minlength=k), ok, ok, by_class)
    return int(law_i), int(law_iii), int(law_iv), int(law_v), found


def _distributivity_witness(c: Causality, kind: Kind) -> tuple | None:
    """The ids of the sets a, b and c of the counterexample to laws IV and
    V over the kind's family, or None when both hold (proof in
    verify_union_laws): ({a}, {c}, {b}) for the 3-chain a < b < c with
    the first middle point b, else ({x}, {y}, {j}) for the first
    unrelated pair x, y with a join j (a meet for DIVERGENT)."""
    for b, (below, above) in enumerate(zip(c.pred_masks, c.succ_masks)):
        below, above = below & ~(1 << b), above & ~(1 << b)
        if below and above:
            return c.ids_of(below & -below), c.ids_of(above & -above), (c.points[b],)
    sides = _sides(kind)  # BOTH, with two sides, needs no join test
    for x, y in _unrelated_pairs(c) if len(sides) == 1 else ():
        bounds, meet, _ = _bound_meet(c, 1 << x | 1 << y, sides[0])
        if meet & bounds:
            return (c.points[x],), (c.points[y],), c.ids_of(meet & bounds)
    return None


def _laws(c: Causality, kind: Kind) -> tuple:
    """The kind's law and superset-pair counts (_law_counts) and its IV/V
    witness (_distributivity_witness), as one tuple: the data of the
    union-law results and of the causal-union-closure count."""
    return *_law_counts(c, kind), _distributivity_witness(c, kind)


def verify_union_laws(c: Causality, kinds: Iterable[Kind] = (Kind.CONVERGENT, Kind.DIVERGENT)) -> LawReport:
    """Decide the causal-union laws I-V over each family, by proof.

    I    A, B are contained in their causal union
    II   the union is idempotent
    III  the union is associative
    IV   intersection distributes over the union
    V    the union distributes over intersection

    No member pair or triple is scanned.  Each result still covers its
    law's whole domain, the f^2 pairs of I, the f members of II and the
    f^3 triples of III-V: a case counts as checked when every union it
    needs is defined and every intersection it unites is a member, and
    as skipped otherwise.

    Write v(S) for the vertex of a member S (its top for CONVERGENT, see
    _closed_union; ∅ has none, and a join with none is the other
    vertex).  A defined union A ∪c B is ↑X ∩ ↓j for X = A ∪ B and j the
    join of X, which holds X, so I holds on the pairs where the union is
    defined; and a member A is ↑A ∩ ↓v(A), so A ∪c A = A is defined on
    every member and II holds with f checked.

    Law III.  Take X = A ∪ B ∪ C.  A ∪c B = ↑(A ∪ B) ∩ ↓j with j =
    v(A) ∨ v(B), and it holds A ∪ B and lies in ↑(A ∪ B), so its ↑ is
    ↑(A ∪ B).  Hence (A ∪c B) ∪c C = ↑X ∩ ↓(j ∨ v(C)) whenever both joins
    exist, and likewise A ∪c (B ∪c C) = ↑X ∩ ↓(v(A) ∨ (v(B) ∨ v(C))).
    Both joins are then the least upper bound of v(A), v(B) and v(C), so
    both sides are equal wherever they are defined, and whether each is
    defined depends on the three vertices alone (_law_counts).
    DIVERGENT is the dual, and BOTH takes both sides.

    Laws IV and V.  For CONVERGENT both hold iff the order has no 3-chain
    and no unrelated pair has a join; DIVERGENT is the same with meet
    for join, and BOTH holds iff there is no 3-chain.

    - A 3-chain a < b < c fails both, in every kind: {a} ∪c {c} holds
      the interval [a, c], so b.  So {b} ∩ ({a} ∪c {c}) = {b}, while
      ({b} ∩ {a}) ∪c ({b} ∩ {c}) = ∅ (IV); and {a} ∪c ({c} ∩ {b}) =
      {a}, while ({a} ∪c {c}) ∩ ({a} ∪c {b}) holds b (V).
    - Unrelated x, y with a join j fail both for CONVERGENT: {x} ∪c {y}
      = ↑{x, y} ∩ ↓j holds j, and so does {x} ∪c {j}.  So
      {j} ∩ ({x} ∪c {y}) = {j}, while ({j} ∩ {x}) ∪c ({j} ∩ {y}) = ∅
      (IV); and {x} ∪c ({y} ∩ {j}) = {x}, while
      ({x} ∪c {y}) ∩ ({x} ∪c {j}) holds j (V).  DIVERGENT is the dual.
    - Otherwise every defined union is the plain union A ∪ B.  For
      CONVERGENT and nonempty A, B (∅ is the identity), unrelated tops
      v(A), v(B) have no join, so the union is undefined.  If v(A) ≤
      v(B) = w, the union is ↑X ∩ ↓w; a point p < w in it lies above
      some x in X, and x ≤ p < w with no 3-chain gives p = x.  So the
      union is X ∪ {w} = X.  For BOTH the union is the interval [m, j]
      of X's meet and join; two unrelated points x, y in X would give
      the 3-chain m < x < j, so X is a chain of at most two points and
      [m, j] = X.  Then on every triple where both sides are defined,
      (C ∩ A) ∪c (C ∩ B) = C ∩ (A ∪ B) (IV) and A ∪c (B ∩ C) =
      (A ∪ B) ∩ (A ∪ C) (V).

    A failing IV or V reports the singletons of the first construction
    that applies (_distributivity_witness) as its a, b and c.  The pairs
    of I and the triples with both sides defined are counted over vertex
    groups, from no member-pair union table (_vertex_groups, _law_counts).

    Law VI, that structural reversal maps the union to the dual union of
    the images, is proved and not reported.  Structural reversal keeps
    every mask and swaps succ_masks with pred_masks, so _class_codes
    builds the dual family over reverse_structure(c) with the very same
    _vertex_sets call, as the same mask array.  The dual union therefore
    ANDs the same members, and is defined exactly when the union is.

    Each kind's counts and witness are stored, and every call builds a
    fresh report from them.
    """
    _law_cap(c, "union-law verification")
    report = LawReport("union laws")
    for kind in kinds:
        f, tag = len(_family_array(c, kind)), kind.value
        pairs, law_iii, law_iv, law_v, _, witness = _stored(c, ("laws", kind), _laws, kind)
        ce = None if witness is None else dict(zip("abc", witness))
        verdict = "holds" if ce is None else "fails"
        report.results += [
            LawResult(f"I[{tag}]", "holds", None, pairs, f * f - pairs),
            LawResult(f"II[{tag}]", "holds", None, f, 0),
            LawResult(f"III[{tag}]", "holds", None, law_iii, f**3 - law_iii),
            LawResult(f"IV[{tag}]", verdict, ce, law_iv, f**3 - law_iv),
            LawResult(f"V[{tag}]", verdict, ce, law_v, f**3 - law_v),
        ]
    return report


# ---------------------------------------------------------------------------
# Algebra axioms
# ---------------------------------------------------------------------------

def verify_algebra_axioms(c: Causality) -> LawReport:
    """Decide the axioms of the causal-set algebra over the enumerated
    families.

    Covered: both families are closed under pairwise intersection and
    under every defined causal union; and the union laws hold (delegated
    to verify_union_laws).  Each closure result covers the f(f+1)/2
    unordered member pairs, a member with itself included.  Intersection
    counts every pair as checked; causal union counts the pairs with a
    superset of the kind as checked, and the others as skipped.

    Each of the four closure verdicts, intersection-closure and
    causal-union-closure of either family, holds iff the causality has
    the crossing property, so all four are read off the stored
    has_crossing_property:

    - intersections: both directions are proved in intersect_causal;
    - unions, with crossing: for nonempty members A and B (∅ adds
      nothing), a convergent superset has a top above the tops of both,
      so when one exists the tops have a least common upper bound j (the
      larger top when they are related, else their join), which is the
      join of A ∪ B.  The union ↑(A ∪ B) ∩ ↓j (_closed_union) is then in
      the family;
    - unions, without crossing: for x and y unrelated with common upper
      bounds but no join, {x} ∪c {y} raises NotClosed, and the
      singletons are members.

    The divergent family is the dual, through the dual form of crossing
    (proof in has_crossing_property).  A failure is built from the
    crossing witness (x, y, z, w), z and w common upper bounds of x and
    y with no common lower bound in the set U of those bounds: the
    members ↑{x, y} ∩ ↓z and ↑{x, y} ∩ ↓w, whose intersection holds x
    and y but has no top, and the pair {x}, {y}, whose union is
    NotClosed.  The divergent failure reads the same witness as
    (z, w, x, y).  z and w are unrelated, since z ≤ w would make z a
    common lower bound of both in U.  x and y are common lower bounds
    of z and w, and z and w have no meet: a meet, or any common lower
    bound of z and w above x and y, would lie in U below z and w.  So
    ↓{z, w} ∩ ↑x and ↓{z, w} ∩ ↑y are divergent members whose
    intersection holds z and w but has no bottom, and {z} ∪d {w} is
    NotClosed.  No reversed order is built.

    Not reported, because they hold on every finite causality:

    - the empty set is in both families: _class_codes gives it code 3;
    - every singleton {v} is in both: it is complete with v as top and
      as bottom, a leaf of both _vertex_sets walks;
    - structural reversal swaps the two families: reverse_structure
      swaps succ_masks and pred_masks, so its families come from the
      very same _vertex_sets calls;
    - structural reversal keeps every mask, so the image of the empty
      set is empty and images commute with intersection and plain union.
      Any bijective point map commutes with both as well.
    """
    _law_cap(c, "algebra-axiom verification")
    primal = has_crossing_property(c).witness
    dual = primal and primal[2:] + primal[:2]  # (z, w, x, y)
    report = LawReport("algebra axioms")
    for kind, witness in ((Kind.CONVERGENT, primal), (Kind.DIVERGENT, dual)):
        found = _stored(c, ("laws", kind), _laws, kind)[4]
        f, tag = len(_family_array(c, kind)), kind.value
        pairs = f * (f + 1) // 2
        meet = union = None
        if witness is not None:
            x, y, z, w = (c.index[p] for p in witness)
            # ↑{x, y} ∩ ↓z is the union of {x, y} and {z}, as z is above both
            # (↓{x, y} ∩ ↑z for DIVERGENT, z below both)
            a, b = (_closed_union(c, 1 << x | 1 << y, 1 << v, kind) for v in (z, w))
            meet = dict(a=c.ids_of(a), b=c.ids_of(b), intersection=c.ids_of(a & b))
            _, (_, closure) = _closed_union(c, 1 << x, 1 << y, kind)
            union = dict(a=(witness[0],), b=(witness[1],),
                         intersection_of_supersets=c.ids_of(closure))
        verdict = "holds" if witness is None else "fails"
        report.results += [
            LawResult(f"intersection-closure[{tag}]", verdict, meet, pairs, 0),
            LawResult(f"causal-union-closure[{tag}]", verdict, union, found, pairs - found),
        ]

    laws = verify_union_laws(c)
    res = LawResult(
        "union-laws",
        "holds" if laws.all_hold else "fails",
        None if laws.all_hold else {"see": "union laws report"},
        checked=sum(r.checked for r in laws.results),
        skipped=sum(r.skipped for r in laws.results),
    )
    report.results.append(res)
    return report
