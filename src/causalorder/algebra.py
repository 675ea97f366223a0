"""The set algebra over a finite causality.

Subsets that are causally complete and convergent behave like truncated
past cones; complete and divergent ones like truncated future cones.
Together with intersection, the causal union (smallest superset of the
same kind) and order reversal they form an algebra, whose laws this
module verifies exhaustively at desk scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from . import config
from .errors import (
    GroundSetTooLarge,
    NoCausalSuperset,
    NotClosed,
    TheoremViolation,
)
from .order import (
    Causality,
    Direction,
    PointSet,
    bits,
    bounded_mask,
    complete_mask,
    has_crossing_property,
    reverse_structure,
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


# class code bit 0 = convergent family, bit 1 = divergent family
# (each test takes an int code or a uint8 array of codes)
_KIND_TEST = {
    Kind.CONVERGENT: lambda code: code & 1 != 0,
    Kind.DIVERGENT: lambda code: code & 2 != 0,
    Kind.BOTH: lambda code: code == 3,
    Kind.STRICTLY_CONVERGENT: lambda code: code == 1,
    Kind.STRICTLY_DIVERGENT: lambda code: code == 2,
}

_DUAL = {
    Kind.CONVERGENT: Kind.DIVERGENT,
    Kind.DIVERGENT: Kind.CONVERGENT,
    Kind.BOTH: Kind.BOTH,
    Kind.STRICTLY_CONVERGENT: Kind.STRICTLY_DIVERGENT,
    Kind.STRICTLY_DIVERGENT: Kind.STRICTLY_CONVERGENT,
}

# SetClass members by value, so a class code reads its member by tuple index
_CLASSES = tuple(SetClass)


def _class_code(c: Causality, mask: int) -> int:
    """The SetClass value of a subset: 0 when incomplete, else bit 0 for
    convergent and bit 1 for divergent."""
    if not complete_mask(c, mask):
        return 0
    return bounded_mask(c, mask, c.succ_masks) | bounded_mask(c, mask, c.pred_masks) << 1


def _code_of(c: Causality, mask: int) -> int:
    """The class code of a subset, read off the class table once it is
    built, else computed by _class_code."""
    table = c._derived.get("class_table")
    return _class_code(c, mask) if table is None else table.item(mask)


def class_of_mask(c: Causality, mask: int) -> SetClass:
    """Classify a subset given as a bit-mask."""
    return _CLASSES[_code_of(c, mask)]


def classify(c: Causality, u: PointSet) -> SetClass:
    """Classify a subset of the causality's ground set."""
    if u.parent is not c:
        raise ValueError("point set does not belong to this causality")
    return class_of_mask(c, u.mask)


# Subset bits whose OR tables _complete_masks builds whole; the remaining
# high bits are walked one block of 2^_LOW_BITS subsets at a time, so the
# temporaries stay at a few 2^_LOW_BITS-word arrays for any n.
_LOW_BITS = 14


def _or_table(masks: list[int]) -> np.ndarray:
    """``t[s]`` = OR of ``masks[i]`` over the set bits i of s, for every
    s < 2^len(masks), built by doubling."""
    t = np.zeros(1, dtype=np.uint64)
    for m in masks:
        t = np.concatenate((t, t | np.uint64(m)))
    return t


def _complete_masks(c: Causality) -> np.ndarray:
    """Every causally complete subset mask, ascending.

    The down-set ↓S (OR of pred_masks over S) meets the up-set ↑S (OR of
    succ_masks over S) in exactly the union of the diamonds between
    members of S, which contains S; so S is complete iff ↓S ∩ ↑S = S.
    """
    low = min(c.n, _LOW_BITS)
    down_lo, up_lo = _or_table(c.pred_masks[:low]), _or_table(c.succ_masks[:low])
    down_hi, up_hi = _or_table(c.pred_masks[low:]), _or_table(c.succ_masks[low:])
    lo = np.arange(1 << low, dtype=np.uint64)
    blocks = []
    for h in range(len(down_hi)):
        s = lo | np.uint64(h << low)
        blocks.append(s[((down_lo | down_hi[h]) & (up_lo | up_hi[h])) == s])
    return np.concatenate(blocks)


def _bounded(c: Causality, masks: np.ndarray, bound_masks: list[int]) -> np.ndarray:
    """Which ``masks`` hold, for each unrelated pair of members, a common
    bound: a point of ``bound_masks[x] & bound_masks[y]`` inside."""
    ok = np.ones(masks.shape, dtype=bool)
    rel = c.relation
    for x, y in zip(*np.nonzero(np.triu(~(rel | rel.T)))):
        pair = np.uint64(1 << int(x) | 1 << int(y))
        common = np.uint64(bound_masks[x] & bound_masks[y])
        ok &= ((masks & pair) != pair) | ((masks & common) != 0)
    return ok


def _class_table(c: Causality) -> np.ndarray:
    """The SetClass value of every subset, indexed by mask (cached).

    Completeness is read off OR tables of the row masks (↓S ∩ ↑S = S,
    see _complete_masks) in O(2^n) numpy word operations; convergence and
    divergence are then tested on the complete masks only, one unrelated
    pair at a time.  At n = 20 this takes milliseconds, and the 2^n-byte
    table is the largest allocation.
    """
    table = c._derived.get("class_table")
    if table is None:
        # ENUMERATION_CAP also keeps every subset mask below 2^64, which
        # the uint64 arrays here and in reconstruction rely on.
        if c.n > config.ENUMERATION_CAP:
            raise GroundSetTooLarge(c.n, config.ENUMERATION_CAP, "subset enumeration")
        complete = _complete_masks(c)
        conv = _bounded(c, complete, c.succ_masks)
        div = _bounded(c, complete, c.pred_masks)
        table = c._derived["class_table"] = np.zeros(1 << c.n, dtype=np.uint8)
        table[complete] = conv | div.astype(np.uint8) << 1
    return table


def family_masks(c: Causality, kind: Kind) -> list[int]:
    """All subset masks of the requested kind, ascending (cached, along
    with the uint64 array of the same masks that causal unions scan)."""
    hit = c._derived.get(("family", kind))
    if hit is None:
        sel = np.flatnonzero(_KIND_TEST[kind](_class_table(c)))
        c._derived["family_arr", kind] = sel.astype(np.uint64)
        hit = c._derived["family", kind] = sel.tolist()
    return hit


def enumerate_causal_sets(c: Causality, kind: Kind) -> list[PointSet]:
    """Materialize every subset with the requested classification.

    Reads the 2^n subset classification table, capped at ENUMERATION_CAP
    points: a subset S is complete iff ↓S ∩ ↑S = S (the points below some
    member and above some member are exactly S), which numpy checks for
    all 2^n subsets in milliseconds at n = 20; convergence and divergence
    are tested on the complete subsets only.  Results come in ascending
    bit-mask order.
    """
    return [PointSet(c, m) for m in family_masks(c, kind)]


def vertex(c: Causality, u: PointSet, direction: Direction) -> str | None:
    """The unique member of ``u`` bounding all of ``u``, or None.

    Uniqueness is guaranteed by antisymmetry.  UPPER looks for a member
    above every member, LOWER below.
    """
    mask = u.mask
    if mask == 0:
        return None
    for i in bits(mask):
        bound = c.pred_masks[i] if direction is Direction.UPPER else c.succ_masks[i]
        if mask & ~bound == 0:
            return c.points[i]
    return None


# ---------------------------------------------------------------------------
# Causal union
# ---------------------------------------------------------------------------

def _family_array(c: Causality, kind: Kind) -> np.ndarray:
    hit = c._derived.get(("family_arr", kind))
    if hit is None:
        family_masks(c, kind)
        hit = c._derived["family_arr", kind]
    return hit


# The AND over no family member: every bit set, which no subset mask below
# ENUMERATION_CAP points has.
_NONE = np.uint64(2**64 - 1)


def _unions(c: Causality, targets: np.ndarray, kind: Kind) -> tuple[np.ndarray, np.ndarray]:
    """For each uint64 target: the AND of the family members that contain
    it (_NONE when no member does), and whether that AND is of the kind.

    The AND of every family superset is the target's closure in the
    family, the smallest superset of the kind whenever it is of the kind
    itself.  This is the only code that ANDs family supersets.
    """
    fam = _family_array(c, kind)
    t = targets[:, None]
    meets = np.bitwise_and.reduce(np.where((fam & t) == t, fam, _NONE), axis=1)
    found = meets != _NONE
    return meets, found & _KIND_TEST[kind](_class_table(c).take(meets, mode="clip"))


def _union_answer(c: Causality, a: int, b: int, kind: Kind):
    """The finished answer of the kind-union of masks a and b (kept in the
    store under (a, b, kind) with a <= b): the result PointSet, or the
    (exception class, constructor arguments) that causal_union raises a
    fresh instance of."""
    key = (a, b, kind) if a <= b else (b, a, kind)
    hit = c._derived.get(key)
    if hit is None:
        meets, closed = _unions(c, np.array([a | b], dtype=np.uint64), kind)
        meet = int(meets[0])
        if closed[0]:
            hit = PointSet(c, meet)
        elif meet == _NONE:
            ids = sorted(c.ids_of(a) + c.ids_of(b))
            hit = NoCausalSuperset, (f"no {kind.value} set contains {ids}",)
        else:
            hit = NotClosed, (
                f"the intersection of all {kind.value} supersets is not {kind.value}", meet)
        c._derived[key] = hit
    return hit


def _union_mask(c: Causality, a: int, b: int, kind: Kind) -> int | None:
    """The mask of the smallest kind-superset of a | b, or None when the
    causal union is undefined."""
    answer = _union_answer(c, a, b, kind)
    return answer.mask if type(answer) is PointSet else None


def causal_union(
    c: Causality, a: PointSet, b: PointSet, kind: Kind | None = None
) -> PointSet:
    """The smallest set of the requested kind containing ``a`` and ``b``.

    Computed literally as the intersection of every kind-superset of
    a | b, then checked to have the kind itself.  A strictly convergent
    operand combined with a strictly divergent one yields the empty set
    regardless of kind.  When ``kind`` is omitted it is inferred from the
    operand classes.

    Raises NoCausalSuperset when no superset of the kind exists, and
    NotClosed (carrying the intersection) when the intersection of all
    supersets fails the kind check, i.e. no smallest superset exists.
    """
    if a.parent is not c or b.parent is not c:
        raise ValueError("operands must belong to this causality")
    code_a = _code_of(c, a.mask)
    code_b = _code_of(c, b.mask)
    if code_a * code_b == 2:  # codes 1 and 2: strictly convergent and strictly divergent
        return PointSet(c, 0)
    if kind is None:
        kind = _infer_kind(code_a, code_b)
    if not _compatible_kind(code_a, code_b, kind):
        raise ValueError(
            f"operand classes {_CLASSES[code_a].name}, {_CLASSES[code_b].name} "
            f"are not compatible with kind {kind.name}"
        )
    answer = _union_answer(c, a.mask, b.mask, kind)
    if type(answer) is PointSet:
        return answer
    exc, args = answer
    raise exc(*args)  # a fresh instance: a stored one would grow its traceback


def _compatible_kind(code_a: int, code_b: int, kind: Kind) -> bool:
    """Whether both operand codes lie in the family the union closes in."""
    if kind is Kind.CONVERGENT:
        return code_a & code_b & 1 != 0
    if kind is Kind.DIVERGENT:
        return code_a & code_b & 2 != 0
    if kind is Kind.BOTH:
        return code_a & code_b == 3
    raise ValueError(f"causal unions close in CONVERGENT, DIVERGENT or BOTH, not {kind}")


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

    When the causality has the crossing property and both operands lie in
    one family, the intersection provably stays in that family; a
    violation is surfaced as TheoremViolation, never absorbed.  The
    crossing property is consulted only when the intersection has left a
    family holding both operands, the one case the theorem covers.
    """
    if a.parent is not c or b.parent is not c:
        raise ValueError("operands must belong to this causality")
    code_a = _code_of(c, a.mask)
    code_b = _code_of(c, b.mask)
    inter = a & b
    code_i = _code_of(c, inter.mask)
    # family bits (1 convergent, 2 divergent) that hold both operands but
    # not their intersection
    left = code_a & code_b & ~code_i
    if left and has_crossing_property(c).holds:
        kind = Kind.CONVERGENT if left & 1 else Kind.DIVERGENT
        raise TheoremViolation(
            f"crossing property holds but {a.ids()} ∩ {b.ids()} "
            f"is not {kind.value}"
        )
    return inter, _CLASSES[code_i]


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


def _fail(law: str, checked: int, skipped: int, **ce) -> LawResult:
    return LawResult(law, "fails", ce, checked, skipped)


def _scan(law: str, scanned: np.ndarray, checked: np.ndarray, bad: np.ndarray, witness) -> LawResult:
    """The result of scanning the ``scanned`` cells of a family table in
    row-major order: ``checked`` cells count as checked and the others as
    skipped, until the first ``bad`` one (a checked cell), which fails
    with the counterexample ``witness(*cell)``."""
    hits = np.flatnonzero(bad & scanned)
    stop = int(hits[0]) + 1 if hits.size else None
    n_scanned = int(np.count_nonzero(scanned.ravel()[:stop]))
    n_checked = int(np.count_nonzero((scanned & checked).ravel()[:stop]))
    if stop is None:
        return LawResult(law, "holds", None, n_checked, n_scanned - n_checked)
    cell = np.unravel_index(stop - 1, bad.shape)
    return _fail(law, n_checked, n_scanned - n_checked, **witness(*cell))


def _slabs(law: str, f: int, slab, witness) -> LawResult:
    """The result of scanning f slabs of f x f cells, one per first index
    i: ``slab(i)`` gives the (defined, bad) cells.  Every cell of a scanned
    slab counts, as checked where defined and skipped elsewhere; the first
    slab with a bad cell fails with the counterexample ``witness(i, *cell)``
    of its first bad cell in row-major order."""
    checked = skipped = 0
    for i in range(f):
        defined, bad = slab(i)
        n_defined = int(np.count_nonzero(defined))
        checked += n_defined
        skipped += defined.size - n_defined
        if bad.any():
            return _fail(law, checked, skipped, **witness(i, *map(int, np.argwhere(bad)[0])))
    return LawResult(law, "holds", None, checked, skipped)


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


def _union_tables(c: Causality, kind: Kind):
    """The family's uint64 masks plus its f x f union tables (cached).

    meets[i, j] is the AND of the family supersets of members i and j
    (_NONE when there is none).  u_idx[i, j] holds the family index of
    that AND, which is their causal union, or -1 when the union is
    undefined (no superset / not closed).  i_idx[i, j] holds the family
    index of the plain intersection, or -1 when it leaves the family.
    """
    hit = c._derived.get(("unions", kind))
    if hit is None:
        fam = _family_array(c, kind)
        meets = np.empty((len(fam), len(fam)), dtype=np.uint64)
        for i in range(len(fam)):  # one row at a time: f x f temporaries
            meets[i, i:] = meets[i:, i] = _unions(c, fam[i:] | fam[i], kind)[0]
        hit = fam, meets, _index_in(fam, meets), _index_in(fam, fam[:, None] & fam)
        c._derived["unions", kind] = hit
    return hit


def verify_union_laws(c: Causality, kinds: Iterable[Kind] = (Kind.CONVERGENT, Kind.DIVERGENT)) -> LawReport:
    """Exhaustively check the causal-union laws I-V over each family.

    I    A, B are contained in their causal union
    II   the union is idempotent
    III  the union is associative
    IV   intersection distributes over the union
    V    the union distributes over intersection

    Triples on which a needed union or intersection is undefined are
    counted as skipped, not passed.

    Law VI, that structural reversal maps the union to the dual union of
    the images, is proved rather than scanned.  Structural reversal keeps
    every mask, and reversal-swaps-families (verify_algebra_axioms)
    checks that the dual family over reverse_structure(c) is the same
    mask array; so the dual union ANDs the same members, and is defined
    exactly when the union is.
    """
    kinds = tuple(kinds)
    cached = c._derived.get(("union_laws", kinds))
    if cached is not None:
        return cached
    _law_cap(c, "union-law verification")
    report = LawReport("union laws")
    for kind in kinds:
        fam_arr, meets, u_idx, i_idx = _union_tables(c, kind)
        fam = family_masks(c, kind)
        f = len(fam)
        union_ok = u_idx >= 0
        u_mask = np.where(union_ok, meets, 0)
        tag = kind.value

        # law I: containment, pairs
        outside = ((fam_arr[:, None] | fam_arr) & ~u_mask) != 0
        report.results.append(_scan(
            f"I[{tag}]", np.ones((f, f), dtype=bool), union_ok, union_ok & outside,
            lambda i, j: dict(a=c.ids_of(fam[i]), b=c.ids_of(fam[j]))))

        # law II: idempotence, singles
        diag = np.diagonal(union_ok)
        report.results.append(_scan(
            f"II[{tag}]", np.ones(f, dtype=bool), diag, diag & (np.diagonal(u_idx) != np.arange(f)),
            lambda i: dict(a=c.ids_of(fam[i]))))

        # laws III-V: triples, one f x f slab per first index
        def triple(i, j, k):
            return dict(a=c.ids_of(fam[i]), b=c.ids_of(fam[j]), c=c.ids_of(fam[k]))

        def associativity(i):  # (A ∪c B) ∪c C = A ∪c (B ∪c C), slab over A
            ui = u_idx[i]                          # (f,) union i,b
            left = np.where(ui[:, None] >= 0, u_idx[np.clip(ui, 0, None), :], -1)
            right = np.where(union_ok, u_idx[i, np.clip(u_idx, 0, None)], -1)
            defined = (left >= 0) & (right >= 0)
            return defined, defined & (left != right)

        def meet_over_union(k):  # C ∩ (A ∪c B) = (C ∩ A) ∪c (C ∩ B), slab over C
            ca = np.clip(i_idx[k], 0, None)        # index of fam[k] & fam[a]
            ca_ok = i_idx[k] >= 0
            pair_ok = ca_ok[:, None] & ca_ok[None, :]
            rhs_idx = np.where(pair_ok, u_idx[ca[:, None], ca[None, :]], -1)
            defined = union_ok & pair_ok & (rhs_idx >= 0)
            return defined, defined & ((fam_arr[k] & u_mask) != fam_arr[np.clip(rhs_idx, 0, None)])

        def union_over_meet(i):  # A ∪c (B ∩ C) = (A ∪c B) ∩ (A ∪c C), slab over A
            lhs_idx = np.where(i_idx >= 0, u_idx[i, np.clip(i_idx, 0, None)], -1)
            ub = u_idx[i] >= 0
            defined = (lhs_idx >= 0) & ub[:, None] & ub[None, :]
            rhs = u_mask[i][:, None] & u_mask[i][None, :]
            return defined, defined & (fam_arr[np.clip(lhs_idx, 0, None)] != rhs)

        report.results.append(_slabs(f"III[{tag}]", f, associativity, triple))
        report.results.append(_slabs(f"IV[{tag}]", f, meet_over_union,
                                     lambda k, i, j: triple(i, j, k)))
        report.results.append(_slabs(f"V[{tag}]", f, union_over_meet, triple))

    c._derived["union_laws", kinds] = report
    return report


# ---------------------------------------------------------------------------
# Algebra axioms
# ---------------------------------------------------------------------------

def verify_algebra_axioms(c: Causality) -> LawReport:
    """Check the axioms of the causal-set algebra against the enumerated
    families, under structural reversal.

    Covered: the empty set and all singletons belong to both families;
    both families are closed under pairwise intersection and under every
    defined causal union (undefined unions are counted as skipped);
    reversal swaps the two families; and the union laws hold (delegated
    to verify_union_laws).

    Not scanned: structural reversal keeps every mask, so the image of
    the empty set is empty and images commute with intersection and
    plain union.  Any bijective point map commutes with both as well.
    """
    cached = c._derived.get("algebra_axioms")
    if cached is not None:
        return cached
    _law_cap(c, "algebra-axiom verification")
    report = LawReport("algebra axioms")
    table = _class_table(c)

    res = LawResult("empty-set-in-both", "holds", checked=1)
    if table[0] != 3:
        res = _fail(res.law, 1, 0, empty_class=SetClass(int(table[0])).name)
    report.results.append(res)

    res = LawResult("singletons-in-both", "holds")
    for i in range(c.n):
        res.checked += 1
        if table[1 << i] != 3:
            res = _fail(res.law, res.checked, 0, point=c.points[i],
                        got=SetClass(int(table[1 << i])).name)
            break
    report.results.append(res)

    for kind in (Kind.CONVERGENT, Kind.DIVERGENT):
        _, meets, u_idx, i_idx = _union_tables(c, kind)
        fam = family_masks(c, kind)
        pairs = np.triu(np.ones(u_idx.shape, dtype=bool))
        report.results.append(_scan(
            f"intersection-closure[{kind.value}]", pairs, pairs, i_idx < 0,
            lambda i, j: dict(a=c.ids_of(fam[i]), b=c.ids_of(fam[j]),
                              intersection=c.ids_of(fam[i] & fam[j]))))
        found = meets != _NONE
        report.results.append(_scan(
            f"causal-union-closure[{kind.value}]", pairs, found, found & (u_idx < 0),
            lambda i, j: dict(a=c.ids_of(fam[i]), b=c.ids_of(fam[j]),
                              intersection_of_supersets=c.ids_of(int(meets[i, j])))))

    rev = reverse_structure(c)
    res = LawResult("reversal-swaps-families", "holds", checked=2)
    if family_masks(c, Kind.CONVERGENT) != family_masks(rev, Kind.DIVERGENT) or (
        family_masks(c, Kind.DIVERGENT) != family_masks(rev, Kind.CONVERGENT)
    ):
        res = _fail(res.law, 2, 0)
    report.results.append(res)

    laws = verify_union_laws(c)
    res = LawResult(
        "union-laws",
        "holds" if laws.all_hold else "fails",
        None if laws.all_hold else {"see": "union laws report"},
        checked=sum(r.checked for r in laws.results),
        skipped=sum(r.skipped for r in laws.results),
    )
    report.results.append(res)
    c._derived["algebra_axioms"] = report
    return report
