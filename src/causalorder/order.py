"""Finite causal orders and the predicates that carve out cone-like subsets.

A :class:`Causality` is a finite ground set carrying a reflexive,
antisymmetric, transitive relation.  Subsets are handled as bit-masks
wrapped in :class:`PointSet`.  The predicates defined here (causal
completeness, convergence, divergence, the crossing property) are the
raw material for the set algebra in :mod:`causalorder.algebra`.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import config
from .errors import (
    GroundSetTooLarge,
    InvalidReversal,
    NotAntisymmetric,
    NotReflexive,
    NotTransitive,
)

__all__ = [
    "Causality",
    "PointSet",
    "Direction",
    "ReversalMode",
    "OrderReversal",
    "CrossingResult",
    "validate_causality",
    "diamond",
    "incomplete_diamond",
    "is_causally_complete",
    "is_convergent",
    "is_divergent",
    "has_crossing_property",
    "reverse",
    "reverse_structure",
    "bits",
]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit indices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Direction(Enum):
    UPPER = "upper"
    LOWER = "lower"


class Causality:
    """A finite poset: ordered point identifiers plus one relation.

    Point i precedes point j iff bit j of row i is set.  Instances are
    immutable after construction, so all operations on them are pure.
    The order is kept once, as its rows packed by ``np.packbits(...,
    axis=1, bitorder="little")``; every other form of it, and the data
    derived from it, lives in the one dict ``_derived``, keyed by what
    each entry depends on:

    - ``"rows"``, the packed rows, made at construction;
    - ``"cover"``, the packed cover diagram: made by validation at
      construction, or from the rows on its first read when the order
      came certified (minkowski.induced_causality) and no product ran;
    - ``"succ"`` and ``"pred"``, the views behind :attr:`succ_masks` and
      :attr:`pred_masks`;
    - ``"crossing"``, the crossing verdict;
    - ``"reversed"``, the reversed structure (a weak reference in the
      reverse, back to its original);
    - ``"class_codes"``, the class code of every causal set;
    - ``("family", kind)``, each family as its ascending masks in one
      read-only uint64 array;
    - ``("laws", kind)``, a family's union-law counts, its count of
      member pairs with a superset, and its distributivity witness;
    - ``(a, b, kind)``, the finished answer of a causal union.

    Entries are data, never a report or a list handed to a caller, and
    each is made by _stored on its first read.  A validated cover is what
    validation returns.  :attr:`relation` is unpacked from the rows on
    each read and never stored.  ``_packed``, when given, holds the
    ``"rows"`` of an order known to be valid, with its ``"cover"`` if that
    is built, and ``relation`` is then not read: reverse_structure passes
    the transposes of the original's, and induced_causality the rows of a
    certified sprinkle.
    """

    def __init__(self, points: Sequence[str], relation, _packed: dict[str, np.ndarray] | None = None):
        if _packed is None:
            rel = _bool_matrix(relation)
            _packed = {"cover": validate_matrix(rel), "rows": _pack(rel)}
        pts = tuple(str(p) for p in points)
        if len(set(pts)) != len(pts):
            raise ValueError("point identifiers must be unique")
        if len(pts) != len(_packed["rows"]):
            raise ValueError("points and relation size disagree")
        self.points = pts
        self.index = {p: i for i, p in enumerate(pts)}
        self.full_mask = (1 << len(pts)) - 1
        self._derived: dict[object, object] = {key: _frozen(m) for key, m in _packed.items()}

    @property
    def relation(self) -> np.ndarray:
        """The order as a read-only n × n bool matrix: ``relation[i, j]``
        iff point i precedes point j.  Unpacked from the rows on each read,
        so a caller that reads it per cell binds it once."""
        return _frozen(_unpack(self._derived["rows"], self.n))

    # Every per-mask query reads the masks once per call, so a view already
    # made is read straight off the store; a miss, or the empty list of an
    # empty order, goes through _stored.

    @property
    def succ_masks(self) -> list[int]:
        """Row i as an int: bit j set iff point i precedes point j."""
        return self._derived.get("succ") or _stored(self, "succ", lambda c: _ints(c._derived["rows"]))

    @property
    def pred_masks(self) -> list[int]:
        """Column i as an int: bit j set iff point j precedes point i."""
        return self._derived.get("pred") or _stored(
            self, "pred", lambda c: _ints(_transpose(c._derived["rows"], c.n)))

    @property
    def n(self) -> int:
        return len(self.points)

    def leq(self, x: str, y: str) -> bool:
        """True iff point ``x`` precedes point ``y``."""
        j = self.index[y]
        return bool(self._derived["rows"][self.index[x], j >> 3] >> (j & 7) & 1)

    def mask_of(self, ids: Iterable[str]) -> int:
        m = 0
        for p in ids:
            m |= 1 << self.index[p]
        return m

    def ids_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.points[i] for i in bits(mask))

    def subset(self, ids: Iterable[str] = ()) -> "PointSet":
        return PointSet(self, self.mask_of(ids))

    def full_set(self) -> "PointSet":
        return PointSet(self, self.full_mask)

    def __repr__(self) -> str:
        return f"Causality({self.n} points)"


def _stored(c: Causality, key, build, *args):
    """The entry ``key`` of c's derived-data store, made as ``build(c,
    *args)`` on the first read.  Every entry is made here but the rows
    and a validated cover (Causality.__init__) and the reverse with its
    back-reference (reverse_structure).  causal_union, algebra._code_of,
    succ_masks and pred_masks read the store directly first: on that
    per-call path, reading a made entry calls nothing."""
    hit = c._derived.get(key)
    if hit is None:
        hit = c._derived[key] = build(c, *args)
    return hit


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only: the store's numpy entries are data that
    no caller may edit."""
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# The one boolean relation kernel: every product, closure and row mask
# ---------------------------------------------------------------------------

_BLOCK = 256  # rows per block of _compose; up to this size it is one product


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product of two n × n matrices: out[i, k] iff a[i, j] and
    b[j, k] for some j.  Exact at any size: a float sum of non-negative
    terms never falls back to 0.

    Past _BLOCK rows the product is taken in k × k blocks, in the order of
    one stable sort of ``a``'s column sums, and a block product a[I, J] @
    b[J, K] is skipped when either factor block is zero.  The result does
    not depend on the order: (PaPᵀ)(PbPᵀ) = P(ab)Pᵀ for any permutation P,
    and a skipped block adds only zeros.  The order sets the cost.  For a
    partial order, column j of the relation counts ↓j, and x < y implies
    ↓x ⊊ ↓y, so the sort is a linear extension and the sorted relation is
    upper triangular.  out[I, K] then needs only I ≤ J ≤ K, so the kernel
    runs k(k+1)(k+2)/6 of the k³ block products: 20 of 64 at n = 1000.
    """
    n = len(a)
    k = -(-n // _BLOCK)
    if k <= 1:
        return (a.astype(np.float32) @ b.astype(np.float32)) > 0
    order = np.argsort(np.count_nonzero(a, axis=0), kind="stable")
    cuts = [n * i // k for i in range(k + 1)]
    spans = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    def blocks(m: np.ndarray) -> list[list[np.ndarray | None]]:
        """m sorted, as float32 blocks, with None for a zero block."""
        m = m[order][:, order]
        return [[m[r, c].astype(np.float32) if m[r, c].any() else None
                 for c in spans] for r in spans]

    fa = blocks(a)
    fb = fa if b is a else blocks(b)
    out = np.zeros((n, n), dtype=bool)
    for bi, r in enumerate(spans):
        for bk, c in enumerate(spans):
            acc = None
            for x, row in zip(fa[bi], fb):  # a[I, J] and b[J, :]
                if x is None or row[bk] is None:
                    continue
                if acc is None:
                    acc = x @ row[bk]
                else:
                    acc += x @ row[bk]
            if acc is not None:
                np.greater(acc, 0, out=out[r, c])
    back = np.argsort(order)
    return out.take(back, 0).take(back, 1)  # C order, unlike out[back][:, back]


def _closure(rel: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by repeated squaring."""
    closed = rel | np.eye(len(rel), dtype=bool)
    while True:
        squared = _compose(closed, closed)
        if np.array_equal(squared, closed):
            return closed
        closed = squared


def _cover_of(c: Causality) -> np.ndarray:
    """The packed cover diagram strict & ~(strict∘strict) of c's order,
    made from its rows: the store's ``"cover"`` when no validation kept
    one."""
    strict = _unpack(c._derived["rows"], c.n)
    np.fill_diagonal(strict, False)
    return _frozen(_pack(strict & ~_compose(strict, strict)))


def _pack(rel: np.ndarray) -> np.ndarray:
    """The rows of a bool matrix packed to one bit per cell, bit j of row
    i as bit j & 7 of byte j >> 3: the form the store keeps."""
    return np.packbits(rel, axis=1, bitorder="little")


def _ints(packed: np.ndarray) -> list[int]:
    """Each packed row as an int, bit j set iff bit j of the row is."""
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """The n × n bool matrix whose rows are ``packed``."""
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _transpose(packed: np.ndarray, n: int) -> np.ndarray:
    """The packed rows of the transpose of the n × n matrix whose rows are
    ``packed``.  The transpose is copied to C order before packing: 0.8 ms
    against 3.5 ms for the strided view at n = 1000."""
    return _pack(np.ascontiguousarray(_unpack(packed, n).T))


def _bool_matrix(relation) -> np.ndarray:
    """``relation`` as a square bool matrix.  A bool array is taken as it
    is.  Any other must hold only 0 and 1: ValueError names its first
    other entry in row-major order, by its Python value, as a file's
    relation does."""
    rel = np.asarray(relation)
    if rel.ndim != 2 or rel.shape[0] != rel.shape[1]:
        raise ValueError("relation must be a square matrix")
    bad = [] if rel.dtype == bool else np.argwhere((rel != 0) & (rel != 1))
    if len(bad):
        i, j = bad[0].tolist()
        raise ValueError(f"relation entry ({i}, {j}) is {rel.item(i, j)!r}, not 0 or 1")
    return rel.astype(bool, copy=False)


def validate_matrix(relation: np.ndarray) -> np.ndarray:
    """Check the shape and the 0/1 rule (_bool_matrix), then the poset
    axioms, raising with a witness on the first failure; return the cover
    diagram strict & ~(strict∘strict), rows packed by
    ``np.packbits(..., axis=1, bitorder="little")``.

    Antisymmetry is read off the same product, with no transposed pass:
    square[i, i] holds iff strict[i, j] and strict[j, i] for some j, so
    the diagonal of square is clear iff no pair is symmetric.  Only a
    failure builds strict & strict.T, to name the first symmetric pair in
    row-major order.  Transitivity is checked next, as strict∘strict ⊆
    rel.  rel is reflexive by then, so rel∘rel = rel ∪ strict∘strict: the
    same cells are missing, and for a missing (i, k) no j in {i, k} has
    rel[i, j] and rel[j, k].
    """
    rel = _bool_matrix(relation)
    diag = np.diagonal(rel)
    if not diag.all():
        raise NotReflexive(int(np.flatnonzero(~diag)[0]))
    strict = rel.copy()
    np.fill_diagonal(strict, False)
    square = _compose(strict, strict)
    if np.diagonal(square).any():
        i, j = np.argwhere(strict & strict.T)[0]
        raise NotAntisymmetric(int(i), int(j))
    missing = square & ~rel
    if missing.any():
        i, k = np.argwhere(missing)[0]
        j = int(np.flatnonzero(rel[i, :] & rel[:, k])[0])
        raise NotTransitive(int(i), j, int(k))
    return _pack(strict & ~square)


def validate_causality(points: Sequence[str], relation) -> Causality:
    """Build a :class:`Causality`, checking the poset axioms first.

    Raises :class:`NotReflexive`, :class:`NotAntisymmetric` or
    :class:`NotTransitive` with a witness tuple of indices.
    """
    return Causality(points, relation)  # which validates, then keeps the cover


class PointSet:
    """A subset of one causality's ground set, stored as a bit-mask.

    An immutable value, equal to a PointSet of the same parent object and
    mask and hashed alike.  Slotted, with read-only properties, as every
    public query builds one; algebra's per-call queries read the slots.
    """

    __slots__ = ("_parent", "_mask")

    def __init__(self, parent: Causality, mask: int):
        if mask & ~parent.full_mask:  # negative masks included
            raise ValueError("membership mask exceeds the ground set")
        self._parent = parent
        self._mask = mask

    parent = property(operator.attrgetter("_parent"))
    mask = property(operator.attrgetter("_mask"))

    def __eq__(self, other):
        if type(other) is not PointSet:
            return NotImplemented
        return self._parent is other._parent and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self._parent, self._mask))

    def ids(self) -> tuple[str, ...]:
        return self.parent.ids_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, point: str) -> bool:
        return bool(self.mask >> self.parent.index[point] & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids())

    def _check_parent(self, other: "PointSet") -> None:
        if other.parent is not self.parent:
            raise ValueError("point sets belong to different causalities")

    def __and__(self, other: "PointSet") -> "PointSet":
        self._check_parent(other)
        return PointSet(self.parent, self.mask & other.mask)

    def __or__(self, other: "PointSet") -> "PointSet":
        self._check_parent(other)
        return PointSet(self.parent, self.mask | other.mask)

    def __sub__(self, other: "PointSet") -> "PointSet":
        self._check_parent(other)
        return PointSet(self.parent, self.mask & ~other.mask)

    def issubset(self, other: "PointSet") -> bool:
        self._check_parent(other)
        return not (self.mask & ~other.mask)

    def __repr__(self) -> str:
        return "PointSet{" + ",".join(self.ids()) + "}"


def _require_owner(c: Causality, *objs) -> None:
    """Raise ValueError, before any work, unless each of ``objs`` (point
    sets or measures) has ``c`` as its parent."""
    for obj in objs:
        if obj.parent is not c:
            what = "point set" if isinstance(obj, PointSet) else "measure"
            raise ValueError(f"{what} does not belong to this causality")


# ---------------------------------------------------------------------------
# Diamonds
# ---------------------------------------------------------------------------

def diamond(c: Causality, x: str, y: str) -> PointSet:
    """All points z with x <= z <= y.  May be empty; diamond(x, x) = {x}."""
    return PointSet(c, c.succ_masks[c.index[x]] & c.pred_masks[c.index[y]])


def incomplete_diamond(c: Causality, x: str, direction: Direction) -> PointSet:
    """The full causal past (UPPER) or future (LOWER) of a point.

    UPPER returns {z : z <= x}, LOWER returns {z : x <= z}; both contain x.
    """
    return PointSet(c, _rows_cones(c, direction)[1][c.index[x]])


# ---------------------------------------------------------------------------
# Completeness / convergence / divergence of one subset: the per-mask
# classifier of causalorder.algebra
# ---------------------------------------------------------------------------

def complete_mask(c: Causality, mask: int) -> bool:
    """↓S ∩ ↑S = S: the points below some member and above some member are
    the union of the diamonds between members, which contains S."""
    down = up = 0
    preds, succs = c.pred_masks, c.succ_masks
    for x in bits(mask):
        down |= preds[x]
        up |= succs[x]
    return down & up == mask


def vertex_bit(c: Causality, mask: int, direction: Direction) -> int:
    """The bit of the member of ``mask`` above (UPPER) or below (LOWER)
    every member, or 0 when there is none.

    This is the vertex test.  A finite S is convergent (each unrelated pair
    has a common upper bound in S) iff it is empty or has a greatest
    member: take m maximal in S; a member x unrelated to m would need a
    bound u >= m in S, so u = m and x <= m after all.  Divergence is the
    dual, with a least member.
    """
    rows = c.succ_masks if direction is Direction.UPPER else c.pred_masks
    common = mask
    for x in bits(mask):
        common &= rows[x]
        if not common:
            break
    return common


def _rows_cones(c: Causality, side: Direction) -> tuple[list[int], list[int]]:
    """Each point's masks toward ``side`` and its cones back from it:
    (succ_masks, pred_masks) for UPPER, (pred_masks, succ_masks) for LOWER."""
    return (c.succ_masks, c.pred_masks) if side is Direction.UPPER else (c.pred_masks, c.succ_masks)


def _bound_meet(c: Causality, x: int, side: Direction) -> tuple[int, int, int]:
    """The join kernel, for the points of mask x and one side (UPPER or
    LOWER): (bounds, meet, reach).

    ``bounds`` holds the common bounds of x on that side (UPPER: every q
    above all of x), ``meet`` is the AND of their cones back toward x (↓q
    for UPPER), and ``reach`` is the cone of x away from the side (↑x for
    UPPER).  The bounds have a least element (UPPER; greatest for LOWER),
    the join of x, iff it lies in ``meet``; ``meet`` is then its cone.
    The causal union, its tables and the crossing scan all read it.
    """
    rows, cones = _rows_cones(c, side)
    bounds, reach = c.full_mask, 0
    for i in bits(x):
        bounds &= rows[i]
        reach |= rows[i]
    meet = c.full_mask
    for q in bits(bounds):
        meet &= cones[q]
    return bounds, meet, reach


def is_causally_complete(c: Causality, u: PointSet) -> bool:
    """True iff every diamond between members of ``u`` lies inside ``u``."""
    _require_owner(c, u)
    return complete_mask(c, u.mask)


def is_convergent(c: Causality, u: PointSet) -> bool:
    """True iff every unrelated pair in ``u`` has a common upper bound in
    ``u``: iff ``u`` is empty or has a greatest member (see vertex_bit)."""
    _require_owner(c, u)
    return u.mask == 0 or vertex_bit(c, u.mask, Direction.UPPER) != 0


def is_divergent(c: Causality, u: PointSet) -> bool:
    """True iff every unrelated pair in ``u`` has a common lower bound in
    ``u``: iff ``u`` is empty or has a least member (see vertex_bit)."""
    _require_owner(c, u)
    return u.mask == 0 or vertex_bit(c, u.mask, Direction.LOWER) != 0


# ---------------------------------------------------------------------------
# Crossing property
# ---------------------------------------------------------------------------

def _unrelated_pairs(c: Causality) -> Iterator[tuple[int, int]]:
    """The index pairs x < y of unrelated points, in row-major order."""
    for x, (up, down) in enumerate(zip(c.succ_masks, c.pred_masks)):
        for y in bits(c.full_mask & ~((2 << x) - 1 | up | down)):
            yield x, y


@dataclass(frozen=True)
class CrossingResult:
    holds: bool
    witness: tuple[str, str, str, str] | None = None

    def __bool__(self) -> bool:
        return self.holds


def has_crossing_property(c: Causality) -> CrossingResult:
    """Scan all quadruples x, y <= z, w with x, y unrelated.

    For each, at least one of the diamond pairs C[x,z] & C[y,w] or
    C[x,w] & C[y,z] must intersect.  z and w range over ordered pairs
    including z = w.  Returns the first failing witness, if any: pairs
    x < y in point order, then z, then w.

    Both intersections are the same set, the points p with x, y <= p and
    p <= z, w.  So the property says that the common upper bounds U of
    each unrelated pair are downward directed: any two members of U have
    a common lower bound in U.  A finite U is downward directed iff it
    is empty or has a least member, the join of x and y: a least member
    is a common lower bound of any two; conversely take m minimal in U,
    and for u in U a common lower bound of m and u in U is m itself, so
    m <= u.  So a pair fails iff it has common upper bounds but no join:
    _bound_meet's meet then holds none of the bounds, and the convergent
    causal union of {x} and {y} raises NotClosed.  The witness is then the
    first pair z, w of bounds with no common lower bound in U.

    The property is self-dual: it holds iff every unrelated pair a, b
    with a common lower bound has a meet.  Take x maximal among the
    common lower bounds L of a and b.  A bound y in L with y ≰ x is
    unrelated to x (x < y would contradict maximality), and a and b are
    common upper bounds of x and y.  So their join j exists, lies below
    a and b, and is in L above x, and j ≠ x since y ≤ j: against the
    choice of x.  So x is the greatest member of L, the meet.  The
    converse is the same argument in the reversed order.  So one scan
    decides both, and algebra.verify_algebra_axioms reads its four
    closure verdicts and all their counterexamples off this stored
    result (proofs in algebra.intersect_causal and there).
    """
    return _stored(c, "crossing", _crossing_scan)


def _crossing_scan(c: Causality) -> CrossingResult:
    """has_crossing_property's scan: one join-kernel call per unrelated pair."""
    if c.n > config.MATRIX_CAP:
        raise GroundSetTooLarge(c.n, config.MATRIX_CAP, "crossing-property scan")
    for x, y in _unrelated_pairs(c):
        bounds, meet, _ = _bound_meet(c, 1 << x | 1 << y, Direction.UPPER)
        if bounds and not meet & bounds:
            preds = c.pred_masks
            z, w = next((z, w) for z in bits(bounds) for w in bits(bounds)
                        if not bounds & preds[z] & preds[w])
            return CrossingResult(False, tuple(c.points[i] for i in (x, y, z, w)))
    return CrossingResult(True)


# ---------------------------------------------------------------------------
# Order reversal
# ---------------------------------------------------------------------------

class ReversalMode(Enum):
    STRUCTURAL = "structural"
    POINT_MAP = "point_map"


@dataclass(frozen=True)
class OrderReversal:
    """Either the structural reversal (identity on points, relation
    transposed) or an order-reversing involution of the points of the
    causality it was validated on."""

    mode: ReversalMode
    mapping: tuple[int, ...] | None = None
    causality: Causality | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def structural() -> "OrderReversal":
        return OrderReversal(ReversalMode.STRUCTURAL)

    @staticmethod
    def point_map(c: Causality, mapping: dict[str, str]) -> "OrderReversal":
        """Validate ``mapping`` as an order-reversing involution on ``c``."""
        perm = [None] * c.n
        for src, dst in mapping.items():
            for p in (src, dst):
                if p not in c.index:
                    raise InvalidReversal(f"mapping names unknown point {p!r}")
            perm[c.index[src]] = c.index[dst]
        if any(v is None for v in perm):
            raise InvalidReversal("mapping must cover every point")
        perm = tuple(perm)
        for i, j in enumerate(perm):
            if perm[j] != i:
                raise InvalidReversal(
                    f"mapping is not an involution at {c.points[i]}"
                )
        # the first cell in row-major order where rel[perm[i], perm[j]] != rel[j, i]
        rel = c.relation
        bad = np.argwhere(rel[np.ix_(perm, perm)] != rel.T)
        if len(bad):
            i, j = bad[0]
            raise InvalidReversal(f"mapping does not reverse the order at ({c.points[i]}, {c.points[j]})")
        return OrderReversal(ReversalMode.POINT_MAP, perm, c)


def reverse_structure(c: Causality) -> Causality:
    """The same points under the transposed relation.  Cached; the reverse
    of the reverse is the original object while that object lives.

    The reverse refers back to the original through a weak reference, so
    the pair forms no cycle and a finished causality is freed at once,
    without waiting for the cyclic garbage collector.  It is not validated
    again: its rows are the transposes of the original's, and so is its
    cover diagram when the original's is built; a cover not yet built is
    not built here."""
    rev = c._derived.get("reversed")
    if type(rev) is weakref.ref:
        rev = rev()
    if rev is None:
        packed = {key: _transpose(c._derived[key], c.n) for key in ("cover", "rows") if key in c._derived}
        rev = c._derived["reversed"] = Causality(c.points, None, packed)
        rev._derived["reversed"] = weakref.ref(c)
    return rev


def reverse(c: Causality, reversal: OrderReversal, u: PointSet) -> PointSet:
    """Image of ``u`` under the reversal.

    Structural mode returns the same membership living in the reversed
    causality; point-map mode returns the mapped subset of the original.
    The empty set maps to the empty set in both modes.  A point map
    validated on another causality is rejected.
    """
    _require_owner(c, u)
    if reversal.mode is ReversalMode.STRUCTURAL:
        return PointSet(reverse_structure(c), u.mask)
    if reversal.causality is not c:
        raise ValueError("reversal does not belong to this causality")
    return c.subset(c.points[reversal.mapping[i]] for i in bits(u.mask))
