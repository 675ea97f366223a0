"""Reference computations the output checks rely on.

Nothing here imports ``causalorder``: every expected answer is computed
from the definitions with plain numpy, so no change to the library can
move an input or an expected output.  Widths are explicit: path counts
are float64 (exact below 2^53) and subset masks are uint64 (n <= 24 is
checked where they are built).
"""

from __future__ import annotations

import math
import re

import numpy as np

BLOCK = 64  # rows per block where an n x n float64 array would be needed

# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def uniform_events(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """``n`` events uniform in the unit box of (dim+1)-dimensional
    Minkowski space, time first."""
    return rng.uniform(0.0, 1.0, size=(n, dim + 1))


def minkowski_relation(events) -> np.ndarray:
    """x <= y iff y lies in the closed future cone of x.  Built in row
    blocks, so its float64 temporaries stay a few hundred KB at n = 1000."""
    ev = np.asarray(events, dtype=float)
    rel = np.empty((ev.shape[0], ev.shape[0]), dtype=bool)
    for lo in range(0, ev.shape[0], BLOCK):
        x = ev[lo:lo + BLOCK]
        dt = ev[None, :, 0] - x[:, None, 0]
        sq = dt * dt
        for k in range(1, ev.shape[1]):
            dk = ev[None, :, k] - x[:, None, k]
            sq -= dk * dk
        rel[lo:lo + BLOCK] = (sq >= 0) & (dt >= 0)
    return rel


def grid_relation(nu: int, nv: int) -> tuple[list[str], np.ndarray]:
    """Product order on {0..nu-1} x {0..nv-1}, ids "uv"."""
    cells = [(u, v) for u in range(nu) for v in range(nv)]
    u = np.array([c[0] for c in cells])
    v = np.array([c[1] for c in cells])
    rel = (u[:, None] <= u[None, :]) & (v[:, None] <= v[None, :])
    return [f"{a}{b}" for a, b in cells], rel


def non_transitive_258() -> tuple[list[str], np.ndarray]:
    """n = 258: 0 <= j <= 257 for the 256 middle points j, but not 0 <= 257.

    Exactly 256 two-step paths join 0 to 257, so a path count kept in
    uint8 wraps to 0 and misses the violation."""
    n = 258
    rel = np.eye(n, dtype=bool)
    rel[0, 1:n - 1] = True
    rel[1:n - 1, n - 1] = True
    return [f"p{i}" for i in range(n)], rel


# ---------------------------------------------------------------------------
# Orders: float64 path counts
# ---------------------------------------------------------------------------


def two_step_paths(rel: np.ndarray, strict: bool):
    """(first row, float64 counts of two-step paths from each row of the
    block), block by block."""
    r = np.asarray(rel, dtype=bool)
    if strict:
        r = r & ~np.eye(r.shape[0], dtype=bool)
    f = r.astype(np.float64)
    for lo in range(0, f.shape[0], BLOCK):
        yield lo, f[lo:lo + BLOCK] @ f


def order_defect(rel: np.ndarray) -> str | None:
    """None for a partial order, else the first axiom that fails."""
    rel = np.asarray(rel, dtype=bool)
    n = rel.shape[0]
    if rel.shape != (n, n):
        return "not square"
    if not np.diagonal(rel).all():
        return "not reflexive"
    if (rel & rel.T & ~np.eye(n, dtype=bool)).any():
        return "not antisymmetric"
    for lo, paths in two_step_paths(rel, strict=False):
        if ((paths > 0) & ~rel[lo:lo + BLOCK]).any():
            return "not transitive"
    return None


def cover_pairs(points, rel: np.ndarray) -> set[tuple[str, str]]:
    """The cover diagram: x < y with no two-step path between them."""
    strict = np.asarray(rel, dtype=bool) & ~np.eye(len(points), dtype=bool)
    out = set()
    for lo, paths in two_step_paths(rel, strict=True):
        cov = strict[lo:lo + BLOCK] & (paths == 0)
        out.update((points[lo + i], points[j]) for i, j in np.argwhere(cov))
    return out


_DOT_EDGE = re.compile(r'^\s*"([^"]*)" -> "([^"]*)";$')


def dot_edges(text: str) -> set[tuple[str, str]]:
    return {m.groups() for m in map(_DOT_EDGE.match, text.splitlines()) if m}


# ---------------------------------------------------------------------------
# Subset classification (the 2^n table, vectorized and chunked)
# ---------------------------------------------------------------------------

CONVERGENT, DIVERGENT = 1, 2  # class-code bits, as in SetClass values
KINDS = ("convergent", "divergent")
DUAL = {"convergent": "divergent", "divergent": "convergent"}
OK, NO_SUPERSET, NOT_CLOSED = 0, 1, 2  # union status codes
STATUS = ("ok", "no_superset", "not_closed")
ALL = np.uint64(2**64 - 1)


def index_in(sorted_masks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Position of each x in the ascending ``sorted_masks``, -1 if absent."""
    if sorted_masks.size == 0:
        return np.full(np.shape(x), -1)
    pos = np.minimum(np.searchsorted(sorted_masks, x), sorted_masks.size - 1)
    return np.where(sorted_masks[pos] == x, pos, -1)


def _or_table(rows: list[int]) -> np.ndarray:
    """t[m] = OR of rows[i] over the set bits i of m, for all m < 2^len."""
    t = np.zeros(1 << len(rows), dtype=np.uint64)
    for i, r in enumerate(rows):
        t[1 << i:2 << i] = t[:1 << i] | np.uint64(r)
    return t


class ClassTable:
    """Class codes of every subset of one finite order.

    A subset S is complete iff up(S) & down(S) == S; complete sets are
    kept with their codes (bit 0: every unrelated pair has a common upper
    bound in S; bit 1: a common lower bound).  Every other subset has
    code 0.  Peak memory is a few 2^14-entry arrays whatever n is.
    """

    def __init__(self, rel: np.ndarray):
        rel = np.asarray(rel, dtype=bool)
        n = rel.shape[0]
        if n > 24:
            raise ValueError(f"the subset scan is 2^n; n = {n} is too large")
        self.n = n
        self.succ = [int(sum(1 << j for j in np.flatnonzero(rel[i]))) for i in range(n)]
        self.pred = [int(sum(1 << i for i in np.flatnonzero(rel[:, j]))) for j in range(n)]
        low = min(n, 14)
        up_lo, dn_lo = _or_table(self.succ[:low]), _or_table(self.pred[:low])
        up_hi, dn_hi = _or_table(self.succ[low:]), _or_table(self.pred[low:])
        base = np.arange(1 << low, dtype=np.uint64)
        complete = []
        for h in range(1 << (n - low)):
            s = base | np.uint64(h << low)
            closed = (up_lo | up_hi[h]) & (dn_lo | dn_hi[h])
            complete.append(s[closed == s])
        masks = np.concatenate(complete)
        conv_bad = np.zeros(masks.size, dtype=bool)
        div_bad = np.zeros(masks.size, dtype=bool)
        for x in range(n):
            for y in range(x + 1, n):
                if rel[x, y] or rel[y, x]:
                    continue
                both = ((masks >> np.uint64(x)) & (masks >> np.uint64(y)) & np.uint64(1)) == 1
                above = np.uint64(self.succ[x] & self.succ[y])
                below = np.uint64(self.pred[x] & self.pred[y])
                conv_bad |= both & ((masks & above) == 0)
                div_bad |= both & ((masks & below) == 0)
        self.masks = masks  # ascending
        self.codes = np.where(conv_bad, 0, CONVERGENT) | np.where(div_bad, 0, DIVERGENT)
        self._code = dict(zip(masks.tolist(), self.codes.tolist()))

    def code(self, mask: int) -> int:
        return self._code.get(mask, 0)

    def family(self, kind: str) -> np.ndarray:
        """Ascending masks of one family: "convergent", "divergent",
        "both", "strictly_convergent" or "strictly_divergent"."""
        c = self.codes
        sel = {
            "convergent": (c & CONVERGENT) != 0,
            "divergent": (c & DIVERGENT) != 0,
            "both": c == 3,
            "strictly_convergent": c == CONVERGENT,
            "strictly_divergent": c == DIVERGENT,
        }[kind]
        return self.masks[sel]

    def in_kind(self, mask: int, kind: str) -> bool:
        code = self.code(mask)
        bit = CONVERGENT if kind == "convergent" else DIVERGENT
        return bool(code & bit) if kind in ("convergent", "divergent") else code == 3

    def union(self, a: int, b: int, kind: str) -> tuple[str, int]:
        """The causal union by its definition: the intersection of every
        kind-superset of a | b, as ("ok" | "no_superset" | "not_closed", mask)."""
        status, mask = self.unions(np.array([a], dtype=np.uint64),
                                   np.array([b], dtype=np.uint64), kind)
        return STATUS[int(status[0])], int(mask[0])

    def unions(self, a: np.ndarray, b: np.ndarray, kind: str):
        """:meth:`union` of a[i] and b[i] for every i, as (status code,
        mask) arrays; the status codes index :data:`STATUS`."""
        fam = self.family(kind)
        status = np.full(a.size, NO_SUPERSET, dtype=np.int8)
        mask = np.zeros(a.size, dtype=np.uint64)
        step = max(1, (1 << 16) // max(fam.size, 1))
        for lo in range(0, a.size, step):
            t = (a[lo:lo + step] | b[lo:lo + step])[:, None]
            sup = (fam[None, :] & t) == t
            inter = np.bitwise_and.reduce(np.where(sup, fam[None, :], ALL), axis=1)
            some = sup.any(axis=1)
            closed = index_in(fam, inter) >= 0
            status[lo:lo + step] = np.where(some, np.where(closed, OK, NOT_CLOSED), NO_SUPERSET)
            mask[lo:lo + step] = np.where(some, inter, 0)
        return status, mask

    def ribbon_pairs(self, p: int) -> int:
        """Strictly convergent A and strictly divergent B with A & B = {p}."""
        bit = np.uint64(1 << p)
        ups = self.family("strictly_convergent")
        downs = self.family("strictly_divergent")
        ups = ups[(ups & bit) != 0]
        downs = downs[(downs & bit) != 0]
        return int(((ups[:, None] & downs[None, :]) == bit).sum())


def distributivity_fails(table: ClassTable, law: str, kind: str, a: int, b: int, c: int) -> bool:
    """Re-evaluate a reported IV or V counterexample on the oracle.

    IV: c & (a u b) != (c & a) u (c & b);  V: a u (b & c) != (a u b) & (a u c),
    where u is the causal union of ``kind``, every operand and intersection
    that is united lies in the family, and every union is defined."""
    def u(x, y):
        status, m = table.union(x, y, kind)
        ok = status == "ok" and table.in_kind(x, kind) and table.in_kind(y, kind)
        return m if ok else None

    if law == "IV":
        ab, ca_cb = u(a, b), u(c & a, c & b)
        return table.in_kind(c, kind) and None not in (ab, ca_cb) and (c & ab) != ca_cb
    bc, ab, ac = u(a, b & c), u(a, b), u(a, c)
    return None not in (bc, ab, ac) and bc != (ab & ac)


class UnionTable:
    """Causal unions of every pair of one family, from :meth:`ClassTable.unions`.

    ``index[i, j]`` is the family position of the union of members i and j
    (-1 where it is undefined) and ``mask[i, j]`` its mask (0 there);
    ``meet[i, j]`` is the position of the plain intersection (-1 where it
    leaves the family)."""

    def __init__(self, table: ClassTable, kind: str):
        self.fam = fam = table.family(kind)
        f = fam.size
        self.a, self.b = np.repeat(fam, f), np.tile(fam, f)
        status, mask = table.unions(self.a, self.b, kind)
        self.status = status.reshape(f, f)
        self.mask = mask.reshape(f, f)
        self.index = np.where(self.status == OK, index_in(fam, self.mask), -1)
        self.meet = index_in(fam, fam[:, None] & fam[None, :])


def _at(index: np.ndarray, rows, cols) -> np.ndarray:
    """index[rows, cols] where both are defined (>= 0), else -1."""
    rows, cols = np.broadcast_arrays(rows, cols)
    ok = (rows >= 0) & (cols >= 0)
    return np.where(ok, index[np.maximum(rows, 0), np.maximum(cols, 0)], -1)


def union_law_verdicts(table: ClassTable, reverse: ClassTable, kind: str) -> dict[str, bool]:
    """Whether each of the union laws I-VI holds over one family, from the
    definitions; a triple with an undefined union or with an intersection
    outside the family is outside the law.  ``reverse`` is the class table
    of the reversed order.

    I    A, B lie in A u B               II   A u A = A
    III  (A u B) u C = A u (B u C)       IV   C & (A u B) = (C & A) u (C & B)
    V    A u (B & C) = (A u B) & (A u C)
    VI   A u B is the same set as the union of the dual kind over the reversed order
    """
    t = UnionTable(table, kind)
    fam, u, m, meet = t.fam, t.index, t.mask, t.meet
    f = fam.size
    ok = u >= 0
    holds = {
        "I": not (ok & (((fam[:, None] | fam[None, :]) & ~m) != 0)).any(),
        "II": not (np.diagonal(ok) & (np.diagonal(u) != np.arange(f))).any(),
        "III": True, "IV": True, "V": True,
    }
    cols = np.arange(f)[None, :]
    for i in range(f):
        left, right = _at(u, u[i][:, None], cols), _at(u, i, u)
        holds["III"] &= not ((left >= 0) & (right >= 0) & (left != right)).any()
        # IV with C = member i: rhs is defined only where both meets are members
        ci = meet[i]
        rhs = _at(u, ci[:, None], ci[None, :])
        bad = ok & (rhs >= 0) & ((fam[i] & m) != fam[np.maximum(rhs, 0)])
        holds["IV"] &= not bad.any()
        # V with A = member i
        lhs = _at(u, i, meet)
        both = ok[i][:, None] & ok[i][None, :]
        bad = (lhs >= 0) & both & (fam[np.maximum(lhs, 0)] != (m[i][:, None] & m[i][None, :]))
        holds["V"] &= not bad.any()
    status, mask = reverse.unions(t.a, t.b, DUAL[kind])
    same = (status == t.status.ravel()) & ((status != OK) | (mask == t.mask.ravel()))
    holds["VI"] = bool(same.all())
    return holds


def law_verdicts(rel: np.ndarray) -> dict[str, str]:
    """Expected verdict ("holds" or "fails") of the crossing property, of
    the union laws I-VI of both families and of the algebra axioms, by law
    name as the library reports them (``"III[divergent]"``)."""
    table, reverse = ClassTable(rel), ClassTable(np.asarray(rel).T)
    holds = {"crossing-property": crossing_holds(rel),
             "empty-set-in-both": table.code(0) == 3,
             "singletons-in-both": all(table.code(1 << i) == 3 for i in range(table.n)),
             "reversal-swaps-families": all(
                 np.array_equal(table.family(k), reverse.family(DUAL[k])) for k in KINDS),
             "reversal-fixes-empty-set": True,
             "reversal-commutes-with-meet-join": True}
    for kind in KINDS:
        for law, ok in union_law_verdicts(table, reverse, kind).items():
            holds[f"{law}[{kind}]"] = ok
        t = UnionTable(table, kind)
        holds[f"intersection-closure[{kind}]"] = bool((t.meet >= 0).all())
        holds[f"causal-union-closure[{kind}]"] = not (t.status == NOT_CLOSED).any()
    holds["union-laws"] = all(v for k, v in holds.items() if k.split("[")[0] in
                              ("I", "II", "III", "IV", "V", "VI"))
    return {law: "holds" if ok else "fails" for law, ok in holds.items()}


def crossing_holds(rel: np.ndarray) -> bool:
    """For all unrelated x, y and common upper bounds z, w (z = w allowed),
    the diamonds [x, z] and [y, w], or [x, w] and [y, z], intersect."""
    rel = np.asarray(rel, dtype=bool)
    n = rel.shape[0]
    if n > 24:
        raise ValueError(f"the crossing scan holds n^4 counts; n = {n} is too large")
    # diamonds[x, z] = the points p with x <= p <= z
    diamonds = (rel[:, None, :] & rel.T[None, :, :]).reshape(n * n, n).astype(np.float64)
    common = (diamonds @ diamonds.T).reshape(n, n, n, n)  # |[x, z] & [y, w]| at [x, z, y, w]
    for x in range(n):
        for y in range(x + 1, n):
            if rel[x, y] or rel[y, x]:
                continue
            ups = np.flatnonzero(rel[x] & rel[y])
            straight = common[x][np.ix_(ups, [y], ups)][:, 0, :]
            if ((straight == 0) & (straight.T == 0)).any():
                return False
    return True


def horizon_entropy(t: float, alpha: float) -> float:
    """alpha * 4 pi t^2: the cut slice of a future cone from the origin."""
    return alpha * 4.0 * math.pi * t * t


def mc_tolerance(samples: int, shell: float = 0.05) -> float:
    """Relative error allowed for the Monte-Carlo slice area: six standard
    errors of the shell hit count plus the shell's e^2/12 bias.  The
    estimator samples the cube of side 2(r + e) around a shell of width
    e = shell * r."""
    p = 4 * math.pi * shell / (2 * (1 + shell)) ** 3
    return 6 * math.sqrt((1 - p) / (samples * p)) + shell * shell / 12
