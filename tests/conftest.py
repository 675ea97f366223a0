"""Shared fixtures and naive set-based oracles.

The oracles re-implement the defining predicates over frozensets with no
bit-masks or caching, so they share nothing with the library's code paths
beyond the relation matrix itself.  The ``product_*`` and ``reference_*``
helpers are earlier library code paths, kept as the references for the
faster or proved paths that replaced them.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

import causalorder as co
from causalorder import antichain, chain, diamond4, grid, star5, validate_causality
from causalorder.algebra import (
    _NONE,
    _family_array,
    _index_in,
    _union_mask,
    _union_table,
)
from causalorder.order import validate_matrix
from causalorder.reconstruction import _cut_masks, _density_gap, _ribbon_masks, _strict_through


@pytest.fixture
def chain3():
    return chain(3)


@pytest.fixture
def d4():
    return diamond4()


@pytest.fixture
def l5():
    return star5()


@pytest.fixture
def l33():
    return grid(3, 3)


@pytest.fixture
def anti3():
    return antichain(3)


# A 7-point poset found by random search whose ribbon over v0 contains a
# pair with a cut admitting no ribboned refinement (density failure).
NOT_DENSE_7_RELATION = [
    [1, 0, 1, 1, 0, 1, 1],
    [0, 1, 1, 1, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 1],
    [0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 1],
]


@pytest.fixture
def not_dense_7():
    pts = [f"v{i}" for i in range(7)]
    return validate_causality(pts, np.array(NOT_DENSE_7_RELATION, dtype=bool))


# v0 below everything, v1 < v2 < v4 and v3 < v4.  Over v3 the ribbon pair
# ({v2, v3, v4}, {v0, v1, v3}) fails density only at cuts that are no
# chain: its first gap ({v2, v3}, {v1, v3}) is two unrelated pairs.
ANTICHAIN_GAP_5_RELATION = [
    [1, 1, 1, 1, 1],
    [0, 1, 1, 0, 1],
    [0, 0, 1, 0, 1],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1],
]


@pytest.fixture
def antichain_gap_5():
    pts = [f"v{i}" for i in range(5)]
    return validate_causality(pts, np.array(ANTICHAIN_GAP_5_RELATION, dtype=bool))


# Not naturally labelled.  Over v4 the ribbon pair ({v0, v1, v2, v4},
# {v3, v4, v5, v6}) has its first density gap ({v0, v1, v4}, {v4, v6})
# past the first cell ({v0, v1, v4}, {v3, v4, v5}), the two smallest cuts.
LATE_GAP_7_RELATION = [
    [1, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0],
    [1, 1, 1, 0, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 1],
    [1, 0, 0, 0, 1, 0, 0],
    [1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 0, 0, 0, 1],
]


@pytest.fixture
def late_gap_7():
    pts = [f"v{i}" for i in range(7)]
    return validate_causality(pts, np.array(LATE_GAP_7_RELATION, dtype=bool))


# ---------------------------------------------------------------------------
# Naive oracles
# ---------------------------------------------------------------------------

def oracle_leq(c):
    """The relation as a set of id pairs."""
    rel = c.relation  # unpacked on each read
    return {
        (c.points[i], c.points[j])
        for i in range(c.n)
        for j in range(c.n)
        if rel[i, j]
    }


def oracle_diamond(c, x, y):
    leq = oracle_leq(c)
    return frozenset(z for z in c.points if (x, z) in leq and (z, y) in leq)


def oracle_complete(c, u):
    u = frozenset(u)
    leq = oracle_leq(c)
    return all(
        z in u
        for x in u for y in u for z in c.points
        if (x, z) in leq and (z, y) in leq
    )


def _unrelated_pairs(c, u):
    leq = oracle_leq(c)
    return [
        (x, y)
        for x, y in combinations(sorted(u), 2)
        if (x, y) not in leq and (y, x) not in leq
    ]


def oracle_convergent(c, u):
    u = frozenset(u)
    leq = oracle_leq(c)
    return all(
        any((x, z) in leq and (y, z) in leq for z in u)
        for x, y in _unrelated_pairs(c, u)
    )


def oracle_divergent(c, u):
    u = frozenset(u)
    leq = oracle_leq(c)
    return all(
        any((z, x) in leq and (z, y) in leq for z in u)
        for x, y in _unrelated_pairs(c, u)
    )


# oracle_class answers per poset, keyed by the point ids and the
# relation's bytes (never by the Causality object, whose cached state is
# the library's), then by the subset
_ORACLE_CLASSES: dict[tuple, dict[frozenset, str]] = {}


def oracle_class(c, u):
    """Classification as a string, mirroring the four-way split.  Memoised
    per poset and subset: a pure function of the relation, the point ids
    and the subset."""
    known = _ORACLE_CLASSES.setdefault((c.points, c.relation.tobytes()), {})
    u = frozenset(u)
    if u not in known:
        known[u] = _oracle_class(c, u)
    return known[u]


def _oracle_class(c, u):
    if not oracle_complete(c, u):
        return "neither"
    conv, div = oracle_convergent(c, u), oracle_divergent(c, u)
    if conv and div:
        return "both"
    if conv:
        return "strictly_convergent"
    if div:
        return "strictly_divergent"
    return "neither"


def oracle_all_subsets(c):
    for r in range(c.n + 1):
        yield from (frozenset(s) for s in combinations(c.points, r))


def oracle_family(c, kind):
    """All subsets of the requested kind, as frozensets."""
    out = []
    for u in oracle_all_subsets(c):
        cls = oracle_class(c, u)
        if kind == "convergent" and cls in ("both", "strictly_convergent"):
            out.append(u)
        elif kind == "divergent" and cls in ("both", "strictly_divergent"):
            out.append(u)
        elif cls == kind:
            out.append(u)
    return out


def oracle_causal_union(c, a, b, kind, family=None):
    """Intersection of all kind-supersets, or None when no superset exists.
    ``family`` may pass in ``oracle_family(c, kind)`` computed once."""
    a, b = frozenset(a), frozenset(b)
    if family is None:
        family = oracle_family(c, kind)
    sups = [x for x in family if a | b <= x]
    if not sups:
        return None
    out = frozenset(c.points)
    for x in sups:
        out &= x
    return out


def oracle_ribbon(c, p, families=None):
    """The ribbon over p straight off the definition: every pair of a
    strictly convergent A and a strictly divergent B with A ∩ B = {p}, as
    frozenset pairs ascending by the bit-masks of (A, B).  ``families``
    may pass in the two strict oracle families computed once."""
    if families is None:
        families = (oracle_family(c, "strictly_convergent"),
                    oracle_family(c, "strictly_divergent"))
    ups, downs = families

    def mask(u):
        return sum(1 << c.index[x] for x in u)

    pairs = [(a, b) for a in ups for b in downs if a & b == {p}]
    return sorted(pairs, key=lambda ab: (mask(ab[0]), mask(ab[1])))


def oracle_crossing_witness(c):
    """The first failing quadruple (x, y, z, w) straight off the definition,
    in point order (x before y, then z, then w), or None."""
    leq = oracle_leq(c)
    pts = c.points
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            if (x, y) in leq or (y, x) in leq:
                continue
            uppers = [z for z in pts if (x, z) in leq and (y, z) in leq]
            for z in uppers:
                for w in uppers:
                    if not (
                        oracle_diamond(c, x, z) & oracle_diamond(c, y, w)
                        or oracle_diamond(c, x, w) & oracle_diamond(c, y, z)
                    ):
                        return (x, y, z, w)
    return None


def product_density_gap(c, ip, a, b):
    """The first (cut of a, cut of b), in ascending order, that no ribbon
    pair over point ip refines, or None, by one boolean product of
    (cuts × pairs) by (pairs × cuts).  The reference for the per-cut
    density test, which replaced this product."""
    strict = _strict_through(c, ip)
    cuts_a, cuts_b = _cut_masks(strict, ip, a), _cut_masks(strict, ip, b)
    upper, lower = _ribbon_masks(c, ip)
    sub_a = ((upper[None, :] & ~cuts_a[:, None]) == 0).astype(np.int64)
    sub_b = ((lower[None, :] & ~cuts_b[:, None]) == 0).astype(np.int64)
    bad = np.argwhere(sub_a @ sub_b.T == 0)
    if bad.size == 0:
        return None
    i, j = bad[0]
    return int(cuts_a[i]), int(cuts_b[j])


# ---------------------------------------------------------------------------
# Reconstruction as the paper builds it: the reference for the finite
# collapse, which reduced the library's reconstruction to a count
# ---------------------------------------------------------------------------

def reference_regularity(c, ip, density_gap=_density_gap):
    """(regular, empty, failing condition, witness as masks) of the
    ribbon over point ip by both conditions: density of every pair, by
    ``density_gap``, then condition 2 on every two pairs, with an
    undefined causal union counted as a failure."""
    upper, lower = _ribbon_masks(c, ip)
    pairs = list(zip(upper.tolist(), lower.tolist()))
    if not pairs:
        return True, True, None, None
    for a, b in pairs:
        gap = density_gap(c, ip, a, b)
        if gap is not None:
            return False, False, "density", ((a, b), *gap)
    bit = 1 << ip
    for i, (a, b) in enumerate(pairs):
        for cc, d in pairs[i:]:
            if (a | cc) & (b | d) != bit:
                continue
            u = _union_mask(c, a, cc, co.Kind.CONVERGENT)
            lo = _union_mask(c, b, d, co.Kind.DIVERGENT)
            if u is None or lo is None:
                return False, False, "undefined-union", ((a, b), (cc, d))
            if u & lo != bit:
                return False, False, "union-pair-meets-beyond-basepoint", ((a, b), (cc, d))
    return True, False, None, None


def reference_congruence_classes(c, p):
    """The congruence classes of the ribbon over p, as tuples of mask
    pairs, by union-find over every two pairs; NotRegular for an
    irregular ribbon and TheoremViolation past two classes."""
    ip = c.index[p]
    regular, _, failing, _ = reference_regularity(c, ip)
    if not regular:
        raise co.NotRegular(f"ribbon over {p} is not regular: {failing}")
    pairs = co.ribbon(c, p).pairs
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if find(i) != find(j) and co.congruent(c, p, pairs[i], pairs[j]):
                parent[find(i)] = find(j)
    groups = {}
    for i, pair in enumerate(pairs):
        groups.setdefault(find(i), []).append(pair.masks())
    classes = tuple(tuple(g) for g in groups.values())
    if len(classes) > 2:
        raise co.TheoremViolation(f"regular ribbon over {p} produced {len(classes)} congruence classes")
    return classes


def _statement_one(c, alpha, gamma):
    """For all (A,B) in alpha and (C,D) in gamma, the mixed pairs
    (A ∪c C, D) and (A, B ∪c D) land back in gamma and alpha."""
    for a, b in alpha:
        for cc, d in gamma:
            u = _union_mask(c, a, cc, co.Kind.CONVERGENT)
            if u is None or (u, d) not in gamma:
                return False
            lo = _union_mask(c, b, d, co.Kind.DIVERGENT)
            if lo is None or (a, lo) not in alpha:
                return False
    return True


def reference_assert_partial_order(rel, domain):
    """TheoremViolation naming the domain points of the first witness
    when the reconstructed relation is no partial order."""
    try:
        validate_matrix(rel)
    except co.InvalidRelation as exc:
        names = tuple(domain[i] for i in exc.witness)
        raise co.TheoremViolation(
            f"reconstructed relation is not a partial order at {names}: {exc}"
        ) from exc


def reference_reconstruct_order(c, compare_with_reference=True):
    """reconstruct_order as the paper states it: the regular points with
    non-empty ribbons form the domain, p precedes q when some classes
    alpha over p and gamma over q satisfy statement one, and the result
    must be a partial order."""
    diagnostics, classes_by_point, domain = {}, {}, []
    for ip, p in enumerate(c.points):
        regular, empty, failing, _ = reference_regularity(c, ip)
        diag = {"ribbon_pairs": len(_ribbon_masks(c, ip)[0]), "regular": regular, "empty": empty}
        if not regular:
            diag["failing_condition"] = failing
        if regular and not empty:
            classes = reference_congruence_classes(c, p)
            diag["classes"] = len(classes)
            classes_by_point[p] = [frozenset(cls) for cls in classes]
            domain.append(p)
        diagnostics[p] = diag
    k = len(domain)
    rel = np.zeros((k, k), dtype=bool)
    for i, p in enumerate(domain):
        for j, q in enumerate(domain):
            rel[i, j] = any(_statement_one(c, alpha, gamma)
                            for alpha in classes_by_point[p] for gamma in classes_by_point[q])
    reference_assert_partial_order(rel, domain)
    report = co.ReconstructionReport(tuple(domain), rel, diagnostics)
    if compare_with_reference:
        idx = [c.index[p] for p in domain]
        report.reference = ref = c.relation[np.ix_(idx, idx)]
        report.diffs = [{"p": p, "q": q, "original": bool(ref[i, j]),
                         "reconstructed": bool(rel[i, j])}
                        for i, p in enumerate(domain) for j, q in enumerate(domain)
                        if rel[i, j] != ref[i, j]]
    return report


def reference_reversal_theorem(c):
    """verify_reversal_theorem by reconstructing on c and on its reverse:
    the two domains must be equal and the relations mutual transposes."""
    rec = reference_reconstruct_order(c, compare_with_reference=False)
    rec_rev = reference_reconstruct_order(co.reverse_structure(c), compare_with_reference=False)
    report = co.LawReport("reversal of reconstructed order")
    fwd, bwd = set(rec.domain), set(rec_rev.domain)
    if fwd != bwd:
        report.results.append(co.LawResult(
            "regular-domain-preserved", "fails",
            {"only_forward": sorted(fwd - bwd), "only_reversed": sorted(bwd - fwd)}, 1))
        report.results.append(co.LawResult("reconstruction-transposes", "skipped", None, 0, 1))
        return report
    report.results.append(co.LawResult("regular-domain-preserved", "holds", checked=1))
    order = {p: i for i, p in enumerate(rec.domain)}
    perm = [order[p] for p in rec_rev.domain]
    aligned = rec_rev.relation[np.ix_(perm, perm)]
    res = co.LawResult("reconstruction-transposes", "holds", None, int(rec.relation.size))
    if not np.array_equal(rec.relation, aligned.T):
        bad = np.argwhere(rec.relation != aligned.T)[0]
        res = co.LawResult("reconstruction-transposes", "fails",
                           {"p": rec.domain[int(bad[0])], "q": rec.domain[int(bad[1])]},
                           res.checked)
    report.results.append(res)
    return report


# ---------------------------------------------------------------------------
# The union laws and the closure axioms as scanned before they were proved
# ---------------------------------------------------------------------------

# (checked, skipped) of each union law on K(6,6), six minimal points below
# six maximal ones, in each of the convergent and divergent families, as
# the member scans counted them; every law holds there
K66_LAW_COUNTS = {"I": (29971, 122910), "II": (391, 0), "III": (2122411, 57654060),
                  "IV": (5063011, 54713460), "V": (2363011, 57413460)}


def complete_bipartite(m, n):
    """K(m, n): m minimal points m0.. below n maximal points t0.., each
    below each."""
    lows, highs = [f"m{i}" for i in range(m)], [f"t{i}" for i in range(n)]
    return co.from_cover_pairs(lows + highs, [(lo, hi) for lo in lows for hi in highs])


def k66():
    return complete_bipartite(6, 6)


def member_tables(c, kind):
    """The family's uint64 masks plus its f x f union and intersection
    tables over every ordered member pair: (fam, meets, u_idx, i_idx);
    the measure suite reads the same tables on the unordered pairs."""
    fam = _family_array(c, kind)
    grid = np.ogrid[:len(fam), :len(fam)]
    return (fam, *_union_table(c, kind, fam, *grid), _index_in(fam, fam[:, None] & fam))


def reference_union_laws(c, kinds):
    """verify_union_laws as it scanned the members, extended to count
    each law's whole domain without stopping at a failure: {law:
    (verdict, checked, skipped)}.  I runs over member pairs, II over
    members, III-V over triples, one f x f slab per first index, all read
    off the family's union tables.  A case is checked where every union
    it needs is defined and every intersection it unites is a member, and
    fails where it is checked and its sides differ."""
    out = {}

    def entry(defined, bad, domain):
        checked = int(np.count_nonzero(defined))
        return ("fails" if bad else "holds", checked, domain - checked)

    for kind in kinds:
        fam, meets, u_idx, i_idx = member_tables(c, kind)
        f, tag = len(fam), kind.value
        ok = u_idx >= 0
        u_mask = np.where(ok, meets, 0)
        outside = ((fam[:, None] | fam) & ~u_mask) != 0
        out[f"I[{tag}]"] = entry(ok, (ok & outside).any(), f * f)
        diag = np.diagonal(ok)
        out[f"II[{tag}]"] = entry(diag, (diag & (np.diagonal(u_idx) != np.arange(f))).any(), f)
        tally = {law: [0, False] for law in ("III", "IV", "V")}

        def add(law, defined, bad):
            tally[law][0] += int(np.count_nonzero(defined))
            tally[law][1] |= bool((defined & bad).any())

        # index -1 (no member) reads row or column f of the padded table: -1
        at = np.full((f + 1, f + 1), -1)
        at[:f, :f] = u_idx
        for i in range(f):
            # III with A = member i: (A ∪c B) ∪c C against A ∪c (B ∪c C)
            left, right = at[u_idx[i][:, None], np.arange(f)], at[i, u_idx]
            add("III", (left >= 0) & (right >= 0), left != right)
            # IV with C = member i: C ∩ (A ∪c B) against (C ∩ A) ∪c (C ∩ B)
            rhs = at[i_idx[i][:, None], i_idx[i]]
            add("IV", ok & (rhs >= 0), (fam[i] & u_mask) != fam[rhs])
            # V with A = member i: A ∪c (B ∩ C) against (A ∪c B) ∩ (A ∪c C)
            lhs = at[i, i_idx]
            add("V", (lhs >= 0) & ok[i][:, None] & ok[i],
                fam[lhs] != (u_mask[i][:, None] & u_mask[i]))
        for law, (checked, bad) in tally.items():
            out[f"{law}[{tag}]"] = ("fails" if bad else "holds", checked, f**3 - checked)
    return out


def reference_closure_axioms(c):
    """The four closure verdicts of verify_algebra_axioms as it scanned
    the unordered member pairs (a member with itself included), counted
    over every pair: {law: (verdict, checked, skipped)}.  Intersection
    checks every pair; causal union checks the pairs with a superset of
    the kind and fails on a pair whose union is NotClosed."""
    out = {}
    for kind in (co.Kind.CONVERGENT, co.Kind.DIVERGENT):
        _, meets, u_idx, i_idx = member_tables(c, kind)
        pairs = np.triu(np.ones(u_idx.shape, dtype=bool))
        found = pairs & (meets != _NONE)
        n_pairs, n_found = int(pairs.sum()), int(found.sum())
        out[f"intersection-closure[{kind.value}]"] = (
            "fails" if (pairs & (i_idx < 0)).any() else "holds", n_pairs, 0)
        out[f"causal-union-closure[{kind.value}]"] = (
            "fails" if (found & (u_idx < 0)).any() else "holds", n_found, n_pairs - n_found)
    return out


def product_crossing_witness(c):
    """The first failing quadruple (x, y, z, w), in the order of
    oracle_crossing_witness, or None, by one boolean product per
    unrelated pair: (z, w) fails when no common upper bound of x and y
    lies below both.  The reference where the quadruple scan is too slow."""
    rel = c.relation
    for x, y in zip(*np.nonzero(np.triu(~(rel | rel.T)))):
        ups = np.flatnonzero(rel[x] & rel[y])
        if ups.size < 2:  # z = w is its own common lower bound
            continue
        below = rel[np.ix_(ups, ups)].astype(np.int64)  # below[p, z]: p <= z, both in U
        apart = np.argwhere(below.T @ below == 0)
        if apart.size:
            z, w = ups[apart[0]]
            return tuple(c.points[i] for i in (x, y, z, w))
    return None


def oracle_crossing(c):
    """Quadruple scan straight off the definition."""
    return oracle_crossing_witness(c) is None


def product_compose(a, b):
    """Boolean product as one dense float32 matrix product, with no sort
    and no blocks.  The reference for the blocked kernel, which replaced
    this one line."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def product_cover(rel):
    """The cover diagram of an order, strict & ~(strict∘strict), by one
    dense product.  The reference for the cover that validation keeps."""
    strict = rel & ~np.eye(len(rel), dtype=bool)
    return strict & ~product_compose(strict, strict)


def full_minkowski_relation(coords):
    """The metric order of an (n, d+1) event array as one n × n float
    expression, with no sort and no blocks: rel[i, j] iff t_j - t_i >= 0
    and (t_j - t_i)^2 - |x_j - x_i|^2 >= 0.  The reference for the blocked
    builder, which replaced it."""
    diff0 = coords[None, :, 0] - coords[:, None, 0]
    sq = diff0 * diff0
    for k in range(1, coords.shape[1]):
        dk = coords[None, :, k] - coords[:, None, k]
        sq -= dk * dk
    return (sq >= 0) & (diff0 >= 0)


def oracle_compose(a, b):
    """Relational composition {(i, k) : (i, j) in a and (j, k) in b}."""
    after = {}
    for j, k in b:
        after.setdefault(j, set()).add(k)
    return frozenset((i, k) for i, j in a for k in after.get(j, ()))


def oracle_closure(n, pairs):
    """Reflexive-transitive closure of index pairs, by search from each point."""
    after = {}
    for i, j in pairs:
        after.setdefault(i, set()).add(j)
    out = set()
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            for k in after.get(stack.pop(), ()):
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        out.update((i, k) for k in seen)
    return frozenset(out)


def oracle_cover(c):
    """Pairs x < y with no z strictly between them."""
    above = {x: set() for x in c.points}
    below = {x: set() for x in c.points}
    for x, y in oracle_leq(c):
        if x != y:
            above[x].add(y)
            below[y].add(x)
    return frozenset(
        (x, y) for x in c.points for y in above[x] if not above[x] & below[y]
    )


def pairs_of(matrix):
    """The true cells of a boolean matrix as a frozenset of index pairs."""
    return frozenset(map(tuple, np.argwhere(matrix).tolist()))


def matrix_of(n, pairs):
    rel = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        rel[i, j] = True
    return rel


def fan_relation(width):
    """Reflexive relation on width + 2 points: point 0 precedes each of
    the middle points 1..width, each of which precedes the last point,
    but point 0 does not precede the last point.  Not transitive; it has
    ``width`` two-step paths from the first point to the last."""
    n = width + 2
    rel = np.eye(n, dtype=bool)
    rel[0, 1:n - 1] = True
    rel[1:n - 1, n - 1] = True
    return rel


def random_poset(n, p_edge, rng):
    """Random DAG over a fixed order, transitively closed."""
    rel = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                rel[i, j] = True
    for k in range(n):
        rel |= np.outer(rel[:, k], rel[k, :])
    return validate_causality([f"v{i}" for i in range(n)], rel)


def relabelled(c, rng):
    """The same poset under a random relabelling: point i of the result
    is point perm[i] of c, and the ids stay v0 .. v(n-1).  random_poset
    and naturally_labelled_posets give only natural labellings (vi
    precedes vj only when i <= j); this one need not be."""
    perm = rng.permutation(c.n)
    return validate_causality(list(c.points), c.relation[np.ix_(perm, perm)])


def naturally_labelled_posets(n):
    """Every poset on the points v0 .. v(n-1) in which vi precedes vj only
    when i <= j: one per transitively closed set of pairs i < j.  Every
    poset on n points is isomorphic to at least one of them; there are 1,
    1, 2, 7, 40 and 357 for n = 0 .. 5 (OEIS A006455)."""
    pairs = list(combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        rel = np.eye(n, dtype=bool)
        for bit, (i, j) in enumerate(pairs):
            rel[i, j] = chosen >> bit & 1
        if not (rel @ rel & ~rel).any():
            yield validate_causality([f"v{i}" for i in range(n)], rel)


# well-formed JSON that is no causality document, and the ValueError message
MALFORMED_CAUSALITY = [
    ([{"points": ["a"], "relation": [[1]]}], "causality document must be an object, got array"),
    ({"relation": [[1]]}, 'causality document has no "points"'),
    ({"points": ["a"]}, 'causality document has no "relation"'),
    ({"points": "ab", "relation": [[1, 0], [0, 1]]}, '"points" must be an array, got string'),
]
