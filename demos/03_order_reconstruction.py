#!/usr/bin/env python3
"""Rebuilding the order from the algebra: ribbons and their limits.

A ribbon pair over p is a strictly convergent and a strictly divergent
set meeting exactly at p.  Reconstruction relates points through the
congruence classes of their ribbons, but only on points whose ribbon is
*regular* (every pair dense, unions of pairs well-behaved).  At finite
scale the density condition never holds on a non-empty ribbon: for every
pair, some strict set through the point cuts one component down to two
points, and a two-point set (a chain or an unrelated pair) contains no
strict set (proof in the docstring of co.is_dense).  The reports below
show exactly that, which is the desk-scale verdict on the reconstruction
machinery.
"""

import causalorder as co

l5 = co.star5()
l33 = co.grid(3, 3)

# The bowtie's centre carries exactly one ribbon pair.
rib = co.ribbon(l5, "m")
print("ribbon over the bowtie centre:")
for pair in rib.pairs:
    print("  upper:", pair.upper.ids(), " lower:", pair.lower.ids())

# Its single pair is not dense: cutting the upper component by the
# strictly divergent set {bl, m, tl, tr} leaves the chain {bl, m}.
(pair,) = rib.pairs
print("dense:", co.is_dense(l5, "m", pair))
reg = co.is_regular_ribbon(l5, "m")
print("regular:", reg.regular, " failing condition:", reg.failing_condition)

# Ribbon census over the 3x3 lattice.  Global extremes have no ribbon at
# all (the minimum makes every subset containing it divergent); interior
# points have many pairs, none of them dense.
print("\nribbon census on the 3x3 lattice:")
for p in l33.points:
    r = co.ribbon(l33, p)
    flag = co.is_regular_ribbon(l33, p)
    print(f"  {p}: {len(r):2d} pairs, regular={flag.regular}, "
          f"empty={flag.empty}, fails={flag.failing_condition}")

# Congruence still has content on irregular ribbons: it is reflexive and
# symmetric, and congruent pairs satisfy the meet property.
p = "01"
pairs = co.ribbon(l33, p).pairs
bit01 = l33.subset([p])
congruent_pairs = 0
for i, pr1 in enumerate(pairs):
    for pr2 in pairs[i + 1:]:
        try:
            if co.congruent(l33, p, pr1, pr2):
                congruent_pairs += 1
                assert (pr1.upper & pr2.lower).mask == bit01.mask
        except co.NotCongruentDecidable:
            pass
print(f"\ncongruent pairs over {p}:", congruent_pairs)

# The reconstruction report: an empty domain with diagnostics naming the
# reason per point, and an empty diff against the reference order.
rep = co.reconstruct_order(l33)
print("\nreconstruction domain:", rep.domain)
print("agrees with reference on the domain:", rep.agrees)

# The reversal theorem holds: the causality and its reverse both have
# empty domains, so its report is proved and nothing is rebuilt.
print("reversal theorem:", co.verify_reversal_theorem(l33).all_hold)

# The order-theoretic regularity bullets, unlike ribbon density, hold on
# every finite causality: unions of vertex cones keep their vertex, and
# bounded strict sets extend along the order.  Only the crossing property
# can fail.
causal_reg = co.is_regular_causality(l33)
print("\nregular causality:", causal_reg.regular,
      " crossing:", causal_reg.crossing,
      " extension failures:", len(causal_reg.to_dict()["extension_failures"]))
