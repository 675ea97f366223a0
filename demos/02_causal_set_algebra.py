#!/usr/bin/env python3
"""The set algebra: classification, causal unions, and the law reports.

Complete+convergent subsets behave like truncated past cones, complete+
divergent ones like truncated future cones.  The causal union closes a
plain union into the smallest set of the same kind.  The verification
reports show which algebraic laws survive at finite scale and which do
not: the distributivity laws fail, because the causal union is a closure
operator, and the failure is reproduced here on a three-point chain.
"""

import causalorder as co
from causalorder import Kind

d4 = co.diamond4()
l33 = co.grid(3, 3)

# Four-way classification over the 3x3 lattice.
for ids in ([], ["11"], ["01", "10", "11"], ["11", "12", "21"], ["01", "10"]):
    u = l33.subset(ids)
    print(f"{str(ids):28s} -> {co.classify(l33, u).name}")

counts = {k: len(co.enumerate_causal_sets(l33, k)) for k in Kind}
print("\nfamily sizes on the 3x3 lattice:",
      {k.value: v for k, v in counts.items()})

# Causal unions: the closure of {q} and {r} depends on the kind requested.
q, r = d4.subset(["q"]), d4.subset(["r"])
print("\nsmallest convergent superset of {q},{r}:",
      co.causal_union(d4, q, r, Kind.CONVERGENT).ids())
print("smallest convergent+divergent superset:",
      co.causal_union(d4, q, r, Kind.BOTH).ids())

# A strictly convergent and a strictly divergent operand annihilate.
print("cross-strict union:",
      co.causal_union(d4, d4.subset(["q", "r", "s"]), d4.subset(["p", "q", "r"])).ids())

# Some unions are undefined: nothing convergent contains two maxima.
l5 = co.star5()
try:
    co.causal_union(l5, l5.subset(["tl"]), l5.subset(["tr"]), Kind.CONVERGENT)
except co.NoCausalSuperset as exc:
    print("undefined union:", exc)

# Law verification, each verdict by proof: I (containment), II
# (idempotence) and III (associativity) hold; IV and V (distributivity)
# fail on any order with a three-chain, and the report names the three
# singletons of one.  Reversal equivariance (VI) is proved and not
# reported: structural reversal keeps every mask and swaps the two families.
chain3 = co.chain(3)
report = co.verify_union_laws(chain3)
print("\nunion laws on a three-chain:")
print(report)

# The minimal counterexample, by hand: completeness forces b into the
# closure of {a, c}, and intersecting with {b} keeps it, while the
# right-hand side collapses to the empty set.
a, b, c = chain3.subset(["a"]), chain3.subset(["b"]), chain3.subset(["c"])
lhs = b & co.causal_union(chain3, a, c, Kind.CONVERGENT)
rhs = co.causal_union(chain3, b & a, b & c, Kind.CONVERGENT)
print("\nlaw IV counterexample: LHS =", lhs.ids(), " RHS =", rhs.ids())

# The axioms of the algebra: families, closures and reversal all hold;
# the law axiom inherits the distributivity failure.
print("\nalgebra axioms on the 3x3 lattice:")
print(co.verify_algebra_axioms(l33))
