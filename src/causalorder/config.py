"""Size caps for the exhaustive machinery.

Every exhaustive scan in this library enumerates causal sets or subsets
of the ground set, so all caps are point counts. They are configuration
values, not algorithmic constants: raise them if you have the patience.
"""

# Crossing-property scan only; subset masks are unbounded Python ints.
# The scan is one join-kernel call per unrelated pair, O(n) mask
# operations each; on one core of a shared 2-core x86 VM it took
# 0.06-0.09 s on grid(14,14) (196 points) and 0.16-0.22 s on 100 pairwise
# unrelated points below a 100-point chain, the slowest 200-point shape
# tried.  Past the cap, grid(16,16) took 0.25 s and grid(32,32) 11.2 s.
MATRIX_CAP = 200

# Family enumeration: every convergent and divergent set, listed by vertex.
# A family can hold 2^(n-1) sets (an antichain below one top point).
ENUMERATION_CAP = 20

# Law, axiom and measure verification.  The law and axiom verdicts are
# proved and their pairs and triples of causal sets counted over vertex
# groups: a union table over one set per group (G^2 entries, G <= n + 1
# per side) and the f^2 intersection index.  The measure suites decide
# the unit table from the order (the axioms with crossing) or by counting
# the nested member pairs (monotonicity); every other table they scan
# over member pairs, the axioms from a union table over all f sets.
LAW_SCAN_CAP = 12

# Ribbons, congruence, density and order reconstruction.
RIBBON_CAP = 14
