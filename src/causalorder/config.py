"""Size caps for the exhaustive machinery.

Every exhaustive scan in this library enumerates causal sets or subsets
of the ground set, so all caps are point counts. They are configuration
values, not algorithmic constants: raise them if you have the patience.
"""

# Crossing-property scan only; subset masks are unbounded Python ints.
# The scan is one boolean product per unrelated pair; on one core of a
# shared 2-core x86 VM it took 0.35 s on grid(14,14) (196 points) and
# 0.67 s on 100 pairwise unrelated points below a 100-point chain, the
# slowest 200-point shape tried (grid(16,16), 256 points: 0.8 s).
MATRIX_CAP = 200

# Family enumeration: every convergent and divergent set, listed by vertex.
# A family can hold 2^(n-1) sets (an antichain below one top point).
ENUMERATION_CAP = 20

# Law, axiom and measure verification, which scans pairs/triples of
# causal sets.
LAW_SCAN_CAP = 12

# Ribbons, congruence, density and order reconstruction.
RIBBON_CAP = 14
