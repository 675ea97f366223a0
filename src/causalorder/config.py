"""Size caps for the exhaustive machinery.

Every scan in this library enumerates subsets of the ground set, so all
caps are point counts. They are configuration values, not algorithmic
constants: raise them if you have the patience, or lower them from the
command line with ``--max-n``.
"""

# Crossing-property scan only; subset masks are unbounded Python ints.
MATRIX_CAP = 64

# Full 2^n subset classification (single scans).
ENUMERATION_CAP = 20

# Law and axiom verification, which scans pairs/triples of causal sets.
LAW_SCAN_CAP = 12

# Ribbons, congruence, density and order reconstruction.
RIBBON_CAP = 14
