"""Global size caps.

All caps are hard errors when exceeded (never silent truncation).  The CLI
exposes --max-order / --max-closure which rebind these per process.
"""

# Largest allowed group order for exact lattice arithmetic.  Keeps every
# entry of the integer normal forms below 2**20 so the compiled kernel can
# run on machine words with a safety margin.
MAX_ORDER = 2**20

# Cap on materialized closures: prering closures (element count) and matrix
# algebra closures (p**dim elements).
CLOSURE_CAP = 20_000

# Brute-force enumeration bound for the reference oracle.
ORACLE_CAP = 4096

# Vector-exhaustive spin-up is complete up to this many vectors.
SPIN_EXHAUSTIVE_CAP = 2**16

# Exhaustive element sweep bound for the field certificate.
FIELD_ENUM_CAP = 2**20
