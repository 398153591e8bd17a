"""Global size caps: the one place each cap is set.

All caps are hard errors when exceeded (never silent truncation).  Every
check reads its cap from this module when it runs.  The CLI's --max-order /
--max-closure rebind MAX_ORDER / CLOSURE_CAP, and the audit worker pool
starts each worker with the parent's values (:func:`caps` read in the
parent, :func:`set_caps` applied in the worker), so a cap applies the same
way whatever the process start method.
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


def caps():
    """Every cap by name, to hand to another process."""
    return {name: value for name, value in globals().items() if name.isupper()}


def set_caps(caps):
    """Rebind the caps named in ``caps``, as returned by :func:`caps`."""
    globals().update(caps)
