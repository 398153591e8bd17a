"""Exception taxonomy.

Every failure mode the library reports deliberately gets its own class, so
callers (and the CLI exit-code contract) can distinguish bad input from a
violated mathematical hypothesis from an exhausted search budget.
"""


class EndokatError(Exception):
    """Base class for all library errors."""

    tag = "error"


class InvalidInput(EndokatError, ValueError):
    """Malformed or out-of-domain input (bad factors, wrong coordinates...)."""

    tag = "invalid-input"


class AmbientMismatch(InvalidInput):
    """Operands live in different ambient groups."""

    tag = "ambient-mismatch"


class NotGlobal(EndokatError):
    """A candidate relation does not project onto its whole source."""

    tag = "not-global"


class KatakernelBound(EndokatError):
    """A katakernel escaped the configured negligibility bound."""

    tag = "katakernel-exceeds-bound"


class NotWeaklyInvariant(EndokatError):
    """Restriction requested to a subgroup that is not weakly invariant."""

    tag = "not-weakly-invariant"


class NotSharplyCommuting(EndokatError):
    """A pair of generating sets fails pairwise sharp commutation."""

    tag = "not-sharply-commuting"


class CapExceeded(EndokatError):
    """A hard size cap (closure, oracle, search) was hit.  Never silent."""

    tag = "cap-exceeded"


class BudgetExceeded(EndokatError):
    """A bounded search ran out of budget without a definite answer."""

    tag = "budget-exceeded"


class NotLocallyCentral(EndokatError):
    """Lift requested for a map that is not central in both local rings."""

    tag = "not-locally-central"


class HypothesisViolation(EndokatError):
    """An operation's mathematical hypotheses fail on the given input.

    Carries an optional machine-readable witness (e.g. a common invariant
    subspace demonstrating reducibility).
    """

    tag = "hypothesis-violation"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FieldTestFailure(EndokatError):
    """An extracted coefficient ring failed a field axiom; carries the
    offending element."""

    tag = "field-test-failure"

    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element

