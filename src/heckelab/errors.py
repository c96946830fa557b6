"""Exception types shared by all heckelab modules."""


class HeckelabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HeckelabError):
    """Malformed textual input (element, matrix, or config)."""


class InvalidConfig(HeckelabError):
    """A run configuration failed validation."""


class NegativeValuation(HeckelabError):
    """Reduction mod pi^N applied to an element outside the valuation ring."""


class PrecisionExceeded(HeckelabError):
    """A residue operation requested more precision than is available."""


class IncompatiblePair(HeckelabError):
    """No ring isomorphism o/pi^N -> o'/pi'^N exists for the given models."""


class NotDominant(HeckelabError):
    """Cocharacter tuple is not weakly decreasing."""


class SLTraceNonzero(HeckelabError):
    """Cocharacter for an SL group does not sum to zero."""


class Singular(HeckelabError):
    """Matrix has determinant zero."""


class NotInK(HeckelabError):
    """Group element is not integral with unit determinant."""


class NonUnitDet(HeckelabError):
    """Residue matrix cannot be lifted: determinant is not a unit."""


class BudgetExceeded(HeckelabError):
    """An enumeration would exceed the configured element budget."""


class MixedRings(HeckelabError):
    """Objects over different rings or groups were combined."""


class InsufficientCloseness(HeckelabError):
    """The closeness level N is too small for the requested transport."""


class SingularBasis(HeckelabError):
    """Proposed lattice basis is not invertible."""


class InvariantViolated(HeckelabError):
    """An identity that holds by construction failed: a defect, not bad input."""
