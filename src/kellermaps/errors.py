"""Exception types shared across the package."""


class KellermapsError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatch(KellermapsError):
    """Operands belong to different rings."""


class NonUnitInverse(KellermapsError):
    """Inverse requested for an element of positive valuation."""


class InvalidInput(KellermapsError):
    """A constructor argument violates its documented precondition."""


class ArityMismatch(KellermapsError):
    """Point length or component count does not match the variable count."""


# points an enumeration may visit unless the caller sets its own budget
DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(KellermapsError):
    """An enumeration would visit more points than the configured budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(f"enumeration of {required} points exceeds budget {budget}")


class SizeGuardExceeded(KellermapsError):
    """Symbolic determinant requested for a matrix above the size guard."""


class PreconditionFailed(KellermapsError):
    """A documented operation precondition does not hold for the input."""


class PrecisionTooLow(KellermapsError):
    """The working precision cannot accommodate the requested lift."""


class TheoremViolation(KellermapsError):
    """A certified conclusion failed its verification re-check."""


class NotKeller(KellermapsError):
    """The map's Jacobian determinant is not the constant 1."""


class BadPrime(KellermapsError):
    """The chosen prime divides an obstruction (discriminant or leading coefficient)."""


class NoRootWithinBudget(KellermapsError):
    """No residue root found in any extension within the enumeration budget."""


class NonSingular(KellermapsError):
    """The coefficient matrix is invertible, so no kernel witness exists."""


class DegenerateKernel(KellermapsError):
    """Internal error: kernel vector could not be normalized to a unit coordinate."""


class WrongCharacteristic(KellermapsError):
    """The construction requires the other characteristic family."""


class WrongRingKind(KellermapsError):
    """The operation requires a different ring kind."""


class NotUnimodularVector(KellermapsError):
    """All coordinates of the vector are non-units."""


class DegenerateComponent(KellermapsError):
    """A residue component is the zero polynomial, so the degree bound is undefined."""


class ParseError(KellermapsError):
    """Input text does not conform to the grammar."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ValidationError(KellermapsError):
    """Parsed input violates a structural invariant."""
