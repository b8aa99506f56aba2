"""Exception types shared across the package."""


class QreaError(Exception):
    """Base class for all package-specific errors."""


class ModeMismatch(QreaError, TypeError):
    """Exact and numeric scalars were mixed without an explicit conversion."""


class NonInvertible(QreaError, ArithmeticError):
    """Exact inverse requested for a Laurent scalar that is not a monomial."""


class DomainError(QreaError, ValueError):
    """An argument is outside the documented domain of the operation."""


class AlgebraMismatch(QreaError, ValueError):
    """A polynomial was fed to a rewriting system for a different algebra."""


class NonterminationGuard(QreaError, RuntimeError):
    """Rule applications exceeded the configured step bound.

    This signals a broken rule set; it is never expected on valid input.
    """


class NegativeNorm(QreaError, ValueError):
    """A negative-norm basis vector appeared while building a unitary module."""


class TruncationTooSmall(QreaError, ValueError):
    """The truncation degree cannot accommodate the requested interior margin."""


class PrecisionLoss(QreaError, ArithmeticError):
    """A computed value cannot be trusted to the working precision, or it
    leaves the float64 range where it must be written as a float."""


class NotFactorial(QreaError, ValueError):
    """Central elements do not act as scalars to tolerance."""


class NotAdmissible(QreaError, ValueError):
    """A root multiset is not the spectrum of any factor representation."""


class SignMismatch(QreaError, ValueError):
    """Root signs are incompatible with the requested signature."""


class BadCorep(QreaError, ValueError):
    """A transport matrix fails its unitarity/exchange checks on the interior."""
