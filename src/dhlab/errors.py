"""Exception types shared across the package."""


class DhlabError(Exception):
    """Base class for all dhlab-specific errors."""


class EmptyDomainError(DhlabError, ValueError):
    """Requested object has an empty domain (e.g. sieve limit below 2)."""


class InsufficientTableError(DhlabError, ValueError):
    """A quantity was requested beyond the sieved range of a PrimeTable."""


class PhaseBudgetError(DhlabError, ValueError):
    """Grid evaluation refused: phase range over expsums.PHASE_BUDGET."""


class ParameterError(DhlabError, ValueError):
    """Arc parameter choice is inconsistent.  Names the failed inequality."""

    def __init__(self, message, failed):
        super().__init__(message)
        self.failed = failed


class DomainError(DhlabError, ValueError):
    """Argument outside the mathematical domain of an operation."""
