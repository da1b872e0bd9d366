"""Exception types shared across the package."""


class QdblabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(QdblabError):
    """Operands have incompatible shapes."""


class NotHermitian(QdblabError):
    pass


class NoConvergence(QdblabError):
    pass


class NotAState(QdblabError):
    """Matrix is not a valid density matrix (or Bloch vector leaves the ball)."""


class KossakowskiNotPSD(QdblabError):
    pass


class NotTracePreserving(QdblabError):
    pass


class NotCPTP(QdblabError):
    pass


class ScheduleOutOfRange(QdblabError):
    pass


class InconclusiveHorizon(QdblabError):
    """State convergence was not reached within the probing horizon."""


class UnknownParameter(QdblabError):
    pass


class ConfigError(QdblabError):
    pass


class InternalCheckError(QdblabError):
    """A redundant internal cross-check failed; indicates a bug, not bad input."""

