"""Exception types shared across the package, each with the command line's
exit code for it: 2 for a usage or configuration error, 3 for a violated
model invariant and 4 for a failed internal check."""


class QdblabError(Exception):
    """Base class for all package-specific errors; a model invariant that
    does not hold, unless a subclass says otherwise."""

    exit_code = 3


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


class InconclusiveHorizon(QdblabError):
    """State convergence was not reached within the probing horizon."""

    exit_code = 4


class UnknownParameter(QdblabError):
    exit_code = 2


class ConfigError(QdblabError):
    exit_code = 2


class InternalCheckError(QdblabError):
    """A redundant internal cross-check failed; indicates a bug, not bad input."""

    exit_code = 4

