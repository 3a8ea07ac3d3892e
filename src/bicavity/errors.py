"""Exception hierarchy shared across the package."""


class BicavityError(Exception):
    """Base class for all errors raised by this package."""


class InvalidTruncationError(BicavityError, ValueError):
    """Fock cutoffs too small to represent the requested states."""


class DegenerateSteadyStateError(BicavityError):
    """Liouvillian kernel has dimension greater than one."""


class SteadyStateSolverError(BicavityError):
    """Linear solve for the steady state did not converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UndefinedCorrelationError(BicavityError):
    """g2(0) requested for a mode with (numerically) zero occupation."""


class AnalyticSingularityError(BicavityError):
    """A weak-drive denominator vanished at the requested parameter point."""


class WeakDriveDomainError(BicavityError, ValueError):
    """Parameters outside the weak-drive analysis (dephasing, unequal couplings)."""


class SweepError(BicavityError):
    """A parameter sweep could not produce any valid grid point."""
