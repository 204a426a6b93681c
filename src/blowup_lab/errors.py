"""Exception types shared across the lab."""


class BlowupLabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BlowupLabError):
    """A force or operator specification failed its construction checks."""


class DomainExceededError(BlowupLabError):
    """F(s) reached the operator's energy ceiling B_sup inside an integration range.

    Raised by operators with finite B_sup (e.g. mean curvature) instead of
    extrapolating B^-1 beyond its domain.
    """


class DivergenceError(BlowupLabError):
    """An improper integral was detected as divergent (tail not decaying)."""


class BracketError(BlowupLabError):
    """Monotone root finding could not bracket the requested value."""


class ProfileDomainError(BlowupLabError):
    """A profile was asked for at or past blow-up, or at a v0 where f(v0) = 0."""


class SolverError(BlowupLabError):
    """A nonlinear solve failed to converge or overflowed: the 2D grid
    solver, or the Newton inversion of the 1D implicit relation."""


class ConfigError(BlowupLabError):
    """An experiment configuration is malformed or inconsistent."""
