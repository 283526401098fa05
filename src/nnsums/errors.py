"""Exception types shared across the package."""


class DegenerateStatistic(ValueError):
    """A weighted neighbor sum is undefined for this sample.

    Raised when a summand or the sum is not finite: a negative exponent
    meeting a zero j-th neighbor distance (tied points), a weight function
    returning a non-finite value, or a sum that overflows. Callers running
    Monte Carlo loops typically resample.
    """


class InvalidGammaArgument(ValueError):
    """The closed-form constants require j + alpha/d > 0."""


class InvalidRho(ValueError):
    """Entropy order rho must be positive and different from 1."""


class QuadratureBudgetExceeded(RuntimeError):
    """Numerical integration could not reach the requested tolerance."""


class ConditionRefused(RuntimeError):
    """No convergence guarantee applies to the requested run.

    Experiment drivers raise this instead of silently producing numbers
    whose limit is not guaranteed; pass force=True to run anyway.
    """


class ConfigError(ValueError):
    """Malformed model or experiment configuration."""
