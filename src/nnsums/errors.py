"""Exception types shared across the package, and its one rule for integer
and real arguments, which the Python API and the JSON configuration both
check through :func:`_integer` and :func:`_real`: an integer (d, j, a shell
index k, q, replications, a seed, a sample size) is what ``operator.index``
takes, a Python or numpy integer, never a bool or 2.0; a real (alpha, p,
beta, r) is a finite int, float or numpy real, never a bool or a string,
taken as a float. Each refuses with :class:`ConfigError` "{name} must be
{what}, got {value!r}"."""

import contextlib
import math
import numbers
import operator


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


def _integer(name: str, value, low=None, high=None, what: str | None = None) -> int:
    """``operator.index(value)``, not a bool, refused outside the bounds
    ``low`` and ``high`` that are given as not ``what`` (">= low" by default)."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if (low is not None and index < low) or (high is not None and index > high):
        raise ConfigError(f"{name} must be {what or f'>= {low}'}, got {index!r}")
    return index


def _real(name: str, value) -> float:
    """``float(value)`` for a real number, not a bool, whose float is finite."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int past the largest float
            if math.isfinite(real := float(value)):
                return real
    raise ConfigError(f"{name} must be a finite number, got {value!r}")
