"""Closed-form limit constants and the Poisson neighbor-distance law.

For a homogeneous Poisson process of intensity tau in R^d, the number of
points in the ball of radius t around the origin is Poisson with mean
tau * omega_d * t^d, so the j-th neighbor distance D of the origin has

    P[D > t] = P[Poisson(tau * omega_d * t^d) <= j - 1],
    E[D^alpha] = (tau * omega_d)^(-alpha/d) * Gamma(j + alpha/d) / Gamma(j).

The normalized neighbor sums of :mod:`nnsums.neighbors` converge (when
they converge) to gamma_constant(d, j, alpha) times the integral of
f^(1 - alpha/d); this module supplies those constants, the entropy
transforms, and a quadrature route to the same limit for general weight
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gammaincc, gammainccinv

from .errors import InvalidGammaArgument, InvalidRho, QuadratureBudgetExceeded


def unit_ball_volume(d: int) -> float:
    """Volume omega_d = pi^(d/2) / Gamma(1 + d/2) of the unit ball in R^d."""
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    if d <= 340:
        return math.pi ** (d / 2) / math.gamma(1 + d / 2)
    # Gamma overflows past ~170; fall back to log space.
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(1 + d / 2))


def _log_unit_ball_volume(d: int) -> float:
    return 0.5 * d * math.log(math.pi) - math.lgamma(1 + d / 2)


@dataclass(frozen=True)
class LimitConstantSpec:
    """Parameters (d, j, alpha) of the limit constant; needs j + alpha/d > 0."""

    d: int
    j: int
    alpha: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.j < 1:
            raise ValueError(f"neighbor rank must be >= 1, got {self.j}")
        if self.j + self.alpha / self.d <= 0:
            raise InvalidGammaArgument(
                f"need j + alpha/d > 0, got j={self.j}, alpha={self.alpha}, d={self.d}"
            )


def gamma_constant(d: int, j: int, alpha: float) -> float:
    """omega_d^(-alpha/d) * Gamma(j + alpha/d) / Gamma(j): the Poisson
    neighbor moment E[D_j^alpha] at unit intensity.

    Evaluated in log space so large neighbor ranks do not overflow.
    """
    return poisson_nn_moment(1.0, d, j, alpha)


def poisson_nn_tail(tau: float, d: int, j: int, t) -> float | np.ndarray:
    """P[D_j > t] for the j-th neighbor distance of the origin in a
    homogeneous Poisson process of intensity tau.

    Equals the probability that the ball of radius t holds fewer than j
    points; computed as the regularized upper incomplete gamma function,
    which is exactly the Poisson CDF at j - 1.
    """
    if tau <= 0:
        raise ValueError(f"intensity must be positive, got {tau}")
    if j < 1:
        raise ValueError(f"neighbor rank must be >= 1, got {j}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("distances must be nonnegative")
    mu = tau * unit_ball_volume(d) * t**d
    out = gammaincc(j, mu)
    return float(out) if out.ndim == 0 else out


def poisson_nn_moment(tau: float, d: int, j: int, alpha: float) -> float:
    """E[D_j^alpha] = (tau * omega_d)^(-alpha/d) * Gamma(j + alpha/d) / Gamma(j)."""
    if tau <= 0:
        raise ValueError(f"intensity must be positive, got {tau}")
    spec = LimitConstantSpec(d, j, alpha)
    shape = spec.j + spec.alpha / spec.d
    log_scale = math.log(tau) + _log_unit_ball_volume(d)
    return math.exp(
        -(spec.alpha / spec.d) * log_scale + math.lgamma(shape) - math.lgamma(spec.j)
    )


def sample_poisson_nn_distances(
    tau: float, d: int, j: int, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo draws of the j-th neighbor distance D_j of the origin.

    Simulates the process inside a ball large enough that P[D_j > radius]
    is below 1e-6 and reads off the j-th smallest point norm. The rare
    draws whose ball holds fewer than j points are clipped to the ball
    radius; the induced bias is below the truncation probability times
    the radius.
    """
    if n_draws < 1:
        raise ValueError("need at least one draw")
    scale = tau * unit_ball_volume(d)
    mu = float(gammainccinv(j, 1e-6))
    radius = (mu / scale) ** (1.0 / d)
    counts = rng.poisson(mu, size=n_draws)
    width = max(int(counts.max()), j)
    # Norms of uniform points in the ball are radius * U^(1/d); pad unused
    # slots with the ball radius so short rows clip instead of underflow.
    u = rng.random((n_draws, width))
    radii = radius * u ** (1.0 / d)
    radii[np.arange(width)[None, :] >= counts[:, None]] = radius
    return np.partition(radii, j - 1, axis=1)[:, j - 1]


@dataclass(frozen=True)
class QuadratureBudget:
    """Accuracy demanded of the limit-functional integration."""

    tol: float = 1e-6
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("subdivision budget too small")


def poisson_expectation(
    phi, tau: float, d: int, j: int, tol: float = 1e-9, max_subdivisions: int = 200
) -> tuple[float, float]:
    """(value, error) of E[phi(D_j)] under the Poisson neighbor law.

    Substituting u = tau * omega_d * t^d makes u a Gamma(j, 1) variable,
    so the expectation is a single integral of phi against the Gamma
    weight. Integration runs over [0, U] with the Gamma tail beyond U
    under 1e-12, keeping the truncation error negligible next to tol.
    """
    if tau <= 0:
        raise ValueError(f"intensity must be positive, got {tau}")
    scale = tau * unit_ball_volume(d)
    inv_d = 1.0 / d
    log_gamma_j = math.lgamma(j)

    def integrand(u: float) -> float:
        if u <= 0.0:
            weight = 1.0 if j == 1 else 0.0
        else:
            weight = math.exp((j - 1) * math.log(u) - u - log_gamma_j)
        if weight == 0.0:
            return 0.0
        return float(phi((u / scale) ** inv_d)) * weight

    upper = float(gammainccinv(j, 1e-12))
    value, err = integrate.quad(
        integrand,
        0.0,
        upper,
        limit=max_subdivisions,
        epsabs=tol / 10.0,
        epsrel=tol / 10.0,
    )
    if not math.isfinite(value):
        raise QuadratureBudgetExceeded("inner expectation did not evaluate finitely")
    if err > tol * max(1.0, abs(value)):
        raise QuadratureBudgetExceeded(
            f"inner expectation error estimate {err:.3g} exceeds tolerance {tol:.3g}"
        )
    return value, err


def limit_functional(
    phi,
    density,
    d: int | None = None,
    j: int = 1,
    budget: QuadratureBudget | None = None,
    return_error: bool = False,
):
    """Limit of the per-point phi-weighted neighbor sum over samples from
    ``density``: the integral of E[phi(D_j at intensity f(x))] f(x) dx.

    The outer integral runs through the density's own reduction (exact for
    piecewise-constant densities, radial quadrature for radial ones); the
    inner expectation uses the Gamma-weight quadrature above. Raises
    :class:`QuadratureBudgetExceeded` when the combined error estimate
    does not meet the budget.
    """
    if budget is None:
        budget = QuadratureBudget()
    if d is not None and d != density.dim:
        raise ValueError(f"d={d} does not match density dimension {density.dim}")
    dim = density.dim
    inner_tol = budget.tol / 10.0

    def h(intensity: float) -> float:
        value, _ = poisson_expectation(
            phi, intensity, dim, j, tol=inner_tol, max_subdivisions=budget.max_subdivisions
        )
        return value

    value, outer_err = density.expect_of_intensity(h, tol=budget.tol / 2.0)
    err = outer_err + inner_tol * max(1.0, abs(value))
    if err > budget.tol * max(1.0, abs(value)):
        raise QuadratureBudgetExceeded(
            f"limit functional error estimate {err:.3g} exceeds tolerance {budget.tol:.3g}"
        )
    if return_error:
        return value, err
    return value


@dataclass(frozen=True)
class EntropyValue:
    """An integral value I_rho together with both entropies derived from it:
    Tsallis (1 - I) / (1 - rho) and Renyi log(I) / (1 - rho)."""

    rho: float
    i_rho: float
    tsallis: float
    renyi: float


def entropy_from_integral(rho: float, i_rho: float) -> EntropyValue:
    """Map a value of the integral of f^rho to both entropies."""
    if rho <= 0 or rho == 1.0:
        raise InvalidRho(f"rho must be positive and != 1, got {rho}")
    if not (i_rho > 0 and math.isfinite(i_rho)):
        raise ValueError(f"i_rho must be a positive finite number, got {i_rho}")
    return EntropyValue(
        rho=rho,
        i_rho=i_rho,
        tsallis=(1.0 - i_rho) / (1.0 - rho),
        renyi=math.log(i_rho) / (1.0 - rho),
    )
