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
functions. That route nests two integrals: the inner expectation
h(tau) = E[phi(D_j)] maps an array of intensities to an array in one
vector quadrature, and each density's outer integral of h(f(x)) f(x) dx
hands it all the intensities of one refinement round at a time.

Every integral the package computes numerically runs through one rule,
:func:`_adaptive_gauss`: 10-point Gauss-Legendre on a partition into
panels that is bisected where the error estimate
|Q(panel) - Q(left half) - Q(right half)| asks for it, shared by all the
integrands of one call (one per intensity). Both integrals run over
finite intervals: the inner one over the Gamma weight cut where its tail
falls below 1e-12, the radial outer one over y = -log u with
u = 1/(1 + s), on which the intensity cutoff is a finite end point (see
:func:`nnsums.densities._radial_expectation`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainccinv

from .errors import ConfigError, InvalidGammaArgument, InvalidRho, QuadratureBudgetExceeded
from .errors import _integer, _real
from .neighbors import _elementwise


def unit_ball_volume(d: int) -> float:
    """Volume omega_d = pi^(d/2) / Gamma(1 + d/2) of the unit ball in R^d."""
    d = _integer("dimension d", d, 1, what="a positive integer")
    if d <= 340:
        return math.pi ** (d / 2) / math.gamma(1 + d / 2)
    # Gamma overflows past ~170; fall back to log space.
    return math.exp(_log_unit_ball_volume(d))


def _log_unit_ball_volume(d: int) -> float:
    return 0.5 * d * math.log(math.pi) - math.lgamma(1 + d / 2)


def _exp_or_refuse(log_value: float, quantity: str) -> float:
    """exp(log_value), for a closed form taken in log space.

    Raises :class:`ConfigError` naming ``quantity`` when the logarithm
    exceeds log(max float), so the value does too.
    """
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ConfigError(
            f"{quantity} exceeds the largest float: its logarithm is {log_value:.6g}"
        ) from None


def _check_poisson_law(tau, d: int, j: int, alpha: float = 0.0) -> tuple[int, int, float]:
    """(d, j, alpha) as int, int and float, inside the Poisson neighbor law:

    ``tau`` (one intensity or an array of them) must be finite and
    positive, d and j integers at least 1, and alpha a finite real with
    j + alpha/d > 0; the last alone raises :class:`InvalidGammaArgument`.
    A tau that numpy does not read as integers or floats (a bool, a string)
    raises :class:`ConfigError`, through :func:`_real` for one intensity.
    """
    taus = np.asarray(tau)
    if taus.dtype.kind not in "iuf":
        if taus.ndim:
            raise ConfigError(f"intensity tau must hold real numbers, got dtype {taus.dtype}")
        taus = np.asarray(_real("intensity tau", tau))
    if not np.all((taus > 0) & (taus < math.inf)):
        raise ValueError(f"intensity tau must be positive and finite, got {tau}")
    d, j = _integer("dimension d", d, 1), _integer("neighbor rank j", j, 1)
    alpha = _real("alpha", alpha)
    if j + alpha / d <= 0:
        raise InvalidGammaArgument(f"need j + alpha/d > 0, got j={j}, alpha={alpha}, d={d}")
    return d, j, alpha


def gamma_constant(d: int, j: int, alpha: float) -> float:
    """omega_d^(-alpha/d) * Gamma(j + alpha/d) / Gamma(j): the Poisson
    neighbor moment E[D_j^alpha] at unit intensity.

    Evaluated in log space so large neighbor ranks do not overflow.
    """
    return poisson_nn_moment(1.0, d, j, alpha)


def poisson_nn_moment(tau: float, d: int, j: int, alpha: float) -> float:
    """E[D_j^alpha] = (tau * omega_d)^(-alpha/d) * Gamma(j + alpha/d) / Gamma(j).

    Raises :class:`ConfigError` naming alpha where the moment exceeds the
    largest float.
    """
    d, j, alpha = _check_poisson_law(tau, d, j, alpha)
    log_scale = math.log(tau) + _log_unit_ball_volume(d)
    log_value = -(alpha / d) * log_scale + math.lgamma(j + alpha / d) - math.lgamma(j)
    return _exp_or_refuse(log_value, f"E[D_{j}^alpha] at alpha = {alpha!r}")


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
    d, j, _ = _check_poisson_law(tau, d, j)
    n_draws = _integer("n_draws", n_draws, 1)
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


#: Nodes and weights of the 10-point Gauss-Legendre rule on [-1, 1], which
#: :func:`_adaptive_gauss` applies to every panel.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(10)
#: The most panels one integral may be split into before it refuses.
_MAX_PANELS = 2000


def _panel_sums(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre sums of f over the panels [lo, hi]: one row per panel,
    one column per integrand."""
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[:, None] + half[:, None] * _NODES
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(lo.size, _NODES.size, -1)
    return half[:, None] * np.einsum("n,pnk->pk", _WEIGHTS, values)


def _halves(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The left halves, then the right halves, of the panels [lo, hi]."""
    mid = 0.5 * (lo + hi)
    return np.concatenate([lo, mid]), np.concatenate([mid, hi])


def _adaptive_gauss(f, edges, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(value, error) arrays, one entry per integrand, of the integral of f
    over [edges[0], edges[-1]].

    ``f`` maps a 1-D array of nodes to an array with one row per node and
    one column per integrand (1-D for a single integrand). All integrands
    share one partition, which starts as the panels between consecutive
    ``edges``. Each panel is summed by 10-point Gauss-Legendre whole and as
    two halves: its value is the sum over the halves and its error
    |Q(panel) - Q(left) - Q(right)|. While an integrand's summed error
    exceeds tol * max(1, |value|), the panels holding more than their
    width's share of that budget are bisected; each round calls f once, on
    the nodes of the new panels. Raises :class:`QuadratureBudgetExceeded`
    when a value is not finite or the partition would pass ``_MAX_PANELS``.

    The returned error is an estimate, not a bound. On a smooth integrand
    it usually overstates the true error; on one with a kink, such as
    min(t, 1), the whole-panel and half-panel sums can agree closely across
    the kink, so |Q - Q_l - Q_r| cancels and understates the error of that
    panel.
    """
    edges = np.asarray(edges, dtype=float)
    span = edges[-1] - edges[0]
    lo, hi = edges[:-1], edges[1:]
    whole = _panel_sums(f, lo, hi)
    parts = _panel_sums(f, *_halves(lo, hi))
    while True:
        left, right = np.split(parts, 2)
        err = np.abs(whole - left - right)
        value, error = np.sum(left + right, axis=0), np.sum(err, axis=0)
        if not np.all(np.isfinite(value)):
            raise QuadratureBudgetExceeded("integrand did not evaluate finitely")
        budget = tol * np.maximum(1.0, np.abs(value))
        open_ = error > budget
        if not np.any(open_):
            return value, error
        split = np.any(err[:, open_] * span > np.outer(hi - lo, budget[open_]), axis=1)
        if lo.size + np.count_nonzero(split) > _MAX_PANELS:
            raise QuadratureBudgetExceeded(
                f"error estimate {np.max(error[open_]):.3g} exceeds tolerance "
                f"{np.max(budget[open_]):.3g} after {lo.size} panels"
            )
        # a bisected panel's halves become panels whose whole sums are known
        stay = ~split
        new_lo, new_hi = _halves(lo[split], hi[split])
        new_left, new_right = np.split(_panel_sums(f, *_halves(new_lo, new_hi)), 2)
        lo, hi = np.concatenate([lo[stay], new_lo]), np.concatenate([hi[stay], new_hi])
        whole = np.concatenate([whole[stay], left[split], right[split]])
        parts = np.concatenate([left[stay], new_left, right[stay], new_right])


def poisson_expectation(
    phi, tau, d: int, j: int, tol: float = 1e-9
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(value, error) of E[phi(D_j)] under the Poisson neighbor law.

    ``tau`` is one intensity, giving two floats, or an array of them,
    giving two arrays of its shape. Substituting u = tau * omega_d * t^d
    makes u a Gamma(j, 1) variable, and v = u^(1/d) turns the expectation
    into the integral of phi(v * (tau * omega_d)^(-1/d)) against the weight
    d * v^(d*j - 1) * exp(-v^d) / Gamma(j), which has no endpoint
    singularity. Integration runs over [0, V] with the Gamma tail beyond
    V^d under 1e-12, keeping the truncation error negligible next to tol.
    All intensities share one partition of :func:`_adaptive_gauss`, bisected
    until every one of them meets the tolerance.

    The returned error is the rule's estimate, not a bound. For a phi with
    a kink it can fall below the true error: with the capped phi min(t, 1)
    and intensities from 1e-3 to 1e3 the estimate stays under tol / 10
    while the true error reaches 0.65 tol; the value still lies within tol.
    """
    d, j, _ = _check_poisson_law(tau, d, j)
    taus = np.asarray(tau, dtype=float)
    # D_j per unit of v, one column per intensity
    spacing = (taus.reshape(1, -1) * unit_ball_volume(d)) ** (-1.0 / d)
    log_norm = math.log(d) - math.lgamma(j)

    def integrand(v: np.ndarray) -> np.ndarray:
        # Gauss-Legendre nodes avoid the endpoints, so log(v) is finite
        v = v[:, None]
        weight = np.exp((d * j - 1) * np.log(v) - v**d + log_norm)
        return _elementwise(phi, v * spacing) * weight

    upper = float(gammainccinv(j, 1e-12)) ** (1.0 / d)
    try:
        value, err = _adaptive_gauss(integrand, np.linspace(0.0, upper, 5), tol / 10.0)
    except QuadratureBudgetExceeded as exc:
        raise QuadratureBudgetExceeded(f"inner expectation: {exc}") from None
    if taus.ndim == 0:
        return float(value[0]), float(err[0])
    return value.reshape(taus.shape), err.reshape(taus.shape)


def limit_functional(
    phi,
    density,
    j: int = 1,
    tol: float = 1e-6,
    return_error: bool = False,
):
    """Limit of the per-point phi-weighted neighbor sum over samples from
    ``density``: the integral of E[phi(D_j at intensity f(x))] f(x) dx.

    ``phi`` is applied to arrays of distances; one that only takes single
    floats is applied entry by entry. The outer integral runs through the
    density's own reduction (exact for piecewise-constant densities, a
    series for the counterexample, and for radial ones the panel-bisection
    Gauss-Legendre rule over y = -log u, u = 1/(1 + |x|), plus the counted
    piece beyond the intensity cutoff), which hands the inner expectation h
    a whole array of intensities at a time; h returns the array of their
    Gamma-weight quadratures above, by the same rule. ``tol`` is the
    accuracy demanded, relative to max(1, |value|); it must be finite and
    positive. Raises :class:`QuadratureBudgetExceeded` when either integral
    does not converge or the combined error estimate exceeds ``tol``, as
    happens when the limit is infinite.
    """
    if (tol := _real("tolerance tol", tol)) <= 0:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    dim = density.dim
    inner_tol = tol / 10.0

    def h(intensity):
        value, _ = poisson_expectation(phi, intensity, dim, j, tol=inner_tol)
        return value

    value, outer_err = density.expect_of_intensity(h, tol=tol / 2.0)
    err = outer_err + inner_tol * max(1.0, abs(value))
    if err > tol * max(1.0, abs(value)):
        raise QuadratureBudgetExceeded(
            f"limit functional error estimate {err:.3g} exceeds tolerance {tol:.3g}"
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


def _check_rho(rho: float) -> float:
    """The entropy order rho as a float. A real rho (a bool too) that is not
    finite and positive, or is 1, raises :class:`InvalidRho`; any other is
    refused through :func:`_real`."""
    if isinstance(rho, numbers.Real) and (not 0 < rho < math.inf or rho == 1.0):
        raise InvalidRho(f"rho must be finite, positive and != 1, got {rho}")
    return _real("rho", rho)  # a string, say, or an int past the largest float


def entropy_from_integral(rho: float, i_rho: float) -> EntropyValue:
    """Map a value of the integral of f^rho to both entropies."""
    rho = _check_rho(rho)
    if (i_rho := _real("i_rho", i_rho)) <= 0:
        raise ValueError(f"i_rho must be a positive finite number, got {i_rho}")
    return EntropyValue(
        rho=rho,
        i_rho=i_rho,
        tsallis=(1.0 - i_rho) / (1.0 - rho),
        renyi=math.log(i_rho) / (1.0 - rho),
    )
