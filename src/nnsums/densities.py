"""Density catalog: sampling models with analytic or semianalytic summaries.

Each model supplies pdf evaluation, exact sampling, the integral of f^rho,
the critical moment (the supremum of the orders r with E|X|^r finite),
and the probability mass of the dyadic annuli A_k (inner radius 2^k, outer
2^(k+1), with A_0 the ball of radius 2); a compact support refuses the
annulus masses, since divergence never holds on one. Those are exactly the
quantities the convergence and divergence conditions are phrased in, so
the catalog doubles as ground truth for the Monte Carlo experiments.

Models:

* :class:`UniformConvexUnion` - uniform on a disjoint union of balls and
  axis-aligned boxes (compact support, pdf bounded away from 0).
* :class:`GaussianStandard` - standard normal, the bounded-density
  exemplar with all moments finite.
* :class:`PowerLawTail` - pdf proportional to (1 + |x|)^(-beta), whose
  critical moment is beta - d.
* :class:`AnnulusBallCounterexample` - mass C * 2^(-r*k) on a unit ball
  inside each annulus A_k; every integral of f^rho is finite yet the
  critical moment is r, which is what makes the divergence experiments
  tick.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammainc

from .errors import ConfigError, QuadratureBudgetExceeded, _integer, _real
from .limits import _adaptive_gauss, _exp_or_refuse, _log_unit_ball_volume, unit_ball_volume


# ---------------------------------------------------------------------------
# support bodies for the uniform model


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with strictly positive volume."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(_real("box corner", v) for v in self.lo)
        hi = tuple(_real("box corner", v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("box corners must share a positive dimension")
        if not all(h > l for l, h in zip(lo, hi)):
            raise ValueError("box must have positive volume")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return math.prod(h - l for l, h in zip(self.lo, self.hi))

    def contains(self, x: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((x >= lo) & (x <= hi), axis=-1)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return lo + (hi - lo) * rng.random((n, self.dim))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball with strictly positive radius.

    A sample is center + radius * v, with v drawn uniformly in the unit
    ball by :func:`_unit_ball_sample`.
    """

    center: tuple
    radius: float

    def __post_init__(self):
        center = tuple(_real("ball center", v) for v in self.center)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", _real("ball radius", self.radius))
        if not center:
            raise ValueError("ball center must have a positive dimension")
        if not self.radius > 0:
            raise ValueError("ball must have positive finite radius")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.dim) * self.radius**self.dim

    def contains(self, x: np.ndarray) -> np.ndarray:
        diff = x - np.asarray(self.center)
        return np.sum(diff * diff, axis=-1) <= self.radius**2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.asarray(self.center) + self.radius * _unit_ball_sample(rng, n, self.dim)


def _unit_ball_sample(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n points uniform in the unit ball of R^d, by rejection from [-1, 1]^d.

    The points are the first n candidates inside the ball, and the
    generator is left just past the n-th: exactly what drawing one
    candidate per missing point, round by round, consumes. A round here
    draws ahead, :func:`_round_size` candidates for the ``need`` missing
    points. If it holds them, the bit generator goes back to the state
    saved before the round and draws again the doubles up to the last
    point kept, which works for every bit generator and keeps a buffered
    32-bit value; a round that comes up short keeps all it found. The
    rewind serves a caller that draws on from ``rng``, which a stack draw
    (:meth:`DensityModel._sample_stack`) does not.

    Raises :class:`ConfigError` from d = 13 on (:func:`_ball_acceptance`).
    """
    accept = _ball_acceptance(d)
    out = np.empty((n, d))
    got = 0
    while got < n:
        need = n - got
        state = rng.bit_generator.state
        v = 2.0 * rng.random((_round_size(need, accept), d)) - 1.0
        inside = (_squared_norms(v) <= 1.0).nonzero()[0]
        if len(inside) >= need:
            inside = inside[:need]
            rng.bit_generator.state = state
            rng.random(int(inside[-1] + 1) * d)
        out[got : got + len(inside)] = v[inside]
        got += len(inside)
    return out


def _ball_acceptance(d: int) -> float:
    """P(inside): the share omega_d / 2^d of the cube [-1, 1]^d in the unit
    ball. Raises :class:`ConfigError` from d = 13 on, where more than 2^12
    candidates per point are expected (omega_d / 2^d is 3.6e-6 at d = 16)."""
    accept = unit_ball_volume(d) / 2.0**d
    if accept < 2.0**-12:
        raise ConfigError(
            f"cannot sample the unit ball in d = {d}: rejection from the cube "
            f"draws {1.0 / accept:.3g} candidates per point, past the cap of 2^12"
        )
    return accept


def _round_size(need: int, accept: float) -> int:
    """Candidates in one draw-ahead round for ``need`` missing points:
    (need + 2 sqrt(need) + 2) / P(inside), but at most 2 * need + 1024 (at
    d = 10 one in 400 lands inside)."""
    return min(math.ceil((need + 2.0 * math.sqrt(need) + 2.0) / accept), 2 * need + 1024)


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """``(v * v).sum(axis=-1)`` for d <= 12 columns, bitwise, summed by columns.

    numpy reduces each short row on its own, which costs about four times
    the column sums at d = 2. Its order is kept: left to right below 8
    terms, and from 8 on the pairwise block of the first 8 and then the
    rest left to right. ``v`` may hold a stack of candidate arrays.
    """
    w = v * v
    c = [w[..., i] for i in range(w.shape[-1])]
    if len(c) >= 8:
        c = [((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7])), *c[8:]]
    total = c[0]
    for col in c[1:]:
        total = total + col
    return total


def _i_rho_or_refuse(rho: float, direct, log_of) -> float:
    """A finite I_rho as ``direct()`` evaluates it, or exp(``log_of()``)
    where that product overflows although its logarithm does not. Raises
    :class:`ConfigError` naming rho when the logarithm overflows too."""
    try:
        value = direct()
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        value = _exp_or_refuse(log_of(), f"I_rho at rho = {rho!r}")
    return value


def _tail_after(last: float, earlier: float, later: float) -> float:
    """The sum of the terms after ``last`` of a geometric series with the
    ratio |later / earlier|: infinite when that is 1 or more, 0 after a 0."""
    if not last:
        return 0.0
    q = abs(later / earlier) if earlier else math.inf
    return last * q / (1.0 - q) if q < 1.0 else math.inf


def _bodies_overlap(a, b) -> bool:
    if isinstance(a, Box) and isinstance(b, Box):
        return all(al < bh and bl < ah for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi))
    if isinstance(a, Ball) and isinstance(b, Ball):
        return math.dist(a.center, b.center) < a.radius + b.radius
    if isinstance(a, Ball):
        a, b = b, a
    # a is the box, b the ball: closest box point to the ball center
    closest = [min(max(c, l), h) for c, l, h in zip(b.center, a.lo, a.hi)]
    return math.dist(closest, b.center) < b.radius


# ---------------------------------------------------------------------------
# the abstract model


class DensityModel(ABC):
    """A sampling density together with its analytic summaries.

    Subclasses are immutable after construction, and their normalizing
    constants are closed forms, so building one runs no quadrature. The
    annulus masses, :meth:`annulus_mass`, come from the radial CDF of a
    radial model or from closed-form shells; a compact support refuses
    them, as it has no shell schedule. :meth:`expect_of_intensity`
    takes its error budget ``tol`` from the caller, with no default.
    Sampling takes a caller-supplied generator; one generator must not be
    shared across concurrent callers, but distinct generators may run in
    parallel. :meth:`sample` leaves the caller's generator just past the
    values it used. A Monte Carlo sweep draws a stack of replications
    through :meth:`_sample_stack` and a seat instead: ``seat(rep)``
    returns a single-use generator on replication rep's stream, for one
    sample, which the next call of ``seat`` may reset.
    """

    name: str = "abstract"

    def __init__(self, dim: int):
        self.dim = _integer("dimension d", dim, 1, what="a positive integer")

    # -- core surface -------------------------------------------------

    @abstractmethod
    def pdf(self, x) -> np.ndarray | float:
        """Density at one point (d,) or at rows of an (n, d) array."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws as an (n, d) array."""

    def _sample_stack(self, seat, reps, n: int, out: np.ndarray) -> None:
        """Fill ``out[i]``, an (n, d) slice of an (s, n, d) array, with
        ``sample(seat(reps[i]), n)``."""
        for i, rep in enumerate(reps):
            out[i] = self.sample(seat(rep), n)

    @abstractmethod
    def i_rho(self, rho: float) -> float:
        """Integral of f^rho over the support; ``math.inf`` when divergent.

        Orders rho <= 0 only make sense on bounded supports with the pdf
        bounded away from zero; elsewhere the integral is infinite. A finite
        integral past the largest float raises :class:`ConfigError` naming
        rho.
        """

    def i_rho_is_finite(self, rho: float) -> bool:
        return math.isfinite(self.i_rho(rho))

    @abstractmethod
    def critical_moment(self) -> float:
        """Supremum of the orders with a finite absolute moment."""

    @abstractmethod
    def annulus_mass(self, k: int) -> float:
        """Probability of the annulus A_k (A_0 is the ball of radius 2).

        Raises :class:`ConfigError` on a compact support, which has no
        shell schedule.
        """

    @abstractmethod
    def expect_of_intensity(self, h, tol: float) -> tuple[float, float]:
        """(value, error) of the integral of h(f(x)) f(x) dx, to within ``tol``.

        ``h`` maps an array of intensities to the array of its values (and
        one intensity to one value); models call it once per batch of
        intensities rather than once per intensity. Piecewise-constant
        models sum exactly or as a series; radial ones integrate over
        u = 1/(1 + |x|) by the panel-bisection Gauss-Legendre rule, one call
        of h per refinement round (see :func:`_radial_expectation`).
        """

    # -- traits used by the convergence checks -------------------------

    @property
    @abstractmethod
    def sup_pdf(self) -> float:
        """Supremum of the density over R^d."""

    @property
    def inf_pdf_on_support(self) -> float:
        """Infimum of the density over its support (0 if not bounded away)."""
        return 0.0

    @property
    def bounded_convex_union_support(self) -> bool:
        """Whether the support is a finite union of bounded convex bodies."""
        return False

    @property
    def power_law_tail_exponent(self) -> float | None:
        """beta when the density decays like |x|^(-beta), else None."""
        return None

    @abstractmethod
    def shell_regularity(self) -> bool:
        """Analytic verdict on the shell-mass ratio condition: consecutive
        annulus masses F(A_k)/F(A_{k-1}) bounded away from 0 and infinity
        for large k."""

    # -- shared helpers -------------------------------------------------

    def to_config(self) -> dict:
        return {"model": self.name, "d": self.dim}

    def __repr__(self) -> str:
        params = {k: v for k, v in self.to_config().items() if k != "model"}
        inner = ", ".join(f"{k}={v}" for k, v in params.items())
        return f"{type(self).__name__}({inner})"


#: The outer integrals hand h no intensity at or below this one: the radial
#: rule and the shell series both stop there and count the rest. Above it the
#: j-th neighbor distance, about g^(-1/d), stays finite in floating point,
#: and so does phi of it for every power phi whose limit is finite.
_MIN_INTENSITY = 1e-300


def _radial_expectation(profile, d: int, h, tol: float) -> tuple[float, float]:
    """(value, error) of the integral of h(f(x)) f(x) dx for a radial
    density f(x) = profile(|x|), decreasing in |x|.

    With u = 1/(1 + s) the radius s runs over (0, 1], and the integral is
    that of F(u) = area * s^(d-1) * f * h(f) / u^2. Its end point is
    u0 = 1/(1 + s0), with s0 the largest power of two at which f is still
    above the intensity cutoff. The adaptive rule integrates over [u0, 1]
    in y = -log u, on which u * F(u) stays smooth even where F grows like
    u^(eps - 1) at 0, as for a power law near its threshold; each round
    hands all its intensities to h in one call. The piece below u0 is
    counted as u0 * F(u0) / eps_hat, where
    eps_hat = 1 + log2(F(2 u0) / F(u0)) measures the decay over the last
    doubling of u; the change in that piece when eps_hat is measured one
    doubling further in goes into the error. Raises
    :class:`QuadratureBudgetExceeded` when eps_hat <= 0, as for an infinite
    limit.
    """
    area = d * unit_ball_volume(d)

    def integrand(y: np.ndarray) -> np.ndarray:  # u * F(u) at u = exp(-y)
        s = np.expm1(y)
        g = profile(s)
        return area * s ** (d - 1) * (1.0 + s) * g * h(g)

    edge = 1.0
    while profile(2.0 * edge) > _MIN_INTENSITY:
        edge *= 2.0
    cut = math.log1p(edge)
    value, err = _adaptive_gauss(integrand, np.linspace(0.0, cut, 9), tol / 10.0)
    # u * F(u) at u0, 2 u0 and 4 u0
    far, mid, near = np.abs(integrand(cut - math.log(2.0) * np.arange(3.0)))
    if far == 0.0:
        return float(value[0]), float(err[0])
    eps_hat = np.log2([mid / far, near / mid])
    if not np.all(eps_hat > 0):
        raise QuadratureBudgetExceeded(
            "radial integrand decays no faster than 1/s at the intensity cutoff "
            f"(eps_hat {np.min(eps_hat):.3g})"
        )
    piece = far / eps_hat
    return float(value[0] + piece[0]), float(err[0] + abs(piece[0] - piece[1]))


# ---------------------------------------------------------------------------
# concrete models


class UniformConvexUnion(DensityModel):
    """Uniform density on a disjoint finite union of balls and boxes.

    Parameters
    ----------
    bodies : sequence of Box or Ball
        Bounded bodies with positive volume, pairwise disjoint, all of the
        same dimension. The pdf is constant 1/total_volume on the union.
    """

    name = "uniform_union"

    def __init__(self, bodies):
        bodies = tuple(bodies)
        if not bodies:
            raise ValueError("need at least one body")
        super().__init__(bodies[0].dim)
        if any(b.dim != self.dim for b in bodies):
            raise ValueError("all bodies must share one dimension")
        for i in range(len(bodies)):
            for k in range(i + 1, len(bodies)):
                if _bodies_overlap(bodies[i], bodies[k]):
                    raise ValueError(f"bodies {i} and {k} overlap")
        self.bodies = bodies
        self.total_volume = sum(b.volume for b in bodies)

    @classmethod
    def unit_cube(cls, d: int) -> "UniformConvexUnion":
        d = _integer("dimension d", d, 1, what="a positive integer")
        return cls([Box(lo=(0.0,) * d, hi=(1.0,) * d)])

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.zeros(x.shape[:-1], dtype=bool)
        for b in self.bodies:
            inside |= b.contains(x)
        out = np.where(inside, 1.0 / self.total_volume, 0.0)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng, n):
        probs = np.array([b.volume for b in self.bodies]) / self.total_volume
        idx = rng.choice(len(self.bodies), size=n, p=probs)
        out = np.empty((n, self.dim))
        for b_i, body in enumerate(self.bodies):
            mask = idx == b_i
            count = int(mask.sum())
            if count:
                out[mask] = body.sample(rng, count)
        return out

    def i_rho(self, rho):
        # exact for every real rho: the pdf is constant on a bounded support
        return _i_rho_or_refuse(
            rho,
            lambda: self.total_volume ** (1.0 - rho),
            lambda: (1.0 - rho) * math.log(self.total_volume),
        )

    def critical_moment(self):
        return math.inf

    def annulus_mass(self, k):
        raise ConfigError(
            "a uniform union has a compact support, which has no shell "
            "schedule: divergence never holds on one"
        )

    def expect_of_intensity(self, h, tol):
        # f is constant on its support, so the integral collapses exactly
        return h(1.0 / self.total_volume), 0.0

    @property
    def sup_pdf(self):
        return 1.0 / self.total_volume

    @property
    def inf_pdf_on_support(self):
        return 1.0 / self.total_volume

    @property
    def bounded_convex_union_support(self):
        return True

    def shell_regularity(self):
        return False  # a compact support refuses the annulus masses

    def to_config(self):
        bodies = []
        for b in self.bodies:
            if isinstance(b, Box):
                bodies.append({"type": "box", "lo": list(b.lo), "hi": list(b.hi)})
            else:
                bodies.append(
                    {"type": "ball", "center": list(b.center), "radius": b.radius}
                )
        return {"model": self.name, "d": self.dim, "bodies": bodies}


class _RadialModel(DensityModel):
    """A density f(x) = _profile(|x|) that decreases in |x|: its pdf, its
    supremum f(0) and its limit integrals all come from the profile, and
    its annulus masses from the radial CDF ``_radial_cdf``."""

    @abstractmethod
    def _profile(self, s: np.ndarray) -> np.ndarray:
        """The density at radius s."""

    @abstractmethod
    def _radial_cdf(self, s: float) -> float:
        """The probability of |X| <= s."""

    def annulus_mass(self, k):
        """The difference of the radial CDF at the radii 2^k and 2^(k+1);
        refused past k = 1022, where 2^(k+1) overflows a float."""
        k = _integer("annulus index", k, 0)
        if k > 1022:
            raise ConfigError(f"shell k={k} has outer radius 2^{k + 1}, past the largest float")
        if k == 0:
            return self._radial_cdf(2.0)
        return self._radial_cdf(2.0 ** (k + 1)) - self._radial_cdf(2.0**k)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = self._profile(np.sqrt(np.sum(x * x, axis=-1)))
        return float(out) if out.ndim == 0 else out

    def expect_of_intensity(self, h, tol):
        return _radial_expectation(self._profile, self.dim, h, tol)

    @property
    def sup_pdf(self):
        return float(self._profile(0.0))


class GaussianStandard(_RadialModel):
    """Standard normal on R^d: mean zero, identity covariance."""

    name = "gaussian"

    def _profile(self, s: np.ndarray) -> np.ndarray:
        return (2.0 * math.pi) ** (-self.dim / 2.0) * np.exp(-0.5 * s * s)

    def _radial_cdf(self, s: float) -> float:
        return float(gammainc(self.dim / 2.0, 0.5 * s * s))

    def sample(self, rng, n):
        return rng.standard_normal((n, self.dim))

    def i_rho(self, rho):
        if rho <= 0:
            return math.inf
        half = self.dim / 2.0
        return _i_rho_or_refuse(
            rho,
            lambda: rho ** (-half) * (2.0 * math.pi) ** (self.dim * (1.0 - rho) / 2.0),
            lambda: -half * math.log(rho) + half * (1.0 - rho) * math.log(2.0 * math.pi),
        )

    def critical_moment(self):
        return math.inf

    def shell_regularity(self):
        return False  # shell masses decay super-geometrically


class PowerLawTail(_RadialModel):
    """Heavy-tailed density f(x) = c_beta * (1 + |x|)^(-beta), beta > d.

    The normalizing constant is c_beta = 1 / (d * omega_d * B(d, beta - d)),
    the critical moment is beta - d, and the integral of f^rho is finite
    exactly when beta * rho > d.

    Sampling draws a uniform direction and a radius S with density
    proportional to s^(d-1) (1 + s)^(-beta), the beta-prime(d, beta - d)
    law. A ratio of independent standard gamma variables has exactly that
    law, so S = G_d / G_(beta - d) needs no inverse of the radial CDF.
    """

    name = "power_law"

    def __init__(self, dim: int, beta: float):
        super().__init__(dim)
        dim, beta = self.dim, _real("beta", beta)
        if not (beta > dim):
            raise ValueError(f"beta must exceed the dimension, got beta={beta}, d={dim}")
        self.beta = beta
        log_b = math.lgamma(dim) + math.lgamma(beta - dim) - math.lgamma(beta)
        self.c_beta = 1.0 / (dim * unit_ball_volume(dim) * math.exp(log_b))

    def _profile(self, s: np.ndarray) -> np.ndarray:
        return self.c_beta * (1.0 + s) ** (-self.beta)

    def _radial_cdf(self, s):
        # With t = 1/(1+s) the radial integral becomes an incomplete Beta
        # integral, so the CDF is 1 - I_{1/(1+s)}(beta - d, d).
        s = np.asarray(s, dtype=float)
        out = 1.0 - betainc(self.beta - self.dim, self.dim, 1.0 / (1.0 + s))
        return float(out) if out.ndim == 0 else out

    def sample(self, rng, n):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            radii = rng.standard_gamma(self.dim, n) / rng.standard_gamma(self.beta - self.dim, n)
            directions = rng.standard_normal((n, self.dim))
            norms = np.sqrt(_squared_norms(directions))
            while np.any(norms == 0.0):  # pragma: no cover - probability zero
                bad = norms == 0.0
                directions[bad] = rng.standard_normal((int(bad.sum()), self.dim))
                norms = np.sqrt(_squared_norms(directions))
            points = radii[:, None] * directions / norms[:, None]
        if not np.isfinite(points).all():
            # P(Gamma(a) < x) is about x^a / Gamma(a + 1): at a small a = beta - d
            # some draws fall below 1e-308, and their radii overflow
            raise ConfigError(
                f"cannot sample the power law with beta = {self.beta!r} in d = {self.dim}: "
                f"a Gamma(beta - d = {self.beta - self.dim:.3g}) draw is too close to 0 "
                "for its radius to be a finite float"
            )
        return points

    def i_rho(self, rho):
        if self.beta * rho <= self.dim:
            return math.inf
        # c_beta^rho * d * omega_d * B(d, beta * rho - d), as for c_beta at rho = 1
        b = self.beta * rho
        log_b = math.lgamma(self.dim) + math.lgamma(b - self.dim) - math.lgamma(b)
        return _i_rho_or_refuse(
            rho,
            lambda: self.c_beta**rho * self.dim * unit_ball_volume(self.dim) * math.exp(log_b),
            lambda: rho * math.log(self.c_beta)
            + math.log(self.dim)
            + _log_unit_ball_volume(self.dim)
            + log_b,
        )

    def i_rho_is_finite(self, rho):
        return self.beta * rho > self.dim

    def critical_moment(self):
        return self.beta - self.dim

    @property
    def power_law_tail_exponent(self):
        return self.beta

    def shell_regularity(self):
        return True  # shell-mass ratios converge to 2^(d - beta)

    def to_config(self):
        return {"model": self.name, "d": self.dim, "beta": self.beta}


class AnnulusBallCounterexample(DensityModel):
    """Piecewise-constant density concentrated on one unit ball per annulus.

    For k >= 2 the unit ball B_k sits at (3 * 2^(k-1), 0, ..., 0), which
    lies strictly inside the annulus A_k, and carries constant density
    C * 2^(-r*k). Consequences: F(A_k) = C * omega_d * 2^(-r*k) exactly,
    consecutive shell-mass ratios equal 2^(-r) for k >= 3, the critical
    moment equals r, and the integral of f^rho is finite for every
    rho > 0. The density is bounded but not continuous; boundedness is
    all the divergence analysis needs.

    A sample draws the shell index k from a shifted geometric law, then an
    offset uniform in the unit ball (:func:`_unit_ball_sample`), and adds
    3 * 2^(k-1) to its first coordinate. That center is +inf in floating
    point from k = 1024 on, and P(k >= 1024) = 2^(-1022 r), so a rate below
    53/1022 is refused: at the bound that probability is 2^-53. A rate at
    which C or C * omega_d overflows, from about r = 512 on, is refused too.
    """

    name = "counterexample"

    def __init__(self, dim: int, r: float):
        super().__init__(dim)
        r = _real("decay rate r", r)
        if not r > 0:
            raise ValueError(f"decay rate r must be positive and finite, got {r}")
        if r < 53 / 1022:
            raise ValueError(
                f"decay rate r={r} is below 53/1022: shells k >= 1024, whose "
                "centers overflow to +inf, would be drawn too often"
            )
        self.r = r
        self._omega = unit_ball_volume(self.dim)
        # sum_{k>=2} 2^(-r k) = 2^(-2r) / (1 - 2^(-r)); C = 1 / (omega_d times
        # it) and C * omega_d, a factor of every shell mass, must be finite
        shell_sum = 2.0 ** (-2.0 * r) / (1.0 - 2.0 ** (-r))
        if not min(1.0, self._omega) * shell_sum > 2.0**-1024:
            raise ValueError(f"decay rate r={r} is too large: the density constant C overflows")
        self.c_norm = 1.0 / (self._omega * shell_sum)

    def center_coordinate(self, k):
        """First coordinate 3 * 2^(k-1) of the center of B_k (k an int or an array)."""
        return 3.0 * 2.0 ** (k - 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        first = x[..., 0]
        # a point of B_k has |x_1 - 3 * 2^(k-1)| <= 1, so log2(x_1 / 3) is
        # within 0.27 of k - 1; past the last finite center f is 0. A sample
        # rounds center + offset, which moves x_1 by up to half its spacing
        # (0.5 from 2^52 on), so that much of the gap is forgiven.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k = np.fmax(np.rint(np.log2(first / 3.0)) + 1.0, 2.0)
            slack = 0.5 * np.spacing(np.abs(first))
            gap = np.maximum(np.abs(first - self.center_coordinate(k)) - slack, 0.0) ** 2
            inside = gap + np.sum(x[..., 1:] * x[..., 1:], axis=-1) <= 1.0
        out = np.where(inside, self.c_norm * 2.0 ** (-self.r * k), 0.0)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng, n):
        k = rng.geometric(1.0 - 2.0 ** (-self.r), size=n) + 1
        offsets = _unit_ball_sample(rng, n, self.dim)
        offsets[:, 0] += self.center_coordinate(k)
        return offsets

    def _sample_stack(self, seat, reps, n, out):
        """Each row bitwise ``sample`` on its stream, in whole-stack steps.

        Per row, one call each draws the n shell indices and the first
        round of :func:`_unit_ball_sample`; the rest runs once over the
        stack: the candidates' norms, the first n inside by their running
        count, and the centers. A row whose first round holds fewer than n
        points inside (one row in 2 000 at d = 3, n = 2, one in 30 000 at
        d = 2) is drawn again by ``sample`` on a new seat.
        """
        s, d = len(reps), self.dim
        shells = np.empty((s, n), dtype=np.int64)
        v = np.empty((s, _round_size(n, _ball_acceptance(d)), d))
        p = 1.0 - 2.0 ** (-self.r)
        for i, rep in enumerate(reps):
            rng = seat(rep)
            shells[i] = rng.geometric(p, size=n)
            rng.random(out=v[i])
        v *= 2.0
        v -= 1.0
        inside = _squared_norms(v) <= 1.0
        count = np.cumsum(inside, axis=1)
        short = count[:, -1] < n
        inside &= count <= n
        inside[short] = False
        out[~short] = v[inside].reshape(-1, n, d)
        out[short] = 0.0  # not left uninitialized under the centres; drawn again below
        out[..., 0] += self.center_coordinate(shells + 1)
        for i in short.nonzero()[0].tolist():
            out[i] = self.sample(seat(reps[i]), n)

    def i_rho(self, rho):
        if rho <= 0:
            # countably many balls of equal volume: f^rho does not integrate
            return math.inf
        rr = self.r * rho
        # 1 - 2^(-r rho) cancels as r rho shrinks (to 0 below about 8e-17);
        # below 2^-6 it is taken as -expm1, above it keeps its bits
        small = rr < 2.0**-6
        gap = -math.expm1(-rr * math.log(2.0)) if small else 1.0 - 2.0 ** (-rr)
        try:
            value = self._omega * self.c_norm**rho * 2.0 ** (-2.0 * rr) / gap
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            # C^rho overflows long before the integral does (C is about
            # 2^(2r) / omega_d): with sup_pdf = C 2^(-2r), the same value is
            # omega_d sup_pdf^rho / (1 - 2^(-r rho))
            value = _i_rho_or_refuse(
                rho,
                lambda: self._omega * self.sup_pdf**rho / gap,
                lambda: math.log(self._omega)
                + rho * math.log(self.sup_pdf)
                - (math.log(gap) if small else math.log1p(-(2.0 ** (-rr)))),
            )
        return value

    def critical_moment(self):
        return self.r

    def annulus_mass(self, k):
        k = _integer("annulus index", k, 0)
        if k < 2:
            return 0.0
        return self.c_norm * self._omega * 2.0 ** (-self.r * k)

    def expect_of_intensity(self, h, tol):
        # h takes every shell above the cutoff in one call; the shells past the
        # last count as one geometric tail, at the ratio of the last two terms.
        # Its error is the change in that tail when the ratio is taken one
        # shell further in, or the whole tail where fewer than three are kept.
        decay = 2.0 ** (-self.r * np.arange(2, 503))
        intensity = self.c_norm * decay
        keep = intensity > _MIN_INTENSITY
        terms = self.c_norm * self._omega * decay[keep] * h(intensity[keep])
        total = float(np.sum(terms))
        *before, prev, last = terms[-3:].tolist()
        tail = _tail_after(last, prev, last)
        err = abs(tail - _tail_after(last, *before, prev)) if before else abs(tail)
        if not err < 0.5 * tol * max(1.0, abs(total)):
            raise QuadratureBudgetExceeded("shell series did not settle within budget")
        return total + tail, err

    @property
    def sup_pdf(self):
        return self.c_norm * 2.0 ** (-2.0 * self.r)

    def shell_regularity(self):
        return True  # ratio is exactly 2^(-r) for k >= 3

    def to_config(self):
        return {"model": self.name, "d": self.dim, "r": self.r}


# ---------------------------------------------------------------------------
# configuration and sampling entry points

#: The default of a table entry whose key must be present.
_REQUIRED = object()
#: The table entry that reads a catalog model; see :func:`_read_config`.
_MODEL = {"model": ("str", _REQUIRED)}


def _kind(what: str, cls: type, item=None):
    """A checker like ``_integer`` of a value of type ``cls``, or a list of ``item``s."""
    def check(name: str, value):
        try:
            if type(value) is cls:
                return value if item is None else [item(name, v) for v in value]
        except ConfigError:
            pass
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return check


# kind -> the checker its values pass (int, float: nnsums.errors), and "<kind>_list" for lists
_KINDS = {"int": _integer, "float": _real}
_KINDS |= {"str": _kind("a string", str), "object": _kind("an object", dict)}
_KINDS |= {
    f"{k}_list": _kind(f"a list, each item {w}", list, _KINDS[k])
    for k, w in [("int", "an integer"), ("float", "a finite number"), ("object", "an object")]
}

# catalog model -> (its keys besides "model" and "d", constructor taking d first)
_CATALOG = {
    "uniform_union": (
        {"bodies": ("object_list", _REQUIRED)},
        lambda d, bodies: UniformConvexUnion([_body_from_config(b, d) for b in bodies]),
    ),
    "gaussian": ({}, GaussianStandard),
    "power_law": ({"beta": ("float", _REQUIRED)}, PowerLawTail),
    "counterexample": ({"r": ("float", _REQUIRED)}, AnnulusBallCounterexample),
}


def _read_config(cfg, table: dict) -> dict:
    """The value, or else the default, of each key of ``table`` in ``cfg``.

    ``table`` maps a key to ``(kind, default)``: kind is a key of ``_KINDS``,
    and the default ``_REQUIRED`` makes the key mandatory. The ``_MODEL``
    entry reads the catalog model ``cfg`` names, with its keys, into a
    :class:`DensityModel`. Raises :class:`ConfigError` naming the key on an
    unknown key, a missing one or a value of the wrong kind.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("configuration must be a JSON object")
    if "model" in table:
        name = cfg.get("model")
        if type(name) is not str or name not in _CATALOG:
            raise ConfigError(f"unknown model {name!r}; expected one of {sorted(_CATALOG)}")
        model_keys, build = _CATALOG[name]
        table = {**table, "d": ("int", _REQUIRED), **model_keys}
    unknown = sorted(cfg.keys() - table.keys())
    if unknown:
        raise ConfigError(
            f"unknown configuration key(s) {unknown}; expected keys from {sorted(table)}"
        )
    values = {}
    for key, (kind, default) in table.items():
        if key not in cfg and default is _REQUIRED:
            raise ConfigError(f"configuration needs key {key!r}")
        values[key] = _KINDS[kind](repr(key), cfg[key]) if key in cfg else default
    if "model" in table:
        try:
            values["model"] = build(values.pop("d"), *(values.pop(k) for k in model_keys))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return values


_BODIES = {
    "box": (Box, {"lo": ("float_list", _REQUIRED), "hi": ("float_list", _REQUIRED)}),
    "ball": (Ball, {"center": ("float_list", _REQUIRED), "radius": ("float", _REQUIRED)}),
}


def _body_from_config(spec: dict, d: int):
    kind = spec.get("type")
    if kind not in ("box", "ball"):
        raise ConfigError(f"body type must be 'box' or 'ball', got {kind!r}")
    cls, keys = _BODIES[kind]
    values = _read_config(spec, {"type": ("str", _REQUIRED), **keys})
    del values["type"]
    try:
        body = cls(**values)
    except ValueError as exc:
        raise ConfigError(f"bad {kind} body: {exc}") from None
    if body.dim != d:
        raise ConfigError(f"body dimension {body.dim} does not match d={d}")
    return body


def model_from_config(cfg: dict) -> DensityModel:
    """Build a catalog model from its JSON configuration.

    Keys, all required, and no others: ``model`` (str: uniform_union,
    gaussian, power_law or counterexample), ``d`` (int >= 1), and per model
    ``bodies`` (a list of {"type": "box", "lo": [float], "hi": [float]} and
    {"type": "ball", "center": [float], "radius": float} objects), ``beta``
    (float > d) or ``r`` (float > 0). An int and a float follow the
    argument rule of :mod:`nnsums.errors`: an int is never 2.0 or a bool.
    """
    return _read_config(cfg, _MODEL)["model"]
