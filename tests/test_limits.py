import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaincc

from nnsums import (
    AnnulusBallCounterexample,
    ConfigError,
    EntropyValue,
    GaussianStandard,
    InvalidGammaArgument,
    InvalidRho,
    PowerLawTail,
    QuadratureBudgetExceeded,
    UniformConvexUnion,
    entropy_from_integral,
    gamma_constant,
    limit_functional,
    poisson_expectation,
    poisson_nn_moment,
    sample_poisson_nn_distances,
    unit_ball_volume,
)
from nnsums.experiments import PHI_REGISTRY


# ---------------------------------------------------------------------------
# unit ball volumes and the limit constant


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_unit_ball_volume_large_dimension_finite():
    assert 0.0 < unit_ball_volume(200) < 1e-100


def test_unit_ball_volume_rejects_zero():
    with pytest.raises(ValueError):
        unit_ball_volume(0)


def test_gamma_constant_alpha_zero_is_one():
    for d in (1, 2, 5):
        for j in (1, 2, 7):
            assert gamma_constant(d, j, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_constant_d2_j1_alpha1():
    # pi^{-1/2} * Gamma(3/2) = 1/2
    assert gamma_constant(2, 1, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_gamma_constant_d2_j2_alpha1():
    # pi^{-1/2} * Gamma(5/2) / Gamma(2) = 3/4, by the Gamma recursion
    assert gamma_constant(2, 2, 1.0) == pytest.approx(0.75, rel=1e-13)


def test_gamma_constant_invalid_argument():
    with pytest.raises(InvalidGammaArgument):
        gamma_constant(2, 1, -2.0)
    with pytest.raises(InvalidGammaArgument):
        gamma_constant(3, 1, -3.0)


def test_gamma_constant_is_unit_intensity_moment():
    for d in (1, 2, 3, 7):
        for j in (1, 2, 5, 29):
            for alpha in (-0.5 * d, -0.3, 0.0, 0.5, 1.0, 2.5, 6.0):
                assert gamma_constant(d, j, alpha) == poisson_nn_moment(1.0, d, j, alpha)


def test_gamma_constant_large_j_stable():
    v = gamma_constant(3, 400, 1.5)
    assert math.isfinite(v) and v > 0


def test_gamma_constant_past_the_largest_float_is_refused_naming_alpha():
    # Gamma(1 + 1e6) alone is about e^(1.28e7)
    with pytest.raises(ConfigError, match="alpha = 1000000.0"):
        gamma_constant(1, 1, 1e6)
    with pytest.raises(ConfigError, match="alpha = 400.0"):
        poisson_nn_moment(1e-300, 2, 1, 400.0)


# ---------------------------------------------------------------------------
# Poisson neighbor-distance law


def _poisson_nn_tail(tau: float, d: int, j: int, t):
    """Oracle for P[D_j > t] at intensity tau: the probability that the ball
    of radius t holds fewer than j points, which is the regularized upper
    incomplete gamma function at the ball's Poisson mean."""
    return gammaincc(j, tau * unit_ball_volume(d) * np.asarray(t, dtype=float) ** d)


def test_tail_at_zero_is_one():
    assert _poisson_nn_tail(1.0, 2, 1, 0.0) == 1.0
    assert _poisson_nn_tail(3.7, 3, 4, 0.0) == 1.0


def test_tail_poisson_zero_mass():
    # ball mean 1, j=1: probability the ball is empty is e^{-1}
    t = (1.0 / math.pi) ** 0.5
    assert _poisson_nn_tail(1.0, 2, 1, t) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_tail_poisson_mass_at_zero_and_one():
    t = (1.0 / math.pi) ** 0.5
    assert _poisson_nn_tail(1.0, 2, 2, t) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)


def test_tail_monotone_in_t_and_j():
    ts = np.linspace(0.0, 3.0, 40)
    for j in (1, 2, 5):
        tail = _poisson_nn_tail(2.0, 2, j, ts)
        assert np.all(np.diff(tail) <= 0)
    for t in (0.3, 1.0, 2.5):
        vals = [_poisson_nn_tail(2.0, 2, j, t) for j in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_moment_alpha_zero():
    assert poisson_nn_moment(2.5, 3, 2, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_moment_matches_tail_integration_oracle():
    # independent route: E[D^2] = integral of 2 t * P[D > t] dt
    oracle, err = integrate.quad(
        lambda t: 2.0 * t * _poisson_nn_tail(1.0, 2, 1, t), 0.0, np.inf
    )
    assert err < 1e-10
    value = poisson_nn_moment(1.0, 2, 1, 2.0)
    assert value == pytest.approx(oracle, rel=1e-10)
    assert value == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_moment_intensity_scaling():
    # intensity tau scales the moment by tau^{-alpha/d}
    assert poisson_nn_moment(4.0, 2, 1, 2.0) == pytest.approx(
        1.0 / (4.0 * math.pi), rel=1e-12
    )


def test_moment_consistency_identity_grid():
    # E[D^alpha at intensity tau] = tau^{-alpha/d} * gamma_constant / omega^0
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 50:
        d = int(rng.integers(1, 6))
        j = int(rng.integers(1, 6))
        alpha = float(rng.uniform(-0.9 * d * j, 3.0 * d))
        if j + alpha / d <= 1e-3:
            continue
        tau = float(rng.uniform(0.1, 10.0))
        lhs = poisson_nn_moment(tau, d, j, alpha)
        rhs = tau ** (-alpha / d) * gamma_constant(d, j, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        checked += 1


def test_moment_invalid_argument():
    with pytest.raises(InvalidGammaArgument):
        poisson_nn_moment(1.0, 2, 1, -2.0)
    # a non-finite alpha gave NaN
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            poisson_nn_moment(1.0, 2, 1, alpha)
    with pytest.raises(ValueError, match="alpha must be a finite number"):
        gamma_constant(2, 1, math.nan)


@pytest.mark.parametrize(
    "tau, j", [(-1.0, 1), (0.0, 1), (math.nan, 1), (math.inf, 1), (1.0, 0)]
)
def test_poisson_law_refuses_the_same_arguments_everywhere(tau, j):
    # the sampler returned complex or NaN draws, or raised ZeroDivisionError
    # or IndexError, where the moment and the expectation refuse
    rng = np.random.default_rng(0)
    calls = (
        lambda: sample_poisson_nn_distances(tau, 2, j, 10, rng),
        lambda: poisson_nn_moment(tau, 2, j, 1.0),
        lambda: poisson_expectation(np.sqrt, tau, 2, j),
    )
    for call in calls:
        with pytest.raises(ValueError, match="intensity|neighbor rank"):
            call()


def test_monte_carlo_agreement():
    rng = np.random.default_rng(2024)
    draws = sample_poisson_nn_distances(1.0, 2, 1, 20000, rng)
    closed = poisson_nn_moment(1.0, 2, 1, 1.0)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - closed) < 3.0 * se


def test_monte_carlo_second_neighbor():
    rng = np.random.default_rng(99)
    draws = sample_poisson_nn_distances(2.0, 3, 2, 20000, rng)
    closed = poisson_nn_moment(2.0, 3, 2, 1.0)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - closed) < 3.0 * se


# ---------------------------------------------------------------------------
# inner expectation and the limit functional


def test_poisson_expectation_power_matches_closed_form():
    for tau, d, j, alpha in [(1.0, 2, 1, 1.0), (0.3, 3, 2, 2.0), (5.0, 1, 1, 0.5)]:
        value, err = poisson_expectation(lambda t, a=alpha: t**a, tau, d, j)
        assert value == pytest.approx(poisson_nn_moment(tau, d, j, alpha), rel=1e-9)
        assert err < 1e-8


def test_poisson_expectation_array_matches_scalar_calls():
    taus = np.array([[1e-6, 0.05, 1.0], [3.0, 40.0, 2e5]])
    tol = 1e-9
    for d, j, name in [(1, 1, "sqrt"), (2, 2, "capped"), (3, 1, "log1p")]:
        phi = PHI_REGISTRY[name]
        values, errors = poisson_expectation(phi, taus, d, j, tol=tol)
        assert values.shape == errors.shape == taus.shape
        for tau, value in zip(taus.flat, values.flat):
            scalar, _ = poisson_expectation(phi, float(tau), d, j, tol=tol)
            assert abs(value - scalar) <= tol * max(1.0, abs(scalar))


@pytest.mark.parametrize("d, j", [(1, 1), (2, 2), (3, 1)])
def test_poisson_expectation_kinked_weight_within_tol(d, j):
    # On the kink of min(t, 1) the returned error can understate the true
    # one, but every value still lies within tol of the truth:
    # E[min(D_j, 1)] = integral over [0, 1] of P(D_j > t) = Q(j, tau omega_d t^d).
    taus = np.geomspace(1e-3, 1e3, 200)
    tol = 1e-7
    values, _ = poisson_expectation(PHI_REGISTRY["capped"], taus, d, j, tol=tol)
    omega = unit_ball_volume(d)
    oracle = np.array(
        [
            integrate.quad(
                lambda t, tau=tau: gammaincc(j, tau * omega * t**d),
                0.0,
                1.0,
                epsabs=1e-14,
                epsrel=1e-13,
                limit=200,
            )[0]
            for tau in taus
        ]
    )
    assert np.max(np.abs(values - oracle)) <= tol


def test_poisson_expectation_scalar_intensity_returns_floats():
    value, err = poisson_expectation(np.sqrt, 2.0, 2, 1)
    assert type(value) is float and type(err) is float


def test_poisson_expectation_rejects_nonpositive_intensity():
    for tau in (0.0, -1.0, math.nan, np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="intensity tau must be positive and finite"):
            poisson_expectation(np.sqrt, tau, 2, 1)


def test_limit_functional_normalization():
    # phi == 1 integrates the density itself, and phi == 0 gives 0
    models = [
        UniformConvexUnion.unit_cube(2),
        AnnulusBallCounterexample(2, 1.0),
    ]
    for d in (1, 2, 3):
        models += [GaussianStandard(d), PowerLawTail(d, 6.0)]
    for model in models:
        for phi, limit in [(np.ones_like, 1.0), (np.zeros_like, 0.0)]:
            assert limit_functional(phi, model, j=1) == pytest.approx(limit, abs=1e-6)


def test_limit_functional_uniform_alpha_one():
    # gamma(2,1,1) * I_{1/2} = 0.5 on the unit square
    value = limit_functional(lambda t: t, UniformConvexUnion.unit_cube(2), j=1)
    assert value == pytest.approx(0.5, rel=1e-6)


def test_limit_functional_budget_enforced():
    with pytest.raises(QuadratureBudgetExceeded):
        limit_functional(
            lambda t: t,
            GaussianStandard(2),
            j=1,
            tol=1e-15,
        )


# (alpha, model, j) whose limit for phi(t) = t^alpha is infinite, because
# I_rho diverges at rho = 1 - alpha/d
_DIVERGENT = [
    (1.0, PowerLawTail(1, 3.0), 1),
    (2.0, PowerLawTail(2, 6.0), 2),
    (2.0, PowerLawTail(3, 7.0), 1),
    (2.0, GaussianStandard(2), 1),
    (1.0, GaussianStandard(1), 1),
]


@pytest.mark.parametrize("alpha, model, j", _DIVERGENT, ids=repr)
def test_limit_functional_refuses_infinite_limit(alpha, model, j):
    assert not math.isfinite(model.i_rho(1.0 - alpha / model.dim))
    with pytest.raises(QuadratureBudgetExceeded):
        limit_functional(lambda t: t**alpha, model, j=j)


@pytest.mark.parametrize("model", [PowerLawTail(2, 6.0), PowerLawTail(3, 4.0)], ids=repr)
def test_limit_functional_heavy_tail_is_exact_or_refused(model):
    # Close to the threshold beta * rho = d the integrand decays barely
    # faster than 1/s, and much of the limit lies beyond the intensity
    # cutoff; each value returned must still meet the budget.
    d = model.dim
    returned = 0
    for gap in (0.5, 0.3, 0.2, 0.1, 0.05, 0.02):
        alpha = d * (1.0 - (d + gap) / model.beta)
        closed = gamma_constant(d, 1, alpha) * model.i_rho(1.0 - alpha / d)
        try:
            value = limit_functional(lambda t: t**alpha, model, j=1)
        except QuadratureBudgetExceeded:
            continue
        assert value == pytest.approx(closed, rel=1e-6), gap
        returned += 1
    assert returned >= 2


@pytest.mark.parametrize("r", [0.06, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_counterexample_limit_is_exact_or_refused(d, r):
    # The shell series sums every shell above the intensity cutoff and counts
    # the rest as one geometric tail. Its terms fall like 2^(-r (1 - alpha/d) k),
    # so at r = 0.06 and alpha = d - 0.5 the shells past the last hold at
    # least 2^-15 of the limit: that tail is counted at the ratio of the last
    # terms, which is exact under a power weight, and must be returned.
    model = AnnulusBallCounterexample(d, r)
    returned = 0
    for alpha in (-0.5, 0.5, 1.0, 1.5, 2.0, 2.5):
        if alpha >= d:
            continue
        for j in (1, 2):
            closed = gamma_constant(d, j, alpha) * model.i_rho(1.0 - alpha / d)
            if r == 0.06 and alpha == d - 0.5:
                value = limit_functional(lambda t: t**alpha, model, j=j)
                assert abs(value - closed) <= 1e-6 * max(1.0, abs(closed)), (alpha, j)
                continue
            try:
                value = limit_functional(lambda t: t**alpha, model, j=j)
            except QuadratureBudgetExceeded:
                continue
            assert abs(value - closed) <= 1e-6 * max(1.0, abs(closed)), (alpha, j)
            returned += 1
    assert returned >= 2


@pytest.mark.parametrize(
    "model, alpha, j",
    [(PowerLawTail(1, 1.2), 0.1374, 1), (PowerLawTail(1, 1.2), 0.1374, 3),
     (PowerLawTail(1, 1.05), 0.0184, 1)],
    ids=repr,
)
def test_limit_functional_near_threshold_is_exact_or_refused(model, alpha, j):
    # eps = beta * (1 - alpha/d) - d is 0.035 and 0.031, so the radial
    # integrand falls only like s^-(1 + eps) and much of the limit lies past
    # s = 1e10; tanh-sinh over s once returned these up to 1.8e-5 off
    # against a 1e-6 budget
    closed = gamma_constant(model.dim, j, alpha) * model.i_rho(1.0 - alpha / model.dim)
    try:
        value = limit_functional(lambda t: t**alpha, model, j=j)
    except QuadratureBudgetExceeded:
        return
    assert abs(value - closed) <= 1e-6 * max(1.0, abs(closed))


def _capped_oracle(model, j: int) -> float:
    """The limit for phi(t) = min(t, 1) from the smooth form
    E[min(D_j, 1)] = integral over [0, 1] of Q(j, tau * omega_d * t^d) dt,
    with Q the regularized upper incomplete gamma function: Gauss-Legendre
    in t, adaptive quad over the radius."""
    d = model.dim
    omega = unit_ball_volume(d)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    t, w = 0.5 * (nodes + 1.0), 0.5 * weights

    def integrand(s: float) -> float:
        g = float(model.pdf(np.array([s] + [0.0] * (d - 1))))
        inner = float(np.dot(w, gammaincc(j, g * omega * t**d)))
        return d * omega * s ** (d - 1) * g * inner

    near, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    far, _ = integrate.quad(integrand, 1.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    return near + far


@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize(
    "model",
    [GaussianStandard(1), GaussianStandard(2), GaussianStandard(3),
     PowerLawTail(1, 3.0), PowerLawTail(2, 6.0), PowerLawTail(3, 7.0)],
    ids=repr,
)
def test_limit_functional_capped_weight_matches_oracle(model, j):
    # min(t, 1) has its kink at a different v for every intensity
    value = limit_functional(PHI_REGISTRY["capped"], model, j=j)
    assert value == pytest.approx(_capped_oracle(model, j), rel=1e-6)


def test_limit_functional_raises_no_integration_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, model, j in _DIVERGENT:
            with pytest.raises(QuadratureBudgetExceeded):
                limit_functional(lambda t: t**alpha, model, j=j)
        for model in (GaussianStandard(2), PowerLawTail(1, 3.0)):
            limit_functional(PHI_REGISTRY["capped"], model, j=1)


def test_quadrature_budget_validation():
    # a NaN tolerance would pass every `err > tol` budget check
    for tol in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            limit_functional(lambda t: t, GaussianStandard(2), j=1, tol=tol)


# ---------------------------------------------------------------------------
# entropy transforms


def test_entropy_uniform_cube_is_zero():
    out = entropy_from_integral(0.5, 1.0)
    assert out.tsallis == 0.0
    assert out.renyi == 0.0


def test_entropy_direct_substitution():
    out = entropy_from_integral(2.0, 0.5)
    assert out.tsallis == pytest.approx(-0.5, rel=1e-15)
    assert out.renyi == pytest.approx(math.log(2.0), rel=1e-15)


def test_entropy_gaussian_value():
    # I_{5/4} for the planar standard normal, from its closed form
    i_rho = 0.8 * (2.0 * math.pi) ** (-0.25)
    assert GaussianStandard(2).i_rho(1.25) == pytest.approx(i_rho, rel=1e-13)
    out = entropy_from_integral(1.25, i_rho)
    assert out.tsallis == pytest.approx((1.0 - i_rho) / (1.0 - 1.25), rel=1e-13)
    assert out.renyi == pytest.approx(math.log(i_rho) / (1.0 - 1.25), rel=1e-13)
    assert isinstance(out, EntropyValue)


def test_entropy_invalid_rho():
    with pytest.raises(InvalidRho):
        entropy_from_integral(1.0, 0.5)
    with pytest.raises(InvalidRho):
        entropy_from_integral(-0.5, 0.5)
    with pytest.raises(ValueError):
        entropy_from_integral(0.5, math.inf)
    # a non-finite rho gave NaN or signed-zero entropies
    for rho in (math.nan, math.inf):
        with pytest.raises(InvalidRho):
            entropy_from_integral(rho, 0.5)


# ---------------------------------------------------------------------------
# hypothesis: the tail is a proper survival function


@settings(max_examples=30, deadline=None)
@given(
    tau=st.floats(0.05, 20.0),
    d=st.integers(1, 5),
    j=st.integers(1, 5),
    t1=st.floats(0.0, 5.0),
    t2=st.floats(0.0, 5.0),
)
def test_tail_monotone_property(tau, d, j, t1, t2):
    lo, hi = sorted((t1, t2))
    assert _poisson_nn_tail(tau, d, j, hi) <= _poisson_nn_tail(tau, d, j, lo) + 1e-15
