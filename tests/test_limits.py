import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nnsums import (
    EntropyValue,
    GaussianStandard,
    InvalidGammaArgument,
    InvalidRho,
    LimitConstantSpec,
    PowerLawTail,
    QuadratureBudget,
    QuadratureBudgetExceeded,
    UniformConvexUnion,
    entropy_from_integral,
    gamma_constant,
    limit_functional,
    poisson_expectation,
    poisson_nn_moment,
    poisson_nn_tail,
    sample_poisson_nn_distances,
    unit_ball_volume,
)


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
        LimitConstantSpec(d=3, j=1, alpha=-3.0)


def test_gamma_constant_is_unit_intensity_moment():
    for d in (1, 2, 3, 7):
        for j in (1, 2, 5, 29):
            for alpha in (-0.5 * d, -0.3, 0.0, 0.5, 1.0, 2.5, 6.0):
                assert gamma_constant(d, j, alpha) == poisson_nn_moment(1.0, d, j, alpha)


def test_gamma_constant_large_j_stable():
    v = gamma_constant(3, 400, 1.5)
    assert math.isfinite(v) and v > 0


# ---------------------------------------------------------------------------
# Poisson neighbor-distance law


def test_tail_at_zero_is_one():
    assert poisson_nn_tail(1.0, 2, 1, 0.0) == 1.0
    assert poisson_nn_tail(3.7, 3, 4, 0.0) == 1.0


def test_tail_poisson_zero_mass():
    # ball mean 1, j=1: probability the ball is empty is e^{-1}
    t = (1.0 / math.pi) ** 0.5
    assert poisson_nn_tail(1.0, 2, 1, t) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_tail_poisson_mass_at_zero_and_one():
    t = (1.0 / math.pi) ** 0.5
    assert poisson_nn_tail(1.0, 2, 2, t) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)


def test_tail_monotone_in_t_and_j():
    ts = np.linspace(0.0, 3.0, 40)
    for j in (1, 2, 5):
        tail = poisson_nn_tail(2.0, 2, j, ts)
        assert np.all(np.diff(tail) <= 0)
    for t in (0.3, 1.0, 2.5):
        vals = [poisson_nn_tail(2.0, 2, j, t) for j in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_moment_alpha_zero():
    assert poisson_nn_moment(2.5, 3, 2, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_moment_matches_tail_integration_oracle():
    # independent route: E[D^2] = integral of 2 t * P[D > t] dt
    oracle, err = integrate.quad(
        lambda t: 2.0 * t * poisson_nn_tail(1.0, 2, 1, t), 0.0, np.inf
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


def test_limit_functional_normalization():
    # phi == 1 integrates the density itself
    models = [
        UniformConvexUnion.unit_cube(2),
        GaussianStandard(2),
        PowerLawTail(2, 6.0),
    ]
    for model in models:
        assert limit_functional(lambda t: np.ones_like(t), model, j=1) == pytest.approx(
            1.0, abs=1e-6
        )


def test_limit_functional_uniform_alpha_one():
    # gamma(2,1,1) * I_{1/2} = 0.5 on the unit square
    value = limit_functional(lambda t: t, UniformConvexUnion.unit_cube(2), j=1)
    assert value == pytest.approx(0.5, rel=1e-6)


def test_limit_functional_dimension_mismatch():
    with pytest.raises(ValueError):
        limit_functional(lambda t: t, UniformConvexUnion.unit_cube(2), d=3)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_limit_functional_budget_enforced():
    with pytest.raises(QuadratureBudgetExceeded):
        limit_functional(
            lambda t: t,
            GaussianStandard(2),
            j=1,
            budget=QuadratureBudget(tol=1e-15),
        )


def test_quadrature_budget_validation():
    with pytest.raises(ValueError):
        QuadratureBudget(tol=0.0)
    with pytest.raises(ValueError):
        QuadratureBudget(max_subdivisions=1)


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
    assert poisson_nn_tail(tau, d, j, hi) <= poisson_nn_tail(tau, d, j, lo) + 1e-15
