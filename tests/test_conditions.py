import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnsums.conditions as conditions
from nnsums import (
    AnnulusBallCounterexample,
    GaussianStandard,
    PowerLawTail,
    UniformConvexUnion,
    check_divergence,
    check_moment_condition,
    check_power_tail,
    condition_report,
)

UNIFORM = UniformConvexUnion.unit_cube(2)
GAUSS = GaussianStandard(2)
POWER6 = PowerLawTail(2, 6.0)
CX = AnnulusBallCounterexample(2, 1.0)


# ---------------------------------------------------------------------------
# individual predicates


def test_bounded_support_cases():
    assert condition_report(UNIFORM, 1.0, 1).bounded_support
    assert not condition_report(GAUSS, 1.0, 1).bounded_support  # unbounded support
    assert not condition_report(UNIFORM, -0.5, 1).bounded_support  # needs alpha > 0
    assert not condition_report(CX, 1.0, 1).bounded_support  # countably many pieces


def test_negative_alpha_cases():
    assert condition_report(GAUSS, -0.5, 2).negative_alpha  # -1 < -0.5 < 0
    assert condition_report(GAUSS, -1.5, 1).negative_alpha  # -2 < -1.5 < 0
    assert not condition_report(GAUSS, -1.5, 2).negative_alpha  # alpha <= -d/q = -1
    assert not condition_report(GAUSS, 0.5, 1).negative_alpha  # needs alpha < 0
    assert condition_report(UNIFORM, -0.5, 1).negative_alpha  # any bounded pdf qualifies


def test_moment_condition_cases():
    # power tail beta=6: r_c = 4 > threshold 2, and the half-order integral converges
    assert check_moment_condition(POWER6, 1.0, 1)
    # counterexample r=1: r_c = 1 < threshold 2
    assert not check_moment_condition(CX, 1.0, 1)
    # open interval: alpha = d/q excluded
    assert not check_moment_condition(POWER6, 2.0, 1)
    assert not check_moment_condition(POWER6, 1.0, 2)  # q=2 threshold is 4, not beaten
    # divergent integral of f^{1-alpha/d} kills the condition
    assert not check_moment_condition(PowerLawTail(2, 3.0), 1.0, 1)


def test_moment_condition_on_an_integral_past_the_largest_float():
    # rho = 1 - alpha/d = 1.1e-15: the Gaussian's integral of f^rho is
    # finite but too large for a float, and evaluating it raised ConfigError
    report = condition_report(GaussianStandard(40), 39.99999999999996, 1)
    assert report.moment_condition


def test_power_tail_cases():
    assert check_power_tail(POWER6, 1.0)
    assert check_power_tail(PowerLawTail(2, 5.0), 1.0)  # beta*rho = 2.5 > 2
    assert not check_power_tail(PowerLawTail(2, 3.0), 1.0)  # beta*rho = 1.5 < 2
    assert not check_power_tail(GAUSS, 1.0)  # not a power tail
    assert not check_power_tail(POWER6, 2.5)  # alpha outside (0, d)


def test_divergence_cases():
    # alpha = 1.5: threshold alpha*d/(d-alpha) = 6 > r_c = 1
    assert check_divergence(CX, 1.5)
    # power tail has r_c = 4 > 2, no divergence
    assert not check_divergence(POWER6, 1.0)
    # small alpha: threshold 0.5 < r_c = 1
    assert not check_divergence(CX, 0.4)
    # needs 0 < alpha < d
    assert not check_divergence(CX, 2.5)
    assert not check_divergence(CX, -0.5)
    # bounded support means infinite critical moment: never divergent
    assert not check_divergence(UNIFORM, 1.0)


def test_divergence_gaussian_regularity_fails():
    # r_c is infinite, so the moment clause already fails
    assert not check_divergence(GAUSS, 1.5)


def test_threshold_values():
    assert conditions._moment_threshold(1.0, 1, 2) == pytest.approx(2.0)
    assert conditions._moment_threshold(0.4, 1, 2) == pytest.approx(0.5)
    assert conditions._moment_threshold(0.5, 2, 2) == pytest.approx(2.0)
    # the callers hold q and alpha in range
    with pytest.raises(ValueError):
        check_moment_condition(POWER6, 1.0, 3)
    assert not check_moment_condition(POWER6, 2.0, 1)  # alpha = d/q


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([1, 2]),
    d=st.integers(1, 5),
    data=st.data(),
)
def test_threshold_increasing_in_alpha(q, d, data):
    hi = d / q
    a1 = data.draw(st.floats(1e-6, hi * 0.999, exclude_max=True))
    a2 = data.draw(st.floats(1e-6, hi * 0.999, exclude_max=True))
    lo_a, hi_a = sorted((a1, a2))
    if lo_a == hi_a:
        return
    assert conditions._moment_threshold(lo_a, q, d) < conditions._moment_threshold(hi_a, q, d)


# ---------------------------------------------------------------------------
# aggregated report


def test_report_fields_and_json():
    report = condition_report(POWER6, 1.0, 1)
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "alpha",
        "q",
        "bounded_support",
        "negative_alpha",
        "moment_condition",
        "power_tail",
        "divergence",
        "notes",
    }
    assert payload["moment_condition"] is True
    assert payload["power_tail"] is True
    assert payload["divergence"] is False
    assert payload["alpha"] == 1.0
    assert payload["q"] == 1


def test_report_grants():
    assert condition_report(UNIFORM, 1.0, 2).convergence_granted()
    assert condition_report(GAUSS, -0.5, 2).convergence_granted()
    assert condition_report(POWER6, 1.0, 1).convergence_granted()
    assert not condition_report(CX, 1.5, 1).convergence_granted()
    # a power tail alone grants only first-order convergence
    p45 = PowerLawTail(2, 4.5)  # r_c = 2.5 > 2 for q=1, but < 4 for q=2
    assert condition_report(p45, 1.0, 1).convergence_granted()
    assert not condition_report(p45, 1.0, 2).convergence_granted()


def test_report_boundary_note():
    # beta = 4 gives r_c = 2, exactly the q=1 threshold at alpha=1
    boundary = PowerLawTail(2, 4.0)
    report = condition_report(boundary, 1.0, 1)
    assert not report.moment_condition
    assert not report.divergence
    assert any("boundary" in note for note in report.notes)


def test_report_endpoint_note():
    report = condition_report(GAUSS, -1.0, 2)  # alpha = -d/q endpoint
    assert not report.negative_alpha
    assert any("endpoint" in note for note in report.notes)


def test_exclusivity_and_implication_grid():
    models = [
        UNIFORM,
        GAUSS,
        POWER6,
        PowerLawTail(2, 3.0),
        PowerLawTail(2, 4.5),
        CX,
        AnnulusBallCounterexample(2, 0.5),
        AnnulusBallCounterexample(3, 2.0),
    ]
    alphas = [0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.9]
    combos = 0
    for model in models:
        for alpha in alphas:
            for q in (1, 2):
                report = condition_report(model, alpha, q)
                assert not (
                    check_moment_condition(model, alpha, 1) and report.divergence
                ), (model, alpha, q)
                if report.power_tail:
                    assert check_moment_condition(model, alpha, 1), (model, alpha)
                combos += 1
    assert combos >= 100


def test_q_validation():
    with pytest.raises(ValueError):
        condition_report(GAUSS, 1.0, 3)
    with pytest.raises(ValueError):
        condition_report(GAUSS, -0.5, 0)
