"""One argument contract for the Python API and the JSON configuration.

An integer argument is what ``operator.index`` takes, never a bool; a real
one is a finite int, float or numpy real, never a bool or a string. Both
rules live in ``nnsums.errors`` (``_integer`` and ``_real``); the CLI's
side of the contract is held in ``tests/test_cli.py``.
"""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnsums import (
    AnnulusBallCounterexample,
    ConditionReport,
    ConfigError,
    DensityModel,
    DivergenceSchedule,
    EstimatorConfig,
    ExperimentResult,
    GaussianStandard,
    NeighborQuery,
    PointSet,
    PowerLawTail,
    UniformConvexUnion,
    check_divergence,
    check_moment_condition,
    check_power_tail,
    condition_report,
    entropy_from_integral,
    gamma_constant,
    knn_distances,
    limit_functional,
    mann_kendall_increasing,
    poisson_expectation,
    poisson_nn_moment,
    run_convergence,
    run_divergence,
    run_entropy,
    run_moment_probe,
    sample_poisson_nn_distances,
    statistic_power,
    unit_ball_volume,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "nnsums"

CX = AnnulusBallCounterexample(2, 1.0)
XS = PointSet(np.random.default_rng(0).random((12, 2)))


def _config(**kw):
    return EstimatorConfig(**({"model": CX, "alpha": 0.5, "n_grid": (8, 16), "replications": 2} | kw))


# Each case of ROADMAP's "Python API takes arguments the CLI refuses", and
# the condition report's: (call, the argument its refusal must name).
_REFUSED = {
    "power-law-d-float": (lambda: PowerLawTail(2.5, 6.0), "dimension d"),
    "gaussian-d-bool": (lambda: GaussianStandard(True), "dimension d"),
    "divergence-k-floats": (lambda: run_divergence(CX, 1.5, [2.5, 3.7], 2, 1), "k_grid"),
    "divergence-alpha-bool": (lambda: run_divergence(CX, True, [2, 3], 2, 1), "alpha"),
    "config-alpha-bool": (lambda: _config(alpha=True), "alpha"),
    "config-alpha-string": (lambda: _config(alpha="1"), "alpha"),
    "knn-j-float": (lambda: knn_distances(XS, 1.5), "j"),
    "knn-j-bool": (lambda: knn_distances(XS, True), "j"),
    "power-sum-j-float": (lambda: statistic_power(XS, 2.0, 1.0), "j"),
    "gamma-j-float": (lambda: gamma_constant(2, 1.5, 1.0), "j"),
    "gamma-d-float": (lambda: gamma_constant(2.5, 1, 1.0), "dimension d"),
    "ball-volume-d-float": (lambda: unit_ball_volume(2.5), "dimension d"),
    "limit-j-float": (lambda: limit_functional(np.sqrt, GaussianStandard(2), j=1.5), "j"),
    "mann-kendall-nan": (lambda: mann_kendall_increasing([1.0, math.nan, 2.0]), "position 1"),
    "report-q-bool": (lambda: condition_report(CX, 1.0, True), "q"),
    "report-alpha-bool": (lambda: condition_report(CX, True, 1), "alpha"),
    "report-alpha-nan": (lambda: condition_report(CX, math.nan, 1), "alpha"),
    "probe-p-huge-int": (lambda: run_moment_probe(_config(), 10**400), "p"),
    # the entropy order, the integral it maps, the tolerance and the intensity
    "entropy-rho-string": (lambda: run_entropy(_config(), "2"), "rho"),
    "entropy-map-rho-string": (lambda: entropy_from_integral("2", 1.0), "rho"),
    "entropy-map-i-rho-bool": (lambda: entropy_from_integral(0.5, True), "i_rho"),
    "limit-tol-bool": (lambda: limit_functional(np.sqrt, GaussianStandard(2), tol=True), "tol"),
    "limit-tol-string": (lambda: limit_functional(np.sqrt, GaussianStandard(2), tol="1"), "tol"),
    "poisson-draws-tau-bool": (
        lambda: sample_poisson_nn_distances(True, 2, 1, 3, np.random.default_rng(0)),
        "tau",
    ),
    "poisson-moment-tau-string": (lambda: poisson_nn_moment("1", 2, 1, 1.0), "tau"),
    "poisson-expectation-tau-bools": (lambda: poisson_expectation(np.sqrt, [True], 2, 1), "tau"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_the_api_refuses_what_the_cli_refuses(case):
    call, name = _REFUSED[case]
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        call()


# public callable, argument -> (the name a refusal gives the argument, a call
# passing the value drawn as that argument and valid values for the rest)
_CALLS = {
    ("GaussianStandard", "d"): ("dimension d", lambda v: GaussianStandard(v)),
    ("PowerLawTail", "d"): ("dimension d", lambda v: PowerLawTail(v, 6.0)),
    ("AnnulusBallCounterexample", "d"): ("dimension d", lambda v: AnnulusBallCounterexample(v, 1.0)),
    ("UniformConvexUnion.unit_cube", "d"): ("dimension d", UniformConvexUnion.unit_cube),
    ("unit_ball_volume", "d"): ("dimension d", unit_ball_volume),
    ("gamma_constant", "d"): ("dimension d", lambda v: gamma_constant(v, 1, 1.0)),
    ("poisson_nn_moment", "d"): ("dimension d", lambda v: poisson_nn_moment(1.0, v, 1, 1.0)),
    ("poisson_expectation", "d"): ("dimension d", lambda v: poisson_expectation(np.sqrt, 1.0, v, 1)),
    ("NeighborQuery", "j"): ("j", lambda v: NeighborQuery(j=v, index=0)),
    ("knn_distances", "j"): ("j", lambda v: knn_distances(XS, v)),
    ("statistic_power", "j"): ("j", lambda v: statistic_power(XS, v, 1.0)),
    ("gamma_constant", "j"): ("j", lambda v: gamma_constant(2, v, 1.0)),
    ("poisson_nn_moment", "j"): ("j", lambda v: poisson_nn_moment(1.0, 2, v, 1.0)),
    ("poisson_expectation", "j"): ("j", lambda v: poisson_expectation(np.sqrt, 1.0, 2, v)),
    ("limit_functional", "j"): ("j", lambda v: limit_functional(np.sqrt, GaussianStandard(2), j=v)),
    ("EstimatorConfig", "j"): ("j", lambda v: _config(j=v)),
    ("run_divergence", "j"): ("j", lambda v: run_divergence(CX, 1.5, [3, 4], 2, 1, j=v)),
    ("DivergenceSchedule.from_model", "k"): ("k_grid", lambda v: DivergenceSchedule.from_model(CX, [v])),
    ("run_divergence", "k"): ("k_grid", lambda v: run_divergence(CX, 1.5, [v], 2, 1)),
    ("condition_report", "q"): ("q", lambda v: condition_report(CX, 1.0, v)),
    ("check_moment_condition", "q"): ("q", lambda v: check_moment_condition(CX, 1.0, v)),
    ("EstimatorConfig", "q"): ("q", lambda v: _config(q=v)),
    ("EstimatorConfig", "replications"): ("replications", lambda v: _config(replications=v)),
    ("run_divergence", "replications"): (
        "replications",
        lambda v: run_divergence(CX, 1.5, [3, 4], v, 1),
    ),
    ("EstimatorConfig", "seed"): ("seed", lambda v: _config(seed=v)),
    ("run_divergence", "seed"): ("seed", lambda v: run_divergence(CX, 1.5, [3, 4], 2, v)),
    ("statistic_power", "alpha"): ("alpha", lambda v: statistic_power(XS, 1, v)),
    ("gamma_constant", "alpha"): ("alpha", lambda v: gamma_constant(2, 1, v)),
    ("poisson_nn_moment", "alpha"): ("alpha", lambda v: poisson_nn_moment(1.0, 2, 1, v)),
    ("condition_report", "alpha"): ("alpha", lambda v: condition_report(CX, v, 1)),
    ("check_moment_condition", "alpha"): ("alpha", lambda v: check_moment_condition(CX, v, 1)),
    ("check_power_tail", "alpha"): ("alpha", lambda v: check_power_tail(CX, v)),
    ("check_divergence", "alpha"): ("alpha", lambda v: check_divergence(CX, v)),
    ("EstimatorConfig", "alpha"): ("alpha", lambda v: _config(alpha=v)),
    ("run_divergence", "alpha"): ("alpha", lambda v: run_divergence(CX, v, [3, 4], 2, 1, force=True)),
    ("run_moment_probe", "p"): ("p", lambda v: run_moment_probe(_config(), v)),
    ("entropy_from_integral", "rho"): ("rho", lambda v: entropy_from_integral(v, 0.5)),
    ("entropy_from_integral", "i_rho"): ("i_rho", lambda v: entropy_from_integral(0.5, v)),
    ("limit_functional", "tol"): ("tol", lambda v: limit_functional(np.sqrt, GaussianStandard(2), tol=v)),
    # the Poisson law's intensity
    ("poisson_nn_moment", "tau"): ("tau", lambda v: poisson_nn_moment(v, 2, 1, 1.0)),
    ("poisson_expectation", "tau"): ("tau", lambda v: poisson_expectation(np.sqrt, v, 2, 1)),
    ("sample_poisson_nn_distances", "tau"): (
        "tau",
        lambda v: sample_poisson_nn_distances(v, 2, 1, 3, np.random.default_rng(0)),
    ),
}

# bools, integral and non-integral floats, a numpy integer, NaN, +-inf and strings
_VALUES = [True, False, 2.0, 1.5, np.int64(2), math.nan, math.inf, -math.inf, "2", "1.5"]


def _numbers(result):
    """Every number a result holds, through the forms the package returns."""
    if isinstance(result, DensityModel):
        result = result.to_config()
    elif isinstance(result, ExperimentResult):
        result = result.to_json_dict()
    elif isinstance(result, ConditionReport) or dataclasses.is_dataclass(result):
        result = vars(result)
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, np.ndarray):
        result = result.tolist()
    if isinstance(result, (list, tuple)):
        return [x for item in result for x in _numbers(item)]
    if isinstance(result, (int, float)):
        return [result]
    assert result is None or isinstance(result, str), type(result)
    return []


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.sampled_from(sorted(_CALLS)), st.sampled_from(_VALUES))
def test_api_either_returns_finite_numbers_or_refuses_naming_the_argument(call, value):
    # the API twin of test_cli_either_reports_finite_numbers_or_refuses
    name, run = _CALLS[call]
    try:
        result = run(value)
    except ValueError as exc:  # ConfigError included
        assert re.search(rf"\b{name}\b", str(exc)), (call, value, str(exc))
        return
    numbers = _numbers(result)
    assert all(math.isfinite(x) for x in numbers), (call, value, numbers)


def test_numpy_integers_run_bitwise(tmp_path):
    # operator.index turns each count into the plain int, so the reports are
    # byte-identical to those of the same runs given Python ints
    def reports(cast, tag):
        config = EstimatorConfig(
            GaussianStandard(cast(2)),
            j=cast(1),
            alpha=1.0,
            n_grid=(cast(20), cast(200)),
            replications=cast(3),
            seed=cast(5),
            q=cast(1),
        )
        _, diverge = run_divergence(
            AnnulusBallCounterexample(cast(2), 1.0), 1.5, [cast(2), cast(3), cast(4)], cast(3), cast(7), j=cast(1)
        )
        out = []
        for name, result in (("converge", run_convergence(config)), ("diverge", diverge)):
            path = tmp_path / f"{name}-{tag}.json"
            result.write(path)
            out.append(path.read_bytes())
        return out

    assert reports(np.int64, "numpy") == reports(int, "python")


def _decides_integers(node) -> bool:
    """Whether an AST node calls ``operator.index`` (or imports ``index``
    from operator) or tests ``isinstance(..., bool)``."""
    if isinstance(node, ast.ImportFrom) and node.module == "operator":
        return any(alias.name == "index" for alias in node.names)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "index":
        return isinstance(func.value, ast.Name) and func.value.id == "operator"
    if isinstance(func, ast.Name) and func.id == "isinstance" and len(node.args) == 2:
        types = node.args[1]
        names = types.elts if isinstance(types, ast.Tuple) else [types]
        return any(isinstance(t, ast.Name) and t.id == "bool" for t in names)
    return False


def test_only_errors_decides_what_an_integer_is():
    # the rule lives in nnsums.errors; a check scattered elsewhere drifts
    found = {
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _decides_integers(node)
    }
    assert {name for name, _ in found} == {"errors.py"}, sorted(found)
