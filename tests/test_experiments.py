import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from nnsums import (
    AnnulusBallCounterexample,
    ConditionRefused,
    ConfigError,
    DivergenceSchedule,
    EstimatorConfig,
    GaussianStandard,
    InvalidRho,
    UniformConvexUnion,
    mann_kendall_increasing,
    run_convergence,
    run_divergence,
    run_entropy,
    run_moment_probe,
)

UNIFORM = UniformConvexUnion.unit_cube(2)
CX = AnnulusBallCounterexample(2, 1.0)


def _config(**kw):
    base = dict(model=UNIFORM, j=1, alpha=1.0, n_grid=(200, 800), replications=6, seed=42, q=2)
    base.update(kw)
    return EstimatorConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_bad_grid():
    with pytest.raises(ConfigError, match="strictly increasing"):
        _config(n_grid=(100, 100))
    with pytest.raises(ConfigError, match="strictly increasing"):
        _config(n_grid=(800, 200))
    with pytest.raises(ConfigError, match="positive"):
        _config(n_grid=(0, 10))


def test_config_rejects_bad_counts():
    with pytest.raises(ConfigError):
        _config(replications=0)
    with pytest.raises(ConfigError):
        _config(q=3)
    with pytest.raises(ConfigError):
        _config(j=0)
    with pytest.raises(ConfigError):
        _config(seed=-1)
    with pytest.raises(ConfigError):
        _config(alpha=math.nan)
    # weight functions run only through estimate and limit; a phi key here
    # would otherwise be accepted and then ignored
    with pytest.raises(ConfigError, match="'estimate' and 'limit'"):
        EstimatorConfig.from_dict({"model": "gaussian", "d": 2, "alpha": 1.0, "phi": "nope"})
    with pytest.raises(ConfigError, match="'estimate' and 'limit'"):
        EstimatorConfig.from_dict({"model": "gaussian", "d": 2, "alpha": 1.0, "phi": "log1p"})


def test_config_from_dict():
    cfg = EstimatorConfig.from_dict(
        {
            "model": "gaussian",
            "d": 2,
            "j": 2,
            "alpha": -0.5,
            "n_grid": [100, 400],
            "replications": 3,
            "seed": 9,
            "q": 2,
        }
    )
    assert isinstance(cfg.model, GaussianStandard)
    assert cfg.j == 2 and cfg.alpha == -0.5 and cfg.n_grid == (100, 400)
    override = EstimatorConfig.from_dict(
        {"model": "gaussian", "d": 2, "alpha": 1.0, "n_grid": [10], "seed": 9},
        seed_override=123,
    )
    assert override.seed == 123


def test_config_from_dict_rejects_unknown_keys():
    base = {"model": "gaussian", "d": 2, "alpha": 1.0, "n_grid": [10]}
    # a misspelt key would otherwise be dropped and its default used
    with pytest.raises(ConfigError, match=r"\['beta', 'replicatons'\]"):
        EstimatorConfig.from_dict(dict(base, replicatons=5, beta=3.0))
    cfg = EstimatorConfig.from_dict(
        {"model": "power_law", "d": 2, "beta": 6.0, "alpha": 1.0, "n_grid": [10]}
    )
    assert cfg.model.beta == 6.0


def test_config_from_dict_reads_json_integers_as_floats():
    # "alpha": 1 and "alpha": 1.0 must give the same report bytes
    cfg = EstimatorConfig.from_dict({"model": "gaussian", "d": 2, "alpha": 1, "n_grid": [10]})
    assert type(cfg.alpha) is float


# ---------------------------------------------------------------------------
# Mann-Kendall trend statistic


def test_mann_kendall_strictly_increasing_exact():
    out = mann_kendall_increasing([1.0, 2.0, 3.0, 4.0, 5.0])
    assert out.s == 10
    assert out.p_increasing == pytest.approx(1.0 / 120.0, rel=1e-12)


def test_mann_kendall_decreasing_has_large_p():
    out = mann_kendall_increasing([5.0, 4.0, 3.0, 2.0, 1.0])
    assert out.s == -10
    assert out.p_increasing == pytest.approx(1.0, rel=1e-12)


def test_mann_kendall_normal_approximation_branch():
    values = list(range(12))
    out = mann_kendall_increasing([float(v) for v in values])
    assert out.s == 66
    assert out.p_increasing < 1e-4


def test_mann_kendall_handles_ties():
    out = mann_kendall_increasing([1.0, 1.0, 1.0])
    assert out.s == 0
    assert out.p_increasing == 1.0


def test_mann_kendall_short_sequences():
    assert mann_kendall_increasing([1.0, 2.0]).p_increasing == 0.5
    assert mann_kendall_increasing([2.0, 1.0]).p_increasing == 1.0


def _s_stat(seq) -> int:
    return sum(
        (seq[b] > seq[a]) - (seq[b] < seq[a])
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
    )


def _mann_kendall_oracle(values, walks: dict):
    """(s, p) of the exact branch by walking all m! permutations.

    S depends on the values only through their order, so the walk's
    histogram of S is kept in ``walks`` per sorted tuple of dense ranks.
    """
    vals = [float(v) for v in values]
    rank = {v: r for r, v in enumerate(sorted(set(vals)))}
    key = tuple(sorted(rank[v] for v in vals))
    if key not in walks:
        perms = np.array(list(itertools.permutations(key)))
        pairs = itertools.combinations(range(len(key)), 2)
        s_perms = sum(np.sign(perms[:, b] - perms[:, a]) for a, b in pairs)
        walks[key] = Counter(s_perms.tolist())
    s = _s_stat(vals)
    at_least = sum(count for s_perm, count in walks[key].items() if s_perm >= s)
    return s, at_least / sum(walks[key].values())


def _mann_kendall_inputs(rng, sizes, count):
    """``count`` sequences with lengths cycling through ``sizes``; every
    second cycle draws from fewer integers than the length, so it has ties."""
    for i in range(count):
        m = sizes[i % len(sizes)]
        if i // len(sizes) % 2:
            yield [float(v) for v in rng.integers(0, rng.integers(1, m), size=m)]
        else:
            yield rng.normal(size=m).tolist()


def test_mann_kendall_exact_branch_matches_permutation_walk():
    rng = np.random.default_rng(20261018)
    cases = list(_mann_kendall_inputs(rng, range(3, 9), 600))
    cases += [[2.5] * m for m in range(3, 9)]
    cases += [[1.0, 3.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0], [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]]
    walks: dict = {}
    for vals in cases:
        out = mann_kendall_increasing(vals)
        assert (out.s, out.p_increasing) == _mann_kendall_oracle(vals, walks), vals
    assert sum(len(set(v)) < len(v) for v in cases) >= len(cases) // 2


def test_mann_kendall_normal_branch_matches_scipy_stats():
    from scipy.stats import norm

    rng = np.random.default_rng(7)
    for vals in _mann_kendall_inputs(rng, range(9, 31), 220):
        m = len(vals)
        out = mann_kendall_increasing(vals)
        assert out.s == _s_stat(vals)
        sd = math.sqrt(m * (m - 1) * (2 * m + 5) / 18.0)
        z = (out.s - 1) / sd if out.s > 0 else (out.s + 1) / sd if out.s < 0 else 0.0
        assert out.p_increasing == float(norm.sf(z)), vals


# ---------------------------------------------------------------------------
# convergence runs


def test_convergence_uniform_small():
    result = run_convergence(_config())
    assert result.target == 1.0
    assert len(result.records) == 12
    assert {s.n for s in result.summaries} == {200, 800}
    final = result.summary_for(800)
    assert final.mean == pytest.approx(1.0, rel=0.1)
    assert final.lq_error is not None and final.lq_error >= 0.0
    assert final.std_error > 0.0
    assert "decreasing_p" in result.trend


def test_convergence_is_deterministic(tmp_path):
    a = run_convergence(_config())
    b = run_convergence(_config())
    assert a.records == b.records
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    b.write_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = run_convergence(_config(seed=43))
    assert c.records != a.records


def test_convergence_refuses_without_guarantee():
    cfg = _config(model=CX, alpha=1.5, q=1, n_grid=(50,), replications=2)
    with pytest.raises(ConditionRefused):
        run_convergence(cfg)
    forced = run_convergence(cfg, force=True)
    assert len(forced.records) == 2


def test_convergence_requires_alpha_and_grid():
    with pytest.raises(ConfigError):
        run_convergence(_config(alpha=None))
    with pytest.raises(ConfigError):
        run_convergence(_config(n_grid=()))


def test_csv_layout(tmp_path):
    result = run_convergence(_config(n_grid=(50,), replications=2))
    path = tmp_path / "out.csv"
    result.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "experiment,model,d,j,alpha,q,n,replication,value,target,abs_error"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "converge"
    assert first[1] == "uniform_union"
    assert first[2] == "2" and first[3] == "1"
    assert float(first[8]) > 0.0
    assert float(first[10]) == abs(float(first[8]) - float(first[9]))


def test_json_mirrors_csv(tmp_path):
    result = run_convergence(_config(n_grid=(50,), replications=2))
    path = tmp_path / "out.json"
    result.write_json(path)
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "converge"
    assert len(payload["rows"]) == 2
    assert set(payload["rows"][0]) == {
        "experiment",
        "model",
        "d",
        "j",
        "alpha",
        "q",
        "n",
        "replication",
        "value",
        "target",
        "abs_error",
    }
    assert payload["summaries"][0]["n"] == 50
    with pytest.raises(ConfigError):
        result.write(tmp_path / "out.txt")


def test_write_json_refuses_non_finite(tmp_path):
    result = run_convergence(_config(n_grid=(50,), replications=2))
    result.trend = {"ratio": math.inf}
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        result.write_json(path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# divergence runs


def test_divergence_schedule_values():
    schedule = DivergenceSchedule.from_model(CX, range(2, 8))
    assert schedule.k_grid == (2, 3, 4, 5, 6, 7)
    assert schedule.n_of_k == (2, 4, 8, 16, 32, 64)


def test_divergence_schedule_validation():
    with pytest.raises(ConfigError, match="strictly increasing"):
        DivergenceSchedule(k_grid=(3, 2), n_of_k=(2, 4))
    with pytest.raises(ConfigError, match="no mass"):
        DivergenceSchedule.from_model(CX, [0, 1])


def test_divergence_run_small():
    schedule, result = run_divergence(CX, 1.5, range(2, 6), replications=8, seed=7)
    assert result.target == "divergent"
    assert schedule.n_of_k == (2, 4, 8, 16)
    assert len(result.trend["means"]) == 4
    assert len(result.trend["lower_bound_proxy"]) == 4
    assert "increasing_p" in result.trend
    # target column renders as the word, abs_error stays empty
    rows = list(result.csv_rows())
    assert rows[0]["target"] == "divergent"
    assert rows[0]["abs_error"] is None


def test_divergence_refused_when_conditions_fail():
    with pytest.raises(ConditionRefused):
        run_divergence(CX, 0.2, range(2, 5), replications=2, seed=1)
    # alpha = 0.2 keeps r_c = 1 above the threshold 2*0.2/1.8


def test_divergence_refuses_shell_without_jth_neighbour():
    # n(2) = 2 points at j = 2: no point has a second neighbour
    with pytest.raises(ConfigError, match=r"k=2 with n\(k\)=2 hold at most j=2"):
        run_divergence(CX, 1.5, [2, 3, 4], 2, 1, j=2, force=True)
    schedule, _ = run_divergence(CX, 1.5, [3, 4], 2, 1, j=2)
    assert schedule.n_of_k == (4, 8)


@pytest.mark.filterwarnings("error")
def test_divergence_std_error_stays_finite_past_the_square_overflow(tmp_path):
    # the shell-3 values reach 1e155: their deviations overflow when squared
    # as they are, but not once scaled by a power of two
    _, result = run_divergence(AnnulusBallCounterexample(2, 0.06), 1.95, [2, 3], 300, 2)
    top = result.summaries[1]
    values = [rec.value for rec in result.records if rec.n == top.n]
    shift = math.frexp(max(map(abs, values)))[1]
    scaled = [math.ldexp(v, -shift) for v in values]
    mean = math.fsum(scaled) / len(scaled)
    var = math.fsum((v - mean) ** 2 for v in scaled) / (len(scaled) - 1)
    oracle = math.ldexp(math.sqrt(var / len(scaled)), shift)
    assert math.isfinite(top.mean) and top.mean > 1e150
    assert top.std_error == pytest.approx(oracle, rel=1e-12)
    result.write_json(tmp_path / "out.json")


def test_divergence_trivial_single_shell():
    schedule, result = run_divergence(CX, 1.5, [2], replications=3, seed=11)
    assert schedule.n_of_k == (2,)
    assert "increasing_p" not in result.trend
    assert len(result.records) == 3


# ---------------------------------------------------------------------------
# entropy runs


def test_entropy_uniform_rho_half():
    run = run_entropy(_config(alpha=None), rho=0.5)
    assert run.result.alpha == pytest.approx(1.0)
    assert abs(run.entropy.tsallis) < 5.0 * run.tsallis_std_error + 0.05
    assert abs(run.entropy.renyi) < 5.0 * run.renyi_std_error + 0.05
    assert run.result.experiment == "entropy"


def test_entropy_gaussian_rho_125():
    cfg = EstimatorConfig(
        model=GaussianStandard(2), j=1, n_grid=(500, 2000), replications=6, seed=3, q=2
    )
    run = run_entropy(cfg, rho=1.25)
    # alpha = d(1 - rho) = -0.5 here
    assert run.result.alpha == pytest.approx(-0.5)
    i_true = GaussianStandard(2).i_rho(1.25)
    assert run.entropy.i_rho == pytest.approx(i_true, rel=0.1)
    assert run.entropy.renyi == pytest.approx(math.log(i_true) / (1 - 1.25), rel=0.2)


def test_entropy_invalid_rho():
    with pytest.raises(InvalidRho):
        run_entropy(_config(), rho=1.0)
    with pytest.raises(InvalidRho):
        run_entropy(_config(), rho=0.0)
    for rho in (math.nan, math.inf):
        with pytest.raises(InvalidRho):
            run_entropy(_config(), rho=rho)


# ---------------------------------------------------------------------------
# moment probes


def test_probe_alpha_zero_constant_one():
    result = run_moment_probe(_config(alpha=0.0, n_grid=(50, 100), replications=3), p=3.0)
    for rec in result.records:
        assert rec.value == 1.0


def test_probe_reports_exponent():
    result = run_moment_probe(_config(n_grid=(50, 100), replications=3), p=2.0)
    assert result.trend["exponent"] == 2.0
    assert result.experiment == "probe"
    assert len(result.summaries) == 2
    rows = list(result.csv_rows())
    assert rows[0]["target"] is None or rows[0]["target"] == ""


def test_probe_bounded_under_safe_conditions():
    result = run_moment_probe(_config(n_grid=(100, 400, 1600), replications=4), p=3.0)
    means = result.trend["means"]
    assert max(means) < 10.0 * min(means)
