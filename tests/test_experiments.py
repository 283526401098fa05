import argparse
import csv
import gc
import io
import itertools
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnsums import (
    AnnulusBallCounterexample,
    ConditionRefused,
    ConfigError,
    DegenerateStatistic,
    DivergenceSchedule,
    EstimatorConfig,
    ExperimentResult,
    GaussianStandard,
    InvalidRho,
    PointSet,
    PowerLawTail,
    UniformConvexUnion,
    mann_kendall_increasing,
    run_convergence,
    run_divergence,
    run_entropy,
    run_moment_probe,
    statistic_power,
)
from nnsums import cli, experiments, neighbors

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


def test_config_takes_integer_counts_only():
    # each count goes through operator.index, so numpy integers pass
    cfg = _config(j=np.int64(2), q=np.int32(1), replications=np.uint8(3), n_grid=[np.int64(9), 20])
    assert (cfg.j, cfg.q, cfg.replications, cfg.n_grid) == (2, 1, 3, (9, 20))
    assert all(type(v) is int for v in (cfg.j, cfg.q, cfg.replications, *cfg.n_grid))
    for key, bad in [
        ("j", 1.5),
        ("j", True),
        ("q", 1.0),
        ("replications", 2.5),
        ("replications", np.True_),
        ("seed", 4.0),
        ("seed", "4"),
    ]:
        with pytest.raises(ConfigError, match=f"^{key} must be an integer, got"):
            _config(**{key: bad})
    for grid in ([10.0, 20], [10, 20.5], [False, 10]):
        with pytest.raises(ConfigError, match="^every n_grid entry must be an integer"):
            _config(n_grid=grid)
    # a replication index is one 32-bit word of its stream's seed
    assert _config(replications=2**32).replications == 2**32
    for too_many in (2**32 + 1, 2**64):
        with pytest.raises(ConfigError, match="replications must be between 1 and 2\\^32"):
            _config(replications=too_many)


def test_alpha_is_a_finite_real_never_a_bool_or_a_string():
    # alpha=True was accepted, and reported as "alpha": true, while "1" raised
    # TypeError; the JSON path refused both
    for bad in (True, np.True_, "1", [1.0], math.inf, 10**400):
        with pytest.raises(ConfigError, match="^alpha must be a finite number, got"):
            _config(alpha=bad)
        with pytest.raises(ConfigError, match="^alpha must be a finite number, got"):
            run_divergence(CX, bad, [2, 3], 2, 1)
    cfg = _config(alpha=np.float32(0.5))
    assert cfg.alpha == 0.5 and type(cfg.alpha) is float
    assert _config(alpha=np.int64(1)).alpha == 1.0


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


def test_config_needs_a_nonempty_n_grid():
    with pytest.raises(ConfigError, match="configuration needs key 'n_grid'"):
        EstimatorConfig.from_dict({"model": "gaussian", "d": 2, "alpha": 1.0})
    for grid in ((), []):
        with pytest.raises(ConfigError, match="n_grid must not be empty"):
            EstimatorConfig(model=GaussianStandard(2), alpha=1.0, n_grid=grid)
    with pytest.raises(ConfigError, match="n_grid must not be empty"):
        EstimatorConfig(model=GaussianStandard(2), alpha=1.0)


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
    for values in ([], [1.0], [1.0, 1.0]):
        result = mann_kendall_increasing(values)
        assert (result.s, result.p_increasing) == (0, 1.0)
    # a NaN compared false both ways and gave S = 1, p = 0.5
    with pytest.raises(ValueError, match="^the value at position 1 must be a finite number, got nan"):
        mann_kendall_increasing([1.0, math.nan, 2.0])


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
        # every group of t tied values takes t(t-1)(2t+5) off the variance
        ties = sum(t * (t - 1) * (2 * t + 5) for t in Counter(vals).values())
        sd = math.sqrt((m * (m - 1) * (2 * m + 5) - ties) / 18.0)
        z = (out.s - 1) / sd if out.s > 0 else (out.s + 1) / sd if out.s < 0 else 0.0
        assert out.p_increasing == float(norm.sf(z)), vals


def test_mann_kendall_normal_branch_counts_ties():
    # the exact p of eight tied values then two larger ones is 1/90 = 0.0111;
    # the variance without the tie term gave 0.0762, with it 0.0192
    vals = [0.0] * 8 + [1.0, 2.0]
    counts = experiments._inversion_counts([8, 1, 1])
    exact = counts[0] / sum(counts)
    assert exact == pytest.approx(1.0 / 90.0, rel=1e-15)
    out = mann_kendall_increasing(vals)
    assert out.s == 17
    assert out.p_increasing == pytest.approx(0.01916, abs=1e-5)


# ---------------------------------------------------------------------------
# convergence runs


def test_convergence_uniform_small():
    result = run_convergence(_config())
    assert result.target == 1.0
    assert [(n, len(values)) for n, values in result.levels] == [(200, 6), (800, 6)]
    assert {s.n for s in result.summaries} == {200, 800}
    final = result.summary_for(800)
    assert final.mean == pytest.approx(1.0, rel=0.1)
    assert final.lq_error is not None and final.lq_error >= 0.0
    assert final.std_error > 0.0
    assert "decreasing_p" in result.trend


def _levels_equal(a, b) -> bool:
    return [n for n, _ in a.levels] == [n for n, _ in b.levels] and all(
        np.array_equal(va, vb) for (_, va), (_, vb) in zip(a.levels, b.levels)
    )


def test_convergence_is_deterministic(tmp_path):
    a = run_convergence(_config())
    b = run_convergence(_config())
    assert _levels_equal(a, b)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    b.write_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = run_convergence(_config(seed=43))
    assert not _levels_equal(c, a)


def test_convergence_refuses_without_guarantee():
    cfg = _config(model=CX, alpha=1.5, q=1, n_grid=(50,), replications=2)
    with pytest.raises(ConditionRefused):
        run_convergence(cfg)
    forced = run_convergence(cfg, force=True)
    assert [(n, len(values)) for n, values in forced.levels] == [(50, 2)]


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


def _assert_writes_indented_dump(result, path):
    # write_json fills a row template encoded once; its bytes must be those
    # of the plain indented dump
    result.write_json(path)
    want = json.dumps(result.to_json_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert path.read_bytes() == want.encode()


def _estimate_report(tmp_path, weight):
    points = tmp_path / "points.csv"
    points.write_text("0.0,0.0\n1.0,0.5\n0.25,2.0\n3.0,1.0\n")
    config = tmp_path / "estimate.json"
    config.write_text(json.dumps({"points": str(points), **weight}))
    _, result = cli._cmd_estimate(argparse.Namespace(config=str(config)))
    assert [len(values) for _, values in result.levels] == [1]
    return result


def _report_cases(tmp_path) -> dict:
    return {
        "converge": run_convergence(_config(n_grid=(20, 40), replications=3)),
        "diverge": run_divergence(CX, 1.5, range(2, 6), 3, 7)[1],
        "entropy": run_entropy(_config(n_grid=(20, 40), replications=3), rho=0.5),
        "probe": run_moment_probe(_config(model=CX, n_grid=(4, 9), replications=2), p=2.0),
        "estimate_alpha": _estimate_report(tmp_path, {"alpha": 1.0}),
        "estimate_phi": _estimate_report(tmp_path, {"phi": "sqrt"}),
        "no_rows": ExperimentResult("probe", "gaussian", d=2, j=1, alpha=1.0, q=1, target=None),
        # strings escaped on both paths, and a nested "rows" key
        "escapes": ExperimentResult(
            experiment='x"\n\\',
            model_name="mod\u00e9l\u2028",
            d=3,
            j=2,
            alpha=None,
            q=2,
            target="t\tz",
            levels=[(5, np.array([-0.0]))],
            trend={"rows": [], "nested": {"rows": [1, 2]}, "s": "}\n  ]"},
            phi="\u2603",
        ),
        # format directives in the strings the row template holds
        "directives": ExperimentResult(
            experiment="%s %d %%",
            model_name="{n} {0} {{",
            d=2,
            j=1,
            alpha=1.5,
            q=1,
            target="%(n)s",
            levels=[(3, np.array([0.5, 2.0]))],
        ),
        # floats whose repr json writes with a sign, an exponent or 17 digits
        "numeric_target": ExperimentResult(
            "converge", "uniform", d=2, j=1, alpha=1.0, q=1, target=0.1,
            levels=[(4, np.array([-0.0, 5e-324, 1e16, 0.1, 1 / 3]))],
        ),
        # n and replication past 9, over several levels
        "many_rows": ExperimentResult(
            "converge", "uniform", d=2, j=1, alpha=1.0, q=2, target=1 / 3,
            levels=[(n, np.linspace(-1.0, 1.0, n) ** 3) for n in (7, 12, 120, 1031)],
        ),
        # no target: empty target and abs_error cells
        "none_target": ExperimentResult(
            "probe", "gaussian", d=2, j=1, alpha=0.5, q=1, target=None,
            levels=[(n, np.linspace(0.0, 2.0, n) ** 0.5) for n in (3, 1500)],
        ),
    }


def test_write_json_equals_the_indented_dump(tmp_path):
    for name, result in _report_cases(tmp_path).items():
        _assert_writes_indented_dump(result, tmp_path / f"{name}.json")


def test_write_csv_equals_the_csv_module_rows(tmp_path):
    # write_csv fills a row template encoded once; its bytes must be those
    # csv.writer writes for the formatted cells of every row
    cases = _report_cases(tmp_path)
    # the CSV report, unlike the JSON one, takes non-finite values
    cases["non_finite"] = ExperimentResult(
        "converge", "uniform", d=2, j=1, alpha=1.0, q=1, target=-1.5e308,
        levels=[(5, np.array([math.nan, math.inf, -math.inf, 1.5e308, 0.0]))],
    )
    for name, result in cases.items():
        path = tmp_path / f"{name}.csv"
        result.write_csv(path)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(experiments._CSV_COLUMNS)
        for row in result.csv_rows():
            writer.writerow([experiments._fmt(row[c]) for c in experiments._CSV_COLUMNS])
        assert path.read_bytes() == want.getvalue().encode(), name


@pytest.mark.parametrize("where", ["row", "summary"])
def test_write_json_refuses_nan_and_leaves_no_file(tmp_path, where):
    result = run_convergence(_config(n_grid=(50,), replications=2))
    if where == "row":
        result.levels[0][1][1] = math.nan
    else:
        result.summaries[0] = replace(result.summaries[0], mean=math.nan)
    path = tmp_path / "out.json"
    path.write_text("an earlier report\n")
    with pytest.raises(ValueError, match="not JSON compliant"):
        result.write_json(path)
    assert not path.exists()


def test_write_json_refuses_an_overflowing_abs_error_and_leaves_no_file(tmp_path):
    # value and target are finite, but |value - target| is not
    result = ExperimentResult(
        "converge", "uniform", d=2, j=1, alpha=1.0, q=1, target=-1.5e308,
        levels=[(2, np.array([0.0, 1.5e308]))],
    )
    path = tmp_path / "out.json"
    path.write_text("an earlier report\n")
    with pytest.raises(ValueError, match="not JSON compliant"):
        result.write_json(path)
    assert not path.exists()


def test_write_json_streams_its_rows(tmp_path):
    # the rows are formatted a bounded chunk at a time: joined in memory, the
    # 100 000 rows of this level take tens of MiB
    result = ExperimentResult(
        "converge", "uniform", d=2, j=1, alpha=1.0, q=1, target=0.5,
        levels=[(100_000, np.random.default_rng(3).random(100_000))],
    )
    tracemalloc.start()
    try:
        result.write_json(tmp_path / "out.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


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


def test_divergence_schedule_refuses_shells_past_the_witness_cap():
    # n(k) = 2^(k-1) on CX: k = 25 is the last shell within 2^24 points
    assert DivergenceSchedule.from_model(CX, [25]).n_of_k == (2**24,)
    with pytest.raises(ConfigError, match=r"k=26 .* n\(k\) = ceil\(1/F\(A_k\)\) exceeds"):
        DivergenceSchedule.from_model(CX, [2, 26])
    with pytest.raises(ConfigError, match=r"k=3 .* n\(k\)"):
        DivergenceSchedule.from_model(GaussianStandard(2), [1, 2, 3])
    # a subnormal mass, whose 1/F(A_k) overflows
    with pytest.raises(ConfigError, match=r"k=107 .* n\(k\)"):
        DivergenceSchedule.from_model(AnnulusBallCounterexample(2, 10.0), [107])
    with pytest.raises(ConfigError, match=r"k=1100 has outer radius 2\^1101"):
        DivergenceSchedule.from_model(PowerLawTail(2, 2.5), [1100])


def test_divergence_schedule_refuses_shells_sharing_a_size():
    # same-size shells draw the same (seed, n, rep) streams: identical samples
    with pytest.raises(ConfigError, match=r"k=1 and k=2 have n\(k\) = 7 and 7"):
        DivergenceSchedule(k_grid=(1, 2, 3), n_of_k=(7, 7, 9))
    model = PowerLawTail(2, 2.5)
    assert [math.ceil(1.0 / model.annulus_mass(k)) for k in (1, 2, 3)] == [7, 7, 9]
    with pytest.raises(ConfigError, match=r"k=1 and k=2 have n\(k\) = 7 and 7"):
        run_divergence(model, 1.0, [1, 2, 3], 2, 0)


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


def test_forced_divergence_on_a_compact_support_is_refused():
    # unforced, the conditions refuse it; forced, the schedule does
    with pytest.raises(ConditionRefused):
        run_divergence(UNIFORM, 1.0, [0, 1], 2, 0)
    with pytest.raises(ConfigError, match="compact support"):
        run_divergence(UNIFORM, 1.0, [0, 1], 2, 0, force=True)


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
    values = dict(result.levels)[top.n].tolist()
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
    assert [(n, len(values)) for n, values in result.levels] == [(2, 3)]


def test_a_sweep_allocates_no_object_per_replication(tmp_path):
    # diverge-ladder's spec: 1 200 replications at n = 2 ... 256; gc's
    # generation-0 count grows by one per tracked object left alive, and
    # was about 2 500 with one record object per replication
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        _, result = run_divergence(CX, 1.5, range(2, 10), 150, 29)
        result.write_json(tmp_path / "out.json")
        allocated = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert sum(len(values) for _, values in result.levels) == 1200
    assert allocated < 300


# ---------------------------------------------------------------------------
# entropy runs


def test_entropy_uniform_rho_half():
    result = run_entropy(_config(alpha=None), rho=0.5)
    t = result.trend
    assert result.alpha == pytest.approx(1.0)
    assert abs(t["tsallis"]) < 5.0 * t["tsallis_std_error"] + 0.05
    assert abs(t["renyi"]) < 5.0 * t["renyi_std_error"] + 0.05
    assert result.experiment == "entropy"


def test_entropy_gaussian_rho_125():
    cfg = EstimatorConfig(
        model=GaussianStandard(2), j=1, n_grid=(500, 2000), replications=6, seed=3, q=2
    )
    result = run_entropy(cfg, rho=1.25)
    # alpha = d(1 - rho) = -0.5 here
    assert result.alpha == pytest.approx(-0.5)
    i_true = GaussianStandard(2).i_rho(1.25)
    assert result.trend["i_estimate"] == pytest.approx(i_true, rel=0.1)
    assert result.trend["renyi"] == pytest.approx(math.log(i_true) / (1 - 1.25), rel=0.2)


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
    for _, values in result.levels:
        assert (values == 1.0).all()


def test_probe_reports_exponent():
    result = run_moment_probe(_config(n_grid=(50, 100), replications=3), p=2.0)
    assert result.trend["exponent"] == 2.0
    assert result.experiment == "probe"
    assert len(result.summaries) == 2
    rows = list(result.csv_rows())
    assert rows[0]["target"] is None or rows[0]["target"] == ""


def test_probe_refuses_an_exponent_that_overflows_at_every_level(monkeypatch):
    # alpha * p = inf; with every scaled distance below 1 each summand
    # would be 0, so only the exponent check stops a silent 0.0
    model = UniformConvexUnion.unit_cube(2)
    draw = model.sample
    monkeypatch.setattr(model, "sample", lambda rng, size: 1e-3 * draw(rng, size))
    for n in (16, 200):  # a stacked level and one tree per replication
        config = _config(model=model, alpha=1e200, n_grid=(n,), replications=3)
        with pytest.raises(ValueError, match=r"alpha \* p must be a finite number, got inf"):
            run_moment_probe(config, p=1e200)


def test_probe_bounded_under_safe_conditions():
    result = run_moment_probe(_config(n_grid=(100, 400, 1600), replications=4), p=3.0)
    means = result.trend["means"]
    assert max(means) < 10.0 * min(means)


# ---------------------------------------------------------------------------
# stacked replications: one kd-tree per stack, bitwise the per-replication sums


def _stream(seed, n, rep, attempt):
    return np.random.default_rng(np.random.SeedSequence((seed, n, rep, attempt)))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_stream_seeds_from_the_words_of_the_tuple(seed):
    # the sweep seeds from a uint32 word array; it must draw the tuple's stream
    for n, rep, attempt in [(2, 0, 0), (256, 149, 5), (2**24, 2**32 - 1, 2**32), (1, 7, 2**40)]:
        got, want = experiments._stream(seed, n, rep, attempt), _stream(seed, n, rep, attempt)
        assert got.random(16).tolist() == want.random(16).tolist()
        assert got.bit_generator.state == want.bit_generator.state


def _numpy_stream_state(seed, n, rep, attempt):
    state = np.random.PCG64(np.random.SeedSequence((seed, n, rep, attempt))).state["state"]
    return state["state"], state["inc"]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    seed=st.one_of(
        st.integers(0, 2**16),
        st.integers(2**32 - 3, 2**32 + 3),
        st.integers(2**64 - 3, 2**64 + 3),
        st.integers(0, 2**96),
    ),
    n=st.integers(1, 2**24),
    attempt=st.one_of(st.integers(0, 5), st.integers(0, 2**40)),
    replications=st.integers(1, 600),
)
@example(seed=2**32 - 1, n=2**24, attempt=2**40, replications=600)
@example(seed=2**64, n=1, attempt=0, replications=1)
def test_level_streams_equal_numpy_seed_sequence(seed, n, attempt, replications):
    states, incs = experiments._level_streams(seed, n, range(replications), attempt)
    assert len(states) == len(incs) == replications
    for rep, state, inc in zip(range(replications), states, incs):
        assert (state, inc) == _numpy_stream_state(seed, n, rep, attempt), rep


def test_level_streams_up_to_the_last_word_of_rep():
    # a configuration holds at most 2^32 replications, so every rep is one
    # word of the entropy, up to the largest
    reps = range(2**32 - 3, 2**32)
    states, incs = experiments._level_streams(7, 64, reps, 2)
    assert list(zip(states, incs)) == [_numpy_stream_state(7, 64, rep, 2) for rep in reps]


def _stream_index(seed, n, replications):
    """(rep, attempt) of each stream SeedSequence((seed, n, rep, attempt)),
    keyed by its PCG64 state before any draw: the sweep's generators carry
    no seed sequence, so a sample identifies its stream by the state."""
    return {
        _numpy_stream_state(seed, n, rep, attempt)[0]: (rep, attempt)
        for rep in range(replications)
        for attempt in range(experiments._MAX_RESAMPLES + 1)
    }


def _one_tree_each(model, n, j, alpha, seed, replications):
    """Every replication's power sum / n from its own PointSet and tree,
    resampling degenerate draws as the sweep does."""
    values = []
    for rep in range(replications):
        for attempt in range(experiments._MAX_RESAMPLES + 1):
            xs = PointSet(model.sample(_stream(seed, n, rep, attempt), n))
            try:
                values.append(statistic_power(xs, j, alpha) / n)
                break
            except DegenerateStatistic:
                continue
    return values


def _probe_values(model, n, j, alpha, seed, replications):
    config = EstimatorConfig(
        model, j=j, alpha=alpha, n_grid=(n,), replications=replications, seed=seed
    )
    [(_, values)] = run_moment_probe(config, 1.0).levels
    return values.tolist()


@pytest.fixture
def tree_counts(monkeypatch):
    """Counts the sweep's per-replication statistic_power calls and the
    stacked knn_distances calls (point sets of one extra dimension)."""
    counts = Counter()
    power = experiments.statistic_power
    knn = neighbors.knn_distances

    def counted_power(xs, j, alpha):
        counts["per_replication"] += 1
        return power(xs, j, alpha)

    def counted_knn(xs, j):
        counts[f"knn_dim_{xs.dim}"] += 1
        return knn(xs, j)

    monkeypatch.setattr(experiments, "statistic_power", counted_power)
    monkeypatch.setattr(neighbors, "knn_distances", counted_knn)
    return counts


@pytest.mark.parametrize("d", range(1, 13))
def test_stacked_levels_equal_one_tree_per_replication(d, tree_counts):
    model = GaussianStandard(d)
    replications = 70  # two stacks at n = 17, five at n = 64, nine at n = 128
    for n, j in itertools.product((2, 3, 17, 64, 128), (1, 2, 5)):
        if n <= j:
            continue
        for alpha in (1.5, -0.7):
            tree_counts.clear()
            got = _probe_values(model, n, j, alpha, 5, replications)
            stacked = tree_counts[f"knn_dim_{d + 1}"]
            per_replication = tree_counts["per_replication"]
            assert got == _one_tree_each(model, n, j, alpha, 5, replications), (n, j, alpha)
            if d <= 3:
                assert (stacked, per_replication) == (-(-replications // (1024 // n)), 0)
            else:
                assert (stacked, per_replication) == (0, replications)


def test_stacked_levels_stop_above_128_points(tree_counts):
    got = _probe_values(CX, 129, 1, 1.5, 3, 20)
    assert got == _one_tree_each(CX, 129, 1, 1.5, 3, 20)
    assert tree_counts["knn_dim_3"] == 0 and tree_counts["per_replication"] == 20


def test_degenerate_rows_of_a_stack_resample_from_attempt_one(monkeypatch, tree_counts):
    model = UniformConvexUnion.unit_cube(2)
    n, alpha, replications = 17, -1.0, 70
    tied, far = {3, 41, 62}, {7}
    draw = model.sample
    calls = Counter()
    streams = _stream_index(9, n, replications)

    def sample(rng, size):
        rep, attempt = streams[rng.bit_generator.state["state"]["state"]]
        calls[rep] += 1
        pts = draw(rng, size)
        if attempt == 0 and rep in tied:
            pts[1] = pts[0]  # a zero distance under a negative power
        if attempt == 0 and rep in far:
            pts[:, 0] *= 1e200  # squared distances overflow to inf
        return pts

    monkeypatch.setattr(model, "sample", sample)
    expected = _one_tree_each(model, n, 1, alpha, 9, replications)
    calls.clear()
    tree_counts.clear()
    assert _probe_values(model, n, 1, alpha, 9, replications) == expected
    assert all(v > 0 for v in expected)
    assert tree_counts["knn_dim_3"] == 2
    assert tree_counts["per_replication"] == len(tied | far)
    assert {rep for rep, c in calls.items() if c == 2} == tied | far
    assert sum(calls.values()) == replications + len(tied | far)


def test_a_stack_degenerate_at_every_attempt_raises_the_per_replication_error(monkeypatch):
    model = UniformConvexUnion.unit_cube(2)
    monkeypatch.setattr(model, "sample", lambda rng, size: np.zeros((size, 2)))
    with pytest.raises(DegenerateStatistic) as unstacked:
        experiments._replicate_value(model, 8, 1, -1.0, 4, 0, _stream(4, 8, 0, 0))
    with pytest.raises(DegenerateStatistic) as stacked:
        _probe_values(model, 8, 1, -1.0, 4, 10)
    assert str(stacked.value) == str(unstacked.value)


def test_a_stack_too_wide_for_a_finite_offset_runs_one_tree_per_replication(
    monkeypatch, tree_counts
):
    # Odd replications sit, all points tied, at 1e307: the stack spans
    # 1e307 per coordinate, so the gap (4e307) times 39 overflows.
    model = UniformConvexUnion.unit_cube(2)
    draw = model.sample
    streams = _stream_index(6, 2, 40)

    def sample(rng, size):
        rep, _ = streams[rng.bit_generator.state["state"]["state"]]
        return np.full((size, 2), 1e307) if rep % 2 else draw(rng, size)

    monkeypatch.setattr(model, "sample", sample)
    expected = _one_tree_each(model, 2, 1, 1.0, 6, 40)
    tree_counts.clear()
    assert _probe_values(model, 2, 1, 1.0, 6, 40) == expected
    assert expected[1] == 0.0 and expected[0] > 0.0
    assert tree_counts["knn_dim_3"] == 0 and tree_counts["per_replication"] == 40


def test_a_stack_far_wider_in_y_than_in_x_keeps_its_replications_apart(
    monkeypatch, tree_counts
):
    # y spans 1000 times x: a gap taken from the x span alone would let a
    # point's nearest neighbour come from the next replication
    model = UniformConvexUnion.unit_cube(2)
    draw = model.sample

    def sample(rng, size):
        pts = draw(rng, size)
        pts[:, 1] *= 1000.0
        return pts

    monkeypatch.setattr(model, "sample", sample)
    for n in (2, 8, 64):
        expected = _one_tree_each(model, n, 1, 1.0, 11, 40)
        tree_counts.clear()
        assert _probe_values(model, n, 1, 1.0, 11, 40) == expected, n
        assert tree_counts["knn_dim_3"] == -(-40 // (1024 // n))
        assert tree_counts["per_replication"] == 0


def test_degenerate_draws_of_an_unstacked_level_resample_from_their_streams(monkeypatch):
    # attempt 0 draws from the level's generator, the resamples from _stream
    model = UniformConvexUnion.unit_cube(2)
    n, replications = 129, 12
    streams = _stream_index(9, n, replications)
    draw = model.sample
    last_attempt = Counter()

    def sample(rng, size):
        rep, attempt = streams[rng.bit_generator.state["state"]["state"]]
        last_attempt[rep] = max(last_attempt[rep], attempt)
        pts = draw(rng, size)
        if attempt < 2 and rep % 3 == 0:
            pts[1] = pts[0]  # a zero distance under a negative power
        return pts

    monkeypatch.setattr(model, "sample", sample)
    expected = _one_tree_each(model, n, 1, -1.0, 9, replications)
    assert _probe_values(model, n, 1, -1.0, 9, replications) == expected
    assert last_attempt == {rep: 2 if rep % 3 == 0 else 0 for rep in range(replications)}


def test_levels_seeded_in_blocks_keep_their_values(monkeypatch, tree_counts):
    # 70 replications in seed blocks of 50: at n = 17 (60 to a stack) the
    # stacks are cut at the block boundary, 50 + 20
    monkeypatch.setattr(experiments, "_SEED_BLOCK", 50)
    for n, stacks in ((17, 2), (129, 0)):
        expected = _one_tree_each(CX, n, 1, 1.5, 8, 70)
        tree_counts.clear()
        assert _probe_values(CX, n, 1, 1.5, 8, 70) == expected, n
        assert tree_counts["knn_dim_3"] == stacks
