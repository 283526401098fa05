"""Monte Carlo experiment harness: convergence, divergence, entropy and
moment-probe runs with reproducible seeds and CSV/JSON reporting.

Replication streams are derived from (seed, n, replication, attempt)
through a SeedSequence, so results do not depend on execution order and
identical configurations reproduce byte-identical reports.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from .conditions import check_divergence, condition_report
from .densities import _MODEL, _REQUIRED, DensityModel, _read_config
from .errors import ConditionRefused, ConfigError, DegenerateStatistic
from .limits import EntropyValue, _check_rho, entropy_from_integral, gamma_constant
from .neighbors import statistic_power
from .points import PointSet

#: Named weight functions accepted wherever an exponent would go. All have
#: polynomial growth, which is what the limit theory asks of them.
PHI_REGISTRY = {
    "identity": lambda t: t,
    "sqrt": np.sqrt,
    "square": lambda t: t * t,
    "log1p": np.log1p,
    "capped": lambda t: np.minimum(t, 1.0),
}


def resolve_phi(name: str):
    try:
        return PHI_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown weight function {name!r}; expected one of {sorted(PHI_REGISTRY)}"
        ) from None


_MAX_RESAMPLES = 5


#: The keys :meth:`EstimatorConfig.from_dict` reads, besides the model's.
_ESTIMATOR_KEYS = {
    **_MODEL,
    "j": ("int", 1),
    "alpha": ("float", None),
    "n_grid": ("int_list", ()),
    "replications": ("int", 1),
    "seed": ("int", 0),
    "q": ("int", 1),
}


@dataclass(frozen=True)
class EstimatorConfig:
    """One statistic evaluation plan: model, rank, exponent, sizes, seeds."""

    model: DensityModel
    j: int = 1
    alpha: float | None = None
    n_grid: tuple = ()
    replications: int = 1
    seed: int = 0
    q: int = 1

    def __post_init__(self):
        if self.j < 1:
            raise ConfigError(f"j must be >= 1, got {self.j}")
        if self.q not in (1, 2):
            raise ConfigError(f"q must be 1 or 2, got {self.q}")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if any(n < 1 for n in grid):
            raise ConfigError("sample sizes must be positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"n_grid must be strictly increasing, got {grid}")
        if grid and grid[0] <= self.j:
            raise ConfigError(
                f"n_grid size n={grid[0]} holds at most j={self.j} points, so no point "
                "has a j-th neighbour and the sum is always 0"
            )
        if self.alpha is not None and not math.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha}")

    @classmethod
    def from_dict(cls, cfg: dict, seed_override: int | None = None) -> "EstimatorConfig":
        """Read a JSON configuration with the keys of ``_ESTIMATOR_KEYS``;
        ``seed_override``, when given, replaces its seed."""
        if isinstance(cfg, dict) and "phi" in cfg:
            raise ConfigError(
                "the Monte Carlo runs take a power 'alpha', not 'phi'; "
                "weight functions run through 'estimate' and 'limit'"
            )
        values = _read_config(cfg, _ESTIMATOR_KEYS)
        if seed_override is not None:
            values["seed"] = seed_override
        return cls(**values)

    def require_alpha(self) -> float:
        if self.alpha is None:
            raise ConfigError("this experiment needs a numeric exponent 'alpha'")
        return self.alpha


@dataclass(frozen=True)
class DivergenceSchedule:
    """Shell indices with the witness sample sizes n(k) = ceil(1 / F(A_k))."""

    k_grid: tuple
    n_of_k: tuple

    def __post_init__(self):
        if len(self.k_grid) != len(self.n_of_k):
            raise ConfigError("schedule lengths differ")
        if any(b <= a for a, b in zip(self.k_grid, self.k_grid[1:])):
            raise ConfigError("k_grid must be strictly increasing")
        if any(b < a for a, b in zip(self.n_of_k, self.n_of_k[1:])):
            raise ConfigError("witness sizes must be nondecreasing in k")

    @classmethod
    def from_model(cls, model: DensityModel, k_grid) -> "DivergenceSchedule":
        k_grid = tuple(int(k) for k in k_grid)
        sizes = []
        for k in k_grid:
            mass = model.annulus_mass(k)
            if mass <= 0.0:
                raise ConfigError(f"annulus {k} carries no mass; cannot schedule it")
            sizes.append(math.ceil(1.0 / mass))
        return cls(k_grid=k_grid, n_of_k=tuple(sizes))


@dataclass(frozen=True)
class MannKendallResult:
    """Monotone-trend statistic: S and the one-sided increasing p-value."""

    s: int
    p_increasing: float


def _inversion_counts(multiplicities) -> list:
    """Number of distinct arrangements of a multiset with each inversion count.

    Coefficient i of the q-multinomial [m]_q! / prod_g [m_g]_q!, with
    [k]_q = 1 + q + ... + q^(k-1) and m the sum of the multiplicities m_g
    (Knuth, TAOCP vol. 3, 5.1.2): the numerator is built by products, then
    divided exactly by each [k]_q of the denominator.
    """
    counts = [1]
    for k in range(2, sum(multiplicities) + 1):
        counts = [sum(counts[max(0, i - k + 1) : i + 1]) for i in range(len(counts) + k - 1)]
    for mult in multiplicities:
        for k in range(2, mult + 1):
            # counts = quotient * [k]_q, so quotient[i] = counts[i] - counts[i-1] + quotient[i-k]
            quotient = []
            for i in range(len(counts) - k + 1):
                below = counts[i - 1] if i else 0
                quotient.append(counts[i] - below + (quotient[i - k] if i >= k else 0))
            counts = quotient
    return counts


def mann_kendall_increasing(values) -> MannKendallResult:
    """Mann-Kendall test for an increasing trend.

    Exact permutation p-value up to 8 observations, normal approximation
    with continuity correction beyond that. The exact branch counts
    inversions instead of walking the m! permutations: a permutation of the
    values has S = T - 2 * inv, with T the number of untied pairs, so the
    share of permutations with S >= s is the share of distinct arrangements
    with at most (T - s) / 2 inversions (Kendall & Gibbons, Rank Correlation
    Methods, 1990). The ratio of the two integer counts rounds once, so p is
    the float the permutation walk gives.
    """
    vals = [float(v) for v in values]
    m = len(vals)
    s = sum(
        (vals[b] > vals[a]) - (vals[b] < vals[a]) for a in range(m) for b in range(a + 1, m)
    )
    if m < 3:
        return MannKendallResult(s=s, p_increasing=1.0 if s <= 0 else 0.5)
    if m <= 8:
        multiplicities = list(Counter(vals).values())
        untied = m * (m - 1) // 2 - sum(g * (g - 1) // 2 for g in multiplicities)
        counts = _inversion_counts(multiplicities)
        at_least = sum(counts[: (untied - s) // 2 + 1])
        return MannKendallResult(s=s, p_increasing=at_least / sum(counts))
    var = m * (m - 1) * (2 * m + 5) / 18.0
    if s > 0:
        z = (s - 1) / math.sqrt(var)
    elif s < 0:
        z = (s + 1) / math.sqrt(var)
    else:
        z = 0.0
    return MannKendallResult(s=s, p_increasing=float(ndtr(-z)))


@dataclass(frozen=True)
class RunRecord:
    n: int
    replication: int
    value: float


@dataclass(frozen=True)
class SizeSummary:
    n: int
    mean: float
    lq_error: float | None
    std_error: float


_CSV_COLUMNS = (
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
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


@dataclass
class ExperimentResult:
    """Per-replication records plus per-size summaries of one experiment."""

    experiment: str
    model_name: str
    d: int
    j: int
    alpha: float | None
    q: int
    target: float | str | None
    records: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    trend: dict = field(default_factory=dict)
    phi: str | None = None

    def _target_cell(self):
        if isinstance(self.target, float) and not math.isfinite(self.target):
            return "divergent"
        return self.target

    def csv_rows(self):
        target = self._target_cell()
        numeric_target = isinstance(target, float)
        for rec in sorted(self.records, key=lambda r: (r.n, r.replication)):
            abs_error = abs(rec.value - target) if numeric_target else None
            yield {
                "experiment": self.experiment,
                "model": self.model_name,
                "d": self.d,
                "j": self.j,
                "alpha": self.alpha,
                "q": self.q,
                "n": rec.n,
                "replication": rec.replication,
                "value": rec.value,
                "target": target,
                "abs_error": abs_error,
            }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for row in self.csv_rows():
                writer.writerow([_fmt(row[c]) for c in _CSV_COLUMNS])

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "model": self.model_name,
            "d": self.d,
            "j": self.j,
            "alpha": self.alpha,
            "q": self.q,
            "phi": self.phi,
            "target": self._target_cell(),
            "rows": list(self.csv_rows()),
            "summaries": [
                {
                    "n": s.n,
                    "mean": s.mean,
                    "lq_error": s.lq_error,
                    "std_error": s.std_error,
                }
                for s in self.summaries
            ],
            "trend": self.trend,
        }

    def write_json(self, path) -> None:
        try:
            with open(path, "w") as fh:
                json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
                fh.write("\n")
        except ValueError:
            # A non-finite value: leave no truncated report behind.
            os.remove(path)
            raise

    def write(self, path) -> None:
        path = str(path)
        if path.endswith(".csv"):
            self.write_csv(path)
        elif path.endswith(".json"):
            self.write_json(path)
        else:
            raise ConfigError(f"output path must end in .csv or .json, got {path}")

    def summary_for(self, n: int) -> SizeSummary:
        for s in self.summaries:
            if s.n == n:
                return s
        raise KeyError(n)


def _replicate_value(model, n, j, alpha, seed, rep) -> float:
    """One replication of the power sum, resampling degenerate draws."""
    last = None
    for attempt in range(_MAX_RESAMPLES + 1):
        rng = np.random.default_rng(np.random.SeedSequence((seed, n, rep, attempt)))
        xs = PointSet(model.sample(rng, n))
        try:
            return statistic_power(xs, j, alpha)
        except DegenerateStatistic as exc:
            last = exc
    raise DegenerateStatistic(
        f"{_MAX_RESAMPLES} resamples in a row degenerate at n={n}: {last}"
    )


def _summarize(values: np.ndarray, n: int, target, q: int) -> SizeSummary:
    mean = float(values.mean())
    lq = None
    if isinstance(target, float) and math.isfinite(target):
        lq = float(np.mean(np.abs(values - target) ** q))
    return SizeSummary(n=n, mean=mean, lq_error=lq, std_error=_std_error(values))


def _std_error(values: np.ndarray) -> float:
    """Standard error of the mean; 0 for a single value.

    Deviations beyond about 1e154 overflow when squared, so a non-finite
    result from finite values is computed again on values / max|v|.
    """
    if len(values) < 2:
        return 0.0
    root_n = math.sqrt(len(values))
    with np.errstate(over="ignore"):
        se = float(values.std(ddof=1) / root_n)
    if not math.isfinite(se) and np.isfinite(values).all():
        top = float(np.abs(values).max())
        se = top * float((values / top).std(ddof=1) / root_n)
    return se


def _sweep(result, model, sizes, alpha, replications, seed, scale=1.0) -> None:
    """Run every replication at each sample size into ``result``.

    Each value is the power sum with exponent ``alpha`` and rank
    ``result.j``, divided by scale * n. ``result`` gains one record per
    (n, replication) and one summary per n, whose L^q error is taken
    against ``result.target`` when that is a finite float.
    """
    for n in sizes:
        vals = np.array(
            [
                _replicate_value(model, n, result.j, alpha, seed, rep) / (scale * n)
                for rep in range(replications)
            ]
        )
        for rep, v in enumerate(vals):
            result.records.append(RunRecord(n=n, replication=rep, value=float(v)))
        result.summaries.append(_summarize(vals, n, result.target, result.q))


def _increasing_trend(trend: dict, means: list) -> None:
    if len(means) >= 2:
        mk = mann_kendall_increasing(means)
        trend["increasing_s"] = mk.s
        trend["increasing_p"] = mk.p_increasing


def run_convergence(config: EstimatorConfig, force: bool = False) -> ExperimentResult:
    """Estimate the f^(1-alpha/d) integral on each sample size of the grid.

    Requires a condition report granting L^q convergence unless ``force``
    is set. The reported value per replication is the normalized sum
    gamma^{-1} n^{-1} S_{n,alpha}; its target is the integral itself.
    """
    alpha = config.require_alpha()
    if not config.n_grid:
        raise ConfigError("n_grid must not be empty")
    model = config.model
    report = condition_report(model, alpha, config.q)
    if not report.convergence_granted() and not force:
        raise ConditionRefused(
            f"no L^{config.q} guarantee for {model!r} with alpha={alpha}"
            + (f" ({'; '.join(report.notes)})" if report.notes else "")
            + "; pass force to run anyway"
        )
    d = model.dim
    gam = gamma_constant(d, config.j, alpha)
    target = model.i_rho(1.0 - alpha / d)
    result = ExperimentResult(
        experiment="converge",
        model_name=model.name,
        d=d,
        j=config.j,
        alpha=alpha,
        q=config.q,
        target=float(target),
    )
    _sweep(result, model, config.n_grid, alpha, config.replications, config.seed, scale=gam)
    errors = [s.lq_error for s in result.summaries if s.lq_error is not None]
    if len(errors) >= 2:
        mk = mann_kendall_increasing([-e for e in errors])
        result.trend = {
            "lq_errors": errors,
            "decreasing_s": mk.s,
            "decreasing_p": mk.p_increasing,
        }
    return result


def run_divergence(
    model: DensityModel,
    alpha: float,
    k_grid,
    replications: int,
    seed: int,
    j: int = 1,
    force: bool = False,
) -> tuple[DivergenceSchedule, ExperimentResult]:
    """Witness the unbounded mean of n^{-1} S_{n,alpha} along n(k).

    For each shell index k the sample size is n(k) = ceil(1 / F(A_k));
    the result carries the per-k means, a Mann-Kendall increasing-trend
    test, the last/first ratio, and the analytic lower-bound proxy
    F(A_k)^(1-alpha/d) * 2^(k*alpha) for comparison.
    """
    if replications < 1:
        raise ConfigError(f"replications must be >= 1, got {replications}")
    k_grid = tuple(k_grid)
    if not k_grid:
        raise ConfigError("k_grid must not be empty")
    if not check_divergence(model, alpha) and not force:
        raise ConditionRefused(
            f"divergence conditions do not hold for {model!r} with alpha={alpha}; "
            "pass force to run anyway"
        )
    schedule = DivergenceSchedule.from_model(model, k_grid)
    empty = [(k, n) for k, n in zip(schedule.k_grid, schedule.n_of_k) if n <= j]
    if empty:
        shells = ", ".join(f"k={k} with n(k)={n}" for k, n in empty)
        raise ConfigError(
            f"shell(s) {shells} hold at most j={j} points, so no point has a "
            "j-th neighbour and the sum is always 0"
        )
    d = model.dim
    result = ExperimentResult(
        experiment="diverge",
        model_name=model.name,
        d=d,
        j=j,
        alpha=alpha,
        q=1,
        target="divergent",
    )
    _sweep(result, model, schedule.n_of_k, alpha, replications, seed)
    means = [s.mean for s in result.summaries]
    trend: dict = {
        "k_grid": list(schedule.k_grid),
        "n_of_k": list(schedule.n_of_k),
        "means": means,
        "lower_bound_proxy": [
            model.annulus_mass(k) ** (1.0 - alpha / d) * 2.0 ** (k * alpha)
            for k in schedule.k_grid
        ],
    }
    _increasing_trend(trend, means)
    if len(means) >= 2:
        trend["last_over_first"] = means[-1] / means[0] if means[0] else math.inf
    result.trend = trend
    return schedule, result


@dataclass(frozen=True)
class EntropyRun:
    """Entropy estimates with Monte Carlo error bars and the raw run."""

    entropy: EntropyValue
    i_std_error: float
    tsallis_std_error: float
    renyi_std_error: float
    result: ExperimentResult


def run_entropy(config: EstimatorConfig, rho: float, force: bool = False) -> EntropyRun:
    """Estimate both entropies of order rho from the neighbor sums.

    The exponent is alpha = d * (1 - rho); the integral estimate at the
    largest sample size feeds the entropy transforms, and its standard
    error propagates through them by the delta method.
    """
    _check_rho(rho)
    d = config.model.dim
    alpha = d * (1.0 - rho)
    conv = run_convergence(replace(config, alpha=alpha), force=force)
    conv.experiment = "entropy"
    top = conv.summaries[-1]
    i_hat = top.mean
    se = top.std_error
    entropy = entropy_from_integral(rho, i_hat)
    scale = abs(1.0 - rho)
    run = EntropyRun(
        entropy=entropy,
        i_std_error=se,
        tsallis_std_error=se / scale,
        renyi_std_error=se / (scale * i_hat),
        result=conv,
    )
    conv.trend = dict(conv.trend)
    conv.trend.update(
        {
            "rho": rho,
            "i_estimate": i_hat,
            "i_std_error": se,
            "tsallis": entropy.tsallis,
            "tsallis_std_error": run.tsallis_std_error,
            "renyi": entropy.renyi,
            "renyi_std_error": run.renyi_std_error,
        }
    )
    return run


def run_moment_probe(config: EstimatorConfig, p: float) -> ExperimentResult:
    """Empirical E[(n^{1/d} D_j)^(alpha p)] across the size grid.

    Bounded profiles back up the convergence conditions; growth along a
    divergence schedule shows the moment hypothesis failing. Purely
    diagnostic, so no condition gate applies.
    """
    alpha = config.require_alpha()
    if not config.n_grid:
        raise ConfigError("n_grid must not be empty")
    if not math.isfinite(p):
        raise ConfigError(f"p must be finite, got {p}")
    model = config.model
    exponent = alpha * p
    result = ExperimentResult(
        experiment="probe",
        model_name=model.name,
        d=model.dim,
        j=config.j,
        alpha=alpha,
        q=config.q,
        target=None,
        trend={"p": p, "exponent": exponent},
    )
    _sweep(result, model, config.n_grid, exponent, config.replications, config.seed)
    means = [s.mean for s in result.summaries]
    result.trend["means"] = means
    _increasing_trend(result.trend, means)
    return result
