"""The four benchmark workloads: inputs from a seed, calls into nnsums, checks.

Each workload runs one replication pipeline of the source paper's Monte
Carlo experiments (sample -> PointSet -> k-NN -> power sum), or the tree
and quadrature layers, at a size chosen so one worker spends about a
second in nnsums. ``setup`` and ``run`` execute inside the worker process
and call nnsums only through its package namespace; ``check`` executes in
the benchmark process after the timed window and uses closed forms and
scipy oracles computed here, never the code under test.

Checks use tolerances, not digests, so a change that moves sampled values
in their last bits is not counted as a failure.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# --------------------------------------------------------------------------
# closed forms used by the checks


def gamma_constant(d: int, j: int, alpha: float) -> float:
    """omega_d^(-alpha/d) * Gamma(j + alpha/d) / Gamma(j)."""
    omega = math.pi ** (d / 2) / math.gamma(1 + d / 2)
    return omega ** (-alpha / d) * math.gamma(j + alpha / d) / math.gamma(j)


def i_rho(model: dict, rho: float) -> float:
    """Integral of f^rho for a catalog model config; math.inf when divergent."""
    from scipy.special import beta as beta_fn

    d = model["d"]
    omega = math.pi ** (d / 2) / math.gamma(1 + d / 2)
    kind = model["model"]
    if kind == "uniform_union":
        volume = sum(
            math.prod(h - l for l, h in zip(b["lo"], b["hi"])) for b in model["bodies"]
        )
        return volume ** (1.0 - rho)
    if kind == "gaussian":
        return (2.0 * math.pi) ** (d * (1.0 - rho) / 2.0) * rho ** (-d / 2.0)
    if kind == "power_law":
        b = model["beta"]
        if b * rho <= d:
            return math.inf
        c = 1.0 / (d * omega * beta_fn(d, b - d))
        return c**rho * d * omega * beta_fn(d, b * rho - d)
    if kind == "counterexample":
        r = model["r"]
        c = 1.0 / (omega * 2.0 ** (-2.0 * r) / (1.0 - 2.0 ** (-r)))
        return omega * c**rho * 2.0 ** (-2.0 * r * rho) / (1.0 - 2.0 ** (-r * rho))
    raise ValueError(f"no closed form for model {kind!r}")


def shell_schedule(r: float, k_grid) -> list:
    """n(k) = ceil(1 / F(A_k)) for the annulus-ball counterexample with decay r."""
    return [
        math.ceil(1.0 / (2.0 ** (-r * k) * (1.0 - 2.0 ** (-r)) / 2.0 ** (-2.0 * r)))
        for k in k_grid
    ]


def _unit_cube(d: int) -> dict:
    return {
        "model": "uniform_union",
        "d": d,
        "bodies": [{"type": "box", "lo": [0.0] * d, "hi": [1.0] * d}],
    }


# The catalog and (alpha, j) pairs of the two-route criterion; pairs with
# rho <= 0 or an infinite integral have no closed form and are left out.
_CATALOG = (
    _unit_cube(2),
    {"model": "gaussian", "d": 2},
    {"model": "power_law", "d": 2, "beta": 6.0},
    {"model": "counterexample", "d": 2, "r": 1.0},
    _unit_cube(3),
    {"model": "gaussian", "d": 3},
    {"model": "power_law", "d": 3, "beta": 7.0},
    {"model": "counterexample", "d": 3, "r": 1.0},
)
LIMIT_PAIRS = tuple(
    {"model": m, "alpha": alpha, "j": j}
    for m in _CATALOG
    for alpha, j in ((1.0, 1), (2.0, 1), (1.0, 2))
    if 1.0 - alpha / m["d"] > 0 and math.isfinite(i_rho(m, 1.0 - alpha / m["d"]))
)


# --------------------------------------------------------------------------
# worker side: setup and timed run (nn is the imported nnsums package)


def _setup_converge(nn, spec, seed):
    cfg = dict(spec["model"], **{k: spec[k] for k in ("j", "alpha", "q", "n_grid", "replications")})
    config = nn.EstimatorConfig.from_dict(cfg, seed_override=seed)
    if not nn.condition_report(config.model, config.alpha, config.q).convergence_granted():
        raise RuntimeError(f"no convergence guarantee for {spec['model']}")
    return config


def _run_converge(nn, config, outdir):
    result = nn.run_convergence(config)
    result.write(os.path.join(outdir, "report.json"))


def _setup_diverge(nn, spec, seed):
    model = nn.model_from_config(spec["model"])
    if not nn.condition_report(model, spec["alpha"], 1).divergence:
        raise RuntimeError(f"divergence conditions fail for {spec['model']}")
    return model, spec, seed


def _run_diverge(nn, state, outdir):
    model, spec, seed = state
    _, result = nn.run_divergence(
        model, spec["alpha"], spec["k_grid"], spec["replications"], seed, j=spec["j"]
    )
    result.write(os.path.join(outdir, "report.json"))


def mst_points(seed: int, n: int, d: int) -> np.ndarray:
    """The seeded uniform sample the tree workload builds on."""
    return np.random.default_rng([seed, n, d]).random((n, d))


def _setup_trees(nn, spec, seed):
    points = [mst_points(seed, n, d) for n, d in spec["trees"]]
    models = {}
    limits = []
    for pair in spec["limits"]:
        key = json.dumps(pair["model"], sort_keys=True)
        if key not in models:
            models[key] = nn.model_from_config(pair["model"])
        nn.condition_report(models[key], pair["alpha"], 1)
        limits.append((models[key], pair["alpha"], pair["j"]))
    return points, limits


def _run_trees(nn, state, outdir):
    points, limits = state
    trees = [nn.build_mst(nn.PointSet(p)) for p in points]
    values = [
        nn.limit_functional(lambda t, a=alpha: t**a, model, j=j)
        for model, alpha, j in limits
    ]
    return trees, values


def _export_trees(output):
    trees, values = output
    return {"edges": [[list(e) for e in t.edges] for t in trees], "limits": values}


# --------------------------------------------------------------------------
# benchmark side: output checks. Each returns (ok, values, detail), where
# values holds one (points, finite) entry per operation.


def _report_values(spec, report, sizes):
    rows = report["rows"]
    expected = [(n, rep) for n in sizes for rep in range(spec["replications"])]
    if [(r["n"], r["replication"]) for r in rows] != expected:
        return None
    return [(r["n"], isinstance(r["value"], float) and math.isfinite(r["value"])) for r in rows]


def _check_converge(spec, seed, output):
    report = output.get("report")
    values = report and _report_values(spec, report, spec["n_grid"])
    if not values:
        return False, None, "report rows do not match the configured grid"
    s = report["summaries"]
    errors = [x["lq_error"] for x in s]
    d = spec["model"]["d"]
    target = i_rho(spec["model"], 1.0 - spec["alpha"] / d)
    problems = []
    if not math.isclose(report["target"], target, rel_tol=1e-9):
        problems.append(f"target {report['target']!r} != closed form {target!r}")
    if [x["n"] for x in s] != spec["n_grid"]:
        problems.append("summaries do not follow n_grid")
    elif not (all(map(math.isfinite, errors)) and errors[-1] < errors[0]):
        problems.append(f"L{spec['q']} error {errors} does not decrease")
    checks = spec["checks"]
    if "raw_mean" in checks:
        raw = s[-1]["mean"] * gamma_constant(d, spec["j"], spec["alpha"])
        if not abs(raw - checks["raw_mean"]) <= checks["mean_rtol"] * abs(checks["raw_mean"]):
            problems.append(
                f"raw mean {raw!r} not within {checks['mean_rtol']} of {checks['raw_mean']}"
            )
    return not problems, values, "; ".join(problems) or f"L{spec['q']} errors {errors}"


def _check_diverge(spec, seed, output):
    report = output.get("report")
    want = shell_schedule(spec["model"]["r"], spec["k_grid"])
    values = report and _report_values(spec, report, want)
    if not values:
        return False, None, "report rows do not match the shell schedule"
    trend = report["trend"]
    per_n = {}
    for row in report["rows"]:
        per_n.setdefault(row["n"], []).append(row["value"])
    problems = []
    if trend["n_of_k"] != want:
        problems.append(f"n_of_k {trend['n_of_k']} != closed form {want}")
    means = [float(np.mean(per_n[n])) for n in want]
    if not np.allclose(trend["means"], means, rtol=1e-12, atol=0.0):
        problems.append("trend means disagree with the replication rows")
    # The per-shell means have no finite expectation, so their last/first
    # ratio falls below ratio_min for about 2% of seeds; the medians grow
    # just as surely and do not.
    medians = [float(np.median(per_n[n])) for n in want]
    ratio = medians[-1] / medians[0]
    if not ratio > spec["checks"]["ratio_min"]:
        problems.append(f"median last/first {ratio!r} not above {spec['checks']['ratio_min']}")
    return not problems, values, "; ".join(problems) or f"median last/first {ratio:.4g}"


def _mst_oracle_length(pts: np.ndarray) -> float:
    from scipy.sparse.csgraph import minimum_spanning_tree
    from scipy.spatial.distance import pdist, squareform

    return float(minimum_spanning_tree(squareform(pdist(pts))).sum())


def _check_trees(spec, seed, output):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    problems = []
    values = []
    for (n, d), edges in zip(spec["trees"], output["edges"]):
        pts = mst_points(seed, n, d)
        e = np.array(edges, dtype=float).reshape(-1, 3)
        i, j = e[:, 0].astype(int), e[:, 1].astype(int)
        ok = len(e) == n - 1 and bool(np.all((0 <= i) & (i < j) & (j < n)))
        if ok:
            graph = coo_matrix((np.ones(n - 1), (i, j)), shape=(n, n))
            true_len = np.sqrt(((pts[i] - pts[j]) ** 2).sum(axis=1))
            total = float(e[:, 2].sum())
            oracle = _mst_oracle_length(pts)
            ok = (
                connected_components(graph, directed=False)[0] == 1
                and np.allclose(e[:, 2], true_len, rtol=1e-12, atol=0.0)
                and math.isclose(total, oracle, rel_tol=1e-12)
            )
        if not ok:
            problems.append(f"tree n={n} d={d} is not a minimum spanning tree")
        values.append((n, ok))
    rtol = spec["checks"]["two_route_rtol"]
    for pair, value in zip(spec["limits"], output["limits"]):
        m = pair["model"]
        closed = gamma_constant(m["d"], pair["j"], pair["alpha"]) * i_rho(m, 1.0 - pair["alpha"] / m["d"])
        finite = isinstance(value, float) and math.isfinite(value)
        if not (finite and abs(value - closed) <= rtol * abs(closed)):
            problems.append(f"limit {m['model']} d={m['d']} alpha={pair['alpha']} j={pair['j']}: {value!r} vs {closed!r}")
        values.append((0, finite))
    if len(values) != len(spec["trees"]) + len(spec["limits"]):
        return False, None, "missing trees or limit values"
    return not problems, values, "; ".join(problems) or "trees and limits agree with their oracles"


# --------------------------------------------------------------------------
# the workload table


@dataclass(frozen=True)
class Workload:
    """One benchmark workload with its full-size spec and its checks."""

    name: str
    why: str
    default_seed: int
    spec: dict
    setup: object
    run: object
    check: object
    # span names the traced run must record, or it fails
    reached: tuple = ()
    # turns what run returned into JSON for the checks, after the timed window
    export: object = None

    def operations(self, spec) -> int:
        """Replications, build_mst calls and limit_functional calls attempted."""
        if "trees" in spec:
            return len(spec["trees"]) + len(spec["limits"])
        grid = spec["n_grid"] if "n_grid" in spec else spec["k_grid"]
        return spec["replications"] * len(grid)

    def replications(self, spec) -> int:
        return 0 if "trees" in spec else self.operations(spec)


_PIPELINE = (
    "experiments.sweep",
    "conditions.report",
    "densities.sample",
    "points.init",
    "neighbors.statistic_power",
    "neighbors.knn_distances",
    "experiments.write",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uniform-2d",
            why="unit square, n up to 20000: k-NN tree build and query are ~90% of the run",
            default_seed=20250810,
            spec={
                "model": _unit_cube(2),
                "j": 1,
                "alpha": 1.0,
                "q": 2,
                "n_grid": [2000, 20000],
                "replications": 30,
                "checks": {"raw_mean": 0.5, "mean_rtol": 0.03},
            },
            setup=_setup_converge,
            run=_run_converge,
            check=_check_converge,
            reached=_PIPELINE + ("neighbors.build", "neighbors.query"),
        ),
        Workload(
            name="powertail-2d",
            why="power-law tail, n up to 32000: the bisection inverse CDF in sampling is ~80% of the run",
            default_seed=101,
            spec={
                "model": {"model": "power_law", "d": 2, "beta": 6.0},
                "j": 1,
                "alpha": 1.0,
                "q": 1,
                "n_grid": [2000, 8000, 32000],
                "replications": 4,
                "checks": {},
            },
            setup=_setup_converge,
            run=_run_converge,
            check=_check_converge,
            reached=_PIPELINE + ("neighbors.build", "neighbors.query"),
        ),
        Workload(
            name="diverge-ladder",
            why="many small samples, n = 2..256, on both sides of the dense/kd-tree crossover, plus the exact 8! Mann-Kendall",
            default_seed=29,
            spec={
                "model": {"model": "counterexample", "d": 2, "r": 1.0},
                "alpha": 1.5,
                "j": 1,
                "k_grid": list(range(2, 10)),
                "replications": 150,
                "checks": {"ratio_min": 5.0},
            },
            setup=_setup_diverge,
            run=_run_diverge,
            check=_check_diverge,
            reached=_PIPELINE + ("experiments.mann_kendall",),
        ),
        Workload(
            name="mst-quad",
            why="the only workload on the mst and limits layers: dense Prim at n = 2000 and 4800, then 19 quadrature limits",
            default_seed=20250810,
            spec={
                "trees": [[2000, 2], [4800, 2], [2000, 3]],
                "limits": list(LIMIT_PAIRS),
                "checks": {"two_route_rtol": 1e-3},
            },
            setup=_setup_trees,
            run=_run_trees,
            check=_check_trees,
            export=_export_trees,
            reached=("mst.build", "points.init", "limits.functional", "limits.inner", "conditions.report"),
        ),
    )
}
