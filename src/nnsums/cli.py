"""Command line interface for the experiment harness.

Subcommands: ``estimate`` (one statistic on a CSV point set), ``converge``,
``diverge``, ``entropy``, ``probe``, ``check`` (condition report as JSON),
and ``limit`` (quadrature value of the limit functional). Every subcommand
reads a JSON configuration via --config; --seed overrides the config seed,
--out writes a CSV or JSON report next to the stdout summary, and --force
bypasses the convergence gate where one applies.

The same interface runs as the ``nnsums`` console script declared in
``pyproject.toml`` and, from a source checkout, as ``python -m nnsums``
(``__main__.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .conditions import condition_report
from .densities import _model_config_keys, model_from_config
from .errors import ConditionRefused, ConfigError
from .experiments import (
    EstimatorConfig,
    ExperimentResult,
    RunRecord,
    _refuse_unknown_keys,
    resolve_phi,
    run_convergence,
    run_divergence,
    run_entropy,
    run_moment_probe,
)
from .limits import QuadratureBudget, gamma_constant, limit_functional
from .neighbors import statistic_phi, statistic_power
from .points import PointSet


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"configuration is missing the key {key!r}")
    return cfg[key]


def _emit(result: ExperimentResult, out: str | None) -> None:
    if out:
        result.write(out)
        print(f"wrote {out}")


def _print_summaries(result: ExperimentResult) -> None:
    for s in result.summaries:
        line = f"  n={s.n:>8d}  mean={s.mean:.6g}  se={s.std_error:.3g}"
        if s.lq_error is not None:
            line += f"  L{result.q}_error={s.lq_error:.6g}"
        print(line)


def _cmd_estimate(args) -> int:
    cfg = _load_config(args.config)
    _refuse_unknown_keys(cfg, {"points", "j", "alpha", "phi", "q"})
    points = PointSet.from_csv(_require(cfg, "points"))
    j = int(cfg.get("j", 1))
    n = len(points)
    alpha = cfg.get("alpha")
    phi_name = cfg.get("phi")
    if (alpha is None) == (phi_name is None):
        raise ConfigError("estimate needs exactly one of 'alpha' or 'phi'")
    if alpha is not None:
        alpha = float(alpha)
        raw = statistic_power(points, j, alpha)
        gam = gamma_constant(points.dim, j, alpha)
        value = raw / (gam * n)
        print(f"S_{{n,alpha}} = {raw!r}  (n={n}, d={points.dim}, j={j}, alpha={alpha})")
        print(f"normalized estimate gamma^-1 n^-1 S = {value!r}")
    else:
        raw = statistic_phi(points, j, resolve_phi(phi_name))
        value = raw / n
        print(f"S_{{n,phi}} = {raw!r}  (n={n}, d={points.dim}, j={j}, phi={phi_name})")
        print(f"per-point value n^-1 S = {value!r}")
    result = ExperimentResult(
        experiment="estimate",
        model_name="csv",
        d=points.dim,
        j=j,
        alpha=alpha,
        q=int(cfg.get("q", 1)),
        target=None,
        records=[RunRecord(n=n, replication=0, value=value)],
        phi=phi_name,
    )
    _emit(result, args.out)
    return 0


def _cmd_converge(args) -> int:
    cfg = _load_config(args.config)
    config = EstimatorConfig.from_dict(cfg, seed_override=args.seed)
    result = run_convergence(config, force=args.force)
    print(
        f"converge: {result.model_name} d={result.d} j={result.j} "
        f"alpha={result.alpha} q={result.q} target={result.target!r}"
    )
    _print_summaries(result)
    if result.trend:
        print(
            f"  L{result.q}-error decreasing trend: "
            f"S={result.trend['decreasing_s']} p={result.trend['decreasing_p']:.4g}"
        )
    _emit(result, args.out)
    return 0


def _cmd_diverge(args) -> int:
    cfg = _load_config(args.config)
    model = model_from_config(cfg)
    _refuse_unknown_keys(
        cfg,
        _model_config_keys(cfg["model"])
        | {"alpha", "k_grid", "k_min", "k_max", "replications", "seed", "j"},
    )
    alpha = float(_require(cfg, "alpha"))
    if "k_grid" in cfg:
        k_grid = [int(k) for k in cfg["k_grid"]]
    elif "k_min" in cfg and "k_max" in cfg:
        k_grid = list(range(int(cfg["k_min"]), int(cfg["k_max"]) + 1))
    else:
        raise ConfigError("diverge needs 'k_grid' or 'k_min'/'k_max'")
    replications = int(cfg.get("replications", 1))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    j = int(cfg.get("j", 1))
    schedule, result = run_divergence(
        model, alpha, k_grid, replications, seed, j=j, force=args.force
    )
    print(
        f"diverge: {result.model_name} d={result.d} j={j} alpha={alpha} "
        f"shells {schedule.k_grid} -> n(k) {schedule.n_of_k}"
    )
    for k, n, mean, proxy in zip(
        schedule.k_grid,
        schedule.n_of_k,
        result.trend["means"],
        result.trend["lower_bound_proxy"],
    ):
        print(f"  k={k}  n={n:>8d}  mean={mean:.6g}  lower-bound proxy={proxy:.6g}")
    if "increasing_p" in result.trend:
        print(
            f"  increasing trend: S={result.trend['increasing_s']} "
            f"p={result.trend['increasing_p']:.4g} "
            f"last/first={result.trend['last_over_first']:.4g}"
        )
    _emit(result, args.out)
    return 0


def _cmd_entropy(args) -> int:
    cfg = _load_config(args.config)
    rho = float(_require(cfg, "rho"))
    config = EstimatorConfig.from_dict(
        {k: v for k, v in cfg.items() if k != "rho"}, seed_override=args.seed
    )
    run = run_entropy(config, rho, force=args.force)
    ent = run.entropy
    print(
        f"entropy: {run.result.model_name} d={run.result.d} rho={rho} "
        f"(alpha={run.result.alpha})"
    )
    print(f"  I estimate      = {ent.i_rho!r} +- {run.i_std_error:.3g}")
    print(f"  Tsallis entropy = {ent.tsallis!r} +- {run.tsallis_std_error:.3g}")
    print(f"  Renyi entropy   = {ent.renyi!r} +- {run.renyi_std_error:.3g}")
    _emit(run.result, args.out)
    return 0


def _cmd_probe(args) -> int:
    cfg = _load_config(args.config)
    p = float(cfg.get("p", 1.0))
    config = EstimatorConfig.from_dict(
        {k: v for k, v in cfg.items() if k != "p"}, seed_override=args.seed
    )
    result = run_moment_probe(config, p)
    print(
        f"probe: {result.model_name} d={result.d} j={result.j} "
        f"alpha*p={result.trend['exponent']} over n_grid {list(config.n_grid)}"
    )
    _print_summaries(result)
    if "increasing_p" in result.trend:
        print(
            f"  increasing trend: S={result.trend['increasing_s']} "
            f"p={result.trend['increasing_p']:.4g}"
        )
    _emit(result, args.out)
    return 0


def _cmd_check(args) -> int:
    cfg = _load_config(args.config)
    model = model_from_config(cfg)
    _refuse_unknown_keys(cfg, _model_config_keys(cfg["model"]) | {"alpha", "q"})
    alpha = float(_require(cfg, "alpha"))
    q = int(cfg.get("q", 1))
    report = condition_report(model, alpha, q)
    text = report.to_json()
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_limit(args) -> int:
    cfg = _load_config(args.config)
    model = model_from_config(cfg)
    _refuse_unknown_keys(cfg, _model_config_keys(cfg["model"]) | {"j", "alpha", "phi", "tol"})
    j = int(cfg.get("j", 1))
    alpha = cfg.get("alpha")
    phi_name = cfg.get("phi")
    if (alpha is None) == (phi_name is None):
        raise ConfigError("limit needs exactly one of 'alpha' or 'phi'")
    budget = QuadratureBudget(tol=float(cfg.get("tol", 1e-6)))
    if alpha is not None:
        alpha = float(alpha)
        phi = lambda t: t**alpha  # noqa: E731
    else:
        phi = resolve_phi(phi_name)
    value, err = limit_functional(phi, model, j=j, budget=budget, return_error=True)
    label = f"alpha={alpha}" if alpha is not None else f"phi={phi_name}"
    print(f"limit functional ({model.name}, d={model.dim}, j={j}, {label})")
    print(f"  value = {value!r}  (error estimate {err:.3g})")
    if alpha is not None:
        i_val = model.i_rho(1.0 - alpha / model.dim)
        if math.isfinite(i_val):
            closed = gamma_constant(model.dim, j, alpha) * i_val
            print(f"  closed-form cross-check gamma * I = {closed!r}")
    if args.out:
        payload = {
            "model": model.name,
            "d": model.dim,
            "j": j,
            "alpha": alpha,
            "phi": phi_name,
            "value": value,
            "error_estimate": err,
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "estimate": (_cmd_estimate, "evaluate one statistic on a CSV point set"),
    "converge": (_cmd_converge, "Monte Carlo convergence run against the known limit"),
    "diverge": (_cmd_diverge, "witness the unbounded mean along the shell schedule"),
    "entropy": (_cmd_entropy, "estimate Tsallis and Renyi entropies"),
    "probe": (_cmd_probe, "empirical moment profile across sample sizes"),
    "check": (_cmd_check, "print the condition report as JSON"),
    "limit": (_cmd_limit, "evaluate the limit functional by quadrature"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnsums",
        description="power-weighted nearest-neighbor sums: experiments and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="write a .csv or .json report")
        p.add_argument(
            "--force",
            action="store_true",
            help="run even when no convergence guarantee applies",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        return handler(args)
    except (ConfigError, ConditionRefused, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
