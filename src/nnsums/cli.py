"""Command line interface for the experiment harness.

Each subcommand reads the JSON object named by --config and refuses a key
not listed for it below as ``key: kind = default``; a key without a default
is required, and ``a | b`` takes exactly one of a and b. An int is a JSON
integer, never a bool, a string or 2.0; a float is any finite JSON number.
``model`` stands for model: str, d: int and bodies, beta: float or
r: float, as ``model_from_config`` reads them.

estimate  points: str, j: int = 1, q: int = 1, alpha: float | phi: str
converge  model, alpha: float, n_grid: int_list, j: int = 1,
          replications: int = 1, seed: int = 0, q: int = 1
entropy   the keys of converge, with rho: float in place of alpha
probe     the keys of converge, and p: float = 1.0
diverge   model, alpha: float, k_grid: int_list | k_min: int and k_max: int,
          replications: int = 1, seed: int = 0, j: int = 1
check     model, alpha: float, q: int = 1
limit     model, j: int = 1, tol: float = 1e-6, alpha: float | phi: str

--out writes the report to a .csv or .json file, .json only for check and
limit. Its suffix and its directory are checked before the run, and the
report is written before a line is printed, so a run that exits 2 prints
nothing on stdout. "wrote PATH" follows the lines, on stderr for check so
that its stdout stays one JSON document. --seed (converge, diverge,
entropy, probe) overrides the config seed, and --force (converge, diverge,
entropy) runs past a refused condition.

The same interface runs as the ``nnsums`` console script declared in
``pyproject.toml`` and, from a source checkout, as ``python -m nnsums``
(``__main__.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .conditions import condition_report
from .densities import _MODEL, _REQUIRED, _read_config
from .errors import ConditionRefused, ConfigError, QuadratureBudgetExceeded, _integer
from .experiments import (
    EstimatorConfig,
    ExperimentResult,
    resolve_phi,
    run_convergence,
    run_divergence,
    run_entropy,
    run_moment_probe,
)
from .limits import gamma_constant, limit_functional
from .neighbors import statistic_phi, statistic_power
from .points import PointSet

_STATISTIC = {"j": ("int", 1), "alpha": ("float", None), "phi": ("str", None)}
_ESTIMATE_KEYS = {"points": ("str", _REQUIRED), **_STATISTIC, "q": ("int", 1)}
_LIMIT_KEYS = {**_MODEL, **_STATISTIC, "tol": ("float", 1e-6)}
_CHECK_KEYS = {**_MODEL, "alpha": ("float", _REQUIRED), "q": ("int", 1)}
_DIVERGE_KEYS = {
    **_MODEL,
    "alpha": ("float", _REQUIRED),
    "k_grid": ("int_list", None),
    "k_min": ("int", None),
    "k_max": ("int", None),
    "replications": ("int", 1),
    "seed": ("int", 0),
    "j": ("int", 1),
}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return cfg


def _estimator_config(args, key: str, entry) -> tuple[EstimatorConfig, object]:
    """The EstimatorConfig of --config and the one key entropy or probe adds."""
    cfg = _load_config(args.config)
    value = _read_config({key: cfg.pop(key)} if key in cfg else {}, {key: entry})[key]
    return EstimatorConfig.from_dict(cfg, seed_override=args.seed), value


def _summary_lines(result: ExperimentResult) -> list:
    return [
        f"  n={s.n:>8d}  mean={s.mean:.6g}  se={s.std_error:.3g}"
        + ("" if s.lq_error is None else f"  L{result.q}_error={s.lq_error:.6g}")
        for s in result.summaries
    ]


def _cmd_estimate(args):
    v = _read_config(_load_config(args.config), _ESTIMATE_KEYS)
    points = PointSet.from_csv(v["points"])
    j, alpha, phi_name, n = v["j"], v["alpha"], v["phi"], len(points)
    if (alpha is None) == (phi_name is None):
        raise ConfigError("estimate needs exactly one of 'alpha' or 'phi'")
    q = _integer("'q'", v["q"], 1, 2, "1 or 2")
    if n <= j:
        raise ConfigError(
            f"{v['points']} holds n={n} points, at most j={j}, so no point "
            "has a j-th neighbour and the sum is always 0"
        )
    if alpha is not None:
        raw = statistic_power(points, j, alpha)
        value = raw / (gamma_constant(points.dim, j, alpha) * n)
        lines = [
            f"S_{{n,alpha}} = {raw!r}  (n={n}, d={points.dim}, j={j}, alpha={alpha})",
            f"normalized estimate gamma^-1 n^-1 S = {value!r}",
        ]
    else:
        raw = statistic_phi(points, j, resolve_phi(phi_name))
        value = raw / n
        lines = [
            f"S_{{n,phi}} = {raw!r}  (n={n}, d={points.dim}, j={j}, phi={phi_name})",
            f"per-point value n^-1 S = {value!r}",
        ]
    result = ExperimentResult(
        experiment="estimate",
        model_name="csv",
        d=points.dim,
        j=j,
        alpha=alpha,
        q=q,
        target=None,
        levels=[(n, np.array([value]))],
        phi=phi_name,
    )
    return lines, result


def _cmd_converge(args):
    config = EstimatorConfig.from_dict(_load_config(args.config), seed_override=args.seed)
    result = run_convergence(config, force=args.force)
    lines = [
        f"converge: {result.model_name} d={result.d} j={result.j} "
        f"alpha={result.alpha} q={result.q} target={result._target_cell()}",
        *_summary_lines(result),
    ]
    if result.trend:
        lines.append(
            f"  L{result.q}-error decreasing trend: "
            f"S={result.trend['decreasing_s']} p={result.trend['decreasing_p']:.4g}"
        )
    return lines, result


def _cmd_diverge(args):
    v = _read_config(_load_config(args.config), _DIVERGE_KEYS)
    k_grid, k_min, k_max = v["k_grid"], v["k_min"], v["k_max"]
    if k_grid is None and None not in (k_min, k_max):
        if k_min > k_max:
            raise ConfigError(f"'k_min' ({k_min}) must not exceed 'k_max' ({k_max})")
        k_grid = range(k_min, k_max + 1)
    elif k_grid is None or (k_min, k_max) != (None, None):
        raise ConfigError("diverge needs either 'k_grid' or both 'k_min' and 'k_max'")
    j, alpha = v["j"], v["alpha"]
    seed = v["seed"] if args.seed is None else args.seed
    schedule, result = run_divergence(
        v["model"], alpha, k_grid, v["replications"], seed, j=j, force=args.force
    )
    trend = result.trend
    lines = [
        f"diverge: {result.model_name} d={result.d} j={j} alpha={alpha} "
        f"shells {schedule.k_grid} -> n(k) {schedule.n_of_k}"
    ]
    for k, n, mean, proxy in zip(
        schedule.k_grid, schedule.n_of_k, trend["means"], trend["lower_bound_proxy"]
    ):
        lines.append(f"  k={k}  n={n:>8d}  mean={mean:.6g}  lower-bound proxy={proxy:.6g}")
    if "increasing_p" in trend:
        lines.append(
            f"  increasing trend: S={trend['increasing_s']} "
            f"p={trend['increasing_p']:.4g} last/first={trend['last_over_first']:.4g}"
        )
    return lines, result


def _cmd_entropy(args):
    config, rho = _estimator_config(args, "rho", ("float", _REQUIRED))
    if config.alpha is not None:
        raise ConfigError("entropy takes 'rho' and sets alpha = d * (1 - rho); drop 'alpha'")
    result = run_entropy(config, rho, force=args.force)
    t = result.trend
    lines = [
        f"entropy: {result.model_name} d={result.d} rho={rho} (alpha={result.alpha})",
        f"  I estimate      = {t['i_estimate']!r} +- {t['i_std_error']:.3g}",
        f"  Tsallis entropy = {t['tsallis']!r} +- {t['tsallis_std_error']:.3g}",
        f"  Renyi entropy   = {t['renyi']!r} +- {t['renyi_std_error']:.3g}",
    ]
    return lines, result


def _cmd_probe(args):
    config, p = _estimator_config(args, "p", ("float", 1.0))
    result = run_moment_probe(config, p)
    lines = [
        f"probe: {result.model_name} d={result.d} j={result.j} "
        f"alpha*p={result.trend['exponent']} over n_grid {list(config.n_grid)}",
        *_summary_lines(result),
    ]
    if "increasing_p" in result.trend:
        lines.append(
            f"  increasing trend: S={result.trend['increasing_s']} "
            f"p={result.trend['increasing_p']:.4g}"
        )
    return lines, result


def _cmd_check(args):
    v = _read_config(_load_config(args.config), _CHECK_KEYS)
    text = condition_report(v["model"], v["alpha"], v["q"]).to_json()
    return [text], text


def _cmd_limit(args):
    v = _read_config(_load_config(args.config), _LIMIT_KEYS)
    model, j, alpha, phi_name = v["model"], v["j"], v["alpha"], v["phi"]
    if (alpha is None) == (phi_name is None):
        raise ConfigError("limit needs exactly one of 'alpha' or 'phi'")
    if alpha is not None:
        rho = 1.0 - alpha / model.dim
        i_val = model.i_rho(rho)
        if not math.isfinite(i_val):
            raise ConfigError(
                f"the limit is infinite: the integral of f^rho diverges at "
                f"rho = 1 - alpha/d = {rho:g} for this model"
            )
    phi = (lambda t: t**alpha) if alpha is not None else resolve_phi(phi_name)
    value, err = limit_functional(phi, model, j=j, tol=v["tol"], return_error=True)
    label = f"alpha={alpha}" if alpha is not None else f"phi={phi_name}"
    lines = [
        f"limit functional ({model.name}, d={model.dim}, j={j}, {label})",
        f"  value = {value!r}  (error estimate {err:.3g})",
    ]
    if alpha is not None:
        closed = gamma_constant(model.dim, j, alpha) * i_val
        lines.append(f"  closed-form cross-check gamma * I = {closed!r}")
    payload = {
        "model": model.name,
        "d": model.dim,
        "j": j,
        "alpha": alpha,
        "phi": phi_name,
        "value": value,
        "error_estimate": err,
    }
    return lines, json.dumps(payload, indent=2, sort_keys=True)


_CSV_JSON = (".csv", ".json")

#: subcommand -> what its --force overrides
_FORCE_HELP = {
    "converge": "run past a refused convergence condition",
    "diverge": "run past a refused divergence condition",
    "entropy": "run past a refused convergence condition",
}

#: subcommand -> (handler, the suffixes its --out takes, help text). A
#: handler returns the lines to print and the report: an ExperimentResult,
#: or the JSON text of check and limit.
_COMMANDS = {
    "estimate": (_cmd_estimate, _CSV_JSON, "evaluate one statistic on a CSV point set"),
    "converge": (_cmd_converge, _CSV_JSON, "Monte Carlo convergence run against the known limit"),
    "diverge": (_cmd_diverge, _CSV_JSON, "witness the unbounded mean along the shell schedule"),
    "entropy": (_cmd_entropy, _CSV_JSON, "estimate Tsallis and Renyi entropies"),
    "probe": (_cmd_probe, _CSV_JSON, "empirical moment profile across sample sizes"),
    "check": (_cmd_check, (".json",), "print the condition report as JSON"),
    "limit": (_cmd_limit, (".json",), "evaluate the limit functional by quadrature"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnsums",
        description="power-weighted nearest-neighbor sums: experiments and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, suffixes, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", help=f"write the report to a {' or '.join(suffixes)} file")
        if name in ("converge", "diverge", "entropy", "probe"):
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name in _FORCE_HELP:
            p.add_argument("--force", action="store_true", help=_FORCE_HELP[name])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, suffixes, _ = _COMMANDS[args.command]
    try:
        if args.out and not args.out.endswith(suffixes):
            raise ConfigError(f"output path must end in {' or '.join(suffixes)}, got {args.out}")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ConfigError(f"output directory of {args.out} does not exist")
        lines, report = handler(args)
        if args.out and isinstance(report, ExperimentResult):
            report.write(args.out)
        elif args.out:
            with open(args.out, "w") as fh:
                fh.write(report + "\n")
    except (ConfigError, ConditionRefused, QuadratureBudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    if args.out:
        # check keeps its stdout one JSON document
        print(f"wrote {args.out}", file=sys.stderr if args.command == "check" else sys.stdout)
    return 0
