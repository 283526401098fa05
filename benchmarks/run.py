"""nnsums benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: worker processes (worker.py) run one at a time,
each a fresh interpreter that sets up, runs the workload once and exits.
Workers are started until ``--seconds`` have passed (at least three per
mode), and each metric is the median over them. This process and its
workers are pinned to one CPU, and every time is reported at a fixed
machine speed (see REFERENCE_S), because the host's speed drifts by tens
of percent from one minute to the next. With ``--trace 1`` traced
and untraced workers alternate; the per-layer metrics come from the traced
ones and ``trace.overhead_s`` is the difference of the two median run
times. Every worker's output is checked after the timed window, in this
process, so the oracles count neither in ``run_s`` nor in ``peak_rss_mb``.

Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SECONDS = 25
# Times are reported at a fixed machine speed: each worker's raw times are
# multiplied by REFERENCE_S over the geometric mean of worker.reference_s()
# read just before the worker starts and by the worker after its timed window.
REFERENCE_S = 0.08
MIN_WORKERS = 3
# No worker starts, and none runs on, past this many seconds into a workload,
# so a hung program still ends the benchmark well within three minutes.
LIMIT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("points_per_s", "points/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
)


def spawn(workload, seed: int, spec: dict, traced: bool, workdir: str,
          timeout: float = LIMIT_S) -> dict:
    """Run one worker to completion and return its result record."""
    outdir = tempfile.mkdtemp(dir=workdir)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload.name,
        "--seed", str(seed),
        "--spec", json.dumps(spec),
        "--outdir", outdir,
        "--src", str(SRC),
    ] + (["--trace"] if traced else [])
    before = worker.reference_s()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(time.monotonic())],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        with open(os.path.join(outdir, "result.json")) as fh:
            record = json.load(fh)
        report = os.path.join(outdir, "report.json")
        if "error" not in record and os.path.exists(report):
            with open(report) as fh:
                record["output"]["report"] = json.load(fh)
        if "reference_s" in record:
            record["reference_s"] = (before * record["reference_s"]) ** 0.5
    except subprocess.TimeoutExpired:
        record = {"error": f"worker still running after {timeout:.0f} s"}
    except (OSError, ValueError) as exc:
        record = {"error": f"worker left no result ({exc}):\n{proc.stderr[-2000:]}"}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    record["traced"] = traced
    return record


def collect(workload, seed: int, seconds: float, trace: bool, spec: dict,
            workdir: str, min_workers: int = MIN_WORKERS) -> list:
    """Start workers until the time is up and each mode has min_workers."""
    modes = (False, True) if trace else (False,)
    records = []
    start = time.monotonic()
    while True:
        now = time.monotonic()
        short = any(sum(r["traced"] == m for r in records) < min_workers for m in modes)
        if (now >= start + seconds and not short) or now >= start + LIMIT_S:
            break
        traced = modes[len(records) % len(modes)]
        records.append(spawn(workload, seed, spec, traced, workdir, start + LIMIT_S - now))
    return records


def grade(workload, seed: int, spec: dict, records: list) -> None:
    """Check each record's output; set its ops, failed ops and completed points."""
    verdicts = {}
    ops = workload.operations(spec)
    for r in records:
        r["ops"] = ops
        if "error" in r:
            print(f"worker failed: {r['error']}", file=sys.stderr)
            r.update(failed=ops, points=0, ok=False)
            continue
        key = json.dumps(r["output"], sort_keys=True)
        if key not in verdicts:
            try:
                verdicts[key] = workload.check(spec, seed, r["output"])
            except Exception as exc:  # noqa: BLE001 - malformed output fails its run
                verdicts[key] = (False, None, f"check raised {exc!r}")
            print(f"check: {verdicts[key][2]}", file=sys.stderr)
        ok, values, _ = verdicts[key]
        if ok:
            r.update(ok=True, failed=sum(not fin for _, fin in values),
                     points=sum(n for n, fin in values if fin))
        else:
            r.update(ok=False, failed=ops, points=0)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _scaled(r: dict, key: str) -> float:
    return r[key] * REFERENCE_S / r["reference_s"]


def end_to_end(records: list) -> dict:
    done = [r for r in records if not r["traced"] and "error" not in r]
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        "setup_s": _median([_scaled(r, "setup_s") for r in done]),
        "run_s": _median([_scaled(r, "run_s") for r in done]),
        "points_per_s": _median([r["points"] / _scaled(r, "run_s") for r in done]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in done]),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(records: list) -> dict:
    import spans

    traced = [r for r in records if r["traced"] and "error" not in r]
    plain = [r for r in records if not r["traced"] and "error" not in r]
    units = dict(spans.LAYER_METRICS)
    layers = [
        {
            k: v * REFERENCE_S / r["reference_s"] if units[k] == "s" else v
            for k, v in spans.layer_metrics(r["spans"], r["replications"]).items()
        }
        for r in traced
    ]
    out = {name: _median([m[name] for m in layers]) for name, _ in spans.LAYER_METRICS[:-2]}
    out["setup.import_s"] = _median([_scaled(r, "import_s") for r in traced])
    out["trace.overhead_s"] = _median([_scaled(r, "run_s") for r in traced]) - _median(
        [_scaled(r, "run_s") for r in plain]
    )
    return out


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str,
            spec: dict | None = None, min_workers: int = MIN_WORKERS) -> dict:
    """Run, check and summarise one workload; return the result object."""
    import spans

    spec = workload.spec if spec is None else spec
    records = collect(workload, seed, seconds, trace, spec, workdir, min_workers)
    grade(workload, seed, spec, records)
    broken = [r["error"] for r in records if r["traced"] and "error" in r]
    if broken:
        raise SystemExit(f"traced run failed, so no per-layer figures:\n{broken[0]}")
    units = dict(spans.LAYER_METRICS if trace else END_TO_END)
    values = per_layer(records) if trace else end_to_end(records)
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    counted = sum(1 for r in records if r["traced"] == trace and "error" not in r)
    print(f"workload {workload.name}  seed {seed}  workers {len(records)}  "
          f"(medians over {counted} {'traced' if trace else 'untraced'})")
    for name, value in values.items():
        print(f"  {name:<30s} {value:>14.6g} {units[name]}")
    print(f"  {'fail_frac':<30s} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} operations)")
    done = [r for r in records if "error" not in r]
    print(f"  (raw medians: setup {_median([r['setup_s'] for r in done]):.4g} s, "
          f"run {_median([r['run_s'] for r in done]):.4g} s, "
          f"reference {_median([r['reference_s'] for r in done]):.4g} s against {REFERENCE_S} s)")
    versions = next((r["versions"] for r in records if "versions" in r), {})
    print("provenance " + json.dumps({
        "workload": workload.name, "seed": seed, "nproc": os.cpu_count(),
        "seconds": seconds, "trace": int(trace), "workers": len(records), **versions,
    }, sort_keys=True))
    return {
        "correct": all(r["ok"] for r in records),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=_seed, default=None,
                        help="workload seed (default: the acceptance seed of each workload)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nnsums" / "__init__.py").is_file():
        print(f"error: no nnsums sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)} or all")
    chosen = list(workloads.WORKLOADS.values()) if args.workload == "all" else [workloads.WORKLOADS[args.workload]]
    # One CPU for this process, its speed readings and every worker: workers
    # that migrate between vCPUs of unequal speed time twice as unsteadily.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)
    try:
        results = {
            w.name: measure(w, w.default_seed if args.seed is None else args.seed,
                            args.seconds, bool(args.trace), workdir)
            for w in chosen
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
