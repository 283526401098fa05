"""One execution of one workload in a fresh interpreter.

Usage (started by run.py, one process at a time):

    python3 worker.py --workload NAME --seed N --spec JSON --t0 T --outdir DIR [--trace]

``--t0`` is the benchmark's CLOCK_MONOTONIC reading just before it started
this process, so ``setup_s`` covers interpreter start, ``import nnsums``,
config parsing and model construction. The worker writes ``result.json``
(timings, peak RSS, versions, output and, when traced, the spans) to
``--outdir``; the workload's own report file goes there too.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback


def reference_s() -> float:
    """Seconds a fixed interpreter loop takes on this machine now, best of three.

    The host's speed drifts by up to 40% between workers seconds apart. The
    benchmark takes this reading just before it starts a worker, and the
    worker takes it again right after its timed window; times are reported
    scaled by the geometric mean of the two readings (see run.REFERENCE_S).
    """

    def once() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        return time.perf_counter() - start

    return min(once() for _ in range(3))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    # nnsums goes first so its import time includes numpy and scipy.
    start = time.perf_counter()
    import nnsums

    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.realpath(nnsums.__file__)) != os.path.realpath(
        os.path.join(args.src, "nnsums")
    ):
        print(f"nnsums imported from {nnsums.__file__}, not {args.src}", file=sys.stderr)
        return 3

    import numpy
    import scipy

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    spec = json.loads(args.spec)
    result = {
        "import_s": import_s,
        "versions": {
            "nnsums": nnsums.__version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
            root = tracer.open("setup")
        state = workload.setup(nnsums, spec, args.seed)
        setup_s = time.monotonic() - args.t0
        if tracer:
            tracer.close(root)
        t1 = time.perf_counter()
        if tracer:
            root = tracer.open("run", start=t1)
        output = workload.run(nnsums, state, args.outdir)
        t2 = time.perf_counter()
        if tracer:
            tracer.close(root, end=t2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            tracer.replay_memory()
            spans.require_reached(tracer.spans, workload.reached)
            result["spans"] = tracer.spans
            result["replications"] = workload.replications(spec)
        result.update(
            setup_s=setup_s,
            run_s=t2 - t1,
            peak_rss_mb=peak_rss_mb,
            reference_s=reference_s(),
            output=workload.export(output) if workload.export else {},
        )
    except Exception:  # noqa: BLE001 - reported to the benchmark, which counts the failure
        result["error"] = traceback.format_exc()
    with open(os.path.join(args.outdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
