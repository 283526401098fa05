"""Tests of the benchmark itself, kept out of the repository's test suite.

Run from the root of a checkout:

    python3 -m pytest -q benchmarks/bench_selftest.py

Each workload runs at a tiny size, one worker per mode.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "uniform-2d": {"n_grid": [200, 2000], "replications": 3},
    "powertail-2d": {"n_grid": [200, 3200], "replications": 3},
    "diverge-ladder": {"k_grid": [2, 3, 4, 5, 6, 7], "replications": 10},
    "mst-quad": {"trees": [[200, 2], [300, 3]], "limits": list(workloads.LIMIT_PAIRS[:2])},
}


def tiny(name: str, **checks) -> dict:
    spec = dict(workloads.WORKLOADS[name].spec, **TINY[name])
    spec["checks"] = dict(spec["checks"], **checks)
    return spec


def measure(name: str, trace: bool, spec: dict, tmp_path) -> dict:
    w = workloads.WORKLOADS[name]
    return run.measure(w, w.default_seed, 0, trace, str(tmp_path), spec=spec, min_workers=1)


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(spans.LAYER_METRICS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = measure(name, trace, tiny(name), tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_wrong_expected_value_fails_every_operation(tmp_path):
    result = measure("uniform-2d", False, tiny("uniform-2d", raw_mean=0.7), tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_traced_self_times_add_up_to_run_s(tmp_path):
    w = workloads.WORKLOADS["diverge-ladder"]
    record = run.spawn(w, w.default_seed, tiny(w.name), True, str(tmp_path))
    assert "error" not in record, record.get("error")
    spans_ = record["spans"]
    (root,) = [s for s in spans_ if s[2] == "run"]
    children = {}
    for s in spans_:
        children.setdefault(s[1], []).append(s[0])
    tree, todo = [], [root[0]]
    while todo:
        tree.append(todo.pop())
        todo.extend(children.get(tree[-1], []))
    own = spans.self_times(spans_)
    assert len(tree) > 100
    assert sum(own[i] for i in tree) == pytest.approx(record["run_s"], rel=1e-9)
    assert all(own[i] >= 0.0 for i in tree)


def test_hung_worker_is_stopped_and_fails(tmp_path):
    w = workloads.WORKLOADS["mst-quad"]
    record = run.spawn(w, w.default_seed, w.spec, False, str(tmp_path), timeout=0.5)
    assert "still running" in record["error"]
    assert list(tmp_path.iterdir()) == []


def test_missing_boundary_fails_and_patches_nothing():
    import nnsums.neighbors

    original = nnsums.neighbors.knn_distances
    tracer = spans.Tracer()
    with pytest.raises(spans.MissingBoundary):
        tracer.install(
            [
                spans.Boundary("nnsums.neighbors", None, "knn_distances", "x"),
                spans.Boundary("nnsums.neighbors", None, "no_such_function", "y"),
            ]
        )
    assert nnsums.neighbors.knn_distances is original
    with pytest.raises(spans.MissingBoundary):
        spans.require_reached([[0, None, "run", 0.0, 1.0, None]], ["mst.build"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "uniform-2d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
