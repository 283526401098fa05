"""Golden digests of seeded reports and of MST edge lists.

Seeded outputs are part of the contract: the same configuration must give
the same bytes. Each digest below is the sha256 of a report written by
``ExperimentResult.write_json`` (or of an MST edge list that
``_edges_digest`` writes as CSV), so a change to sampling, to the neighbor
search, to the reduction or to the replication sweep that moves even the
last bit of one value fails here.
The CLI digests pin the ``--out`` report and the stdout of one run of each
subcommand, so a change to how a JSON configuration is read that alters
any value the run receives, or to what a run prints, fails too.
The power-law digest pins the gamma-ratio radius draw of ``PowerLawTail``,
so each model of the catalog has its sampling stream pinned.
The digests were taken with numpy 2.4 and scipy 1.17 on x86-64.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from nnsums import (
    AnnulusBallCounterexample,
    EstimatorConfig,
    GaussianStandard,
    PointSet,
    PowerLawTail,
    UniformConvexUnion,
    build_mst,
    run_convergence,
    run_divergence,
    run_moment_probe,
)
from nnsums.cli import main


def _json_digest(result, tmp_path) -> str:
    path = tmp_path / "report.json"
    result.write_json(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _edges_digest(tree, tmp_path) -> str:
    # rows (i, j, length) at full float precision, no header, csv line ends
    path = tmp_path / "edges.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([i, j, repr(float(length))] for i, j, length in tree.edges)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_convergence_report_digest(tmp_path):
    config = EstimatorConfig(
        model=UniformConvexUnion.unit_cube(2),
        j=2,
        alpha=1.0,
        n_grid=(3, 17, 100, 1024, 1500),
        replications=4,
        seed=7,
        q=2,
    )
    assert _json_digest(run_convergence(config), tmp_path) == (
        "d8d2253e6995d39f23848761962135681a7056dbe91df25071b74b7622f3d17e"
    )


def test_power_law_convergence_report_digest(tmp_path):
    config = EstimatorConfig(
        model=PowerLawTail(2, 6.0),
        j=1,
        alpha=1.0,
        n_grid=(3, 60, 800),
        replications=3,
        seed=19,
    )
    assert _json_digest(run_convergence(config), tmp_path) == (
        "4c83bb3ecb84d9ef54ea6c1f8ffb2c42fbb46069f7fc49237ab9ef18fd52b6fa"
    )


def test_divergence_report_digest(tmp_path):
    _, result = run_divergence(AnnulusBallCounterexample(2, 1.0), 1.5, range(2, 9), 6, 3)
    assert _json_digest(result, tmp_path) == (
        "d3ba03db92514169808f4c266253a8018fa99f01d6abb8f8e04fa1b1b26c9fda"
    )


def test_moment_probe_report_digest(tmp_path):
    config = EstimatorConfig(
        model=GaussianStandard(3),
        j=1,
        alpha=-0.5,
        n_grid=(10, 300, 1200),
        replications=3,
        seed=5,
    )
    assert _json_digest(run_moment_probe(config, 2.0), tmp_path) == (
        "c491cd0a734f786b00657ece3e267f1404e9bc4dcc162f46e566a032d6473deb"
    )


def test_mst_edge_list_digest(tmp_path):
    pts = np.random.default_rng(2024).random((400, 2))
    assert _edges_digest(build_mst(PointSet(pts)), tmp_path) == (
        "21d9b01a44c3b26125c72a114e6a4c5ffc8b563d939fb4294468abcddcc2274c"
    )
    # a grid has many equal edge lengths, so the tie-break decides the tree
    grid = np.array([[x, y] for x in range(15) for y in range(15)], dtype=float)
    assert _edges_digest(build_mst(PointSet(grid)), tmp_path) == (
        "64a5f10a7db4241c192dbb2876a51e6e71395f10d8701bdc6278d288b3978285"
    )


_CLI_CONFIGS = {
    "converge": {
        "model": "uniform_union",
        "d": 2,
        "bodies": [
            {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            {"type": "ball", "center": [3.0, 0.5], "radius": 0.5},
        ],
        "j": 2,
        "alpha": 1.0,
        "n_grid": [5, 60, 300],
        "replications": 3,
        "seed": 11,
        "q": 2,
    },
    "diverge": {
        "model": "counterexample",
        "d": 2,
        "r": 1.0,
        "alpha": 1.5,
        "k_min": 2,
        "k_max": 6,
        "replications": 4,
        "seed": 3,
        "j": 1,
    },
    "check": {"model": "power_law", "d": 3, "beta": 7, "alpha": 1.0, "q": 2},
    "estimate": {"points": "points.csv", "j": 2, "phi": "sqrt", "q": 2},
    "entropy": {
        "model": "gaussian",
        "d": 2,
        "rho": 1.25,
        "n_grid": [20, 150, 600],
        "replications": 3,
        "seed": 4,
        "q": 2,
    },
    "probe": {
        "model": "power_law",
        "d": 2,
        "beta": 6.0,
        "alpha": 1.0,
        "p": 2.0,
        "n_grid": [10, 100, 400],
        "replications": 3,
        "seed": 9,
    },
    "limit": {"model": "gaussian", "d": 3, "j": 2, "alpha": 1.5},
}


@pytest.mark.parametrize(
    "command, digest, stdout_digest",
    [
        (
            "converge",
            "dc149d3a5b702015b8fe5894e7c35600d4ae3186fc637b108a93ca9d6809c738",
            "3d0ec9bc5d4468c6e379c43d02701191d298149186c5b26a9c057b1e7f6d0332",
        ),
        (
            "diverge",
            "9da9a842e254a24ba77c11c1eb642f552aa3718ee3f6ad4bf598ee50167bf9ce",
            "f7d4b9d062b0c93aff3ce4a3f829676d98487f744f22f1464b579e8bceca0e57",
        ),
        (
            "check",
            "bcd956b4737b699cb948d708db56615932851cb8cd457fbe5e46253d35bfac51",
            "bcd956b4737b699cb948d708db56615932851cb8cd457fbe5e46253d35bfac51",
        ),
        (
            "estimate",
            "40e72a9bf4b240968403215a12405ed4f11e83cc2154ef3998d061003c790721",
            "906deec83bbe547b1c43ca7b6d0275591d3d230d8a8b27af7d69b50a85e4c46e",
        ),
        (
            "entropy",
            "f4c7b3138548671d53b2e60f4c54814b963f064bcf3b80aca5c8e7b41c3f9b10",
            "056f907b6f013b83db7510a65493371ff970e53859817e428b1ba612aab08ab0",
        ),
        (
            "probe",
            "2284ed69a248601fe09dd3008afb856ad6e5e8d465ade7a51759a626e5121efd",
            "454d98626a125766a28f3fc7efb0e6220eed1f2d0e29ffcc397bb0db243081f0",
        ),
        (
            "limit",
            "d16c3d4b2ba54f038e8ad8afe3e6c0562e165c753b681ca26f268e99700df4d4",
            "fd4e0e77797687abdcf0a9e177b27c9c57ea6b89ed1568e45540edec00beaf57",
        ),
    ],
)
def test_cli_report_digest(tmp_path, monkeypatch, capsys, command, digest, stdout_digest):
    # relative paths, so that the "wrote r.json" line holds no temporary directory
    monkeypatch.chdir(tmp_path)
    pts = np.random.default_rng(31).random((30, 2))
    (tmp_path / "points.csv").write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    (tmp_path / "config.json").write_text(json.dumps(_CLI_CONFIGS[command]))
    assert main([command, "--config", "config.json", "--out", "r.json"]) == 0
    captured = capsys.readouterr()
    # check keeps its stdout one JSON document, so it reports the write on stderr
    assert captured.err == ("wrote r.json\n" if command == "check" else "")
    assert hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest() == digest
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_digest
