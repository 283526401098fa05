"""Golden digests of seeded reports and of MST edge lists.

Seeded outputs are part of the contract: the same configuration must give
the same bytes. Each digest below is the sha256 of a report written by
``ExperimentResult.write_json`` (or of an ``EdgeList.to_csv`` file), so a
change to sampling, to the neighbor search, to the reduction or to the
replication sweep that moves even the last bit of one value fails here.
The digests were taken with numpy 2.4 and scipy 1.17 on x86-64.
"""

import hashlib

import numpy as np

from nnsums import (
    AnnulusBallCounterexample,
    EstimatorConfig,
    GaussianStandard,
    PointSet,
    UniformConvexUnion,
    build_mst,
    run_convergence,
    run_divergence,
    run_moment_probe,
)


def _json_digest(result, tmp_path) -> str:
    path = tmp_path / "report.json"
    result.write_json(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _edges_digest(tree, tmp_path) -> str:
    path = tmp_path / "edges.csv"
    tree.to_csv(path)
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
