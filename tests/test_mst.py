import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import minimum_spanning_tree as scipy_mst

from nnsums import DegenerateStatistic, PointSet, build_mst, l_phi, l_power_nn


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(-1))


def _exhaustive_mst_length(pts: np.ndarray) -> float:
    """Minimum total length over all labeled spanning trees, enumerated
    through their Prufer sequences."""
    n = len(pts)
    dist = _distance_matrix(pts)
    if n == 1:
        return 0.0
    if n == 2:
        return float(dist[0, 1])
    best = math.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        ptr = 0
        while degree[ptr] != 1:
            ptr += 1
        leaf = ptr
        total = 0.0
        for v in seq:
            total += dist[leaf, v]
            degree[v] -= 1
            if degree[v] == 1 and v < ptr:
                leaf = v
            else:
                ptr += 1
                while degree[ptr] != 1:
                    ptr += 1
                leaf = ptr
        total += dist[leaf, n - 1]
        if total < best:
            best = total
    return best


# ---------------------------------------------------------------------------
# tree construction


def test_collinear_points():
    tree = build_mst(PointSet([0.0, 1.0, 3.0]))
    assert tree.edge_pairs() == {(0, 1), (1, 2)}
    assert sorted(e[2] for e in tree.edges) == [1.0, 2.0]
    assert tree.total_length == 3.0


def test_unit_square_tie_break():
    corners = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tree = build_mst(corners)
    assert tree.total_length == pytest.approx(3.0, rel=1e-15)
    # lexicographic tie-break pins the exact side set
    assert tree.edge_pairs() == {(0, 1), (0, 2), (1, 3)}


def test_trivial_sizes():
    assert build_mst(PointSet(np.zeros((1, 2)))).edges == ()
    two = build_mst(PointSet([[0.0, 0.0], [3.0, 4.0]]))
    assert two.edge_pairs() == {(0, 1)}
    assert two.total_length == 5.0


def test_deterministic_on_degenerate_grid():
    pts = PointSet([[float(i % 3), float(i // 3)] for i in range(9)])
    t1 = build_mst(pts)
    t2 = build_mst(pts)
    assert t1.edges == t2.edges
    assert t1.total_length == pytest.approx(8.0, rel=1e-15)


def test_matches_exhaustive_oracle_small():
    rng = np.random.default_rng(1234)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        pts = rng.random((n, 2))
        tree = build_mst(PointSet(pts))
        assert len(tree.edges) == n - 1
        assert tree.total_length == pytest.approx(_exhaustive_mst_length(pts), rel=1e-12)


def test_matches_scipy_oracle_mid_size():
    rng = np.random.default_rng(77)
    for n in (12, 40, 120):
        pts = rng.random((n, 2))
        tree = build_mst(PointSet(pts))
        oracle = scipy_mst(_distance_matrix(pts)).sum()
        assert tree.total_length == pytest.approx(float(oracle), rel=1e-12)


def test_tree_is_spanning_and_acyclic():
    rng = np.random.default_rng(5)
    pts = rng.random((60, 3))
    tree = build_mst(PointSet(pts))
    assert len(tree.edges) == 59
    parent = list(range(60))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j, _ in tree.edges:
        ri, rj = find(i), find(j)
        assert ri != rj, "cycle found"
        parent[ri] = rj
    assert len({find(v) for v in range(60)}) == 1


def test_rigid_motion_and_scaling():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(40, 2))
    base = build_mst(PointSet(pts)).total_length
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = pts @ rot.T + np.array([3.0, -2.0])
    assert build_mst(PointSet(moved)).total_length == pytest.approx(base, rel=1e-9)
    assert build_mst(PointSet(2.5 * pts)).total_length == pytest.approx(2.5 * base, rel=1e-9)


def test_edge_list_csv(tmp_path):
    tree = build_mst(PointSet([0.0, 1.0, 3.0]))
    path = tmp_path / "edges.csv"
    tree.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows == ["0,1,1.0", "1,2,2.0"]


def test_build_mst_memory_is_linear():
    # an n x n matrix of float64 alone is 69 MiB at n = 3000
    xs = PointSet(np.random.default_rng(8).random((3000, 2)))
    tracemalloc.start()
    try:
        tree = build_mst(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tree.edges) == 2999
    assert peak < 10 * 2**20


# ---------------------------------------------------------------------------
# weighted edge sums


def test_l_phi_identity():
    assert l_phi(PointSet([0.0, 1.0, 3.0]), lambda t: t) == 3.0


def test_l_phi_square_on_unit_square():
    corners = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert l_phi(corners, lambda t: t * t) == pytest.approx(3.0, rel=1e-12)


def test_l_phi_constant_counts_edges():
    rng = np.random.default_rng(2)
    xs = PointSet(rng.random((23, 2)))
    assert l_phi(xs, lambda t: 1.0) == 22.0


def test_l_phi_reuses_tree():
    xs = PointSet([0.0, 1.0, 3.0])
    tree = build_mst(xs)
    assert l_phi(xs, lambda t: t, tree=tree) == 3.0


# ---------------------------------------------------------------------------
# unnormalized neighbor power sums and their subadditivity geometry


def test_l_power_nn_line():
    assert l_power_nn(PointSet([0.0, 1.0, 3.0]), 1.0, j=1) == 4.0


def test_l_power_nn_small_card_convention():
    assert l_power_nn(PointSet([[1.0, 2.0]]), 1.0, j=1) == 0.0
    assert l_power_nn(PointSet([[1.0, 2.0], [3.0, 4.0]]), 2.0, j=2) == 0.0


def test_l_power_nn_ties_negative_power_raises_without_warning():
    ties = PointSet([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateStatistic):
            l_power_nn(ties, -1.0)
        # b = 0 counts the points, ties included
        assert l_power_nn(ties, 0.0) == 3.0


def test_growth_bound():
    # L^b <= C * diam^b * n^{(d-b)/d} with C = 2 for d=2, j=1, b=1;
    # the worst ratio seen over this battery is about 0.70
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(5, 400))
        scale = float(rng.uniform(0.1, 50.0))
        pts = rng.uniform(0.0, scale, size=(n, 2))
        lb = l_power_nn(PointSet(pts), 1.0, j=1)
        diam = _distance_matrix(pts).max()
        worst = max(worst, lb / (diam * n**0.5))
    assert worst <= 2.0


def test_subadditivity_excess_bounded():
    # L^b(X u Y) <= L^b(X) + L^b(Y) + C t^b; the excess per t over this
    # battery peaks near 0.20, so C = 1 has a wide margin
    rng = np.random.default_rng(20240817)
    worst = -math.inf
    for _ in range(1000):
        t = float(rng.uniform(0.5, 20.0))
        nx = int(rng.integers(1, 60))
        ny = int(rng.integers(1, 60))
        x = rng.uniform(0.0, t, size=(nx, 2))
        y = rng.uniform(0.0, t, size=(ny, 2))
        excess = (
            l_power_nn(PointSet(np.vstack([x, y])), 1.0, 1)
            - l_power_nn(PointSet(x), 1.0, 1)
            - l_power_nn(PointSet(y), 1.0, 1)
        )
        worst = max(worst, excess / t)
    assert worst <= 1.0


def test_zero_constant_subadditivity_fails():
    # a singleton second set has zero power sum yet strictly enlarges the
    # union's sum, so the additive constant cannot be dropped
    j = 1
    x = PointSet([[0.0, 0.0], [1.0, 0.0]])
    y = PointSet([[10.0, 0.0]])
    union = PointSet([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    lx = l_power_nn(x, 1.0, j)
    ly = l_power_nn(y, 1.0, j)
    lu = l_power_nn(union, 1.0, j)
    assert ly == 0.0
    assert lu > lx + ly
    assert lu - lx - ly == 9.0


def test_rescaled_edge_power_sum_stabilizes():
    # per-point edge-power sum of the n^{1/d}-rescaled sample settles down
    # as n grows; no closed-form limit is asserted, only that the spread
    # across the large sizes is well below the overall drift
    rng = np.random.default_rng(31)
    means = {}
    for n in (75, 1200, 2400, 4800):
        vals = []
        for _ in range(4):
            pts = rng.random((n, 2))
            scaled = PointSet(math.sqrt(n) * pts)
            vals.append(l_phi(scaled, lambda t: t) / n)
        means[n] = float(np.mean(vals))
    late = [means[1200], means[2400], means[4800]]
    spread_late = max(late) - min(late)
    spread_total = abs(means[75] - means[4800])
    assert spread_late < spread_total / 2.0
