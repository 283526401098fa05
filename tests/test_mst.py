import gc
import heapq
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree as scipy_mst
from scipy.spatial import Delaunay

from nnsums import DegenerateStatistic, PointSet, build_mst, l_power_nn
from nnsums import mst


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
    assert build_mst(PointSet(np.zeros((0, 2)))).edges == ()
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


def _grid(k: int) -> np.ndarray:
    return np.array([[float(a), float(b)] for a in range(k) for b in range(k)])


def _equal_sets():
    rng = np.random.default_rng(4242)
    angles = rng.uniform(0.0, 2.0 * math.pi, 300)
    lattice = np.unique(rng.integers(0, 12, size=(500, 2)), axis=0).astype(float)
    return {
        "uniform-2d": rng.random((1500, 2)),
        "uniform-3d": rng.random((800, 3)),
        "grid": _grid(15),
        "jittered-grid": _grid(20) + 1e-12 * rng.standard_normal((400, 2)),
        "circle": np.column_stack([np.cos(angles), np.sin(angles)]),
        "student-t": rng.standard_t(1.5, size=(600, 2)),
        "lattice-ties": rng.permutation(lattice),
        "lattice-ties-3d": rng.permutation(
            np.unique(rng.integers(0, 6, size=(300, 3)), axis=0).astype(float)
        ),
        "near-duplicate-pairs": _near_duplicate_pairs(),
    }


def _near_duplicate_pairs():
    # pairs 1e-13..1e-6 apart; with no separation guard the Delaunay
    # path returns a different tree on this set
    rng = np.random.default_rng([7, 890])
    n = int(rng.integers(20, 300))
    pts = rng.random((n, 2))
    k = n // 3
    scale = 10.0 ** rng.uniform(-13, -6)
    return np.vstack([pts, pts[:k] + scale * rng.standard_normal((k, 2))])


@pytest.mark.parametrize("name", sorted(_equal_sets()))
def test_delaunay_path_matches_prim(name):
    xs = PointSet(_equal_sets()[name])
    assert build_mst(xs).edges == mst._prim_mst(xs).edges


def _tuple_delaunay_mst(coords):
    """The Delaunay search as it was written with one heap tuple and one edge
    tuple per edge, kept as the oracle of the array search's order and bits."""
    n = len(coords)
    tri = Delaunay(coords)
    indptr, nbrs = tri.vertex_neighbor_vertices
    src = np.repeat(np.arange(n), np.diff(indptr))
    keep = src < nbrs
    i, j = src[keep], nbrs[keep]
    sq = mst._sq_dists_to(coords[i], coords[j].T)
    order = np.lexsort((j, i, sq))
    rank = np.empty(len(order), dtype=np.float64)
    rank[order] = np.arange(1, len(order) + 1)
    tree = scipy_mst(coo_matrix((rank, (i, j)), shape=(n, n))).tocoo()
    picked = order[tree.data.astype(np.intp) - 1]
    adjacent = [[] for _ in range(n)]
    for key in zip(sq[picked].tolist(), i[picked].tolist(), j[picked].tolist()):
        adjacent[key[1]].append(key)
        adjacent[key[2]].append(key)
    heap = list(adjacent[0])
    heapq.heapify(heap)
    in_tree = [False] * n
    in_tree[0] = True
    edges = []
    while heap:
        s, a, b = heapq.heappop(heap)
        edges.append((a, b, math.sqrt(s)))
        v = b if in_tree[a] else a
        in_tree[v] = True
        for key in adjacent[v]:
            if not (in_tree[key[1]] and in_tree[key[2]]):
                heapq.heappush(heap, key)
    return tuple(edges)


def _search_sets():
    sets = {
        f"uniform-{d}d-{seed}": np.random.default_rng([seed, d]).random((1500, d))
        for d in (2, 3)
        for seed in (7, 101, 4242)
    }
    sets["grid"] = _grid(15)  # ties everywhere
    sets["grid-3d"] = np.array(list(itertools.product(range(6), repeat=3)), dtype=float)
    # i * n + j of two int32 vertex indices wraps once n passes 46 341
    sets["uniform-2d-50000"] = np.random.default_rng(46341).random((50000, 2))
    return sets


@pytest.mark.parametrize("name", sorted(_search_sets()))
def test_array_search_matches_the_tuple_search(monkeypatch, name):
    monkeypatch.setattr(mst, "_prim_mst", _no_prim)
    pts = _search_sets()[name]
    assert build_mst(PointSet(pts)).edges == _tuple_delaunay_mst(pts)


def test_delaunay_search_allocates_no_object_per_edge():
    # gc's generation-0 count rises by one per container the build keeps
    # alive; a heap tuple or an edge tuple per edge made it grow with n.
    # The first build fills scipy's lazy caches, so it is left out.
    build_mst(PointSet(np.random.default_rng(0).random((100, 2))))
    grown = []
    for n in (1200, 4800):
        xs = PointSet(np.random.default_rng(n).random((n, 2)))
        gc.disable()
        try:
            before = gc.get_count()[0]
            tree = build_mst(xs)
            grown.append(gc.get_count()[0] - before)
        finally:
            gc.enable()
        assert len(tree.i) == n - 1
    assert max(grown) < 100


def test_edges_are_python_numbers_and_the_arrays_read_only():
    tree = build_mst(PointSet(np.random.default_rng(3).random((2000, 2))))
    rows = [list(e) for e in tree.edges]
    assert json.loads(json.dumps(rows)) == rows
    # the total adds the lengths left to right in discovery order
    assert tree.total_length == sum(length for _, _, length in rows)
    assert tree.i.dtype == tree.j.dtype == np.intp and tree.length.dtype == np.float64
    for arr in (tree.i, tree.j, tree.length):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # trees compare by identity, never by array truth values
    assert tree != build_mst(PointSet(np.random.default_rng(3).random((2000, 2))))


def _no_prim(xs):
    raise AssertionError("complete-graph Prim reached")


@pytest.mark.parametrize("d", [2, 3])
def test_uniform_points_skip_prim(monkeypatch, d):
    monkeypatch.setattr(mst, "_prim_mst", _no_prim)
    tree = build_mst(PointSet(np.random.default_rng(d).random((500, d))))
    assert len(tree.edges) == 499


def _fallback_inputs():
    rng = np.random.default_rng(17)
    uniform = rng.random((60, 2))
    near = uniform[:5] + 1e-12 * rng.standard_normal((5, 2))
    return {
        "duplicate": np.vstack([uniform, uniform[7:8]]),
        "near-duplicate": np.vstack([uniform, near]),
        "collinear-2d": np.column_stack([rng.random(40), np.zeros(40)]),
        "d=1": rng.random((40, 1)),
        "d=4": rng.random((40, 4)),
        "n=d+1": rng.random((3, 2)),
    }


@pytest.mark.parametrize("name", sorted(_fallback_inputs()))
def test_fallbacks_reach_prim(monkeypatch, name):
    monkeypatch.setattr(mst, "_prim_mst", _no_prim)
    with pytest.raises(AssertionError, match="Prim reached"):
        build_mst(PointSet(_fallback_inputs()[name]))


@pytest.mark.parametrize("path", ["delaunay", "prim-fallback"])
def test_build_mst_memory_is_linear(path):
    # an n x n matrix of float64 alone is 69 MiB at n = 3000
    pts = np.random.default_rng(8).random((3000, 2))
    if path == "prim-fallback":
        # a duplicated point sends the set to the complete-graph loop
        pts = np.vstack([pts, pts[11:12]])
    xs = PointSet(pts)
    tracemalloc.start()
    try:
        tree = build_mst(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tree.edges) == len(xs) - 1
    assert peak < 10 * 2**20


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


def test_l_power_nn_names_overflowed_distances():
    xs = PointSet([[0.0], [1e200], [3e200]])
    with pytest.raises(DegenerateStatistic, match="3 of 3 neighbour distances overflowed"):
        l_power_nn(xs, 1.0)
    # a negative power would turn the inf distances into a silent 0.0
    with pytest.raises(DegenerateStatistic, match="3 of 3 neighbour distances overflowed"):
        l_power_nn(xs, -1.0)


@pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan])
def test_l_power_nn_refuses_a_non_finite_exponent(b):
    # the exponent rule of the power statistic: inf once summed to 0.0, and
    # -inf and NaN blamed tied points
    with pytest.raises(ValueError, match="b must be a finite number"):
        l_power_nn(PointSet([[0.0], [0.3], [0.5]]), b)


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
            vals.append(build_mst(scaled).total_length / n)
        means[n] = float(np.mean(vals))
    late = [means[1200], means[2400], means[4800]]
    spread_late = max(late) - min(late)
    spread_total = abs(means[75] - means[4800])
    assert spread_late < spread_total / 2.0
