"""Exact j-th nearest-neighbor distances and power-weighted sums.

Every neighbor query goes through one kd-tree (:class:`NeighborIndex`).
:func:`nn_distance_bruteforce` is kept as the test oracle: it accumulates
exact squared distances coordinate by coordinate, as the tree's distance
kernel does, and takes a single square root at the end, so the two return
bitwise-identical values, which the test suite checks at scale.

An all-points search (:meth:`NeighborIndex.knn_distances`) queries the
tree's own points in the tree's leaf order rather than in sample order, so
consecutive queries start in the same leaf and walk the same nodes while
they are still in cache, and then scatters each result back to its point's
place in the sample. Every query still goes through the same kernel with
the same coordinates, and a point's j-th smallest distance does not depend
on the order of the queries, so the distances are bitwise the same as in
sample order.

The central statistic is the sum over the sample of (n^{1/d} D_j)^alpha,
where D_j is the distance from a point to its j-th nearest other point;
D_j is defined as 0 when the set has at most j points. It and its
phi-weighted form share one reduction, :func:`_weighted_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateStatistic
from .points import PointSet

# kd-tree: median split on the widest-spread coordinate, leaf size 16.
_LEAF_SIZE = 16


@dataclass(frozen=True)
class NeighborQuery:
    """Which neighbor rank (j) of which point of the set to measure."""

    j: int
    index: int

    def __post_init__(self):
        if self.j < 1:
            raise ValueError(f"neighbor rank j must be >= 1, got {self.j}")
        if self.index < 0:
            raise IndexError(f"query index must be >= 0, got {self.index}")


def _sq_dists_to(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Coordinate-by-coordinate accumulation; matches the kd-tree's distance
    # kernel op for op so the oracle and the tree round identically.
    acc = np.zeros(points.shape[0])
    for c in range(points.shape[1]):
        t = points[:, c] - q[c]
        acc += t * t
    return acc


def _check_query(xs: PointSet, q: NeighborQuery) -> None:
    if q.index >= len(xs):
        raise IndexError(f"query index {q.index} out of range for set of {len(xs)} points")


def nn_distance_bruteforce(xs: PointSet, q: NeighborQuery) -> float:
    """Distance from point ``q.index`` to its j-th nearest other point.

    Returns 0 when the set has at most j points. Total function: never
    raises on valid queries, ties and duplicates included.
    """
    _check_query(xs, q)
    n = len(xs)
    if n <= q.j:
        return 0.0
    sq = _sq_dists_to(xs.coords, xs.coords[q.index])
    # The query point contributes one zero distance, shifting the rank of
    # every other point by exactly one.
    return float(np.sqrt(np.partition(sq, q.j)[q.j]))


class NeighborIndex:
    """kd-tree built once over a point set, reusable across queries."""

    def __init__(self, xs: PointSet):
        self._xs = xs
        self._tree = (
            cKDTree(xs.coords, leafsize=_LEAF_SIZE, balanced_tree=True, compact_nodes=True)
            if len(xs)
            else None
        )

    @property
    def points(self) -> PointSet:
        return self._xs

    def nn_distance(self, q: NeighborQuery) -> float:
        _check_query(self._xs, q)
        n = len(self._xs)
        if n <= q.j:
            return 0.0
        dists, _ = self._tree.query(self._xs.coords[q.index], k=q.j + 1)
        return float(dists[q.j])

    def knn_distances(self, j: int) -> np.ndarray:
        """j-th neighbor distance for every point of the set at once.

        The points are queried in the tree's leaf order, which keeps the
        nodes and coordinates that consecutive queries visit in cache, and
        each distance is scattered back to its point's index in the set.
        The result is bitwise equal to querying in sample order: each point
        is queried with the same coordinates through the same kernel, and
        its j-th smallest distance does not depend on when it is asked for.
        """
        n = len(self._xs)
        if n <= j:
            return np.zeros(n)
        order = self._tree.indices
        dists, _ = self._tree.query(self._tree.data[order], k=j + 1)
        out = np.empty(n)
        out[order] = dists[:, j]
        return out


def build_index(xs: PointSet) -> NeighborIndex:
    return NeighborIndex(xs)


def nn_distance_indexed(xs: PointSet, q: NeighborQuery, index: NeighborIndex | None = None) -> float:
    """kd-tree accelerated version of :func:`nn_distance_bruteforce`.

    Bitwise-equal to the brute-force result for the same inputs. Pass a
    prebuilt ``index`` when issuing many queries against one set.
    """
    if index is None:
        index = NeighborIndex(xs)
    elif index.points is not xs:
        raise ValueError("index was built over a different point set")
    return index.nn_distance(q)


def knn_distances(xs: PointSet, j: int) -> np.ndarray:
    """j-th neighbor distances for all points, exact, from one kd-tree
    built over ``xs``."""
    if j < 1:
        raise ValueError(f"neighbor rank j must be >= 1, got {j}")
    return NeighborIndex(xs).knn_distances(j)


def _weighted_sum(xs: PointSet, j: int, weight, scale: bool) -> float:
    """Sum of weight(t) over the j-th neighbor distances t of the sample.

    With ``scale`` each distance is first multiplied by n^{1/d}. ``weight``
    maps the array of distances to an array of summands. The sum is 0 when
    the set has at most j points. A non-finite summand (a negative power of
    a tied point's zero distance, say) or a non-finite total raises
    :class:`DegenerateStatistic`.
    """
    n = len(xs)
    if n <= j:
        return 0.0
    dists = knn_distances(xs, j)
    if scale:
        dists = float(n) ** (1.0 / xs.dim) * dists
    with np.errstate(all="ignore"):
        vals = weight(dists)
        total = float(vals.sum())
    # a finite total has only finite summands, so count them only otherwise
    if math.isfinite(total):
        return total
    bad = int(np.count_nonzero(~np.isfinite(vals)))
    if bad:
        raise DegenerateStatistic(
            f"{bad} of {n} summands not finite (tied points under a negative power?)"
        )
    raise DegenerateStatistic(f"the sum of {n} finite summands overflowed")


def statistic_power(xs: PointSet, j: int, alpha: float) -> float:
    """Sum over the sample of (n^{1/d} D_j)^alpha.

    Defined as 0 when the set has at most j points (all D_j are 0 by
    convention, so the sum degenerates). For alpha < 0 a zero neighbor
    distance (tied points) would make a summand infinite; that raises
    :class:`DegenerateStatistic` so the caller can resample.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return _weighted_sum(xs, j, lambda t: t**alpha, scale=True)


def statistic_phi(xs: PointSet, j: int, phi) -> float:
    """Sum over the sample of phi(n^{1/d} D_j) for a weight function phi.

    Agrees with :func:`statistic_power` for phi(t) = t**alpha wherever both
    are defined. ``phi`` may act on arrays or on single floats. Non-finite
    phi values raise :class:`DegenerateStatistic`.
    """
    return _weighted_sum(xs, j, lambda scaled: _elementwise(phi, scaled), scale=True)


def _elementwise(phi, x: np.ndarray) -> np.ndarray:
    """phi at every entry of ``x``, whether phi acts on arrays or only on
    single floats."""
    try:
        vals = np.asarray(phi(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    flat = np.fromiter((float(phi(t)) for t in x.flat), dtype=float, count=x.size)
    return flat.reshape(x.shape)
