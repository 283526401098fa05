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

The tree's split rule follows the sample. A set of at least
``_MIDPOINT_MIN_POINTS`` points whose every coordinate has a standard
deviation of at least ``_MIDPOINT_MIN_SPREAD`` of its range fills its
bounding box, as a uniform sample on a box or a ball does, and gets
sliding-midpoint splits (scipy's ``balanced_tree=False``), which build and
search such a set faster. Any other set, a heavy tail or a few far
clusters say, keeps scipy's median splits, which are faster there. The
split rule only shapes the tree: each query still runs the exact search
through the same distance kernel, so the distances are bitwise the same
under either rule.

The central statistic is the sum over the sample of (n^{1/d} D_j)^alpha,
where D_j is the distance from a point to its j-th nearest other point;
D_j is defined as 0 when the set has at most j points. It and its
phi-weighted form share one reduction, :func:`_row_sums`, which sums an
(s, n) array of distances row by row; a single sample is its one-row case.
The Monte Carlo sweep passes one row per replication of a stack to
:func:`_power_row_sums`, the power statistic by rows (see
:mod:`nnsums.experiments`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateStatistic, _integer, _real
from .points import PointSet

# The fewest points a set gets sliding-midpoint splits at (_fills_its_box):
# below it the test's numpy calls cost about what the split rule saves.
_MIDPOINT_MIN_POINTS = 2_000
# The least standard deviation, as a share of the range, that every
# coordinate of such a set has: 0.29 on a box, 0.25 on a disc, 0.11-0.16 for
# a Gaussian of 2 000 or more points, under 0.08 for the power tail and the
# counterexample.
_MIDPOINT_MIN_SPREAD = 0.2


@dataclass(frozen=True)
class NeighborQuery:
    """Which neighbor rank (j) of which point of the set to measure."""

    j: int
    index: int

    def __post_init__(self):
        object.__setattr__(self, "j", _integer("neighbor rank j", self.j, 1))
        object.__setattr__(self, "index", _integer("query index", self.index, 0))


def _sq_dists_to(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Matches the kd-tree's distance kernel op for op so the oracle and the
    # tree round identically: the kernel sums the squares of the first
    # 4 * (d // 4) coordinate differences in four lanes, coordinate c into
    # lane c % 4, adds the lanes as ((l0 + l1) + l2) + l3, and then adds the
    # remaining coordinates one by one. Below d = 4 that is a plain sum in
    # coordinate order. q is one point, or one column of coordinates per
    # row of points.
    d = points.shape[1]
    wide = d - d % 4
    acc = np.zeros(points.shape[0])
    if wide:
        lanes = [np.zeros_like(acc) for _ in range(4)]
        for c in range(wide):
            t = points[:, c] - q[c]
            lanes[c % 4] += t * t
        acc = lanes[0] + lanes[1] + lanes[2] + lanes[3]
    for c in range(wide, d):
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


def _fills_its_box(coords: np.ndarray) -> bool:
    """Whether a set is large and spread evenly enough for midpoint splits.

    True when it has at least ``_MIDPOINT_MIN_POINTS`` points and, on every
    coordinate, the standard deviation is at least ``_MIDPOINT_MIN_SPREAD``
    of the range. The spread is taken on each coordinate shifted by its
    minimum and divided by its range, whose values lie in [0, 1], so
    coordinates near the float maximum do not overflow a square. A range
    that overflows or is 0 gives NaN, and so False.
    """
    if len(coords) < _MIDPOINT_MIN_POINTS:
        return False
    with np.errstate(all="ignore"):
        for col in coords.T:
            lo = col.min()
            if not ((col - lo) / (col.max() - lo)).std() >= _MIDPOINT_MIN_SPREAD:
                return False
    return True


class NeighborIndex:
    """kd-tree built once over a point set, reusable across queries.

    The tree has scipy's leaf size of 16. A set that fills its box
    (:func:`_fills_its_box`) gets sliding-midpoint splits and plain nodes
    (``balanced_tree=False, compact_nodes=False``), which build and search
    it faster; any other set keeps scipy's median splits and compact nodes,
    which are faster on heavy tails and far clusters. Both trees run the
    same exact search through the same distance kernel, so the distances do
    not depend on the split rule, to the bit.
    """

    def __init__(self, xs: PointSet):
        self._xs = xs
        if len(xs):
            median = not _fills_its_box(xs.coords)
            self._tree = cKDTree(xs.coords, balanced_tree=median, compact_nodes=median)
        else:
            self._tree = None

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
        n, j = len(self._xs), _integer("neighbor rank j", j, 1)
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
    return NeighborIndex(xs).knn_distances(j)


def _power(alpha: float, name: str = "alpha"):
    """The summand t -> t**alpha of the power statistic; a refusal names alpha ``name``."""
    alpha = _real(name, alpha)
    return lambda t: t**alpha


def _scaled(dists: np.ndarray, d: int) -> np.ndarray:
    """n^{1/d} t for every distance t, n being the length of the last axis."""
    return float(dists.shape[-1]) ** (1.0 / d) * dists


def _row_sums(dists: np.ndarray, weight) -> tuple:
    """Sum of weight(t) along the last axis of an array of distances t.

    Returns the totals and the summands. ``weight`` receives the array as
    given, so a single sample (1-D) reaches it as a 1-D array. A row that
    holds an inf distance sums to NaN whatever the weight, since a negative
    power would turn those distances into zero summands and the row into a
    finite, wrong total. A row with a non-finite summand, or whose finite
    summands overflow, is left non-finite too, so a non-finite total marks
    every degenerate row. The rows are searched for an inf only when the
    array's maximum, one reduction, is not finite.
    """
    with np.errstate(all="ignore"):
        vals = weight(dists)
        totals = vals.sum(axis=-1)
    if not np.isfinite(dists.max()):
        totals = np.where(np.isinf(dists).any(axis=-1), np.nan, totals)
    return totals, vals


def _power_row_sums(dists: np.ndarray, d: int, alpha: float) -> np.ndarray:
    """The power statistic of each row of an (s, n) array of j-th neighbor
    distances in d dimensions: the sum of (n^{1/d} t)^alpha along the row.

    :func:`statistic_power` is the one-row case. A non-finite total marks a
    degenerate row (see :func:`_row_sums`).
    """
    return _row_sums(_scaled(dists, d), _power(alpha))[0]


def _weighted_sum(xs: PointSet, j: int, weight, scale: bool) -> float:
    """Sum of weight(t) over the j-th neighbor distances t of the sample.

    The one-row case of :func:`_row_sums`. With ``scale`` each distance is
    first multiplied by n^{1/d}. The sum is 0 when the set has at most j
    points. A distance that overflowed to inf, a non-finite summand (a
    negative power of a tied point's zero distance, say) or a non-finite
    total raises :class:`DegenerateStatistic`, whose message names the
    cause.
    """
    n, j = len(xs), _integer("neighbor rank j", j, 1)
    if n <= j:
        return 0.0
    dists = knn_distances(xs, j)
    if scale:
        dists = _scaled(dists, xs.dim)
    total, vals = _row_sums(dists, weight)
    total = float(total)
    if math.isfinite(total):
        return total
    far = int(np.count_nonzero(np.isinf(dists)))
    if far:
        raise DegenerateStatistic(
            f"{far} of {n} neighbour distances overflowed to inf (points too far apart)"
        )
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
    return _weighted_sum(xs, j, _power(alpha), scale=True)


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
