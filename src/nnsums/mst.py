"""Euclidean minimum spanning trees and the neighbor power sum L^b.

The edge of points i < j has the key i * n + j. Edges are ordered strictly
by (squared length, key), so the tree is unique even on grid points, and
it is listed in that order: the order in which Kruskal's algorithm adds
its edges, so every prefix is a minimum spanning forest. In d = 2 and 3
the search is restricted to the Delaunay edges, which contain every
minimum spanning tree edge (Shamos & Hoey, 1975), at an expected
O(n log n) cost. Elsewhere, and on inputs Qhull cannot triangulate
cleanly, Prim runs over the complete graph, one row of squared distances
per joining vertex: O(n) memory, O(n^2) time. Both paths return three
arrays, endpoints and lengths. A tree edge whose squared length overflows
is refused. Alongside the tree sits the unnormalized neighbor power sum
L^b = sum_x D_j(x)^b, which shares the tree's subadditivity geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay, QhullError

from .errors import DegenerateStatistic
from .neighbors import _power, _sq_dists_to, _weighted_sum
from .points import PointSet

#: The Delaunay path needs every Delaunay edge longer than this fraction of
#: the longest one; nearer pairs send the set to the complete-graph Prim.
_MIN_SEPARATION = 1e-7


@dataclass(frozen=True, eq=False)
class EdgeList:
    """A spanning tree as three read-only arrays, in Kruskal's order.

    Edge k joins ``i[k] < j[k]`` (intp) and has length ``length[k]``
    (float64). The order is part of the contract: the edges increase
    strictly in (squared length, i, j). Two trees compare by identity;
    compare their ``edges`` for equal trees.
    """

    n_vertices: int
    i: np.ndarray
    j: np.ndarray
    length: np.ndarray

    def __post_init__(self):
        for arr in (self.i, self.j, self.length):
            arr.setflags(write=False)

    @property
    def edges(self) -> tuple:
        """The edges as (i, j, length) tuples of Python ints and floats,
        built on each access."""
        return tuple(zip(self.i.tolist(), self.j.tolist(), self.length.tolist()))

    @property
    def total_length(self) -> float:
        # correctly rounded, so it does not depend on the listing order
        return math.fsum(self.length.tolist())

    def edge_pairs(self) -> set:
        return set(zip(self.i.tolist(), self.j.tolist()))


def build_mst(xs: PointSet) -> EdgeList:
    """Minimum spanning tree of the complete Euclidean graph on ``xs``.

    Both paths order the edges strictly by (squared length, i * n + j) for
    i < j, so the tree is unique even on ties, and list it in that order;
    ``test_golden.py`` pins it through ``edges``. Squared distances are
    compared; each edge takes one square root at the end.

    In d = 2 and 3 the search runs over the Delaunay edges only. It falls
    back to the O(n^2) Prim loop in other dimensions, for n <= d + 1, when
    Qhull fails or leaves a point out of the triangulation (equal points,
    for one), and when two points are closer than ``_MIN_SEPARATION`` times
    the longest Delaunay edge.

    A squared length past the largest float is inf, which never beats a
    finite one, so the tree is exact while every tree edge is finite. The
    longest edge is listed last; if it is inf, :class:`DegenerateStatistic`
    names how many overflowed.
    """
    with np.errstate(over="ignore"):
        arrays = _delaunay_mst(xs.coords)
        tree = _prim_mst(xs) if arrays is None else EdgeList(len(xs), *arrays)
    if len(tree.length) and np.isinf(tree.length[-1]):
        far = int(np.count_nonzero(np.isinf(tree.length)))
        raise DegenerateStatistic(
            f"{far} of {len(tree.length)} tree edges overflowed to inf (points too far apart)"
        )
    return tree


def _delaunay_mst(coords: np.ndarray) -> tuple | None:
    """The tree's (i, j, length) arrays over the Delaunay edges, or None to fall back.

    Every minimum spanning tree edge uv of distinct points is a Gabriel
    edge: a third point w in the closed disk on diameter uv has |uw| and
    |vw| strictly below |uv|, so uv would close a cycle as its longest
    edge. Gabriel edges belong to every Delaunay triangulation. Rounding
    moves a squared length by at most about 1e-15 relative for d <= 3, and
    no tree edge is longer than the longest Delaunay edge, so the rounded
    lengths keep both inequalities strict once no Delaunay edge is shorter
    than ``_MIN_SEPARATION`` times the longest. Closer pairs do break it:
    near-duplicate points 1e-12 apart gave a tree with a non-Delaunay edge.

    The edges are the vertex pairs a < b of Qhull's simplices, packed as the
    keys a * n + b, sorted and deduplicated, so they unpack in (i, j) order
    and one stable argsort of the squared lengths orders them by (len^2, i, j).
    csgraph's tree over those ranks is the tree under that order, and its
    ranks sorted list it in that order.
    """
    n, d = coords.shape
    if not 2 <= d <= 3 or n <= d + 1:
        return None
    try:
        tri = Delaunay(coords)
    except QhullError:
        return None
    if len(tri.coplanar):
        return None
    # each vertex pair of each simplex, smaller vertex first; int64, as
    # a * n + b of the int32 simplices wraps past n = 46 341
    s = tri.simplices
    a, b = np.triu_indices(d + 1, 1)
    keys = np.minimum(s[:, a], s[:, b]).astype(np.int64)
    keys *= n
    keys += np.maximum(s[:, a], s[:, b])
    keys = keys.ravel()
    keys.sort()
    i, j = np.divmod(keys[np.r_[True, keys[1:] != keys[:-1]]], n)
    # the accumulation of Prim's rows, so each length rounds as in Prim
    sq = _sq_dists_to(coords[i], coords[j].T)
    if sq.min() <= _MIN_SEPARATION**2 * sq.max():
        return None
    # distinct ranks 1..m make the tree unique under the order (len^2, i, j)
    order = np.argsort(sq, kind="stable")
    rank = np.empty(len(order), dtype=np.float64)
    rank[order] = np.arange(1, len(order) + 1)
    tree = minimum_spanning_tree(coo_matrix((rank, (i, j)), shape=(n, n))).tocoo()
    picked = order[np.sort(tree.data.astype(np.intp) - 1)]
    return i[picked], j[picked], np.sqrt(sq[picked])


def _prim_mst(xs: PointSet) -> EdgeList:
    """O(n^2) Prim over the complete graph, one distance row per new vertex.

    Each vertex keeps the squared length (inf once in the tree) and the
    key of its best edge to the tree; the outside vertex least in
    (len^2, key) joins, and the n - 1 edges are sorted once into that order.
    """
    n = len(xs)
    m = max(n - 1, 0)
    keys, sq = np.empty(m, dtype=np.int64), np.empty(m)
    coords = xs.coords
    outside = np.ones(n, dtype=bool)
    best_sq = np.full(n, np.inf)
    best_key = np.arange(n, dtype=np.int64)  # the edges (0, v)
    pick = 0
    for t in range(m):
        outside[pick] = False
        best_sq[pick] = np.inf
        cand = _sq_dists_to(coords, coords[pick])
        v = np.flatnonzero(outside & (cand <= best_sq))
        key_v = np.minimum(v, pick) * n + np.maximum(v, pick)
        take = (cand[v] < best_sq[v]) | (key_v < best_key[v])
        v, key_v = v[take], key_v[take]
        best_sq[v] = cand[v]
        best_key[v] = key_v
        # outside only: once every edge left has overflowed, the tree's inf
        # would tie with them
        tied = np.flatnonzero(outside & (best_sq == best_sq.min()))
        pick = tied[np.argmin(best_key[tied])]
        keys[t], sq[t] = best_key[pick], best_sq[pick]
    order = np.lexsort((keys, sq))
    i, j = np.divmod(keys[order], n)
    return EdgeList(n, i, j, np.sqrt(sq[order]))


def l_power_nn(xs: PointSet, b: float, j: int = 1) -> float:
    """Unnormalized neighbor power sum: sum over points of D_j(x)^b.

    Zero when the set has at most j points (every D_j is 0 by convention).
    Raises ``ValueError`` for a non-finite b, as :func:`statistic_power`
    does, and :class:`~nnsums.errors.DegenerateStatistic` when a summand or
    the sum is not finite, as for b < 0 on tied points.
    """
    return _weighted_sum(xs, j, _power(b, "b"), scale=False)
