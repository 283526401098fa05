"""Euclidean minimum spanning trees and the neighbor power sum L^b.

Edges are ordered strictly by (squared length, i, j), so the tree and
the order in which Prim's algorithm from vertex 0 discovers it are
deterministic even on degenerate configurations such as grid points. In
d = 2 and 3 the search is restricted to the Delaunay edges, which contain
every minimum spanning tree edge (Shamos & Hoey, 1975), at an expected
O(n log n) cost. Elsewhere, and on inputs Qhull cannot triangulate
cleanly, Prim runs over the complete graph, computing each row of squared
distances when its vertex joins the tree, so memory is O(n) and time
O(n^2). Both paths return the same three arrays, endpoints and lengths
in discovery order, with no tuple per edge; ``EdgeList.edges`` builds
the (i, j, length) tuples on demand. Alongside the tree sits
the unnormalized neighbor power sum L^b = sum_x D_j(x)^b, which shares
the tree's subadditivity geometry and is the quantity the growth
diagnostics are phrased in.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay, QhullError

from .neighbors import _power, _sq_dists_to, _weighted_sum
from .points import PointSet

#: The Delaunay path needs every Delaunay edge longer than this fraction of
#: the longest one; nearer pairs send the set to the complete-graph Prim.
_MIN_SEPARATION = 1e-7


@dataclass(frozen=True, eq=False)
class EdgeList:
    """A spanning tree as three read-only arrays, in discovery order.

    Edge k joins ``i[k] < j[k]`` (intp) and has length ``length[k]``
    (float64). The order is part of the contract: Prim's discovery order
    from vertex 0 under the strict order (squared length, i, j). Two trees
    compare by identity; compare their ``edges`` for equal trees.
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
        # left to right in discovery order, not np.sum's pairwise order
        return float(sum(self.length.tolist()))

    def edge_pairs(self) -> set:
        return set(zip(self.i.tolist(), self.j.tolist()))


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def build_mst(xs: PointSet) -> EdgeList:
    """Minimum spanning tree of the complete Euclidean graph on ``xs``.

    Edges are ordered strictly by (squared length, i, j), so the tree is
    unique even on ties. The arrays of the :class:`EdgeList` list the tree
    in Prim's discovery order from vertex 0 under that order, on every
    path, and ``test_golden.py`` pins it through ``edges``. Squared
    distances are compared; each edge takes one square root at the end.

    In d = 2 and 3 the search runs over the Delaunay edges only, which
    contain every minimum spanning tree edge. It falls back to the O(n^2)
    Prim loop in other dimensions, for n <= d + 1, when Qhull fails or
    leaves a point out of the triangulation (equal points, for one), and
    when two points are closer than ``_MIN_SEPARATION`` times the longest
    Delaunay edge.
    """
    arrays = _delaunay_mst(xs.coords)
    if arrays is None:
        return _prim_mst(xs)
    return EdgeList(len(xs), *arrays)


def _delaunay_mst(coords: np.ndarray) -> tuple | None:
    """Prim's (i, j, length) arrays over the Delaunay edges, or None to fall back.

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
    The search allocates no container per edge, so the garbage collector
    has nothing to track: the heap holds each tree edge's position in the
    sorted order, a plain int that orders as its (len^2, i, j) key does,
    and the incidence lists are CSR arrays.
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
    # int64, as a * n + b of the int32 simplices wraps past n = 46 341
    simplices = np.sort(tri.simplices, axis=1).astype(np.int64)
    a, b = np.triu_indices(d + 1, 1)
    keys = (simplices[:, a] * n + simplices[:, b]).ravel()
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
    # the n - 1 tree edges in that order: edge k's key is its index k
    picked = order[np.sort(tree.data.astype(np.intp) - 1)]
    ti, tj, sq_tree = i[picked], j[picked], sq[picked]
    # row v of the incidence lists the tree edges at vertex v
    ends = np.concatenate([ti, tj])
    by_end = np.argsort(ends, kind="stable")
    ptr = np.searchsorted(ends[by_end], np.arange(n + 1)).tolist()
    inc = (by_end % len(picked)).tolist()
    first, second = ti.tolist(), tj.tolist()
    # Prim over the tree recovers the discovery order of Prim over all pairs;
    # in a tree only the edge just popped reaches back into it
    heap = inc[ptr[0] : ptr[1]]
    heapq.heapify(heap)
    in_tree = bytearray(n)
    in_tree[0] = 1
    found = []
    while heap:
        k = heapq.heappop(heap)
        found.append(k)
        v = second[k] if in_tree[first[k]] else first[k]
        in_tree[v] = 1
        for e in inc[ptr[v] : ptr[v + 1]]:
            if e != k:
                heapq.heappush(heap, e)
    f = np.array(found, dtype=np.intp)
    # np.sqrt and math.sqrt are both correctly rounded, so Prim's lengths keep their bits
    return ti[f], tj[f], np.sqrt(sq_tree[f])


def _prim_mst(xs: PointSet) -> EdgeList:
    """O(n^2) Prim over the complete graph, one distance row per new vertex."""
    n = len(xs)
    m = max(n - 1, 0)
    ei, ej = np.empty(m, dtype=np.intp), np.empty(m, dtype=np.intp)
    length = np.empty(m)
    if n <= 1:
        return EdgeList(n, ei, ej, length)
    coords = xs.coords
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_sq = _sq_dists_to(coords, coords[0])
    best_parent = np.zeros(n, dtype=int)
    for t in range(m):
        outside = np.flatnonzero(~in_tree)
        m_sq = best_sq[outside].min()
        ties = outside[best_sq[outside] == m_sq]
        if len(ties) == 1:
            pick = int(ties[0])
        else:
            # smallest sorted index pair among the minimum-length edges wins
            pick = min(
                (int(v) for v in ties),
                key=lambda v: _pair(int(best_parent[v]), v),
            )
        parent = int(best_parent[pick])
        ei[t], ej[t] = _pair(parent, pick)
        length[t] = math.sqrt(float(best_sq[pick]))
        in_tree[pick] = True
        cand = _sq_dists_to(coords, coords[pick])
        better = ~in_tree & (cand < best_sq)
        best_sq[better] = cand[better]
        best_parent[better] = pick
        equal = ~in_tree & ~better & (cand == best_sq)
        for v in np.flatnonzero(equal):
            if _pair(pick, int(v)) < _pair(int(best_parent[v]), int(v)):
                best_parent[v] = pick
    return EdgeList(n, ei, ej, length)


def l_power_nn(xs: PointSet, b: float, j: int = 1) -> float:
    """Unnormalized neighbor power sum: sum over points of D_j(x)^b.

    Zero when the set has at most j points (every D_j is 0 by convention).
    Raises ``ValueError`` for a non-finite b, as :func:`statistic_power`
    does, and :class:`~nnsums.errors.DegenerateStatistic` when a summand or
    the sum is not finite, as for b < 0 on tied points.
    """
    return _weighted_sum(xs, j, _power(b, "b"), scale=False)
