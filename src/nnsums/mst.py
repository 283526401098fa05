"""Euclidean minimum spanning trees and weighted edge functionals.

Implements Prim's algorithm with a fixed lexicographic tie-break so the
edge list is deterministic even on degenerate configurations such as grid
points. Each row of squared distances is computed when its vertex joins
the tree, so memory is O(n) and time O(n^2). Alongside the tree sits the
unnormalized neighbor power sum L^b = sum_x D_j(x)^b, which shares the
tree's subadditivity geometry and is the quantity the growth diagnostics
are phrased in.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .neighbors import _sq_dists_to, _weighted_sum
from .points import PointSet


@dataclass(frozen=True)
class EdgeList:
    """Edges (i, j, length) of a spanning tree, i < j, in discovery order."""

    n_vertices: int
    edges: tuple

    @property
    def total_length(self) -> float:
        return float(sum(e[2] for e in self.edges))

    def edge_pairs(self) -> set:
        return {(e[0], e[1]) for e in self.edges}

    def to_csv(self, path) -> None:
        """Write rows (i, j, length), full float precision, no header."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for i, j, length in self.edges:
                writer.writerow([i, j, repr(float(length))])


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def build_mst(xs: PointSet) -> EdgeList:
    """Minimum spanning tree of the complete Euclidean graph on ``xs``.

    Ties are broken by the lexicographically smallest (length, index pair),
    so the result is deterministic. Squared distances are compared; each
    edge takes one square root at the end.
    """
    n = len(xs)
    if n <= 1:
        return EdgeList(n_vertices=n, edges=())
    coords = xs.coords
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_sq = _sq_dists_to(coords, coords[0])
    best_parent = np.zeros(n, dtype=int)
    edges = []
    for _ in range(n - 1):
        outside = np.flatnonzero(~in_tree)
        m = best_sq[outside].min()
        ties = outside[best_sq[outside] == m]
        if len(ties) == 1:
            pick = int(ties[0])
        else:
            # smallest sorted index pair among the minimum-length edges wins
            pick = min(
                (int(v) for v in ties),
                key=lambda v: _pair(int(best_parent[v]), v),
            )
        parent = int(best_parent[pick])
        i, j = _pair(parent, pick)
        edges.append((i, j, math.sqrt(float(best_sq[pick]))))
        in_tree[pick] = True
        cand = _sq_dists_to(coords, coords[pick])
        better = ~in_tree & (cand < best_sq)
        best_sq[better] = cand[better]
        best_parent[better] = pick
        equal = ~in_tree & ~better & (cand == best_sq)
        for v in np.flatnonzero(equal):
            if _pair(pick, int(v)) < _pair(int(best_parent[v]), int(v)):
                best_parent[v] = pick
    return EdgeList(n_vertices=n, edges=tuple(edges))


def l_phi(xs: PointSet, phi, tree: EdgeList | None = None) -> float:
    """Sum of phi(edge length) over the minimum spanning tree edges."""
    if tree is None:
        tree = build_mst(xs)
    return float(sum(phi(length) for _, _, length in tree.edges))


def l_power_nn(xs: PointSet, b: float, j: int = 1) -> float:
    """Unnormalized neighbor power sum: sum over points of D_j(x)^b.

    Zero when the set has at most j points (every D_j is 0 by convention).
    Raises :class:`~nnsums.errors.DegenerateStatistic` when a summand or the
    sum is not finite, as for b < 0 on tied points.
    """
    return _weighted_sum(xs, j, lambda t: t**b, None, scale=False)
