"""Point sets: the finite samples the neighbor statistics run on."""

from __future__ import annotations

import csv

import numpy as np


class PointSet:
    """An ordered collection of d-dimensional points with finite coordinates.

    Coordinates are held as a read-only (n, d) float64 array. Duplicate
    points are allowed; a duplicate sits at distance 0 and counts as a
    neighbor like any other point.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords):
        arr = np.array(coords, dtype=np.float64, copy=True)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"expected an (n, d) coordinate array, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ValueError("points must have at least one coordinate")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("point coordinates must be finite")
        arr.setflags(write=False)
        self._coords = arr

    @property
    def coords(self) -> np.ndarray:
        """The (n, d) coordinate array (read-only view)."""
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.shape[1]

    def __len__(self) -> int:
        return self._coords.shape[0]

    def __getitem__(self, i) -> np.ndarray:
        return self._coords[i]

    def __repr__(self) -> str:
        return f"PointSet(n={len(self)}, dim={self.dim})"

    @classmethod
    def from_csv(cls, path) -> "PointSet":
        """Read points from CSV: one point per row, d columns, no header.

        Rejects ragged rows and non-numeric entries.
        """
        rows = []
        width = None
        with open(path, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ValueError(
                        f"{path}: row {lineno} has {len(row)} columns, expected {width}"
                    )
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ValueError(f"{path}: row {lineno}: {exc}") from None
        if not rows:
            raise ValueError(f"{path}: no points found")
        return cls(rows)
