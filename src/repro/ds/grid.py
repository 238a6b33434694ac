"""A uniform 2-D bucket grid over the unit square.

Two users inside the library:

* the percolation analytics subdivide the unit square into cells of side
  ``r/2`` and reason about occupied / *good* cells (paper Sec. V-B);
* spatial queries (which points fall in a cell, neighbours of a cell) when a
  KD-tree is overkill.

Cell ``(i, j)`` covers ``[i*side, (i+1)*side) x [j*side, (j+1)*side)``; the
last row/column absorbs the ``x == 1`` / ``y == 1`` boundary.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from scipy import ndimage

from repro.errors import GeometryError

#: Connectivity structures for :meth:`CellGrid.label_clusters`.
#: 4-connectivity is scipy's default cross structure; 8-connectivity is
#: the full 3x3 block.
_STRUCTURE = {
    4: ndimage.generate_binary_structure(2, 1),
    8: np.ones((3, 3), dtype=bool),
}


class CellGrid:
    """Partition of the unit square into ``m x m`` square cells.

    Parameters
    ----------
    side:
        Cell side length.  The grid has ``m = ceil(1/side)`` cells per axis;
        cells in the last row/column may be truncated by the square boundary.
    points:
        Optional ``(n, 2)`` array of points in ``[0, 1]^2`` to bucket
        immediately (equivalent to calling :meth:`assign`).
    """

    def __init__(self, side: float, points: np.ndarray | None = None) -> None:
        if not (0 < side <= 1):
            raise GeometryError(f"cell side must be in (0, 1], got {side}")
        self.side = float(side)
        self.m = int(np.ceil(1.0 / self.side))
        self._counts: np.ndarray | None = None
        self._cell_of: np.ndarray | None = None
        self._points: np.ndarray | None = None
        self._bucket_order: np.ndarray | None = None
        self._bucket_indptr: np.ndarray | None = None
        if points is not None:
            self.assign(points)

    # -- population ---------------------------------------------------------

    def assign(self, points: np.ndarray) -> None:
        """Bucket ``points`` (shape ``(n, 2)``, inside the unit square)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError(f"points must have shape (n, 2), got {pts.shape}")
        if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
            raise GeometryError("points must lie inside the unit square")
        idx = np.minimum((pts / self.side).astype(np.int64), self.m - 1)
        self._cell_of = idx
        self._points = pts
        # Flattened-cell bucket index: a stable argsort groups the point
        # indices of each cell contiguously, and an indptr built from the
        # per-cell counts makes points_in_cell an O(1) slice.
        flat = idx[:, 0] * self.m + idx[:, 1]
        self._bucket_order = np.argsort(flat, kind="stable")
        flat_counts = np.bincount(flat, minlength=self.m * self.m)
        self._bucket_indptr = np.concatenate(
            [[0], np.cumsum(flat_counts)]
        )
        self._counts = flat_counts.reshape(self.m, self.m).astype(np.int64)

    # -- queries ------------------------------------------------------------

    @property
    def counts(self) -> np.ndarray:
        """``(m, m)`` array of point counts per cell."""
        if self._counts is None:
            raise GeometryError("grid has no points assigned; call assign()")
        return self._counts

    @property
    def n_cells(self) -> int:
        """Total number of cells ``m*m``."""
        return self.m * self.m

    def cell_of(self, point_index: int) -> tuple[int, int]:
        """Cell ``(i, j)`` containing the ``point_index``-th assigned point."""
        if self._cell_of is None:
            raise GeometryError("grid has no points assigned; call assign()")
        i, j = self._cell_of[point_index]
        return int(i), int(j)

    def points_in_cell(self, i: int, j: int) -> np.ndarray:
        """Indices of assigned points inside cell ``(i, j)``.

        O(size of the answer): a slice of the precomputed per-cell bucket
        index (ascending point indices, as a stable grouping preserves).
        """
        if self._cell_of is None:
            raise GeometryError("grid has no points assigned; call assign()")
        if not (0 <= i < self.m and 0 <= j < self.m):
            return np.zeros(0, dtype=np.intp)
        flat = i * self.m + j
        s, e = self._bucket_indptr[flat], self._bucket_indptr[flat + 1]
        return self._bucket_order[s:e]

    def neighbors4(self, i: int, j: int) -> Iterator[tuple[int, int]]:
        """Von-Neumann (4-) neighbours of cell ``(i, j)`` inside the grid."""
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < self.m and 0 <= nj < self.m:
                yield ni, nj

    def neighbors8(self, i: int, j: int) -> Iterator[tuple[int, int]]:
        """Moore (8-) neighbours of cell ``(i, j)`` inside the grid."""
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == dj == 0:
                    continue
                ni, nj = i + di, j + dj
                if 0 <= ni < self.m and 0 <= nj < self.m:
                    yield ni, nj

    def label_clusters(self, mask: np.ndarray, connectivity: int = 4) -> np.ndarray:
        """Label connected clusters of ``True`` cells.

        Returns an ``(m, m)`` int array where ``0`` marks ``False`` cells and
        clusters are numbered ``1..k`` in raster-scan order of their first
        cell — the numbering the old pure-Python flood fill produced, which
        ``scipy.ndimage.label`` matches (both scan row-major and assign the
        next label at each unseen foreground cell).

        Parameters
        ----------
        mask:
            Boolean ``(m, m)`` array.
        connectivity:
            4 (edge-adjacency, the site-percolation convention) or 8.
        """
        if mask.shape != (self.m, self.m):
            raise GeometryError(
                f"mask shape {mask.shape} does not match grid ({self.m}, {self.m})"
            )
        if connectivity not in (4, 8):
            raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
        labels, _ = ndimage.label(mask, structure=_STRUCTURE[connectivity])
        return labels.astype(np.int64)

    def cluster_sizes(self, labels: np.ndarray) -> np.ndarray:
        """Sizes (in cells) of clusters ``1..k`` given a label array."""
        k = int(labels.max())
        if k == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(labels.ravel(), minlength=k + 1)[1:]
