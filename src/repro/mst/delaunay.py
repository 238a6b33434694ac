"""Exact Euclidean MST via Delaunay containment.

The Euclidean MST of a planar point set is a subgraph of its Delaunay
triangulation, so running Kruskal on the O(n) Delaunay edges yields the
exact EMST in O(n log n) — this is the ground-truth oracle for every
quality experiment (TAB1) and for verifying the distributed algorithms.

Degenerate inputs (fewer than 4 points, or all points collinear) make
Qhull fail; we fall back to the complete graph there, which is tiny in
those cases.  Points Qhull leaves out of the triangulation (repeats of
a point) are joined to every other point.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay, QhullError

from repro.errors import GeometryError
from repro.mst.kruskal import kruskal_mst


def delaunay_edges(points: np.ndarray) -> np.ndarray:
    """Unique undirected edges ``(u < v)`` of the Delaunay triangulation.

    Falls back to all pairs for degenerate inputs (n < 4 or collinear);
    a point left out of the triangulation is paired with every other.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"points must have shape (n, 2), got {pts.shape}")
    n = len(pts)
    if n < 2:
        return np.zeros((0, 2), dtype=np.int64)

    def _all_pairs() -> np.ndarray:
        iu, ju = np.triu_indices(n, k=1)
        return np.stack([iu, ju], axis=1).astype(np.int64)

    if n < 4:
        return _all_pairs()
    try:
        tri = Delaunay(pts)
    except QhullError:
        return _all_pairs()
    simplices = tri.simplices
    # Each triangle (a, b, c) contributes edges ab, bc, ca.
    pairs = np.concatenate(
        [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]]
    )
    # Qhull leaves repeated (or numerically coincident) points out of the
    # triangulation.  An EMST edge between two triangulated points is an
    # MST edge of those points alone (cycle property), so joining each
    # left-out point to every other point keeps an EMST in the edge set.
    out = np.flatnonzero(np.bincount(simplices.ravel(), minlength=n) == 0)
    if len(out):
        extra = np.stack([np.repeat(out, n), np.tile(np.arange(n), len(out))], axis=1)
        pairs = np.concatenate([pairs, extra[extra[:, 0] != extra[:, 1]]])
    pairs = np.sort(pairs, axis=1)
    return np.unique(pairs, axis=0).astype(np.int64)


def euclidean_mst(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Euclidean minimum spanning tree of ``points``.

    Returns ``(edges, lengths)``: ``(n-1, 2)`` edges with ``u < v`` and
    their Euclidean lengths, in ascending-weight insertion order.
    """
    pts = np.asarray(points, dtype=float)
    edges = delaunay_edges(pts)
    if len(edges) == 0:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0)
    diffs = pts[edges[:, 0]] - pts[edges[:, 1]]
    lengths = np.sqrt(np.sum(diffs * diffs, axis=1))
    return kruskal_mst(len(pts), edges, lengths)
