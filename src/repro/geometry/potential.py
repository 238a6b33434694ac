"""Potential-region analytics for the diagonal ranking (paper Fig. 2).

For a node ``u`` with ``s = x_u + y_u``, the *potential region* ``R_u`` is
the part of the unit square strictly above the diagonal ``x + y = s`` —
every node there outranks ``u``.  The paper defines:

* the **potential area**   ``A_u = area(R_u)``,
* the **potential distance** ``L_u = max distance from u to a point of R_u``,
* the **potential angle**  ``alpha_u = 2 A_u / L_u^2`` — the angle of a pie
  slice of radius ``L_u`` with the same area as ``R_u``.

Lemma 6.1 proves ``alpha_u >= 1/2`` for every node; Lemma 6.2 bounds the
expected squared distance to the nearest higher-ranked node by
``2/(n alpha_u)``.  These functions compute all three quantities exactly
(closed form) and measure ``d_u`` empirically, so the FIG2 bench can verify
the lemmas numerically.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import GeometryError
from repro.geometry.ranks import diagonal_ranks


def _check_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"points must have shape (n, 2), got {pts.shape}")
    if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
        raise GeometryError("points must lie inside the unit square")
    return pts


def _region_vertices(x: float, y: float) -> np.ndarray:
    """Vertices of the potential region ``{x' + y' > x + y}`` within the square."""
    s = x + y
    if s <= 1.0:
        # Pentagon: (s,0)-(1,0)-(1,1)-(0,1)-(0,s).
        return np.array([[s, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, s]])
    # Triangle: (1, 1-t)-(1,1)-(1-t, 1), legs t as in potential_area.
    t = (1.0 - x) + (1.0 - y)
    return np.array([[1.0, 1.0 - t], [1.0, 1.0], [1.0 - t, 1.0]])


def potential_area(points: np.ndarray) -> np.ndarray:
    """Exact area ``A_u`` of every node's potential region.

    For ``s = x+y <= 1`` the excluded region is the triangle below the
    diagonal with area ``s^2/2``; for ``s > 1`` the potential region itself
    is a triangle with legs ``t = (1-x) + (1-y)``, not ``2 - s``: near the
    corner ``x + y`` rounds to ``2.0`` and ``2 - s`` would empty the region.
    """
    pts = _check_points(points)
    s = pts[:, 0] + pts[:, 1]
    t = (1.0 - pts[:, 0]) + (1.0 - pts[:, 1])
    return np.where(s <= 1.0, 1.0 - 0.5 * s * s, 0.5 * t * t)


def potential_distance(points: np.ndarray) -> np.ndarray:
    """Exact potential distance ``L_u`` for every node.

    The potential region is convex, so the farthest point from ``u`` is one
    of its vertices; we take the max over the (at most 5) vertices.
    """
    pts = _check_points(points)
    out = np.empty(len(pts))
    for i, (x, y) in enumerate(pts):
        verts = _region_vertices(x, y)
        d = verts - np.array([x, y])
        out[i] = float(np.sqrt(np.max(np.sum(d * d, axis=1))))
    return out


def potential_angle(points: np.ndarray) -> np.ndarray:
    """Potential angle ``alpha_u = 2 A_u / L_u^2`` (radians) for every node.

    Lemma 6.1: every entry is ``>= 1/2``.  For the single highest-ranked
    node (whose potential region may be arbitrarily small but whose ``L_u``
    shrinks along with it) the ratio stays well-defined; a node exactly at
    the corner ``(1, 1)`` has empty region and gets ``alpha = 0``.
    """
    pts = _check_points(points)
    area = potential_area(pts)
    dist = potential_distance(pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(dist > 0.0, 2.0 * area / (dist * dist), 0.0)
    return alpha


def nearest_higher_rank_distance(
    points: np.ndarray,
    ranks: np.ndarray | None = None,
    *,
    initial_k: int = 16,
) -> np.ndarray:
    """Distance ``d_u`` from each node to its nearest higher-ranked node.

    The highest-ranked node gets ``inf``.  Uses a KD-tree with an expanding
    ``k``-nearest query: for uniform points the nearest higher-ranked node is
    among the first few neighbours with overwhelming probability, so the
    expected cost is O(n log n).

    Parameters
    ----------
    points:
        ``(n, 2)`` coordinates.
    ranks:
        Dense rank permutation; defaults to the paper's diagonal ranking.
    initial_k:
        First batch size for the expanding neighbour query.
    """
    pts = _check_points(points)
    n = len(pts)
    if n == 0:
        return np.zeros(0)
    r = diagonal_ranks(pts) if ranks is None else np.asarray(ranks, dtype=np.int64)
    if len(r) != n:
        raise GeometryError("ranks length does not match points")
    tree = cKDTree(pts)
    out = np.full(n, np.inf)
    unresolved = np.arange(n)
    k = min(initial_k, n)
    while len(unresolved) and k <= n:
        # Query k nearest (includes self at distance 0).
        dists, idxs = tree.query(pts[unresolved], k=k)
        if k == 1:
            dists = dists[:, None]
            idxs = idxs[:, None]
        higher = r[idxs] > r[unresolved][:, None]
        found = higher.any(axis=1)
        first = np.argmax(higher[found], axis=1)
        out[unresolved[found]] = dists[found, first]
        unresolved = unresolved[~found]
        if k == n:
            break
        k = min(2 * k, n)
    # Whatever is left has no higher-ranked node at all (the global maximum).
    return out
