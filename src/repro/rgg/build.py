"""RGG construction via KD-tree range queries.

:class:`GeometricGraph` is the central graph object handed to the exact
MST routines, the percolation analytics and the distributed simulator.  It
stores the point coordinates, the radius, a CSR-like adjacency structure
and the undirected edge list with Euclidean lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import GeometryError, GraphError


@dataclass(frozen=True)
class GeometricGraph:
    """An undirected geometric graph over points in the unit square.

    Attributes
    ----------
    points:
        ``(n, 2)`` node coordinates.
    radius:
        Connection radius used to build the graph (``inf`` for a complete
        graph built by :meth:`complete`).
    edges:
        ``(m, 2)`` int array; each row ``(u, v)`` with ``u < v``.
    lengths:
        ``(m,)`` Euclidean edge lengths, parallel to ``edges``.
    indptr, indices:
        CSR adjacency: neighbours of ``u`` are
        ``indices[indptr[u]:indptr[u+1]]``, sorted by node id.
    """

    points: np.ndarray
    radius: float
    edges: np.ndarray
    lengths: np.ndarray
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.points)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.edges)

    def neighbors(self, u: int) -> np.ndarray:
        """Node ids adjacent to ``u`` (sorted ascending)."""
        if not (0 <= u < self.n):
            raise GraphError(f"node {u} out of range [0, {self.n})")
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        if not (0 <= u < self.n):
            raise GraphError(f"node {u} out of range [0, {self.n})")
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        """Degree of every node."""
        return np.diff(self.indptr)

    def distance(self, u: int, v: int) -> float:
        """Euclidean distance between nodes ``u`` and ``v`` (any pair)."""
        d = self.points[u] - self.points[v]
        return float(np.sqrt(d @ d))

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` with ``weight`` = length."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_weighted_edges_from(
            (int(u), int(v), float(w))
            for (u, v), w in zip(self.edges, self.lengths)
        )
        return g


def _assemble(
    points: np.ndarray, radius: float, edges: np.ndarray, lengths: np.ndarray
) -> GeometricGraph:
    """Build the CSR adjacency from an undirected edge list."""
    n = len(points)
    if len(edges):
        sym = np.concatenate([edges, edges[:, ::-1]])
        order = np.lexsort((sym[:, 1], sym[:, 0]))
        sym = sym[order]
        counts = np.bincount(sym[:, 0], minlength=n)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indices = np.ascontiguousarray(sym[:, 1])
    else:
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.zeros(0, dtype=np.int64)
    return GeometricGraph(
        points=points,
        radius=radius,
        edges=edges,
        lengths=lengths,
        indptr=indptr.astype(np.int64),
        indices=indices.astype(np.int64),
    )


def build_rgg(points: np.ndarray, radius: float) -> GeometricGraph:
    """Build the RGG connecting all pairs within Euclidean ``radius``.

    Uses :meth:`cKDTree.query_pairs`, so only the O(|E|) near pairs are ever
    materialised.

    Parameters
    ----------
    points:
        ``(n, 2)`` coordinates.
    radius:
        Connection radius (inclusive: ``d(u, v) <= radius``).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"points must have shape (n, 2), got {pts.shape}")
    if radius < 0:
        raise GeometryError(f"radius must be non-negative, got {radius}")
    if len(pts) == 0:
        return _assemble(pts, float(radius), np.zeros((0, 2), dtype=np.int64), np.zeros(0))
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r=float(radius), output_type="ndarray")
    if len(pairs):
        # query_pairs returns i < j already, but sort rows for determinism.
        pairs = np.sort(pairs, axis=1)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = pairs[order].astype(np.int64)
        diffs = pts[pairs[:, 0]] - pts[pairs[:, 1]]
        lengths = np.sqrt(np.sum(diffs * diffs, axis=1))
    else:
        pairs = np.zeros((0, 2), dtype=np.int64)
        lengths = np.zeros(0)
    return _assemble(pts, float(radius), pairs, lengths)


def complete_graph(points: np.ndarray) -> GeometricGraph:
    """The complete Euclidean graph (radius = unit-square diameter).

    O(n^2) edges; used by brute-force cross-checks and by the Korach-style
    lower-bound experiments which view the network as a complete weighted
    graph (Sec. IV).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"points must have shape (n, 2), got {pts.shape}")
    n = len(pts)
    iu, ju = np.triu_indices(n, k=1)
    edges = np.stack([iu, ju], axis=1).astype(np.int64)
    diffs = pts[iu] - pts[ju]
    lengths = np.sqrt(np.sum(diffs * diffs, axis=1))
    return _assemble(pts, float(np.sqrt(2.0)), edges, lengths)
