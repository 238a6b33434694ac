"""RGG construction via KD-tree range queries.

:class:`GeometricGraph` is the central graph object handed to the exact
MST routines, the percolation analytics and the distributed simulator.  It
stores the point coordinates, the radius, a CSR-like adjacency structure
and the undirected edge list with Euclidean lengths.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from itertools import chain

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

    def subgraph_radius(self, r: float) -> "GeometricGraph":
        """The graph restricted to edges of length ``<= r`` (same nodes)."""
        if r < 0:
            raise GeometryError(f"radius must be non-negative, got {r}")
        keep = self.lengths <= r
        return _assemble(self.points, float(r), self.edges[keep], self.lengths[keep])

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


class _ArraySink:
    """Append-only array accumulator that spills to a scratch memmap.

    Chunks stay in RAM until their cumulative size crosses ``threshold``
    bytes; from then on everything streams into an unlinked temp file
    and :meth:`finish` hands back a ``np.memmap`` over it.  Unlinking
    immediately after mapping means the disk space is reclaimed as soon
    as the array (and its mapping) is garbage collected — no cleanup
    protocol leaks scratch files on crash.
    """

    def __init__(self, dtype, threshold: int | None, workdir: str | None) -> None:
        self.dtype = np.dtype(dtype)
        self.threshold = threshold
        self.workdir = workdir
        self.chunks: list[np.ndarray] = []
        self.nbytes = 0
        self.count = 0
        self.file = None

    def append(self, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype=self.dtype)
        self.count += arr.size
        if self.file is not None:
            self.file.write(arr.tobytes())
            return
        self.chunks.append(arr)
        self.nbytes += arr.nbytes
        if self.threshold is not None and self.nbytes > self.threshold:
            self.file = tempfile.NamedTemporaryFile(
                dir=self.workdir, prefix="rgg-csr-", suffix=".bin", delete=False
            )
            for c in self.chunks:
                self.file.write(c.tobytes())
            self.chunks = []

    def finish(self) -> np.ndarray:
        if self.file is None:
            if not self.chunks:
                return np.zeros(0, dtype=self.dtype)
            out = np.concatenate(self.chunks) if len(self.chunks) > 1 else self.chunks[0]
            self.chunks = []
            return out
        self.file.flush()
        path = self.file.name
        self.file.close()
        mm = np.memmap(path, dtype=self.dtype, mode="r+", shape=(self.count,))
        os.unlink(path)  # POSIX: backing store lives until the map closes
        return mm


def build_rgg_chunked(
    points: np.ndarray,
    radius: float,
    *,
    chunk_nodes: int = 65536,
    memmap_threshold_bytes: int | None = 512 << 20,
    workdir: str | None = None,
) -> GeometricGraph:
    """:func:`build_rgg` in bounded memory: chunked queries, memmap spill.

    Produces a graph **identical** to the dense builder — same edge set,
    same ``(u, v)``-lexicographic edge order, the same float expression
    for lengths, the same sorted CSR — but never materialises the whole
    pair list at once.  Nodes are queried against the KD-tree in blocks
    of ``chunk_nodes``; each block contributes its CSR rows, its
    ``u < v`` edges and their lengths to append-only sinks that spill to
    anonymous scratch memmaps once they exceed ``memmap_threshold_bytes``
    (``None`` = never spill).  Million-node RGGs at the paper's
    connectivity radius (~10^8 directed entries) build with a resident
    footprint of one block plus the spill threshold per array.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"points must have shape (n, 2), got {pts.shape}")
    if radius < 0:
        raise GeometryError(f"radius must be non-negative, got {radius}")
    if chunk_nodes <= 0:
        raise GeometryError(f"chunk_nodes must be positive, got {chunk_nodes}")
    n = len(pts)
    if n == 0:
        return _assemble(pts, float(radius), np.zeros((0, 2), dtype=np.int64), np.zeros(0))
    tree = cKDTree(pts)
    degrees = np.zeros(n, dtype=np.int64)
    ind_sink = _ArraySink(np.int64, memmap_threshold_bytes, workdir)
    edge_sink = _ArraySink(np.int64, memmap_threshold_bytes, workdir)
    len_sink = _ArraySink(np.float64, memmap_threshold_bytes, workdir)
    r = float(radius)
    for lo in range(0, n, chunk_nodes):
        hi = min(lo + chunk_nodes, n)
        # Each list is ascending and includes the query point itself
        # (d = 0 <= r); the self hit is stripped below.
        lists = tree.query_ball_point(pts[lo:hi], r, return_sorted=True)
        cnt = np.fromiter((len(l) for l in lists), dtype=np.int64, count=hi - lo)
        flat = np.fromiter(
            chain.from_iterable(lists), dtype=np.int64, count=int(cnt.sum())
        )
        src = np.repeat(np.arange(lo, hi, dtype=np.int64), cnt)
        keep = flat != src
        src, dst = src[keep], flat[keep]
        degrees[lo:hi] = np.bincount(src - lo, minlength=hi - lo)
        ind_sink.append(dst)
        up = dst > src  # each undirected edge once, already (u, v)-sorted
        eu, ev = src[up], dst[up]
        edge_sink.append(np.stack([eu, ev], axis=1).ravel())
        diffs = pts[eu] - pts[ev]
        # Same float expression as the dense path: bit-identical lengths.
        len_sink.append(np.sqrt(np.sum(diffs * diffs, axis=1)))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return GeometricGraph(
        points=pts,
        radius=r,
        edges=edge_sink.finish().reshape(-1, 2),
        lengths=len_sink.finish(),
        indptr=indptr,
        indices=ind_sink.finish(),
    )


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
