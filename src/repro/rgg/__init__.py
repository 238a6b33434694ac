"""Random geometric graphs: construction and structural analysis.

An RGG over points ``P`` with radius ``r`` connects every pair within
Euclidean distance ``r``.  This is the paper's network model (Sec. II).
Construction uses a KD-tree, so the cost is O(n log n + |E|) rather than
O(n^2).
"""

from repro.rgg.build import GeometricGraph, build_rgg, build_rgg_chunked
from repro.rgg.components import connected_components, component_sizes, is_connected
from repro.rgg.connectivity import (
    critical_connectivity_radius,
    connectivity_probability,
)
from repro.rgg.knn import knn_graph, knn_equivalent_radius

__all__ = [
    "GeometricGraph",
    "build_rgg",
    "build_rgg_chunked",
    "connected_components",
    "component_sizes",
    "is_connected",
    "critical_connectivity_radius",
    "connectivity_probability",
    "knn_graph",
    "knn_equivalent_radius",
]
