"""Tests for RGG construction and component analysis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError, GraphError
from repro.geometry.points import uniform_points
from repro.rgg.build import build_rgg, complete_graph
from repro.rgg.components import (
    component_labels,
    component_sizes,
    connected_components,
    giant_component,
    is_connected,
)


class TestBuild:
    def test_edges_within_radius_only(self):
        pts = uniform_points(100, seed=0)
        g = build_rgg(pts, 0.15)
        assert (g.lengths <= 0.15 + 1e-12).all()

    def test_matches_brute_force(self):
        pts = uniform_points(60, seed=1)
        r = 0.2
        g = build_rgg(pts, r)
        expected = set()
        for i in range(60):
            for j in range(i + 1, 60):
                if np.hypot(*(pts[i] - pts[j])) <= r:
                    expected.add((i, j))
        got = set(map(tuple, g.edges))
        assert got == expected

    def test_csr_consistent_with_edges(self):
        pts = uniform_points(80, seed=2)
        g = build_rgg(pts, 0.18)
        # Degree sum = 2m and neighbour lists match the edge list.
        assert int(g.degrees().sum()) == 2 * g.m
        adj = {i: set() for i in range(g.n)}
        for u, v in g.edges:
            adj[int(u)].add(int(v))
            adj[int(v)].add(int(u))
        for u in range(g.n):
            assert set(map(int, g.neighbors(u))) == adj[u]

    def test_neighbors_sorted(self):
        g = build_rgg(uniform_points(50, seed=3), 0.3)
        for u in range(g.n):
            nb = g.neighbors(u)
            assert (np.diff(nb) > 0).all()

    def test_zero_radius(self):
        g = build_rgg(uniform_points(10, seed=0), 0.0)
        assert g.m == 0

    def test_empty_points(self):
        g = build_rgg(np.zeros((0, 2)), 0.5)
        assert g.n == 0 and g.m == 0

    def test_single_point(self):
        g = build_rgg(np.array([[0.5, 0.5]]), 0.5)
        assert g.n == 1 and g.m == 0
        assert g.degree(0) == 0

    def test_validation(self):
        with pytest.raises(GeometryError):
            build_rgg(np.zeros((3, 3)), 0.5)
        with pytest.raises(GeometryError):
            build_rgg(np.zeros((3, 2)), -0.1)
        g = build_rgg(uniform_points(5), 0.5)
        with pytest.raises(GraphError):
            g.neighbors(7)
        with pytest.raises(GraphError):
            g.degree(-1)

    def test_distance_method(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.4]])
        g = build_rgg(pts, 1.0)
        assert g.distance(0, 1) == pytest.approx(0.5)

    def test_to_networkx(self):
        g = build_rgg(uniform_points(30, seed=5), 0.3)
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 30
        assert nxg.number_of_edges() == g.m

    def test_complete_graph(self):
        g = complete_graph(uniform_points(20, seed=6))
        assert g.m == 20 * 19 // 2

    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.5))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_radius(self, seed, r):
        pts = uniform_points(40, seed=seed)
        g_small = build_rgg(pts, r / 2)
        g_big = build_rgg(pts, r)
        small = set(map(tuple, g_small.edges))
        big = set(map(tuple, g_big.edges))
        assert small <= big


class TestComponents:
    def test_connected_when_radius_large(self):
        g = build_rgg(uniform_points(50, seed=0), 2.0)
        assert is_connected(g)
        assert len(connected_components(g)) == 1

    def test_isolated_when_radius_zero(self):
        g = build_rgg(uniform_points(30, seed=0), 0.0)
        assert not is_connected(g)
        assert len(connected_components(g)) == 30

    def test_matches_networkx(self):
        import networkx as nx

        pts = uniform_points(150, seed=1)
        g = build_rgg(pts, 0.07)
        ours = sorted(map(len, connected_components(g)), reverse=True)
        theirs = sorted(
            (len(c) for c in nx.connected_components(g.to_networkx())), reverse=True
        )
        assert ours == theirs

    def test_component_sizes_descending(self):
        g = build_rgg(uniform_points(200, seed=2), 0.05)
        sizes = component_sizes(g)
        assert (np.diff(sizes) <= 0).all()
        assert sizes.sum() == 200

    def test_labels_partition(self):
        g = build_rgg(uniform_points(100, seed=3), 0.08)
        labels = component_labels(g)
        for u, v in g.edges:
            assert labels[u] == labels[v]

    def test_giant_component_is_largest(self):
        g = build_rgg(uniform_points(300, seed=4), 0.06)
        giant = giant_component(g)
        assert len(giant) == component_sizes(g)[0]

    def test_empty_graph(self):
        g = build_rgg(np.zeros((0, 2)), 0.5)
        assert is_connected(g)
        assert component_sizes(g).shape == (0,)
        assert giant_component(g).shape == (0,)

    def test_single_node_connected(self):
        g = build_rgg(np.array([[0.5, 0.5]]), 0.1)
        assert is_connected(g)
