"""Tests for the Co-NNT distributed protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.connt import run_connt
from repro.algorithms.connt.node import diagonal_key
from repro.geometry.points import clustered_points, uniform_points
from repro.geometry.ranks import diagonal_ranks
from repro.mst.delaunay import euclidean_mst
from repro.mst.nnt import nearest_neighbor_tree
from repro.mst.quality import same_tree, tree_cost, verify_spanning_tree
from repro.sim.faults import FaultPlan


class TestCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_centralized_nnt(self, seed):
        pts = uniform_points(200, seed=seed)
        res = run_connt(pts)
        nnt, _ = nearest_neighbor_tree(pts)
        assert same_tree(res.tree_edges, nnt)

    def test_always_spanning_tree(self):
        pts = uniform_points(300, seed=4)
        res = run_connt(pts)
        verify_spanning_tree(300, res.tree_edges)

    @pytest.mark.parametrize("n", [2, 3, 5, 17])
    def test_tiny_instances(self, n):
        pts = uniform_points(n, seed=5)
        res = run_connt(pts)
        verify_spanning_tree(n, res.tree_edges)
        nnt, _ = nearest_neighbor_tree(pts)
        assert same_tree(res.tree_edges, nnt)

    def test_single_node(self):
        res = run_connt(np.array([[0.3, 0.3]]))
        assert len(res.tree_edges) == 0
        assert res.extras["unconnected_nodes"] == [0]

    def test_unconnected_is_top_ranked(self):
        pts = uniform_points(150, seed=6)
        res = run_connt(pts)
        ranks = diagonal_ranks(pts)
        assert res.extras["unconnected_nodes"] == [int(np.argmax(ranks))]

    def test_clustered_workload(self):
        pts = clustered_points(200, seed=0)
        res = run_connt(pts)
        verify_spanning_tree(200, res.tree_edges)

    def test_diagonal_key_ordering(self):
        assert diagonal_key(0.2, 0.3, 1) < diagonal_key(0.4, 0.4, 0)
        # Same diagonal: smaller y wins.
        assert diagonal_key(0.6, 0.1, 5) < diagonal_key(0.1, 0.6, 2)
        # Full tie: id decides.
        assert diagonal_key(0.5, 0.5, 1) < diagonal_key(0.5, 0.5, 2)


class TestComplexity:
    def test_theorem_6_2_messages_linear(self):
        """O(n) messages with a small constant (paper: n(2+pi) + o(n))."""
        for n in (200, 800):
            res = run_connt(uniform_points(n, seed=0))
            assert res.messages <= 12 * n

    def test_theorem_6_2_energy_constant(self):
        """Energy does not grow with n."""
        e_small = np.mean([run_connt(uniform_points(200, seed=s)).energy for s in range(3)])
        e_big = np.mean([run_connt(uniform_points(3200, seed=s)).energy for s in range(3)])
        assert e_big < 2.0 * e_small
        assert e_big < 25.0  # absolute sanity: the analysis gives ~2(2+pi)+...

    def test_lemma_6_3_probe_radius(self):
        """Max probe radius stays O(sqrt(log n / n)) on typical instances."""
        n = 2000
        res = run_connt(uniform_points(n, seed=1))
        assert res.extras["max_probe_radius"] <= 6.0 * np.sqrt(np.log(n) / n)

    def test_phases_logarithmic_cap(self):
        res = run_connt(uniform_points(500, seed=2))
        assert res.phases <= np.ceil(np.log2(1000)) + 2

    def test_quality_against_mst(self):
        """Sec. VII quality: length ratio ~1.1, squared sum bounded."""
        pts = uniform_points(1000, seed=3)
        res = run_connt(pts)
        mst, _ = euclidean_mst(pts)
        ratio = tree_cost(pts, res.tree_edges) / tree_cost(pts, mst)
        assert 1.0 <= ratio < 1.3
        assert tree_cost(pts, res.tree_edges, alpha=2.0) <= 4.0

    def test_message_kinds(self):
        res = run_connt(uniform_points(100, seed=4))
        kinds = set(res.stats.messages_by_kind)
        assert kinds <= {"REQUEST", "REPLY", "CONNECTION"}
        # Every non-top node sends exactly one CONNECTION.
        assert res.stats.messages_by_kind["CONNECTION"] == 99


class TestRecovery:
    def test_crash_window_idle_ticks_are_not_reprobe_attempts(self):
        """A stranded node down for 250 rounds: the driver idles through
        the window without spending its re-probe budget, then connects
        it, so only the top-ranked node ends unconnected."""
        pts = uniform_points(6, seed=0)
        plan = FaultPlan(seed=0, drop_rate=0.6, crashes=((3, 94, 344),))
        res = run_connt(pts, faults=plan)
        assert int(np.argmax(diagonal_ranks(pts))) == 2
        assert res.extras["unconnected_nodes"] == [2]
        assert res.stats.rounds > 344
