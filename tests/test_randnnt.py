"""Tests for the Rand-NNT baseline ([14, 15] in the paper)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.connt import run_connt
from repro.algorithms.eopt import run_eopt
from repro.algorithms.randnnt import run_randnnt
from repro.geometry.points import uniform_points
from repro.mst.delaunay import euclidean_mst
from repro.mst.nnt import nearest_neighbor_tree
from repro.mst.quality import same_tree, tree_cost, verify_spanning_tree
from repro.trace import trace


class TestCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spanning_tree(self, seed):
        pts = uniform_points(200, seed=seed)
        res = run_randnnt(pts)
        verify_spanning_tree(200, res.tree_edges)

    def test_matches_centralized_id_rank_nnt(self):
        """Rand-NNT with id ranks == centralized NNT under the identity
        permutation as ranks."""
        pts = uniform_points(150, seed=3)
        res = run_randnnt(pts)
        expected, _ = nearest_neighbor_tree(pts, ranks=np.arange(150))
        assert same_tree(res.tree_edges, expected)

    def test_unconnected_is_max_id(self):
        pts = uniform_points(80, seed=4)
        res = run_randnnt(pts)
        assert res.extras["unconnected_nodes"] == [79]

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_tiny(self, n):
        res = run_randnnt(uniform_points(n, seed=5))
        verify_spanning_tree(n, res.tree_edges)

    def test_no_coordinates_needed(self):
        """Rand-NNT must run on a coordinate-blind kernel (unlike Co-NNT):
        the node code never touches ctx.coords."""
        pts = uniform_points(60, seed=6)
        res = run_randnnt(pts)  # kernel built without expose_coordinates
        assert len(res.tree_edges) == 59

    @given(st.integers(0, 2**31 - 1), st.integers(1, 60))
    @settings(max_examples=15, deadline=None)
    def test_property_spanning(self, seed, n):
        res = run_randnnt(uniform_points(n, seed=seed))
        verify_spanning_tree(n, res.tree_edges)


class TestTrace:
    def test_traced_run_emits_the_nnt_events(self):
        """Rand-NNT runs the NNT driver, so it brackets its rounds with
        the same run_start / probe_phase / run_end events as Co-NNT."""
        n = 200
        with trace.isolated() as cap:
            res = run_randnnt(uniform_points(n, seed=1))
        events = cap.data
        assert {k: events[0][k] for k in ("ev", "alg", "n")} == {
            "ev": "run_start", "alg": "Rand-NNT", "n": n,
        }
        phases = [e for e in events if e["ev"] == "probe_phase"]
        assert len(phases) == res.phases
        assert [e["phase"] for e in phases] == list(range(1, res.phases + 1))
        assert phases[0]["searching"] == n
        end = events[-1]
        assert end["ev"] == "run_end" and end["alg"] == "Rand-NNT"
        assert end["phases"] == res.phases
        assert end["round"] == res.stats.rounds
        assert end["unconnected"] == 1
        rounds = [e for e in events if e["ev"] == "round"]
        assert len(rounds) == res.stats.rounds


class TestPositioning:
    """The paper's Related-Work landscape: GHS > Rand-NNT ~ EOPT on energy;
    exact > Co-NNT > Rand-NNT on quality."""

    def test_energy_logarithmic_not_constant(self):
        """Rand-NNT energy grows (roughly log n) — unlike Co-NNT's O(1)."""
        e = {
            n: np.mean(
                [run_randnnt(uniform_points(n, seed=s)).energy for s in range(3)]
            )
            for n in (200, 3200)
        }
        c = {
            n: np.mean(
                [run_connt(uniform_points(n, seed=s)).energy for s in range(3)]
            )
            for n in (200, 3200)
        }
        # Co-NNT stays flat; Rand-NNT is clearly above it and growing.
        assert e[3200] > c[3200] * 1.5
        assert e[3200] > e[200]

    def test_energy_same_order_as_eopt(self):
        """Both are O(log n); Rand-NNT should be within a small factor."""
        pts = uniform_points(1000, seed=0)
        e_rand = run_randnnt(pts).energy
        e_eopt = run_eopt(pts).energy
        assert e_rand < 5 * e_eopt
        assert e_eopt < 5 * e_rand

    def test_quality_worse_than_connt(self):
        """Random ranks ignore geometry: the tree is strictly worse than
        the diagonal-rank NNT on cost (the price of coordinate-freeness)."""
        pts = uniform_points(1000, seed=1)
        mst, _ = euclidean_mst(pts)
        opt = tree_cost(pts, mst)
        rand_ratio = tree_cost(pts, run_randnnt(pts).tree_edges) / opt
        co_ratio = tree_cost(pts, run_connt(pts).tree_edges) / opt
        assert rand_ratio > co_ratio
        # O(log n) approximation: comfortably under log(1000) ~ 6.9.
        assert rand_ratio < np.log(1000)

    def test_messages_linear(self):
        for n in (200, 800):
            res = run_randnnt(uniform_points(n, seed=2))
            assert res.messages <= 20 * n
