"""Tests for centralized Borůvka and its correspondence with GHS."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.ghs import run_ghs, run_modified_ghs
from repro.errors import GraphError
from repro.geometry.points import uniform_points
from repro.mst.boruvka import boruvka_mst
from repro.mst.kruskal import kruskal_mst
from repro.mst.quality import same_tree, verify_spanning_tree
from repro.rgg.build import build_rgg


class TestBoruvka:
    def test_matches_kruskal(self):
        pts = uniform_points(100, seed=0)
        g = build_rgg(pts, 0.3)
        trace = boruvka_mst(g.n, g.edges, g.lengths)
        ke, _ = kruskal_mst(g.n, g.edges, g.lengths)
        assert same_tree(trace.tree_edges, ke)

    def test_phase_count_logarithmic(self):
        pts = uniform_points(256, seed=1)
        g = build_rgg(pts, 0.3)
        trace = boruvka_mst(g.n, g.edges, g.lengths)
        assert trace.phases <= int(np.log2(256)) + 1

    def test_fragments_at_least_halve(self):
        """Borůvka invariant: fragment count at least halves per phase."""
        pts = uniform_points(200, seed=2)
        g = build_rgg(pts, 0.25)
        trace = boruvka_mst(g.n, g.edges, g.lengths)
        f = trace.fragments_per_phase
        for a, b in zip(f, f[1:]):
            assert b <= (a + 1) // 2 + a % 2 or b <= a // 2 + 1

    def test_phase_edges_partition_tree(self):
        pts = uniform_points(80, seed=3)
        g = build_rgg(pts, 0.4)
        trace = boruvka_mst(g.n, g.edges, g.lengths)
        flat = [e for phase in trace.phase_edges for e in phase]
        assert len(flat) == len(trace.tree_edges)
        verify_spanning_tree(g.n, np.array(flat), forest_ok=True)

    def test_disconnected_forest(self):
        e = np.array([[0, 1], [2, 3]])
        trace = boruvka_mst(5, e, np.array([1.0, 2.0]))
        assert len(trace.tree_edges) == 2

    def test_empty(self):
        trace = boruvka_mst(3, np.zeros((0, 2)), np.zeros(0))
        assert trace.phases == 0
        assert len(trace.tree_edges) == 0

    def test_validation(self):
        with pytest.raises(GraphError):
            boruvka_mst(2, np.array([[0, 1]]), np.zeros(0))
        with pytest.raises(GraphError):
            boruvka_mst(2, np.array([[0, 9]]), np.array([1.0]))

    @given(st.integers(0, 2**31 - 1), st.integers(2, 60), st.floats(0.1, 0.6))
    @settings(max_examples=20, deadline=None)
    def test_property_matches_kruskal(self, seed, n, r):
        pts = uniform_points(n, seed=seed)
        g = build_rgg(pts, r)
        trace = boruvka_mst(g.n, g.edges, g.lengths)
        ke, _ = kruskal_mst(g.n, g.edges, g.lengths)
        assert same_tree(trace.tree_edges, ke)


class TestGHSCorrespondence:
    """GHS *is* distributed Borůvka: the phase schedules must agree."""

    @pytest.mark.parametrize("runner", [run_ghs, run_modified_ghs])
    def test_phase_count_matches(self, runner):
        """GHS = Borůvka phases + 1: the distributed version needs one
        final phase in which the surviving fragment searches, finds no
        outgoing edge, and halts — the centralized loop just stops."""
        pts = uniform_points(120, seed=4)
        res = runner(pts)
        g = build_rgg(pts, res.extras["radius"])
        trace = boruvka_mst(g.n, g.edges, g.lengths)
        assert res.phases == trace.phases + 1

    def test_phase_merge_schedule_matches(self):
        """The exact set of edges added in each GHS phase equals the
        centralized Borůvka phase — the sharpest protocol check we have.

        We recover GHS's per-phase edges by diffing tree_edges snapshots
        is not possible post-hoc, so instead rerun the driver phase by
        phase using the kernel directly."""
        from repro.algorithms.base import collect_tree_edges
        from repro.algorithms.ghs.driver import hello_round, search_moe
        from repro.algorithms.ghs.node import GHSNode
        from repro.geometry.radius import connectivity_radius
        from repro.sim.kernel import SynchronousKernel

        n = 80
        pts = uniform_points(n, seed=5)
        r = connectivity_radius(n)
        k = SynchronousKernel(pts, max_radius=r)
        k.add_nodes(lambda i, ctx: GHSNode(i, ctx, use_tests=False, announce=True))
        k.start()
        hello_round(k, r)

        g = build_rgg(pts, r)
        trace = boruvka_mst(g.n, g.edges, g.lengths)

        prev: set[tuple[int, int]] = set()
        phase = 0
        while True:
            leaders = [
                nd.id for nd in k.nodes if nd.leader and not nd.halted and not nd.passive
            ]
            if not leaders:
                break
            phase += 1
            k.wake(leaders, "initiate", (phase,))
            k.run_until_quiescent()
            participants = [nd.id for nd in k.nodes if nd.cur_phase == phase]
            search_moe(k, k.nodes, participants, phase)
            k.run_until_quiescent()
            now = {tuple(e) for e in
                   collect_tree_edges((nd.id, nd.tree_edges) for nd in k.nodes)}
            added = now - prev
            prev = now
            if phase <= trace.phases:
                assert added == set(trace.phase_edges[phase - 1]), f"phase {phase}"
            else:
                assert added == set()  # the final halt-discovery phase
        assert phase == trace.phases + 1
