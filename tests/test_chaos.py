"""Chaos tests: the GHS family and Co-NNT under the fault plane.

The acceptance bar (ISSUE 3): at drop rate p = 0.2 on seeded instances
the recovering protocols still terminate with the *exact* MST of the
surviving topology, with the state auditor asserting fragment-invariant
safety at every recovery settle point (``audit=True``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.connt import run_connt
from repro.algorithms.eopt import run_eopt
from repro.algorithms.ghs import run_ghs, run_modified_ghs
from repro.errors import ProtocolError
from repro.experiments.instances import get_points
from repro.mst.kruskal import kruskal_mst
from repro.mst.quality import same_tree, verify_spanning_tree
from repro.rgg.build import build_rgg
from repro.sim import LegacyKernel
from repro.sim.faults import FaultPlan

DROP = FaultPlan(seed=0, drop_rate=0.2)


def surviving_mst(points: np.ndarray, radius: float, dead=()) -> np.ndarray:
    """Reference MST (forest) of the RGG at ``radius`` minus dead nodes."""
    g = build_rgg(points, radius)
    if dead:
        dead = set(dead)
        keep = [
            i
            for i, (u, v) in enumerate(np.asarray(g.edges))
            if u not in dead and v not in dead
        ]
        return kruskal_mst(g.n, g.edges[keep], g.lengths[keep])[0]
    return kruskal_mst(g.n, g.edges, g.lengths)[0]


class TestMGHSUnderDrops:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exact_mst_n500(self, seed):
        pts = get_points(500, seed)
        base = run_modified_ghs(pts)
        res = run_modified_ghs(pts, faults=DROP, audit=True)
        assert same_tree(res.tree_edges, base.tree_edges)

    def test_exact_mst_n2000(self):
        pts = get_points(2000, 0)
        base = run_modified_ghs(pts)
        res = run_modified_ghs(pts, faults=DROP, audit=True)
        assert same_tree(res.tree_edges, base.tree_edges)

    def test_exact_mst_without_planes(self):
        pts = get_points(300, 1)
        base = run_modified_ghs(pts)
        res = run_modified_ghs(pts, faults=DROP, audit=True, kernel_cls=LegacyKernel)
        assert same_tree(res.tree_edges, base.tree_edges)

    def test_exact_mst_with_duplicates_and_link_loss(self):
        pts = get_points(300, 2)
        base = run_modified_ghs(pts)
        plan = FaultPlan(
            seed=1, drop_rate=0.15, dup_rate=0.1, link_loss={(0, 1): 0.9}
        )
        res = run_modified_ghs(pts, faults=plan, audit=True)
        assert same_tree(res.tree_edges, base.tree_edges)

    def test_original_ghs_recovers_too(self):
        pts = get_points(300, 0)
        base = run_ghs(pts)
        res = run_ghs(pts, faults=DROP, audit=True)
        assert same_tree(res.tree_edges, base.tree_edges)

    def test_recover_false_keeps_unreliable_protocol(self):
        # Opting out of recovery must not silently mask faults: the run
        # either fails loudly or (rarely) squeaks through; it must never
        # return a wrong tree silently.  We only pin the no-hang part.
        pts = get_points(200, 0)
        try:
            res = run_modified_ghs(pts, faults=DROP, recover=False)
        except ProtocolError:
            return
        verify_spanning_tree(len(pts), res.tree_edges, forest_ok=True)


class TestMGHSUnderCrashes:
    def test_transient_crashes_exact_mst(self):
        pts = get_points(500, 0)
        base = run_modified_ghs(pts)
        plan = FaultPlan(
            seed=2, drop_rate=0.1, crashes=((10, 5, 80), (200, 50, 300))
        )
        res = run_modified_ghs(pts, faults=plan, audit=True)
        assert same_tree(res.tree_edges, base.tree_edges)

    def test_crash_from_round_zero_yields_survivor_mst(self):
        pts = get_points(300, 0)
        base = run_modified_ghs(pts)
        dead = 17
        plan = FaultPlan(seed=0, drop_rate=0.1, crashes=((dead, 0, None),))
        res = run_modified_ghs(pts, faults=plan, audit=True)
        r = base.extras["radius"]
        assert same_tree(res.tree_edges, surviving_mst(pts, r, dead=(dead,)))
        assert not any(dead in edge for edge in np.asarray(res.tree_edges))


class TestEOPTUnderFaults:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exact_mst_n500(self, seed):
        pts = get_points(500, seed)
        base = run_eopt(pts)
        res = run_eopt(pts, faults=DROP, audit=True)
        assert same_tree(res.tree_edges, base.tree_edges)

    def test_exact_mst_n2000(self):
        pts = get_points(2000, 0)
        base = run_eopt(pts)
        res = run_eopt(pts, faults=DROP, audit=True)
        assert same_tree(res.tree_edges, base.tree_edges)

    def test_transient_crashes_exact_mst(self):
        pts = get_points(300, 3)
        base = run_eopt(pts)
        plan = FaultPlan(
            seed=5, drop_rate=0.1, crashes=((10, 5, 80), (200, 50, 300))
        )
        res = run_eopt(pts, faults=plan, audit=True)
        assert same_tree(res.tree_edges, base.tree_edges)

    def test_determinism(self):
        pts = get_points(300, 7)
        a = run_eopt(pts, faults=DROP)
        b = run_eopt(pts, faults=DROP)
        assert same_tree(a.tree_edges, b.tree_edges)
        assert a.stats.energy_total == b.stats.energy_total
        assert a.stats.drops_by_kind == b.stats.drops_by_kind


class TestCoNNTUnderFaults:
    def test_terminates_and_connects_at_p02(self):
        pts = get_points(400, 0)
        res = run_connt(pts, faults=DROP)
        # Exactly the top-ranked node may stay unconnected.
        assert len(res.extras["unconnected_nodes"]) == 1
        assert len(np.asarray(res.tree_edges)) == len(pts) - 1
        verify_spanning_tree(len(pts), res.tree_edges, forest_ok=True)

    def test_crash_windows_terminate(self):
        pts = get_points(400, 1)
        plan = FaultPlan(
            seed=3, drop_rate=0.1, crashes=((5, 2, 40), (17, 0, None))
        )
        res = run_connt(pts, faults=plan)
        assert not any(17 in edge for edge in np.asarray(res.tree_edges))
        # Survivors all connect except the top-ranked one.
        assert len(np.asarray(res.tree_edges)) == len(pts) - 2


class TestFaultStats:
    def test_fault_breakdown_recorded(self):
        pts = get_points(300, 0)
        res = run_modified_ghs(
            pts, faults=FaultPlan(seed=0, drop_rate=0.2, dup_rate=0.1)
        )
        st = res.stats
        assert st.dropped_total > 0
        assert st.dup_delivered_total > 0
        assert st.crash_dropped_total == 0
        assert "HELLO" in st.drops_by_kind
        rows = dict((k, (d, c, u)) for k, d, c, u in st.fault_table())
        assert rows["HELLO"][0] == st.drops_by_kind["HELLO"]

    def test_faults_off_bit_identical(self):
        # A null plan and no plan must not perturb a single stat.
        pts = get_points(300, 0)
        a = run_modified_ghs(pts)
        b = run_modified_ghs(pts, faults=FaultPlan())
        assert same_tree(a.tree_edges, b.tree_edges)
        assert a.stats.energy_total == b.stats.energy_total
        assert a.stats.messages_total == b.stats.messages_total
        assert a.stats.rounds == b.stats.rounds
