"""Tests for the RBN contention-resolution kernel (paper Sec. VIII)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.interference import ContentionKernel
from repro.sim.kernel import SynchronousKernel
from repro.sim.message import Message
from repro.sim.node import NodeProcess


class Recorder(NodeProcess):
    __slots__ = ("heard",)

    def __init__(self, node_id, ctx):
        super().__init__(node_id, ctx)
        self.heard: list[tuple[str, int]] = []

    def on_message(self, msg: Message, distance: float) -> None:
        self.heard.append((msg.kind, msg.src))

    def on_wake(self, signal: str, payload: tuple = ()) -> None:
        if signal == "bc":
            self.ctx.local_broadcast(payload[0], "B", self.id)


def cluster_points():
    """Three mutually-in-range nodes plus one far away."""
    return np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.9, 0.9]])


class TestContention:
    def test_all_messages_still_delivered(self):
        k = ContentionKernel(cluster_points(), max_radius=0.3)
        k.add_nodes(Recorder)
        k.start()
        k.wake([0, 1, 2], "bc", (0.2,))
        k.run_until_quiescent()
        # Every pairwise delivery among the cluster happened despite conflicts.
        for i in range(3):
            assert sorted(src for _, src in k.nodes[i].heard) == sorted(
                j for j in range(3) if j != i
            )

    def test_conflicting_broadcasts_serialized(self):
        k = ContentionKernel(cluster_points(), max_radius=0.3)
        k.add_nodes(Recorder)
        k.start()
        k.wake([0, 1, 2], "bc", (0.2,))
        k.run_until_quiescent()
        # Three mutually conflicting transmissions need three slots.
        assert k.slots == 3
        assert k.max_slot_factor == 3

    def test_non_conflicting_share_a_slot(self):
        pts = np.array([[0.0, 0.0], [0.05, 0.0], [1.0, 1.0], [0.95, 1.0]])
        k = ContentionKernel(pts, max_radius=0.2)
        k.add_nodes(Recorder)
        k.start()
        k.wake([0, 2], "bc", (0.1,))
        k.run_until_quiescent()
        assert k.slots == 1  # far apart: simultaneous is fine

    def test_energy_identical_to_collision_free(self):
        """Contention resolution costs time, not energy (paper Sec. VIII)."""
        pts = cluster_points()

        def run(kernel_cls):
            k = kernel_cls(pts, max_radius=0.5)
            k.add_nodes(Recorder)
            k.start()
            k.wake(range(4), "bc", (0.3,))
            k.run_until_quiescent()
            return k.stats()

        base = run(SynchronousKernel)
        cont = run(ContentionKernel)
        assert cont.energy_total == pytest.approx(base.energy_total)
        assert cont.messages_total == base.messages_total
        assert cont.rounds >= base.rounds

    def test_ghs_correct_under_contention(self):
        """Full GHS on the contention kernel: same MST, same energy, more
        rounds.  (Protocols are kernel-agnostic by construction.)"""
        from repro.algorithms.ghs.driver import hello_round, run_ghs_phases
        from repro.algorithms.ghs.node import GHSNode
        from repro.algorithms.base import collect_tree_edges
        from repro.geometry.points import uniform_points
        from repro.geometry.radius import connectivity_radius
        from repro.mst.delaunay import euclidean_mst
        from repro.mst.quality import same_tree

        n = 60
        pts = uniform_points(n, seed=0)
        r = connectivity_radius(n)
        k = ContentionKernel(pts, max_radius=r)
        k.add_nodes(lambda i, ctx: GHSNode(i, ctx, use_tests=False, announce=True))
        k.start()
        hello_round(k, r)
        run_ghs_phases(k, k.nodes)
        edges = collect_tree_edges((nd.id, nd.tree_edges) for nd in k.nodes)
        mst, _ = euclidean_mst(pts)
        assert same_tree(edges, mst)
        assert k.slots == k.stats().rounds  # one round per slot, no idle ticks
        assert k.max_slot_factor >= 1

    def test_empty_round(self):
        k = ContentionKernel(cluster_points(), max_radius=0.5)
        k.add_nodes(Recorder)
        k.start()
        assert k.step() == 0
        assert k.slots == 0


class TestRoundAccounting:
    """Satellite regressions: slot/round bookkeeping and plane rejection."""

    def test_fresh_kernel_reports_zero_slot_factor(self):
        # Regression: a kernel that never stepped a non-empty round must
        # not claim an inflation factor of 1.
        k = ContentionKernel(cluster_points(), max_radius=0.3)
        assert k.max_slot_factor == 0
        assert k.slots == 0

    def test_rounds_equal_slots_plus_idle_ticks(self):
        k = ContentionKernel(cluster_points(), max_radius=0.3)
        k.add_nodes(Recorder)
        k.start()
        k.wake([0, 1, 2], "bc", (0.2,))
        k.run_until_quiescent()
        assert k.rounds == k.slots
        k.tick()
        assert k.rounds == k.slots + 1

    def test_set_plane_handler_rejected(self):
        from repro.errors import SimulationError

        k = ContentionKernel(cluster_points(), max_radius=0.3)
        with pytest.raises(SimulationError):
            k.set_plane_handler(lambda *a: None)

    def test_mghs_planes_flag_works_on_contention_kernel(self):
        # Regression: the default run (flood planes wanted) on a kernel
        # without plane support must transparently fall back to
        # per-message floods, not crash.
        from repro.algorithms.ghs import run_modified_ghs
        from repro.experiments.instances import get_points

        pts = get_points(120, 0)
        base = run_modified_ghs(pts)
        res = run_modified_ghs(pts, kernel_cls=ContentionKernel)
        from repro.mst.quality import same_tree

        assert same_tree(res.tree_edges, base.tree_edges)
        assert res.stats.energy_total == pytest.approx(base.stats.energy_total)

    def test_contention_with_drops(self):
        from repro.sim.faults import FaultPlan

        k = ContentionKernel(
            cluster_points(),
            max_radius=0.3,
            faults=FaultPlan(seed=0, drop_rate=1.0),
        )
        k.add_nodes(Recorder)
        k.start()
        k.wake([0, 1, 2], "bc", (0.2,))
        k.run_until_quiescent()
        # Slots were still played (TX happened, energy paid), nothing heard.
        assert k.slots == 3
        assert all(not nd.heard for nd in k.nodes)
        assert k.stats().dropped_total == 6
        assert k.stats().energy_total > 0


class TestContentionPins:
    """Exact GHS-on-contention figures, pinned before any kernel refactor.

    The contention kernel replays each base round's sends in send order
    through greedy slot colouring, so any change to how sends are queued
    shows up here as a different slot count, round count or energy bit
    pattern.
    """

    @staticmethod
    def _run(faults=None):
        from repro.algorithms.ghs import run_modified_ghs
        from repro.geometry.points import uniform_points

        seen = []

        class Captured(ContentionKernel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self)

        kwargs = {} if faults is None else {"faults": faults}
        res = run_modified_ghs(
            uniform_points(80, seed=4), kernel_cls=Captured, **kwargs
        )
        (kernel,) = seen
        return res.stats, kernel

    @pytest.mark.parametrize(
        "drop, want",
        [
            (None, (378, 1101, "0x1.c4e2e58395546p+5", 378, 46)),
            (0.05, (863, 2257, "0x1.a2c008a821f17p+6", 859, 46)),
        ],
        ids=["clean", "drops"],
    )
    def test_mghs_figures(self, drop, want):
        from repro.sim.faults import FaultPlan

        plan = None if drop is None else FaultPlan(seed=3, drop_rate=drop)
        stats, k = self._run(plan)
        got = (
            stats.rounds,
            stats.messages_total,
            stats.energy_total.hex(),
            k.slots,
            k.max_slot_factor,
        )
        assert got == want
