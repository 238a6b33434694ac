"""Tests for the synchronous simulation kernel, power model and ledger."""

from __future__ import annotations


import numpy as np
import pytest

from repro.errors import GeometryError, PowerLimitError, SimulationError
from repro.sim.energy import EnergyLedger
from repro.sim.kernel import SynchronousKernel
from repro.sim.message import Message
from repro.sim.node import NodeProcess
from repro.sim.power import PathLossModel


class Recorder(NodeProcess):
    """Test node that records everything it hears."""

    __slots__ = ("heard", "woken")

    def __init__(self, node_id, ctx):
        super().__init__(node_id, ctx)
        self.heard: list[tuple[str, int, float]] = []
        self.woken: list[str] = []

    def on_message(self, msg: Message, distance: float) -> None:
        self.heard.append((msg.kind, msg.src, distance))

    def on_wake(self, signal: str, payload: tuple = ()) -> None:
        self.woken.append(signal)


class Echoer(Recorder):
    """Replies PONG to every PING (used for round-counting tests)."""

    def on_message(self, msg: Message, distance: float) -> None:
        super().on_message(msg, distance)
        if msg.kind == "PING":
            self.ctx.unicast(msg.src, "PONG")


def make_kernel(points, radius=2.0, node_cls=Recorder, **kw):
    k = SynchronousKernel(np.asarray(points, dtype=float), max_radius=radius, **kw)
    k.add_nodes(node_cls)
    k.start()
    return k


LINE = [[0.0, 0.0], [0.3, 0.0], [0.8, 0.0]]


class TestPathLoss:
    def test_default_quadratic(self):
        m = PathLossModel()
        assert m.energy(0.5) == 0.25

    def test_general_exponent(self):
        m = PathLossModel(a=2.0, alpha=3.0)
        assert m.energy(0.5) == pytest.approx(2.0 * 0.125)

    def test_validation(self):
        with pytest.raises(GeometryError):
            PathLossModel(a=0)
        with pytest.raises(GeometryError):
            PathLossModel(alpha=-1)
        with pytest.raises(GeometryError):
            PathLossModel().energy(-0.1)


class TestUnicast:
    def test_delivery_and_distance(self):
        k = make_kernel(LINE)
        k.nodes[0].ctx.unicast(1, "HI", 42)
        k.run_until_quiescent()
        assert k.nodes[1].heard == [("HI", 0, pytest.approx(0.3))]
        assert k.nodes[2].heard == []

    def test_energy_is_squared_distance(self):
        k = make_kernel(LINE)
        k.nodes[0].ctx.unicast(2, "HI")
        k.run_until_quiescent()
        assert k.stats().energy_total == pytest.approx(0.64)

    def test_power_limit_enforced(self):
        k = make_kernel(LINE, radius=0.5)
        with pytest.raises(PowerLimitError):
            k.nodes[0].ctx.unicast(2, "HI")  # distance 0.8 > 0.5

    def test_no_self_send(self):
        k = make_kernel(LINE)
        with pytest.raises(SimulationError):
            k.nodes[0].ctx.unicast(0, "HI")

    def test_unknown_target(self):
        k = make_kernel(LINE)
        with pytest.raises(SimulationError):
            k.nodes[0].ctx.unicast(9, "HI")

    def test_delivery_is_next_round(self):
        k = make_kernel(LINE, node_cls=Echoer)
        k.nodes[0].ctx.unicast(1, "PING")
        assert k.nodes[1].heard == []  # not yet delivered
        k.step()
        assert ("PING", 0, pytest.approx(0.3)) in k.nodes[1].heard
        assert k.nodes[0].heard == []  # PONG needs another round
        k.step()
        assert ("PONG", 1, pytest.approx(0.3)) in k.nodes[0].heard


class TestBroadcast:
    def test_reaches_only_within_radius(self):
        k = make_kernel(LINE)
        k.nodes[0].ctx.local_broadcast(0.5, "B")
        k.run_until_quiescent()
        assert len(k.nodes[1].heard) == 1
        assert k.nodes[2].heard == []

    def test_single_charge_regardless_of_receivers(self):
        k = make_kernel(LINE)
        k.nodes[0].ctx.local_broadcast(1.0, "B")
        k.run_until_quiescent()
        s = k.stats()
        assert s.messages_total == 1
        assert s.energy_total == pytest.approx(1.0)  # radius^2, not per receiver

    def test_sender_not_a_receiver(self):
        k = make_kernel(LINE)
        k.nodes[1].ctx.local_broadcast(1.0, "B")
        k.run_until_quiescent()
        assert k.nodes[1].heard == []
        assert len(k.nodes[0].heard) == 1 and len(k.nodes[2].heard) == 1

    def test_zero_radius_broadcast(self):
        k = make_kernel(LINE)
        k.nodes[0].ctx.local_broadcast(0.0, "B")
        k.run_until_quiescent()
        assert all(nd.heard == [] for nd in k.nodes)
        assert k.stats().energy_total == 0.0

    def test_power_limit(self):
        k = make_kernel(LINE, radius=0.4)
        with pytest.raises(PowerLimitError):
            k.nodes[0].ctx.local_broadcast(0.6, "B")

    def test_negative_radius(self):
        k = make_kernel(LINE)
        with pytest.raises(GeometryError):
            k.nodes[0].ctx.local_broadcast(-0.1, "B")


class TestKernelLifecycle:
    def test_start_requires_nodes(self):
        k = SynchronousKernel(np.array(LINE), max_radius=1.0)
        with pytest.raises(SimulationError):
            k.start()

    def test_double_start_rejected(self):
        k = make_kernel(LINE)
        with pytest.raises(SimulationError):
            k.start()

    def test_double_add_rejected(self):
        k = make_kernel(LINE)
        with pytest.raises(SimulationError):
            k.add_nodes(Recorder)

    def test_wake_costs_nothing(self):
        k = make_kernel(LINE)
        k.wake([0, 1], "tick")
        assert k.nodes[0].woken == ["tick"]
        assert k.stats().energy_total == 0.0
        assert k.stats().messages_total == 0

    def test_rounds_counted(self):
        k = make_kernel(LINE, node_cls=Echoer)
        k.nodes[0].ctx.unicast(1, "PING")
        k.run_until_quiescent()
        assert k.stats().rounds == 2  # PING round + PONG round

    def test_quiescence_guard(self):
        class Chatter(Recorder):
            def on_message(self, msg, distance):
                self.ctx.unicast(msg.src, "MORE")  # never settles

        k = make_kernel(LINE, node_cls=Chatter)
        k.nodes[0].ctx.unicast(1, "MORE")
        with pytest.raises(SimulationError):
            k.run_until_quiescent(max_rounds=50)

    def test_set_max_radius(self):
        k = make_kernel(LINE, radius=0.4)
        k.set_max_radius(1.0)
        k.nodes[0].ctx.unicast(2, "HI")  # now allowed
        k.run_until_quiescent()
        assert len(k.nodes[2].heard) == 1
        with pytest.raises(GeometryError):
            k.set_max_radius(0.0)

    def test_coordinates_guarded(self):
        k = make_kernel(LINE)
        with pytest.raises(SimulationError):
            _ = k.nodes[0].ctx.coords

    def test_coordinates_exposed_when_allowed(self):
        k = make_kernel(LINE, expose_coordinates=True)
        assert k.nodes[2].ctx.coords == (0.8, 0.0)

    def test_n_nodes_visible(self):
        k = make_kernel(LINE)
        assert k.nodes[0].ctx.n_nodes == 3

    def test_deterministic_delivery_order(self):
        """Messages to one node in one round arrive recipient-sorted and
        stable, so two identical runs behave identically."""
        def run():
            k = make_kernel(LINE)
            k.nodes[2].ctx.unicast(0, "A")
            k.nodes[1].ctx.unicast(0, "B")
            k.run_until_quiescent()
            return [h[0] for h in k.nodes[0].heard]

        assert run() == run()


class TestStats:
    def test_per_kind_breakdown(self):
        k = make_kernel(LINE)
        k.nodes[0].ctx.unicast(1, "A")
        k.nodes[0].ctx.unicast(1, "B")
        k.nodes[0].ctx.unicast(1, "B")
        k.run_until_quiescent()
        s = k.stats()
        assert s.messages_by_kind == {"A": 1, "B": 2}
        assert s.energy_by_kind["B"] == pytest.approx(2 * 0.09)

    def test_per_stage_breakdown(self):
        k = make_kernel(LINE)
        k.set_stage("one")
        k.nodes[0].ctx.unicast(1, "A")
        k.run_until_quiescent()
        k.set_stage("two")
        k.nodes[1].ctx.unicast(0, "A")
        k.run_until_quiescent()
        s = k.stats()
        assert set(s.energy_by_stage) == {"one", "two"}
        assert s.energy_by_stage["one"] == pytest.approx(0.09)

    def test_totals_equal_breakdown_sums(self):
        k = make_kernel(LINE)
        for _ in range(3):
            k.nodes[0].ctx.unicast(1, "X")
            k.nodes[1].ctx.local_broadcast(0.5, "Y")
        k.run_until_quiescent()
        s = k.stats()
        assert s.energy_total == pytest.approx(sum(s.energy_by_kind.values()))
        assert s.energy_total == pytest.approx(sum(s.energy_by_stage.values()))
        assert s.energy_total == pytest.approx(float(s.energy_by_node.sum()))
        assert s.messages_total == sum(s.messages_by_kind.values())

    def test_max_node_energy(self):
        k = make_kernel(LINE)
        k.nodes[0].ctx.unicast(2, "X")  # 0.64 on node 0
        k.nodes[1].ctx.unicast(0, "X")  # 0.09 on node 1
        k.run_until_quiescent()
        assert k.stats().max_node_energy == pytest.approx(0.64)

    def test_kind_table_sorted(self):
        ledger = EnergyLedger(2)
        ledger.charge(0, "small", "s", 0.1)
        ledger.charge(1, "big", "s", 5.0)
        rows = ledger.snapshot(0).kind_table()
        assert [r[0] for r in rows] == ["big", "small"]

    def test_custom_power_model(self):
        k = SynchronousKernel(
            np.array(LINE), max_radius=2.0, power=PathLossModel(a=2.0, alpha=4.0)
        )
        k.add_nodes(Recorder)
        k.start()
        k.nodes[0].ctx.unicast(1, "X")
        k.run_until_quiescent()
        assert k.stats().energy_total == pytest.approx(2.0 * 0.3**4)
