"""Tests for the fault plane: fate hashing, kernel integration, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.energy import SimStats
from repro.sim.faults import FaultPlan, RetryBuffer
from repro.sim.kernel import SynchronousKernel
from repro.sim.legacy import LegacyKernel
from repro.sim.node import NodeProcess


def _line_points(n: int, spacing: float = 0.05) -> np.ndarray:
    return np.column_stack([np.arange(n) * spacing, np.zeros(n)])


class _Sender(NodeProcess):
    """Minimal node: wake 'u' unicasts PING to node 1, 'b' broadcasts."""

    def on_start(self) -> None:
        self.got: list[int] = []

    def on_wake(self, signal: str, payload: tuple = ()) -> None:
        if signal == "u":
            self.ctx.unicast(payload[0], "PING")
        elif signal == "b":
            self.ctx.local_broadcast(0.2, "BCAST", 1)

    def on_message(self, msg, distance: float) -> None:
        self.got.append(msg.src)


class TestFaultPlan:
    def test_null_plan(self):
        assert FaultPlan().is_null
        assert not FaultPlan(drop_rate=0.1).is_null
        assert not FaultPlan(crashes=((0, 0, None),)).is_null

    def test_validation(self):
        with pytest.raises(SimulationError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(SimulationError):
            FaultPlan(crashes=((0, 5, 5),))  # empty window
        with pytest.raises(SimulationError):
            FaultPlan(crashes=((0, 0, 10), (0, 20, 30)))  # two windows

    def test_null_plan_leaves_kernel_faultless(self):
        k = SynchronousKernel(_line_points(3), max_radius=0.2, faults=FaultPlan())
        assert k.faults is None


class TestFateHashing:
    """The scalar and vectorized fate paths must agree bit-for-bit."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(seed=1, drop_rate=0.3),
            FaultPlan(seed=2, drop_rate=0.1, dup_rate=0.25),
            FaultPlan(seed=3, drop_rate=0.2, link_loss={(0, 5): 0.5}),
            FaultPlan(seed=4, dup_rate=0.4, crashes=((3, 2, 9), (7, 0, None))),
        ],
    )
    def test_scalar_matches_vectorized(self, plan):
        fp = plan.build(16)
        rng = np.random.default_rng(0)
        src = rng.integers(0, 16, size=200)
        dst = rng.integers(0, 16, size=200)
        for rnd in (0, 3, 7, 100):
            for kind in ("PING", "HELLO"):
                times, crash, drop, dup = fp.times(
                    src, dst, fp.kind_hash(kind), rnd
                )
                for i in range(len(src)):
                    f = fp.fate(int(src[i]), int(dst[i]), kind, rnd)
                    expect = {-1: 0, 0: 0, 1: 1, 2: 2}[f]
                    assert times[i] == expect
                    assert crash[i] == (f == -1)
                    assert drop[i] == (f == 0)
                    assert dup[i] == (f == 2)

    def test_fate_is_evaluation_order_free(self):
        fp = FaultPlan(seed=9, drop_rate=0.5).build(8)
        a = fp.fate(2, 3, "PING", 17)
        fp.fate(5, 1, "PONG", 4)  # interleaved draw must not matter
        assert fp.fate(2, 3, "PING", 17) == a

    def _assert_bit_match(self, fp, src, dst, kinds, rnd):
        kh = np.array([fp.kind_hash(k) for k in kinds], dtype=np.uint64)
        times, crash, drop, dup = fp.times(src, dst, kh, rnd)
        for i in range(len(src)):
            f = fp.fate(int(src[i]), int(dst[i]), kinds[i], rnd)
            assert times[i] == {-1: 0, 0: 0, 1: 1, 2: 2}[f]
            assert crash[i] == (f == -1)
            assert drop[i] == (f == 0)
            assert dup[i] == (f == 2)

    def test_link_loss_without_global_drop(self):
        # drop_rate=0 leaves _drop_thr=0 but the link table non-empty; the
        # vectorized path must still take the per-link branch.
        fp = FaultPlan(seed=11, link_loss={(0, 5): 0.5, (2, 3): 1.0}).build(8)
        rng = np.random.default_rng(1)
        src = rng.integers(0, 8, size=300)
        dst = rng.integers(0, 8, size=300)
        for rnd in (0, 4, 50):
            self._assert_bit_match(fp, src, dst, ["PING"] * 300, rnd)

    def test_mixed_kindh_arrays(self):
        # Per-delivery kind hashes (a merged unicast round mixes kinds).
        fp = FaultPlan(
            seed=12, drop_rate=0.3, dup_rate=0.2, link_loss={(1, 2): 0.4}
        ).build(8)
        rng = np.random.default_rng(2)
        src = rng.integers(0, 8, size=240)
        dst = rng.integers(0, 8, size=240)
        pool = ["REPORT", "TEST", "JOIN", "MERGE"]
        kinds = [pool[i % len(pool)] for i in range(240)]
        for rnd in (0, 9, 77):
            self._assert_bit_match(fp, src, dst, kinds, rnd)

    def test_crash_window_boundary_rounds(self):
        # Fates at exactly start (first crashed round) and exactly end
        # (first live round again) — the half-open [start, end) contract.
        plan = FaultPlan(seed=13, drop_rate=0.2, crashes=((3, 5, 9),))
        fp = plan.build(8)
        src = np.zeros(8, dtype=np.int64)
        dst = np.full(8, 3, dtype=np.int64)
        for rnd in (4, 5, 8, 9):
            self._assert_bit_match(fp, src, dst, ["PING"] * 8, rnd)
        assert fp.fate(0, 3, "PING", 4) != -1
        assert fp.fate(0, 3, "PING", 5) == -1
        assert fp.fate(0, 3, "PING", 8) == -1
        assert fp.fate(0, 3, "PING", 9) != -1

    def test_p_one_threshold_quantization(self):
        # p=1.0 maps to the all-but-one-draw threshold (2^64 - 1): both
        # paths must quantize identically instead of overflowing uint64.
        for plan in (
            FaultPlan(seed=14, drop_rate=1.0),
            FaultPlan(seed=14, dup_rate=1.0),
            FaultPlan(seed=14, link_loss={(0, 1): 1.0}),
        ):
            fp = plan.build(4)
            rng = np.random.default_rng(3)
            src = rng.integers(0, 4, size=120)
            dst = rng.integers(0, 4, size=120)
            for rnd in (0, 6):
                self._assert_bit_match(fp, src, dst, ["PING"] * 120, rnd)


class TestCrashPredicateTypes:
    """The scalar crash predicates must return builtin bool, not np.bool_."""

    def test_crashed_and_gone_forever_return_builtin_bool(self):
        fp = FaultPlan(seed=0, crashes=((1, 2, 5), (2, 3, None))).build(4)
        for node, rnd in [(0, 0), (1, 2), (1, 5), (2, 3), (2, 100)]:
            c = fp.crashed(node, rnd)
            g = fp.gone_forever(node, rnd)
            assert type(c) is bool, (node, rnd, type(c))
            assert type(g) is bool, (node, rnd, type(g))
        # Regression: when the first conjunct was truthy, gone_forever
        # used to short-circuit into returning a raw np.bool_.
        assert type(fp.gone_forever(2, 10)) is bool
        assert fp.gone_forever(2, 10) is True
        assert fp.gone_forever(1, 2) is False  # transient window
        assert fp.gone_forever(2, 1) is False  # before the window opens


class TestKernelIntegration:
    def _kernel(self, plan, n=3):
        k = SynchronousKernel(_line_points(n), max_radius=0.2, faults=plan)
        k.add_nodes(_Sender)
        k.start()
        return k

    def test_drop_charges_sender_but_not_receiver(self):
        # drop_rate=1: every delivery lost, but TX paid in full.
        k = self._kernel(FaultPlan(seed=0, drop_rate=1.0), n=2)
        k.wake([0], "u", (1,))
        k.run_until_quiescent()
        st = k.stats()
        assert k.nodes[1].got == []
        assert st.energy_total > 0
        assert st.messages_total == 1
        assert st.drops_by_kind == {"PING": 1}

    def test_duplicate_delivery(self):
        k = self._kernel(FaultPlan(seed=0, dup_rate=1.0), n=2)
        k.wake([0], "u", (1,))
        k.run_until_quiescent()
        assert k.nodes[1].got == [0, 0]
        assert k.stats().dup_deliveries_by_kind == {"PING": 1}

    def test_rx_cost_follows_delivered_copies(self):
        pts = _line_points(2)
        for plan, copies in [
            (FaultPlan(seed=0, drop_rate=1.0), 0),
            (FaultPlan(seed=0, dup_rate=1.0), 2),
            (None, 1),
        ]:
            k = SynchronousKernel(pts, max_radius=0.2, rx_cost=0.5, faults=plan)
            k.add_nodes(_Sender)
            k.start()
            k.wake([0], "u", (1,))
            k.run_until_quiescent()
            assert k.stats().rx_energy_total == pytest.approx(0.5 * copies)

    def test_crash_window_drops_and_restores(self):
        # Node 1 radio-off for rounds [0, 3): first send crash-drops,
        # a later one lands.
        k = self._kernel(FaultPlan(seed=0, crashes=((1, 0, 3),)), n=2)
        k.wake([0], "u", (1,))
        k.run_until_quiescent()
        assert k.nodes[1].got == []
        assert k.stats().crash_drops_by_kind == {"PING": 1}
        while k.rounds < 3:
            k.tick()
        k.wake([0], "u", (1,))
        k.run_until_quiescent()
        assert k.nodes[1].got == [0]

    def test_wake_skips_crashed_node(self):
        k = self._kernel(FaultPlan(seed=0, crashes=((0, 0, None),)), n=2)
        k.wake([0], "u", (1,))
        k.run_until_quiescent()
        assert k.stats().messages_total == 0

    def test_link_loss_composes_both_directions(self):
        plan = FaultPlan(seed=0, link_loss={(0, 1): 1.0})
        k = self._kernel(plan, n=3)
        k.wake([0], "u", (1,))
        k.wake([1], "u", (0,))
        k.wake([1], "u", (2,))
        k.run_until_quiescent()
        assert k.nodes[1].got == []  # 0 -> 1 dead
        assert k.nodes[0].got == []  # 1 -> 0 dead (symmetric)
        assert k.nodes[2].got == [1]  # unrelated link untouched

    def test_broadcast_fates_are_per_receiver(self):
        plan = FaultPlan(seed=0, link_loss={(0, 1): 1.0})
        k = self._kernel(plan, n=3)
        k.wake([0], "b")
        k.run_until_quiescent()
        assert k.nodes[1].got == []
        assert k.nodes[2].got == [0]

    def test_faults_off_stats_clean(self):
        k = self._kernel(None, n=2)
        k.wake([0], "u", (1,))
        k.run_until_quiescent()
        st = k.stats()
        assert st.drops_by_kind == {}
        assert st.crash_drops_by_kind == {}
        assert st.dup_deliveries_by_kind == {}
        assert st.dropped_total == 0
        assert st.fault_table() == []


class TestSimStatsDefaults:
    def test_default_rx_energy_by_node_is_empty_array(self):
        """Regression: hand-constructed stats used to default to None."""
        st = SimStats(
            energy_total=1.0,
            messages_total=2,
            rounds=3,
            energy_by_kind={},
            messages_by_kind={},
            energy_by_stage={},
            messages_by_stage={},
            energy_by_node=np.zeros(4),
        )
        assert isinstance(st.rx_energy_by_node, np.ndarray)
        assert st.rx_energy_by_node.size == 0
        assert st.rx_energy_by_node.copy() is not None  # no None guard needed
        assert st.rx_energy_total == 0.0


class TestRetryBuffer:
    class _Ctx:
        def __init__(self):
            self.sent = []

        def unicast(self, dst, kind, *payload):
            self.sent.append((dst, kind, payload))

    def test_send_ack_dedup_cycle(self):
        ctx = self._Ctx()
        rb = RetryBuffer(ctx)
        rb.send(5, "REPORT", (1, 2))
        assert ctx.sent == [(5, "REPORT", (0, 1, 2))]
        assert rb.accept(7, 0)
        assert not rb.accept(7, 0)  # duplicate rejected
        rb.on_ack(5, 0)
        assert not rb.pending
        rb.on_ack(5, 0)  # idempotent

    def test_per_destination_sequence_streams(self):
        # Each destination gets its own seq stream starting at 0, so a
        # receiver can compact its dedup state as a contiguous prefix.
        ctx = self._Ctx()
        rb = RetryBuffer(ctx)
        rb.send(3, "A", ())
        rb.send(4, "B", ())
        rb.send(3, "C", ())
        assert ctx.sent == [(3, "A", (0,)), (4, "B", (0,)), (3, "C", (1,))]
        assert set(rb.pending) == {(3, 0), (4, 0), (3, 1)}
        rb.on_ack(3, 0)
        assert set(rb.pending) == {(4, 0), (3, 1)}
        # An ACK for dst 4's seq 0 must not alias dst 3's retired seq 0.
        rb.on_ack(4, 0)
        assert set(rb.pending) == {(3, 1)}

    def test_seen_compacts_contiguous_prefix(self):
        rb = RetryBuffer(self._Ctx())
        for seq in range(100):
            assert rb.accept(7, seq)
        # In-order delivery: everything folded into the watermark.
        assert rb.seen[7] == set()
        assert rb._seen_lo[7] == 100
        assert not rb.accept(7, 42)  # inside the prefix: duplicate
        # Out-of-order arrival parks until the gap fills.
        assert rb.accept(7, 102)
        assert rb.seen[7] == {102}
        assert rb.accept(7, 100)
        assert rb.seen[7] == {102}
        assert rb._seen_lo[7] == 101
        assert rb.accept(7, 101)  # gap filled: prefix folds through 102
        assert rb.seen[7] == set()
        assert rb._seen_lo[7] == 103

    def test_tick_survives_synchronous_ack_retirement(self):
        # A delivery path that ACKs synchronously retires pending entries
        # while tick() is iterating; the snapshot makes that safe.
        rb_box = []

        class _AckingCtx(self._Ctx):
            def unicast(self, dst, kind, *payload):
                super().unicast(dst, kind, *payload)
                # Retransmission delivered instantly: peer ACKs everything.
                if rb_box and kind != "ACK":
                    for key in list(rb_box[0].pending):
                        rb_box[0].on_ack(*key)

        ctx = _AckingCtx()
        rb = RetryBuffer(ctx)
        rb.send(1, "X", ())
        rb.send(2, "Y", ())
        rb_box.append(rb)  # arm synchronous ACKs for retransmissions only
        rb.tick()  # pre-fix: RuntimeError (dict changed size during iteration)
        assert not rb.pending

    def test_tick_retransmits_with_backoff(self):
        ctx = self._Ctx()
        rb = RetryBuffer(ctx, backoff_cap=2)
        rb.send(3, "X", ())
        ctx.sent.clear()
        rb.tick()  # first timeout: immediate retransmit
        assert len(ctx.sent) == 1
        ctx.sent.clear()
        rb.tick()  # backoff 2: armed, no send yet
        assert ctx.sent == []
        rb.tick()
        assert len(ctx.sent) == 1

    def test_retry_exhaustion_raises(self):
        from repro.errors import ProtocolError

        ctx = self._Ctx()
        rb = RetryBuffer(ctx, max_retries=2, backoff_cap=1)
        rb.send(3, "X", ())
        rb.tick()
        rb.tick()
        with pytest.raises(ProtocolError):
            rb.tick()


class TestDrainReliable:
    """drain_reliable terminates once only dead nodes hold traffic."""

    def _world(self, plan, n=3):
        from repro.fuzz.retry_world import ReliableEchoNode

        k = SynchronousKernel(_line_points(n), max_radius=0.12, faults=plan)
        k.add_nodes(ReliableEchoNode)
        k.start()
        return k

    def test_gone_forever_holder_does_not_hang(self):
        from repro.sim.faults import drain_reliable

        # Node 0 sends reliably to node 1, then crashes forever at round 1
        # — exactly when node 1's ACK would land.  The unacknowledged
        # entry can never drain; pre-fix this idled kernel.tick() for
        # max_iters iterations and raised ProtocolError.
        k = self._world(FaultPlan(seed=0, crashes=((0, 1, None),)))
        k.wake([0], "send", (1, 0))
        drain_reliable(k, k.nodes, max_iters=50)
        assert k.nodes[0].retry.pending  # tolerated: holder is gone forever
        assert k.nodes[1].delivered == [(0, 0)]  # the DATA itself landed

    def test_transient_holder_still_drains(self):
        from repro.sim.faults import drain_reliable

        # A finite window must still be waited out, not skipped.
        k = self._world(FaultPlan(seed=0, crashes=((0, 1, 6),)))
        k.wake([0], "send", (1, 0))
        drain_reliable(k, k.nodes, max_iters=100)
        assert not k.nodes[0].retry.pending
        assert k.nodes[1].delivered == [(0, 0)]


class TestDeterminism:
    """Satellite: identical (instance seed, fault seed) => identical runs."""

    def test_mghs_identical_across_runs_and_planes(self):
        from repro.algorithms.ghs.runner import run_modified_ghs
        from repro.experiments.instances import get_points

        pts = get_points(200, 3)
        plan = FaultPlan(seed=1, drop_rate=0.15, dup_rate=0.05)
        a = run_modified_ghs(pts, faults=plan)
        b = run_modified_ghs(pts, faults=plan)
        c = run_modified_ghs(pts, faults=plan, kernel_cls=LegacyKernel)
        for other in (b, c):
            assert np.array_equal(
                np.asarray(a.tree_edges), np.asarray(other.tree_edges)
            )
            assert a.stats.drops_by_kind == other.stats.drops_by_kind
            assert (
                a.stats.dup_deliveries_by_kind
                == other.stats.dup_deliveries_by_kind
            )
        # Headline stats are bit-identical run to run and across kernels.
        for other in (b, c):
            assert a.stats.energy_total == other.stats.energy_total
            assert a.stats.messages_total == other.stats.messages_total
            assert a.stats.rounds == other.stats.rounds

    def test_different_fault_seed_differs(self):
        from repro.algorithms.ghs.runner import run_modified_ghs
        from repro.experiments.instances import get_points

        pts = get_points(200, 3)
        a = run_modified_ghs(pts, faults=FaultPlan(seed=1, drop_rate=0.15))
        b = run_modified_ghs(pts, faults=FaultPlan(seed=2, drop_rate=0.15))
        assert a.stats.drops_by_kind != b.stats.drops_by_kind
