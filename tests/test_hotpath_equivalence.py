"""The fast kernel must be observationally identical to the legacy one.

The hot-path rework (neighbor table, broadcast descriptors, vectorized
delivery ordering, batched ledger breakdowns) is only legal because it
changes *nothing* an algorithm or an experiment can observe.  These tests
pin that contract at two levels:

* end to end — GHS / modified GHS / EOPT produce bit-identical energy,
  message, round stats and MST edge sets on both kernels;
* kernel level — scripted nodes record every delivered message in order;
  the (kind, src, distance) sequences and full ledger snapshots must
  match exactly, including sub-max-radius broadcasts, radius changes in
  both directions, rx charges and the dense-fallback path.

The flood-plane fast path (the default) rides the same contract: every
algorithm run is checked with flood planes on *and* with per-message
floods (the fallback a density-gated table takes) against the legacy
kernel, and the plane path must demonstrably engage — a test that
silently fell back to per-message delivery would pin nothing.  With
flood planes on, GHS, modified GHS and EOPT also run their phases on the
whole-round engine, which sums the energy breakdowns in a different
association order.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.algorithms.eopt import run_eopt
from repro.algorithms.ghs import run_ghs, run_modified_ghs
from repro.geometry.points import uniform_points
from repro.perf import perf
from repro.runspec.spec import KERNEL_MODES, kernel_class
from repro.sim import LegacyKernel, NodeProcess, SynchronousKernel
from repro.sim.faults import FaultPlan
from tests.conftest import per_message_floods


def _assert_breakdown_close(new: dict, old: dict):
    """Energy breakdowns are batched sums: same terms, possibly summed in
    a different association order — equal up to float reassociation."""
    assert new.keys() == old.keys()
    for k in old:
        assert new[k] == pytest.approx(old[k], rel=1e-12, abs=1e-15)


def _assert_same_result(old, new):
    # The hard contract: headline stats and the tree are bit-identical.
    assert new.stats.energy_total == old.stats.energy_total
    assert new.stats.messages_total == old.stats.messages_total
    assert new.stats.rounds == old.stats.rounds
    assert new.stats.messages_by_kind == old.stats.messages_by_kind
    assert new.stats.messages_by_stage == old.stats.messages_by_stage
    assert np.array_equal(new.tree_edges, old.tree_edges)
    _assert_breakdown_close(new.stats.energy_by_kind, old.stats.energy_by_kind)
    _assert_breakdown_close(new.stats.energy_by_stage, old.stats.energy_by_stage)


@pytest.mark.parametrize(
    "runner, n, seed",
    [
        (run_ghs, 180, 3),
        (run_modified_ghs, 300, 0),
        (run_modified_ghs, 300, 5),
        (run_eopt, 300, 2),
        (run_eopt, 400, 11),
    ],
)
def test_algorithms_bit_identical(runner, n, seed):
    pts = uniform_points(n, seed=seed)
    old = runner(pts, kernel_cls=LegacyKernel)
    perf.reset()
    perf.enable()
    try:
        new = runner(pts)  # flood planes on (the default)
    finally:
        plane_sends = perf.counters.get("kernel.plane_sends", 0)
        engine_rounds = perf.counters.get("kernel.turbo_engine_rounds", 0)
        perf.disable()
        perf.reset()
    with per_message_floods():
        off = runner(pts)
    # The plane path must actually have run, or this test pins nothing.
    assert plane_sends > 0
    _assert_same_result(old, new)
    _assert_same_result(old, off)
    # Every family member (original GHS's TEST probes included) runs its
    # phases on the whole-round engine, which reassociates the breakdown
    # sums (headline stats above stay bit-exact); it must demonstrably
    # have engaged.
    assert engine_rounds > 0
    _assert_breakdown_close(new.stats.energy_by_kind, off.stats.energy_by_kind)
    _assert_breakdown_close(new.stats.energy_by_stage, off.stats.energy_by_stage)


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("planes", [True, False], ids=["planes", "noplanes"])
@pytest.mark.parametrize("mode", [m for m in KERNEL_MODES if m != "legacy"])
def test_registered_backends_match_reference(mode, planes, faulty):
    """Every registered backend honors the observational contract against
    the frozen legacy reference, across the flood-planes x faults matrix
    ("noplanes": per-message floods, as on a density-gated table).  The
    whole-round engine must demonstrably engage on its eligible
    combination (flood planes on, no faults) — a silently disengaged
    engine would pin nothing."""
    pts = uniform_points(250, seed=1)
    kwargs = {}
    if faulty:
        kwargs["faults"] = FaultPlan(seed=7, drop_rate=0.05)
    ref = run_modified_ghs(pts, kernel_cls=LegacyKernel, **kwargs)
    perf.reset()
    perf.enable()
    try:
        with contextlib.nullcontext() if planes else per_message_floods():
            res = run_modified_ghs(pts, kernel_cls=kernel_class(mode), **kwargs)
        engine_rounds = perf.counters.get("kernel.turbo_engine_rounds", 0)
    finally:
        perf.disable()
        perf.reset()
    _assert_same_result(ref, res)
    assert (engine_rounds > 0) == (planes and not faulty)


def test_trace_streams_identical_with_triage_on_failure():
    """The trace plane doubles as the equivalence suite's triage tool:
    run legacy and fast kernels with tracing on and diff the event
    streams.  On divergence the assertion message carries the first
    divergent event with context — the exact phase/round where the
    kernels parted ways — instead of a bare stats mismatch."""
    from repro.trace import trace
    from repro.trace.diff import diff_traces, format_divergence

    pts = uniform_points(300, seed=0)

    def traced(**kwargs):
        trace.reset()
        trace.enable()
        try:
            run_modified_ghs(pts, **kwargs)
            return trace.snapshot()
        finally:
            trace.disable()
            trace.reset()

    legacy = traced(kernel_cls=LegacyKernel)
    fast = traced()
    d = diff_traces(legacy, fast)
    assert d is None, format_divergence(d, "legacy", "fast")


def test_rx_cost_bit_identical():
    pts = uniform_points(250, seed=4)
    old = run_modified_ghs(pts, rx_cost=0.01, kernel_cls=LegacyKernel)
    new = run_modified_ghs(pts, rx_cost=0.01)
    with per_message_floods():
        off = run_modified_ghs(pts, rx_cost=0.01)
    _assert_same_result(old, new)
    _assert_same_result(old, off)


class _Recorder(NodeProcess):
    """Scripted node: logs every delivery, answers PING with a unicast."""

    def __init__(self, node_id, ctx):
        super().__init__(node_id, ctx)
        self.heard = []

    def on_message(self, msg, distance):
        self.heard.append((msg.kind, msg.src, distance))
        if msg.kind == "PING":
            self.ctx.unicast(msg.src, "PONG", self.id)

    def on_wake(self, signal, payload=()):
        if signal == "bcast":
            self.ctx.local_broadcast(payload[0], "PING", self.id)


def _drive(kernel_cls, *, rx_cost=0.0):
    """A scripted scenario covering every delivery path.

    Full-radius and sub-radius broadcasts, PING->PONG unicast echoes,
    lowering the cap (superset table stays), raising it back above the
    build radius (table invalidation), all under one deterministic
    point set.
    """
    pts = uniform_points(60, seed=9)
    r = 0.3
    kernel = kernel_cls(pts, max_radius=r, rx_cost=rx_cost)
    kernel.add_nodes(lambda i, ctx: _Recorder(i, ctx))
    kernel.start()
    # Round of full-radius broadcasts from a few senders.
    kernel.wake([0, 7, 13], "bcast", (r,))
    kernel.run_until_quiescent()
    # Sub-radius broadcasts (exercises the searchsorted cutoff).
    kernel.set_stage("narrow")
    kernel.wake([3, 13, 42], "bcast", (0.4 * r,))
    kernel.run_until_quiescent()
    # Lower the cap: the cached superset table must still filter right.
    kernel.set_max_radius(0.5 * r)
    kernel.wake([5, 20], "bcast", (0.5 * r,))
    kernel.run_until_quiescent()
    # Raise the cap past the build radius: table must be invalidated.
    kernel.set_max_radius(2.5 * r)
    kernel.set_stage("wide")
    kernel.wake([11, 30], "bcast", (2.5 * r,))
    kernel.run_until_quiescent()
    logs = [nd.heard for nd in kernel.nodes]
    return logs, kernel.stats(), kernel.ledger.energy_by_node.copy()


@pytest.mark.parametrize("rx_cost", [0.0, 0.005])
def test_delivery_order_identical(rx_cost):
    old_logs, old_stats, old_by_node = _drive(LegacyKernel, rx_cost=rx_cost)
    new_logs, new_stats, new_by_node = _drive(SynchronousKernel, rx_cost=rx_cost)
    assert new_logs == old_logs
    assert new_stats.energy_total == old_stats.energy_total
    assert new_stats.messages_total == old_stats.messages_total
    assert new_stats.rounds == old_stats.rounds
    assert new_stats.messages_by_kind == old_stats.messages_by_kind
    _assert_breakdown_close(new_stats.energy_by_kind, old_stats.energy_by_kind)
    _assert_breakdown_close(new_stats.energy_by_stage, old_stats.energy_by_stage)
    np.testing.assert_allclose(new_by_node, old_by_node, rtol=1e-12, atol=1e-15)


def test_dense_fallback_identical():
    # A near-global cap blows the table density budget; the kernel must
    # fall back to per-call queries and still match legacy exactly.
    pts = uniform_points(400, seed=1)
    r = float(np.sqrt(2.0))

    def drive(kernel_cls):
        kernel = kernel_cls(pts, max_radius=r)
        kernel.add_nodes(lambda i, ctx: _Recorder(i, ctx))
        kernel.start()
        kernel.wake([0, 17], "bcast", (0.9,))
        kernel.run_until_quiescent()
        return [nd.heard for nd in kernel.nodes], kernel.stats()

    old_logs, old_stats = drive(LegacyKernel)
    new_logs, new_stats = drive(SynchronousKernel)
    assert new_logs == old_logs
    assert new_stats.energy_total == old_stats.energy_total
    assert new_stats.messages_total == old_stats.messages_total
    assert new_stats.rounds == old_stats.rounds
