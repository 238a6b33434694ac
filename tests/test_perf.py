"""Unit tests for the opt-in perf instrumentation registry."""

from __future__ import annotations

import os
import types

import numpy as np
import pytest

import repro.perf as perf_mod
from repro.geometry.points import uniform_points
from repro.perf import PEAK_RSS_COUNTER, PerfRegistry, _NULL_TIMED, perf
from repro.trace import TraceRegistry
from repro.sim import LegacyKernel
from repro.sim.faults import FaultPlan
from repro.sim.interference import ContentionKernel
from repro.sim.kernel import SynchronousKernel
from repro.sim.node import NodeProcess


@pytest.fixture(autouse=True)
def _clean_global_registry():
    perf.disable()
    perf.reset()
    yield
    perf.disable()
    perf.reset()


def test_disabled_timed_is_shared_noop():
    reg = PerfRegistry()
    assert reg.timed("x") is _NULL_TIMED
    with reg.timed("x"):
        pass
    assert reg.timers == {}
    assert reg.snapshot() == {"timers": {}, "counters": {}}
    assert reg.report() == "(no perf data recorded)"


def test_timers_and_counters_accumulate():
    reg = PerfRegistry()
    reg.enable()
    for _ in range(3):
        with reg.timed("phase"):
            pass
    reg.add("events")
    reg.add("events", 4)
    snap = reg.snapshot()
    assert snap["timers"]["phase"]["calls"] == 3
    assert snap["timers"]["phase"]["total_s"] >= 0.0
    assert snap["counters"] == {"events": 5}
    assert "phase" in reg.report() and "events" in reg.report()
    reg.reset()
    assert reg.snapshot() == {"timers": {}, "counters": {}}
    assert reg.enabled  # reset keeps the switch


class _Beacon(NodeProcess):
    def on_start(self):
        self.ctx.local_broadcast(self.ctx.max_radius, "HELLO")


def test_kernel_hooks_record_rounds_and_deliveries():
    pts = uniform_points(80, seed=0)
    perf.enable()
    kernel = SynchronousKernel(pts, max_radius=0.3)
    kernel.add_nodes(lambda i, ctx: _Beacon(i, ctx))
    kernel.start()
    kernel.run_until_quiescent()
    snap = perf.snapshot()
    assert snap["counters"]["kernel.rounds"] == 1
    assert snap["counters"]["kernel.deliveries"] > 0
    assert snap["counters"]["kernel.nbr_table_builds"] == 1
    assert snap["counters"]["kernel.nbr_table_entries"] > 0
    assert snap["timers"]["kernel.nbr_table_build"]["calls"] == 1


@pytest.mark.parametrize(
    "kernel_cls, crashes",
    [
        (SynchronousKernel, ()),
        (LegacyKernel, ()),
        (ContentionKernel, ()),
        (SynchronousKernel, ((4, 5, 40), (9, 3, 30))),
    ],
    ids=["fast", "legacy", "contention", "fast-crashes"],
)
def test_round_counter_matches_stats(kernel_cls, crashes):
    """Every path that advances the clock — flat legacy delivery,
    contention slots, idle recovery ticks, the whole-round engine —
    feeds the ``kernel.rounds`` counter."""
    from repro.algorithms.ghs import run_modified_ghs

    faults = FaultPlan(crashes=crashes) if crashes else None
    perf.enable()
    res = run_modified_ghs(
        uniform_points(200, seed=3), kernel_cls=kernel_cls, faults=faults
    )
    assert perf.snapshot()["counters"]["kernel.rounds"] == res.stats.rounds


def test_kernel_silent_when_disabled():
    pts = uniform_points(50, seed=1)
    kernel = SynchronousKernel(pts, max_radius=0.3)
    kernel.add_nodes(lambda i, ctx: _Beacon(i, ctx))
    kernel.start()
    kernel.run_until_quiescent()
    assert perf.snapshot() == {"timers": {}, "counters": {}}


def test_add_is_noop_while_disabled():
    """Satellite regression: ``add()`` used to trust its callers to guard
    with ``if perf.enabled`` — an unguarded call site silently leaked
    counts into a disabled registry.  The internal backstop stops that."""
    reg = PerfRegistry()
    reg.add("leak")
    reg.add("leak", 10)
    assert reg.counters == {}
    reg.enable()
    reg.add("leak", 2)
    reg.disable()
    reg.add("leak", 5)  # disabled again: must not accumulate further
    assert reg.counters == {"leak": 2}


def test_disabled_registry_empty_after_full_mghs_run():
    """End to end: a complete MGHS run (kernel, planes, drivers, runner)
    with instrumentation off must leave the global registry untouched."""
    from repro.algorithms.ghs import run_modified_ghs

    run_modified_ghs(uniform_points(150, seed=2))
    assert perf.snapshot() == {"timers": {}, "counters": {}}


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_rss_sample_excludes_memory_freed_before_the_reset():
    """The counter is the highest VmRSS sampled since the reset, not the
    process-lifetime peak: 64 MiB touched and freed beforehand is gone."""
    big = np.ones(8 << 20)
    del big
    reg = PerfRegistry()
    reg.enable()
    reg.sample_rss()
    assert reg.counters[PEAK_RSS_COUNTER] < perf_mod.peak_rss_bytes() - (32 << 20)


def test_current_rss_falls_back_to_peak_without_proc(monkeypatch):
    def no_proc(*args):
        raise FileNotFoundError(args[0])

    monkeypatch.setattr(perf_mod, "os", types.SimpleNamespace(open=no_proc, O_RDONLY=0))
    assert perf_mod.current_rss_bytes() == perf_mod.peak_rss_bytes()


def test_back_to_back_runs_report_identical_numbers():
    """Satellite regression: repeated in-process runs must not accumulate
    stale registry state — a reset at the run boundary makes the second
    run's numbers equal the first's (counters and call counts exactly;
    timer *seconds* are wall clock and excluded)."""
    from repro.algorithms.ghs import run_modified_ghs

    pts = uniform_points(150, seed=3)

    def one_run():
        perf.reset()
        perf.enable()
        try:
            run_modified_ghs(pts)
        finally:
            snap = perf.snapshot()
            perf.disable()
        return snap

    first, second = one_run(), one_run()
    assert first["counters"] == second["counters"]
    assert {k: v["calls"] for k, v in first["timers"].items()} == {
        k: v["calls"] for k, v in second["timers"].items()
    }


def test_merge_folds_snapshots_additively():
    src = PerfRegistry()
    src.enable()
    src.add("events", 3)
    with src.timed("phase"):
        pass
    snap = src.snapshot()

    dst = PerfRegistry()  # merge works regardless of dst's enabled flag
    dst.merge(snap)
    assert dst.counters == {"events": 3}
    assert dst.timers["phase"][1] == 1
    # snapshot() hands out copies: merging must never mutate the source,
    # so repeated snapshots stay reproducible.
    assert src.snapshot() == snap
    dst.merge(snap)
    assert dst.counters == {"events": 6}
    assert dst.timers["phase"][1] == 2


@pytest.mark.parametrize("registry_cls", [PerfRegistry, TraceRegistry])
@pytest.mark.parametrize("ambient_on", [False, True])
def test_isolated_restores_ambient_state_even_when_the_body_raises(
    registry_cls, ambient_on
):
    """``isolated()`` records the body alone and puts the ambient switch
    and data back exactly, on a clean exit and on an exception."""

    def record(reg, label):
        if isinstance(reg, PerfRegistry):
            reg.add(label)
        else:
            reg.emit(label)

    reg = registry_cls()
    reg.enable()
    record(reg, "ambient")
    if not ambient_on:
        reg.disable()
    ambient = reg.snapshot()

    with reg.isolated() as cap:
        assert reg.enabled and reg.snapshot() != ambient
        record(reg, "inside")
    assert (reg.enabled, reg.snapshot()) == (ambient_on, ambient)
    inside = cap.data

    with pytest.raises(RuntimeError):
        with reg.isolated() as cap:
            record(reg, "inside")
            raise RuntimeError("run failed")
    assert (reg.enabled, reg.snapshot()) == (ambient_on, ambient)
    assert cap.data == inside
