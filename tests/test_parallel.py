"""Tests for the process-parallel sweep executor."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import parallel as parallel_mod
from repro.experiments.config import SweepConfig
from repro.experiments.parallel import shutdown, sweep_energy_parallel
from repro.experiments.runner import sweep_energy
from repro.runspec import engine as engine_mod

CFG = SweepConfig(ns=(50, 100), seeds=(0, 1), algorithms=("EOPT", "Co-NNT"))


class TestParallelSweep:
    def test_matches_serial_exactly(self):
        """Every cell is deterministic, so parallel == serial bitwise."""
        serial = sweep_energy(CFG)
        parallel = sweep_energy_parallel(CFG, workers=2)
        for alg in CFG.algorithms:
            assert np.array_equal(serial.energy[alg], parallel.energy[alg])
            assert np.array_equal(serial.messages[alg], parallel.messages[alg])
            assert np.array_equal(serial.rounds[alg], parallel.rounds[alg])

    def test_single_worker(self):
        sweep = sweep_energy_parallel(
            SweepConfig(ns=(50,), seeds=(0,), algorithms=("Co-NNT",)), workers=1
        )
        assert sweep.energy["Co-NNT"].shape == (1, 1)
        assert sweep.energy["Co-NNT"][0, 0] > 0

    def test_invalid_workers(self):
        with pytest.raises(ExperimentError):
            sweep_energy_parallel(CFG, workers=0)

    def test_default_workers(self):
        sweep = sweep_energy_parallel(
            SweepConfig(ns=(50,), seeds=(0,), algorithms=("Co-NNT",))
        )
        assert sweep.config.ns == (50,)


class TestPoolReuse:
    CFG_SMALL = SweepConfig(ns=(50,), seeds=(0,), algorithms=("Co-NNT",))

    def test_pool_survives_across_sweeps(self):
        shutdown()  # known-clean start
        sweep_energy_parallel(self.CFG_SMALL, workers=2)
        pool = engine_mod._pool
        assert pool is not None
        sweep_energy_parallel(self.CFG_SMALL, workers=2)
        assert engine_mod._pool is pool  # same executor object reused

    def test_pool_reused_when_big_enough(self):
        """Satellite regression: a 2-worker pool serves a 1-worker batch
        fine (the extra worker idles), so shrinking the request must not
        pay a teardown/respawn — alternating wide and narrow sweeps used
        to thrash the pool (and its warm instance caches) twice per
        alternation."""
        shutdown()
        sweep_energy_parallel(self.CFG_SMALL, workers=2)
        pool = engine_mod._pool
        sweep_energy_parallel(self.CFG_SMALL, workers=1)
        assert engine_mod._pool is pool
        assert engine_mod._pool_workers == 2

    def test_pool_growth_respawns(self):
        shutdown()
        sweep_energy_parallel(self.CFG_SMALL, workers=1)
        pool = engine_mod._pool
        sweep_energy_parallel(self.CFG_SMALL, workers=2)
        assert engine_mod._pool is not pool
        assert engine_mod._pool_workers == 2

    def test_shutdown_clears_and_is_idempotent(self):
        sweep_energy_parallel(self.CFG_SMALL, workers=1)
        assert engine_mod._pool is not None
        shutdown()
        assert engine_mod._pool is None
        assert engine_mod._pool_workers == 0
        shutdown()  # second call is a no-op
        # And the next sweep transparently respawns a pool.
        sweep = sweep_energy_parallel(self.CFG_SMALL, workers=1)
        assert sweep.energy["Co-NNT"][0, 0] > 0
        shutdown()


class TestWorkerInstrumentation:
    """Satellite regression: perf/trace recorded inside pool workers used
    to die with the worker's process-global registries — ``--perf`` on a
    parallel sweep under-reported to near zero.  Worker snapshots now
    ship back with the results and merge into the parent registries."""

    CFG = SweepConfig(ns=(50,), seeds=(0, 1), algorithms=("EOPT", "Co-NNT"))

    def _sweep_counters(self, sweep_fn, **kwargs):
        from repro.perf import perf

        perf.reset()
        perf.enable()
        try:
            sweep_fn(self.CFG, **kwargs)
            snap = perf.snapshot()
        finally:
            perf.disable()
            perf.reset()
        return snap

    def test_parallel_perf_matches_serial(self):
        from repro.perf import PEAK_RSS_COUNTER

        serial = self._sweep_counters(sweep_energy)
        parallel = self._sweep_counters(sweep_energy_parallel, workers=2)
        # Deterministic work => identical counters and timer call counts;
        # timer seconds and peak RSS are process/wall-clock observations
        # and differ by construction (RSS merges by max across workers).
        ser = dict(serial["counters"])
        par = dict(parallel["counters"])
        assert ser.pop(PEAK_RSS_COUNTER, 0) > 0
        assert par.pop(PEAK_RSS_COUNTER, 0) > 0
        assert par == ser
        assert {k: v["calls"] for k, v in parallel["timers"].items()} == {
            k: v["calls"] for k, v in serial["timers"].items()
        }

    def test_parallel_trace_ships_back_with_source_stamps(self):
        from repro.trace import trace

        trace.reset()
        trace.enable()
        try:
            sweep_energy_parallel(self.CFG, workers=2)
            events = trace.snapshot()
        finally:
            trace.disable()
            trace.reset()
        starts = [e for e in events if e["ev"] == "run_start"]
        # One run per (n, seed, algorithm) cell, arriving in task order.
        assert [e["src"] for e in starts] == [
            f"{alg}:n{n}:s{seed}"
            for n in self.CFG.ns
            for seed in self.CFG.seeds
            for alg in self.CFG.algorithms
        ]
        assert all("src" in e for e in events)
        assert [e["i"] for e in events] == list(range(len(events)))

    def test_workers_ship_nothing_when_instrumentation_off(self):
        from repro.perf import perf
        from repro.trace import trace

        sweep_energy_parallel(self.CFG, workers=2)
        assert perf.snapshot() == {"timers": {}, "counters": {}}
        assert trace.events == []


class TestAtexitCleanup:
    def test_shutdown_registered_atexit(self):
        """Satellite regression: a sweep-and-exit process must not leak
        its worker pool — shutdown() is registered with atexit."""
        import atexit

        # Python exposes no public registry; unregister() returns None
        # whether or not present, so probe by re-registering: unregister
        # then restore, asserting the module wired it at import time.
        assert getattr(parallel_mod, "atexit", None) is atexit
        # And the hook must be idempotent / callable with no pool alive.
        shutdown()
        shutdown()
        assert engine_mod._pool is None

    def test_interpreter_exit_reaps_workers(self):
        """End to end: a child interpreter that sweeps and exits without
        explicit shutdown() must still terminate promptly (the atexit
        hook joins the pool)."""
        import subprocess
        import sys

        code = (
            "from repro.experiments.config import SweepConfig\n"
            "from repro.experiments.parallel import sweep_energy_parallel\n"
            "cfg = SweepConfig(ns=(50,), seeds=(0,), algorithms=('Co-NNT',))\n"
            "sweep_energy_parallel(cfg, workers=2)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], timeout=120, capture_output=True
        )
        assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("kernel", ["fast", "legacy"])
def test_process_reports_match_serial(kernel):
    """Pool workers derive every instance from ``(n, seed)`` themselves,
    so a process batch reports byte for byte what a serial one does."""
    from repro.runspec import RunSpec, execute_batch

    specs = [
        RunSpec(algorithm=alg, n=300, seed=seed, kernel=kernel)
        for alg in ("GHS", "MGHS", "EOPT", "Co-NNT")
        for seed in (0, 1)
        if kernel == "fast" or alg != "Co-NNT"
    ]
    shutdown()
    try:
        pooled = execute_batch(specs, backend="process", workers=2)
    finally:
        shutdown()
    serial = execute_batch(specs, backend="serial")
    for a, b in zip(pooled, serial):
        assert a.to_json() == b.to_json()


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)
def test_process_batch_leaves_no_shared_memory_mapped():
    """A process batch over many distinct specs leaves no POSIX
    shared-memory segment mapped in the parent once the pool is down."""
    from repro.runspec import RunSpec, execute_batch

    specs = [RunSpec(algorithm="MGHS", n=200, seed=seed) for seed in range(12)]
    shutdown()
    execute_batch(specs, backend="process", workers=2)
    shutdown()
    with open("/proc/self/maps") as fh:
        assert [line for line in fh if "/dev/shm/" in line] == []


class TestSerialFallback:
    """Satellite regression: hosts that cannot spawn a process pool
    (sandboxed CI) degrade to the serial backend with one warning."""

    CFG = SweepConfig(ns=(50, 80), seeds=(0,), algorithms=("MGHS", "Co-NNT"))

    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):

        def no_pool(workers):
            raise OSError("spawn blocked by sandbox")

        shutdown()
        monkeypatch.setattr(engine_mod, "_executor", no_pool)
        monkeypatch.setattr(engine_mod, "_fallback_warned", False)
        with pytest.warns(RuntimeWarning, match="falling back to the serial"):
            degraded = sweep_energy_parallel(self.CFG, workers=2)
        assert engine_mod.pool_state()["serial_fallback"]
        serial = sweep_energy(self.CFG)
        for alg in self.CFG.algorithms:
            assert np.array_equal(degraded.energy[alg], serial.energy[alg])
            assert np.array_equal(degraded.messages[alg], serial.messages[alg])
            assert np.array_equal(degraded.rounds[alg], serial.rounds[alg])

    def test_fallback_warns_exactly_once_per_process(self, monkeypatch):
        """A long-lived server degrading on every request must not spam:
        the first fallback warns, later ones only flip pool_state()."""
        import warnings as warnings_mod


        def no_pool(workers):
            raise NotImplementedError("no multiprocessing primitives")

        shutdown()
        monkeypatch.setattr(engine_mod, "_executor", no_pool)
        monkeypatch.setattr(engine_mod, "_fallback_warned", False)
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            sweep_energy_parallel(self.CFG, workers=2)
            sweep_energy_parallel(self.CFG, workers=2)  # second degrade: silent
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        state = engine_mod.pool_state()
        assert state["serial_fallback"] and not state["alive"]

    def test_worker_error_still_raises(self):
        """A genuine per-run failure must NOT be silently retried serially."""
        from repro.runspec import RunSpec, execute_batch
        from repro.sim.faults import FaultPlan

        # Rand-NNT rejects fault plans inside the worker; the dispatch
        # error is an ExperimentError, which is not a pool failure.
        bad = [
            RunSpec(
                algorithm="Rand-NNT",
                n=50,
                seed=0,
                faults=FaultPlan(seed=0, drop_rate=0.5),
            )
        ]
        with pytest.raises(ExperimentError, match="no fault-recovery layer"):
            execute_batch(bad, backend="process", workers=1)
