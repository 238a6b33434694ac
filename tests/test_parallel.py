"""Tests for the process-parallel sweep executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import parallel as parallel_mod
from repro.experiments.config import SweepConfig
from repro.experiments.parallel import shutdown, sweep_energy_parallel
from repro.experiments.runner import sweep_energy

CFG = SweepConfig(ns=(50, 100), seeds=(0, 1), algorithms=("EOPT", "Co-NNT"))


def _attached_table_arrays(manifest, n, seed, radius):
    """Pool-worker side: attach ``manifest``, copy out one table's payload."""
    from repro.experiments import fabric

    fabric.attach_manifest(manifest)
    tbl = fabric._attached[("table", n, seed, float(radius))]
    return tuple(
        np.array(a) for a in (tbl.indptr_arr, tbl.ids, tbl.dists, tbl.rev)
    )


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
        pool = parallel_mod._pool
        assert pool is not None
        sweep_energy_parallel(self.CFG_SMALL, workers=2)
        assert parallel_mod._pool is pool  # same executor object reused

    def test_pool_reused_when_big_enough(self):
        """Satellite regression: a 2-worker pool serves a 1-worker batch
        fine (the extra worker idles), so shrinking the request must not
        pay a teardown/respawn — alternating wide and narrow sweeps used
        to thrash the pool (and its warm instance caches) twice per
        alternation."""
        shutdown()
        sweep_energy_parallel(self.CFG_SMALL, workers=2)
        pool = parallel_mod._pool
        sweep_energy_parallel(self.CFG_SMALL, workers=1)
        assert parallel_mod._pool is pool
        assert parallel_mod._pool_workers == 2

    def test_pool_growth_respawns(self):
        shutdown()
        sweep_energy_parallel(self.CFG_SMALL, workers=1)
        pool = parallel_mod._pool
        sweep_energy_parallel(self.CFG_SMALL, workers=2)
        assert parallel_mod._pool is not pool
        assert parallel_mod._pool_workers == 2

    def test_shutdown_clears_and_is_idempotent(self):
        sweep_energy_parallel(self.CFG_SMALL, workers=1)
        assert parallel_mod._pool is not None
        shutdown()
        assert parallel_mod._pool is None
        assert parallel_mod._pool_workers == 0
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
        assert parallel_mod._pool is None

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


class TestInstanceFabric:
    """The shared-memory instance fabric: zero-copy instance publication
    for the process backend, with per-worker rebuilds as the always-
    equivalent fallback."""

    def _specs(self, kernel="fast", n=300):
        from repro.runspec import RunSpec

        return [
            RunSpec(algorithm=alg, n=n, seed=seed, kernel=kernel)
            for alg in ("GHS", "MGHS")
            for seed in (0, 1)
        ]

    @pytest.mark.parametrize("kernel", ["fast", "legacy"])
    def test_shm_and_rebuilt_paths_identical(self, kernel, monkeypatch):
        """The fabric is a pure accelerator: reports from SHM-attached
        workers are byte-identical to per-worker-rebuilt ones — with
        staged tables (the optimized kernel) and points only (the
        reference kernel rebuilds its table path locally)."""
        from repro.experiments import fabric
        from repro.runspec import execute_batch

        specs = self._specs(kernel=kernel)
        shutdown()
        manifest = fabric.manifest_for_specs(specs)
        assert manifest is not None
        has_table = any(e["kind"] == "table" for e in manifest)
        assert has_table == (kernel == "fast")
        attached = execute_batch(specs, backend="process", workers=2)
        assert fabric.stats()["published_segments"] > 0
        shutdown()
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        assert not fabric.shm_available()
        rebuilt = execute_batch(specs, backend="process", workers=2)
        shutdown()
        for a, b in zip(attached, rebuilt):
            assert a.to_json() == b.to_json()

    def test_shutdown_unlinks_segments(self):
        """Pool shutdown releases every published OS segment: the names
        disappear and a fresh attach fails."""
        from multiprocessing import shared_memory

        from repro.experiments import fabric
        from repro.runspec import execute_batch

        shutdown()
        execute_batch(self._specs(), backend="process", workers=2)
        names = [
            pub.shm.name
            for pub in fabric._published.values()
            if hasattr(pub, "shm")
        ]
        assert names
        shutdown()
        assert fabric.stats()["published_segments"] == 0
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_pool_failure_releases_segments(self, monkeypatch):
        """The pool-failure path (worker crash, sandboxed spawn) must not
        leak segments: the serial fallback still answers, and the OS
        names are gone afterwards."""
        from repro.experiments import fabric
        from repro.runspec import engine as engine_mod
        from repro.runspec import execute_batch

        def no_pool(workers):
            raise OSError("spawn blocked")

        shutdown()
        monkeypatch.setattr(engine_mod, "_executor", no_pool)
        monkeypatch.setattr(engine_mod, "_fallback_warned", False)
        specs = self._specs()
        with pytest.warns(RuntimeWarning, match="falling back to the serial"):
            degraded = execute_batch(specs, backend="process", workers=2)
        assert fabric.stats()["published_segments"] == 0
        monkeypatch.undo()
        shutdown()
        serial = execute_batch(specs, backend="serial")
        for a, b in zip(degraded, serial):
            assert a.to_json() == b.to_json()

    def test_release_retires_adopted_views(self):
        """After release, the parent instance cache must rebuild instead
        of serving a retired shared view (use-after-unmap guard)."""
        import numpy as np

        from repro.experiments import fabric
        from repro.experiments.instances import get_points
        from repro.runspec import RunSpec

        shutdown()
        spec = RunSpec(algorithm="GHS", n=123, seed=7)
        manifest = fabric.manifest_for_specs([spec])
        if manifest is None:
            pytest.skip("shared memory unavailable on this host")
        shared = get_points(123, 7)
        fabric.release()
        rebuilt = get_points(123, 7)
        assert rebuilt is not shared
        assert np.array_equal(rebuilt, shared)

    def test_worker_attached_table_carries_rev(self):
        """A worker's attached table, ``rev`` included, equals the table a
        kernel builds in-process for the same ``(n, seed, r)``."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments import fabric
        from repro.experiments.instances import get_points
        from repro.runspec import RunSpec
        from repro.sim import SynchronousKernel

        shutdown()
        spec = RunSpec(algorithm="MGHS", n=400, seed=3)
        manifest = fabric.manifest_for_specs([spec])
        if manifest is None:
            pytest.skip("shared memory unavailable on this host")
        (entry,) = [e for e in manifest if e["kind"] == "table"]
        assert "shm_rev" in entry
        r = entry["radius"]
        # A copy of the points: the kernel builds its own table instead of
        # being served the published one by the provider hook.
        pts = np.array(get_points(400, 3))
        built = SynchronousKernel(pts, max_radius=r).neighbor_table()
        try:
            ctx = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
                got = pool.submit(
                    _attached_table_arrays, manifest, 400, 3, r
                ).result()
        finally:
            shutdown()
        want = (built.indptr_arr, built.ids, built.dists, built.rev)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def test_attach_of_missing_segment_degrades(self):
        """A worker racing an eviction just rebuilds locally."""
        from repro.experiments import fabric
        from repro.experiments.instances import get_points

        before = len(fabric._attached)
        fabric.attach_manifest(
            [{"kind": "points", "n": 50, "seed": 0, "shm": "psm_gone_gone"}]
        )
        assert len(fabric._attached) == before
        assert get_points(50, 0).shape == (50, 2)


class TestSerialFallback:
    """Satellite regression: hosts that cannot spawn a process pool
    (sandboxed CI) degrade to the serial backend with one warning."""

    CFG = SweepConfig(ns=(50, 80), seeds=(0,), algorithms=("MGHS", "Co-NNT"))

    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        from repro.runspec import engine as engine_mod

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

        from repro.runspec import engine as engine_mod

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
