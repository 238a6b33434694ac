"""Whole-round engine unit tests: chunked CSR, engagement, registry.

The end-to-end observational contract lives in
``tests/test_hotpath_equivalence.py`` (parametrized over every registered
backend).  This module pins the engine's supporting mechanisms in
isolation:

* chunked / memory-mapped CSR builds round-trip bit-identically to the
  dense builder, and the instance cache keys on the layout;
* the whole-round phase engine engages on eligible default-kernel runs
  (and only then);
* the kernel registry resolves modes, the ``turbo`` alias and
  unknown-name errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError, GraphError
from repro.geometry.points import uniform_points
from repro.perf import PEAK_RSS_COUNTER, perf
from repro.rgg import build_rgg, build_rgg_chunked, build_rgg_layout
from repro.sim import SynchronousKernel, kernel_class, kernel_names
from repro.sim.faults import FaultPlan


# -- chunked CSR round trips --------------------------------------------------


class TestChunkedCSR:
    @pytest.mark.parametrize("n,seed,r", [(500, 0, 0.08), (977, 7, 0.3)])
    def test_chunked_matches_dense(self, n, seed, r):
        pts = uniform_points(n, seed=seed)
        dense = build_rgg(pts, r)
        # Odd chunk size forces several partial blocks.
        chunked = build_rgg_chunked(pts, r, chunk_nodes=173)
        assert np.array_equal(dense.edges, chunked.edges)
        assert np.array_equal(dense.lengths, chunked.lengths)
        assert np.array_equal(dense.indptr, chunked.indptr)
        assert np.array_equal(dense.indices, chunked.indices)

    def test_memmap_spill_round_trip(self, tmp_path):
        pts = uniform_points(600, seed=4)
        dense = build_rgg(pts, 0.1)
        spilled = build_rgg_chunked(
            pts, 0.1, chunk_nodes=100, memmap_threshold_bytes=64,
            workdir=str(tmp_path),
        )
        assert isinstance(spilled.indices, np.memmap)
        assert isinstance(spilled.edges.base, np.memmap)
        assert np.array_equal(dense.indices, spilled.indices)
        assert np.array_equal(dense.edges, spilled.edges)
        assert np.array_equal(dense.lengths, spilled.lengths)
        # Scratch files are unlinked immediately: nothing left behind.
        assert list(tmp_path.iterdir()) == []

    def test_empty_and_validation(self):
        g = build_rgg_chunked(np.zeros((0, 2)), 0.1)
        assert g.n == 0 and g.m == 0
        with pytest.raises(GraphError):
            build_rgg_layout(np.zeros((0, 2)), 0.1, "warp9")
        from repro.errors import GeometryError

        with pytest.raises(GeometryError):
            build_rgg_chunked(np.zeros((4, 2)), 0.1, chunk_nodes=0)


class TestLayoutKeyedInstanceCache:
    def test_layouts_cached_separately(self):
        from repro.experiments.instances import clear_cache, get_graph

        clear_cache()
        try:
            dense = get_graph(200, 0, 0.12)
            chunked = get_graph(200, 0, 0.12, layout="chunked")
            assert dense is not chunked  # layout is part of the key
            assert get_graph(200, 0, 0.12) is dense  # hits its own entry
            assert get_graph(200, 0, 0.12, layout="chunked") is chunked
            assert np.array_equal(dense.indices, chunked.indices)
            with pytest.raises(GraphError, match="unknown instance layout"):
                get_graph(200, 0, 0.12, layout="warp9")
        finally:
            clear_cache()


# -- phase engine engagement --------------------------------------------------


class TestPhaseEngine:
    def _counters(self, **kwargs):
        from repro.algorithms.ghs import run_modified_ghs
        from repro.experiments.instances import get_points

        perf.reset()
        perf.enable()
        try:
            run_modified_ghs(get_points(300, 0), **kwargs)
            return dict(perf.counters)
        finally:
            perf.disable()
            perf.reset()

    def test_engine_engages_on_eligible_runs(self):
        counters = self._counters()
        assert counters.get("kernel.turbo_engine_rounds", 0) > 0
        assert counters.get(PEAK_RSS_COUNTER, 0) > 0  # sampled at rounds

    def test_engine_disengages_under_faults(self):
        counters = self._counters(faults=FaultPlan(seed=1, drop_rate=0.05))
        assert counters.get("kernel.turbo_engine_rounds", 0) == 0

    def test_engine_disengages_without_planes(self):
        counters = self._counters(planes=False)
        assert counters.get("kernel.turbo_engine_rounds", 0) == 0


# -- registry ----------------------------------------------------------------


class TestKernelRegistry:
    def test_canonical_modes(self):
        names = kernel_names()
        assert names[0] == "fast"  # default first
        assert names == ("fast", "legacy")  # aliases are not listed

    def test_resolution_and_alias(self):
        from repro.runspec import RunSpec

        assert kernel_class("fast") is SynchronousKernel
        assert kernel_class("turbo") is SynchronousKernel
        spec = RunSpec(algorithm="MGHS", n=500, seed=1)
        # Pinned at the last revision with a separate turbo kernel: the
        # default payload (and so every stored default spec) is unchanged.
        assert spec.spec_hash() == (
            "bc9ec8cc7dc987741ff90c8d24ece9293011cd9cbf1787957a145fe3f6c82f7c"
        )
        aliased = spec.with_(kernel="turbo")
        assert aliased.kernel == "fast"
        assert aliased == spec
        assert aliased.spec_hash() == spec.spec_hash()
        assert aliased.result_key() == spec.result_key()
        payload = dict(spec.to_dict(), kernel="turbo")  # a stored turbo spec
        assert RunSpec.from_dict(payload) == spec

    def test_unknown_mode_lists_backends(self):
        with pytest.raises(ExperimentError, match="fast") as ei:
            kernel_class("warp9")
        for name in kernel_names():
            assert name in str(ei.value)


# -- jitted sequential energy accumulation ------------------------------------


class TestSeqEnergyAccumulate:
    """The whole-round engine folds per-message energies into the ledger through
    :func:`seq_energy_accumulate`; it must be bit-identical to the scalar
    ``total += e`` loop whether or not numba is present."""

    def _reference(self, total, energies):
        total = float(total)
        for e in energies:
            total += float(e)
        return total

    def test_matches_scalar_loop_bitwise(self):
        from repro.algorithms.ghs.turbo import seq_energy_accumulate

        rng = np.random.default_rng(7)
        for size in (0, 1, 3, 100, 4097):
            energies = rng.uniform(0.0, 2.0, size=size)
            total = float(rng.uniform(0.0, 10.0))
            got = seq_energy_accumulate(total, energies)
            assert got == self._reference(total, energies)  # exact, not approx

    def test_no_numba_env_pins_report_bytes(self):
        """A subprocess with REPRO_NO_NUMBA=1 must emit the same report
        JSON as this process — the fallback path may not drift."""
        import os
        import subprocess
        import sys

        from repro.runspec import RunSpec, execute

        spec = RunSpec(algorithm="MGHS", n=250, seed=3)
        local = execute(spec).to_json(indent=None)
        code = (
            "import sys, json\n"
            "from repro.runspec import RunSpec, execute\n"
            "spec = RunSpec.from_dict(json.loads(sys.argv[1]))\n"
            "sys.stdout.write(execute(spec).to_json(indent=None))\n"
        )
        env = dict(os.environ, REPRO_NO_NUMBA="1", PYTHONPATH="src")
        out = subprocess.run(
            [sys.executable, "-c", code, spec.to_json()],
            capture_output=True, text=True, env=env, cwd=os.getcwd(), check=True,
        )
        assert out.stdout == local
