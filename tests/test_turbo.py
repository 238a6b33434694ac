"""Whole-round engine unit tests: chunked CSR, engagement, registry.

The end-to-end observational contract lives in
``tests/test_hotpath_equivalence.py`` (parametrized over every registered
backend).  This module pins the engine's supporting mechanisms in
isolation:

* chunked / memory-mapped CSR builds round-trip bit-identically to the
  dense builder, and the instance cache keys on the layout;
* the whole-round phase engine engages on eligible default-kernel runs
  (and only then); its MOE cursor agrees with ``FloodCache.moe_batch``,
  it leaves the same flood cache as the per-message phase loop, and a
  stale cache makes the run ineligible;
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


def _dyadic_lattice(side: int) -> np.ndarray:
    """``side``² points on a grid of pitch 1/(side−1): exact distance ties."""
    g = np.arange(side, dtype=float) / (side - 1)
    return np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)


def _hello_kernel(pts, r, max_radius=None):
    """Modified-mode GHS nodes after one plane HELLO at ``r``."""
    from repro.algorithms.ghs import GHSNode
    from repro.algorithms.ghs.driver import hello_round

    kernel = SynchronousKernel(pts, max_radius=max_radius or r)
    kernel.add_nodes(lambda i, ctx: GHSNode(i, ctx, use_tests=False, announce=True))
    kernel.start()
    hello_round(kernel, r)
    return kernel


class TestMoeCursor:
    """The engine's forward-only cursor finds the MOE ``moe_batch`` would."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Check every cursor search against ``moe_batch`` over the cache
        the per-message path would hold; records ``(radius, ties)`` per wake."""
        from repro.algorithms.ghs.turbo import TurboPhaseEngine

        orig = TurboPhaseEngine._cursor_moe
        wakes = []

        def cursor_moe(self, parts):
            got = orig(self, parts)
            cache = self.cache
            saved = cache.fid.copy()
            self._write_cache()
            want = cache.moe_batch(parts, self.fid[parts])
            cache.fid[:] = saved
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            # Participants whose MOE slot opens a run of exact ties.
            j = self.cur[parts]
            nxt = j + 1 < self.ann_ends[parts]
            ties = int(np.count_nonzero(
                nxt & (cache.dists[np.minimum(j + 1, len(cache.dists) - 1)]
                       == cache.dists[np.minimum(j, len(cache.dists) - 1)])
            ))
            wakes.append((self.r, ties))
            return got

        monkeypatch.setattr(TurboPhaseEngine, "_cursor_moe", cursor_moe)
        return wakes

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_uniform_mghs(self, checked, seed):
        from repro.algorithms.ghs import run_modified_ghs

        run_modified_ghs(uniform_points(800, seed=seed))
        assert len(checked) >= 3

    @pytest.mark.parametrize("seed", [1, 4])
    def test_uniform_eopt_both_steps(self, checked, seed):
        from repro.algorithms import run_eopt

        run_eopt(uniform_points(800, seed=seed))
        assert len({r for r, _ in checked}) == 2  # step 1 and step 2 radii

    def test_lattice_ties(self, checked):
        from repro.algorithms import run_eopt
        from repro.algorithms.ghs import run_modified_ghs

        pts = _dyadic_lattice(33)
        run_modified_ghs(pts)
        run_eopt(pts)
        assert sum(t for _, t in checked) > 0  # exact ties were exercised
        assert len({r for r, _ in checked}) >= 2

    def test_tied_run_with_internal_first_slot(self):
        from repro.algorithms.ghs.driver import hello_round
        from repro.algorithms.ghs.turbo import turbo_phase_engine

        # Node 2 sits at the centre of four neighbours, all at exactly 0.25.
        pts = np.array(
            [[0.25, 0.5], [0.75, 0.5], [0.5, 0.5], [0.5, 0.25], [0.5, 0.75]]
        )
        kernel = _hello_kernel(pts, 0.3)
        tbl = kernel.neighbor_table()
        s, e = tbl.indptr_arr[2], tbl.indptr_arr[3]
        assert tbl.ids[s:e].tolist() == [3, 4, 0, 1]
        assert set(tbl.dists[s:e].tolist()) == {0.25}
        # The first tied slot (3) and a later one (0) share node 2's
        # fragment: the MOE is the least (lo, hi) of 4 and 1, not the
        # slot under the cursor (4) and not the least key overall (0).
        kernel.nodes[3].fid = kernel.nodes[0].fid = 2
        hello_round(kernel, 0.3)
        eng = turbo_phase_engine(kernel, kernel.nodes)
        assert eng is not None
        parts = np.array([2])
        got = eng._cursor_moe(parts)
        assert [a.tolist() for a in got] == [[1], [0.25], [1], [2]]
        assert int(eng.cur[2]) == s + 1  # past the internal slot only
        for g, w in zip(got, eng.cache.moe_batch(parts, eng.fid[parts])):
            np.testing.assert_array_equal(g, w)


class TestEngineCache:
    """The engine derives the flood cache instead of receiving deliveries."""

    def _caches(self, monkeypatch, runner, pts, engine: bool):
        from repro.algorithms.ghs import turbo
        from repro.algorithms.ghs.plane import FloodCache

        made = []
        orig = FloodCache.ensure.__func__

        def ensure(cls, kernel):
            cache = orig(cls, kernel)
            made.append(cache)
            return cache

        with monkeypatch.context() as mp:
            mp.setattr(FloodCache, "ensure", classmethod(ensure))
            if not engine:
                mp.setattr(turbo, "turbo_phase_engine", lambda kernel, nodes: None)
            perf.reset()
            perf.enable()
            try:
                runner(pts)
                rounds = perf.counters.get("kernel.turbo_engine_rounds", 0)
            finally:
                perf.disable()
                perf.reset()
        assert (rounds > 0) == engine
        return [c for c in made if c is not None]

    @pytest.mark.parametrize("algorithm", ["MGHS", "EOPT"])
    @pytest.mark.parametrize("lattice", [False, True])
    def test_cache_matches_engine_off(self, monkeypatch, algorithm, lattice):
        from repro.algorithms import run_eopt
        from repro.algorithms.ghs import run_modified_ghs

        runner = run_modified_ghs if algorithm == "MGHS" else run_eopt
        pts = _dyadic_lattice(20) if lattice else uniform_points(600, seed=4)
        on = self._caches(monkeypatch, runner, pts, engine=True)
        off = self._caches(monkeypatch, runner, pts, engine=False)
        assert len(on) == len(off) >= 1
        for a, b in zip(on, off):
            np.testing.assert_array_equal(a.fid, b.fid)
            np.testing.assert_array_equal(a.known, b.known)

    def test_stale_slot_makes_run_ineligible(self):
        from repro.algorithms.ghs.turbo import turbo_phase_engine

        kernel = _hello_kernel(uniform_points(200, seed=2), 0.12, max_radius=0.2)
        assert turbo_phase_engine(kernel, kernel.nodes) is not None
        cache = kernel.nodes[0].cache
        inside = np.flatnonzero(cache.dists <= 0.12)
        outside = np.flatnonzero(cache.dists > 0.12)
        assert len(inside) and len(outside)
        slot = int(inside[len(inside) // 2])
        cache.fid[slot] += 1  # one in-radius slot holds a stale fid
        assert turbo_phase_engine(kernel, kernel.nodes) is None
        cache.fid[slot] -= 1
        assert turbo_phase_engine(kernel, kernel.nodes) is not None
        cache.known[int(outside[0])] = True  # heard beyond the radius
        assert turbo_phase_engine(kernel, kernel.nodes) is None

    def test_sorted_unique_matches_np_unique(self):
        from repro.algorithms.ghs.turbo import sorted_unique

        rng = np.random.default_rng(5)
        for size in (0, 1, 2, 1000, 110_000):
            keys = rng.integers(0, max(size // 3, 1), size=size, dtype=np.int64)
            got = sorted_unique(keys)
            want = np.unique(keys)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


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
