"""Whole-round engine unit tests: chunked CSR, engagement, registry.

The end-to-end observational contract lives in
``tests/test_hotpath_equivalence.py`` (parametrized over every registered
backend).  This module pins the engine's supporting mechanisms in
isolation:

* chunked / memory-mapped CSR builds round-trip bit-identically to the
  dense builder;
* the whole-round phase engine engages on eligible default-kernel runs
  (and only then); its MOE cursor agrees with ``FloodCache.moe_batch``,
  it leaves the same flood cache as the per-message phase loop, and a
  stale cache makes the run ineligible;
* classical GHS runs its TEST/ACCEPT/REJECT probes on the engine with
  legacy-identical traces and ``rejected`` sets, same-round probe
  deliveries in per-message order, and each slot examined O(1) times;
* the kernel registry resolves modes, the ``turbo`` alias and
  unknown-name errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.geometry.points import uniform_points
from repro.perf import PEAK_RSS_COUNTER, perf
from repro.rgg import build_rgg, build_rgg_chunked
from repro.sim import LegacyKernel, SynchronousKernel, kernel_class, kernel_names
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
        from repro.errors import GeometryError

        with pytest.raises(GeometryError):
            build_rgg_chunked(np.zeros((4, 2)), 0.1, chunk_nodes=0)


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
        # The legacy kernel never runs flood planes.
        counters = self._counters(kernel_cls=LegacyKernel)
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


class TestOriginalMode:
    """Classical GHS (TEST/ACCEPT/REJECT probes) on the whole-round engine."""

    @staticmethod
    def _traced(pts, **kwargs):
        from repro.algorithms.ghs import run_ghs
        from repro.trace import trace

        perf.reset()
        perf.enable()
        trace.reset()
        trace.enable()
        try:
            res = run_ghs(pts, **kwargs)
            rounds = perf.counters.get("kernel.turbo_engine_rounds", 0)
            return res, trace.snapshot(), rounds
        finally:
            trace.disable()
            trace.reset()
            perf.disable()
            perf.reset()

    @pytest.mark.parametrize("instance", ["u600", "u2000", "lattice33"])
    def test_trace_identical_to_legacy(self, instance):
        from repro.trace.diff import diff_traces, format_divergence

        if instance == "lattice33":
            pts = _dyadic_lattice(33)
        else:
            pts = uniform_points(int(instance[1:]), seed=3)
        legacy, lt, _ = self._traced(pts, kernel_cls=LegacyKernel)
        fast, ft, engine_rounds = self._traced(pts)
        assert engine_rounds > 0
        d = diff_traces(lt, ft)
        assert d is None, format_divergence(d, "legacy", "fast")
        assert fast.stats.energy_total == legacy.stats.energy_total
        assert fast.stats.messages_by_kind == legacy.stats.messages_by_kind
        assert fast.stats.messages_by_kind["REJECT"] > 0
        assert np.array_equal(fast.tree_edges, legacy.tree_edges)

    @staticmethod
    def _hello(pts, cap: float):
        """GHS nodes after a plane HELLO at the connectivity radius, under
        a power cap (and table) ``cap`` times wider."""
        from repro.algorithms.ghs import GHSNode
        from repro.algorithms.ghs.driver import hello_round
        from repro.geometry.radius import PAPER_GHS_RADIUS_CONST, connectivity_radius

        r = connectivity_radius(len(pts), PAPER_GHS_RADIUS_CONST)
        kernel = SynchronousKernel(pts, max_radius=r * cap)
        kernel.add_nodes(lambda i, ctx: GHSNode(i, ctx, use_tests=True, announce=False))
        kernel.start()
        hello_round(kernel, r)
        return kernel

    @pytest.mark.parametrize(
        "instance, cap", [("uniform", 1.0), ("lattice", 1.0), ("uniform", 1.3)]
    )
    def test_rejected_sets_and_cursor_bound(self, monkeypatch, instance, cap):
        from repro.algorithms.ghs import turbo
        from repro.algorithms.ghs.driver import run_ghs_phases

        lattice = instance == "lattice"
        pts = _dyadic_lattice(33) if lattice else uniform_points(800, seed=6)
        off = self._hello(pts, cap)
        with monkeypatch.context() as mp:
            mp.setattr(turbo, "turbo_phase_engine", lambda kernel, nodes: None)
            phases = run_ghs_phases(off, off.nodes)
        on = self._hello(pts, cap)
        eng = turbo.turbo_phase_engine(on, on.nodes)
        assert eng is not None
        assert (eng.ann_mask is not None) == (cap > 1.0)  # walks stop at the radius
        assert eng.run(1, 100) == phases
        assert (eng.walk is not None) == lattice  # exact ties reorder the walk
        a, b = off.stats(), on.stats()
        assert (a.energy_total, a.rounds, a.messages_by_kind) == (
            b.energy_total, b.rounds, b.messages_by_kind
        )
        marked = 0
        for a, b in zip(off.nodes, on.nodes):
            assert a.rejected == b.rejected
            assert (a.fid, a.tree_edges, a.parent, a.children) == (
                b.fid, b.tree_edges, b.parent, b.children
            )
            marked += len(a.rejected)
        assert marked > 0
        # Original mode leaves the cache as the HELLO flood wrote it.
        np.testing.assert_array_equal(off.nodes[0].cache.fid, on.nodes[0].cache.fid)
        # Forward-only: each slot is examined O(1) times per run.
        assert eng.cursor_steps <= len(eng.cache.ids) + eng.cursor_wakes

    def test_ineligible_unless_fresh(self):
        from repro.algorithms.ghs.turbo import turbo_phase_engine

        kernel = self._hello(uniform_points(200, seed=2), 1.0)
        nd = kernel.nodes[0]
        nb = int(nd.nb_ids[0])
        assert turbo_phase_engine(kernel, kernel.nodes) is not None
        for held in (nd.rejected, nd.tree_edges):
            held.add(nb)  # the engine only starts GHS from its initial state
            assert turbo_phase_engine(kernel, kernel.nodes) is None
            held.clear()
        nd.cache.known[0] = False  # an in-radius neighbour never heard
        assert turbo_phase_engine(kernel, kernel.nodes) is None

    @pytest.mark.parametrize("test_first", [True, False])
    def test_same_round_reject_and_test(self, test_first):
        """Node 0 holds a TEST out to 1; 1's REJECT and 2's TEST reach it
        in one round.  0's next probe skips 2 only if 2's TEST came first."""
        from repro.algorithms.ghs import GHSNode
        from repro.algorithms.ghs.driver import hello_round
        from repro.algorithms.ghs.turbo import (
            _REJECT, _TEST, _KIND_NAMES, _Emits, turbo_phase_engine,
        )

        pts = np.array([[0.5, 0.5], [0.55, 0.5], [0.5, 0.57], [0.41, 0.5]])
        fids = [0, 0, 0, 3]  # 0, 1 and 2 share a fragment; 3 is outside
        q_test, q_rej = (5, 7) if test_first else (7, 5)

        def kernel():
            k = SynchronousKernel(pts, max_radius=0.2)
            k.add_nodes(lambda i, ctx: GHSNode(i, ctx, use_tests=True, announce=False))
            k.start()
            hello_round(k, 0.2)
            for nd, f in zip(k.nodes, fids):
                nd.fid = f
            return k

        # Per-message handlers, in seq order.
        k = kernel()
        nd = k.nodes[0]
        assert nd.nb_ids.tolist() == [1, 2, 3]  # by distance
        nd._reset_phase(1)
        nd._test_queue, nd._test_idx = [1, 2, 3], 1  # TEST to 1 in flight
        msgs = [(q_rej, "REJECT", 1, ()), (q_test, "TEST", 2, (0,))]
        for _, kind, src, payload in sorted(msgs):
            nd._dispatch(kind, src, payload, nd._dist_to(src))
        want = [(m.kind, dst) for dst, m, _, _ in k._uni]

        # The engine, from the same state.
        k = kernel()
        eng = turbo_phase_engine(k, k.nodes)
        assert eng is not None
        ip = eng.cache.indptr
        eng.cur[0] = ip[0]  # cursor on the slot of 1
        w_slot = int(ip[2] + eng.cache.ids[ip[2] : ip[3]].tolist().index(0))
        rows = sorted(
            [(0, q_rej, 1, _REJECT, 0, 0), (0, q_test, 2, _TEST, w_slot, 0)],
            key=lambda t: t[1],
        )
        em = _Emits()
        eng._proc_probes(em, tuple(np.array(c) for c in zip(*rows)))
        cols = em.columns()
        got = [(_KIND_NAMES[kd], int(d)) for kd, d in zip(cols[4], cols[6])]

        assert got == want
        if test_first:  # 2 is marked before 0 walks on: 0 skips it
            assert want == [("REJECT", 2), ("TEST", 3)]
        else:  # 0 walks on to 2, then rejects 2's probe
            assert want == [("TEST", 2), ("REJECT", 2)]
        row = eng.cache.ids[ip[0] : ip[1]]
        assert set(row[eng.rejected[ip[0] : ip[1]]].tolist()) == nd.rejected == {1, 2}


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
