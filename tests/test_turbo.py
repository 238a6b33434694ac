"""Whole-round engine unit tests: engagement, waves, registry.

The end-to-end observational contract lives in
``tests/test_hotpath_equivalence.py`` (parametrized over every registered
backend).  This module pins the engine's supporting mechanisms in
isolation:

* the whole-round phase engine engages on eligible default-kernel runs
  (and only then); its MOE cursor agrees with ``FloodCache.moe_batch``,
  it leaves the same flood cache as the per-message phase loop, and a
  stale cache fails its entry check, which raises;
* classical GHS runs its TEST/ACCEPT/REJECT probes on the engine with
  legacy-identical traces and ``rejected`` sets, same-round probe
  deliveries in per-message order, and each slot examined O(1) times;
* the one-pass tree waves (stage A, modified-mode stage B, EOPT's size
  census and giant declaration) trace identically to the legacy kernel
  and charge its exact ordered sends, stage B leaves the wave only for
  EOPT's phases with a passive giant, and an EOPT run leaves the engine
  only for its two HELLO rounds;
* engine runs (GHS, MGHS, EOPT, MAINT) build no node object, and MAINT's
  repair cycles start the engine from the seeded forest's arrays;
* the kernel registry resolves modes, the ``turbo`` alias and
  unknown-name errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError, ProtocolError
from repro.geometry.points import uniform_points
from repro.perf import PEAK_RSS_COUNTER, perf
from repro.runspec.spec import KERNEL_MODES, kernel_class
from repro.sim import LegacyKernel, SynchronousKernel
from repro.sim.faults import FaultPlan


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

    def test_engine_runs_never_build_slot_edge_keys(self, monkeypatch):
        """The engine keys each MOE by ``min``/``max(u, ids[j])``; the
        cache's slot-sized ``lo``/``hi`` exist for the per-message path."""
        from repro.algorithms.ghs import turbo
        from repro.algorithms.ghs.plane import FloodCache

        built = []
        real = FloodCache._edge_keys

        def spy(cache):
            built.append(cache._lohi is None)
            return real(cache)

        monkeypatch.setattr(FloodCache, "_edge_keys", spy)
        assert self._counters()["kernel.turbo_engine_rounds"] > 0
        assert built == []
        # The per-message phase loop over the same planes does build them.
        monkeypatch.setattr(turbo, "engine_cache", lambda kernel: None)
        assert self._counters().get("kernel.turbo_engine_rounds", 0) == 0
        assert built and built[0]

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


def _hello_engine(pts, r, max_radius=None, *, tests=False, fid=None):
    """A fresh engine after its plane HELLO at ``r``, under power cap
    (and table radius) ``max_radius``."""
    from repro.algorithms.ghs.turbo import TurboPhaseEngine, engine_cache

    kernel = SynchronousKernel(pts, max_radius=max_radius or r)
    eng = TurboPhaseEngine(kernel, engine_cache(kernel), tests=tests, fid=fid)
    eng.hello(r)
    return eng


def _node_view(eng, i: int) -> tuple:
    """Node ``i``'s ``(fid, tree_edges, parent, children)`` read off the
    engine's arrays after a run: its children are its sorted tree row
    minus its parent (the last INITIATE flood covered its final tree)."""
    row = eng.t_adj[eng.t_indptr[i] : eng.t_indptr[i + 1]].tolist()
    p = int(eng.parent[i])
    return int(eng.fid[i]), set(row), None if p < 0 else p, tuple(e for e in row if e != p)


def _rejected_set(eng, i: int) -> set:
    """Node ``i``'s rejected neighbours, from the engine's slot mask."""
    c = eng.cache
    s, e = c.indptr[i], c.indptr[i + 1]
    return set(c.ids[s:e][eng.rejected[s:e]].tolist())


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
        # Node 2 sits at the centre of four neighbours, all at exactly 0.25.
        pts = np.array(
            [[0.25, 0.5], [0.75, 0.5], [0.5, 0.5], [0.5, 0.25], [0.5, 0.75]]
        )
        # The first tied slot (3) and a later one (0) share node 2's
        # fragment: the MOE is the least (lo, hi) of 4 and 1, not the
        # slot under the cursor (4) and not the least key overall (0).
        fid = np.arange(5)
        fid[3] = fid[0] = 2
        eng = _hello_engine(pts, 0.3, fid=fid)
        tbl = eng.tbl
        s, e = tbl.indptr_arr[2], tbl.indptr_arr[3]
        assert tbl.ids[s:e].tolist() == [3, 4, 0, 1]
        assert set(tbl.dists[s:e].tolist()) == {0.25}
        assert eng.cache_in_sync()
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
                mp.setattr(turbo, "engine_cache", lambda kernel: None)
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
        eng = _hello_engine(uniform_points(200, seed=2), 0.12, max_radius=0.2)
        assert eng.cache_in_sync()
        cache = eng.cache
        inside = np.flatnonzero(cache.dists <= 0.12)
        outside = np.flatnonzero(cache.dists > 0.12)
        assert len(inside) and len(outside)
        slot = int(inside[len(inside) // 2])
        cache.fid[slot] += 1  # one in-radius slot holds a stale fid
        assert not eng.cache_in_sync()
        with pytest.raises(ProtocolError, match="entry check"):
            eng.run(1, 100)  # no node objects to fall back to
        cache.fid[slot] -= 1
        assert eng.cache_in_sync()
        cache.known[int(outside[0])] = True  # heard beyond the radius
        assert not eng.cache_in_sync()

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
    def test_rejected_sets_and_cursor_bound(self, instance, cap):
        from repro.algorithms.ghs.driver import run_ghs_phases
        from repro.geometry.radius import PAPER_GHS_RADIUS_CONST, connectivity_radius

        lattice = instance == "lattice"
        pts = _dyadic_lattice(33) if lattice else uniform_points(800, seed=6)
        off = self._hello(pts, cap)
        phases = run_ghs_phases(off, off.nodes)  # the per-message loop
        r = connectivity_radius(len(pts), PAPER_GHS_RADIUS_CONST)
        eng = _hello_engine(pts, r, r * cap, tests=True)
        assert (eng.ann_mask is not None) == (cap > 1.0)  # walks stop at the radius
        assert eng.run(1, 100) == phases
        assert (eng.walk is not None) == lattice  # exact ties reorder the walk
        a, b = off.stats(), eng.k.stats()
        assert (a.energy_total, a.rounds, a.messages_by_kind) == (
            b.energy_total, b.rounds, b.messages_by_kind
        )
        marked = 0
        for i, a in enumerate(off.nodes):
            assert a.rejected == _rejected_set(eng, i)
            assert (a.fid, a.tree_edges, a.parent, a.children) == _node_view(eng, i)
            marked += len(a.rejected)
        assert marked > 0
        # Original mode leaves the cache as the HELLO flood wrote it.
        np.testing.assert_array_equal(off.nodes[0].cache.fid, eng.cache.fid)
        # Forward-only: each slot is examined O(1) times per run.
        assert eng.cursor_steps <= len(eng.cache.ids) + eng.cursor_wakes

    def test_ineligible_unless_fresh(self):
        from repro.geometry.radius import PAPER_GHS_RADIUS_CONST, connectivity_radius

        pts = uniform_points(200, seed=2)
        eng = _hello_engine(
            pts, connectivity_radius(200, PAPER_GHS_RADIUS_CONST), tests=True
        )
        j = int(eng.cache.indptr[0])
        nb = int(eng.cache.ids[j])
        assert eng.probes_ready()
        # The engine only starts GHS from its initial state.
        eng.rejected[j] = True
        assert not eng.probes_ready()
        eng.rejected[j] = False
        eng._add_edge(0, nb)
        assert not eng.probes_ready()
        eng.edge_u.clear()
        eng.edge_v.clear()
        assert eng.probes_ready()
        eng.cache.known[j] = False  # an in-radius neighbour never heard
        assert not eng.probes_ready()
        with pytest.raises(ProtocolError, match="entry check"):
            eng.run(1, 100)

    @pytest.mark.parametrize("test_first", [True, False])
    def test_same_round_reject_and_test(self, test_first):
        """Node 0 holds a TEST out to 1; 1's REJECT and 2's TEST reach it
        in one round.  0's next probe skips 2 only if 2's TEST came first."""
        from repro.algorithms.ghs import GHSNode
        from repro.algorithms.ghs.driver import hello_round
        from repro.algorithms.ghs.turbo import _REJECT, _TEST, _KIND_NAMES, _Emits

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
        eng = _hello_engine(pts, 0.2, tests=True, fid=np.array(fids))
        assert eng.probes_ready()
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


def _traced_run(runner, pts, **kwargs):
    """``runner(pts)`` with perf and trace on: (result, events, counters)."""
    from repro.trace import trace

    perf.reset()
    perf.enable()
    trace.reset()
    trace.enable()
    try:
        res = runner(pts, **kwargs)
        return res, trace.snapshot(), dict(perf.counters)
    finally:
        trace.disable()
        trace.reset()
        perf.disable()
        perf.reset()


class TestTreeWaves:
    """Stage A, modified-mode stage B, EOPT's size census and its giant
    declaration, each run as one array pass over the fragment forest,
    match the per-message path."""

    @staticmethod
    def _assert_like_legacy(runner, pts):
        from repro.trace.diff import diff_traces, format_divergence

        legacy, lt, _ = _traced_run(runner, pts, kernel_cls=LegacyKernel)
        fast, ft, counters = _traced_run(runner, pts)
        assert counters.get("kernel.turbo_engine_rounds", 0) > 0
        d = diff_traces(lt, ft)
        assert d is None, format_divergence(d, "legacy", "fast")
        a, b = legacy.stats, fast.stats
        assert (a.energy_total, a.messages_total, a.rounds) == (
            b.energy_total, b.messages_total, b.rounds
        )
        assert a.messages_by_kind == b.messages_by_kind
        assert a.messages_by_stage == b.messages_by_stage
        assert np.array_equal(fast.tree_edges, legacy.tree_edges)
        return legacy, fast

    @pytest.mark.parametrize("algorithm", ["MGHS", "EOPT"])
    @pytest.mark.parametrize("instance", ["u600", "u2000", "lattice33"])
    def test_stage_a_trace_identical_to_legacy(self, monkeypatch, algorithm, instance):
        from repro.algorithms import run_eopt
        from repro.algorithms.ghs import run_modified_ghs, turbo

        # Per stage-A wave: did its deepest level announce (one extra
        # round), and did it flood without any ANNOUNCE?
        seen = {"extra": 0, "silent": 0}
        orig = turbo.TurboPhaseEngine._wave

        def wave(self, rnd, snd, intra, kind, dist, weight):
            ini = rnd[kind == turbo._INITIATE]
            ann = rnd[kind == turbo._ANNOUNCE]
            if len(ann) and ann.max() > (ini.max() if len(ini) else -1):
                seen["extra"] += 1
            if len(ini) and not len(ann) and not (kind > turbo._ANNOUNCE).any():
                seen["silent"] += 1
            return orig(self, rnd, snd, intra, kind, dist, weight)

        monkeypatch.setattr(turbo.TurboPhaseEngine, "_wave", wave)
        lattice = instance == "lattice33"
        pts = _dyadic_lattice(33) if lattice else uniform_points(int(instance[1:]), seed=3)
        runner = run_modified_ghs if algorithm == "MGHS" else run_eopt
        self._assert_like_legacy(runner, pts)
        assert seen["extra"] > 0
        if algorithm == "EOPT" and not lattice:
            # Step 2 re-activates step-1 fragments under their own ids.
            assert seen["silent"] > 0

    def test_census_and_giant_match_legacy(self, monkeypatch):
        from repro.algorithms import run_eopt
        from repro.algorithms.ghs import turbo

        sizes = []
        orig = turbo.TurboPhaseEngine.census

        def census(self):
            leaders, got = orig(self)
            sizes.append(got.tolist())
            return leaders, got

        monkeypatch.setattr(turbo.TurboPhaseEngine, "census", census)
        no_giant = demoted = childless = 0
        for n, seed in [(8, 5), (8, 9), (30, 2), (200, 0), (400, 4)]:
            sizes.clear()
            _, fast = self._assert_like_legacy(run_eopt, uniform_points(n, seed=seed))
            assert len(sizes) == 1 and sum(sizes[0]) == n  # on the engine
            assert fast.extras["giant_found"] == any(
                s > fast.extras["size_threshold"] for s in sizes[0]
            )
            no_giant += not fast.extras["giant_found"]
            demoted += fast.extras["giants_demoted"] > 0
            childless += 1 in sizes[0]  # a leader that sends nothing
        assert no_giant and demoted and childless

    def test_only_hello_rounds_leave_the_engine(self):
        from repro.algorithms import run_eopt

        res, events, counters = _traced_run(run_eopt, uniform_points(2000, seed=5))
        stages = [(e["round"], e["stage"]) for e in events if e["ev"] == "stage"]
        ends = [r for r, _ in stages[1:]] + [res.stats.rounds]
        per_stage = {s: end - r for (r, s), end in zip(stages, ends)}
        hello = per_stage["step1:hello"] + per_stage["step2:hello"]
        assert per_stage["step2:size"] > 0  # census and giant waves ran
        assert counters["kernel.rounds"] == res.stats.rounds
        assert counters["kernel.rounds"] - counters["kernel.turbo_engine_rounds"] == hello


    @pytest.mark.parametrize("algorithm", ["MGHS", "EOPT", "MAINT"])
    @pytest.mark.parametrize("instance", ["u600", "lattice33"])
    def test_wave_charge_order_matches_legacy(self, monkeypatch, algorithm, instance):
        """Every tree wave charges the per-message kernel's exact ordered
        ``(sender, kind, energy)`` sequence, so the order of one sender's
        sends is pinned — ``energy_total`` alone may not see a reorder.
        ``MAINT`` is its repair cycle, which starts from a seeded forest."""
        from repro.algorithms import run_eopt
        from repro.algorithms.ghs import run_modified_ghs, turbo
        from repro.applications import maintenance
        from repro.mst.delaunay import euclidean_mst
        from repro.sim.energy import EnergyLedger

        # Legacy side: every charge in order, and the charge count at each
        # round boundary (``marks[r]`` = charges made before round ``r``).
        charges, marks = [], [0]
        ledger_charge = EnergyLedger.charge
        advance = SynchronousKernel._advance_round

        def charge(self, node, kind, stage, energy):
            charges.append((node, kind, energy))
            ledger_charge(self, node, kind, stage, energy)

        def advance_round(self, delivered):
            advance(self, delivered)
            if type(self) is LegacyKernel:
                marks.append(len(charges))

        # Engine side: each wave's charges, with its first and end round.
        waves = []
        wave_fn = turbo.TurboPhaseEngine._wave
        charge_fn = turbo.TurboPhaseEngine._charge

        def wave(self, *args, **kwargs):
            r0, self._log = self.k.rounds, []
            wave_fn(self, *args, **kwargs)
            waves.append((r0, self.k.rounds, self._log))
            self._log = None

        def eng_charge(self, node, kind, energies):
            log = getattr(self, "_log", None)
            if log is not None:
                names = [turbo._KIND_NAMES[k] for k in kind.tolist()]
                log.extend(zip(node.tolist(), names, energies.tolist()))
            return charge_fn(self, node, kind, energies)

        monkeypatch.setattr(EnergyLedger, "charge", charge)
        monkeypatch.setattr(SynchronousKernel, "_advance_round", advance_round)
        monkeypatch.setattr(turbo.TurboPhaseEngine, "_wave", wave)
        monkeypatch.setattr(turbo.TurboPhaseEngine, "_charge", eng_charge)
        pts = _dyadic_lattice(33) if instance == "lattice33" else uniform_points(600, seed=3)
        if algorithm == "MAINT":
            tree, _ = euclidean_mst(pts)
            failed = np.arange(0, len(pts), 25)

            def runner(pts, kernel_cls=SynchronousKernel):
                # The repair cycle builds its own kernel: swap its class.
                monkeypatch.setattr(maintenance, "SynchronousKernel", kernel_cls)
                res = maintenance.repair_after_failures(pts, tree, failed)
                assert 1 < res.extras["initial_fragments"] < res.n
        else:
            runner = run_modified_ghs if algorithm == "MGHS" else run_eopt
        runner(pts, kernel_cls=LegacyKernel)
        runner(pts)
        kinds = {kind for _, _, log in waves for _, kind, _ in log}
        assert {"INITIATE", "ANNOUNCE"} <= kinds
        assert {"REPORT", "CONNECT"} <= kinds  # stage B
        if instance == "u600":
            assert "CHANGEROOT" in kinds
        if algorithm == "EOPT":
            assert {"SIZE_REQ", "SIZE_RESP", "GIANT"} <= kinds
        for r0, r1, log in waves:
            assert log == charges[marks[r0] : marks[r1]], (r0, r1)

    @pytest.mark.parametrize("algorithm", ["MGHS", "MAINT", "EOPT"])
    def test_round_loop_only_with_passive_nodes(self, monkeypatch, algorithm):
        """Modified-mode stage B runs as one wave per phase: the round
        loop never runs in MGHS or MAINT runs, and in EOPT runs only in
        the phases after ``declare_giant`` (whose ABSORBs depend on
        delivery order)."""
        from repro.algorithms import run_eopt
        from repro.algorithms.ghs import run_modified_ghs, turbo
        from repro.applications.maintenance import run_maintenance
        from repro.scenario.mobility import churn_plan

        calls = {"wave": 0, "loop": 0, "loop_before_giant": 0}
        eng = turbo.TurboPhaseEngine
        wave, loop, giant = eng._stage_b_wave, eng._stage_b_rounds, eng.declare_giant

        def stage_b_wave(self, *args):
            calls["wave"] += 1
            return wave(self, *args)

        def stage_b_rounds(self):
            calls["loop"] += 1
            calls["loop_before_giant"] += not getattr(self, "_giant", False)
            return loop(self)

        def declare_giant(self, g):
            self._giant = True
            return giant(self, g)

        monkeypatch.setattr(eng, "_stage_b_wave", stage_b_wave)
        monkeypatch.setattr(eng, "_stage_b_rounds", stage_b_rounds)
        monkeypatch.setattr(eng, "declare_giant", declare_giant)
        pts = uniform_points(600, seed=3)
        if algorithm == "MGHS":
            run_modified_ghs(pts)
        elif algorithm == "MAINT":
            plan = churn_plan(len(pts), seed=5, crashes_per_cycle=6, transient_rate=0.0)
            run_maintenance(pts, scenario=plan)
        else:
            res = run_eopt(pts)
            assert res.extras["giant_found"]
        assert calls["wave"] > 0
        assert calls["loop_before_giant"] == 0
        assert (calls["loop"] > 0) == (algorithm == "EOPT")

    def test_disconnected_instance_matches_legacy(self, monkeypatch):
        """A hand-placed instance whose fragments halt at different
        phases: an isolated node (halts in phase 1), a pair out of range
        of the rest (merges in phase 1, halts in phase 2 while a random
        cluster still merges) and an exact-tie lattice patch."""
        from functools import partial

        from repro.algorithms.ghs import run_ghs, run_modified_ghs, turbo

        r = 0.1
        iso = [[0.95, 0.05]]
        pair = [[0.05, 0.95], [0.09, 0.93]]
        cloud = 0.6 + 0.3 * np.random.default_rng(7).random((40, 2))
        g = np.arange(5) / 16 + 1 / 16  # pitch 1/16 < r < 2/16: dyadic ties
        patch = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        pts = np.concatenate((iso, pair, cloud, patch))
        # Per stage-B wave: the roots it halted and the CONNECTs it sent.
        phases = []
        orig = turbo.TurboPhaseEngine._stage_b_wave

        def stage_b_wave(self, parts, forest):
            halted = self.halted.copy()
            mbk = self.k._ledger.messages_by_kind
            sent = mbk.get("CONNECT", 0)
            orig(self, parts, forest)
            new = np.flatnonzero(self.halted & ~halted).tolist()
            phases.append((new, mbk.get("CONNECT", 0) - sent))

        monkeypatch.setattr(turbo.TurboPhaseEngine, "_stage_b_wave", stage_b_wave)
        for runner in (run_modified_ghs, run_ghs):
            _, fast = self._assert_like_legacy(partial(runner, radius=r), pts)
            assert fast.extras["n_fragments_final"] == 4
        assert 0 in phases[0][0]  # the isolated node
        assert 2 not in phases[0][0] and 2 in phases[1][0]  # the pair's leader
        assert phases[1][1] > 0  # ... halts while the cluster merges


class TestArrayEntry:
    """Engine runs keep the protocol state in arrays from HELLO to result."""

    @staticmethod
    def _count_nodes(monkeypatch):
        from repro.algorithms.ghs import GHSNode

        made = [0]
        init = GHSNode.__init__

        def counting_init(self, *args, **kwargs):
            made[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(GHSNode, "__init__", counting_init)
        return made

    @pytest.mark.parametrize("algorithm", ["GHS", "MGHS", "EOPT", "MAINT"])
    def test_engine_runs_build_no_nodes(self, monkeypatch, algorithm):
        from repro.runspec import RunSpec, execute
        from repro.scenario.mobility import churn_plan

        made = self._count_nodes(monkeypatch)
        n = 400
        extra = {}
        if algorithm == "MAINT":
            extra["scenario"] = churn_plan(n, seed=2, transient_rate=0.0)
        perf.reset()
        perf.enable()
        try:
            execute(RunSpec(algorithm=algorithm, n=n, seed=1, **extra))
            engine_rounds = perf.counters.get("kernel.turbo_engine_rounds", 0)
        finally:
            perf.disable()
            perf.reset()
        assert engine_rounds > 0
        assert made[0] == 0
        execute(RunSpec(algorithm=algorithm, n=n, seed=1, kernel="legacy", **extra))
        if algorithm == "MAINT":
            assert made[0] > n  # one node set per cycle
        else:
            assert made[0] == n

    @pytest.mark.parametrize("instance", ["u600", "lattice33"])
    def test_maint_repair_matches_legacy(self, instance):
        """Repair cycles start the engine from a seeded forest's arrays."""
        from repro.applications.maintenance import run_maintenance
        from repro.scenario.mobility import churn_plan
        from repro.trace.diff import diff_traces, format_divergence

        pts = _dyadic_lattice(33) if instance == "lattice33" else uniform_points(600, seed=3)
        plan = churn_plan(len(pts), seed=5, crashes_per_cycle=6, transient_rate=0.0)
        legacy, lt, _ = _traced_run(run_maintenance, pts, scenario=plan, kernel_cls=LegacyKernel)
        fast, ft, counters = _traced_run(run_maintenance, pts, scenario=plan)
        assert counters.get("kernel.turbo_engine_rounds", 0) > 0
        d = diff_traces(lt, ft)
        assert d is None, format_divergence(d, "legacy", "fast")
        a, b = legacy.stats, fast.stats
        assert (a.energy_total, a.messages_total, a.rounds) == (
            b.energy_total, b.messages_total, b.rounds
        )
        assert a.messages_by_kind == b.messages_by_kind
        assert np.array_equal(fast.tree_edges, legacy.tree_edges)
        assert fast.extras["cycles"] == legacy.extras["cycles"]
        repairs = [c for c in fast.extras["cycles"] if c["kind"] == "repair"]
        # Seeded: the survivors start as fewer fragments than nodes.
        assert repairs and all(1 < c["initial_fragments"] < c["alive"] for c in repairs)

    def test_seeded_forest_matches_union_find(self):
        from repro.algorithms.ghs.driver import seeded_forest
        from repro.ds.unionfind import UnionFind

        rng = np.random.default_rng(3)
        m = 300
        parent = rng.integers(0, np.arange(1, m), size=m - 1)
        edges = np.stack((np.arange(1, m), parent), axis=1)
        edges = edges[rng.random(m - 1) < 0.7]  # a forest, many trees
        fid, leader, out = seeded_forest(m, edges)
        uf = UnionFind(m)
        for u, v in edges.tolist():
            uf.union(u, v)
        top: dict[int, int] = {}
        for i in range(m):
            top[uf.find(i)] = max(top.get(uf.find(i), -1), i)
        assert fid.tolist() == [top[uf.find(i)] for i in range(m)]
        assert leader.tolist() == [top[uf.find(i)] == i for i in range(m)]
        assert np.array_equal(out, edges)

    def test_broken_invariant_raises(self):
        from repro.algorithms.ghs.turbo import TurboPhaseEngine

        pts = uniform_points(200, seed=4)
        eng = _hello_engine(pts, 0.15)
        eng.fid[7] = 8  # a fragment-id change the cache never heard
        with pytest.raises(ProtocolError, match="entry check"):
            eng.run(1, 100)
        with pytest.raises(ProtocolError, match="no flood cache"):
            TurboPhaseEngine(LegacyKernel(pts, max_radius=0.15), None, tests=False).hello(0.15)

    def test_fragment_histogram(self):
        from repro.algorithms.ghs.driver import fragment_histogram

        fid = np.array([4, 4, 1, 9, 9, 9, 2, 4, 7])
        assert fragment_histogram(fid) == (5, [[1, 3], [3, 2]])
        count, sizes = fragment_histogram(np.arange(3))
        assert (count, sizes) == (3, [[1, 3]])
        assert all(type(x) is int for row in sizes for x in row)


# -- registry ----------------------------------------------------------------


class TestKernelRegistry:
    def test_canonical_modes(self):
        names = KERNEL_MODES
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
        for name in KERNEL_MODES:
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
