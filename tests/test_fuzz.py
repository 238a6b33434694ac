"""Fuzz subsystem tests: harness fidelity, worlds, corpus, machines.

The load-bearing property is harness fidelity: :class:`repro.fuzz.
harness.StepHarness` steps the production driver's generators round
by round, and everything the fuzzer concludes rests on that stepping
being *bit-identical* to the runner — same tree, same stats, same
rounds, clean and faulted alike.  The corpus tests replay every
checked-in counterexample (``tests/corpus/``) so a fixed bug stays
fixed; the machine tests give the hypothesis layer a tiny deterministic
budget as an import-to-teardown smoke.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms.ghs import run_ghs, run_modified_ghs
from repro.errors import ProtocolError
from repro.experiments.instances import get_points
from repro.fuzz.corpus import (
    iter_corpus,
    load_scenario,
    replay_scenario,
    save_scenario,
)
from repro.fuzz.connt_world import ConntRetryWorld
from repro.fuzz.harness import StepHarness
from repro.fuzz.recorder import RecordingFaultPlane, verify_fate_determinism
from repro.fuzz.retry_world import RetryFuzzWorld
from repro.fuzz.world import GHSFuzzWorld, default_configs
from repro.geometry.radius import connectivity_radius
from repro.mst.quality import same_tree
from repro.sim import LegacyKernel
from repro.sim.faults import FaultPlan

CORPUS_DIR = "tests/corpus"

FAULTED = FaultPlan(seed=5, drop_rate=0.2, dup_rate=0.1)


def _stats_key(stats):
    return (
        stats.energy_total,
        stats.messages_total,
        stats.rounds,
        stats.messages_by_kind,
        stats.energy_by_kind,
    )


class TestHarnessFidelity:
    """StepHarness must reproduce the production runner bit for bit."""

    @pytest.mark.parametrize("faults", [None, FAULTED], ids=["clean", "faulted"])
    def test_matches_modified_ghs(self, faults):
        pts = get_points(40, 3)
        r = connectivity_radius(40)
        # Clean, the legacy kernel keeps the runner on the per-message
        # phase loop the harness steps (the whole-round engine would
        # reassociate the energy breakdowns) and charges in the same
        # order, so the comparison is bit for bit.  Faulted, the default
        # run takes that loop itself; the legacy kernel then matches the
        # headline stats, but its per-message HELLO re-floods sum the
        # HELLO breakdown in another order.
        legacy = run_modified_ghs(pts, radius=r, faults=faults, kernel_cls=LegacyKernel)
        ref = legacy if faults is None else run_modified_ghs(pts, radius=r, faults=faults)
        h = StepHarness(pts, radius=r, faults=faults)
        h.run_to_completion()
        edges, stats = h.result()
        assert same_tree(edges, ref.tree_edges)
        assert _stats_key(stats) == _stats_key(ref.stats)
        assert _stats_key(stats)[:4] == _stats_key(legacy.stats)[:4]

    def test_matches_original_ghs(self):
        pts = get_points(30, 1)
        r = connectivity_radius(30)
        ref = run_ghs(pts, radius=r, faults=FAULTED)
        h = StepHarness(pts, radius=r, use_tests=True, faults=FAULTED)
        h.run_to_completion()
        edges, stats = h.result()
        assert same_tree(edges, ref.tree_edges)
        assert _stats_key(stats) == _stats_key(ref.stats)

    def test_partial_advance_is_invariant(self):
        """Chunking the schedule must not change anything observable."""
        pts = get_points(30, 2)
        r = connectivity_radius(30)
        whole = StepHarness(pts, radius=r, faults=FAULTED)
        whole.run_to_completion()
        chunked = StepHarness(pts, radius=r, faults=FAULTED)
        step = 1
        while not chunked.finished:
            chunked.advance(step)
            step = (step % 7) + 1  # 1,2,...,7,1,... — deliberately ragged
        we, ws = whole.result()
        ce, cs = chunked.result()
        assert same_tree(we, ce)
        assert _stats_key(ws) == _stats_key(cs)
        assert whole.barriers == chunked.barriers

    def test_advance_reports_rounds_run(self):
        pts = get_points(24, 0)
        h = StepHarness(pts, radius=connectivity_radius(24))
        assert h.advance(5) == 5
        assert h.rounds == 5
        h.run_to_completion()
        assert h.advance(5) == 0  # finished: nothing left to run

    def test_cap_below_radius_rejected(self):
        pts = get_points(24, 0)
        r = connectivity_radius(24)
        h = StepHarness(pts, radius=r, max_radius=r * 1.2)
        with pytest.raises(ProtocolError):
            h.set_cap(r * 0.5)

    def test_result_before_finish_rejected(self):
        pts = get_points(24, 0)
        h = StepHarness(pts, radius=connectivity_radius(24))
        with pytest.raises(ProtocolError):
            h.result()


class TestGHSFuzzWorld:
    def test_clean_world_finishes_aligned(self):
        w = GHSFuzzWorld(n=16, seed=0)
        assert len(w.harnesses) == len(default_configs()) == 2
        w.advance(25)
        w.finish()
        assert w.finished and not w.failed

    def test_clean_ghs_world_cross_checks_engine(self, monkeypatch):
        calls = []
        orig = GHSFuzzWorld.engine_result

        def engine_result(self):
            calls.append(self.algorithm)
            return orig(self)

        monkeypatch.setattr(GHSFuzzWorld, "engine_result", engine_result)
        w = GHSFuzzWorld(n=40, seed=5, algorithm="GHS")
        w.advance(30)
        w.finish()
        assert w.finished and not w.failed
        assert calls == ["GHS"]
        # Faulted and cap-moving worlds stay off the engine cross-check.
        faulted = GHSFuzzWorld(n=16, seed=2, algorithm="GHS", drop_rate=0.1, fault_seed=3)
        faulted.finish()
        w = GHSFuzzWorld(n=16, seed=2, algorithm="GHS", cap_slack=1.25)
        w.set_cap(0.5)
        w.finish()
        assert calls == ["GHS"]

    def test_engine_divergence_is_reported(self, monkeypatch):
        w = GHSFuzzWorld(n=24, seed=1, algorithm="GHS")
        import dataclasses

        edges, stats = w.engine_result()
        stats = dataclasses.replace(stats, messages_total=stats.messages_total + 1)
        monkeypatch.setattr(GHSFuzzWorld, "engine_result", lambda self: (edges, stats))
        with pytest.raises(ProtocolError, match=r"vs engine\): messages_total"):
            w.finish()

    def test_faulted_world_with_midrun_crash(self):
        w = GHSFuzzWorld(
            n=18, seed=1, drop_rate=0.15, dup_rate=0.1, fault_seed=9, cap_slack=1.25
        )
        w.advance(20)
        start = w.crash(5, 10)
        assert start == 20
        w.set_cap(0.5)
        w.finish()
        assert w.finished
        # Mid-run windows become ordinary plan entries in the artifacts.
        plan = w.effective_plan()
        assert (5, 20, 30) in plan.crashes
        assert w.to_runspec().faults == plan

    def test_dead_node_excluded_from_oracle(self):
        w = GHSFuzzWorld(n=16, seed=2, drop_rate=0.1, dead_nodes=(4,), fault_seed=2)
        w.finish()
        assert w.finished
        assert all(4 not in edge for edge in map(tuple, w.oracle_forest()))

    def test_crash_rules_validated(self):
        w = GHSFuzzWorld(n=14, seed=0)
        with pytest.raises(ProtocolError):
            w.crash(3, 5)  # null plan: crash plane never compiled
        w2 = GHSFuzzWorld(n=14, seed=0, drop_rate=0.1, fault_seed=1)
        w2.crash(3, 5)
        with pytest.raises(ProtocolError):
            w2.crash(3, 5)  # one window per node

    def test_scenario_roundtrip_replays(self):
        w = GHSFuzzWorld(n=16, seed=3, drop_rate=0.15, fault_seed=4)
        w.advance(15)
        w.crash(2, 8)
        w.finish()
        replayed = replay_scenario(w.to_scenario())
        assert replayed.finished and not replayed.failed

    def test_replay_drift_detected(self):
        w = GHSFuzzWorld(n=16, seed=3, drop_rate=0.15, fault_seed=4)
        w.advance(15)
        w.crash(2, 8)
        scenario = w.to_scenario()
        # Tamper with the schedule: the crash now opens at a different
        # round than recorded, which must fail loudly instead of quietly
        # fuzzing a different world.
        assert scenario["ops"][0] == ["advance", 15]
        scenario["ops"][0] = ["advance", 14]
        with pytest.raises(ProtocolError, match="drift"):
            replay_scenario(scenario)


class TestRetryFuzzWorld:
    def test_clean_send_and_drain(self):
        w = RetryFuzzWorld(n=6)
        w.send(0, 1)
        w.send(4, 2)
        w.run_rounds(3)
        w.drain()
        assert w.drained
        assert (0, 0) in w.nodes[1].delivered
        assert (4, 1) in w.nodes[2].delivered

    def test_lossy_world_meets_contract(self):
        w = RetryFuzzWorld(n=6, fault_seed=7, drop_rate=0.3, dup_rate=0.2)
        for src, dst in [(0, 2), (3, 1), (5, 4), (2, 0)]:
            w.send(src, dst)
        w.run_rounds(2)
        w.retry_tick()
        w.run_rounds(2)
        w.drain()  # raises if dedup/liveness/compaction fail
        assert w.drained

    def test_gone_holder_drains_without_hang(self):
        """The incriminating schedule: a dead node still holds unacked
        traffic; pre-fix drain_reliable burned its whole iteration budget
        here and raised."""
        w = RetryFuzzWorld(n=5, fault_seed=1)
        w.send(0, 1)
        w.run_rounds(1)
        w.crash_forever(0)
        w.drain()
        assert w.drained
        assert w.nodes[0].retry.pending  # legitimately stuck forever
        assert (0, 0) in w.nodes[1].delivered

    def test_crash_forever_guarded_by_pending_traffic(self):
        w = RetryFuzzWorld(n=5, fault_seed=0, drop_rate=0.2)
        w.send(1, 3)
        with pytest.raises(ProtocolError, match="unacked"):
            w.crash_forever(3)  # node 1 holds traffic addressed to 3

    def test_planned_midrun_permanent_death_rejected(self):
        with pytest.raises(ProtocolError, match="start=0"):
            RetryFuzzWorld(n=5, crashes=((0, 3, None),))

    def test_fate_recording_verifies(self):
        w = RetryFuzzWorld(n=6, fault_seed=3, drop_rate=0.25, dup_rate=0.2)
        w.send(0, 2)
        w.run_rounds(4)
        w.drain()
        fp = w.kernel.faults
        assert isinstance(fp, RecordingFaultPlane)
        assert fp.total_rows > 0
        assert verify_fate_determinism(fp) > 0


class TestConntRetryWorld:
    """The reliable layer embedded in real Co-NNT traffic (ROADMAP
    item 4 headroom): probe phases interleaved with crash windows and
    retry bursts, invariants checked at finish."""

    def test_clean_world_finishes(self):
        w = ConntRetryWorld(n=7, seed=1)
        w.finish()
        assert w.finished
        live = [nd for nd in w.nodes]
        # Exactly one unconnected survivor: the top-ranked node.
        assert sum(1 for nd in live if nd.connected_to is None) == 1

    def test_faulted_world_meets_contract(self):
        w = ConntRetryWorld(
            n=8,
            seed=2,
            fault_seed=5,
            drop_rate=0.25,
            dup_rate=0.2,
            link_loss=(((1, 3), 0.5),),
            crashes=((2, 0, None), (4, 3, 9)),
        )
        w.probe_step()
        w.crash(5, 4)
        w.retry_tick()
        w.run_rounds(3)
        w.finish()  # raises if any reliable-layer invariant fails
        assert w.finished
        assert any(
            nd.retry.accepted for nd in w.nodes if nd.retry is not None
        )

    def test_planned_midrun_permanent_death_rejected(self):
        with pytest.raises(ProtocolError, match="start=0"):
            ConntRetryWorld(n=6, crashes=((0, 3, None),))

    def test_crash_rules_validated(self):
        w = ConntRetryWorld(n=6, seed=0, crashes=((1, 0, None),))
        with pytest.raises(ProtocolError, match="already has"):
            w.crash(1, 5)
        with pytest.raises(ProtocolError, match="duration"):
            w.crash(2, 0)

    def test_scenario_roundtrip_replays(self):
        w = ConntRetryWorld(
            n=7, seed=3, fault_seed=11, drop_rate=0.25, dup_rate=0.2,
            crashes=((1, 0, None),),
        )
        w.probe_step()
        w.crash(4, 5)
        w.retry_tick()
        w.probe_step()
        w.finish()
        replayed = replay_scenario(w.to_scenario())
        assert replayed.finished and not replayed.failed
        assert replayed.phase == w.phase
        assert [
            (nd.id, nd.connected_to) for nd in replayed.nodes
        ] == [(nd.id, nd.connected_to) for nd in w.nodes]

    def test_replay_drift_detected(self):
        w = ConntRetryWorld(n=6, seed=0)
        w.probe_step()
        scenario_start = w.crash(3, 4)
        with pytest.raises(ProtocolError, match="drift"):
            w2 = ConntRetryWorld(n=6, seed=0)
            # No probe_step first: the clock is at a different round.
            w2.crash(3, 4, expect_start=scenario_start + 17)

    def test_world_convicts_unreliable_connection(self, monkeypatch):
        """Seeded bug: route CONNECTION around the retry layer and the
        symmetry invariant convicts it — the world's checks are not
        tautologies over whatever the protocol happens to do."""
        import repro.algorithms.connt.node as cnode

        monkeypatch.setattr(
            cnode,
            "_UNRELIABLE_KINDS",
            frozenset(("REQUEST", "ACK", "CONNECTION")),
        )
        w = ConntRetryWorld(n=7, seed=1, fault_seed=0, drop_rate=0.25)
        with pytest.raises(ProtocolError, match="not symmetric"):
            w.finish()
        assert w.failed

    def test_world_convicts_broken_dedup(self, monkeypatch):
        """Seeded bug: a receiver that accepts every copy violates the
        compaction (and, under duplication, at-most-once) invariants."""
        from repro.fuzz.connt_world import RecordingRetryBuffer

        def no_dedup(self, src, seq):
            self.accepted.append((src, seq))
            return True

        monkeypatch.setattr(RecordingRetryBuffer, "accept", no_dedup)
        w = ConntRetryWorld(n=7, seed=1, fault_seed=3, dup_rate=0.2)
        with pytest.raises(ProtocolError):
            w.finish()
        assert w.failed

    def test_fate_recording_verifies(self):
        w = ConntRetryWorld(
            n=6, seed=2, fault_seed=3, drop_rate=0.25, dup_rate=0.2
        )
        w.finish()
        fp = w.kernel.faults
        assert isinstance(fp, RecordingFaultPlane)
        assert fp.total_rows > 0
        assert verify_fate_determinism(fp) > 0


class TestCorpus:
    def test_corpus_is_nonempty(self):
        assert len(iter_corpus(CORPUS_DIR)) >= 3

    @pytest.mark.parametrize(
        "path", iter_corpus(CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_corpus_scenario_replays_clean(self, path):
        """Every checked-in counterexample must stay fixed."""
        world = replay_scenario(load_scenario(path))
        assert not world.failed

    def test_save_load_roundtrip(self, tmp_path):
        w = RetryFuzzWorld(n=5)
        w.send(0, 1)
        w.run_rounds(2)
        w.drain()
        scenario = w.to_scenario()
        path = save_scenario(scenario, tmp_path / "s.json")
        assert load_scenario(path) == scenario

    def test_bad_payloads_rejected(self, tmp_path):
        from repro.errors import ExperimentError

        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "nope"}))
        with pytest.raises(ExperimentError):
            load_scenario(p)
        p.write_text("not json")
        with pytest.raises(ExperimentError):
            load_scenario(p)


class TestMachines:
    """Hypothesis layer: tiny deterministic budgets as smoke."""

    def test_ghs_machine_smoke(self):
        from hypothesis.stateful import run_state_machine_as_test

        from repro.fuzz.machine import fuzz_settings, make_machine

        run_state_machine_as_test(
            make_machine("ghs", seed=0),
            settings=fuzz_settings(examples=3, steps=10),
        )

    def test_retry_machine_smoke(self):
        from hypothesis.stateful import run_state_machine_as_test

        from repro.fuzz.machine import fuzz_settings, make_machine

        run_state_machine_as_test(
            make_machine("retry", seed=0),
            settings=fuzz_settings(examples=5, steps=15),
        )

    def test_connt_machine_smoke(self):
        from hypothesis.stateful import run_state_machine_as_test

        from repro.fuzz.machine import fuzz_settings, make_machine

        run_state_machine_as_test(
            make_machine("connt", seed=0),
            settings=fuzz_settings(examples=3, steps=10),
        )

    def test_run_fuzz_catches_seeded_bug(self, tmp_path, monkeypatch):
        """End-to-end: re-introduce the drain bug, watch the fuzzer
        convict it and export a shrunk, replayable counterexample."""
        import repro.fuzz.retry_world as rw
        from repro.fuzz.machine import run_fuzz

        real_drain = rw.drain_reliable

        def buggy_drain(kernel, nodes, *, max_iters=200_000):
            # The pre-fix behaviour: gone-forever holders keep the loop
            # alive until the iteration budget raises.
            fp = kernel.faults
            rnd = kernel.rounds
            holders = [
                nd.id for nd in nodes if nd.retry is not None and nd.retry.pending
            ]
            if holders and all(fp.gone_forever(i, rnd) for i in holders):
                raise ProtocolError(
                    f"fault recovery did not settle in {max_iters} iterations"
                )
            return real_drain(kernel, nodes, max_iters=max_iters)

        monkeypatch.setattr(rw, "drain_reliable", buggy_drain)
        # seed=1 reaches the incriminating schedule within a small
        # derandomized budget (seed offsets explore different corners).
        out = run_fuzz(
            "retry", examples=30, steps=30, seed=1, export_dir=tmp_path
        )
        assert not out.ok
        assert "did not settle" in out.error
        # The shrunk counterexample is exported and replayable.
        assert "scenario" in out.artifacts
        scenario = load_scenario(out.artifacts["scenario"])
        assert scenario["machine"] == "retry"
        monkeypatch.setattr(rw, "drain_reliable", real_drain)
        assert not replay_scenario(scenario).failed  # fixed code: replays clean

    def test_export_failure_artifacts(self, tmp_path):
        from repro.fuzz.repro_export import export_failure

        w = GHSFuzzWorld(n=14, seed=2, drop_rate=0.15, fault_seed=5)
        w.advance(10)
        w.failed = True
        arts = export_failure(
            w, error=ProtocolError("synthetic"), outdir=tmp_path / "out"
        )
        assert set(arts) >= {"scenario", "spec", "error", "trace_diff"}
        spec = json.loads((tmp_path / "out" / "spec.json").read_text())
        assert spec["algorithm"] == "MGHS" and spec["faults"] is not None
        report = (tmp_path / "out" / "trace_diff.txt").read_text()
        assert "traces" in report
