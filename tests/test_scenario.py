"""Scenario plane tests: plan schema, spec hashing, scheduler semantics,
and end-to-end determinism of dynamic (MAINT) runs.

The determinism pins are the acceptance criteria of the scenario plane:
the same churn schedule must produce *byte-identical* RunReports across
every kernel backend, across the serial and process batch executors, and
across a ResultStore warm restart — and identical trace streams, so
``trace-diff`` triages dynamic runs exactly like static ones.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.runspec import RunSpec, execute, execute_batch
from repro.scenario.mobility import PRESETS, mixed_plan
from repro.scenario.plan import ScenarioEvent, ScenarioPlan
from repro.scenario.scheduler import ScenarioScheduler
from repro.store import ResultStore
from repro.trace import trace
from repro.trace.diff import diff_traces, format_divergence


def small_plan(checkpoint: str = "repair") -> ScenarioPlan:
    return mixed_plan(24, seed=5, cycles=2, gap=30, checkpoint=checkpoint)


def maint_spec(**kw) -> RunSpec:
    kw.setdefault("scenario", small_plan())
    return RunSpec(algorithm="MAINT", n=24, seed=5, **kw)


# ---------------------------------------------------------------------------
# plan schema


class TestScenarioEvent:
    def test_defaults_and_rows(self):
        ev = ScenarioEvent(round=3, kind="crash", node=1, duration=4)
        assert ScenarioEvent.from_row(ev.to_row()) == ev
        ev = ScenarioEvent(round=0, kind="join", x=0.25, y=0.75)
        assert ScenarioEvent.from_row(ev.to_row()) == ev

    def test_kind_field_constraints(self):
        with pytest.raises(ExperimentError):
            ScenarioEvent(round=0, kind="teleport")
        with pytest.raises(ExperimentError):
            ScenarioEvent(round=0, kind="crash")  # needs a node
        with pytest.raises(ExperimentError):
            ScenarioEvent(round=0, kind="repair", node=2)  # must not name one
        with pytest.raises(ExperimentError):
            ScenarioEvent(round=0, kind="join", x=1.5, y=0.0)  # off the square
        with pytest.raises(ExperimentError):
            ScenarioEvent(round=0, kind="leave", node=1, duration=3)
        with pytest.raises(ExperimentError):
            ScenarioEvent(round=-1, kind="rebuild")

    def test_positions_only_for_spatial_kinds(self):
        with pytest.raises(ExperimentError):
            ScenarioEvent(round=0, kind="crash", node=0, x=0.5, y=0.5)


class TestScenarioPlan:
    def test_json_round_trip(self):
        plan = small_plan()
        back = ScenarioPlan.from_json(plan.to_json())
        assert back == plan
        payload = json.loads(plan.to_json())
        assert payload["kind"] == "scenario_plan"
        assert payload["schema_version"] == 1

    def test_rounds_must_be_non_decreasing(self):
        with pytest.raises(ExperimentError):
            ScenarioPlan(
                events=(
                    ScenarioEvent(round=5, kind="repair"),
                    ScenarioEvent(round=4, kind="rebuild"),
                )
            )

    def test_strict_from_dict(self):
        good = small_plan().to_dict()
        for breakage in (
            {"schema_version": 2},
            {"kind": "fault_plan"},
            {"extra": 1},
        ):
            with pytest.raises(ExperimentError):
                ScenarioPlan.from_dict({**good, **breakage})

    def test_null_and_counts(self):
        assert ScenarioPlan(events=()).is_null
        plan = ScenarioPlan(
            events=(
                ScenarioEvent(round=0, kind="join", x=0.5, y=0.5),
                ScenarioEvent(round=1, kind="crash", node=7),
                ScenarioEvent(round=1, kind="repair"),
            )
        )
        assert not plan.is_null
        assert plan.max_node() == 7

    def test_presets_generate_valid_plans(self):
        for name, factory in PRESETS.items():
            plan = factory(20, seed=3)
            assert not plan.is_null, name
            assert ScenarioPlan.from_json(plan.to_json()) == plan


# ---------------------------------------------------------------------------
# spec integration: hashing, round trip, dispatch gate


class TestSpecIntegration:
    def test_scenario_free_payload_has_no_scenario_key(self):
        """Hash stability: specs without a plan serialize exactly as they
        did before the scenario plane existed."""
        assert "scenario" not in RunSpec(algorithm="MGHS", n=50).to_dict()

    def test_spec_round_trips_with_scenario(self):
        spec = maint_spec()
        back = RunSpec.from_json(spec.to_json())
        assert back == spec
        assert back.spec_hash() == spec.spec_hash()
        assert back.result_key() == spec.result_key()

    def test_scenario_feeds_the_hash(self):
        a = maint_spec(scenario=small_plan("repair"))
        b = maint_spec(scenario=small_plan("rebuild"))
        assert a.spec_hash() != b.spec_hash()

    def test_non_maint_algorithms_reject_plans(self):
        spec = RunSpec(algorithm="MGHS", n=50, scenario=small_plan())
        with pytest.raises(ExperimentError, match="scenario"):
            execute(spec)

    def test_null_plan_allowed_anywhere(self):
        spec = RunSpec(algorithm="MGHS", n=50, scenario=ScenarioPlan(events=()))
        assert execute(spec).result.name == "MGHS"

    def test_maint_rejects_fault_plan_crashes(self):
        from repro.sim.faults import FaultPlan

        spec = maint_spec(faults=FaultPlan(seed=1, crashes=((0, 2, None),)))
        with pytest.raises(ExperimentError, match="scenario events"):
            execute(spec)


# ---------------------------------------------------------------------------
# scheduler semantics


class TestScheduler:
    def _sched(self, n=16, seed=2, **kw):
        from repro.experiments.instances import get_points

        s = ScenarioScheduler(get_points(n, seed), **kw)
        s.build()
        return s

    def test_build_then_idle_checkpoint(self):
        s = self._sched()
        built = len(s.tree)
        clock = s.clock
        s.checkpoint("repair", at_round=clock + 5)
        assert s.clock >= clock + 5  # idle ticks reached the target round
        assert len(s.tree) == built

    def test_permanent_crash_and_leave_shrink_the_network(self):
        s = self._sched()
        s.crash(0)
        s.leave(1)
        s.checkpoint("repair")
        alive = set(int(g) for g in s.alive_ids())
        assert 0 not in alive and 1 not in alive
        assert not np.isin(s.tree, [0, 1]).any()

    def test_join_gets_fresh_global_id(self):
        s = self._sched(n=16)
        gid = s.join(0.5, 0.5)
        assert gid == 16
        s.checkpoint("repair")
        assert gid in set(int(g) for g in s.alive_ids())

    def test_move_relocates(self):
        s = self._sched()
        s.move(2, 0.9, 0.9)
        s.checkpoint("repair")
        assert tuple(s.positions[2]) == (0.9, 0.9)

    def test_transient_crash_recovers(self):
        """A transient window engages the reliable/recovery path and the
        node is back in the tree afterwards."""
        s = self._sched()
        s.crash(3, duration=4)
        s.checkpoint("repair")
        alive = set(int(g) for g in s.alive_ids())
        assert 3 in alive
        assert np.isin(s.tree, [3]).any() or len(alive) == 1

    def test_past_checkpoint_round_clamps_to_now(self):
        """Checkpoint rounds are minimums: a target in the past runs the
        cycle immediately rather than rewinding the clock."""
        s = self._sched()
        clock = s.clock
        s.checkpoint("repair", at_round=clock - 10)
        assert s.clock >= clock  # no time travel

    def test_dead_node_rejected(self):
        s = self._sched()
        s.crash(0)
        with pytest.raises(ExperimentError):
            s.move(0, 0.1, 0.1)


# ---------------------------------------------------------------------------
# end-to-end determinism (the acceptance criteria)


class TestDeterminism:
    def test_backends_byte_identical(self):
        base = maint_spec()
        reports = {}
        for kernel in ("fast", "legacy"):
            reports[kernel] = execute(base.with_(kernel=kernel))
        ref = reports["fast"].result
        for key, rep in reports.items():
            res = rep.result
            assert res.stats.energy_total == ref.stats.energy_total, key
            assert res.stats.messages_total == ref.stats.messages_total, key
            assert res.stats.rounds == ref.stats.rounds, key
            assert np.array_equal(res.tree_edges, ref.tree_edges), key
            assert res.extras["cycles"] == ref.extras["cycles"], key

    def test_traces_identical_across_backends(self):
        def traced(kernel):
            spec = maint_spec(kernel=kernel)
            trace.reset()
            trace.enable()
            try:
                execute(spec)
                return trace.snapshot()
            finally:
                trace.disable()
                trace.reset()

        fast = traced("fast")
        assert any(e.get("ev") == "scenario/event" for e in fast)
        assert any(e.get("ev") == "repair/summary" for e in fast)
        other = traced("legacy")
        d = diff_traces(fast, other)
        assert d is None, format_divergence(d, "fast", "legacy")

    def test_serial_and_process_batch_byte_identical(self):
        specs = [maint_spec(), maint_spec(scenario=small_plan("rebuild"))]
        serial = execute_batch(specs, backend="serial")
        procs = execute_batch(specs, backend="process", workers=2)
        for a, b in zip(serial, procs):
            assert a.to_json() == b.to_json()

    def test_store_warm_restart_byte_identical(self, tmp_path):
        spec = maint_spec()
        path = tmp_path / "results.sqlite"
        with ResultStore(path) as store:
            cold = execute(spec, store=store)
        with ResultStore(path) as store:  # fresh handle: a warm restart
            warm = execute(spec, store=store)
            assert store.stats()["hits"] >= 1
        assert warm.to_json() == cold.to_json()


# ---------------------------------------------------------------------------
# CLI surface


class TestCLI:
    def test_run_with_scenario_file(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text(small_plan().to_json())
        assert main(["run", "MAINT", "-n", "24", "--seed", "5",
                     "--scenario", str(path)]) == 0
        assert "MAINT" in capsys.readouterr().out

    def test_emit_spec_round_trips_scenario(self, capsys, tmp_path):
        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(small_plan().to_json())
        spec_path = tmp_path / "spec.json"
        assert main(["run", "MAINT", "-n", "24", "--seed", "5",
                     "--scenario", str(plan_path),
                     "--emit-spec", str(spec_path)]) == 0
        spec = RunSpec.from_json(spec_path.read_text())
        assert spec.scenario == small_plan()
        capsys.readouterr()

    def test_scenarios_lists_presets(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_scenarios_emit(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "churn.json"
        assert main(["scenarios", "--emit", str(path), "--preset", "mixed",
                     "-n", "24", "--seed", "5"]) == 0
        assert ScenarioPlan.from_json(path.read_text()) == mixed_plan(24, seed=5)
        capsys.readouterr()

    def test_algorithms_table_has_scenario_column(self, capsys):
        from repro.cli import main

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "scenarios" in out and "MAINT" in out


# ---------------------------------------------------------------------------
# serve surface: dynamic specs are ordinary submissions


class TestServe:
    def test_scenario_spec_served_and_cached(self, tmp_path):
        from tests.test_serve import run_served, wait_done

        spec_payload = json.loads(maint_spec().to_json())

        async def scenario(call, app):
            status, body = await call("POST", "/runs", spec_payload)
            assert status in (200, 201, 202), body
            job = json.loads(body)["id"]
            state = await wait_done(call, job)
            assert state["state"] == "done"
            status, body = await call("GET", f"/runs/{job}/report")
            assert status == 200
            report = json.loads(body)
            assert report["result"]["name"] == "MAINT"
            return report

        with ResultStore(tmp_path / "s.sqlite") as store:
            first = run_served(scenario, store=store)
        with ResultStore(tmp_path / "s.sqlite") as store:
            again = run_served(scenario, store=store)
        assert first == again
