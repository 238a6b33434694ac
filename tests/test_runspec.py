"""Tests for the runspec layer: spec round trips, the algorithm registry,
and the one execution engine (bit-identical to the legacy call paths)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.connt import run_connt
from repro.algorithms.eopt import run_eopt
from repro.algorithms.ghs import run_ghs, run_modified_ghs
from repro.algorithms.randnnt import run_randnnt
from repro.errors import ExperimentError
from repro.experiments.instances import get_points
from repro.experiments.runner import run_algorithm
from repro.perf import perf
from repro.runspec import (
    RunReport,
    RunSpec,
    algorithm_entries,
    algorithm_names,
    execute,
    execute_batch,
    get_algorithm,
    kernel_class,
)
from repro.sim.faults import FaultPlan
from repro.sim.kernel import SynchronousKernel
from repro.sim.legacy import LegacyKernel
from repro.trace import trace


class TestRunSpecRoundTrip:
    def test_default_spec_round_trips(self):
        spec = RunSpec(algorithm="GHS", n=100)
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_faultplan_round_trips(self):
        plan = FaultPlan(
            seed=3,
            drop_rate=0.1,
            dup_rate=0.05,
            link_loss=(((0, 1), 0.5), ((2, 7), 1.0)),
            crashes=((4, 10, 20), (9, 5, None)),
        )
        spec = RunSpec(algorithm="MGHS", n=64, seed=2, faults=plan)
        back = RunSpec.from_json(spec.to_json())
        assert back == spec
        assert back.faults == plan
        assert back.faults.crashes == plan.crashes

    def test_kernel_flags_round_trip(self):
        spec = RunSpec(
            algorithm="MGHS",
            n=80,
            kernel="legacy",
            planes=False,
            recover=False,
            rx_cost=0.25,
            perf=True,
            trace=True,
        )
        back = RunSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.kernel == "legacy"
        assert back.planes is False and back.recover is False
        assert back.perf is True and back.trace is True

    def test_payload_is_schema_stamped(self):
        data = RunSpec(algorithm="EOPT", n=50).to_dict()
        assert data["schema_version"] == 1
        assert data["kind"] == "run_spec"

    def test_unknown_field_rejected(self):
        data = RunSpec(algorithm="GHS", n=50).to_dict()
        data["radius_konst"] = 1.6
        with pytest.raises(ExperimentError, match="unknown fields"):
            RunSpec.from_dict(data)

    def test_wrong_kind_rejected(self):
        data = RunSpec(algorithm="GHS", n=50).to_dict()
        data["kind"] = "run_report"
        with pytest.raises(ExperimentError, match="not a run_spec"):
            RunSpec.from_dict(data)

    def test_wrong_schema_version_rejected(self):
        data = RunSpec(algorithm="GHS", n=50).to_dict()
        data["schema_version"] = 99
        with pytest.raises(ExperimentError, match="schema version"):
            RunSpec.from_dict(data)

    def test_legacy_schema_key_accepted(self):
        data = RunSpec(algorithm="GHS", n=50).to_dict()
        data["schema"] = data.pop("schema_version")
        assert RunSpec.from_dict(data).algorithm == "GHS"

    def test_invalid_values_rejected_at_construction(self):
        with pytest.raises(ExperimentError):
            RunSpec(algorithm="", n=50)
        with pytest.raises(ExperimentError):
            RunSpec(algorithm="GHS", n=1)
        with pytest.raises(ExperimentError):
            RunSpec(algorithm="GHS", n=50, kernel="warp9")
        with pytest.raises(ExperimentError):
            RunSpec(algorithm="GHS", n=50, faults={"drop_rate": 0.1})

    def test_with_and_cell(self):
        spec = RunSpec(algorithm="EOPT", n=200, seed=4)
        assert spec.cell == "EOPT:n200:s4"
        bumped = spec.with_(seed=5)
        assert bumped.seed == 5 and spec.seed == 4
        assert bumped.cell == "EOPT:n200:s5"

    def test_kernel_class_resolution(self):
        assert kernel_class("fast") is SynchronousKernel
        assert kernel_class("legacy") is LegacyKernel
        assert kernel_class("turbo") is SynchronousKernel  # alias of fast
        with pytest.raises(ExperimentError):
            kernel_class("warp9")


class TestRegistry:
    def test_canonical_order(self):
        assert algorithm_names() == (
            "GHS", "MGHS", "EOPT", "Co-NNT", "Rand-NNT", "MAINT",
        )

    def test_every_runner_registered_exactly_once(self):
        from repro.applications.maintenance import run_maintenance

        runners = [e.runner for e in algorithm_entries()]
        expected = {
            run_ghs, run_modified_ghs, run_eopt, run_connt, run_randnnt,
            run_maintenance,
        }
        assert set(runners) == expected
        assert len(runners) == len(expected)

    def test_unknown_label_lists_registered_names(self):
        with pytest.raises(ExperimentError) as exc:
            get_algorithm("DIJKSTRA")
        msg = str(exc.value)
        for name in algorithm_names():
            assert name in msg

    def test_capability_flags(self):
        assert get_algorithm("GHS").supports_kernel_mode
        assert get_algorithm("EOPT").supports_faults
        assert not get_algorithm("Co-NNT").supports_kernel_mode
        assert not get_algorithm("Rand-NNT").supports_faults
        assert not get_algorithm("Rand-NNT").supports_kernel_mode

    def test_reregistering_different_runner_raises(self):
        from repro.runspec.registry import register_algorithm

        entry = get_algorithm("GHS")
        try:
            # Same (name, runner) pair: accepted (module reloads).
            register_algorithm(
                "GHS", runner=entry.runner, adapter=entry.adapter, order=entry.order
            )
            with pytest.raises(ExperimentError, match="already registered"):
                register_algorithm(
                    "GHS", runner=run_connt, adapter=entry.adapter, order=0
                )
        finally:
            # Restore the canonical entry (summary and flags included).
            register_algorithm(
                "GHS",
                runner=entry.runner,
                adapter=entry.adapter,
                order=entry.order,
                summary=entry.summary,
                supports_faults=entry.supports_faults,
                supports_kernel_mode=entry.supports_kernel_mode,
            )


def _same_result(a, b) -> bool:
    return (
        a.stats.energy_total == b.stats.energy_total
        and a.stats.messages_total == b.stats.messages_total
        and a.stats.rounds == b.stats.rounds
        and a.phases == b.phases
        and np.array_equal(a.tree_edges, b.tree_edges)
    )


class TestExecuteBitIdentical:
    N, SEED = 120, 3

    @pytest.mark.parametrize(
        "alg,direct",
        [
            ("GHS", run_ghs),
            ("MGHS", run_modified_ghs),
            ("EOPT", run_eopt),
            ("Co-NNT", run_connt),
            ("Rand-NNT", run_randnnt),
        ],
    )
    def test_execute_matches_direct_runner(self, alg, direct):
        pts = get_points(self.N, self.SEED)
        report = execute(RunSpec(algorithm=alg, n=self.N, seed=self.SEED))
        assert _same_result(report.result, direct(pts))

    def test_legacy_run_algorithm_surface_matches_execute(self):
        pts = get_points(self.N, self.SEED)
        for alg in algorithm_names():
            report = execute(RunSpec(algorithm=alg, n=self.N, seed=self.SEED))
            assert _same_result(report.result, run_algorithm(alg, pts))

    def test_faulted_execute_matches_direct_runner(self):
        plan = FaultPlan(seed=1, drop_rate=0.1)
        pts = get_points(self.N, self.SEED)
        report = execute(
            RunSpec(algorithm="MGHS", n=self.N, seed=self.SEED, faults=plan)
        )
        assert _same_result(report.result, run_modified_ghs(pts, faults=plan))

    def test_legacy_kernel_execute_matches_fast(self):
        fast = execute(RunSpec(algorithm="MGHS", n=self.N, seed=self.SEED))
        legacy = execute(
            RunSpec(algorithm="MGHS", n=self.N, seed=self.SEED, kernel="legacy")
        )
        assert _same_result(fast.result, legacy.result)


class TestExecuteValidation:
    def test_randnnt_rejects_nonnull_faults(self):
        spec = RunSpec(
            algorithm="Rand-NNT", n=60, faults=FaultPlan(seed=0, drop_rate=0.1)
        )
        with pytest.raises(ExperimentError, match="no fault-recovery layer"):
            execute(spec)

    def test_randnnt_accepts_null_plan(self):
        report = execute(RunSpec(algorithm="Rand-NNT", n=60, faults=FaultPlan()))
        assert report.result.name == "Rand-NNT"

    def test_connt_rejects_legacy_kernel(self):
        with pytest.raises(ExperimentError, match="legacy"):
            execute(RunSpec(algorithm="Co-NNT", n=60, kernel="legacy"))

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ExperimentError, match="registered algorithms"):
            execute(RunSpec(algorithm="DIJKSTRA", n=60))


class TestInstrumentationIsolation:
    def test_perf_isolated_and_ambient_restored(self):
        perf.reset()
        perf.enable()
        perf.add("ambient.marker", 3)
        try:
            report = execute(RunSpec(algorithm="MGHS", n=60, seed=0, perf=True))
            assert perf.enabled  # ambient switch restored
            snap = perf.snapshot()
        finally:
            perf.disable()
            perf.reset()
        # The run's own data lives in the report, not the ambient registry.
        assert "mghs.hello" in report.perf["timers"]
        assert snap["counters"].get("ambient.marker") == 3
        assert "mghs.hello" not in snap["timers"]

    def test_trace_isolated_and_ambient_restored(self):
        trace.reset()
        trace.enable()
        trace.emit("ambient_marker")
        try:
            report = execute(RunSpec(algorithm="MGHS", n=60, seed=0, trace=True))
            assert trace.enabled
            ambient = trace.snapshot()
        finally:
            trace.disable()
            trace.reset()
        assert [e["ev"] for e in ambient] == ["ambient_marker"]
        assert report.trace[0]["ev"] == "run_start"

    def test_disabled_registries_stay_untouched(self):
        perf.reset()
        trace.reset()
        report = execute(RunSpec(algorithm="Co-NNT", n=60, seed=0))
        assert report.perf is None and report.trace is None
        assert not perf.enabled and not trace.enabled
        assert perf.snapshot() == {"timers": {}, "counters": {}}
        assert trace.events == []


class TestExecuteBatch:
    SPECS = [
        RunSpec(algorithm=alg, n=n, seed=0)
        for n in (50, 80)
        for alg in ("MGHS", "Co-NNT")
    ]

    def test_serial_and_process_backends_agree(self):
        serial = execute_batch(self.SPECS, backend="serial")
        procs = execute_batch(self.SPECS, backend="process", workers=2)
        assert len(serial) == len(procs) == len(self.SPECS)
        for a, b in zip(serial, procs):
            assert a.spec == b.spec
            assert _same_result(a.result, b.result)

    def test_reports_in_spec_order(self):
        reports = execute_batch(self.SPECS, backend="serial")
        assert [r.spec for r in reports] == self.SPECS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError, match="backend"):
            execute_batch(self.SPECS, backend="threads")

    def test_invalid_workers_rejected(self):
        with pytest.raises(ExperimentError, match="workers"):
            execute_batch(self.SPECS, backend="process", workers=0)

    def test_empty_batch(self):
        assert execute_batch([], backend="serial") == []
        assert execute_batch([], backend="process", workers=1) == []


class TestRunReport:
    def test_report_round_trips_with_instrumentation(self):
        spec = RunSpec(algorithm="MGHS", n=60, seed=1, perf=True, trace=True)
        report = execute(spec)
        back = RunReport.from_json(report.to_json())
        assert back.spec == spec
        assert _same_result(back.result, report.result)
        assert back.perf == report.perf
        assert back.trace == report.trace

    def test_report_json_is_numpy_free(self):
        import json

        report = execute(RunSpec(algorithm="EOPT", n=80, seed=0))
        # json.dumps raises on any numpy leakage in extras/stats.
        payload = json.dumps(report.to_dict())
        assert "schema_version" in payload

    def test_fault_table_passthrough(self):
        report = execute(
            RunSpec(
                algorithm="MGHS",
                n=80,
                seed=0,
                faults=FaultPlan(seed=1, drop_rate=0.2),
            )
        )
        assert report.fault_table() == report.result.stats.fault_table()
        assert report.result.stats.dropped_total > 0
