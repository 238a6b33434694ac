"""Tests for the trace plane: registry, kernel/driver events, diff triage.

Two contracts are pinned here:

* **zero-cost when off** — with tracing disabled a run records nothing
  and every headline stat is bit-identical to a never-traced run (the
  hooks are one attribute check per round/phase);
* **path-invariance when on** — equivalent runs (legacy vs fast kernel,
  flood planes vs per-message floods, faulted runs on either kernel)
  emit *identical* event streams, which is what makes
  :mod:`repro.trace.diff` a triage tool rather than a noise generator.
"""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.algorithms.eopt import run_eopt
from repro.algorithms.ghs import run_modified_ghs
from repro.geometry.points import uniform_points
from repro.sim import LegacyKernel
from repro.sim.faults import FaultPlan
from repro.trace import TraceRegistry, load_jsonl, trace
from repro.trace.diff import Divergence, diff_files, diff_traces, format_divergence
from tests.conftest import per_message_floods


@pytest.fixture(autouse=True)
def _clean_global_registry():
    trace.disable()
    trace.reset()
    yield
    trace.disable()
    trace.reset()


def _traced(runner, pts, **kwargs):
    """Run ``runner`` with tracing on; return (result, events)."""
    trace.reset()
    trace.enable()
    try:
        res = runner(pts, **kwargs)
    finally:
        events = trace.snapshot()
        trace.disable()
        trace.reset()
    return res, events


# ---------------------------------------------------------------------------
# registry unit behaviour


class TestRegistry:
    def test_emit_disabled_is_backstop_noop(self):
        reg = TraceRegistry()
        reg.emit("round", round=1)  # unguarded call site: must not leak
        assert reg.events == []

    def test_emit_assigns_sequential_indices(self):
        reg = TraceRegistry()
        reg.enable()
        reg.emit("a", x=1)
        reg.emit("b", y=2)
        assert [e["i"] for e in reg.events] == [0, 1]
        assert reg.events[0]["ev"] == "a" and reg.events[1]["y"] == 2

    def test_reset_keeps_switch(self):
        reg = TraceRegistry()
        reg.enable()
        reg.emit("a")
        reg.reset()
        assert reg.events == [] and reg.enabled

    def test_snapshot_is_deep_copy(self):
        reg = TraceRegistry()
        reg.enable()
        reg.emit("round", kinds={"HELLO": 3}, sizes=[[1, 2]])
        snap = reg.snapshot()
        snap[0]["kinds"]["HELLO"] = 99
        snap[0]["sizes"].append([5, 5])
        assert reg.events[0]["kinds"] == {"HELLO": 3}
        assert reg.events[0]["sizes"] == [[1, 2]]

    def test_merge_reindexes_and_stamps_source(self):
        reg = TraceRegistry()
        reg.enable()
        reg.emit("local")
        worker = [{"i": 0, "ev": "round", "dm": 4}]
        reg.merge(worker, source="MGHS:n50:s0")
        assert reg.events[1]["i"] == 1
        assert reg.events[1]["src"] == "MGHS:n50:s0"
        assert worker[0] == {"i": 0, "ev": "round", "dm": 4}  # input untouched

    def test_merge_works_while_disabled(self):
        # Merging is bookkeeping of data recorded elsewhere, not a new
        # measurement: a disabled parent still collects worker snapshots.
        reg = TraceRegistry()
        reg.merge([{"i": 0, "ev": "round"}])
        assert len(reg.events) == 1


# ---------------------------------------------------------------------------
# diff triage


class TestDiff:
    def test_identical_traces(self):
        a = [{"i": 0, "ev": "round", "dm": 1}]
        assert diff_traces(a, [dict(a[0])]) is None

    def test_key_order_and_tuple_list_canonicalization(self):
        a = [{"i": 0, "ev": "x", "sizes": [(1, 2)]}]
        b = [{"sizes": [[1, 2]], "ev": "x", "i": 0}]
        assert diff_traces(a, b) is None

    def test_first_divergence_with_context(self):
        a = [{"i": k, "ev": "round", "dm": k} for k in range(6)]
        b = [dict(e) for e in a]
        b[4]["dm"] = 99
        d = diff_traces(a, b, context=2)
        assert d is not None and d.index == 4
        assert d.left["dm"] == 4 and d.right["dm"] == 99
        assert [e["i"] for e in d.context] == [2, 3]
        text = format_divergence(d, "fast", "legacy")
        assert "diverge at event 4" in text and "fast" in text and "legacy" in text

    def test_shorter_trace_diverges_at_its_end(self):
        a = [{"i": 0, "ev": "round"}, {"i": 1, "ev": "round"}]
        d = diff_traces(a, a[:1])
        assert d is not None and d.index == 1 and d.right is None
        assert "<trace ended>" in format_divergence(d)

    def test_format_agreement(self):
        assert format_divergence(None) == "traces identical"

    def test_diff_files_roundtrip(self, tmp_path):
        reg = TraceRegistry()
        reg.enable()
        reg.emit("round", dm=3, de=0.5)
        pa = reg.export_jsonl(tmp_path / "a.jsonl")
        pb = reg.export_jsonl(tmp_path / "b.jsonl")
        assert diff_files(pa, pb) is None
        reg.emit("round", dm=1)
        pc = reg.export_jsonl(tmp_path / "c.jsonl")
        d = diff_files(pa, pc)
        assert isinstance(d, Divergence) and d.index == 1


# ---------------------------------------------------------------------------
# zero-cost-when-off contract


class TestTraceOff:
    def test_disabled_run_records_nothing(self):
        run_modified_ghs(uniform_points(120, seed=0))
        assert trace.events == []

    def test_stats_bit_identical_with_tracing(self):
        """Tracing on must not perturb a single headline stat — on the
        fast kernel, the legacy kernel, per-message floods, and a faulted
        run."""
        pts = uniform_points(200, seed=2)
        plan = FaultPlan(seed=3, drop_rate=0.05)
        for kwargs, planes in (
            ({}, True),
            ({"kernel_cls": LegacyKernel}, True),
            ({}, False),
            ({"faults": plan}, True),
            ({"faults": plan, "kernel_cls": LegacyKernel}, True),
        ):
            with contextlib.nullcontext() if planes else per_message_floods():
                plain = run_modified_ghs(pts, **kwargs)
                traced, events = _traced(run_modified_ghs, pts, **kwargs)
            assert events, f"no events recorded for {kwargs!r}"
            assert traced.stats.energy_total == plain.stats.energy_total
            assert traced.stats.messages_total == plain.stats.messages_total
            assert traced.stats.rounds == plain.stats.rounds
            assert traced.stats.messages_by_kind == plain.stats.messages_by_kind
            assert traced.stats.drops_by_kind == plain.stats.drops_by_kind


# ---------------------------------------------------------------------------
# path-invariance: equivalent runs emit identical streams


class TestTraceEquivalence:
    def _assert_identical(self, a, b, label_a, label_b):
        d = diff_traces(a, b)
        assert d is None, format_divergence(d, label_a, label_b)

    @pytest.mark.parametrize("runner, n, seed", [
        (run_modified_ghs, 300, 0),
        (run_eopt, 300, 2),
    ])
    def test_legacy_vs_fast_vs_planes_off(self, runner, n, seed):
        pts = uniform_points(n, seed=seed)
        _, fast = _traced(runner, pts)
        _, legacy = _traced(runner, pts, kernel_cls=LegacyKernel)
        with per_message_floods():
            _, planes_off = _traced(runner, pts)
        self._assert_identical(fast, legacy, "fast", "legacy")
        self._assert_identical(fast, planes_off, "planes-on", "planes-off")

    def test_faulted_legacy_vs_fast(self):
        pts = uniform_points(250, seed=4)
        plan = FaultPlan(seed=7, drop_rate=0.08, dup_rate=0.02)
        _, fast = _traced(run_modified_ghs, pts, faults=plan)
        _, legacy = _traced(
            run_modified_ghs, pts, faults=plan, kernel_cls=LegacyKernel
        )
        self._assert_identical(fast, legacy, "fast", "legacy")
        # The fault plane must actually have shown up in the stream.
        assert any("drop" in e for e in fast if e["ev"] == "round")

    def test_perturbed_run_diverges_at_expected_first_event(self):
        """Sensitivity: a different radius constant must split the
        traces at the very first event that encodes the radius — the
        ``run_start`` emitted before any message moves."""
        pts = uniform_points(150, seed=1)
        _, a = _traced(run_modified_ghs, pts, radius_const=1.6)
        _, b = _traced(run_modified_ghs, pts, radius_const=1.7)
        d = diff_traces(a, b)
        assert d is not None and d.index == 0
        assert d.left["ev"] == "run_start" == d.right["ev"]
        assert d.left["radius"] != d.right["radius"]

    def test_fault_seed_perturbation_diverges_at_a_round_event(self):
        pts = uniform_points(200, seed=2)
        _, a = _traced(
            run_modified_ghs, pts, faults=FaultPlan(seed=1, drop_rate=0.1)
        )
        _, b = _traced(
            run_modified_ghs, pts, faults=FaultPlan(seed=2, drop_rate=0.1)
        )
        d = diff_traces(a, b)
        assert d is not None
        assert d.left is not None and d.left["ev"] == "round"


# ---------------------------------------------------------------------------
# event content


class TestEventContent:
    def test_round_deltas_sum_to_headline_stats(self):
        pts = uniform_points(200, seed=5)
        res, events = _traced(run_modified_ghs, pts)
        rounds = [e for e in events if e["ev"] == "round"]
        assert len(rounds) == res.stats.rounds
        assert sum(e["dm"] for e in rounds) == res.stats.messages_total
        assert sum(e["de"] for e in rounds) == pytest.approx(
            res.stats.energy_total, rel=1e-12
        )
        by_kind: dict[str, int] = {}
        for e in rounds:
            for k, v in e["kinds"].items():
                by_kind[k] = by_kind.get(k, 0) + v
        assert by_kind == res.stats.messages_by_kind

    def test_phase_events_bracket_rounds_and_shrink_fragments(self):
        pts = uniform_points(250, seed=6)
        res, events = _traced(run_modified_ghs, pts)
        starts = [e for e in events if e["ev"] == "phase_start"]
        ends = [e for e in events if e["ev"] == "phase_end"]
        assert len(starts) == len(ends) == res.phases
        frag_series = [e["fragments"] for e in ends]
        assert frag_series == sorted(frag_series, reverse=True)
        assert frag_series[-1] == res.extras["n_fragments_final"]
        for e in ends:
            # histogram consistency: sizes weighted by multiplicity
            # cover every node, entries sorted ascending.
            assert sum(s * c for s, c in e["sizes"]) == len(pts)
            assert [s for s, _ in e["sizes"]] == sorted(s for s, _ in e["sizes"])
            assert sum(c for _, c in e["sizes"]) == e["fragments"]

    def test_eopt_census_reproduces_thm52_shape(self):
        """Thm 5.2: step 1 ends with one giant fragment above the
        ``beta log^2 n`` bar and *only* small fragments below it."""
        pts = uniform_points(400, seed=3)
        res, events = _traced(run_eopt, pts)
        census = [e for e in events if e["ev"] == "census"]
        assert len(census) == 1
        ev = census[0]
        assert res.extras["giant_found"]
        threshold = ev["threshold"]
        sizes = ev["sizes"]
        giants = [(s, c) for s, c in sizes if s > threshold]
        small = [(s, c) for s, c in sizes if s <= threshold]
        assert giants == [(ev["giant_size"], 1)]
        assert all(c >= 1 for _, c in small)
        assert sum(s * c for s, c in sizes) == len(pts)
        # And the giant stays passive: step-2 phase_starts activate only
        # small fragments, so active counts stay far below step 1's.
        assert ev["giant_size"] > threshold >= max((s for s, _ in small), default=0)

    def test_stage_and_power_events(self):
        pts = uniform_points(200, seed=8)
        _, events = _traced(run_eopt, pts)
        stages = [e["stage"] for e in events if e["ev"] == "stage"]
        assert stages == ["step1:hello", "step1:ghs", "step2:size",
                          "step2:hello", "step2:ghs"]
        powers = [e for e in events if e["ev"] == "power"]
        assert len(powers) == 1  # the r1 -> r2 raise
        run_start = events[0]
        assert run_start["ev"] == "run_start"
        assert powers[0]["radius"] == run_start["r2"]


# ---------------------------------------------------------------------------
# JSONL round trip


class TestJsonl:
    def test_export_load_identity(self, tmp_path):
        pts = uniform_points(150, seed=9)
        trace.reset()
        trace.enable()
        try:
            run_modified_ghs(pts)
            path = trace.export_jsonl(tmp_path / "run.jsonl")
            events = trace.snapshot()
        finally:
            trace.disable()
        loaded = load_jsonl(path)
        # Strict ==, not just canonical-equal: every payload is JSON-native.
        assert loaded == events

    def test_jsonl_is_one_object_per_line(self, tmp_path):
        reg = TraceRegistry()
        reg.enable()
        reg.emit("a", x=1)
        reg.emit("b", y=[1, 2])
        text = reg.to_jsonl()
        lines = text.splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1]) == {"i": 1, "ev": "b", "y": [1, 2]}


# ---------------------------------------------------------------------------
# per-phase summary (experiments/report.py)


class TestPhaseSummary:
    def test_summary_accounts_every_message(self):
        from repro.experiments.report import (
            PHASE_SUMMARY_HEADERS,
            format_phase_summary,
            phase_summary_rows,
        )

        pts = uniform_points(200, seed=5)
        res, events = _traced(run_modified_ghs, pts)
        rows = phase_summary_rows(events)
        assert rows, "no summary rows from a traced run"
        assert sum(r[2] for r in rows) == res.stats.messages_total
        assert sum(r[3] for r in rows) == pytest.approx(
            res.stats.energy_total, rel=1e-12
        )
        phase_rows = [r for r in rows if r[0] != "-"]
        assert len(phase_rows) == res.phases
        text = format_phase_summary(events)
        for header in PHASE_SUMMARY_HEADERS:
            assert header in text

    def test_empty_trace_summary(self):
        from repro.experiments.report import format_phase_summary

        assert "no round or phase events" in format_phase_summary([])
