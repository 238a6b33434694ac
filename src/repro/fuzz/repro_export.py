"""Counterexample export: shrunk fuzz failure -> replayable artifacts.

When a fuzz campaign fails, hypothesis hands us the *shrunk* world (the
minimal rule sequence that still fails).  :func:`export_failure` turns it
into a directory of artifacts:

``scenario.json``
    Exact-replay payload for :func:`repro.fuzz.corpus.replay_scenario` —
    check it into ``tests/corpus/`` once fixed and it becomes a
    regression test.
``spec.json``
    The nearest declarative :class:`~repro.runspec.spec.RunSpec` (GHS
    worlds only): instance + algorithm + the effective fault plan, so the
    failure is also approachable through ``repro run``.
``error.txt``
    The exception that ended the run.
``trace_diff.txt`` / ``trace_diff.json``
    First-divergence report between two traced replays of the scenario:
    fast vs legacy kernel for GHS worlds (where did the backends
    split?), replay-vs-replay for retry worlds (is the failure even
    deterministic?).  Replays are expected to fail again — the traces
    captured up to the failure are exactly the interesting part.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.trace import trace
from repro.trace.diff import diff_traces, format_divergence

__all__ = ["export_failure"]


def _traced_replay(scenario: dict, *, configs=None) -> list[dict]:
    """Replay a scenario with tracing on; tolerate the expected failure."""
    from repro.fuzz.corpus import replay_scenario

    with trace.isolated() as cap:
        try:
            replay_scenario(scenario, configs=configs, record_fates=False)
        except Exception:
            pass  # the counterexample still reproduces — that's the point
    return cap.data


def _trace_report(world) -> tuple[str, dict | None]:
    """(human report, divergence payload) for the failing scenario."""
    scenario = world.to_scenario()
    if scenario["machine"] == "ghs":
        label_a, label_b = "fast", "legacy"
        a = _traced_replay(scenario, configs=["fast"])
        b = _traced_replay(scenario, configs=["legacy"])
    else:
        # One machine, two replays: a non-empty diff here means the
        # failure itself is nondeterministic — the worst kind of bug.
        label_a, label_b = "replay-1", "replay-2"
        a = _traced_replay(scenario)
        b = _traced_replay(scenario)
    d = diff_traces(a, b)
    report = format_divergence(d, label_a, label_b)
    return report, (d.to_dict() if d is not None else None)


def export_failure(world, *, error: Exception, outdir: str | Path) -> dict:
    """Write every artifact for a failing world; returns {name: path}."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, str] = {}

    from repro.fuzz.corpus import save_scenario

    scenario = world.to_scenario()
    path = save_scenario(scenario, outdir / "scenario.json")
    artifacts["scenario"] = str(path)

    if hasattr(world, "to_runspec"):
        spec_path = outdir / "spec.json"
        spec_path.write_text(world.to_runspec().to_json() + "\n")
        artifacts["spec"] = str(spec_path)

    err_path = outdir / "error.txt"
    err_path.write_text(f"{type(error).__name__}: {error}\n")
    artifacts["error"] = str(err_path)

    try:
        report, payload = _trace_report(world)
    except Exception as exc:  # diagnostics must never mask the finding
        report, payload = f"trace diff unavailable: {exc}", None
    txt_path = outdir / "trace_diff.txt"
    txt_path.write_text(report + "\n")
    artifacts["trace_diff"] = str(txt_path)
    if payload is not None:
        json_path = outdir / "trace_diff.json"
        json_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        artifacts["trace_diff_json"] = str(json_path)
    return artifacts
