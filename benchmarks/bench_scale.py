#!/usr/bin/env python
"""Scaling benchmark: nodes/sec and peak RSS vs n.

Runs modified GHS on the default kernel (whole-round phase engine) at
n in {10^4, 10^5, 10^6}, recording wall time, throughput in nodes/sec,
round counts and the peak-RSS counter sampled at round boundaries by
``repro.perf``.  Each row also records the run's own neighbor-table
build: its edge count (``kernel.nbr_table_entries`` halved) and its
``kernel.nbr_table_build`` time.

Three gates, each fatal:

* **equivalence** — the default kernel must be bit-identical to the
  frozen legacy kernel (energy / messages / rounds / tree size) for
  MGHS, for classical GHS (TEST probes), for EOPT (size census and
  giant declaration) and for MAINT (repair cycles seeded from the
  surviving forest, under a churn plan) at the small-n config, and
  on an exact lattice (distance ties everywhere) in stats and in the
  ``diff_traces`` event stream, with trace-diff triage printed on
  divergence (exit 2);
* **golden stats** — the n=10^4 stats must match
  ``benchmarks/golden/scale.json`` (exit 1 on divergence);
* **speedup** (``--gate`` or full mode) — the default kernel must be
  >= 10x the frozen legacy kernel on MGHS n=2000 (exit 3 below the bar).

Usage::

    python benchmarks/bench_scale.py --quick    # n=10^4 + gates
    python benchmarks/bench_scale.py            # full: up to n=10^6
    python benchmarks/bench_scale.py --gate     # perf-smoke speedup gate
    python benchmarks/bench_scale.py --write-golden

Not a pytest file on purpose: the make targets call it directly so the
exit codes gate CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.geometry.radius import (  # noqa: E402
    PAPER_GHS_RADIUS_CONST,
    connectivity_radius,
)
from repro.perf import PEAK_RSS_COUNTER  # noqa: E402
from repro.runspec import RunSpec, execute  # noqa: E402
from repro.trace.diff import diff_traces, format_divergence  # noqa: E402

GOLDEN_PATH = REPO / "benchmarks" / "golden" / "scale.json"
OUT_PATH = REPO / "benchmarks" / "out" / "BENCH_scale.json"

SEED = 7
QUICK_NS = [10_000]
FULL_NS = [10_000, 100_000, 1_000_000]
#: Speedup bar for the MGHS n=2000 fast-vs-legacy gate.
SPEEDUP_BAR = 10.0
GATE_N = 2000
#: Small-n config for the bit-identical fast-vs-legacy equivalence gate.
EQUIV_N = 600
#: Algorithms the equivalence gate runs: both whole-round engine modes,
#: EOPT for the census and giant-declaration waves, and MAINT for the
#: engine's seeded-forest entry (repair cycles).
EQUIV_ALGORITHMS = ("MGHS", "GHS", "EOPT", "MAINT")
#: Side of the exact lattice in the equivalence gate (pitch 1/(side-1)
#: is dyadic, so equal distances are bit-equal).
LATTICE_SIDE = 33


def _stats_record(res) -> dict:
    """Headline stats of an ``AlgorithmResult`` (``report.result``)."""
    return {
        "energy_total": res.stats.energy_total,
        "messages_total": int(res.stats.messages_total),
        "rounds": int(res.stats.rounds),
        "n_tree_edges": int(len(res.tree_edges)),
    }


def _run(n: int, *, kernel: str = "fast", algorithm: str = "MGHS", **flags):
    spec = RunSpec(algorithm=algorithm, n=n, seed=SEED, kernel=kernel, **flags)
    t0 = time.perf_counter()
    report = execute(spec)
    return report, time.perf_counter() - t0


def _equiv_flags(algorithm: str, n: int) -> dict:
    """Extra run inputs of the equivalence gates: MAINT lives a churn plan
    of permanent crashes and joins, so every repair cycle resumes from
    the surviving forest on the engine."""
    if algorithm != "MAINT":
        return {}
    from repro.scenario.mobility import churn_plan

    return {"scenario": churn_plan(n, seed=SEED, transient_rate=0.0)}


def equivalence_gate() -> str | None:
    """Fast vs legacy at small n: bit-identical or a trace-diff triage."""
    for algorithm in EQUIV_ALGORITHMS:
        flags = _equiv_flags(algorithm, EQUIV_N)
        legacy, _ = _run(EQUIV_N, kernel="legacy", algorithm=algorithm, **flags)
        fast, _ = _run(EQUIV_N, kernel="fast", algorithm=algorithm, **flags)
        if _stats_record(legacy.result) != _stats_record(fast.result):
            streams = []
            for kernel in ("legacy", "fast"):
                rep, _ = _run(
                    EQUIV_N, kernel=kernel, algorithm=algorithm, trace=True, **flags
                )
                streams.append(rep.trace)
            return (
                f"fast diverged from legacy at {algorithm} n={EQUIV_N} "
                f"seed={SEED}: {_stats_record(fast.result)} != "
                f"{_stats_record(legacy.result)}\n"
                + format_divergence(diff_traces(*streams), "legacy", "fast")
            )
        failure = lattice_gate(algorithm)
        if failure is not None:
            return failure
    return None


def lattice_gate(algorithm: str) -> str | None:
    """``algorithm`` on an exact lattice: same stats and trace events on
    both kernels."""
    import numpy as np

    from repro.runspec import registry
    from repro.sim import LegacyKernel, SynchronousKernel
    from repro.trace import trace

    runner = registry.get(algorithm).runner
    g = np.arange(LATTICE_SIDE, dtype=float) / (LATTICE_SIDE - 1)
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    flags = _equiv_flags(algorithm, len(pts))
    runs = {}
    for name, cls in (("legacy", LegacyKernel), ("fast", SynchronousKernel)):
        trace.reset()
        trace.enable()
        try:
            res = runner(pts, kernel_cls=cls, **flags)
            runs[name] = (_stats_record(res), trace.snapshot())
        finally:
            trace.disable()
            trace.reset()
    (ls, lt), (fs, ft) = runs["legacy"], runs["fast"]
    d = diff_traces(lt, ft)
    if ls == fs and d is None:
        return None
    return (
        f"fast diverged from legacy on the {LATTICE_SIDE}x{LATTICE_SIDE} "
        f"lattice ({algorithm}): {fs} != {ls}\n"
        + format_divergence(d, "legacy", "fast")
    )


def speedup_gate(reps: int) -> dict:
    """MGHS n=2000 fast vs the frozen legacy kernel, best-of-``reps``."""
    _run(GATE_N, kernel="legacy")  # warm
    _run(GATE_N)
    legacy_times, fast_times = [], []
    legacy_rep = fast_rep = None
    for _ in range(reps):
        legacy_rep, dt = _run(GATE_N, kernel="legacy")
        legacy_times.append(dt)
        fast_rep, dt = _run(GATE_N)
        fast_times.append(dt)
    legacy_s, fast_s = min(legacy_times), min(fast_times)
    return {
        "n": GATE_N,
        "legacy_s": round(legacy_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(legacy_s / fast_s, 2),
        "bar": SPEEDUP_BAR,
        "stats_identical": _stats_record(legacy_rep.result) == _stats_record(fast_rep.result),
    }


def scale_row(n: int) -> dict:
    """Run MGHS, record throughput and its neighbor-table build."""
    report, run_s = _run(n, perf=True)
    counters = report.perf["counters"]
    build = report.perf["timers"].get("kernel.nbr_table_build", {})
    row = {
        "n": n,
        "radius": connectivity_radius(n, PAPER_GHS_RADIUS_CONST),
        "edges": int(counters.get("kernel.nbr_table_entries", 0)) // 2,
        "build_s": round(build.get("total_s", 0.0), 3),
        "run_s": round(run_s, 3),
        "nodes_per_s": round(n / run_s, 1),
        "peak_rss_bytes": int(counters.get(PEAK_RSS_COUNTER, 0)),
        "engine_rounds": int(counters.get("kernel.turbo_engine_rounds", 0)),
        "stats": _stats_record(report.result),
    }
    print(
        f"n={n:8d}  build {row['build_s']:8.2f}s  run {row['run_s']:8.2f}s  "
        f"{row['nodes_per_s']:10,.0f} nodes/s  "
        f"peak RSS {row['peak_rss_bytes'] / 2**20:8.0f} MiB"
    )
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="n=10^4 only")
    ap.add_argument(
        "--gate",
        action="store_true",
        help="speedup + equivalence gates only (perf-smoke)",
    )
    ap.add_argument("--reps", type=int, default=3, help="gate timing reps")
    ap.add_argument(
        "--write-golden",
        action="store_true",
        help="(re)write the golden stats snapshot instead of checking it",
    )
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")

    failure = equivalence_gate()
    if failure is not None:
        print("FATAL:", failure, file=sys.stderr)
        return 2

    gate = speedup_gate(args.reps)
    print(
        f"gate: MGHS n={GATE_N}  legacy {gate['legacy_s']:.3f}s  "
        f"fast {gate['fast_s']:.3f}s  speedup {gate['speedup']:.2f}x "
        f"(bar {SPEEDUP_BAR:.0f}x)"
    )
    if not gate["stats_identical"]:
        print("FATAL: fast diverged from legacy at the gate config", file=sys.stderr)
        return 2
    if gate["speedup"] < SPEEDUP_BAR:
        print(
            f"FATAL: speedup {gate['speedup']:.2f}x below the "
            f"{SPEEDUP_BAR:.0f}x bar",
            file=sys.stderr,
        )
        return 3

    rows = []
    if not args.gate:
        for n in QUICK_NS if args.quick else FULL_NS:
            rows.append(scale_row(n))
        golden = {f"MGHS:{r['n']}:{SEED}": r["stats"] for r in rows if r["n"] <= 10_000}
        if args.write_golden:
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            merged = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
            merged.update(golden)
            GOLDEN_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
            print(f"golden written to {GOLDEN_PATH}")
        elif GOLDEN_PATH.exists():
            expected = json.loads(GOLDEN_PATH.read_text())
            for key, stats in golden.items():
                if key in expected and expected[key] != stats:
                    print(
                        f"FATAL: golden divergence for {key}: got {stats}, "
                        f"expected {expected[key]}",
                        file=sys.stderr,
                    )
                    return 1
        else:
            print(f"warning: no golden snapshot at {GOLDEN_PATH}; run --write-golden")

    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    if args.gate and OUT_PATH.exists():
        # Gate-only runs refresh the timing gate without discarding the
        # scale rows a previous full run measured.
        try:
            prior = json.loads(OUT_PATH.read_text())
        except (OSError, ValueError):
            prior = {}
        rows = prior.get("scale", rows)
        args.quick = prior.get("quick", args.quick)
    OUT_PATH.write_text(
        json.dumps(
            {"quick": args.quick, "gate": gate, "scale": rows},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"results written to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
