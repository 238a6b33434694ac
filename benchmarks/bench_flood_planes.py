#!/usr/bin/env python
"""Flood-plane benchmark: plane vs per-message HELLO/ANNOUNCE delivery.

Runs modified GHS and EOPT on fixed (n, seed) instances through the fast
kernel twice — per-message (``Message`` dispatch of every HELLO and
ANNOUNCE over the same neighbor table, whole-round engine off: the
baseline forces ``plane.flood_table`` to decline, as it does on a
density-gated table) and with vectorized flood planes (the default
run) — interleaved and best-of-``--reps`` timed.  Alongside wall-clock it reads
the ``repro.perf`` stage timers to isolate the *flood-dominated* stages
(hello + phases; for EOPT, both steps' hello + phases).  Checks, each
fatal:

* both paths must produce **bit-identical** energy / message / round
  stats and the same MST size, and the plane path must actually engage
  (``kernel.plane_sends > 0``) — exit code 2 on violation;
* the stats must match the golden snapshot in
  ``benchmarks/golden/flood_planes.json`` (exit code 1 on divergence — a
  semantic regression, not a perf one);
* on the full run, the flood-stage speedup for modified GHS at n=2000
  must be >= 3x (exit code 3) — the tentpole's target;
* results land in ``benchmarks/out/BENCH_planes.json``.

Usage::

    python benchmarks/bench_flood_planes.py --quick   # tier-2 smoke
    python benchmarks/bench_flood_planes.py           # full (n=2000)
    python benchmarks/bench_flood_planes.py --write-golden

Not a pytest file on purpose: the tier-2 smoke target calls it directly
so the golden comparison's exit code gates CI.
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

from repro.algorithms.eopt import run_eopt  # noqa: E402
from repro.algorithms.ghs import run_modified_ghs  # noqa: E402
from repro.algorithms.ghs import plane  # noqa: E402
from repro.geometry.points import uniform_points  # noqa: E402
from repro.perf import perf  # noqa: E402

GOLDEN_PATH = REPO / "benchmarks" / "golden" / "flood_planes.json"
OUT_PATH = REPO / "benchmarks" / "out" / "BENCH_planes.json"

RUNNERS = {"MGHS": run_modified_ghs, "EOPT": run_eopt}

#: Stage timers whose sum is the flood-dominated portion of a run.
FLOOD_TIMERS = {
    "MGHS": ("mghs.hello", "mghs.phases"),
    "EOPT": (
        "eopt.step1.hello",
        "eopt.step1.phases",
        "eopt.step2.hello",
        "eopt.step2.phases",
    ),
}

#: (algorithm, n, seed) per mode; quick is the tier-2 smoke subset.
QUICK_CONFIGS = [("MGHS", 600, 7), ("EOPT", 600, 7)]
FULL_CONFIGS = QUICK_CONFIGS + [("MGHS", 2000, 7), ("EOPT", 2000, 7)]

#: Tentpole acceptance gate: flood-stage speedup on this config (full runs).
GATE_CONFIG = ("MGHS", 2000, 7)
GATE_SPEEDUP = 3.0


def _stats_record(res) -> dict:
    return {
        "energy_total": res.stats.energy_total,
        "messages_total": int(res.stats.messages_total),
        "rounds": int(res.stats.rounds),
        "n_tree_edges": int(len(res.tree_edges)),
    }


def _run_once(alg: str, pts, planes: bool):
    """One instrumented run: (result, wall_s, flood_s, plane_sends).

    ``planes=False`` is the per-message baseline: the flood table is
    refused for this run only, so every HELLO and ANNOUNCE arrives as a
    message and writes its receiver's flood-cache slot.
    """
    flood_table = plane.flood_table
    if not planes:
        plane.flood_table = lambda kernel: None
    perf.reset()
    perf.enable()
    try:
        t0 = time.perf_counter()
        res = RUNNERS[alg](pts)
        wall = time.perf_counter() - t0
    finally:
        plane.flood_table = flood_table
    snap = perf.snapshot()
    perf.disable()
    flood = sum(
        snap["timers"][t]["total_s"]
        for t in FLOOD_TIMERS[alg]
        if t in snap["timers"]
    )
    return res, wall, flood, snap["counters"].get("kernel.plane_sends", 0)


def bench_config(alg: str, n: int, seed: int, reps: int) -> dict:
    pts = uniform_points(n, seed=seed)
    # Warm both paths (KD-tree build, allocator, branch predictors).
    _run_once(alg, pts, planes=False)
    _run_once(alg, pts, planes=True)
    off_wall, off_flood, on_wall, on_flood = [], [], [], []
    off_res = on_res = None
    plane_sends = 0
    for _ in range(reps):
        off_res, w, f, _s = _run_once(alg, pts, planes=False)
        off_wall.append(w)
        off_flood.append(f)
        on_res, w, f, plane_sends = _run_once(alg, pts, planes=True)
        on_wall.append(w)
        on_flood.append(f)
    return {
        "alg": alg,
        "n": n,
        "seed": seed,
        "permsg_s": round(min(off_wall), 4),
        "planes_s": round(min(on_wall), 4),
        "speedup": round(min(off_wall) / min(on_wall), 2),
        "permsg_flood_s": round(min(off_flood), 4),
        "planes_flood_s": round(min(on_flood), 4),
        "flood_speedup": round(min(off_flood) / min(on_flood), 2),
        "plane_sends": int(plane_sends),
        "stats": _stats_record(on_res),
        "permsg_stats": _stats_record(off_res),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small-n smoke subset")
    ap.add_argument("--reps", type=int, default=None, help="timed reps (best-of)")
    ap.add_argument(
        "--write-golden",
        action="store_true",
        help="(re)write the golden stats snapshot instead of checking it",
    )
    args = ap.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")
    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    reps = args.reps if args.reps is not None else (1 if args.quick else 3)

    rows = []
    failures = []
    for alg, n, seed in configs:
        row = bench_config(alg, n, seed, reps)
        if row["stats"] != row["permsg_stats"]:
            failures.append(
                f"{alg} n={n} seed={seed}: plane path diverged from "
                f"per-message: {row['stats']} != {row['permsg_stats']}"
            )
        if row["plane_sends"] == 0:
            failures.append(
                f"{alg} n={n} seed={seed}: plane path never engaged "
                "(kernel.plane_sends == 0) — nothing was benchmarked"
            )
        rows.append(row)
        print(
            f"{alg:5s} n={n:5d} seed={seed}  permsg {row['permsg_s']:7.3f}s  "
            f"planes {row['planes_s']:7.3f}s  speedup {row['speedup']:.2f}x  "
            f"(flood stages {row['flood_speedup']:.2f}x)"
        )
    if failures:
        for f in failures:
            print("FATAL:", f, file=sys.stderr)
        return 2

    golden = {f"{alg}:{n}:{seed}": row["stats"] for (alg, n, seed), row in zip(configs, rows)}
    if args.write_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        # Merge so quick/full runs keep each other's entries.
        merged = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        merged.update(golden)
        GOLDEN_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"golden written to {GOLDEN_PATH}")
    elif GOLDEN_PATH.exists():
        expected = json.loads(GOLDEN_PATH.read_text())
        for key, stats in golden.items():
            if key in expected and expected[key] != stats:
                failures.append(
                    f"golden divergence for {key}: got {stats}, expected {expected[key]}"
                )
    else:
        print(f"warning: no golden snapshot at {GOLDEN_PATH}; run --write-golden")

    gate = None
    for (alg, n, seed), row in zip(configs, rows):
        if (alg, n, seed) == GATE_CONFIG:
            gate = row["flood_speedup"]

    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(
        json.dumps(
            {
                "quick": args.quick,
                "reps": reps,
                "configs": rows,
                "gate": {
                    "config": list(GATE_CONFIG),
                    "required_flood_speedup": GATE_SPEEDUP,
                    "measured_flood_speedup": gate,
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"results written to {OUT_PATH}")

    if failures:
        for f in failures:
            print("FATAL:", f, file=sys.stderr)
        return 1
    if gate is not None and gate < GATE_SPEEDUP:
        print(
            f"FATAL: flood-stage speedup {gate:.2f}x on "
            f"{GATE_CONFIG[0]} n={GATE_CONFIG[1]} is below the "
            f"{GATE_SPEEDUP:.0f}x target",
            file=sys.stderr,
        )
        return 3
    print("stats identical on both paths" + (f"; gate {gate:.2f}x >= {GATE_SPEEDUP:.0f}x" if gate is not None else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
