#!/usr/bin/env python
"""Run-cache smoke: cold vs warm, dedupe, byte-identity.

The ``make cache-smoke`` gate for the store layer.  One duplicated
sweep of specs goes through ``execute_batch`` three ways:

* **cold** — process backend against a fresh sqlite store: every
  distinct spec computes once (in-batch singleflight), duplicates are
  fanned back, misses are written through;
* **warm** — the same batch again: everything answers from the store
  with no fan-out.  The warm repeat must be at least ``WARM_SPEEDUP_MIN``
  times faster than the cold pass (exit code 1 otherwise);
* **equivalence** — a storeless serial pass; cold, warm and serial
  reports must be byte-identical JSON (exit code 2: the cache returned
  something the engine would not have produced).

Headline stats per spec are diffed against the committed golden in
``benchmarks/golden/run_cache.json`` (exit code 1 on divergence).
Results land in ``benchmarks/out/BENCH_cache.json``.

Usage::

    python benchmarks/bench_run_cache.py
    python benchmarks/bench_run_cache.py --quick
    python benchmarks/bench_run_cache.py --write-golden

Not a pytest file on purpose: ``make cache-smoke`` calls it directly so
the gates' exit codes reach CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.runspec import RunSpec, execute_batch  # noqa: E402
from repro.store import ResultStore  # noqa: E402

GOLDEN_PATH = REPO / "benchmarks" / "golden" / "run_cache.json"
OUT_PATH = REPO / "benchmarks" / "out" / "BENCH_cache.json"

#: A warm (all-hits) repeat of the sweep must beat the cold pass by at
#: least this factor — the cache's whole point is skipping the compute.
WARM_SPEEDUP_MIN = 20.0

WORKERS = 4


def sweep_specs(quick: bool) -> list[RunSpec]:
    """The duplicated sweep: GHS/MGHS across seeds, every spec twice.

    Duplicates make the in-batch singleflight observable: the dedupe
    ratio reported below is ``len(specs) / distinct``.
    """
    n = 400 if quick else 800
    seeds = (0, 1) if quick else (0, 1, 2, 3)
    base = [
        RunSpec(algorithm=alg, n=n, seed=seed)
        for alg in ("GHS", "MGHS")
        for seed in seeds
    ]
    return base + base  # exact duplicates, fanned back from one compute


def _fail(msg: str) -> None:
    print(f"FATAL: {msg}", file=sys.stderr)
    sys.exit(2)


def _key(spec: RunSpec) -> str:
    return f"{spec.algorithm}:{spec.kernel}:n{spec.n}:s{spec.seed}"


def _headline(report) -> dict:
    res = report.result
    return {
        "energy_total": res.stats.energy_total,
        "messages_total": int(res.stats.messages_total),
        "rounds": int(res.stats.rounds),
        "n_tree_edges": int(len(res.tree_edges)),
    }


def _timed_batch(specs, store):
    t0 = time.perf_counter()
    reports = execute_batch(specs, backend="process", workers=WORKERS, store=store)
    return reports, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="smaller sweep")
    ap.add_argument(
        "--write-golden",
        action="store_true",
        help="(re)write the golden stats snapshot instead of checking it",
    )
    args = ap.parse_args(argv)

    specs = sweep_specs(args.quick)
    distinct = len({s.spec_hash() for s in specs})
    print(f"sweep: {len(specs)} specs, {distinct} distinct (quick={args.quick})")

    with tempfile.TemporaryDirectory(prefix="repro-cache-bench-") as tmp:
        store = ResultStore(Path(tmp) / "results.sqlite")

        cold, cold_s = _timed_batch(specs, store)
        misses = store.stats()["misses"]
        warm, warm_s = _timed_batch(specs, store)
        hits = store.stats()["hits"]
        store.close()

    if misses != distinct:
        _fail(f"cold pass computed {misses} specs, expected {distinct}")
    # Duplicates collapse in the singleflight before the store is asked,
    # so a fully-warm pass records one hit per *distinct* spec.
    if hits < distinct:
        _fail(f"warm pass hit {hits} times, expected >= {distinct}")

    # Equivalence: cached payloads must be byte-for-byte the engine's own.
    serial = execute_batch(specs, backend="serial")
    for spec, c, w, s in zip(specs, cold, warm, serial):
        if not (c.to_json() == w.to_json() == s.to_json()):
            _fail(f"{_key(spec)}: cold/warm/serial reports differ")

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"cold: {cold_s:.3f}s   warm: {warm_s:.3f}s   speedup: {speedup:.1f}x")

    rows = {
        "sweep": {
            "specs": len(specs),
            "distinct": distinct,
            "dedupe_ratio": round(len(specs) / distinct, 3),
            "workers": WORKERS,
            "quick": bool(args.quick),
        },
        "timing": {
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "warm_speedup": round(speedup, 2),
        },
        "stats": {_key(s): _headline(r) for s, r in zip(specs, cold)},
    }

    failures = []
    if speedup < WARM_SPEEDUP_MIN:
        failures.append(
            f"warm speedup {speedup:.1f}x below the {WARM_SPEEDUP_MIN:.0f}x gate"
        )

    if args.write_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(rows["stats"], indent=2, sort_keys=True) + "\n")
        print(f"golden written to {GOLDEN_PATH}")
    elif GOLDEN_PATH.exists():
        expected = json.loads(GOLDEN_PATH.read_text())
        for key, stats in rows["stats"].items():
            if key in expected and expected[key] != stats:
                failures.append(
                    f"golden divergence for {key}: got {stats}, "
                    f"expected {expected[key]}"
                )
    else:
        print(f"warning: no golden snapshot at {GOLDEN_PATH}; run --write-golden")

    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print(f"results written to {OUT_PATH}")

    if failures:
        for f in failures:
            print("FATAL:", f, file=sys.stderr)
        return 1
    print(
        f"{len(specs)} specs cached and verified "
        f"(dedupe {rows['sweep']['dedupe_ratio']}x, warm {speedup:.0f}x faster)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
