#!/usr/bin/env python
"""Spec round-trip smoke: emit specs, execute them, diff against golden.

The ``make spec-smoke`` gate for the runspec layer.  For each smoke
:class:`~repro.runspec.spec.RunSpec` (the GHS family, EOPT, Co-NNT and
Rand-NNT on one fixed instance, plus faulted MGHS and Co-NNT runs):

* the spec is emitted to JSON and reloaded — the loaded spec must equal
  the original exactly (exit code 2 on mismatch: the spec schema broke);
* the loaded spec is executed and its :class:`~repro.runspec.report.RunReport`
  JSON round-trips — headline stats must survive unchanged (exit 2);
* the headline stats must match the committed golden snapshot in
  ``benchmarks/golden/spec_smoke.json`` (exit code 1 on divergence — a
  semantic regression in the engine or a runner, not a schema one).

Results land in ``benchmarks/out/BENCH_spec_smoke.json``.

Usage::

    python benchmarks/bench_spec_smoke.py
    python benchmarks/bench_spec_smoke.py --write-golden

Not a pytest file on purpose: ``make spec-smoke`` calls it directly so
the golden comparison's exit code gates CI.
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

from repro.runspec import RunReport, RunSpec, execute  # noqa: E402
from repro.sim.faults import FaultPlan  # noqa: E402

GOLDEN_PATH = REPO / "benchmarks" / "golden" / "spec_smoke.json"
OUT_PATH = REPO / "benchmarks" / "out" / "BENCH_spec_smoke.json"

#: The smoke grid: one fixed instance through every registered family
#: the engine dispatches differently, plus one faulted run so the fault
#: plan survives the spec round trip under execution.
SPECS = (
    RunSpec(algorithm="GHS", n=300, seed=7),
    RunSpec(algorithm="MGHS", n=300, seed=7),
    RunSpec(algorithm="EOPT", n=300, seed=7),
    RunSpec(algorithm="Co-NNT", n=300, seed=7),
    RunSpec(algorithm="Rand-NNT", n=300, seed=7),
    RunSpec(
        algorithm="MGHS",
        n=300,
        seed=7,
        faults=FaultPlan(seed=1, drop_rate=0.1),
    ),
    RunSpec(
        algorithm="Co-NNT",
        n=300,
        seed=7,
        faults=FaultPlan(seed=1, drop_rate=0.1),
    ),
)


def _fail(msg: str) -> None:
    print(f"FATAL: {msg}", file=sys.stderr)
    sys.exit(2)


def _key(spec: RunSpec) -> str:
    return spec.cell + (":faulted" if spec.faults is not None else "")


def _headline(report: RunReport) -> dict:
    res = report.result
    return {
        "energy_total": res.stats.energy_total,
        "messages_total": int(res.stats.messages_total),
        "rounds": int(res.stats.rounds),
        "phases": int(res.phases),
        "n_tree_edges": int(len(res.tree_edges)),
        "dropped": int(res.stats.dropped_total),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--write-golden",
        action="store_true",
        help="(re)write the golden stats snapshot instead of checking it",
    )
    args = ap.parse_args(argv)

    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    rows = {}
    for spec in SPECS:
        # Emit -> reload: the schema must round-trip the spec exactly.
        emitted = OUT_PATH.parent / f"spec_smoke_{_key(spec).replace(':', '_')}.json"
        emitted.write_text(spec.to_json())
        loaded = RunSpec.from_json(emitted.read_text())
        if loaded != spec:
            _fail(f"{_key(spec)}: spec JSON round trip changed the spec")

        t0 = time.perf_counter()
        report = execute(loaded)
        wall = time.perf_counter() - t0

        # Execute -> report round trip: headline stats must survive.
        back = RunReport.from_json(report.to_json())
        if _headline(back) != _headline(report) or back.spec != spec:
            _fail(f"{_key(spec)}: report JSON round trip changed the stats")

        rows[_key(spec)] = {**_headline(report), "wall_s": round(wall, 3)}
        print(
            f"{_key(spec):<24} energy={rows[_key(spec)]['energy_total']:.2f} "
            f"msgs={rows[_key(spec)]['messages_total']} "
            f"rounds={rows[_key(spec)]['rounds']}"
        )

    golden = {
        key: {k: v for k, v in rec.items() if k != "wall_s"}
        for key, rec in rows.items()
    }
    failures = []
    if args.write_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"golden written to {GOLDEN_PATH}")
    elif GOLDEN_PATH.exists():
        expected = json.loads(GOLDEN_PATH.read_text())
        for key, stats in golden.items():
            if key in expected and expected[key] != stats:
                failures.append(
                    f"golden divergence for {key}: got {stats}, "
                    f"expected {expected[key]}"
                )
    else:
        print(f"warning: no golden snapshot at {GOLDEN_PATH}; run --write-golden")

    OUT_PATH.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print(f"results written to {OUT_PATH}")

    if failures:
        for f in failures:
            print("FATAL:", f, file=sys.stderr)
        return 1
    print(f"{len(rows)} specs round-tripped and matched golden")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
