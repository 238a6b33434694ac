#!/usr/bin/env python
"""Print a sha256 of ``execute(spec).to_json()`` for a fixed set of specs.

One line per spec, ``<sha256>  <cell>``, in a fixed order, so two
checkouts' outputs diff line by line: run it at a parent commit and at a
change and every line that moved names a report that moved.  The set
covers GHS, MGHS, EOPT and MAINT (the ``mixed`` scenario) on the
``fast`` and ``legacy`` kernels at n in {300, 1000}, each clean, with
drop+dup faults, with a crash window (MAINT's schedule has its own) and
with a reception cost, traced and untraced.

Usage::

    python tools/report_hashes.py            # or: make report-hashes
    python tools/report_hashes.py > a.txt    # then diff against another checkout

The script imports the package from the ``src`` directory next to it, so
a copy of the repository at another commit hashes its own code.  Specs
run in two worker processes; each report is hashed where it was made.
"""

from __future__ import annotations

import hashlib
import json
import sys
from multiprocessing import Pool
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runspec import RunSpec, execute  # noqa: E402
from repro.scenario.mobility import mixed_plan  # noqa: E402
from repro.sim.faults import FaultPlan  # noqa: E402

ALGORITHMS = ("GHS", "MGHS", "EOPT", "MAINT")
KERNELS = ("fast", "legacy")
SIZES = (300, 1000)
SEED = 1

#: Variant label -> RunSpec overrides.
VARIANTS = {
    "clean": {},
    "dropdup": {"faults": FaultPlan(seed=7, drop_rate=0.05, dup_rate=0.02)},
    "crash": {"faults": FaultPlan(seed=3, crashes=((5, 2, 40), (17, 0, None)))},
    "rx": {"rx_cost": 0.01},
}


def specs():
    """``(cell, spec)`` for every spec of the set, in output order."""
    for alg in ALGORITHMS:
        for n in SIZES:
            scenario = mixed_plan(n, seed=SEED) if alg == "MAINT" else None
            for kernel in KERNELS:
                for variant, extra in VARIANTS.items():
                    if alg == "MAINT" and variant == "crash":
                        continue  # MAINT takes its crashes from the schedule
                    for traced in (False, True):
                        spec = RunSpec(
                            alg, n, seed=SEED, kernel=kernel,
                            scenario=scenario, trace=traced, **extra,
                        )
                        tag = "traced" if traced else "untraced"
                        yield f"{alg}:n{n}:{kernel}:{variant}:{tag}", spec


def _digest(spec_json: str) -> str:
    spec = RunSpec.from_dict(json.loads(spec_json))
    return hashlib.sha256(execute(spec).to_json().encode()).hexdigest()


def main() -> int:
    cells, payloads = zip(*((cell, spec.to_json()) for cell, spec in specs()))
    with Pool(2) as pool:
        for cell, digest in zip(cells, pool.imap(_digest, payloads)):
            print(f"{digest}  {cell}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
