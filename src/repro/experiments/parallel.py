"""Process-parallel sweep execution.

The Fig. 3 sweep at the paper's full grid is hundreds of independent
simulations — embarrassingly parallel.  ``sweep_energy_parallel`` is now
a thin shell over the runspec engine: the same spec list the serial
sweep executes goes to :func:`repro.runspec.engine.execute_batch` with
``backend="process"``, which ships each spec to a worker as its
serialized dict (small, self-describing task payloads — the worker
re-derives the instance from the seed through the per-process
:func:`~repro.experiments.instances.get_points` cache).  Tasks stay
cell-major ((n, seed) outer, algorithm inner) and chunks align to the
algorithm count, so one chunk carries every algorithm of a cell and the
worker builds the instance once.

The engine owns the module-level :class:`~concurrent.futures.ProcessPoolExecutor`
that stays alive across sweeps (spawning workers pays interpreter
start-up and a cold instance cache on every call otherwise);
:func:`shutdown` tears it down explicitly (tests, clean exits), an
``atexit`` hook reaps it at interpreter exit, and a host that cannot
spawn a pool at all (sandboxed CI) degrades to the serial backend with a
single :class:`RuntimeWarning` — every cell is deterministic, so the
results are identical, only slower.  The hook is the engine's, so
importing this module alone still makes sweep-and-exit safe.
"""

from __future__ import annotations

from repro.experiments.config import SweepConfig
from repro.experiments.runner import EnergySweep, sweep_from_reports, sweep_specs
from repro.runspec.engine import execute_batch, shutdown

__all__ = ["sweep_energy_parallel", "shutdown"]


def sweep_energy_parallel(
    config: SweepConfig | None = None,
    *,
    workers: int | None = None,
) -> EnergySweep:
    """Run the sweep grid on a process pool.

    Bit-identical to :func:`~repro.experiments.runner.sweep_energy`
    (every cell is a deterministic function of its coordinates) — the two
    differ only in the ``execute_batch`` backend.

    Parameters
    ----------
    config:
        Sweep specification (defaults as in
        :func:`~repro.experiments.runner.sweep_energy`).
    workers:
        Pool size; defaults to the CPU count.  ``workers=1`` still goes
        through the pool (useful to test the path); for a single-core
        host there is no speedup, only isolation.
    """
    cfg = config or SweepConfig()
    specs = sweep_specs(cfg)
    reports = execute_batch(
        specs,
        backend="process",
        workers=workers,
        chunk_align=len(cfg.algorithms),
    )
    return sweep_from_reports(cfg, specs, reports)
